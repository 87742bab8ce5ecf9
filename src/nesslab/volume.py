"""Assembly of the finite-volume operators for one chosen volume.

Given a model and a volume (a subset of sites containing the small system),
this builds the generator of the dynamics (the volume Hamiltonian plus the
reservoir perturbations), the per-reservoir Hamiltonians and perturbations,
the normalized exponent whose exponential is the initial product state, the
interface operator made of the terms inside no single reservoir, and the
reservoir energy-current operators. Terms straddling the volume boundary
are dropped (strict containment) and counted in the build log.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np
from scipy.special import logsumexp

from . import opalg
from .model import InteractionTerm, ModelSpec, PerturbationFamily, ZERO_FAMILY, lambda_norm
from .opalg import DenseOperator


@dataclass(frozen=True)
class VolumeOperators:
    """All assembled operators for one finite volume.

    ``H_B`` is the generator of the finite-volume dynamics (the volume
    Hamiltonian plus the reservoir perturbations), ``G`` the normalized
    weighted exponent (so exp(-G) has unit trace) and ``currents[a]`` the
    rate-of-energy operator i[H, H_a] of reservoir ``a``. These are the only
    volume-sized fields.

    Every other operator lives on its own sites: ``H_a[a]`` and ``B_a[a]``,
    the Hamiltonian and perturbation of reservoir ``a``, on that reservoir's
    in-volume sites, and ``W``, the interface part H - sum_a H_a, on the
    joint support of the in-volume terms that lie inside no single
    reservoir; an operator with no such site is a 1x1 zero on no sites.
    ``opalg.embed(op, vols.sites, vols.dims)`` lifts any of them to the
    volume. ``G`` is sum_a beta_a (H_a + B_a) plus log Z, so exp(-G) is the
    tensor product of the reservoirs' Gibbs states and the normalized trace
    on the remaining sites. ``g_norm`` and ``w_norm`` are the operator norms
    of ``G`` and ``W``. All fields are Hermitian.
    """

    sites: tuple[int, ...]
    dims: tuple[int, ...]
    H_a: Mapping[int, DenseOperator]
    B_a: Mapping[int, DenseOperator]
    H_B: DenseOperator
    G: DenseOperator
    W: DenseOperator
    currents: Mapping[int, DenseOperator]
    betas: Mapping[int, float]
    g_norm: float
    w_norm: float
    log: tuple[str, ...]

    @property
    def dim(self) -> int:
        return self.H_B.dim

    @property
    def reservoirs(self) -> tuple[int, ...]:
        return tuple(sorted(self.H_a))


def build(spec: ModelSpec, volume: Iterable[int],
          perturbation: PerturbationFamily | None = None) -> VolumeOperators:
    """Assemble every finite-volume operator for ``volume``.

    The volume must contain the small system. Interaction terms whose
    support is not fully inside the volume are silently excluded and
    reported in the build log; perturbation terms must each sit inside a
    single reservoir or the build fails.

    Nothing here diagonalizes a volume-sized matrix: log Z and ``g_norm``
    come from the spectra of the per-reservoir blocks, ``w_norm`` from the
    interface terms on their joint support, and each current i[W, H_a]
    (equal to i[H, H_a], since the reservoir blocks commute) is formed on
    the union of the interface and reservoir supports before embedding.
    """
    family = ZERO_FAMILY if perturbation is None else perturbation
    sites = tuple(sorted(set(volume)))
    declared = set(spec.site_ids)
    if not set(sites) <= declared:
        raise ValueError(f"volume contains undeclared sites {sorted(set(sites) - declared)}")
    if not spec.small_system <= set(sites):
        raise ValueError("volume must contain the small system")
    dims = spec.dims_for(sites)
    log: list[str] = [f"volume sites={list(sites)} dim={int(np.prod(dims))}"]

    in_volume = [t for t in spec.terms if set(t.support) <= set(sites)]
    h_b = spec.term_sum(in_volume, sites)
    log.append(f"interaction terms dropped at the boundary: {len(spec.terms) - len(in_volume)}")

    inside = {a: spec.regions.sites_in(a) & set(sites) for a in spec.reservoirs}
    pert_terms: dict[int, list[InteractionTerm]] = {a: [] for a in spec.reservoirs}
    dropped_pert = 0
    for term in family.terms_for(sites):
        regions = {spec.regions.region_of(x) for x in term.support}
        if len(regions) != 1 or 0 in regions:
            raise ValueError(
                f"perturbation term on {term.support} is not inside a single reservoir")
        (a,) = regions
        if set(term.support) <= set(sites):
            pert_terms[a].append(term)
        else:
            dropped_pert += 1
    log.append(f"perturbation terms dropped at the boundary: {dropped_pert}")

    interface = [t for t in in_volume
                 if not any(set(t.support) <= inside[a] for a in spec.reservoirs)]
    w_op = spec.term_sum(interface)

    h_res: dict[int, DenseOperator] = {}
    b_res: dict[int, DenseOperator] = {}
    blocks: dict[int, DenseOperator] = {}
    for a in spec.reservoirs:
        beta = spec.betas.get(a)
        if beta is None:
            raise ValueError(f"reservoir {a} has no inverse temperature")
        h_res[a] = spec.term_sum([t for t in in_volume if set(t.support) <= inside[a]],
                                 inside[a])
        b_res[a] = spec.term_sum(pert_terms[a], inside[a])
        if pert_terms[a]:
            h_b = h_b + opalg.embed(b_res[a], sites, dims)
        blocks[a] = beta * (h_res[a] + b_res[a])

    currents: dict[int, DenseOperator] = {}
    # G accumulates in place, before the currents exist, to keep the peak low;
    # it is complex only when some block is
    g = np.zeros(h_b.matrix.shape,
                 dtype=np.result_type(float, *(b.matrix for b in blocks.values())))
    log_z = 0.0
    g_norm = 0.0
    for a, block in blocks.items():
        eigs = opalg.eigenvalues(block)
        log_z += float(logsumexp(-eigs))
        g_norm += float(eigs[-1])
        g += opalg.embed(block, sites, dims).matrix
        joint = tuple(sorted(set(w_op.sites) | inside[a]))
        joint_dims = spec.dims_for(joint)
        local = 1j * opalg.commutator(opalg.embed(w_op, joint, joint_dims),
                                      opalg.embed(h_res[a], joint, joint_dims))
        currents[a] = opalg.embed(local, sites, dims)

    covered = set().union(*inside.values())
    # normalization constant folded into G so that exp(-G) has unit trace;
    # G's eigenvalues are nonnegative, so its norm is its largest eigenvalue
    log_z += math.log(math.prod(d for s, d in zip(sites, dims) if s not in covered))
    g_norm += log_z
    g[np.diag_indices_from(g)] += log_z

    return VolumeOperators(
        sites=sites, dims=dims, H_a=h_res, B_a=b_res, H_B=h_b, G=h_b.with_matrix(g), W=w_op,
        currents=currents, betas=dict(spec.betas), g_norm=g_norm,
        w_norm=opalg.op_norm(w_op), log=tuple(log),
    )


@dataclass(frozen=True)
class CurrentBoundReport:
    """Per-reservoir current norms against the interaction-norm bound."""

    norms: Mapping[int, float]
    bound: float
    ok: bool


def current_bound_check(spec: ModelSpec, volume: Iterable[int]) -> CurrentBoundReport:
    """Check ||i[H, H_a]|| <= 2 card(S) e^lam ||Phi||_lam^2 / lam per reservoir."""
    vols = build(spec, volume)
    norm_phi = lambda_norm(spec)
    bound = 2.0 * len(spec.small_system) * np.exp(spec.lam) * norm_phi**2 / spec.lam
    norms = {a: opalg.op_norm(c) for a, c in vols.currents.items()}
    return CurrentBoundReport(norms=norms, bound=float(bound),
                              ok=all(v <= bound + opalg.CURRENT_BOUND_SLACK
                                     for v in norms.values()))
