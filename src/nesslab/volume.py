"""Assembly of the finite-volume operators for one chosen volume.

Given a model and a volume (a subset of sites containing the small system),
this builds the volume Hamiltonian, the per-reservoir Hamiltonians and
perturbations, their sum with the volume Hamiltonian, the normalized
exponent whose exponential is the initial product state, the interface
operator made of the terms meeting the small system, and the reservoir
energy-current operators. Terms straddling the volume boundary are dropped
(strict containment) and counted in the build log.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np
from scipy.special import logsumexp

from . import opalg
from .model import ModelSpec, PerturbationFamily, ZERO_FAMILY, lambda_norm
from .opalg import DenseOperator


@dataclass(frozen=True)
class VolumeOperators:
    """All assembled operators for one finite volume.

    ``H`` is the volume Hamiltonian, ``H_a`` the reservoir Hamiltonians,
    ``B_a`` the reservoir perturbations, ``H_B = H + sum_a B_a`` the
    generator of the finite-volume dynamics, ``G`` the normalized weighted
    exponent (so exp(-G) has unit trace), ``W = H - sum_a H_a`` the
    interface part, and ``currents[a] = i[H, H_a]`` the rate-of-energy
    operator of reservoir ``a``. All fields are Hermitian.
    """

    sites: tuple[int, ...]
    dims: tuple[int, ...]
    H: DenseOperator
    H_a: Mapping[int, DenseOperator]
    B_a: Mapping[int, DenseOperator]
    H_B: DenseOperator
    G: DenseOperator
    W: DenseOperator
    currents: Mapping[int, DenseOperator]
    betas: Mapping[int, float]
    log: tuple[str, ...]

    @property
    def dim(self) -> int:
        return self.H.dim

    @property
    def reservoirs(self) -> tuple[int, ...]:
        return tuple(sorted(self.H_a))

    @cached_property
    def w_norm(self) -> float:
        return opalg.op_norm(self.W)

    @cached_property
    def g_norm(self) -> float:
        return opalg.op_norm(self.G)


def build(spec: ModelSpec, volume: Iterable[int],
          perturbation: PerturbationFamily | None = None) -> VolumeOperators:
    """Assemble every finite-volume operator for ``volume``.

    The volume must contain the small system. Interaction terms whose
    support is not fully inside the volume are silently excluded and
    reported in the build log; perturbation terms must each sit inside a
    single reservoir or the build fails.
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

    h = opalg.zero(sites, dims)
    dropped = 0
    for term in spec.terms:
        if set(term.support) <= set(sites):
            h = h + opalg.embed(spec.term_operator(term), sites, dims)
        else:
            dropped += 1
    log.append(f"interaction terms dropped at the boundary: {dropped}")

    h_res: dict[int, DenseOperator] = {}
    for a in spec.reservoirs:
        inside = spec.regions.sites_in(a) & set(sites)
        acc = opalg.zero(sites, dims)
        for term in spec.terms:
            if term.support and set(term.support) <= inside:
                acc = acc + opalg.embed(spec.term_operator(term), sites, dims)
        h_res[a] = acc

    b_res: dict[int, DenseOperator] = {a: opalg.zero(sites, dims) for a in spec.reservoirs}
    dropped_pert = 0
    for term in family.terms_for(sites):
        regions = {spec.regions.region_of(x) for x in term.support}
        if len(regions) != 1 or 0 in regions:
            raise ValueError(
                f"perturbation term on {term.support} is not inside a single reservoir")
        (a,) = regions
        if set(term.support) <= set(sites):
            b_res[a] = b_res[a] + opalg.embed(spec.term_operator(term), sites, dims)
        else:
            dropped_pert += 1
    log.append(f"perturbation terms dropped at the boundary: {dropped_pert}")

    h_b = h
    for a in spec.reservoirs:
        h_b = h_b + b_res[a]

    weighted = opalg.zero(sites, dims)
    for a in spec.reservoirs:
        beta = spec.betas.get(a)
        if beta is None:
            raise ValueError(f"reservoir {a} has no inverse temperature")
        weighted = weighted + beta * (h_res[a] + b_res[a])
    # normalization constant folded into G so that exp(-G) has unit trace
    eigs = np.linalg.eigvalsh(0.5 * (weighted.matrix + weighted.matrix.conj().T))
    log_z = float(logsumexp(-eigs))
    g = weighted.with_matrix(weighted.matrix + log_z * np.eye(weighted.dim),
                             support=weighted.support)

    w_op = h
    for a in spec.reservoirs:
        w_op = w_op - h_res[a]

    currents = {a: 1j * opalg.commutator(h, h_res[a]) for a in spec.reservoirs}

    log.append(f"frobenius_norm(H)={np.linalg.norm(h.matrix):.6g} "
               f"frobenius_norm(W)={np.linalg.norm(w_op.matrix):.6g}")
    return VolumeOperators(
        sites=sites, dims=dims, H=h, H_a=h_res, B_a=b_res, H_B=h_b, G=g,
        W=w_op, currents=currents, betas=dict(spec.betas), log=tuple(log),
    )


def interface_operator(spec: ModelSpec, volume: Iterable[int]) -> DenseOperator:
    """The interface part via the weighted per-site formula.

    Sums, over small-system sites x and in-volume terms containing x, the
    term weighted by one over the number of small-system sites it touches;
    the weights telescope so each term meeting the small system is counted
    exactly once. Must agree with the direct subtraction in :func:`build`.
    """
    sites = tuple(sorted(set(volume)))
    if not spec.small_system <= set(sites):
        raise ValueError("volume must contain the small system")
    dims = spec.dims_for(sites)
    acc = opalg.zero(sites, dims)
    for x in sorted(spec.small_system):
        for term in spec.terms:
            if x in term.support and set(term.support) <= set(sites):
                weight = 1.0 / len(set(term.support) & spec.small_system)
                acc = acc + weight * opalg.embed(spec.term_operator(term), sites, dims)
    return acc


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
                              ok=all(v <= bound + 1e-12 for v in norms.values()))
