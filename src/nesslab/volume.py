"""Assembly of the finite-volume operators for one chosen volume.

Given a model and a volume (a subset of sites containing the small system),
this builds the generator of the dynamics (the volume Hamiltonian plus the
reservoir perturbations), the per-reservoir Hamiltonians and perturbations,
the normalization of the weighted exponent whose exponential is the initial
product state, the interface operator made of the terms inside no single
reservoir, and the reservoir energy-current operators. Every operator, the
generator's terms included, stays on its own sites; the generator's diagonal
blocks on the conserved sectors are assembled from its terms on request.
Model terms straddling the volume boundary are dropped and counted in the
build log, family terms refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from . import opalg
from .model import InteractionTerm, ModelSpec, PerturbationFamily, lambda_norm
from .opalg import DenseOperator


@dataclass(frozen=True)
class VolumeOperators:
    """All assembled operators for one finite volume.

    No field is volume-sized. ``generator_terms`` are the terms of the
    generator H_B of the finite-volume dynamics (the volume Hamiltonian plus
    the reservoir perturbations), each on its own sites, in the order in
    which :meth:`H_B_blocks` adds them into H_B's diagonal blocks H_pp on the
    ``sectors``; H_B has no other nonzero block. Every other operator lives on
    its own sites: ``H_a[a]`` and ``B_a[a]``, the Hamiltonian and
    perturbation of reservoir ``a``, on that reservoir's in-volume sites;
    ``W``, the interface part H - sum_a H_a, on the joint support of the
    in-volume terms that lie inside no single reservoir; and ``currents[a]``,
    the rate-of-energy operator i[H, H_a] = i[W, H_a] of reservoir ``a``, on
    the union of the sites of ``W`` and of reservoir ``a``. An operator with
    no such site is a 1x1 zero on no sites. ``opalg.embed(op, vols.sites, vols.dims)`` lifts any
    of them to the volume.

    The normalized weighted exponent is G = sum_a beta_a (H_a + B_a) +
    ``log_z``, with the commuting ``blocks`` beta_a (H_a + B_a) on disjoint
    sites, so exp(-G) is the tensor product of the reservoirs' Gibbs states
    and the normalized trace on the remaining sites. ``g_norm`` and
    ``w_norm`` are the operator norms of G and ``W``. All operators are
    Hermitian.

    ``sectors`` are the :func:`opalg.sectors` of the in-volume and
    perturbation terms, of whose sums and products every operator above is
    made, so none has an entry between two sectors; a model with no
    conserved quantity is one sector.
    """

    sites: tuple[int, ...]
    dims: tuple[int, ...]
    H_a: Mapping[int, DenseOperator]
    B_a: Mapping[int, DenseOperator]
    generator_terms: tuple[DenseOperator, ...]
    log_z: float
    W: DenseOperator
    currents: Mapping[int, DenseOperator]
    betas: Mapping[int, float]
    g_norm: float
    w_norm: float
    log: tuple[str, ...]
    sectors: tuple[np.ndarray, ...]

    @property
    def dim(self) -> int:
        return math.prod(self.dims)

    @property
    def reservoirs(self) -> tuple[int, ...]:
        return tuple(sorted(self.H_a))

    @property
    def blocks(self) -> dict[int, DenseOperator]:
        """beta_a (H_a + B_a) for each reservoir, on its in-volume sites."""
        return {a: self.betas[a] * (self.H_a[a] + self.B_a[a]) for a in self.reservoirs}

    def H_B_blocks(self) -> tuple[np.ndarray, ...]:
        """The diagonal blocks H_pp of H_B on the ``sectors``, aligned with them (on a
        one-sector volume the one block is the D x D matrix), assembled on each call:
        :func:`opalg.embed_add_sectors` adds the ``generator_terms`` into them in place,
        in order, the D d entries of each term (d its dimension) that fall in a block."""
        dtype = np.result_type(float, *(op.matrix for op in self.generator_terms))
        blocks = tuple(np.zeros((rows.size, rows.size), dtype) for rows in self.sectors)
        for op in self.generator_terms:
            opalg.embed_add_sectors(blocks, op, self.sites, self.dims, self.sectors)
        return blocks


def interface(spec: ModelSpec, volume: Iterable[int],
              ) -> tuple[tuple[int, ...], DenseOperator, dict[int, DenseOperator],
                         dict[int, DenseOperator]]:
    """The step of :func:`build` that forms the currents, with no generator.

    Returns ``volume``'s sorted sites, checked as build checks them, and the
    ``W``, ``H_a`` and ``currents`` that build returns for it: each current
    i[W, H_a] (equal to i[H, H_a], since the reservoir blocks commute) is
    formed and kept on the union of the interface and reservoir supports.
    """
    sites = tuple(sorted(set(volume)))
    declared = set(spec.site_ids)
    if not set(sites) <= declared:
        raise ValueError(f"volume contains undeclared sites {sorted(set(sites) - declared)}")
    if not spec.small_system <= set(sites):
        raise ValueError("volume must contain the small system")
    in_volume = [t for t in spec.terms if set(t.support) <= set(sites)]
    owners = [spec.reservoir_of(t.support) for t in in_volume]
    w_op = spec.term_sum(t for t, o in zip(in_volume, owners) if o is None)
    h_res: dict[int, DenseOperator] = {}
    currents: dict[int, DenseOperator] = {}
    for a in spec.reservoirs:
        inside = spec.sites_in(a) & set(sites)
        h_res[a] = spec.term_sum((t for t, o in zip(in_volume, owners) if o == a), inside)
        joint = tuple(sorted(set(w_op.sites) | inside))
        joint_dims = spec.dims_for(joint)
        currents[a] = 1j * opalg.commutator(opalg.embed(w_op, joint, joint_dims),
                                            opalg.embed(h_res[a], joint, joint_dims))
    return sites, w_op, h_res, currents


def build(spec: ModelSpec, volume: Iterable[int],
          perturbation: PerturbationFamily | None = None) -> VolumeOperators:
    """Assemble every finite-volume operator for ``volume``.

    The volume must contain the small system. Interaction terms whose
    support is not fully inside the volume are silently excluded and
    reported in the build log; the family's terms for the volume must each
    lie inside it and inside a single reservoir, or the build fails.

    Nothing here allocates, diagonalizes or multiplies a volume-sized
    matrix: the generator is kept as its in-volume terms and then its
    perturbation terms, each on its own sites, whose sector blocks
    :meth:`VolumeOperators.H_B_blocks` assembles on request; the ``sectors``
    come from the terms, log Z and ``g_norm`` from the spectra of the
    per-reservoir blocks, ``w_norm`` from the interface terms on their joint
    support, and the currents from :func:`interface`.
    """
    sites, w_op, h_res, currents = interface(spec, volume)
    dims = spec.dims_for(sites)
    log: list[str] = [f"volume sites={list(sites)} dim={math.prod(dims)}"]

    in_volume = [t for t in spec.terms if set(t.support) <= set(sites)]
    log.append(f"interaction terms dropped at the boundary: {len(spec.terms) - len(in_volume)}")

    inside = {a: spec.sites_in(a) & set(sites) for a in spec.reservoirs}
    pert_terms: dict[int, list[InteractionTerm]] = {a: [] for a in spec.reservoirs}
    for term in () if perturbation is None else perturbation.terms_for(sites):
        a = spec.reservoir_of(term.support) if set(term.support) <= set(sites) else None
        if a is None:
            raise ValueError(f"perturbation term on {term.support} is not inside its volume "
                             "and a single reservoir")
        pert_terms[a].append(term)
    generator = tuple(spec.term_operator(t) for t in
                      in_volume + [t for a in spec.reservoirs for t in pert_terms[a]])
    # from the terms, not from H_B, in whose sum an entry can cancel
    sectors = opalg.sectors(generator, sites, dims)

    b_res: dict[int, DenseOperator] = {}
    log_z = 0.0
    g_norm = 0.0
    for a in spec.reservoirs:
        beta = spec.betas.get(a)
        if beta is None:
            raise ValueError(f"reservoir {a} has no inverse temperature")
        b_res[a] = spec.term_sum(pert_terms[a], inside[a])
        eigs = opalg.eigenvalues(beta * (h_res[a] + b_res[a]))
        # log sum_k exp(-e_k) around the smallest (first) eigenvalue: every
        # exponent is <= 0, so nothing overflows
        log_z += float(np.log1p(np.sum(np.exp(eigs[0] - eigs[1:]))) - eigs[0])
        g_norm += float(eigs[-1])

    covered = set().union(*inside.values())
    # normalization constant of G, so that exp(-G) has unit trace; G's
    # eigenvalues are nonnegative, so its norm is its largest eigenvalue
    log_z += math.log(math.prod(d for s, d in zip(sites, dims) if s not in covered))
    g_norm += log_z

    return VolumeOperators(
        sites=sites, dims=dims, H_a=h_res, B_a=b_res, generator_terms=generator, log_z=log_z,
        W=w_op, currents=currents, betas=dict(spec.betas), g_norm=g_norm,
        w_norm=opalg.op_norm(w_op), log=tuple(log), sectors=sectors,
    )


@dataclass(frozen=True)
class CurrentBoundReport:
    """Per-reservoir current norms against the interaction-norm bound."""

    norms: Mapping[int, float]
    bound: float
    ok: bool


def current_bound_check(spec: ModelSpec, volume: Iterable[int]) -> CurrentBoundReport:
    """Check ||i[H, H_a]|| <= 2 card(S) e^lam ||Phi||_lam^2 / lam per reservoir; the
    bound is inf, true but vacuous, only past the largest float.

    The currents come from :func:`interface`: no generator is built."""
    _, _, _, currents = interface(spec, volume)
    card, norm_phi = len(spec.small_system), np.float64(lambda_norm(spec))
    with np.errstate(over="ignore"):
        bound = float(2.0 * card * np.exp(spec.lam) * norm_phi**2 / spec.lam)
    if bound == math.inf:   # an overflow in the float product: summed as logarithms
        bound = opalg.exp_or_inf(math.log(2.0 * card) + spec.lam + 2.0 * math.log(norm_phi)
                                 - math.log(spec.lam))
    # each current on its own sites: embedding is isometric
    norms = {a: opalg.op_norm(c) for a, c in currents.items()}
    return CurrentBoundReport(norms=norms, bound=bound,
                              ok=all(v <= bound + opalg.CURRENT_BOUND_SLACK
                                     for v in norms.values()))
