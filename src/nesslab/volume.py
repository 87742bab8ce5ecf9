"""Assembly of the finite-volume operators for one chosen volume.

Given a model and a volume (a subset of sites containing the small system),
this builds the generator of the dynamics (the volume Hamiltonian plus the
reservoir perturbations), the per-reservoir Hamiltonians and perturbations,
the interface operator made of the terms inside no single reservoir, the
reservoir energy-current operators and the weighted commutator of the
interface with the perturbations. Every operator, the generator's terms
included, stays on its own sites, a commutator with the interface on the
interface's sites and on those of the terms that meet them; the generator's
diagonal blocks on the conserved sectors and the norms of G and of the
interface are computed from them on request. Nothing is diagonalized here.
Model terms straddling the volume boundary are dropped, family terms refused.
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
    its own sites: ``H_a[a]``, the Hamiltonian of reservoir ``a``, on that
    reservoir's in-volume sites; ``B_a[a]``, its perturbation, on the sites of
    its family terms; ``W``, the interface part H - sum_a H_a, on the joint
    support of the in-volume terms that lie inside no single reservoir;
    ``currents[a]``, the rate-of-energy operator i[H, H_a] = i[W, N_a] of
    reservoir ``a``, with N_a the terms of H_a that meet the sites of ``W``
    (the others act on none of them and commute with it), on the sites of
    ``W`` and of N_a; and ``perturbation_current``, sum_a beta_a i[W, B_a] =
    sum_a beta_a i[W, M_a] with M_a the family terms of reservoir ``a`` that
    meet the sites of ``W``, on those sites and theirs. An operator with no
    such site is a 1x1 zero on no sites.
    ``opalg.embed(op, vols.sites, vols.dims)`` lifts any of them to the volume.

    The normalized weighted exponent is G = sum_a beta_a (H_a + B_a) + log Z,
    with the commuting ``blocks`` beta_a (H_a + B_a) on disjoint sites, so
    exp(-G) is the tensor product of the reservoirs' Gibbs states and the
    normalized trace on the remaining sites. ``g_norm`` (the operator norm of
    G) and ``w_norm`` (that of ``W``) are computed on each read, from the
    spectra of the blocks and of ``W``. Each block commutes with every term
    off its sites, so i[H_B, G] = sum_a beta_a ``currents[a]`` +
    ``perturbation_current``. All operators are Hermitian.

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
    W: DenseOperator
    currents: Mapping[int, DenseOperator]
    perturbation_current: DenseOperator
    betas: Mapping[int, float]
    sectors: tuple[np.ndarray, ...]

    @property
    def dim(self) -> int:
        return math.prod(self.dims)

    @property
    def reservoirs(self) -> tuple[int, ...]:
        return tuple(sorted(self.H_a))

    @property
    def blocks(self) -> dict[int, DenseOperator]:
        """beta_a (H_a + B_a) for each reservoir, on its in-volume sites; B_a is lifted
        onto them only when it has sites."""
        out = {}
        for a in self.reservoirs:
            h, b = self.H_a[a], self.B_a[a]
            out[a] = self.betas[a] * (h + opalg.embed(b, h.sites, h.dims) if b.sites else h)
        return out

    @property
    def g_norm(self) -> float:
        """||G|| from each block's eigenvalues alone: G's eigenvalues are nonnegative, so its
        norm is its largest eigenvalue, the blocks' largest summed, plus log Z."""
        log_z, top, blocks = 0.0, 0.0, self.blocks
        for block in blocks.values():
            eigs = opalg.eigenvalues(block)
            # log sum_k exp(-e_k) around the smallest (first) eigenvalue: every
            # exponent is <= 0, so nothing overflows
            log_z += float(np.log1p(np.sum(np.exp(eigs[0] - eigs[1:]))) - eigs[0])
            top += float(eigs[-1])
        # the normalized trace on the sites that no block covers
        log_z += math.log(self.dim // math.prod(b.dim for b in blocks.values()))
        return top + log_z

    @property
    def w_norm(self) -> float:
        return opalg.op_norm(self.W)

    def H_B_blocks(self) -> list[np.ndarray]:
        """The diagonal blocks H_pp of H_B on the ``sectors``, aligned with them (on a
        one-sector volume the one block is the D x D matrix), assembled on each call:
        the :func:`opalg.embed_sum` of the ``generator_terms`` on the ``sectors``."""
        return opalg.embed_sum(self.generator_terms, self.sites, self.dims, self.sectors)


def build(spec: ModelSpec, volume: Iterable[int],
          perturbation: PerturbationFamily | None = None) -> VolumeOperators:
    """Assemble every finite-volume operator for ``volume``.

    The volume must contain the small system. Interaction terms whose
    support is not fully inside the volume are silently excluded; the
    family's terms for the volume must each lie inside it and inside a single
    reservoir, or the build fails.

    Nothing here allocates, diagonalizes or multiplies a volume-sized
    matrix: the generator is kept as its in-volume terms and then its
    perturbation terms, each on its own sites, whose sector blocks
    :meth:`VolumeOperators.H_B_blocks` assembles on request; the ``sectors``
    come from the terms; each current is the commutator of ``W`` with the
    terms of its reservoir that meet W's sites, and ``perturbation_current``
    that of ``W`` with the beta-weighted family terms that meet them, each on
    their joint sites.
    """
    sites = tuple(sorted(set(volume)))
    if problem := spec.volume_problem(sites):
        raise ValueError(problem)
    dims = spec.dims_for(sites)
    in_volume = [t for t in spec.terms if set(t.support) <= set(sites)]
    owners = [spec.reservoir_of(t.support) for t in in_volume]

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

    w_op = spec.term_sum(t for t, o in zip(in_volume, owners) if o is None)

    def near(terms: Iterable[InteractionTerm]) -> list[InteractionTerm]:
        """The ``terms`` that meet W's sites; the others commute with ``W``."""
        return [t for t in terms if set(t.support) & set(w_op.sites)]

    def with_w(x: DenseOperator) -> DenseOperator:
        """i[W, x] on the sites of ``W`` and of ``x``; an ``x`` on no sites, a 1x1 zero,
        itself."""
        if not x.sites:
            return x
        joint = tuple(sorted(set(w_op.sites) | set(x.sites)))
        joint_dims = spec.dims_for(joint)
        return 1j * opalg.commutator(opalg.embed(w_op, joint, joint_dims),
                                     opalg.embed(x, joint, joint_dims))

    h_res: dict[int, DenseOperator] = {}
    b_res: dict[int, DenseOperator] = {}
    currents: dict[int, DenseOperator] = {}
    for a in spec.reservoirs:
        if spec.betas.get(a) is None:
            raise ValueError(f"reservoir {a} has no inverse temperature")
        own = [t for t, o in zip(in_volume, owners) if o == a]
        h_res[a] = spec.term_sum(own, spec.sites_in(a) & set(sites))
        b_res[a] = spec.term_sum(pert_terms[a])
        currents[a] = with_w(spec.term_sum(near(own)))
    # sum_a beta_a M_a on the sites of every M_a
    touching = [spec.betas[a] * spec.term_operator(t)
                for a in spec.reservoirs for t in near(pert_terms[a])]
    m_sites = tuple(sorted(set().union(*(x.sites for x in touching))))
    m_dims = spec.dims_for(m_sites)
    (m_op,) = opalg.embed_sum(touching, m_sites, m_dims, [np.arange(math.prod(m_dims))])

    return VolumeOperators(
        sites=sites, dims=dims, H_a=h_res, B_a=b_res, generator_terms=generator, W=w_op,
        currents=currents, perturbation_current=with_w(DenseOperator(m_sites, m_dims, m_op)),
        betas=dict(spec.betas), sectors=sectors,
    )


@dataclass(frozen=True)
class CurrentBoundReport:
    """Per-reservoir current norms against the interaction-norm bound."""

    norms: Mapping[int, float]
    bound: float
    ok: bool


def current_bound_check(spec: ModelSpec, vols: VolumeOperators) -> CurrentBoundReport:
    """Check ||i[H, H_a]|| <= 2 card(S) e^lam ||Phi||_lam^2 / lam for each current of
    ``vols``, a build of ``spec``; the bound is inf, true but vacuous, only past the
    largest float."""
    card, norm_phi = len(spec.small_system), np.float64(lambda_norm(spec))
    with np.errstate(over="ignore"):
        bound = float(2.0 * card * np.exp(spec.lam) * norm_phi**2 / spec.lam)
    if bound == math.inf:   # an overflow in the float product: summed as logarithms
        bound = opalg.exp_or_inf(math.log(2.0 * card) + spec.lam + 2.0 * math.log(norm_phi)
                                 - math.log(spec.lam))
    # each current on its own sites: embedding is isometric
    norms = {a: opalg.op_norm(c) for a, c in vols.currents.items()}
    return CurrentBoundReport(norms=norms, bound=bound,
                              ok=all(v <= bound + opalg.CURRENT_BOUND_SLACK
                                     for v in norms.values()))
