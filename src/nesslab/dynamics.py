"""Heisenberg time evolution at finite volume.

Two routes: exact unitary conjugation through the spectral decomposition of
the generator (the production path, valid for any time), and the truncated
power series of the derivation (a verification path, valid only inside its
convergence radius, which reports a rigorous tail bound). A convergence
sweep compares nested volumes pairwise, both for the evolution itself and
order by order for the derivation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import opalg, volume as volume_mod
from .model import ModelSpec, PerturbationFamily, lambda_norm
from .opalg import DenseOperator


@dataclass(frozen=True)
class Sector:
    """A generator's block on the ascending basis ``indices``, with the
    block's eigenvalues (ascending) and unitary eigenvector matrix."""

    indices: np.ndarray
    eigenvalues: np.ndarray
    basis: np.ndarray


@dataclass(frozen=True)
class EvolutionPlan:
    """The volume of a generator with no entry between two sectors and each
    sector's eigendecomposition, reusable across times; not the generator."""

    sites: tuple[int, ...]
    dims: tuple[int, ...]
    sectors: tuple[Sector, ...]


def make_plan(vols: volume_mod.VolumeOperators) -> EvolutionPlan:
    """One in-place eigensolve (:func:`opalg._eigh`) per sector block of the build's
    generator, uncopied: the blocks that ``vols.H_B_blocks()`` assembles on its
    ``sectors`` for these solves alone, each checked Hermitian
    (:func:`opalg.hermitian_matrix`) and overwritten by its eigenvectors, so no block
    is held beside the next one's solve or after the plan is made but as a basis."""
    blocks = list(vols.H_B_blocks())
    return EvolutionPlan(vols.sites, vols.dims, tuple(
        Sector(rows, *opalg._eigh(opalg.hermitian_matrix(blocks.pop(0)), True))
        for rows in vols.sectors))


def _embedded_blocks(rows: Sequence[np.ndarray], sites: tuple[int, ...], dims: tuple[int, ...],
                     op: DenseOperator, upper: bool = True, pattern: tuple | None = None) -> dict:
    """The nonzero blocks of ``op``, on any sites of the volume (``sites``, ``dims``), embedded
    into it on its sectors ``rows``, only p <= q if ``upper``, as for an (anti-)Hermitian op.
    ``pattern``, op's sector index arrays and nonzero block pairs, skips zero blocks."""
    pairs = [(p, q) for p in range(len(rows)) for q in range(p if upper else 0, len(rows))]
    inner, outside = opalg.embedding_maps(op, sites, dims)
    if pattern is not None:   # seen[p][a][o]: indices of sector p in op's sector a, outside o
        seen = [[np.bincount(outside[r][np.isin(inner[r], s)], minlength=outside.max() + 1)
                 for s in pattern[0]] for r in rows]
        pairs = [(p, q) for p, q in pairs if any(seen[p][a] @ seen[q][b] + seen[p][b] @ seen[q][a]
                                                 for a, b in pattern[1])]

    def gather(r: np.ndarray, c: np.ndarray) -> np.ndarray:
        block = op.matrix[np.ix_(inner[r], inner[c])]
        block[outside[r][:, None] != outside[c][None, :]] = 0.0
        return block
    return {(p, q): b for p, q in pairs if np.any(b := gather(rows[p], rows[q]))}


def _rotated_blocks(plan: EvolutionPlan, blocks: dict) -> dict:
    """V_p^dagger M_pq V_q for each sector block M_pq."""
    bases = [s.basis for s in plan.sectors]
    return {(p, q): opalg.rotate(bases[p], m, bases[q]) for (p, q), m in blocks.items()}


def _evolved(plan: EvolutionPlan, rotated: dict, t: float, hermitian: bool) -> dict:
    """V_p e^{i t w_p} R_pq e^{-i t w_q} V_q^dagger, evolved by exp(i t generator), for each
    R_pq of :func:`_rotated_blocks`; diagonal blocks made exactly Hermitian if ``hermitian``."""
    phases = [np.exp(1j * t * s.eigenvalues) for s in plan.sectors]
    bases = [s.basis for s in plan.sectors]

    def weighted(r: np.ndarray, p: int, q: int) -> np.ndarray:
        # one temporary, unnamed in the caller so that rotate_back frees it early
        return np.multiply(w := phases[p][:, None] * r, phases[q].conj(), out=w)

    out = {}
    for (p, q), r in rotated.items():
        block = opalg.rotate_back(bases[p], weighted(r, p, q), bases[q])
        out[p, q] = 0.5 * (block + block.conj().T) if hermitian and p == q else block
    return out


def exact_evolve(plan: EvolutionPlan, a: DenseOperator, t: float) -> DenseOperator:
    """Conjugate by exp(i t generator): the exact Heisenberg evolution of ``a``, given on
    any sites of the plan's volume (ValueError otherwise), as an operator on the volume.
    Its sector blocks are gathered (:func:`_embedded_blocks`), rotated and evolved, as in the
    sweep (:func:`_evolved`), one at a time: a zero block stays exactly zero, and a bitwise
    Hermitian ``a`` evolves to an exactly Hermitian operator."""
    hermitian = bool(np.array_equal(a.matrix, a.matrix.conj().T))
    rows = [s.indices for s in plan.sectors]
    blocks = _embedded_blocks(rows, plan.sites, plan.dims, a, hermitian)
    back = _evolved(plan, _rotated_blocks(plan, blocks), t, hermitian)
    return DenseOperator(plan.sites, plan.dims, opalg.assemble(
        back, rows, math.prod(plan.dims), 1.0 if hermitian else None))


# i^m, exact: real for even m, where (it)^m / m! r_m is a real product for a real r_m
_I_POWERS = (1.0, 1j, -1.0, -1j)
# the orders the truncated series sums
SERIES_ORDER = 12
# the orders whose commutators convergence_sweep compares across volumes
SWEEP_ORDERS = 4


def _commutator_blocks(h_blocks: Sequence[np.ndarray], blocks: dict,
                       order: int) -> Iterator[dict]:
    """r_m = [H, r_{m-1}] = i^-m delta^m(r_0), m = 1..order, as blocks p <= q
    on the sectors of H, whose only blocks are ``h_blocks``; r_0 is Hermitian
    with the blocks ``blocks``. Block pq is H_pp r_pq - r_pq H_qq, a diagonal
    one H_pp r_pp minus (odd m) or plus (even m) its adjoint: r_m is exactly
    anti-Hermitian (odd m) or Hermitian (even m), and real for real inputs."""
    def commutator(x: np.ndarray, p: int, q: int, odd: bool) -> np.ndarray:
        y = opalg.matmul(h_blocks[p], x)
        if p != q:
            y -= opalg.matmul(x, h_blocks[q])
            return y
        adjoint = np.conjugate(y.T, out=np.empty_like(y))
        return (np.subtract if odd else np.add)(y, adjoint, out=adjoint)

    for m in range(1, order + 1):
        blocks = {(p, q): commutator(x, p, q, m % 2) for (p, q), x in blocks.items()}
        yield blocks


def series_radius(spec: ModelSpec, perturbation: PerturbationFamily | None = None) -> float:
    """Convergence radius of the truncated series, perturbation included."""
    k = 0.0 if perturbation is None else perturbation.bound_K
    denom = lambda_norm(spec) + k
    if denom == 0.0:
        return math.inf
    return spec.lam / (2.0 * denom)


def _tail_bound(envelope: float, ratio: float) -> float:
    """envelope * r^{M+1} / (1 - r) for the series truncated after M =
    SERIES_ORDER orders, with ``envelope`` ||a|| e^{lam card X}
    (:func:`opalg.observable_lambda_norm_upper`) of the observable on its own sites."""
    return float(envelope * ratio ** (SERIES_ORDER + 1) / (1.0 - ratio))


def dyson_evolve(spec: ModelSpec, volume: Iterable[int], a: DenseOperator, t: float,
                 perturbation: PerturbationFamily | None = None,
                 ) -> tuple[DenseOperator, float]:
    """Truncated power-series evolution with a rigorous tail bound.

    Returns the partial sum over orders m <= M = SERIES_ORDER (12) of
    t^m delta^m(a) / m!, with delta = i[H_B, .] for the ``H_B`` that
    :func:`nesslab.volume.build` assembles for ``volume`` (so build's
    preconditions hold), its orders made by :func:`_commutator_blocks` on the
    build's sector blocks and summed in place, the sum assembled to D x D once,
    and the geometric tail majorant ||a|| e^{lam card X} r^{M+1} / (1 - r) with
    r = |t| / radius, radius = :func:`series_radius`. ``a`` must be selfadjoint.
    X is ``a.sites``: pass the observable on its own sites, not embedded, for
    the tightest bound.
    Times at or beyond the convergence radius are refused since the
    majorant diverges there.
    """
    radius = series_radius(spec, perturbation)
    if abs(t) >= radius:
        raise ValueError(f"|t|={abs(t):.6g} is outside the series radius {radius:.6g}; "
                         "the error bound diverges")
    a = a.with_matrix(opalg.hermitian_matrix(a, "the derivation series"))
    envelope = opalg.observable_lambda_norm_upper(((a.sites, a.matrix),), spec.lam)
    built = volume_mod.build(spec, volume, perturbation)
    rows, sites, dims = built.sectors, built.sites, built.dims
    blocks = _embedded_blocks(rows, sites, dims, a)
    partial = {key: block.astype(complex) for key, block in blocks.items()}
    for m, blocks in enumerate(_commutator_blocks(built.H_B_blocks(), blocks, SERIES_ORDER),
                               start=1):
        # t^m delta^m(a) / m! = (it)^m / m! r_m, added in place
        coef = t**m / math.factorial(m) * _I_POWERS[m % 4]
        for key, r in blocks.items():
            partial[key] += coef * r
    del blocks   # the partial sum alone is assembled
    out = opalg.assemble(partial, rows, math.prod(dims), 1.0)
    return DenseOperator(sites, dims, out), _tail_bound(envelope, abs(t) / radius)


def derivation_growth_bound(spec: ModelSpec, a: DenseOperator, m: int,
                            mu: float = 0.0) -> float:
    """Majorant for the m-th derivation power applied to ``a``.

    Returns ||a|| e^{lam card X} m! (2 ||Phi||_lam / (lam - mu))^m, valid in the mu-weighted
    norm (hence in the operator norm) for 0 <= mu < lam; mu = 0 gives the plain growth bound
    of the series, 0.0 for a zero factor, inf (true but vacuous) past the largest float. X
    is ``a.sites``, so pass the observable on its own sites for the tightest bound.
    """
    if not spec.lam > mu >= 0:
        raise ValueError("need lam > mu >= 0")
    envelope = opalg.observable_lambda_norm_upper(((a.sites, a.matrix),), spec.lam)
    base = 2.0 * lambda_norm(spec) / (spec.lam - mu)
    try:
        bound = envelope * math.factorial(m) * base ** m
    except OverflowError:   # m! or the power past the largest float, times a zero or not
        bound = math.inf if envelope and base else 0.0
    if bound == math.inf:   # an overflow in the float product: summed as logarithms
        bound = opalg.exp_or_inf(math.log(envelope) + math.lgamma(m + 1) + m * math.log(base))
    return bound


@dataclass(frozen=True)
class SweepRow:
    pair_index: int
    t: float
    discrepancy: float


@dataclass(frozen=True)
class OrderRow:
    pair_index: int
    order: int
    discrepancy: float


@dataclass(frozen=True)
class DysonRow:
    volume_index: int
    t: float
    error: float
    bound: float


@dataclass(frozen=True)
class ConvergenceSweepReport:
    evolution_rows: tuple[SweepRow, ...]
    order_rows: tuple[OrderRow, ...]
    dyson_rows: tuple[DysonRow, ...]


def _lifted_gap(small_plan: EvolutionPlan, small: dict, plan: EvolutionPlan,
                large: dict, sign: float) -> float:
    """||embed(S) - L|| for (anti-)Hermitian S and L (``sign`` +1, -1) given by
    their blocks p <= q: S assembled at its own dimension, then gathered, and
    each block of L popped from ``large``, which is left empty, and subtracted
    in place from the gathered blocks, so a block of L held nowhere else is
    freed as it is subtracted."""
    rows = [s.indices for s in small_plan.sectors]
    lifted = opalg.assemble(small, rows, math.prod(small_plan.dims), sign)
    diff = _embedded_blocks([s.indices for s in plan.sectors], plan.sites, plan.dims,
                            DenseOperator(small_plan.sites, small_plan.dims, lifted),
                            pattern=(rows, small))
    del lifted   # its blocks are gathered
    while large:
        key, block = large.popitem()
        if key not in diff:
            diff[key] = -block
        elif np.can_cast(block.dtype, diff[key].dtype):
            diff[key] -= block
        else:   # a real S against a complex L
            diff[key] = diff[key] - block
        del block
    return opalg.block_norm(diff, [s.indices.size for s in plan.sectors], sign)


# |x| below which R(x) is summed as its tail series: from there it is the difference of
# e^{ix} and the partial sum, whose terms sum in magnitude to at most 5.3e3 |R(x)| (at 4)
_TAIL_SERIES_BELOW = 4.0


def _alternating_sum(x: np.ndarray, first: int, terms: int) -> np.ndarray:
    """sum of (-1)^(m // 2) x^m / m! over m = first, first + 2, ... (``terms`` of
    them), by Horner in x^2: the real (even m) or imaginary (odd m) part of the
    sum of (ix)^m / m! over those m."""
    u = x * x
    acc = np.ones_like(x)
    for m in range(first + 2 * (terms - 1), first, -2):
        acc *= u
        acc *= -1.0 / (m * (m - 1))
        acc += 1.0
    acc *= (-1) ** (first // 2) / math.factorial(first)
    acc *= np.power(u, first // 2, out=u)   # x^first from x^2, so the sum's parity is exact
    return np.multiply(acc, x, out=acc) if first % 2 else acc


def _series_remainder(x: np.ndarray) -> np.ndarray:
    """R(x) = e^{ix} - sum_{m <= SERIES_ORDER} (ix)^m / m! for real x, elementwise:
    the error of the truncated series on the phase e^{ix}. Its real part is even
    in x and its imaginary part odd, so R(-x) = conj R(x) exactly. Below |x| =
    _TAIL_SERIES_BELOW it is summed as its tail sum_{m > SERIES_ORDER} (ix)^m / m!,
    up to the first term below eps times the leading one at the largest such |x|,
    where nothing cancels; from there as the difference."""
    out = np.empty(x.shape, dtype=complex)
    low = np.abs(x) < _TAIL_SERIES_BELOW
    part = x[low]
    if part.size:
        top, last = float(np.max(np.abs(part))), SERIES_ORDER + 2
        while (top ** (last - SERIES_ORDER) / math.prod(range(SERIES_ORDER + 2, last + 2))
               > np.finfo(float).eps):
            last += 1
        for first in (SERIES_ORDER + 1, SERIES_ORDER + 2):
            (out.imag if first % 2 else out.real)[low] = _alternating_sum(
                part, first, (last - first) // 2 + 1)
    high = ~low
    part = x[high]
    if part.size:
        out.real[high] = np.cos(part) - _alternating_sum(part, 0, SERIES_ORDER // 2 + 1)
        out.imag[high] = np.sin(part) - _alternating_sum(part, 1, (SERIES_ORDER + 1) // 2)
    return out


def _dyson_error_norm(plan: EvolutionPlan, rotated: dict, t: float) -> float:
    """||E|| for the error E of the truncated series at time t on an operator whose
    rotated blocks (:func:`_rotated_blocks`) are ``rotated``: in the eigenbasis the
    partial sum applies the degree-SERIES_ORDER Taylor polynomial of the phase that
    the exact evolution applies, so E_pq = R(x) * rotated_pq entrywise with x_jk =
    t (w_pj - w_qk) (:func:`_series_remainder`). The norm is unitarily invariant, so
    E's blocks, Hermitian to roundoff as the rotated ones are, are normed as they are."""
    w = [s.eigenvalues for s in plan.sectors]
    err = {}
    for (p, q), block in rotated.items():
        e = _series_remainder(t * np.subtract.outer(w[p], w[q]))
        err[p, q] = np.multiply(e, block, out=e)
    return opalg.block_norm(err, [s.indices.size for s in plan.sectors], 1.0)


def _light_cone_order(small_terms: Sequence[DenseOperator], large_terms: Sequence[DenseOperator],
                      sites: Iterable[int]) -> int:
    """k = 1 + the first j < SWEEP_ORDERS at which the generator terms that meet S_j
    differ between two volumes' builds, given as their ``generator_terms``, sites and
    matrices compared exactly; S_0 = ``sites`` and S_{j+1} is S_j with the sites of
    those terms. SWEEP_ORDERS + 1 if none differ. delta^m of an operator on ``sites``
    is made of the terms meeting S_0, ..., S_{m-1} alone, so it is the same operator
    in both volumes for every m < k."""
    region = set(sites)
    for j in range(SWEEP_ORDERS):
        meeting = [sorted((op.sites, op.matrix.tobytes()) for op in terms
                          if region & set(op.sites)) for terms in (small_terms, large_terms)]
        if meeting[0] != meeting[1]:
            return j + 1
        region.update(*(op_sites for op_sites, _ in meeting[0]))
    return SWEEP_ORDERS + 1


def convergence_sweep(spec: ModelSpec, exhaustion: Sequence[Iterable[int]],
                      a: DenseOperator, t_grid: Sequence[float],
                      perturbation: PerturbationFamily | None = None) -> ConvergenceSweepReport:
    """Compare the dynamics across a nested family of volumes.

    For each consecutive volume pair the report carries the norm difference
    of the evolved observable at each time and of each commutator r_m,
    m <= SWEEP_ORDERS, of :func:`_commutator_blocks` (||i^m x|| = ||x||), taken in the
    larger volume, as embedding is isometric. An order below the pair's
    :func:`_light_cone_order` is exactly the same operator in both volumes and
    is written as 0.0, neither lifted nor normed. Each volume also gets, for
    the times inside the radius, the norm of the truncated series' error at
    that volume's spectral data (:func:`_dyson_error_norm`) with the reported
    tail bound. The observable must be selfadjoint; the bound's envelope
    ||a|| e^{lam card X} takes X = ``a.sites``, so pass it on its own sites
    for the tightest bound.

    Every volume-sized operator is held as its nonzero sector blocks p <= q,
    ``H_B`` as its diagonal blocks. Each volume is built, planned, and its
    observable embedded and rotated; then ``H_B``'s blocks are assembled
    once, its commutators made and compared, after which ``H_B`` and the
    embedded observable are dropped, and the commutators are kept only for a
    next volume. Then
    each time is evolved in both volumes, compared and dropped before the
    next. Of the previous volume only the plan, the rotated observable
    blocks, the commutators and the build's generator terms are kept.
    """
    vols = [tuple(sorted(set(v))) for v in exhaustion]
    for small, large in zip(vols, vols[1:]):
        if not set(small) < set(large):
            raise ValueError("exhaustion must be strictly nested ascending")
    if not set(a.sites) <= set(vols[0]):
        raise ValueError("observable must be supported in the smallest volume")
    a = a.with_matrix(opalg.hermitian_matrix(a, "the convergence sweep"))

    radius = series_radius(spec, perturbation)
    envelope = opalg.observable_lambda_norm_upper(((a.sites, a.matrix),), spec.lam)

    evo_rows, order_rows, dyson_rows = [], [], []
    prev_plan, prev_rotated, prev_powers, prev_terms = None, {}, [], ()
    for i, sites in enumerate(vols):
        built = volume_mod.build(spec, sites, perturbation)
        plan = make_plan(built)
        a_v = _embedded_blocks([s.indices for s in plan.sectors], plan.sites, plan.dims, a)
        rotated = _rotated_blocks(plan, a_v)
        h_blocks, terms = built.H_B_blocks(), built.generator_terms
        del built   # its currents and reservoir operators are not read here

        cone = _light_cone_order(prev_terms, terms, a.sites) if i else 0
        powers = []
        for m, r in enumerate(_commutator_blocks(h_blocks, a_v, SWEEP_ORDERS), start=1):
            if i:
                order_rows.append(OrderRow(i - 1, m, 0.0 if m < cone else _lifted_gap(
                    prev_plan, prev_powers[m - 1], plan, dict(r), (-1.0) ** m)))
            if i + 1 < len(vols):
                powers.append(r)
            del r   # only powers keeps an order
        del h_blocks, a_v, prev_powers   # no later step reads them

        for t in t_grid:
            if i:
                evo_rows.append(SweepRow(i - 1, float(t), _lifted_gap(
                    prev_plan, _evolved(prev_plan, prev_rotated, t, True),
                    plan, _evolved(plan, rotated, t, True), 1.0)))
            if abs(t) < radius:
                dyson_rows.append(DysonRow(i, float(t), _dyson_error_norm(plan, rotated, t),
                                           _tail_bound(envelope, abs(t) / radius)))
        prev_plan, prev_rotated, prev_powers, prev_terms = plan, rotated, powers, terms

    return ConvergenceSweepReport(tuple(evo_rows), tuple(order_rows), tuple(dyson_rows))
