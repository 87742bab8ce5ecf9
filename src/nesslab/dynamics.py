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
from typing import Callable, Iterable, Iterator, Sequence

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


def make_plan(generator: DenseOperator | volume_mod.VolumeOperators) -> EvolutionPlan:
    """One :func:`opalg.spectral` per sector block of the generator, uncopied:
    the ``H_B_blocks`` of a build on its ``sectors``, or a dense ``generator``
    as one sector. ValueError for a non-Hermitian block."""
    if isinstance(generator, DenseOperator):
        sectors, blocks = (np.arange(generator.dim),), (generator.matrix,)
    else:
        sectors, blocks = generator.sectors, generator.H_B_blocks
    return EvolutionPlan(generator.sites, generator.dims, tuple(
        Sector(rows, *opalg.spectral(block)) for rows, block in zip(sectors, blocks)))


def _block(mat: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """mat[rows][:, cols], and ``mat`` itself, uncopied, when they cover it."""
    if rows.size == mat.shape[0] and cols.size == mat.shape[1]:
        return mat
    return mat[np.ix_(rows, cols)]


def _embedded_blocks(rows: Sequence[np.ndarray], sites: tuple[int, ...], dims: tuple[int, ...],
                     op: DenseOperator, upper: bool = True, pattern: tuple | None = None) -> dict:
    """The nonzero blocks of ``op`` embedded into the volume (``sites``, ``dims``) on its
    sectors ``rows`` (its own by :func:`_block` if on it), only p <= q if ``upper``, as
    for an (anti-)Hermitian op. ``pattern``, op's sector index arrays and nonzero block
    pairs, skips zero blocks."""
    pairs = [(p, q) for p in range(len(rows)) for q in range(p if upper else 0, len(rows))]
    if (op.sites, op.dims) == (sites, dims):
        return {(p, q): b for p, q in pairs if np.any(b := _block(op.matrix, rows[p], rows[q]))}
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


def _rotated_back(plan: EvolutionPlan, rotated: dict, hermitian: bool,
                  weight: Callable[[np.ndarray, int, int], np.ndarray]) -> dict:
    """V_p weight(R_pq, p, q) V_q^dagger for each R_pq of :func:`_rotated_blocks`,
    diagonal blocks made exactly Hermitian if ``hermitian`` (``weight`` keeps it)."""
    bases = [s.basis for s in plan.sectors]
    out = {}
    for (p, q), r in rotated.items():
        block = opalg.rotate_back(bases[p], weight(r, p, q), bases[q])
        out[p, q] = 0.5 * (block + block.conj().T) if hermitian and p == q else block
    return out


def _conjugated(plan: EvolutionPlan, mat: np.ndarray,
                weight: Callable[[np.ndarray, int, int], np.ndarray]) -> np.ndarray:
    """M with its nonzero sector blocks rotated, weighted and rotated back."""
    hermitian = bool(np.array_equal(mat, mat.conj().T))
    rows = [s.indices for s in plan.sectors]
    blocks = _embedded_blocks(rows, plan.sites, plan.dims,
                              DenseOperator(plan.sites, plan.dims, mat), hermitian)
    back = _rotated_back(plan, _rotated_blocks(plan, blocks), hermitian, weight)
    return opalg.assemble(back, rows, mat.shape[0], 1.0 if hermitian else None)


def _evolution(plan: EvolutionPlan, t: float) -> Callable[[np.ndarray, int, int], np.ndarray]:
    """The weight of :func:`_rotated_back` that evolves by exp(i t generator)."""
    phases = [np.exp(1j * t * s.eigenvalues) for s in plan.sectors]
    # one temporary: the second phase is applied in place
    return lambda r, p, q: np.multiply(w := phases[p][:, None] * r, phases[q].conj(), out=w)


def exact_evolve(plan: EvolutionPlan, a: DenseOperator, t: float) -> DenseOperator:
    """Conjugate by exp(i t generator): the exact Heisenberg evolution, one
    sector block of ``a`` at a time. A zero block stays exactly zero, and a
    bitwise Hermitian ``a`` evolves to an exactly Hermitian operator."""
    if (a.sites, a.dims) != (plan.sites, plan.dims):
        raise ValueError("operator volume does not match the plan's")
    return a.with_matrix(_conjugated(plan, a.matrix, _evolution(plan, t)))


# i^m, exact, so that i^m r stays real for even m
_I_POWERS = (1.0, 1j, -1.0, -1j)
# the orders the truncated series sums
SERIES_ORDER = 12
# the orders whose commutators convergence_sweep compares across volumes
SWEEP_ORDERS = 4


def _commutator_blocks(h_blocks: Sequence[np.ndarray], blocks: dict, order: int,
                       sums: Sequence[tuple[float, dict]] = ()) -> Iterator[dict]:
    """r_m = [H, r_{m-1}] = i^-m delta^m(r_0), m = 1..order, as blocks p <= q
    on the sectors of H, whose only blocks are ``h_blocks``; r_0 is Hermitian
    with the blocks ``blocks``. Block pq is H_pp r_pq - r_pq H_qq, a diagonal
    one H_pp r_pp minus (odd m) or plus (even m) its adjoint: r_m is exactly
    anti-Hermitian (odd m) or Hermitian (even m), and real for real inputs.

    As each r_m with m <= SERIES_ORDER is made, t^m delta^m(r_0) / m! =
    (i t)^m / m! r_m is added in place into the complex blocks of every
    ``(t, blocks)`` of ``sums``. For a real r_m the coefficient is real or
    imaginary, so only one part of each block changes."""
    def commutator(x: np.ndarray, p: int, q: int, odd: bool) -> np.ndarray:
        y = opalg.matmul(h_blocks[p], x)
        if p != q:
            y -= opalg.matmul(x, h_blocks[q])
            return y
        adjoint = np.conjugate(y.T, out=np.empty_like(y))
        return (np.subtract if odd else np.add)(y, adjoint, out=adjoint)

    for m in range(1, order + 1):
        blocks = {(p, q): commutator(x, p, q, m % 2) for (p, q), x in blocks.items()}
        for t, acc in sums if m <= SERIES_ORDER else ():
            coef = t**m / math.factorial(m) * _I_POWERS[m % 4]
            for key, r in blocks.items():
                if np.iscomplexobj(r):
                    acc[key] += coef * r
                elif m % 2:
                    acc[key].imag += coef.imag * r
                else:
                    acc[key].real += coef.real * r
        yield blocks


def derivation_powers(h_b: DenseOperator, a: DenseOperator, order: int) -> list[DenseOperator]:
    """[delta(a), ..., delta^order(a)] for the derivation delta = i[h_b, .]
    and ``a`` on h_b's volume: i^m r_m for the r_m of
    :func:`_commutator_blocks` on one sector. ``a`` must be selfadjoint
    (ValueError otherwise), its Hermitian part used."""
    if not h_b.same_volume(a):
        raise ValueError("operator volume does not match the generator")
    r = opalg.hermitian_matrix(a, "the derivation series")
    return [h_b.with_matrix(blocks[0, 0] * _I_POWERS[m % 4]) for m, blocks
            in enumerate(_commutator_blocks([h_b.matrix], {(0, 0): r}, order), start=1)]


def series_radius(spec: ModelSpec, perturbation: PerturbationFamily | None = None) -> float:
    """Convergence radius of the truncated series, perturbation included."""
    k = 0.0 if perturbation is None else perturbation.bound_K
    denom = lambda_norm(spec) + k
    if denom == 0.0:
        return math.inf
    return spec.lam / (2.0 * denom)


def _envelope(a: DenseOperator, lam: float) -> float:
    """||a|| e^{lam card X}, with X the sites ``a`` is given on."""
    return opalg.op_norm(a) * math.exp(lam * len(a.sites))


def _tail_bound(envelope: float, ratio: float) -> float:
    """envelope * r^{M+1} / (1 - r) for the series truncated after M =
    SERIES_ORDER orders, with ``envelope`` the :func:`_envelope` of the
    observable before it was embedded into the volume."""
    return float(envelope * ratio ** (SERIES_ORDER + 1) / (1.0 - ratio))


def dyson_evolve(spec: ModelSpec, volume: Iterable[int], a: DenseOperator, t: float,
                 perturbation: PerturbationFamily | None = None,
                 ) -> tuple[DenseOperator, float]:
    """Truncated power-series evolution with a rigorous tail bound.

    Returns the partial sum over orders m <= M = SERIES_ORDER (12) of
    t^m delta^m(a) / m!, with delta = i[H_B, .] for the ``H_B`` that
    :func:`nesslab.volume.build` assembles for ``volume`` (so build's
    preconditions hold), summed by :func:`_commutator_blocks` on the build's
    sector blocks and assembled to D x D once, and the geometric tail majorant
    ||a|| e^{lam card X} r^{M+1} / (1 - r) with r = |t| / radius, radius =
    :func:`series_radius`. ``a`` must be selfadjoint. X is ``a.sites``: pass
    the observable on its own sites, not embedded, for the tightest bound.
    Times at or beyond the convergence radius are refused since the
    majorant diverges there.
    """
    radius = series_radius(spec, perturbation)
    if abs(t) >= radius:
        raise ValueError(f"|t|={abs(t):.6g} is outside the series radius {radius:.6g}; "
                         "the error bound diverges")
    a = a.with_matrix(opalg.hermitian_matrix(a, "the derivation series"))
    envelope = _envelope(a, spec.lam)
    built = volume_mod.build(spec, volume, perturbation)
    rows, sites, dims = built.sectors, built.sites, built.dims
    blocks = _embedded_blocks(rows, sites, dims, a)
    partial = {key: block.astype(complex) for key, block in blocks.items()}
    for blocks in _commutator_blocks(built.H_B_blocks, blocks, SERIES_ORDER, [(t, partial)]):
        pass   # each order is added into partial as it is made
    del built, blocks   # the partial sum alone is assembled
    out = opalg.assemble(partial, rows, math.prod(dims), 1.0)
    return DenseOperator(sites, dims, out), _tail_bound(envelope, abs(t) / radius)


def derivation_growth_bound(spec: ModelSpec, a: DenseOperator, m: int,
                            mu: float = 0.0) -> float:
    """Majorant for the m-th derivation power applied to ``a``.

    Returns ||a|| e^{lam card X} m! (2 ||Phi||_lam / (lam - mu))^m, valid in
    the mu-weighted norm (hence in the operator norm) for 0 <= mu < lam;
    mu = 0 gives the plain growth bound of the series. X is ``a.sites``, so
    pass the observable on its own sites for the tightest bound.
    """
    if not spec.lam > mu >= 0:
        raise ValueError("need lam > mu >= 0")
    norm_phi = lambda_norm(spec)
    return (_envelope(a, spec.lam)
            * math.factorial(m) * (2.0 * norm_phi / (spec.lam - mu)) ** m)


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
    their blocks p <= q: S assembled at its own dimension, then gathered, and L
    subtracted in place from the gathered blocks."""
    rows = [s.indices for s in small_plan.sectors]
    lifted = opalg.assemble(small, rows, math.prod(small_plan.dims), sign)
    diff = _embedded_blocks([s.indices for s in plan.sectors], plan.sites, plan.dims,
                            DenseOperator(small_plan.sites, small_plan.dims, lifted),
                            pattern=(rows, small))
    del lifted   # its blocks are gathered
    for key, block in large.items():
        if key not in diff:
            diff[key] = -block
        elif np.can_cast(block.dtype, diff[key].dtype):
            diff[key] -= block
        else:   # a real S against a complex L
            diff[key] = diff[key] - block
    return opalg.block_norm(diff, [s.indices.size for s in plan.sectors], sign)


def convergence_sweep(spec: ModelSpec, exhaustion: Sequence[Iterable[int]],
                      a: DenseOperator, t_grid: Sequence[float],
                      perturbation: PerturbationFamily | None = None) -> ConvergenceSweepReport:
    """Compare the dynamics across a nested family of volumes.

    For each consecutive volume pair the report carries the norm difference
    of the evolved observable at each time and of each commutator r_m,
    m <= SWEEP_ORDERS, of :func:`_commutator_blocks` (||i^m x|| = ||x||), taken in the
    larger volume, as embedding is isometric. Each volume also gets
    truncated-series error rows against the exact evolution, with the
    reported tail bound, for times inside the radius. The observable must
    be selfadjoint; the bound's envelope ||a|| e^{lam card X} takes
    X = ``a.sites``, so pass it on its own sites for the tightest bound.
    Every volume-sized operator is held as its nonzero sector blocks p <= q,
    ``H_B`` as the diagonal blocks the build gives. Each time is evolved,
    compared and dropped before the next; one inside the radius is kept as
    its series error a - tau_t(a), and the times outside it come first, so
    no series error is held while they are compared (rows stay in grid
    order). Of the previous volume only the plan, the rotated observable
    blocks and the first SWEEP_ORDERS commutators are kept, and its
    observable is evolved again at each time. Each commutator up to
    SERIES_ORDER is added into every series error as made, the step
    :func:`dyson_evolve` takes.
    """
    vols = [tuple(sorted(set(v))) for v in exhaustion]
    for small, large in zip(vols, vols[1:]):
        if not set(small) < set(large):
            raise ValueError("exhaustion must be strictly nested ascending")
    if not set(a.sites) <= set(vols[0]):
        raise ValueError("observable must be supported in the smallest volume")
    a = a.with_matrix(opalg.hermitian_matrix(a, "the convergence sweep"))

    radius = series_radius(spec, perturbation)
    inside = any(abs(t) < radius for t in t_grid)
    order = max(SWEEP_ORDERS, SERIES_ORDER) if inside else SWEEP_ORDERS
    envelope = _envelope(a, spec.lam)

    evo_rows, order_rows, dyson_rows = [], [], []
    prev_plan, prev_rotated, prev_powers = None, {}, []
    for i, sites in enumerate(vols):
        built = volume_mod.build(spec, sites, perturbation)
        plan = make_plan(built)
        h_blocks = built.H_B_blocks
        del built   # its currents and reservoir operators are not read here
        a_v = _embedded_blocks([s.indices for s in plan.sectors], plan.sites, plan.dims, a)
        rotated = _rotated_blocks(plan, a_v)
        errors = []   # a - tau_t(a) for each inside time, to which each order's term is added
        gaps = {}   # each pair row's discrepancy by position in t_grid
        # the times outside the radius first, while no series error is held
        for k, t in sorted(enumerate(t_grid), key=lambda kt: abs(kt[1]) < radius):
            evolved = _rotated_back(plan, rotated, True, _evolution(plan, t))
            if i:
                small = _rotated_back(prev_plan, prev_rotated, True, _evolution(prev_plan, t))
                gaps[k] = _lifted_gap(prev_plan, small, plan, evolved, 1.0)
                del small
            if abs(t) < radius:
                for key, block in evolved.items():
                    np.subtract(a_v[key], block, out=block)
                errors.append((float(t), evolved))
            del evolved   # freed before the next time is evolved
        evo_rows += [SweepRow(i - 1, float(t), gaps[k]) for k, t in enumerate(t_grid) if i]

        powers = []
        for m, r in enumerate(_commutator_blocks(h_blocks, a_v, order, errors), start=1):
            if m <= SWEEP_ORDERS:
                powers.append(r)
                if i:
                    order_rows.append(OrderRow(i - 1, m, _lifted_gap(
                        prev_plan, prev_powers[m - 1], plan, r, (-1.0) ** m)))
            del r   # only powers keeps an order
        del h_blocks, a_v   # not needed by the norms below
        prev_plan, prev_rotated, prev_powers = plan, rotated, powers
        sizes = [s.indices.size for s in plan.sectors]
        dyson_rows += [DysonRow(i, t, opalg.block_norm(err, sizes, 1.0),
                                _tail_bound(envelope, abs(t) / radius))
                       for t, err in errors]

    return ConvergenceSweepReport(tuple(evo_rows), tuple(order_rows), tuple(dyson_rows))
