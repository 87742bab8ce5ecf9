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
    """A generator with no entry between two sectors and each sector's
    eigendecomposition, reusable across times."""

    generator: DenseOperator
    sectors: tuple[Sector, ...]


def make_plan(generator: DenseOperator,
              sectors: Sequence[np.ndarray] | None = None) -> EvolutionPlan:
    """One :func:`opalg.spectral` per sector (ascending index arrays, one
    sector unless given, as ``VolumeOperators.sectors``) of ``generator``;
    ValueError for a non-Hermitian one or one coupling two sectors."""
    mat = generator.matrix
    if sectors is None:
        sectors = (np.arange(generator.dim),)
    blocks = [_block(mat, rows, rows) for rows in sectors]
    if sum(map(np.count_nonzero, blocks)) != np.count_nonzero(mat):
        raise ValueError("the generator couples two sectors")
    return EvolutionPlan(generator, tuple(Sector(rows, *opalg.spectral(block))
                                          for rows, block in zip(sectors, blocks)))


def _block(mat: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """mat[rows][:, cols], and ``mat`` itself, uncopied, when they cover it."""
    if rows.size == mat.shape[0] and cols.size == mat.shape[1]:
        return mat
    return mat[np.ix_(rows, cols)]


def _embedded_blocks(plan: EvolutionPlan, op: DenseOperator, upper: bool = True) -> dict:
    """The nonzero sector blocks of ``op`` embedded into the plan's volume,
    only the pairs p <= q if ``upper``, as for an (anti-)Hermitian ``op``."""
    h_b, rows = plan.generator, [s.indices for s in plan.sectors]
    return {(p, q): block for p in range(len(rows)) for q in range(p if upper else 0, len(rows))
            if np.any(block := opalg.embedded_block(op, h_b.sites, h_b.dims, rows[p], rows[q]))}


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
    blocks = _embedded_blocks(plan, plan.generator.with_matrix(mat), hermitian)
    back = _rotated_back(plan, _rotated_blocks(plan, blocks), hermitian, weight)
    return opalg.assemble(back, [s.indices for s in plan.sectors], mat.shape[0],
                          1.0 if hermitian else None)


def _evolution(plan: EvolutionPlan, t: float) -> Callable[[np.ndarray, int, int], np.ndarray]:
    """The weight of :func:`_rotated_back` that evolves by exp(i t generator)."""
    phases = [np.exp(1j * t * s.eigenvalues) for s in plan.sectors]
    return lambda r, p, q: (phases[p][:, None] * r) * phases[q].conj()[None, :]


def exact_evolve(plan: EvolutionPlan, a: DenseOperator, t: float) -> DenseOperator:
    """Conjugate by exp(i t generator): the exact Heisenberg evolution, one
    sector block of ``a`` at a time. A zero block stays exactly zero, and a
    bitwise Hermitian ``a`` evolves to an exactly Hermitian operator."""
    if not plan.generator.same_volume(a):
        raise ValueError("operator volume does not match the plan's generator")
    return plan.generator.with_matrix(_conjugated(plan, a.matrix, _evolution(plan, t)))


# i^m, exact, so that i^m r stays real for even m
_I_POWERS = (1.0, 1j, -1.0, -1j)


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


def _commutators(h_b: DenseOperator, a: DenseOperator, order: int) -> Iterator[np.ndarray]:
    """The r_m of :func:`_commutator_blocks` for h_b and r_0 = a as one sector;
    ``a`` must be selfadjoint (ValueError otherwise), its Hermitian part used."""
    if not h_b.same_volume(a):
        raise ValueError("operator volume does not match the generator")
    r = opalg.hermitian_matrix(a, "the derivation series")
    for blocks in _commutator_blocks([h_b.matrix], {(0, 0): r}, order):
        yield blocks[0, 0]


def derivation_powers(h_b: DenseOperator, a: DenseOperator, order: int) -> list[DenseOperator]:
    """[delta(a), ..., delta^order(a)] for the derivation delta = i[h_b, .]
    and a selfadjoint ``a``: i^m r_m for the r_m of :func:`_commutators`."""
    return [h_b.with_matrix(r * _I_POWERS[m % 4])
            for m, r in enumerate(_commutators(h_b, a, order), start=1)]


def derivation(spec: ModelSpec, volume: Iterable[int], a: DenseOperator,
               perturbation: PerturbationFamily | None = None) -> DenseOperator:
    """The finite-volume derivation i[H_B, a] applied to a selfadjoint ``a``.

    ``H_B`` is the generator that :func:`nesslab.volume.build` assembles for
    ``volume``, so this has build's preconditions: the volume contains the
    small system and each perturbation term lies in one reservoir. ``a`` is
    embedded into the volume first.
    """
    h_b = volume_mod.build(spec, volume, perturbation).H_B
    (out,) = derivation_powers(h_b, opalg.embed(a, h_b.sites, h_b.dims), 1)
    return out


@dataclass(frozen=True)
class DysonConfig:
    """Truncation order and weight parameter for the series."""

    lam: float
    max_order: int = 12

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError("need lam > 0")
        if self.max_order < 1:
            raise ValueError("max_order must be >= 1")


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


def _add_series_term(acc: np.ndarray, t: float, m: int, r: np.ndarray) -> None:
    """acc += t^m delta^m(a) / m! = (i t)^m / m! r_m, in place in the complex
    ``acc``. For a real r_m the coefficient is real or imaginary, so only one
    part of ``acc`` changes."""
    coef = t**m / math.factorial(m) * _I_POWERS[m % 4]
    if np.iscomplexobj(r):
        acc += coef * r
    elif m % 2:
        acc.imag += coef.imag * r
    else:
        acc.real += coef.real * r


def _tail_bound(envelope: float, ratio: float, order: int) -> float:
    """envelope * r^{M+1} / (1 - r) for a series truncated after M orders,
    with ``envelope`` the :func:`_envelope` of the observable before it was
    embedded into the volume."""
    return float(envelope * ratio ** (order + 1) / (1.0 - ratio))


def dyson_evolve(spec: ModelSpec, volume: Iterable[int], a: DenseOperator, t: float,
                 cfg: DysonConfig | None = None,
                 perturbation: PerturbationFamily | None = None,
                 ) -> tuple[DenseOperator, float]:
    """Truncated power-series evolution with a rigorous tail bound.

    Returns the partial sum over orders m <= M of t^m delta^m(a) / m!, with
    delta = i[H_B, .] as in :func:`derivation` (and build's preconditions),
    and the geometric tail majorant ||a|| e^{lam card X} r^{M+1} / (1 - r)
    with r = 2 |t| (||Phi||_lam + K) / lam. ``a`` must be selfadjoint. X is
    ``a.sites``: pass the observable on its own sites, not embedded, for
    the tightest bound. Times at or beyond the convergence radius are
    refused since the majorant diverges there.
    """
    if cfg is None:
        cfg = DysonConfig(lam=spec.lam)
    k = 0.0 if perturbation is None else perturbation.bound_K
    ratio = 2.0 * abs(t) * (lambda_norm(spec) + k) / cfg.lam
    if ratio >= 1.0:
        raise ValueError(
            f"|t|={abs(t):.6g} is outside the series radius "
            f"{series_radius(spec, perturbation):.6g}; the error bound diverges")
    a = a.with_matrix(opalg.hermitian_matrix(a, "the derivation series"))
    envelope = _envelope(a, cfg.lam)
    h_b = volume_mod.build(spec, volume, perturbation).H_B
    a_vol = opalg.embed(a, h_b.sites, h_b.dims)
    partial = a_vol.matrix.astype(complex)
    for m, r in enumerate(_commutators(h_b, a_vol, cfg.max_order), start=1):
        _add_series_term(partial, t, m, r)
    return a_vol.with_matrix(partial), _tail_bound(envelope, ratio, cfg.max_order)


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

    def pair_sup(self, pair_index: int) -> float:
        return max((r.discrepancy for r in self.evolution_rows
                    if r.pair_index == pair_index), default=0.0)


def _lifted_gap(small_plan: EvolutionPlan, small: dict, plan: EvolutionPlan,
                large: dict, sign: float) -> float:
    """||embed(S) - L|| for (anti-)Hermitian S and L (``sign`` +1, -1) given by
    their blocks p <= q: S assembled at its own dimension, then gathered."""
    h_s, rows = small_plan.generator, [s.indices for s in small_plan.sectors]
    diff = _embedded_blocks(plan, h_s.with_matrix(opalg.assemble(small, rows, h_s.dim, sign)))
    for key, block in large.items():
        diff[key] = diff[key] - block if key in diff else -block
    return opalg.block_norm(diff, [s.indices.size for s in plan.sectors], sign)


def convergence_sweep(spec: ModelSpec, exhaustion: Sequence[Iterable[int]],
                      a: DenseOperator, t_grid: Sequence[float],
                      perturbation: PerturbationFamily | None = None,
                      max_order: int = 4) -> ConvergenceSweepReport:
    """Compare the dynamics across a nested family of volumes.

    For each consecutive volume pair the report carries the norm difference
    of the evolved observable at each time and of each order's commutator
    r_m of :func:`_commutator_blocks` (||i^m x|| = ||x||), taken in the
    larger volume, as embedding is isometric. Each volume also gets
    truncated-series error rows against the exact evolution, with the
    reported tail bound, for times inside the radius. The observable must
    be selfadjoint; the bound's envelope ||a|| e^{lam card X} takes
    X = ``a.sites``, so pass it on its own sites for the tightest bound.
    Every volume-sized operator is held as its nonzero sector blocks
    p <= q. Only the previous volume's evolved observables and commutators
    are kept; each commutator is added into every series error as made.
    """
    vols = [tuple(sorted(set(v))) for v in exhaustion]
    for small, large in zip(vols, vols[1:]):
        if not set(small) < set(large):
            raise ValueError("exhaustion must be strictly nested ascending")
    if not set(a.sites) <= set(vols[0]):
        raise ValueError("observable must be supported in the smallest volume")
    a = a.with_matrix(opalg.hermitian_matrix(a, "the convergence sweep"))

    cfg = DysonConfig(lam=spec.lam)
    radius = series_radius(spec, perturbation)
    inside = [j for j, t in enumerate(t_grid) if abs(t) < radius]
    order = max(max_order, cfg.max_order) if inside else max_order
    envelope = _envelope(a, cfg.lam)

    evo_rows, order_rows, dyson_rows = [], [], []
    prev_plan, prev_evolved, prev_powers = None, [], []
    for i, sites in enumerate(vols):
        built = volume_mod.build(spec, sites, perturbation)
        plan = make_plan(built.H_B, built.sectors)
        a_v = _embedded_blocks(plan, a)
        rotated = _rotated_blocks(plan, a_v)
        evolved = [_rotated_back(plan, rotated, True, _evolution(plan, t)) for t in t_grid]
        del rotated
        if i:
            evo_rows += [SweepRow(i - 1, float(t), _lifted_gap(prev_plan, small, plan, large, 1.0))
                         for t, small, large in zip(t_grid, prev_evolved, evolved)]
        prev_evolved = evolved

        # a - tau_t(a) for each inside time, to which each order's term is added
        errors = [(float(t_grid[j]), {key: a_v[key] - evolved[j][key] for key in a_v})
                  for j in inside]
        h_blocks = [_block(built.H_B.matrix, s.indices, s.indices) for s in plan.sectors]
        powers = []
        for m, r in enumerate(_commutator_blocks(h_blocks, a_v, order), start=1):
            for t, err in errors if m <= cfg.max_order else ():
                for key, block in r.items():
                    _add_series_term(err[key], t, m, block)
            if m <= max_order:
                powers.append(r)
                if i:
                    order_rows.append(OrderRow(i - 1, m, _lifted_gap(
                        prev_plan, prev_powers[m - 1], plan, r, (-1.0) ** m)))
        prev_plan, prev_powers = plan, powers
        sizes = [s.indices.size for s in plan.sectors]
        dyson_rows += [DysonRow(i, t, opalg.block_norm(err, sizes, 1.0),
                                _tail_bound(envelope, abs(t) / radius, cfg.max_order))
                       for t, err in errors]

    return ConvergenceSweepReport(tuple(evo_rows), tuple(order_rows), tuple(dyson_rows))
