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
from typing import Iterable, Sequence

import numpy as np

from . import opalg, volume as volume_mod
from .model import ModelSpec, PerturbationFamily, lambda_norm
from .opalg import DenseOperator


@dataclass(frozen=True)
class EvolutionPlan:
    """A generator with its eigenvalues (ascending) and unitary eigenvector
    matrix, reusable across times."""

    generator: DenseOperator
    eigenvalues: np.ndarray
    basis: np.ndarray


def make_plan(generator: DenseOperator) -> EvolutionPlan:
    if not generator.is_hermitian():
        raise ValueError("evolution generator must be Hermitian")
    return EvolutionPlan(generator, *opalg.spectral(generator))


def exact_evolve(plan: EvolutionPlan, a: DenseOperator, t: float) -> DenseOperator:
    """Conjugate by exp(i t generator): the exact Heisenberg evolution."""
    if not plan.generator.same_volume(a):
        raise ValueError("operator volume does not match the plan's generator")
    return _evolve_rotated(plan, opalg.rotate(plan.basis, a.matrix), t)


def _evolve_rotated(plan: EvolutionPlan, rotated: np.ndarray, t: float) -> DenseOperator:
    """The exact evolution of an operator given as V^dagger a V in the plan's
    eigenbasis: only the phases and the rotation back depend on ``t``."""
    phases = np.exp(1j * t * plan.eigenvalues)
    rotated = (phases[:, None] * rotated) * phases.conj()[None, :]
    return plan.generator.with_matrix(opalg.rotate(plan.basis.conj().T, rotated))


# i^m, exact, so that i^m r stays real for even m
_I_POWERS = (1.0, 1j, -1.0, -1j)


def derivation_powers(h_b: DenseOperator, a: DenseOperator, order: int) -> list[DenseOperator]:
    """[delta(a), ..., delta^order(a)] for the derivation delta = i[h_b, .].

    Iterates r <- [h_b, r], which stays real for a real generator and
    observable, and returns each delta^m(a) as i^m r.
    """
    powers = []
    r = a
    for m in range(1, order + 1):
        r = opalg.commutator(h_b, r)
        powers.append(_I_POWERS[m % 4] * r)
    return powers


def derivation(spec: ModelSpec, volume: Iterable[int], a: DenseOperator,
               perturbation: PerturbationFamily | None = None) -> DenseOperator:
    """The finite-volume derivation i[H_B, a] applied to ``a``.

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


def _truncated_series(a: DenseOperator, powers: Sequence[DenseOperator], t: float,
                      envelope: float, ratio: float) -> tuple[DenseOperator, float]:
    """Partial sum of t^m delta^m(a) / m! over ``powers`` and its tail bound.

    The bound is envelope * r^{M+1} / (1 - r), with M the number of powers
    and ``envelope`` the :func:`_envelope` of the observable before it was
    embedded into the volume of ``a``.
    """
    partial = a
    for m, power in enumerate(powers, start=1):
        partial = partial + (t**m / math.factorial(m)) * power
    return partial, float(envelope * ratio ** (len(powers) + 1) / (1.0 - ratio))


def dyson_evolve(spec: ModelSpec, volume: Iterable[int], a: DenseOperator, t: float,
                 cfg: DysonConfig | None = None,
                 perturbation: PerturbationFamily | None = None,
                 ) -> tuple[DenseOperator, float]:
    """Truncated power-series evolution with a rigorous tail bound.

    Returns the partial sum over orders m <= M of t^m delta^m(a) / m!, with
    delta = i[H_B, .] as in :func:`derivation` (and build's preconditions),
    and the geometric tail majorant ||a|| e^{lam card X} r^{M+1} / (1 - r)
    with r = 2 |t| (||Phi||_lam + K) / lam. X is ``a.sites``: pass the
    observable on its own sites, not embedded, for the tightest bound.
    Times at or beyond the convergence radius are refused since the
    majorant diverges there.
    """
    if cfg is None:
        cfg = DysonConfig(lam=spec.lam)
    k = 0.0 if perturbation is None else perturbation.bound_K
    ratio = 2.0 * abs(t) * (lambda_norm(spec) + k) / cfg.lam
    if ratio >= 1.0:
        raise ValueError(
            f"|t|={abs(t):.6g} is outside the series radius "
            f"{series_radius(spec, perturbation):.6g}; the error bound diverges")
    envelope = _envelope(a, cfg.lam)
    h_b = volume_mod.build(spec, volume, perturbation).H_B
    a_vol = opalg.embed(a, h_b.sites, h_b.dims)
    powers = derivation_powers(h_b, a_vol, cfg.max_order)
    return _truncated_series(a_vol, powers, t, envelope, ratio)


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


def convergence_sweep(spec: ModelSpec, exhaustion: Sequence[Iterable[int]],
                      a: DenseOperator, t_grid: Sequence[float],
                      perturbation: PerturbationFamily | None = None,
                      max_order: int = 4) -> ConvergenceSweepReport:
    """Compare the dynamics across a nested family of volumes.

    For each consecutive volume pair the report carries the norm difference
    of the evolved observable at each time and the per-order differences of
    the derivation powers, computed in the larger volume (embedding is
    isometric). Each volume also gets truncated-series error rows against
    the exact evolution, with the reported tail bound, for times inside the
    series radius. The bound's envelope ||a|| e^{lam card X} is taken once,
    with X = ``a.sites``: pass the observable on its own sites, not
    embedded, for the tightest bound.
    """
    vols = [tuple(sorted(set(v))) for v in exhaustion]
    for small, large in zip(vols, vols[1:]):
        if not set(small) < set(large):
            raise ValueError("exhaustion must be strictly nested ascending")
    if not set(a.sites) <= set(vols[0]):
        raise ValueError("observable must be supported in the smallest volume")

    plans = [make_plan(volume_mod.build(spec, v, perturbation).H_B) for v in vols]
    a_in = [opalg.embed(a, p.generator.sites, p.generator.dims) for p in plans]

    evolved = []
    for plan, a_v in zip(plans, a_in):
        rotated = opalg.rotate(plan.basis, a_v.matrix)
        evolved.append([_evolve_rotated(plan, rotated, t) for t in t_grid])

    evo_rows = []
    for i in range(len(vols) - 1):
        for j, t in enumerate(t_grid):
            lifted = opalg.embed(evolved[i][j], a_in[i + 1].sites, a_in[i + 1].dims)
            evo_rows.append(SweepRow(i, float(t),
                                     opalg.op_norm(lifted - evolved[i + 1][j])))

    cfg = DysonConfig(lam=spec.lam)
    radius = series_radius(spec, perturbation)
    inside = [j for j, t in enumerate(t_grid) if abs(t) < radius]
    order = max(max_order, cfg.max_order) if inside else max_order
    envelope = _envelope(a, cfg.lam)
    powers = []
    dyson_rows = []
    for i, (plan, a_v) in enumerate(zip(plans, a_in)):
        per_volume = derivation_powers(plan.generator, a_v, order)
        powers.append(per_volume[:max_order])
        for j in inside:
            t = float(t_grid[j])
            approx, bound = _truncated_series(a_v, per_volume[:cfg.max_order], t,
                                              envelope, abs(t) / radius)
            dyson_rows.append(DysonRow(i, t,
                                       opalg.op_norm(approx - evolved[i][j]), bound))

    order_rows = []
    for i in range(len(vols) - 1):
        for m in range(max_order):
            lifted = opalg.embed(powers[i][m], a_in[i + 1].sites, a_in[i + 1].dims)
            order_rows.append(OrderRow(i, m + 1,
                                       opalg.op_norm(lifted - powers[i + 1][m])))

    return ConvergenceSweepReport(tuple(evo_rows), tuple(order_rows), tuple(dyson_rows))
