"""States and thermodynamics at finite volume.

Gibbs states, the KMS residual check, horizon averages in the initial
product state (exact in the horizon through the spectral averaging kernel),
reservoir energy fluxes, entropy production with its exact finite-volume
nonnegativity, and the monotone-function trace inequality with its doubly
stochastic witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Mapping, Sequence

import numpy as np

from . import opalg
from .dynamics import make_plan
from .model import ModelSpec, redraw
from .opalg import DenseOperator
from .volume import VolumeOperators, build


def gibbs(h: DenseOperator, beta: float) -> DenseOperator:
    """exp(-beta H) / tr exp(-beta H) through the spectral decomposition, on H's sites.

    The exponent is shifted by its largest value before exponentiation so
    the weights stay in (0, 1]; any real beta yields a density matrix.
    """
    w, v = opalg.spectral(h)
    density = opalg.matmul(v * _boltzmann(w, beta), v.conj().T)
    density /= np.real(np.trace(density))
    return h.with_matrix(density)


def _boltzmann(w: np.ndarray, beta: float) -> np.ndarray:
    """exp(-beta w) divided by its largest entry, so every weight is in (0, 1]."""
    x = beta * w
    return np.exp(-(x - np.min(x)))


def _gibbs_factors(vols: VolumeOperators) -> tuple[list[DenseOperator], float]:
    """The tensor factors of exp(-G), the Gibbs states of the reservoir blocks beta_a (H_a + B_a)
    on their in-volume sites, and the scalar 1/d of its normalized identity on the other sites."""
    factors = [gibbs(b, 1.0) for b in vols.blocks.values()]
    return factors, math.prod(f.dim for f in factors) / vols.dim


def kms_check(h: DenseOperator, beta: float, a: DenseOperator, b: DenseOperator) -> float:
    """Residual of the equilibrium boundary condition in the Gibbs state of (H, beta).

    Computes |omega(A alpha^{i beta} B) - omega(B A)| with omega the Gibbs
    state and alpha^{i beta} B = e^{-beta H} B e^{beta H}, from one
    eigendecomposition H = V diag(w) V^dagger. omega is diagonal in V with
    weights p, so with A~ = V^dagger A V and B~ likewise each side is p
    against the diagonal of a product: sum_j p_j sum_k A~_jk B~_kj
    e^{-beta (w_k - w_j)} and sum_j p_j sum_k B~_jk A~_kj. No density matrix
    is formed, so no roundoff off its diagonal meets the continuation's
    factors, which reach e^{beta (max w - min w)}: ValueError, before any
    exponential, where that exceeds the largest float.
    """
    w, v = opalg.spectral(h)
    exponent, limit = abs(beta) * (w[-1] - w[0]), opalg.LOG_MAX_FLOAT
    if exponent > limit:
        raise ValueError(f"beta (max w - min w) = {exponent:.6g} exceeds log(max float) = "
                         f"{limit:.6g}: the KMS continuation factor would overflow")
    p = _boltzmann(w, beta)
    p /= p.sum()
    a_t = opalg.rotate(v, a.matrix)
    b_t = opalg.rotate(v, b.matrix)
    b_shift = b_t * np.exp(-beta * (w[:, None] - w[None, :]))
    lhs = p @ np.einsum("jk,kj->j", a_t, b_shift)
    rhs = p @ np.einsum("jk,kj->j", b_t, a_t)
    return float(abs(lhs - rhs))


def _horizon_kernels(half: np.ndarray) -> np.ndarray:
    """K(x) = (e^{ix} - 1)/(ix) at x = 2 half: (1/T) times the integral of
    e^{i t d} over [0, T] at x = T d, the averaging kernel. With s = sin(x/2)
    and c = cos(x/2), K = e^{ix/2} sinc(x/2) is c sinc + i s sinc: one sine and
    one cosine per frequency, with no cancellation at small x, so every Bohr
    frequency is exact to roundoff; K(0) = 1. Filled in place, sinc in the
    imaginary part.
    """
    s = np.sin(half)
    c = np.cos(half)
    out = np.empty(half.shape, complex)
    sinc = out.imag
    sinc[...] = 1.0
    np.divide(s, half, out=sinc, where=half != 0)
    np.multiply(c, sinc, out=out.real)
    sinc *= s
    return out


@dataclass(frozen=True)
class EntropyReport:
    """Fluxes, entropy production and sum-rule accounting for one horizon.

    ``e`` is the temperature-weighted flux sum; ``e_telescoped`` is the
    horizon average of <delta(G)>, delta = i[H_B, .], which telescopes to the
    endpoint form (1/T)(<G(T)> - <G(0)>), nonnegative for every horizon. As
    delta(G) = sum_a beta_a (J_a + i[W, B_a]), it is ``e`` plus the average of
    ``VolumeOperators.perturbation_current``, and ``e`` itself, bitwise,
    when no perturbation term meets the interface's sites. The sum-rule
    residual is bounded by ``tol_sum_rule``.
    """

    horizon: float
    fluxes: Mapping[int, float]
    e: float
    e_telescoped: float
    sum_rule_residual: float
    tol_sum_rule: float

    def csv_row(self) -> list[float]:
        return ([self.horizon] + [f for _, f in sorted(self.fluxes.items())]
                + [self.e, self.e_telescoped, self.sum_rule_residual,
                   self.tol_sum_rule])


# rows of a row block of a rotated operator: basis columns of the panel it is made from
_BLOCK = 128


def horizon_reports(vols: VolumeOperators, horizons: Sequence[float],
                    observables: Mapping[Hashable, DenseOperator] | None = None,
                    ) -> list[tuple[EntropyReport, dict[Hashable, float]]]:
    """Entropy reports and averaged observables for every horizon.

    Each value is the horizon average of an expectation in the initial state
    exp(-G) of an operator that is local or a sum or product of local blocks:
    a reservoir current, an observable (selfadjoint, ValueError otherwise; its
    Hermitian part is used), on its own sites or on the whole volume, or
    ``vols.perturbation_current``, whose average added to ``e`` is
    ``e_telescoped``. An operator on no sites is a 1x1 matrix [c], c times the
    identity, and its average is c: a zero current, and the perturbation
    current when no family term meets W's sites (so ``e_telescoped`` is ``e``
    bitwise). Every other operator is rotated into the eigenbasis of
    ``make_plan(vols)`` one sector at a time, from its local factors
    (:func:`opalg.kron_apply`). The state and every
    current leave each of ``vols.sectors`` invariant, so only Bohr
    frequencies d_jk = w_k - w_j within a sector count.
    With P_jk = s_jk x_kj for the rotated state s and operator x, the average
    of <x> is sum_jk P_jk K(T d_jk), K the averaging kernel.

    One rule contracts every operator: P = c Q with Q = s * conj(R) (entrywise),
    R made from the Y the operator is applied as. As s and x are Hermitian,
    P_kj = conj(P_jk) and d_kj = -d_jk, so the pair (k, j) adds the complex
    conjugate of what (j, k) adds to each sum below. So only the block upper
    triangle is made and contracted, about half of the full rotation: per
    block of 128 rows from lo on, R's rows from column lo on are
    (Y V_b)^dagger V[:, lo:], V_b the block's own basis columns. No image of Y
    on the whole sector is formed: Y V_b is made from one panel, V_b
    zero-padded to the volume's D rows. The state's row block is made once,
    every operator's is contracted against it in turn, and nothing but the
    sums outlives the row block. For a Hermitian Y, R is V^dagger Y V and
    c = 1. On a real plan an operator i Y with Y real, as every current of a
    real chain is, is applied as Y, which is antisymmetric, so R is
    -V^dagger Y V and c = i.

    The phases separate: with u_j = exp(i T w_j), w shifted by the sector's
    midpoint, exp(i T d_jk) = conj(u_j) u_k. So the pairs with |d_jk| >= tau /
    min T (tau = ``opalg.SEPARABLE_PHASE_TOL``) add (-i/T) z, z = sum Q_jk /
    d_jk (conj(u_j) u_k - 1): one product of each row block of Q / d with the
    phases of all horizons, its diagonal block counted once and the columns
    right of it twice, and none for a row block with no such pair. Each such
    pair adds a rounding error of about eps |P_jk| / tau, and its phase error
    eps T |w| adds eps |P_jk| |w| / |d_jk|, as the eigenvalues' own error at
    d_jk does. The other pairs (d = 0 among them; all of them for a small min
    T) are direct: a row block's direct Q_jk, j < k, of every operator are
    stacked into one array, and each horizon contracts it with
    :func:`_horizon_kernels` at that block's direct frequencies in one
    product. Each value is Re(c (tr Q + 2 sum_{j<k} Q K + (-i/T) z)).

    Returns one (report, {key: average}) pair per horizon, in order.
    """
    if any(t <= 0 for t in horizons):
        raise ValueError("horizon must be > 0")
    observables = {key: x.with_matrix(opalg.hermitian_matrix(x, f"observable {key!r}"))
                   for key, x in ({} if observables is None else observables).items()}
    plan = make_plan(vols)
    reservoirs = sorted(vols.currents)
    named = ([vols.currents[a] for a in reservoirs] + list(observables.values())
             + [vols.perturbation_current])
    operators = [x for x in named if x.sites]   # one on no sites is c I, of average c
    real = not any(np.iscomplexobj(s.basis) for s in plan.sectors)
    coefs = [1j if real and np.iscomplexobj(x.matrix) and not np.any(x.matrix.real) else 1.0
             for x in operators]
    operators = [x.with_matrix(np.ascontiguousarray(x.matrix.imag)) if c == 1j else x
                 for x, c in zip(operators, coefs)]
    factors, scale = _gibbs_factors(vols)
    cut = opalg.SEPARABLE_PHASE_TOL / min(horizons, default=1.0)  # no horizon: no report
    # per operator: tr Q, and per horizon z and the direct sum of Q K
    diag = np.zeros(len(operators), complex)
    separable = np.zeros((len(operators), len(horizons)), complex)
    direct = np.zeros((len(operators), len(horizons)), complex)
    for sector in plan.sectors:
        v, w = sector.basis, sector.eigenvalues
        size, dim = w.size, vols.dim
        rows = sector.indices if size < dim else slice(None)
        phases = np.exp(1j * np.multiply.outer(w - 0.5 * (w[0] + w[-1]), horizons))

        def row_block(factors: list[DenseOperator], lo: int) -> np.ndarray:
            """Rows [lo, lo + 128) of V^dagger T V from column lo on, for the Hermitian
            tensor product T of ``factors``: (T V_b)^dagger V[:, lo:], V_b the block's
            basis columns as one panel zero-padded to the volume's D rows."""
            panel = np.zeros((dim, min(_BLOCK, size - lo)), v.dtype)
            panel[rows] = v[:, lo:lo + _BLOCK]
            y = opalg.kron_apply(factors, vols.sites, vols.dims, panel)[rows]
            del panel
            return opalg.matmul(np.conjugate(y, out=y).T, v[:, lo:])

        # one row block at a time, from its first column on; nothing is kept but the sums
        for lo in range(0, size, _BLOCK):
            bohr = w[None, lo:] - w[lo:lo + _BLOCK, None]
            far = np.abs(bohr) >= cut
            upper = np.flatnonzero(np.triu(~far, 1))   # the direct pairs j < k
            half = 0.5 * bohr.ravel()[upper]
            inv = np.divide(1.0, bohr, out=np.zeros(bohr.shape), where=far) if far.any() else None
            del bohr, far
            s = row_block(factors, lo) * scale
            pairs = np.empty((len(operators), upper.size),
                             np.result_type(v, *(x.matrix for x in operators)))
            # an observable's blocks between sectors meet zero blocks of the state
            for k, x in enumerate(operators):
                q = row_block([x], lo)
                np.conjugate(q, out=q)
                q *= s
                diag[k] += np.trace(q)
                pairs[k] = q.ravel()[upper]
                if inv is not None:
                    q *= inv
                    q[:, _BLOCK:] *= 2.0   # right of the diagonal block, k > j stands for j < k
                    separable[k] += np.einsum("jt,jt->t", phases[lo:lo + _BLOCK].conj(),
                                              opalg.matmul(q, phases[lo:])) - q.sum()
                del q
            del s, inv, upper
            for n, horizon in enumerate(horizons):
                kernel = _horizon_kernels(horizon * half).reshape(-1, 1)
                direct[:, n] += opalg.matmul(pairs, kernel)[:, 0]
            del pairs, half

    out, w_norm = [], vols.w_norm   # one solve for every horizon's tolerance
    for n, horizon in enumerate(horizons):
        local = iter([float((c * (diag[k] + 2.0 * direct[k, n]
                                  - 1j * (separable[k, n] / horizon))).real)
                      for k, c in enumerate(coefs)])
        values = [next(local) if x.sites else float(x.matrix[0, 0].real) for x in named]
        fluxes = dict(zip(reservoirs, values))
        averages = dict(zip(observables, values[len(reservoirs):]))
        e = float(sum(vols.betas[a] * f for a, f in fluxes.items()))
        report = EntropyReport(
            horizon=float(horizon),
            fluxes=fluxes,
            e=e,
            e_telescoped=e + values[-1],
            sum_rule_residual=float(sum(fluxes.values())),
            tol_sum_rule=float(2.0 * w_norm / horizon),
        )
        out.append((report, averages))
    return out


@dataclass(frozen=True)
class HeatDirectionReport:
    """Two-reservoir check that heat flows from hot to cold."""

    horizon: float
    lhs: float
    ok: bool


def heat_direction_check(report: EntropyReport,
                         betas: Mapping[int, float]) -> HeatDirectionReport:
    """Check (beta_1 - beta_2) * flux_1 >= -beta_2 * 2||W||/T - HEAT_DIRECTION_SLACK.

    Judges the ``report`` of one horizon that the caller already holds, from
    :func:`horizon_reports` (so nothing is solved here), with ``betas`` the
    reservoirs' inverse temperatures, as ``vols.betas``. The inequality
    combines the nonnegativity of the entropy production with the sum-rule
    slack; it forces energy into the colder reservoir up to a horizon-decaying
    tolerance. Requires exactly two reservoirs.
    """
    reservoirs = sorted(report.fluxes)
    if len(reservoirs) != 2:
        raise ValueError(f"heat direction check needs exactly 2 reservoirs, got {len(reservoirs)}")
    a1, a2 = reservoirs
    b1, b2 = betas[a1], betas[a2]
    lhs = (b1 - b2) * report.fluxes[a1]
    slack = b2 * report.tol_sum_rule + opalg.HEAT_DIRECTION_SLACK
    return HeatDirectionReport(horizon=report.horizon, lhs=float(lhs), ok=bool(lhs >= -slack))


@dataclass(frozen=True)
class RedrawReport:
    """Entropy production under two boundary accountings of one state."""

    horizon: float
    e_original: float
    e_redrawn: float
    difference: float
    bound: float
    ok: bool


def boundary_redraw_check(spec: ModelSpec, new_small_system: Iterable[int],
                          volume: Iterable[int],
                          horizons: Sequence[float]) -> tuple[RedrawReport, ...]:
    """Move the system/reservoir boundary and re-account the fluxes.

    The initial state, the dynamics and the averaging all come from the
    original decomposition; only the bookkeeping of which terms belong to
    which reservoir changes. The difference of the two entropy production
    values is bounded by (2/T) times the norm of the weighted reservoir
    Hamiltonian difference sum_a beta_a (H_a - H'_a): the in-volume terms
    that leave reservoir ``a``, weighted by beta_a, summed by
    :func:`opalg.embed_sum` on their joint support, where it is normed. Both
    decompositions are built, and only the original one is solved: the
    currents of the redrawn build are contracted against the same rotated
    state as the original ones, for every horizon; one report per horizon,
    in order.
    """
    new_spec = redraw(spec, new_small_system)   # refused before anything is built
    vols = build(spec, volume)
    currents = build(new_spec, volume).currents

    moved = [(vols.betas[a], t) for a in vols.reservoirs for t in spec.terms
             if set(t.support) <= spec.sites_in(a) & set(vols.sites)
             and not set(t.support) <= new_spec.sites_in(a)]
    support = tuple(sorted(set().union(*(t.support for _, t in moved))))
    (shift,) = opalg.embed_sum([beta * spec.term_operator(t) for beta, t in moved], support,
                               spec.dims_for(support), [np.arange(spec.volume_dim(support))])
    shift_norm = opalg.op_norm(shift)

    reports = []
    for report, averaged in horizon_reports(vols, horizons, observables=currents):
        e_new = sum(new_spec.betas[a] * averaged[a] for a in currents)
        bound = 2.0 * shift_norm / report.horizon + opalg.REDRAW_BOUND_SLACK
        diff = abs(report.e - e_new)
        reports.append(RedrawReport(
            horizon=report.horizon, e_original=float(report.e), e_redrawn=float(e_new),
            difference=float(diff), bound=float(bound), ok=bool(diff <= bound),
        ))
    return tuple(reports)


@dataclass(frozen=True)
class KleinWitness:
    """The doubly stochastic matrix behind the monotone trace inequality.

    ``c[k, l]`` is the overlap tr(E_k U E_l U^{-1}) of rank-one spectral
    projections of A with their conjugated counterparts; it is entrywise
    nonnegative with unit row and column sums. ``lhs <= rhs`` is the
    inequality tr(phi(A) U A U^{-1}) <= tr(phi(A) A).
    """

    eigenvalues: np.ndarray
    c: np.ndarray
    lhs: float
    rhs: float
    scale: float
    footnote_value: float | None = None

    @property
    def row_sum_deviation(self) -> float:
        return float(np.max(np.abs(self.c.sum(axis=1) - 1.0)))

    @property
    def col_sum_deviation(self) -> float:
        return float(np.max(np.abs(self.c.sum(axis=0) - 1.0)))

    @property
    def min_entry(self) -> float:
        return float(np.min(self.c))

    @property
    def violation(self) -> float:
        return self.lhs - self.rhs


def klein_check(a: np.ndarray, u: np.ndarray, phi: Callable[[float], float],
                antiderivative: Callable[[float], float] | None = None) -> KleinWitness:
    """Check tr(phi(A) U A U^{-1}) <= tr(phi(A) A) for nondecreasing phi.

    Refuses an empty A or U, an A not Hermitian (its Hermitian part is used), a U not
    unitary or not of A's dimension, and phi that decreases on the spectrum of A. The
    witness comes from the finest (rank-one) spectral resolution so the unit row/column
    sums hold regardless of degeneracies. When the antiderivative of phi is supplied, the
    equivalent convex-function form tr(f(UAU^{-1}) - f(A) - (UAU^{-1} - A) phi(A)) >= 0
    is evaluated too.
    """
    a, u = opalg.hermitian_matrix(a, "klein_check"), opalg.as_matrix(u)
    if a.size == 0 or u.size == 0:
        raise ValueError(f"klein_check refuses an empty A or U (shapes {a.shape}, {u.shape})")
    if u.shape != a.shape:
        raise ValueError(f"U of shape {u.shape} does not match A of shape {a.shape}")
    defect = np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))
    if defect > opalg.UNITARITY_TOL:
        raise ValueError(f"U is not unitary (defect {defect:.3e})")
    w, v = opalg.spectral(a)
    conj = opalg.rotate_back(u, a)

    phi_vals = np.array([phi(float(x)) for x in w], dtype=float)
    if np.any(np.diff(phi_vals) < 0):
        raise ValueError("phi is not nondecreasing on the spectrum of A")

    c = np.abs(opalg.rotate(v, u)) ** 2  # tr(E_k U E_l U^{-1}) for rank-one projections
    phi_a = opalg.matmul(v * phi_vals, v.conj().T)
    lhs = float(np.real(np.trace(phi_a @ conj)))
    rhs = float(np.dot(phi_vals, w))
    n = a.shape[0]
    norm_a = float(np.max(np.abs(w)))
    scale = n * norm_a * float(np.max(np.abs(phi_vals)))

    footnote = None
    if antiderivative is not None:
        w_conj = opalg.eigenvalues(conj)
        f_b = sum(antiderivative(float(x)) for x in w_conj)
        f_a = sum(antiderivative(float(x)) for x in w)
        cross = float(np.real(np.trace((conj - a) @ phi_a)))
        footnote = float(f_b - f_a - cross)

    return KleinWitness(eigenvalues=w, c=c, lhs=lhs, rhs=rhs, scale=scale,
                        footnote_value=footnote)
