"""States and thermodynamics at finite volume.

Gibbs and product initial states, the KMS residual check, time-averaged
steady-state proxies (exact in the horizon through the spectral averaging
kernel), reservoir energy fluxes, entropy production with its exact
finite-volume nonnegativity, and the monotone-function trace inequality
with its doubly stochastic witness.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Mapping, Sequence

import numpy as np

from . import opalg
from .dynamics import EvolutionPlan, _conjugated, make_plan
from .model import ModelSpec, redraw
from .opalg import DenseOperator
from .volume import VolumeOperators, build

@dataclass(frozen=True)
class StateRep:
    """A density matrix on a finite volume: Hermitian, unit trace, positive."""

    sites: tuple[int, ...]
    dims: tuple[int, ...]
    density: np.ndarray

    def __post_init__(self):
        mat = opalg.as_matrix(self.density)
        object.__setattr__(self, "density", mat)
        if mat.shape[0] != mat.shape[1]:
            raise ValueError("density matrix must be square")
        if abs(np.trace(mat) - 1.0) > opalg.STATE_TRACE_TOL:
            raise ValueError(f"density trace {np.trace(mat):.12g} != 1")
        if not opalg.is_hermitian_matrix(mat):
            raise ValueError("density matrix must be Hermitian")
        try:  # lambda_min >= -tol iff rho + tol 1 has a Cholesky factor: no eigensolve
            np.linalg.cholesky(mat + opalg.STATE_POSITIVITY_TOL * np.eye(mat.shape[0]))
        except np.linalg.LinAlgError:
            raise ValueError("density matrix must be positive semidefinite") from None

    @property
    def dim(self) -> int:
        return self.density.shape[0]

    def min_eigenvalue(self) -> float:
        return float(np.min(opalg.eigenvalues(self.density)))

    def expectation(self, a: DenseOperator) -> float:
        """Real expectation value of a Hermitian observable."""
        if a.sites != self.sites:
            raise ValueError("observable volume does not match the state")
        # tr(rho A) as an entrywise sum, quadratic instead of cubic
        return float(np.real(np.sum(self.density.T * a.matrix)))


def gibbs(h: DenseOperator, beta: float) -> StateRep:
    """exp(-beta H) / tr exp(-beta H) through the spectral decomposition.

    The exponent is shifted by its largest value before exponentiation so
    the weights stay in (0, 1]; any real beta yields a valid state.
    """
    return StateRep(h.sites, h.dims, _gibbs_density(*opalg.spectral(h), beta))


def _gibbs_density(w: np.ndarray, v: np.ndarray, beta: float) -> np.ndarray:
    """exp(-beta H) / tr exp(-beta H) for H = v diag(w) v^dagger."""
    x = beta * w
    weights = np.exp(-(x - np.min(x)))
    density = opalg.matmul(v * weights, v.conj().T)
    density /= np.real(np.trace(density))
    return density


def _gibbs_factors(vols: VolumeOperators) -> list[DenseOperator]:
    """The tensor factors of exp(-G): the Gibbs state of each reservoir block
    beta_a (H_a + B_a) on its reservoir's in-volume sites, and the normalized
    identity on the remaining sites."""
    factors = [b.with_matrix(gibbs(b, 1.0).density) for b in vols.blocks.values()]
    covered = {s for f in factors for s in f.sites}
    rest = tuple(s for s in vols.sites if s not in covered)
    rest_dims = tuple(d for s, d in zip(vols.sites, vols.dims) if s not in covered)
    rest_dim = math.prod(rest_dims)
    factors.append(DenseOperator(rest, rest_dims, np.eye(rest_dim) / rest_dim))
    return factors


def initial_state(vols: VolumeOperators) -> StateRep:
    """The product state exp(-G): reservoirs at their own temperatures,
    normalized trace on the small system.

    Formed as the tensor product of the Gibbs states of the reservoir blocks
    beta_a (H_a + B_a), each on its reservoir's in-volume sites, and the
    normalized identity on the remaining sites, so nothing of the volume's
    dimension is diagonalized.
    """
    density = opalg.kron_embed(_gibbs_factors(vols), vols.sites, vols.dims).matrix
    return StateRep(vols.sites, vols.dims, density)


def kms_check(state: StateRep, h: DenseOperator, beta: float,
              a: DenseOperator, b: DenseOperator) -> float:
    """Residual of the equilibrium boundary condition for a Gibbs state.

    Computes |omega(A alpha^{i beta} B) - omega(B A)| with
    alpha^{i beta} B = e^{-beta H} B e^{beta H} evaluated through the
    spectral decomposition. The state must be the Gibbs state of (H, beta);
    anything else makes the residual meaningless and is refused. One
    eigendecomposition of H serves both the reference Gibbs state and the
    continuation.
    """
    w, v = opalg.spectral(h)
    if np.max(np.abs(_gibbs_density(w, v, beta) - state.density)) > opalg.KMS_STATE_TOL:
        raise ValueError("state was not generated from (H, beta); residual is meaningless")
    a_t = opalg.rotate(v, a.matrix)
    b_t = opalg.rotate(v, b.matrix)
    rho_t = opalg.rotate(v, state.density)
    # analytically continued evolution of B in the eigenbasis
    b_shift = b_t * np.exp(-beta * (w[:, None] - w[None, :]))
    lhs = complex(np.trace(rho_t @ a_t @ b_shift))
    rhs = complex(np.trace(rho_t @ b_t @ a_t))
    return float(abs(lhs - rhs))


def _horizon_kernels(half: np.ndarray, endpoint: bool = True) -> np.ndarray:
    """Re K and Im K at x = 2 half, then Re expm1(ix) and Im expm1(ix) if
    ``endpoint``, stacked.

    K(x) = (e^{ix} - 1)/(ix) is (1/T) times the integral of e^{i t d} over
    [0, T] at x = T d, the averaging kernel, and expm1(ix) = e^{ix} - 1 the
    endpoint factor. With s = sin(x/2) and c = cos(x/2), K = e^{ix/2}
    sinc(x/2) is c sinc + i s sinc and expm1(ix) is -2 s^2 + 2i s c: one
    sine and one cosine per frequency, with no cancellation at small x, so
    every Bohr frequency is exact to roundoff; K(0) = 1 and expm1(0) = 0.
    """
    s = np.sin(half)
    c = np.cos(half)
    sinc = np.divide(s, half, out=np.ones_like(half), where=half != 0)
    out = np.empty((4 if endpoint else 2,) + half.shape)
    np.multiply(c, sinc, out=out[0])
    np.multiply(s, sinc, out=out[1])
    if endpoint:
        np.multiply(-2.0 * s, s, out=out[2])
        np.multiply(2.0 * s, c, out=out[3])
    return out


def time_averaged_state(plan: EvolutionPlan, state: StateRep, horizon: float) -> StateRep:
    """The horizon average of the evolved state, exact in the horizon.

    Averaging the dual evolution over [0, T] multiplies each nonzero sector
    block of the density matrix entrywise, in the generator eigenbasis, by
    the averaging kernel of the Bohr frequencies w_k - w_j. The result is
    again a state (a convex average of states).
    """
    if horizon <= 0:
        raise ValueError("horizon must be > 0")
    w = [s.eigenvalues for s in plan.sectors]

    def average(r: np.ndarray, p: int, q: int) -> np.ndarray:
        kernel = np.empty(r.shape, dtype=complex)
        kernel.real, kernel.imag = _horizon_kernels(
            0.5 * horizon * (w[q][None, :] - w[p][:, None]), endpoint=False)
        return r * kernel

    averaged = _conjugated(plan, state.density, average)
    averaged = 0.5 * (averaged + averaged.conj().T)
    return StateRep(state.sites, state.dims, averaged)


@dataclass(frozen=True)
class EntropyReport:
    """Fluxes, entropy production and sum-rule accounting for one horizon.

    ``e`` is the temperature-weighted flux sum; ``e_telescoped`` is the
    endpoint form (1/T)(<G(T)> - <G(0)>), which is nonnegative up to
    roundoff for every horizon. The two agree (and the sum-rule residual is
    bounded by ``tol_sum_rule``) whenever the reservoir perturbations
    vanish or commute with the interface part.
    """

    horizon: float
    fluxes: Mapping[int, float]
    e: float
    e_telescoped: float
    sum_rule_residual: float
    tol_sum_rule: float
    g_norm: float
    w_norm: float
    perturbed: bool

    def to_dict(self) -> dict:
        return {
            "T": self.horizon,
            "fluxes": {str(a): f for a, f in sorted(self.fluxes.items())},
            "e": self.e,
            "e_telescoped": self.e_telescoped,
            "sum_rule_residual": self.sum_rule_residual,
            "tol_sum_rule": self.tol_sum_rule,
        }

    def csv_row(self) -> list[float]:
        return ([self.horizon] + [f for _, f in sorted(self.fluxes.items())]
                + [self.e, self.e_telescoped, self.sum_rule_residual,
                   self.tol_sum_rule])


def horizon_reports(vols: VolumeOperators, horizons: Sequence[float],
                    plan: EvolutionPlan | None = None,
                    observables: Mapping[Hashable, DenseOperator] | None = None,
                    ) -> list[tuple[EntropyReport, dict[Hashable, float]]]:
    """Entropy reports and averaged observables for every horizon.

    Every quantity is an expectation in the initial state exp(-G) of an
    operator X that is local or a sum or product of local blocks: the
    state itself (the reservoir Gibbs factors and the normalized identity),
    G (the blocks beta_a (H_a + B_a) plus log Z), the reservoir currents
    and the observables, each selfadjoint (ValueError otherwise; its
    Hermitian part is used) and given on its own sites or on the whole
    volume. Each is rotated once into the eigenbasis V of the plan's
    generator (``H_B`` with ``vols.sectors`` unless given) one sector p at
    a time: X V_p is contracted from the local factors along the site axes
    of the sector's eigenvectors (:func:`opalg.kron_apply`), so V_p^dagger
    (X V_p) is one product of the sector's dimension. The state, G and the
    currents, made of the terms, leave each sector invariant (as a given
    plan's sectors must), so only Bohr frequencies within a sector count,
    and an observable's blocks between sectors contribute exactly nothing.
    With P_jk = s_jk x_kj for the rotated state s and operator x, and Bohr
    frequencies d_jk = w_k - w_j, the horizon average of <x> is
    sum_jk P_jk K(T d_jk) with the averaging kernel K, and the endpoint form
    of the entropy production is e_telescoped = (1/T) Re sum_jk P^G_jk
    expm1(i T d_jk), the relative entropy of the evolved state to the
    initial one divided by T. P is conjugate-symmetric, K(0) = 1 and
    expm1(0) = 0, so each
    weight is kept as its diagonal sum plus the real and imaginary parts of
    its packed strict upper triangle, and each horizon is one sine and one
    cosine per frequency (:func:`_horizon_kernels`) and two matrix-vector
    products.

    Returns one (report, {key: average}) pair per horizon, in order.
    """
    if any(t <= 0 for t in horizons):
        raise ValueError("horizon must be > 0")
    observables = {key: x.with_matrix(opalg.hermitian_matrix(x, f"observable {key!r}"))
                   for key, x in ({} if observables is None else observables).items()}
    if plan is None:
        plan = make_plan(vols.H_B, vols.sectors)
    reservoirs = sorted(vols.currents)
    operators = [vols.currents[a] for a in reservoirs] + list(observables.values())
    offsets = np.cumsum([0] + [s.indices.size * (s.indices.size - 1) // 2 for s in plan.sectors])
    sigma_factors = _gibbs_factors(vols)
    g_blocks = list(vols.blocks.values())
    rows = None
    diag = np.zeros(len(operators))
    half_freq, g_rows = [], []
    for sector, start, stop in zip(plan.sectors, offsets, offsets[1:]):
        v, w, size, dim = sector.basis, sector.eigenvalues, sector.indices.size, vols.dim
        upper = np.triu(np.ones((size, size), dtype=bool), k=1)
        half_freq.append(0.5 * (w[None, :] - w[:, None])[upper])
        columns = v
        if size < dim:   # the sector's eigenvectors as columns of the volume's basis
            columns = np.zeros((dim, size), dtype=v.dtype)
            columns[sector.indices] = v
        apply = functools.partial(opalg.kron_apply, sites=vols.sites, dims=vols.dims, v=columns)

        def rotated(x_v: np.ndarray) -> np.ndarray:
            """V^dagger (X V) within the sector, from X V on its columns."""
            return opalg.adjoint_matmul(v, x_v if size == dim else x_v[sector.indices])

        sigma_t = rotated(apply(sigma_factors))
        sigma_diag = np.diagonal(sigma_t).copy()
        sigma_upper = sigma_t[upper]
        del sigma_t
        # allocated once the first rotated state is gone, which lowers the peak
        rows = np.empty((len(operators), 2, offsets[-1])) if rows is None else rows

        def weight(x_t: np.ndarray, out: np.ndarray) -> float:
            """Rows Re, -Im of the packed P into ``out``; returns the diagonal sum."""
            p = sigma_upper * x_t.T[upper]
            out[0] = p.real
            out[1] = -p.imag if np.iscomplexobj(p) else 0.0
            return float(np.real(np.dot(sigma_diag, np.diagonal(x_t))))

        # one rotated matrix at a time; only the packed weights outlive it.
        # An observable's blocks between two sectors meet only zero blocks
        # of the rotated state, so they contribute exactly nothing.
        for k, x in enumerate(operators):
            diag[k] += weight(rotated(apply([x])), rows[k, :, start:stop])
        # G V without the constant log Z, which drops out of the strict upper
        # triangle the endpoint form reads
        g_v = functools.reduce(np.add, (apply([b]) for b in g_blocks))
        g_rows.append(np.empty((2, stop - start)))
        weight(rotated(g_v), g_rows[-1])
        del g_v, sigma_upper
    half_freq = np.concatenate(half_freq)
    rows = rows.reshape(len(operators), -1)
    g_rows = np.concatenate(g_rows, axis=1).reshape(-1)

    perturbed = any(np.any(b.matrix) for b in vols.B_a.values())
    out = []
    for horizon in horizons:
        kernels = _horizon_kernels(horizon * half_freq)
        values = diag + 2.0 * (rows @ kernels[:2].reshape(-1))
        fluxes = {a: float(values[i]) for i, a in enumerate(reservoirs)}
        averages = {key: float(values[len(reservoirs) + i])
                    for i, key in enumerate(observables)}
        e = sum(vols.betas[a] * f for a, f in fluxes.items())
        e_tel = 2.0 * float(g_rows @ kernels[2:].reshape(-1)) / horizon
        report = EntropyReport(
            horizon=float(horizon),
            fluxes=fluxes,
            e=float(e),
            e_telescoped=e_tel,
            sum_rule_residual=float(sum(fluxes.values())),
            tol_sum_rule=float(2.0 * vols.w_norm / horizon),
            g_norm=float(vols.g_norm),
            w_norm=float(vols.w_norm),
            perturbed=perturbed,
        )
        out.append((report, averages))
    return out


def entropy_production(vols: VolumeOperators, horizon: float,
                       plan: EvolutionPlan | None = None) -> EntropyReport:
    """Entropy production by two routes over one averaging horizon.

    Route one averages the reservoir current operators against the
    time-averaged initial product state exp(-G) and weights them by the
    inverse temperatures. Route two evaluates the weighted exponent G at the
    horizon endpoints. The endpoint route is nonnegative exactly (up to
    roundoff in units of the exponent's norm), for every volume and
    horizon. A one-horizon call of :func:`horizon_reports`.
    """
    return horizon_reports(vols, (horizon,), plan=plan)[0][0]


@dataclass(frozen=True)
class HeatDirectionReport:
    """Two-reservoir check that heat flows from hot to cold."""

    horizon: float
    beta_pair: tuple[float, float]
    flux_into_first: float
    lhs: float
    slack: float
    ok: bool


def heat_direction_check(vols: VolumeOperators, horizon: float,
                         plan: EvolutionPlan | None = None) -> HeatDirectionReport:
    """Check (beta_1 - beta_2) * flux_1 >= -beta_2 * 2||W||/T - HEAT_DIRECTION_SLACK.

    The inequality combines the nonnegativity of the entropy production
    with the sum-rule slack; it forces energy into the colder reservoir up
    to a horizon-decaying tolerance. Requires exactly two reservoirs.
    """
    reservoirs = vols.reservoirs
    if len(reservoirs) != 2:
        raise ValueError(f"heat direction check needs exactly 2 reservoirs, got {len(reservoirs)}")
    report = entropy_production(vols, horizon, plan=plan)
    a1, a2 = reservoirs
    b1, b2 = vols.betas[a1], vols.betas[a2]
    lhs = (b1 - b2) * report.fluxes[a1]
    slack = b2 * report.tol_sum_rule + opalg.HEAT_DIRECTION_SLACK
    return HeatDirectionReport(
        horizon=float(horizon), beta_pair=(b1, b2),
        flux_into_first=report.fluxes[a1], lhs=float(lhs), slack=float(slack),
        ok=bool(lhs >= -slack),
    )


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
    that leave reservoir ``a``, weighted by beta_a, whose norm is taken on
    their joint support. Both decompositions are built once, and both
    current sets are contracted against the same rotated state, for every
    horizon; one report per horizon, in order.
    """
    vols = build(spec, volume)
    new_spec = redraw(spec, new_small_system)
    redrawn = build(new_spec, volume)

    moved = [(vols.betas[a], t) for a in vols.reservoirs for t in spec.terms
             if set(t.support) <= spec.regions.sites_in(a) & set(vols.sites)
             and not set(t.support) <= new_spec.regions.sites_in(a)]
    support = tuple(sorted(set().union(*(t.support for _, t in moved))))
    dims = spec.dims_for(support)
    shift = sum((beta * opalg.embed(spec.term_operator(t), support, dims) for beta, t in moved),
                opalg.zero(support, dims))
    shift_norm = opalg.op_norm(shift)

    reports = []
    for report, averaged in horizon_reports(vols, horizons, observables=redrawn.currents):
        e_new = sum(redrawn.betas[a] * averaged[a] for a in redrawn.currents)
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

    def to_dict(self) -> dict:
        return {
            "eigenvalues": [float(x) for x in self.eigenvalues],
            "c": [[float(x) for x in row] for row in self.c],
            "lhs": self.lhs,
            "rhs": self.rhs,
        }

    def csv_row(self) -> list[float]:
        return [float(self.eigenvalues.size), self.lhs, self.rhs,
                self.min_entry, self.row_sum_deviation, self.col_sum_deviation]


def klein_check(a: np.ndarray, u: np.ndarray, phi: Callable[[float], float],
                antiderivative: Callable[[float], float] | None = None) -> KleinWitness:
    """Check tr(phi(A) U A U^{-1}) <= tr(phi(A) A) for nondecreasing phi.

    Constructs the witness from the finest (rank-one) spectral resolution
    so the unit row/column sums hold regardless of degeneracies. When the
    antiderivative of phi is supplied, the equivalent convex-function form
    tr(f(UAU^{-1}) - f(A) - (UAU^{-1} - A) phi(A)) >= 0 is evaluated too.
    Refuses phi that decreases somewhere on the sampled eigenvalues.
    """
    a = opalg.as_matrix(a)
    w, v = opalg.spectral(a)  # refuses non-Hermitian A
    a = 0.5 * (a + a.conj().T)
    conj = opalg.unitary_conj(u, a)  # refuses non-unitary U
    u = opalg.as_matrix(u)

    phi_vals = np.array([phi(float(x)) for x in w], dtype=float)
    if np.any(np.diff(phi_vals) < 0):
        raise ValueError("phi is not nondecreasing on the spectrum of A")

    c = np.abs(opalg.rotate(v, u)) ** 2  # tr(E_k U E_l U^{-1}) for rank-one projections
    phi_a = opalg.matmul(v * phi_vals, v.conj().T)
    lhs = float(np.real(np.trace(phi_a @ conj)))
    rhs = float(np.dot(phi_vals, w))
    n = a.shape[0]
    norm_a = float(np.max(np.abs(w))) if n else 0.0
    scale = n * norm_a * float(np.max(np.abs(phi_vals))) if n else 0.0

    footnote = None
    if antiderivative is not None:
        w_conj = opalg.eigenvalues(conj)
        f_b = sum(antiderivative(float(x)) for x in w_conj)
        f_a = sum(antiderivative(float(x)) for x in w)
        cross = float(np.real(np.trace((conj - a) @ phi_a)))
        footnote = float(f_b - f_a - cross)

    return KleinWitness(eigenvalues=w, c=c, lhs=lhs, rhs=rhs, scale=scale,
                        footnote_value=footnote)
