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
    w, v = opalg.spectral(h)
    density = opalg.matmul(v * _boltzmann(w, beta), v.conj().T)
    density /= np.real(np.trace(density))
    return StateRep(h.sites, h.dims, density)


def _boltzmann(w: np.ndarray, beta: float) -> np.ndarray:
    """exp(-beta w) divided by its largest entry, so every weight is in (0, 1]."""
    x = beta * w
    return np.exp(-(x - np.min(x)))


def _gibbs_factors(vols: VolumeOperators) -> tuple[list[DenseOperator], float]:
    """The tensor factors of exp(-G), the Gibbs states of the reservoir blocks beta_a (H_a + B_a)
    on their in-volume sites, and the scalar 1/d of its normalized identity on the other sites."""
    factors = [b.with_matrix(gibbs(b, 1.0).density) for b in vols.blocks.values()]
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
    exponent, limit = abs(beta) * (w[-1] - w[0]), math.log(np.finfo(float).max)
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
    horizon average of <delta(G)>, delta = i[H_B, .]: the endpoint form
    (1/T)(<G(T)> - <G(0)>), nonnegative up to roundoff for every horizon.
    The two agree (and the sum-rule residual is bounded by ``tol_sum_rule``)
    whenever the reservoir perturbations vanish or commute with the
    interface part.
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

    def csv_row(self) -> list[float]:
        return ([self.horizon] + [f for _, f in sorted(self.fluxes.items())]
                + [self.e, self.e_telescoped, self.sum_rule_residual,
                   self.tol_sum_rule])


# rows of an upper_blocks block of a rotated operator, and basis columns of a panel of its image
_BLOCK = 128


def horizon_reports(vols: VolumeOperators, horizons: Sequence[float],
                    observables: Mapping[Hashable, DenseOperator] | None = None,
                    ) -> list[tuple[EntropyReport, dict[Hashable, float]]]:
    """Entropy reports and averaged observables for every horizon.

    Each value is the horizon average of an expectation in the initial state
    exp(-G) of an operator that is local or a sum or product of local blocks:
    a reservoir current, an observable (selfadjoint, ValueError otherwise; its
    Hermitian part is used), on its own sites or on the whole volume, or
    delta(G) = i[H_B, G] for ``e_telescoped``, G from its blocks beta_a (H_a +
    B_a) (log Z drops out). Each is rotated into the eigenbasis of
    ``make_plan(vols)`` one sector at a time, from its local factors
    (:func:`opalg.kron_apply`). The state, G and the currents leave each of
    ``vols.sectors`` invariant, so only Bohr frequencies d_jk = w_k - w_j
    within a sector count.
    With P_jk = s_jk x_kj for the rotated state s and operator x, the average
    of <x> is sum_jk P_jk K(T d_jk), K the averaging kernel.

    One rule contracts every operator: P = c Q with Q = s * conj(V^dagger Y V)
    (entrywise) for the Y it is applied as. c = 1 for an operator applied as
    it is; on a real plan an operator i Y with Y real, as every current of a
    real chain is, is applied as Y with c = -i. delta(G) rotates to -i d *
    (V^dagger G V), so G is applied, with Q = d * P^G and c = i.

    An operator's image (Y V_p) on the sector's rows is made in panels of 128
    basis columns, each zero-padded to the volume's D rows, and written into
    one d_p x d_p array; G's blocks add into it panel by panel. On a
    one-sector volume one term is applied to the whole basis at once.

    As s and x are Hermitian, P_kj = conj(P_jk) and d_kj = -d_jk, so the pair
    (k, j) adds the complex conjugate of what (j, k) adds to each sum below.
    So only the block upper triangle is rotated, held and contracted: per
    block of 128 rows, those rows of V^dagger Y V from the block's first
    column on (:func:`opalg.upper_blocks`), about half of the full rotation.

    The phases separate: with u_j = exp(i T w_j), w shifted by the sector's
    midpoint, exp(i T d_jk) = conj(u_j) u_k. So the pairs with |d_jk| >= tau /
    min T (tau = ``opalg.SEPARABLE_PHASE_TOL``) add (-i/T) z, z = sum Q_jk /
    d_jk (conj(u_j) u_k - 1): one product of each row block of Q / d with the
    phases of all horizons, its diagonal block counted once and the columns
    right of it twice, and none for a row block with no such pair. Each such
    pair adds a rounding error of about eps |P_jk| / tau, and its phase error
    eps T |w| adds eps |P_jk| |w| / |d_jk|, as the eigenvalues' own error at
    d_jk does. The other pairs (d = 0 among them; all of them for a small min
    T) are direct: packed j < k per operator, with :func:`_horizon_kernels` at
    every horizon. Each value is Re(c (tr Q + 2 sum_{j<k} Q K + (-i/T) z)).

    Returns one (report, {key: average}) pair per horizon, in order.
    """
    if any(t <= 0 for t in horizons):
        raise ValueError("horizon must be > 0")
    observables = {key: x.with_matrix(opalg.hermitian_matrix(x, f"observable {key!r}"))
                   for key, x in ({} if observables is None else observables).items()}
    plan = make_plan(vols)
    reservoirs = sorted(vols.currents)
    operators = [vols.currents[a] for a in reservoirs] + list(observables.values())
    real = not any(np.iscomplexobj(s.basis) for s in plan.sectors)
    coefs = [-1j if real and np.iscomplexobj(x.matrix) and not np.any(x.matrix.real) else 1.0
             for x in operators] + [1j]   # G last, contracted as delta(G)
    operators = [x.with_matrix(np.ascontiguousarray(x.matrix.imag)) if c == -1j else x
                 for x, c in zip(operators, coefs)]
    factors, scale = _gibbs_factors(vols)
    g_blocks = list(vols.blocks.values())
    g = len(operators)
    cut = opalg.SEPARABLE_PHASE_TOL / min(horizons, default=1.0)  # no horizon: no report
    # per operator, G last: tr Q, z per horizon, packed direct Q
    diag = np.zeros(g + 1, complex)
    separable = np.zeros((g + 1, len(horizons)), complex)
    direct, freq = [[] for _ in range(g + 1)], []
    for sector in plan.sectors:
        v, w = sector.basis, sector.eigenvalues
        size, dim = w.size, vols.dim
        rows = sector.indices if size < dim else slice(None)
        phases = np.exp(1j * np.multiply.outer(w - 0.5 * (w[0] + w[-1]), horizons))

        def image(terms: list[list[DenseOperator]]) -> np.ndarray:
            """(sum over ``terms`` of the tensor product of each one's factors) V on
            the sector's rows: one panel of basis columns at a time, each written
            into the volume's basis (zero outside the sector's rows), except for
            one term on a one-sector volume, which has nothing to pad or sum."""
            if size == dim and len(terms) == 1:
                y = opalg.kron_apply(terms[0], vols.sites, vols.dims, v)
                return y.copy() if y is v else y   # contract overwrites it
            out = np.zeros((size, size), np.result_type(v, *(f.matrix for t in terms for f in t)))
            for lo in range(0, size, _BLOCK):
                cols = slice(lo, lo + _BLOCK)
                panel = np.zeros((dim, min(_BLOCK, size - lo)), v.dtype)
                panel[rows] = v[:, cols]
                for t in terms:
                    out[:, cols] += opalg.kron_apply(t, vols.sites, vols.dims, panel)[rows]
            return out

        # per row block from its first column on: 1/d (0 if direct, None if all are), direct j < k
        blocks = []
        for lo in range(0, size, _BLOCK):
            bohr = w[None, lo:] - w[lo:lo + _BLOCK, None]
            far = np.abs(bohr) >= cut
            upper = np.flatnonzero(np.triu(~far, 1)).astype(np.int32)
            freq.append(bohr.ravel()[upper])
            blocks.append((lo, np.divide(1.0, bohr, out=np.zeros(bohr.shape), where=far)
                           if far.any() else None, upper))

        def contract(y: np.ndarray, k: int) -> None:
            """The sums of Q = s * conj(V^dagger Y), times d for G, into row k,
            block by block; y is overwritten."""
            for (lo, inv, upper), s, q in zip(blocks, sigma_t, opalg.upper_blocks(v, y, _BLOCK)):
                q = np.conjugate(q, out=q)
                q *= s
                if k == g:
                    q *= w[None, lo:] - w[lo:lo + _BLOCK, None]
                diag[k] += np.trace(q)
                direct[k].append(q.ravel()[upper])
                if inv is None:
                    continue
                q *= inv
                q[:, _BLOCK:] *= 2.0   # right of the diagonal block: pairs k > j stand for j < k
                z = np.einsum("jt,jt->t", phases[lo:lo + _BLOCK].conj(),
                              opalg.matmul(q, phases[lo:]))
                z -= q.sum()
                separable[k] += z

        sigma_t = [b * scale for b in opalg.upper_blocks(v, image([factors]), _BLOCK)]
        # one at a time; an observable's blocks between sectors meet zero blocks of sigma_t
        for k, x in enumerate(operators):
            contract(image([[x]]), k)
        contract(image([[b] for b in g_blocks]), g)   # G V without the constant log Z
        del sigma_t, blocks
    freq = np.concatenate(freq)
    for k in range(g + 1):   # one operator at a time, its parts freed as packed
        direct[k] = np.concatenate(direct[k])

    perturbed = any(np.any(b.matrix) for b in vols.B_a.values())
    out = []
    for n, horizon in enumerate(horizons):
        kernel = _horizon_kernels(0.5 * horizon * freq).reshape(-1, 1)
        *values, e_tel = [
            float((c * (diag[k] + 2.0 * opalg.matmul(q[None], kernel)[0, 0]
                        - 1j * (separable[k, n] / horizon))).real)
            for k, (c, q) in enumerate(zip(coefs, direct))]
        del kernel   # freed before the next horizon's is made
        fluxes = dict(zip(reservoirs, values))
        averages = dict(zip(observables, values[len(reservoirs):]))
        report = EntropyReport(
            horizon=float(horizon),
            fluxes=fluxes,
            e=float(sum(vols.betas[a] * f for a, f in fluxes.items())),
            e_telescoped=e_tel,
            sum_rule_residual=float(sum(fluxes.values())),
            tol_sum_rule=float(2.0 * vols.w_norm / horizon),
            g_norm=float(vols.g_norm),
            w_norm=float(vols.w_norm),
            perturbed=perturbed,
        )
        out.append((report, averages))
    return out


@dataclass(frozen=True)
class HeatDirectionReport:
    """Two-reservoir check that heat flows from hot to cold."""

    horizon: float
    flux_into_first: float
    lhs: float
    ok: bool


def heat_direction_check(vols: VolumeOperators, horizon: float) -> HeatDirectionReport:
    """Check (beta_1 - beta_2) * flux_1 >= -beta_2 * 2||W||/T - HEAT_DIRECTION_SLACK.

    The inequality combines the nonnegativity of the entropy production
    with the sum-rule slack; it forces energy into the colder reservoir up
    to a horizon-decaying tolerance. Requires exactly two reservoirs.
    """
    reservoirs = vols.reservoirs
    if len(reservoirs) != 2:
        raise ValueError(f"heat direction check needs exactly 2 reservoirs, got {len(reservoirs)}")
    ((report, _),) = horizon_reports(vols, (horizon,))
    a1, a2 = reservoirs
    b1, b2 = vols.betas[a1], vols.betas[a2]
    lhs = (b1 - b2) * report.fluxes[a1]
    slack = b2 * report.tol_sum_rule + opalg.HEAT_DIRECTION_SLACK
    return HeatDirectionReport(
        horizon=float(horizon), flux_into_first=report.fluxes[a1], lhs=float(lhs),
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
    # of the redrawn decomposition only its currents are kept, not its generator
    currents = build(new_spec, volume).currents

    moved = [(vols.betas[a], t) for a in vols.reservoirs for t in spec.terms
             if set(t.support) <= spec.regions.sites_in(a) & set(vols.sites)
             and not set(t.support) <= new_spec.regions.sites_in(a)]
    support = tuple(sorted(set().union(*(t.support for _, t in moved))))
    dims = spec.dims_for(support)
    shift = sum((beta * opalg.embed(spec.term_operator(t), support, dims) for beta, t in moved),
                opalg.zero(support, dims))
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
