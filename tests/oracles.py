"""Full-dimension reference routes for values the library takes shortcuts to.

The library gets log Z and the norms of G and W from the per-reservoir
blocks and the interface terms, keeps each current on the sites of the
interface and of the reservoir terms that meet it, plans only a build's
sector blocks, and contracts every horizon in the
eigenbasis of H_B by separable phases. The routes here work on the
whole volume instead: they lift H_a, B_a, W and the currents to the volume,
diagonalize the D x D weighted reservoir sum, G and W, commute H with H_a
and H_B with G, and evolve G to the horizon endpoint, so each production
value has an independent check. The averaging kernel is also kept in the
complex form the library used before, and e_telescoped, which the library
takes as e plus the average of the local perturbation current, in G's own
forms: delta(G) on the volume, G evolved to the endpoint, and G's rotated
weights times the endpoint factor e^{ix} - 1. The horizon contraction is
kept in its packed per-pair form: one sine and one cosine per Bohr
frequency and horizon, the reference for the separable phases.

For the dynamics it holds the Heisenberg evolution through the matrix
exponential and the derivation powers iterated in complex arithmetic, so the
real-arithmetic routes of the library have a reference that never takes them.

It also holds the zero operator that sums of lifted operators start from,
the functional calculus phi(A) of a Hermitian matrix and the evolution plan
of a raw Hermitian matrix as one sector, which the tests use and the
library does not, and the independent constructions
the library no longer carries: the initial state as a D x D matrix, both
from the library's Gibbs factors and as an explicit product of per-reservoir
Gibbs blocks, the time-averaged state, the interface part by the weighted
per-site formula, and the horizon average by composite Simpson quadrature
of the exact evolution.
"""

import functools

import numpy as np
from scipy.linalg import expm
from scipy.special import logsumexp

from nesslab import embed, exact_evolve, gibbs, make_plan, op_norm, spectral
from nesslab.dynamics import EvolutionPlan, Sector
from nesslab import opalg
from nesslab.opalg import DenseOperator, matmul
from nesslab.thermo import EntropyReport, _gibbs_factors, _horizon_kernels

from conftest import dense_generator, one_sector


def zero(sites, dims) -> DenseOperator:
    """The zero operator on ``sites``, a start for sums of lifted operators."""
    dim = int(np.prod(dims))
    return DenseOperator(tuple(sites), tuple(dims), np.zeros((dim, dim)))


def dense_plan(h: DenseOperator) -> EvolutionPlan:
    """The evolution plan of a raw Hermitian matrix ``h``, as one sector."""
    return EvolutionPlan(h.sites, h.dims, (Sector(np.arange(h.dim), *spectral(h)),))


def apply_function(a, phi):
    """phi(A) for Hermitian A via the spectral decomposition.

    Exceptions raised by ``phi`` at an eigenvalue propagate to the caller.
    """
    w, v = spectral(a)
    vals = np.array([phi(float(x)) for x in w])
    mat = matmul(v * vals, v.conj().T)
    if isinstance(a, DenseOperator):
        return a.with_matrix(mat)
    return mat


def hamiltonian(vols):
    """The volume Hamiltonian H = H_B - sum_a B_a; exactly H_B when unperturbed."""
    h = dense_generator(vols)
    for a in vols.reservoirs:
        h = h - embed(vols.B_a[a], vols.sites, vols.dims)
    return h


def weighted_reservoir_sum(vols) -> np.ndarray:
    """sum_a beta_a (H_a + B_a) on the whole volume."""
    total = np.zeros((vols.dim, vols.dim), dtype=complex)
    for a in vols.reservoirs:
        for op in (vols.H_a[a], vols.B_a[a]):   # each on its own sites
            total += vols.betas[a] * embed(op, vols.sites, vols.dims).matrix
    return total


def log_partition(vols) -> float:
    """log tr exp(-sum_a beta_a (H_a + B_a)) from the D x D spectrum."""
    return float(logsumexp(-np.linalg.eigvalsh(weighted_reservoir_sum(vols))))


def exponent(vols) -> np.ndarray:
    """G = sum_a beta_a (H_a + B_a) + log Z."""
    return weighted_reservoir_sum(vols) + log_partition(vols) * np.eye(vols.dim)


def initial_density(vols) -> np.ndarray:
    """exp(-G) through the eigendecomposition of the D x D exponent."""
    w, v = np.linalg.eigh(exponent(vols))
    density = (v * np.exp(-w)) @ v.conj().T
    return density / np.real(np.trace(density))


def g_norm(vols) -> float:
    return op_norm(exponent(vols))


def w_norm(vols) -> float:
    """||H - sum_a H_a|| on the whole volume."""
    w_op = hamiltonian(vols)
    for a in vols.reservoirs:
        w_op = w_op - embed(vols.H_a[a], vols.sites, vols.dims)
    return op_norm(w_op)


def currents(vols) -> dict:
    """i[H, H_a] on the whole volume, for each reservoir."""
    h = hamiltonian(vols).matrix
    out = {}
    for a in vols.reservoirs:
        h_a = embed(vols.H_a[a], vols.sites, vols.dims).matrix
        out[a] = 1j * (h @ h_a - h_a @ h)
    return out


def delta_exponent(vols) -> np.ndarray:
    """delta(G) = i[H_B, G] on the whole volume, from the D x D generator and exponent."""
    h_b, g = dense_generator(vols).matrix, exponent(vols)
    return 1j * (h_b @ g - g @ h_b)


def exponent_operator(vols) -> DenseOperator:
    """:func:`exponent` as an operator on the volume."""
    return DenseOperator(vols.sites, vols.dims, exponent(vols))


def expectation(rho, a) -> float:
    """tr(rho A) of a density matrix and an observable on one volume, as an entrywise sum."""
    return float(np.real(np.sum(rho.matrix.T * a.matrix)))


def initial_state(vols) -> DenseOperator:
    """The product state exp(-G) as a D x D matrix: the tensor product of the
    Gibbs states of the reservoir blocks beta_a (H_a + B_a), each on its
    reservoir's in-volume sites, and the normalized identity on the other
    sites, applied to the identity of the volume."""
    factors, scale = _gibbs_factors(vols)
    density = opalg.kron_apply(factors, vols.sites, vols.dims, np.eye(vols.dim)) * scale
    return DenseOperator(vols.sites, vols.dims, density)


def time_averaged_state(plan, state, horizon: float) -> DenseOperator:
    """The horizon average of the evolved state, exact in the horizon.

    Averaging the dual evolution over [0, T] multiplies the density matrix
    entrywise, in the generator eigenbasis, by the averaging kernel of the
    Bohr frequencies w_k - w_j. The plan's sector bases are set into one
    D x D unitary V, and the state is rotated by it densely with numpy. The
    result is again a state (a convex average of states).
    """
    if horizon <= 0:
        raise ValueError("horizon must be > 0")
    v = np.zeros((state.dim, state.dim), dtype=complex)
    start = 0
    for s in plan.sectors:
        v[s.indices, start:start + s.indices.size] = s.basis
        start += s.indices.size
    w = np.concatenate([s.eigenvalues for s in plan.sectors])
    rotated = v.conj().T @ state.matrix @ v
    rotated *= _horizon_kernels(0.5 * horizon * (w[None, :] - w[:, None]))
    averaged = v @ rotated @ v.conj().T
    return state.with_matrix(0.5 * (averaged + averaged.conj().T))


def horizon_values(vols, plan, sigma, horizon: float) -> tuple[dict, float]:
    """Fluxes from the averaged state and e_telescoped from the evolved G.

    The fluxes are expectations of the currents, lifted to the volume, in
    the D x D time-averaged state; e_telescoped is (<G(T)> - <G>) / T with
    G the full-D :func:`exponent` and G(T) its exact Heisenberg evolution.
    """
    averaged = time_averaged_state(plan, sigma, horizon)
    fluxes = {a: expectation(averaged, embed(cur, vols.sites, vols.dims))
              for a, cur in sorted(vols.currents.items())}
    g = exponent_operator(vols)
    g_end = exact_evolve(plan, g, horizon)
    e_tel = (expectation(sigma, g_end) - expectation(sigma, g)) / horizon
    return fluxes, e_tel


def packed_horizon_reports(vols, horizons, plan, observables=None) -> list:
    """:func:`nesslab.horizon_reports` by per-pair kernels at every horizon.

    Each operator is rotated into the plan's sector eigenbases as the
    library does it; its weights P_jk = s_jk x_kj are kept as the diagonal
    sum plus the packed complex strict upper triangle, and every horizon
    evaluates :func:`_horizon_kernels` at every Bohr frequency of a sector.
    e_telescoped is G's weights in the endpoint form (1/T) Re sum_jk P^G_jk
    (e^{i T d_jk} - 1), by :func:`endpoint_factor`, not as the library's e
    plus the average of the perturbation current: G is rotated here, and
    never in the library.
    """
    observables = {key: x.with_matrix(opalg.hermitian_matrix(x))
                   for key, x in (observables or {}).items()}
    reservoirs = sorted(vols.currents)
    operators = [vols.currents[a] for a in reservoirs] + list(observables.values())
    factors, scale = _gibbs_factors(vols)
    diag = np.zeros(len(operators))
    half_freq, rows, g_rows = [], [[] for _ in operators], []
    for sector in plan.sectors:
        v, w, size = sector.basis, sector.eigenvalues, sector.indices.size
        upper = np.triu(np.ones((size, size), dtype=bool), k=1)
        half_freq.append(0.5 * (w[None, :] - w[:, None])[upper])
        columns = np.zeros((vols.dim, size), dtype=v.dtype)
        columns[sector.indices] = v

        def rotated(factor_list, scale=1.0):
            x_v = opalg.kron_apply(factor_list, vols.sites, vols.dims, columns) * scale
            return v.conj().T @ x_v[sector.indices]

        sigma_t = rotated(factors, scale)

        def weight(x_t):
            return (np.real(np.dot(np.diagonal(sigma_t), np.diagonal(x_t))),
                    sigma_t[upper] * x_t.T[upper])

        for k, x in enumerate(operators):
            d, row = weight(rotated([x]))
            diag[k] += d
            rows[k].append(row)
        g_t = functools.reduce(np.add, (rotated([b]) for b in vols.blocks.values()))
        g_rows.append(weight(g_t)[1])
    half_freq = np.concatenate(half_freq)
    rows = [np.concatenate(r) for r in rows]
    g_row = np.concatenate(g_rows)
    out = []
    for horizon in horizons:
        kernel = _horizon_kernels(horizon * half_freq)
        values = [d + 2.0 * np.real(row @ kernel) for d, row in zip(diag, rows)]
        fluxes = dict(zip(reservoirs, values))
        endpoint = endpoint_factor(2.0 * horizon * half_freq)
        report = EntropyReport(
            horizon=float(horizon), fluxes=fluxes,
            e=float(sum(vols.betas[a] * f for a, f in fluxes.items())),
            e_telescoped=2.0 * float(np.real(g_row @ endpoint)) / horizon,
            sum_rule_residual=float(sum(fluxes.values())),
            tol_sum_rule=float(2.0 * vols.w_norm / horizon))
        out.append((report, dict(zip(observables, values[len(reservoirs):]))))
    return out


def averaging_kernel(x):
    """K(x) = (e^{ix} - 1)/(ix) as e^{ix/2} sinc(x/2), in complex arithmetic."""
    x = np.asarray(x, dtype=float)
    return np.exp(0.5j * x) * np.sinc(x / (2.0 * np.pi))


def endpoint_factor(x):
    """e^{ix} - 1 through the complex expm1."""
    return np.expm1(1j * np.asarray(x, dtype=float))


def product_initial_state(spec, volume, perturbation=None) -> DenseOperator:
    """The initial state as an explicit product of per-reservoir Gibbs blocks
    and the normalized trace on the remaining sites."""
    sites = tuple(sorted(set(volume)))
    dims = spec.dims_for(sites)
    density = np.eye(int(np.prod(dims)), dtype=complex)
    for a in spec.reservoirs:
        block_sites = tuple(sorted(spec.sites_in(a) & set(sites)))
        if not block_sites:
            continue
        block_dims = spec.dims_for(block_sites)
        block = zero(block_sites, block_dims)
        for term in spec.terms:
            if set(term.support) <= set(block_sites):
                block = block + embed(spec.term_operator(term), block_sites, block_dims)
        for term in (perturbation.terms_for(sites) if perturbation else ()):
            if set(term.support) <= set(block_sites):
                block = block + embed(spec.term_operator(term), block_sites, block_dims)
        rho_a = gibbs(block, spec.betas[a])
        lifted = embed(rho_a, sites, dims)
        density = density @ lifted.matrix
    covered = frozenset().union(*(spec.sites_in(a) for a in spec.reservoirs)) & set(sites)
    rest_dim = int(np.prod([d for s, d in zip(sites, dims) if s not in covered])) or 1
    density /= rest_dim
    return DenseOperator(sites, dims, density)


def interface_operator(spec, volume) -> DenseOperator:
    """The interface part via the weighted per-site formula.

    Sums, over small-system sites x and in-volume terms containing x, the
    term weighted by one over the number of small-system sites it touches;
    the weights telescope so each term meeting the small system is counted
    exactly once. Must agree with build's ``W`` lifted to the volume.
    """
    sites = tuple(sorted(set(volume)))
    if not spec.small_system <= set(sites):
        raise ValueError("volume must contain the small system")
    dims = spec.dims_for(sites)
    acc = zero(sites, dims)
    for x in sorted(spec.small_system):
        for term in spec.terms:
            if x in term.support and set(term.support) <= set(sites):
                weight = 1.0 / len(set(term.support) & spec.small_system)
                acc = acc + weight * embed(spec.term_operator(term), sites, dims)
    return acc


def time_avg_expectation_quadrature(vols, state, a, horizon: float, panels: int = 128,
                                    plan=None) -> float:
    """Composite-Simpson average of the evolved expectation of ``a`` over [0, T]."""
    if plan is None:
        plan = make_plan(one_sector(vols))
    ts = np.linspace(0.0, horizon, 2 * panels + 1)
    vals = np.array([expectation(state, exact_evolve(plan, a, float(t))) for t in ts])
    h = horizon / (2 * panels)
    integral = (h / 3.0) * (vals[0] + vals[-1] + 4.0 * vals[1:-1:2].sum()
                            + 2.0 * vals[2:-2:2].sum())
    return float(integral / horizon)


def heisenberg(h: DenseOperator, a: DenseOperator, t: float) -> np.ndarray:
    """exp(i t H) a exp(-i t H) through the matrix exponential, in complex arithmetic."""
    u = expm(1j * t * h.matrix.astype(complex))
    return u @ a.matrix.astype(complex) @ u.conj().T


def derivation_powers(h: DenseOperator, a: DenseOperator, order: int) -> list:
    """[delta(a), ..., delta^order(a)] for delta = i[H, .], iterated in complex arithmetic."""
    hm = h.matrix.astype(complex)
    x = a.matrix.astype(complex)
    out = []
    for _ in range(order):
        x = 1j * (hm @ x - x @ hm)
        out.append(x)
    return out
