"""Full-dimension reference routes for values the library takes shortcuts to.

The library gets the initial state, log Z and the norms of G and W from the
per-reservoir blocks and the interface terms, forms the currents on the
interface and reservoir supports, and contracts every horizon in the
eigenbasis of H_B. The routes here work on the whole volume instead: they
lift H_a, B_a and W to the volume, diagonalize the D x D weighted reservoir
sum, G and W, commute H with H_a, and evolve G to the horizon endpoint, so
each production value has an independent check.

For the dynamics it holds the Heisenberg evolution through the matrix
exponential and the derivation powers iterated in complex arithmetic, so the
real-arithmetic routes of the library have a reference that never takes them.

It also holds the independent constructions the library no longer carries:
the initial state as an explicit product of per-reservoir Gibbs blocks, the
interface part by the weighted per-site formula, and the horizon average by
composite Simpson quadrature of the exact evolution.
"""

import numpy as np
from scipy.linalg import expm
from scipy.special import logsumexp

from nesslab import embed, exact_evolve, gibbs, make_plan, op_norm, time_averaged_state
from nesslab.opalg import DenseOperator, zero
from nesslab.thermo import StateRep


def hamiltonian(vols):
    """The volume Hamiltonian H = H_B - sum_a B_a; exactly H_B when unperturbed."""
    h = vols.H_B
    for a in vols.reservoirs:
        h = h - embed(vols.B_a[a], vols.sites, vols.dims)
    return h


def weighted_reservoir_sum(vols) -> np.ndarray:
    """sum_a beta_a (H_a + B_a) on the whole volume."""
    total = np.zeros((vols.dim, vols.dim), dtype=complex)
    for a in vols.reservoirs:
        total += vols.betas[a] * embed(vols.H_a[a] + vols.B_a[a], vols.sites, vols.dims).matrix
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


def horizon_values(vols, plan, sigma, horizon: float) -> tuple[dict, float]:
    """Fluxes from the averaged state and e_telescoped from the evolved G.

    The fluxes are expectations of the currents in the D x D time-averaged
    state; e_telescoped is (<G(T)> - <G>) / T with G(T) the exact
    Heisenberg evolution of G.
    """
    averaged = time_averaged_state(plan, sigma, horizon)
    fluxes = {a: averaged.expectation(cur) for a, cur in sorted(vols.currents.items())}
    g_end = exact_evolve(plan, vols.G, horizon)
    e_tel = (sigma.expectation(g_end) - sigma.expectation(vols.G)) / horizon
    return fluxes, e_tel


def product_initial_state(spec, volume, perturbation=None) -> StateRep:
    """The initial state as an explicit product of per-reservoir Gibbs blocks
    and the normalized trace on the remaining sites."""
    sites = tuple(sorted(set(volume)))
    dims = spec.dims_for(sites)
    density = np.eye(int(np.prod(dims)), dtype=complex)
    for a in spec.reservoirs:
        block_sites = tuple(sorted(spec.regions.sites_in(a) & set(sites)))
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
        lifted = embed(DenseOperator(block_sites, block_dims, rho_a.density), sites, dims)
        density = density @ lifted.matrix
    covered = frozenset().union(*(spec.regions.sites_in(a) for a in spec.reservoirs)) & set(sites)
    rest_dim = int(np.prod([d for s, d in zip(sites, dims) if s not in covered])) or 1
    density /= rest_dim
    return StateRep(sites, dims, density)


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
        plan = make_plan(vols.H_B)
    ts = np.linspace(0.0, horizon, 2 * panels + 1)
    vals = np.array([state.expectation(exact_evolve(plan, a, float(t))) for t in ts])
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
