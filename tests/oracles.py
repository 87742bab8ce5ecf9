"""Full-dimension reference routes for values the library takes shortcuts to.

The library gets the initial state, log Z and the norms of G and W from the
per-reservoir blocks and the interface terms, forms the currents on the
interface and reservoir supports, and contracts every horizon in the
eigenbasis of H_B. The routes here work on the whole volume instead: they
lift H_a, B_a and W to the volume, diagonalize the D x D weighted reservoir
sum, G and W, commute H with H_a, and evolve G to the horizon endpoint, so
each production value has an independent check.
"""

import numpy as np
from scipy.special import logsumexp

from nesslab import embed, exact_evolve, op_norm, time_averaged_state


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
