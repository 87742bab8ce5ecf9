"""Production values against the full-dimension routes of ``oracles``.

The cases cover both reservoirs inside the volume (with and without
reservoir perturbations), a model whose terms never meet the small system,
a volume missing one reservoir, the small system alone, two adjacent
reservoirs joined by a bond that does not touch the small system (so that
bond belongs to the interface part W), and a chain whose small system is its
end site, perturbed where W does not reach (so its current acts on three of
the five sites) or where it does (so e_telescoped is not e).
"""

import numpy as np
import pytest

from nesslab import InteractionTerm, build, embed, horizon_reports, make_plan
from nesslab.model import PerturbationFamily

import oracles
from oracles import initial_state
from conftest import SX, SZ, end_chain, make_chain, one_sector

HORIZONS = (0.5, 3.0, 40.0)
TOL = 1e-12


def _perturbation():
    entry = (frozenset(range(5)),
             (InteractionTerm((0, 1), 0.3 * np.kron(SX, SX)), InteractionTerm((4,), 0.25 * SZ)))
    return PerturbationFamily((entry,), bound_K=1.0)


def _end_perturbation():
    # on sites 3 and 4, which W on (0, 1) does not meet
    entry = (frozenset(range(5)),
             (InteractionTerm((3, 4), 0.3 * np.kron(SX, SX)), InteractionTerm((4,), 0.25 * SZ)))
    return PerturbationFamily((entry,), bound_K=1.0)


def _end_perturbation_at_w():
    # on site 1, which W on (0, 1) meets: sigma_z there does not commute with the bond
    entry = (frozenset(range(5)), (InteractionTerm((1,), 0.2 * SZ),))
    return PerturbationFamily((entry,), bound_K=1.0)


def _adjacent_reservoirs():
    # sites 0 | 1 are reservoirs 1 | 2; the bond (0, 1) misses S = {2}
    return make_chain(4, {0: 1, 1: 2, 2: 0, 3: 2}, {1: 2.0, 2: 1.0}, anis=0.3)


# (case id, spec fixture name or function, volume, perturbation function or None)
CASES = (
    ("chain5", "chain5", (0, 1, 2, 3, 4), None),
    ("chain5-perturbed", "chain5", (0, 1, 2, 3, 4), _perturbation),
    ("decoupled", "decoupled_model", (0, 1, 2), None),
    ("reservoir-2-outside", "chain5", (1, 2), None),
    ("small-system-only", "chain5", (2,), None),
    ("adjacent-reservoirs", _adjacent_reservoirs, (0, 1, 2, 3), None),
    ("end-S-perturbed", lambda: end_chain(5, anis=0.3), (0, 1, 2, 3, 4), _end_perturbation),
    ("end-S-perturbed-at-W", lambda: end_chain(5, anis=0.3), (0, 1, 2, 3, 4),
     _end_perturbation_at_w),
)


@pytest.fixture(params=CASES, ids=[case[0] for case in CASES])
def vols(request):
    _, spec, volume, perturbation = request.param
    spec = request.getfixturevalue(spec) if isinstance(spec, str) else spec()
    return build(spec, volume, perturbation and perturbation())


def test_initial_state_matches_full_exponential(vols):
    density = initial_state(vols).matrix
    assert np.max(np.abs(density - oracles.initial_density(vols))) <= TOL


def test_exponent_matches_full_spectrum(vols):
    # G is nonnegative, since exp(-G) has unit trace, and its largest eigenvalue is g_norm
    spectrum = np.linalg.eigvalsh(oracles.exponent(vols))
    assert spectrum[0] >= -TOL
    assert abs(vols.g_norm - spectrum[-1]) <= TOL


def test_norms_match_full_operators(vols):
    assert abs(vols.g_norm - oracles.g_norm(vols)) <= TOL
    assert abs(vols.w_norm - oracles.w_norm(vols)) <= TOL


def test_currents_match_full_commutators(vols):
    for a, cur in oracles.currents(vols).items():
        lifted = embed(vols.currents[a], vols.sites, vols.dims)
        assert np.max(np.abs(lifted.matrix - cur)) <= TOL


def test_currents_telescope_to_delta_g(vols):
    # delta(G) = sum_a beta_a currents[a] + the perturbation current, each lifted
    total = embed(vols.perturbation_current, vols.sites, vols.dims).matrix
    for a, cur in vols.currents.items():
        total = total + vols.betas[a] * embed(cur, vols.sites, vols.dims).matrix
    assert np.max(np.abs(total - oracles.delta_exponent(vols))) <= TOL


def test_horizon_contraction_matches_evolution(vols):
    plan = make_plan(one_sector(vols))
    sigma = initial_state(vols)
    reports = horizon_reports(one_sector(vols), HORIZONS)
    for horizon, (report, _) in zip(HORIZONS, reports):
        fluxes, e_tel = oracles.horizon_values(vols, plan, sigma, horizon)
        for a, flux in fluxes.items():
            assert abs(report.fluxes[a] - flux) <= TOL * (1.0 + abs(flux))
        assert abs(report.e_telescoped - e_tel) <= TOL * (1.0 + abs(e_tel))
