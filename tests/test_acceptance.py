"""Acceptance suite: one test per release criterion, printed pass lines.

Criteria 1, 3, 4, 5 and 10 share one randomized batch of models (mixed
local dimensions, two or three reservoirs, with and without reservoir
perturbations) built once per test session from a fixed seed; the
remaining criteria run on frozen experiment configurations.
"""

import math
import time

import numpy as np
import pytest

from nesslab import (
    DenseOperator,
    InteractionTerm,
    ModelSpec,
    boundary_redraw_check,
    build,
    dyson_evolve,
    embed,
    exact_evolve,
    heat_direction_check,
    horizon_reports,
    kms_check,
    lambda_norm,
    make_plan,
    op_norm,
    series_radius,
    validate,
)
from nesslab.cli import run_klein_fuzz
from nesslab.dynamics import derivation_growth_bound
from nesslab.model import PerturbationFamily, interaction_lambda_norm

import oracles
from conftest import derivation, make_chain, one_sector, random_hermitian

HORIZONS = (1.0, 5.0, 20.0, 100.0)
BATCH_SEED = 20260808
RANDOM_MODELS = 19  # plus one deterministic 10-qubit model
SMALL_DIM_BUDGET = 576


def scaled_hermitian(rng, n, target):
    mat = random_hermitian(rng, n)
    return mat * (target / op_norm(mat))


def random_model(rng, n_reservoirs):
    """A random valid model: every reservoir is wired through the small system."""
    n_sites = int(rng.integers(n_reservoirs + 1, 10))
    dims = [int(d) for d in rng.choice([2, 3], size=n_sites, p=[0.75, 0.25])]
    while int(np.prod(dims)) > SMALL_DIM_BUDGET and 3 in dims:
        dims[dims.index(3)] = 2

    perm = [int(x) for x in rng.permutation(n_sites)]
    s_size = 1 if n_sites < 5 else int(rng.integers(1, 3))
    s_sites = perm[:s_size]
    rest = perm[s_size:]
    assignment = {x: 0 for x in s_sites}
    for k in range(n_reservoirs):
        assignment[rest[k]] = k + 1
    for x in rest[n_reservoirs:]:
        assignment[x] = int(rng.integers(1, n_reservoirs + 1))

    def dim_of(i):
        return dims[i]

    terms = []
    for i in range(n_sites):
        if rng.random() < 0.8:
            terms.append(InteractionTerm((i,), scaled_hermitian(
                rng, dim_of(i), float(rng.uniform(0.2, 0.8)))))
    for a in range(1, n_reservoirs + 1):
        s = int(rng.choice(s_sites))
        r = int(rng.choice(sorted(x for x, g in assignment.items() if g == a)))
        pair = tuple(sorted((s, r)))
        terms.append(InteractionTerm(pair, scaled_hermitian(
            rng, dim_of(pair[0]) * dim_of(pair[1]), float(rng.uniform(0.4, 1.0)))))
    for _ in range(int(rng.integers(0, n_sites))):
        i, j = (int(x) for x in rng.choice(n_sites, size=2, replace=False))
        same_region = assignment[i] == assignment[j]
        if not (same_region or assignment[i] == 0 or assignment[j] == 0):
            continue
        pair = tuple(sorted((i, j)))
        terms.append(InteractionTerm(pair, scaled_hermitian(
            rng, dim_of(pair[0]) * dim_of(pair[1]), float(rng.uniform(0.2, 0.7)))))

    lam = float(rng.uniform(0.3, 1.0))
    if n_reservoirs == 2:
        beta_cold = float(rng.uniform(0.4, 1.2))
        betas = {1: beta_cold + float(rng.uniform(0.3, 1.5)), 2: beta_cold}
    else:
        betas = {a: float(rng.uniform(0.4, 2.5)) for a in range(1, n_reservoirs + 1)}
    spec = ModelSpec({i: dims[i] for i in range(n_sites)},
                     assignment, tuple(terms), lam, betas)
    assert validate(spec) == ()
    return spec


def random_family(rng, spec):
    """One or two extra terms buried inside the reservoirs, for all sites."""
    terms = []
    for _ in range(int(rng.integers(1, 3))):
        a = int(rng.choice(spec.reservoirs))
        inside = sorted(spec.sites_in(a))
        site = int(rng.choice(inside))
        d = spec.sites[site]
        terms.append(InteractionTerm((site,), scaled_hermitian(
            rng, d, float(rng.uniform(0.2, 0.6)))))
    bound = interaction_lambda_norm(tuple(terms), spec.lam, spec.site_ids)
    family = PerturbationFamily(
        ((frozenset(spec.site_ids), tuple(terms)),), bound_K=bound)
    assert not family.check(spec)
    return family


def big_qubit_chain():
    assignment = {i: 1 for i in range(4)}
    assignment.update({4: 0, 5: 0})
    assignment.update({i: 2 for i in range(6, 10)})
    return make_chain(10, assignment, {1: 2.0, 2: 1.0}, coup=0.7)


class ModelRun:
    def __init__(self, spec, family):
        self.spec = spec
        self.family = family
        self.vols = one_sector(build(spec, spec.site_ids, family))
        self.reports = {t: report for t, (report, _)
                        in zip(HORIZONS, horizon_reports(self.vols, HORIZONS))}


@pytest.fixture(scope="module")
def batch():
    rng = np.random.default_rng(BATCH_SEED)
    runs = []
    start = time.monotonic()
    for i in range(RANDOM_MODELS):
        spec = random_model(rng, n_reservoirs=2 if i % 2 == 0 else 3)
        family = random_family(rng, spec) if i % 2 == 1 else None
        runs.append(ModelRun(spec, family))
    runs.append(ModelRun(big_qubit_chain(), None))
    elapsed = time.monotonic() - start
    return {"runs": runs, "elapsed": elapsed}


def test_criterion_01_exact_nonnegativity(batch):
    runs = batch["runs"]
    assert len(runs) >= 20
    assert any(r.family is not None for r in runs)
    assert any(r.family is None for r in runs)
    assert any(3 in r.vols.dims for r in runs)
    assert any(len(r.spec.reservoirs) == 3 for r in runs)
    assert max(r.vols.dim for r in runs) == 1024
    worst = math.inf
    for run in runs:
        assert run.vols.dim <= 1024
        for report in run.reports.values():
            margin = report.e_telescoped + 1e-10 * run.vols.g_norm
            assert margin >= 0.0
            worst = min(worst, report.e_telescoped)
    assert batch["elapsed"] <= 60.0
    print(f"[criterion 01] PASS: e_telescoped >= -1e-10*||G|| on {len(runs)} models "
          f"x {len(HORIZONS)} horizons (min e_tel {worst:.3e}, "
          f"batch {batch['elapsed']:.1f}s)")


def test_criterion_02_klein_fuzz():
    report = run_klein_fuzz(trials=1000, max_dim=8, seed=BATCH_SEED)
    assert report["passes"] == report["trials"] == 1000
    assert report["max_row_sum_deviation"] <= 1e-10
    assert report["max_col_sum_deviation"] <= 1e-10
    print(f"[criterion 02] PASS: 1000/1000 trials, max violation "
          f"{report['max_violation']:.3e}, max row/col deviation "
          f"{max(report['max_row_sum_deviation'], report['max_col_sum_deviation']):.3e}")


def test_criterion_03_telescoping_identity(batch):
    # the library's e_telescoped, e plus the perturbation current's average, against
    # the endpoint form (1/T)(<G(T)> - <G>) of the oracle, from G's own weights
    worst = 0.0
    checked = 0
    for run in batch["runs"]:
        endpoint = oracles.packed_horizon_reports(run.vols, HORIZONS, make_plan(run.vols))
        for (horizon, report), (ref, _) in zip(run.reports.items(), endpoint):
            assert ref.horizon == horizon
            gap = abs(report.e_telescoped - ref.e_telescoped)
            assert gap <= 1e-8 * max(1.0, abs(report.e))
            worst = max(worst, gap)
            checked += 1
    assert checked == len(batch["runs"]) * len(HORIZONS)
    print(f"[criterion 03] PASS: flux route vs endpoint route within "
          f"1e-8*max(1,|e|) on {checked} points (max gap {worst:.3e})")


def test_criterion_04_sum_rule(batch):
    checked = 0
    for run in batch["runs"]:
        if run.family is not None:
            continue
        for report in run.reports.values():
            assert abs(report.sum_rule_residual) <= report.tol_sum_rule + 1e-10
            checked += 1
    doubled = 0
    for run in batch["runs"][:4]:
        if run.family is not None:
            continue
        (shorter, _), (longer, _) = horizon_reports(run.vols, (10.0, 20.0))
        assert longer.tol_sum_rule == pytest.approx(shorter.tol_sum_rule / 2.0, rel=1e-12)
        assert abs(shorter.sum_rule_residual) <= shorter.tol_sum_rule + 1e-10
        assert abs(longer.sum_rule_residual) <= longer.tol_sum_rule + 1e-10
        doubled += 1
    assert doubled > 0
    print(f"[criterion 04] PASS: |sum of fluxes| <= 2||W||/T + 1e-10 on {checked} "
          f"points; doubling T halves the bound on {doubled} models")


def test_criterion_05_hot_to_cold(batch):
    checked = 0
    for run in batch["runs"]:
        if run.family is not None or len(run.spec.reservoirs) != 2:
            continue
        a1, a2 = run.spec.reservoirs
        b1, b2 = run.spec.betas[a1], run.spec.betas[a2]
        assert b1 > b2
        for report in run.reports.values():
            lhs = (b1 - b2) * report.fluxes[a1]
            assert lhs >= -b2 * report.tol_sum_rule - 1e-10
            checked += 1
        direction = heat_direction_check(run.reports[20.0], run.vols.betas)
        assert direction.ok
    assert checked > 0
    print(f"[criterion 05] PASS: (b1-b2)*flux_1 >= -b2*2||W||/T - 1e-10 on "
          f"{checked} two-reservoir points")


def test_criterion_06_equal_temperature_decay():
    spec = make_chain(4, {0: 1, 1: 0, 2: 0, 3: 2}, {1: 1.0, 2: 1.0},
                      coup=0.8075, field=0.2753, anis=0.2166)
    vols = one_sector(build(spec, range(4)))
    values = {rep.horizon: rep.e_telescoped
              for rep, _ in horizon_reports(vols, (5.0, 10.0, 20.0, 40.0, 80.0))}
    for t in (5.0, 10.0, 20.0, 40.0):
        decayed = abs(values[2 * t]) <= 0.67 * abs(values[t])
        negligible = abs(values[t]) < 1e-9 and abs(values[2 * t]) < 1e-9
        assert decayed or negligible
    print(f"[criterion 06] PASS: equal-temperature |e| decays like 1/T over "
          f"T in (5,10,20,40): {[f'{values[t]:.2e}' for t in (5.0,10.0,20.0,40.0,80.0)]}")


def test_criterion_07_dyson_validity(standard_chain):
    family = PerturbationFamily(
        ((frozenset({0, 1, 2}),
          (InteractionTerm((0,), 0.3 * np.array([[0, 1], [1, 0]], dtype=complex)),)),),
        bound_K=0.3)
    for fam in (None, family):
        radius = series_radius(standard_chain, fam)
        vols = build(standard_chain, (0, 1, 2), fam)
        plan = make_plan(vols)
        # a on its own site, so card X = 1 in the bound
        a = DenseOperator((1,), (2,), np.array([[0, 1], [1, 0]], dtype=complex))
        a_vol = embed(a, vols.sites, vols.dims)
        for frac in (-0.5, -0.25, 0.1, 0.25, 0.5):
            t = frac * radius
            approx, bound = dyson_evolve(standard_chain, vols.sites, a, t, perturbation=fam)
            exact = exact_evolve(plan, a_vol, t)
            assert op_norm(approx - exact) <= bound

    a = DenseOperator((1,), (2,), np.array([[0, 1], [1, 0]], dtype=complex))
    current = a
    for m in range(1, 7):
        current = derivation(standard_chain, (0, 1, 2), current)
        assert op_norm(current) <= derivation_growth_bound(standard_chain, a, m) + 1e-12
    print("[criterion 07] PASS: order-12 series within its reported bound for "
          "|t| <= 0.5*radius (with and without perturbation); growth bound holds "
          "through order 6")


def test_criterion_08_kms_residual():
    rng = np.random.default_rng(BATCH_SEED + 8)
    worst = 0.0
    for _ in range(100):
        n = int(rng.choice([2, 4, 8]))
        h = DenseOperator((0,), (n,), scaled_hermitian(rng, n, float(rng.uniform(0.5, 2.0))))
        beta = float(rng.uniform(0.1, 2.0))
        a = DenseOperator((0,), (n,),
                          rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        b = DenseOperator((0,), (n,),
                          rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        residual = kms_check(h, beta, a, b)
        scaled = residual / (op_norm(a) * op_norm(b))
        worst = max(worst, scaled)
        assert scaled <= 1e-8
    print(f"[criterion 08] PASS: equilibrium residual <= 1e-8*||A||*||B|| on 100 "
          f"triples up to 3 qubits (max scaled residual {worst:.3e})")


def test_criterion_09_boundary_redraw():
    spec = make_chain(5, {0: 1, 1: 1, 2: 0, 3: 2, 4: 2}, {1: 2.0, 2: 1.0},
                      coup=0.5493, field=0.2908, anis=0.3793)
    horizon = 25.0
    first, second = boundary_redraw_check(spec, {1, 2, 3}, range(5),
                                          (horizon, 2 * horizon))
    assert first.ok and second.ok
    factor = first.difference / second.difference
    assert 1.5 <= factor <= 3.0
    print(f"[criterion 09] PASS: redraw difference shrinks by {factor:.2f} "
          f"(in [1.5, 3]) when the horizon doubles")


def test_criterion_10_current_norm_bound(batch, standard_chain):
    checked = 0
    for run in batch["runs"]:
        spec = run.spec
        bound = (2.0 * len(spec.small_system) * math.exp(spec.lam)
                 * lambda_norm(spec) ** 2 / spec.lam)
        for current in run.vols.currents.values():
            assert op_norm(current) <= bound + 1e-12
            checked += 1
    from nesslab import current_bound_check
    report = current_bound_check(standard_chain, build(standard_chain, (0, 1, 2)))
    assert report.ok
    checked += len(report.norms)
    print(f"[criterion 10] PASS: ||i[H, H_a]|| within 2 card(S) e^lam ||Phi||^2/lam "
          f"on {checked} reservoir currents")
