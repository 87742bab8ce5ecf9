import math

import numpy as np
import pytest

from nesslab import (
    DenseOperator,
    DysonConfig,
    InteractionTerm,
    ModelSpec,
    RegionMap,
    SiteSpec,
    build,
    convergence_sweep,
    derivation,
    dyson_evolve,
    embed,
    exact_evolve,
    make_plan,
    op_norm,
    series_radius,
    spectral,
    unitary_conj,
)
from nesslab.dynamics import derivation_growth_bound
from nesslab.model import PerturbationEntry, PerturbationFamily
from nesslab.opalg import identity

import oracles
from conftest import SX, SY, SZ, make_chain, random_hermitian, random_unitary

OMEGA = 1.3


def qubit_model(omega=OMEGA):
    return ModelSpec((SiteSpec(0, 2),), RegionMap({0: 0}),
                     (InteractionTerm((0,), (omega / 2.0) * SZ),), 0.5, {})


def qubit_plan(omega=OMEGA):
    return make_plan(DenseOperator((0,), (2,), (omega / 2.0) * SZ))


class TestDerivation:
    def test_identity_maps_to_zero(self, standard_chain):
        one = identity((0, 1, 2), (2, 2, 2))
        out = derivation(standard_chain, (0, 1, 2), one)
        assert op_norm(out) == 0.0

    def test_hamiltonian_maps_to_zero(self, standard_chain):
        vols = build(standard_chain, (0, 1, 2))
        out = derivation(standard_chain, (0, 1, 2), oracles.hamiltonian(vols))
        assert op_norm(out) <= 1e-14

    def test_qubit_closed_form(self):
        # 2x2 oracle: i (omega/2) [sz, sx] = -omega sy
        a = DenseOperator((0,), (2,), SX)
        out = derivation(qubit_model(), (0,), a)
        np.testing.assert_allclose(out.matrix, -OMEGA * SY, atol=1e-14)

    def test_equals_full_commutator(self, chain5):
        vols = build(chain5, range(5))
        a = embed(DenseOperator((2,), (2,), SX), vols.sites, vols.dims)
        out = derivation(chain5, range(5), a)
        h = oracles.hamiltonian(vols).matrix
        expected = 1j * (h @ a.matrix - a.matrix @ h)
        assert np.max(np.abs(out.matrix - expected)) <= 1e-12

    def test_evolved_operator_uses_full_generator(self, chain5):
        # tau_t(a) spreads over the whole volume; its derivation must too
        vols = build(chain5, range(5))
        a = embed(DenseOperator((2,), (2,), SX), vols.sites, vols.dims)
        evolved = exact_evolve(make_plan(vols.H_B), a, 1.3)
        out = derivation(chain5, range(5), evolved)
        h = vols.H_B.matrix
        expected = 1j * (h @ evolved.matrix - evolved.matrix @ h)
        assert np.max(np.abs(out.matrix - expected)) <= 1e-12

    def test_conjugated_operator_uses_full_generator(self, chain5):
        vols = build(chain5, range(5))
        a = embed(DenseOperator((2,), (2,), SX), vols.sites, vols.dims)
        u = random_unitary(np.random.default_rng(5), vols.dim)
        conj = unitary_conj(u, a)
        out = derivation(chain5, range(5), conj)
        h = vols.H_B.matrix
        expected = 1j * (h @ conj.matrix - conj.matrix @ h)
        assert np.max(np.abs(out.matrix - expected)) <= 1e-12

    def test_support_outside_volume_rejected(self, chain5):
        a = DenseOperator((4,), (2,), SX)
        with pytest.raises(ValueError):
            derivation(chain5, (1, 2, 3), a)


class TestExactEvolve:
    def test_time_zero_is_identity_map(self):
        plan = qubit_plan()
        a = DenseOperator((0,), (2,), SX)
        np.testing.assert_allclose(exact_evolve(plan, a, 0.0).matrix, SX, atol=1e-15)

    def test_functions_of_generator_are_fixed(self):
        plan = qubit_plan()
        f_h = DenseOperator((0,), (2,), np.diag([2.0, -0.5]).astype(complex))
        out = exact_evolve(plan, f_h, 5.7)
        np.testing.assert_allclose(out.matrix, f_h.matrix, atol=1e-12)

    def test_qubit_rotation_closed_form(self):
        plan = qubit_plan()
        a = DenseOperator((0,), (2,), SX)
        for t in (0.3, 1.1, -0.8):
            expected = math.cos(OMEGA * t) * SX - math.sin(OMEGA * t) * SY
            np.testing.assert_allclose(exact_evolve(plan, a, t).matrix, expected, atol=1e-12)

    def test_group_law(self, chain5):
        vols = build(chain5, range(5))
        plan = make_plan(vols.H_B)
        rng = np.random.default_rng(2)
        a = embed(DenseOperator((2,), (2,), random_hermitian(rng, 2)),
                  vols.sites, vols.dims)
        two_step = exact_evolve(plan, exact_evolve(plan, a, 0.7), 0.55)
        one_step = exact_evolve(plan, a, 1.25)
        assert op_norm(two_step - one_step) <= 1e-9

    def test_preserves_hermiticity_spectrum_norm(self, chain5):
        vols = build(chain5, range(5))
        plan = make_plan(vols.H_B)
        rng = np.random.default_rng(4)
        a = DenseOperator(vols.sites, vols.dims, random_hermitian(rng, vols.dim))
        out = exact_evolve(plan, a, 2.2)
        assert out.is_hermitian(1e-10)
        assert op_norm(out) == pytest.approx(op_norm(a), abs=1e-10)
        np.testing.assert_allclose(np.linalg.eigvalsh(out.matrix),
                                   np.linalg.eigvalsh(a.matrix), atol=1e-10)

    def test_derivative_at_zero_matches_derivation(self, standard_chain):
        vols = build(standard_chain, (0, 1, 2))
        plan = make_plan(vols.H_B)
        a = embed(DenseOperator((1,), (2,), SX), vols.sites, vols.dims)
        delta = derivation(standard_chain, (0, 1, 2), a)
        residuals = []
        for h in (1e-3, 5e-4):
            diff = (exact_evolve(plan, a, h) - a) * (1.0 / h)
            residuals.append(op_norm(diff - delta))
        ratio = residuals[0] / residuals[1]
        assert 1.5 <= ratio <= 3.0

    def test_volume_mismatch_rejected(self):
        plan = qubit_plan()
        with pytest.raises(ValueError):
            exact_evolve(plan, DenseOperator((1,), (2,), SX), 0.1)


class TestDysonEvolve:
    def test_time_zero(self, standard_chain):
        a = DenseOperator((1,), (2,), SX)
        out, bound = dyson_evolve(standard_chain, (0, 1, 2), a, 0.0)
        np.testing.assert_allclose(out.matrix, embed(a, (0, 1, 2), (2, 2, 2)).matrix,
                                   atol=1e-15)
        assert bound == 0.0

    def test_qubit_matches_exact_within_bound(self):
        spec = qubit_model()
        radius = series_radius(spec)
        t = 0.4 * radius
        a = DenseOperator((0,), (2,), SX)
        approx, bound = dyson_evolve(spec, (0,), a, t)
        exact = exact_evolve(qubit_plan(), a, t)
        assert op_norm(approx - exact) <= bound

    def test_chain_matches_exact_within_bound(self, standard_chain):
        radius = series_radius(standard_chain)
        t = 0.4 * radius
        a = DenseOperator((1,), (2,), SX)
        approx, bound = dyson_evolve(standard_chain, (0, 1, 2), a, t)
        vols = build(standard_chain, (0, 1, 2))
        exact = exact_evolve(make_plan(vols.H_B), embed(a, vols.sites, vols.dims), t)
        assert op_norm(approx - exact) <= bound
        assert bound < 1.0  # the majorant is meaningful at this time

    def test_growth_bound_holds_through_order_six(self, standard_chain):
        # a on its own site, so card X = 1 in the bound
        a = DenseOperator((1,), (2,), SX)
        current = a
        for m in range(1, 7):
            current = derivation(standard_chain, (0, 1, 2), current)
            assert op_norm(current) <= derivation_growth_bound(standard_chain, a, m) + 1e-12
            # the weighted-norm variant is looser but also valid
            shifted = derivation_growth_bound(standard_chain, a, m,
                                              mu=standard_chain.lam / 3.0)
            assert op_norm(current) <= shifted + 1e-12
        with pytest.raises(ValueError):
            derivation_growth_bound(standard_chain, a, 1, mu=standard_chain.lam)

    def test_partial_sum_terms_below_majorant(self, standard_chain):
        radius = series_radius(standard_chain)
        t = 0.5 * radius
        from nesslab.model import lambda_norm
        ratio = 2.0 * t * lambda_norm(standard_chain) / standard_chain.lam
        a = DenseOperator((1,), (2,), SX)
        envelope = op_norm(a) * math.exp(standard_chain.lam * len(a.sites))
        current = a
        for m in range(1, 9):
            current = derivation(standard_chain, (0, 1, 2), current)
            term = (t**m / math.factorial(m)) * op_norm(current)
            assert term <= envelope * ratio**m + 1e-12

    def test_outside_radius_refused(self, standard_chain):
        a = DenseOperator((1,), (2,), SX)
        with pytest.raises(ValueError):
            dyson_evolve(standard_chain, (0, 1, 2), a,
                         1.000001 * series_radius(standard_chain))

    def test_perturbation_shrinks_radius(self, chain5):
        entry = PerturbationEntry(frozenset(range(5)), (InteractionTerm((0,), 0.5 * SZ),))
        family = PerturbationFamily((entry,), bound_K=0.5)
        assert series_radius(chain5, family) < series_radius(chain5)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DysonConfig(lam=0.0)
        with pytest.raises(ValueError):
            DysonConfig(lam=0.5, max_order=0)


class TestConvergenceSweep:
    def test_termfree_enlargement_gives_zero(self):
        # site 3 carries no terms at all: adding it changes nothing
        sites = tuple(SiteSpec(i, 2) for i in range(4))
        regions = RegionMap({0: 1, 1: 0, 2: 2, 3: 2})
        terms = (InteractionTerm((0,), 0.5 * SZ), InteractionTerm((0, 1), np.kron(SX, SX)),
                 InteractionTerm((1,), 0.5 * SZ), InteractionTerm((2,), 0.5 * SZ),
                 InteractionTerm((1, 2), np.kron(SX, SX)))
        spec = ModelSpec(sites, regions, terms, 0.5, {1: 2.0, 2: 1.0})
        a = DenseOperator((1,), (2,), SX)
        report = convergence_sweep(spec, [(0, 1, 2), (0, 1, 2, 3)], a, [0.2, 0.5],
                                   max_order=3)
        for row in report.evolution_rows:
            assert row.discrepancy <= 1e-12
        for row in report.order_rows:
            assert row.discrepancy <= 1e-12

    def test_six_site_chain_discrepancy_decreases(self):
        spec = make_chain(6, {0: 1, 1: 1, 2: 0, 3: 0, 4: 2, 5: 2},
                          {1: 2.0, 2: 1.0}, coup=0.8)
        a = DenseOperator((2,), (2,), SX)
        radius = series_radius(spec)
        t_grid = [0.2 * radius, 0.5 * radius]
        report = convergence_sweep(spec, [(1, 2, 3, 4), (0, 1, 2, 3, 4), (0, 1, 2, 3, 4, 5)],
                                   a, t_grid, max_order=3)
        sups = [report.pair_sup(0), report.pair_sup(1)]
        assert sups[0] >= sups[1] - 1e-14
        for row in report.dyson_rows:
            assert row.error <= row.bound

    def test_protected_perturbation_drops_out(self, chain5):
        # observable straddling the small system and reservoir 2; the family
        # touches its support only below the protected threshold volume
        a = DenseOperator((2, 3), (2, 2), np.kron(SX, SX))
        small = tuple(range(1, 5))
        full = tuple(range(5))
        family = PerturbationFamily(
            (PerturbationEntry(frozenset(small), (InteractionTerm((3,), 0.4 * SZ),)),
             PerturbationEntry(frozenset(full), (InteractionTerm((4,), 0.4 * SZ),))),
            bound_K=0.5,
            protected=((frozenset({2, 3}), 1),))
        assert not family.check(chain5)
        # below the threshold the perturbation is felt
        with_b = derivation(chain5, small, a, perturbation=family)
        without_b = derivation(chain5, small, a)
        assert op_norm(with_b - without_b) > 1e-3
        # at the threshold volume its terms avoid the support: no contribution
        with_far = derivation(chain5, full, a, perturbation=family)
        without_far = derivation(chain5, full, a)
        assert op_norm(with_far - without_far) <= 1e-14

    def test_rows_match_standalone_routes(self, chain5):
        a = DenseOperator((2,), (2,), SX)
        exhaustion = [(1, 2, 3), (1, 2, 3, 4), tuple(range(5))]
        radius = series_radius(chain5)
        t_grid = [0.3 * radius, 0.7 * radius, 1.5 * radius]
        report = convergence_sweep(chain5, exhaustion, a, t_grid, max_order=3)
        inside = [t for t in t_grid if t < radius]
        assert [(r.volume_index, r.t) for r in report.dyson_rows] == [
            (i, t) for i in range(len(exhaustion)) for t in inside]
        for row in report.dyson_rows:
            vols = build(chain5, exhaustion[row.volume_index])
            a_v = embed(a, vols.sites, vols.dims)
            approx, bound = dyson_evolve(chain5, vols.sites, a, row.t)
            exact = exact_evolve(make_plan(vols.H_B), a_v, row.t)
            assert abs(row.error - op_norm(approx - exact)) <= 1e-12
            assert abs(row.bound - bound) <= 1e-12
        powers = []
        for sites in exhaustion:
            cur = embed(a, sites, chain5.dims_for(sites))
            per_volume = []
            for _ in range(3):
                cur = derivation(chain5, sites, cur)
                per_volume.append(cur)
            powers.append(per_volume)
        for row in report.order_rows:
            large = powers[row.pair_index + 1][row.order - 1]
            lifted = embed(powers[row.pair_index][row.order - 1], large.sites, large.dims)
            assert abs(row.discrepancy - op_norm(lifted - large)) <= 1e-12

    def test_dyson_bound_on_observable_sites(self, chain5):
        # card X in the bound is that of the sites a is passed on, not the volume's
        a = DenseOperator((2, 3), (2, 2), np.kron(SX, SZ))
        radius = series_radius(chain5)
        report = convergence_sweep(chain5, [(1, 2, 3), (1, 2, 3, 4), tuple(range(5))], a,
                                   [0.2 * radius, 0.6 * radius, 1.5 * radius], max_order=3)
        order = DysonConfig(lam=chain5.lam).max_order
        envelope = op_norm(a) * math.exp(chain5.lam * len(a.sites))
        assert len(report.dyson_rows) == 6
        for row in report.dyson_rows:
            r = abs(row.t) / radius
            assert row.bound == pytest.approx(envelope * r ** (order + 1) / (1.0 - r),
                                              rel=1e-12)
            assert row.error <= row.bound

    def test_envelope_takes_no_volume_sized_solve(self, eigensolves):
        # at each volume's D: H_B's eigh, then one norm per Dyson row and, past
        # the first volume, one per evolution row and per order row
        spec = make_chain(7, {0: 1, 1: 1, 2: 1, 3: 0, 4: 2, 5: 2, 6: 2}, {1: 2.0, 2: 1.0})
        a = DenseOperator((3,), (2,), SX)
        exhaustion = [tuple(range(1, 6)), tuple(range(6)), tuple(range(7))]
        radius = series_radius(spec)
        t_grid = [0.2 * radius, 0.5 * radius, 2.0 * radius]
        convergence_sweep(spec, exhaustion, a, t_grid, max_order=3)
        for i, sites in enumerate(exhaustion):
            dim = spec.volume_dim(sites)
            expected = 1 + 2 + (len(t_grid) + 3 if i else 0)
            assert sum(d == dim for d, _, _ in eigensolves) == expected, sites

    def test_outside_radius_grid_computes_only_order_powers(self, chain5, monkeypatch):
        from nesslab import dynamics
        orders = []
        real = dynamics.derivation_powers

        def counting(h_b, a, order):
            orders.append(order)
            return real(h_b, a, order)

        monkeypatch.setattr(dynamics, "derivation_powers", counting)
        a = DenseOperator((2,), (2,), SX)
        exhaustion = [(1, 2, 3), (1, 2, 3, 4)]
        radius = series_radius(chain5)
        report = convergence_sweep(chain5, exhaustion, a, [2.0 * radius, 5.0 * radius],
                                   max_order=4)
        assert report.dyson_rows == ()
        assert orders == [4, 4]
        assert len(report.order_rows) == 4

    def test_non_nested_exhaustion_rejected(self, chain5):
        a = DenseOperator((2,), (2,), SX)
        with pytest.raises(ValueError):
            convergence_sweep(chain5, [(1, 2, 3), (2, 3, 4)], a, [0.1])

    def test_observable_must_fit_smallest_volume(self, chain5):
        a = DenseOperator((4,), (2,), SX)
        with pytest.raises(ValueError):
            convergence_sweep(chain5, [(1, 2, 3), (1, 2, 3, 4)], a, [0.1])
