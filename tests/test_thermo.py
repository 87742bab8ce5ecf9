import math

import mpmath
import numpy as np
import pytest

from nesslab import (
    DenseOperator,
    InteractionTerm,
    ModelSpec,
    boundary_redraw_check,
    build,
    embed,
    entropy_production,
    gibbs,
    heat_direction_check,
    horizon_reports,
    initial_state,
    klein_check,
    kms_check,
    make_plan,
    op_norm,
    time_averaged_state,
)
from nesslab import exact_evolve, opalg
from nesslab.model import PerturbationEntry, PerturbationFamily
from nesslab.thermo import StateRep, _horizon_kernels

import oracles
from conftest import SX, SY, SZ, make_chain, random_hermitian, random_unitary


class TestGibbs:
    def test_infinite_temperature_is_maximally_mixed(self):
        rng = np.random.default_rng(0)
        h = DenseOperator((0, 1), (2, 2), random_hermitian(rng, 4))
        state = gibbs(h, 0.0)
        np.testing.assert_allclose(state.density, np.eye(4) / 4.0, atol=1e-12)

    def test_qubit_closed_form(self):
        state = gibbs(DenseOperator((0,), (2,), SZ), 1.0)
        z = math.e + math.exp(-1.0)
        np.testing.assert_allclose(state.density,
                                   np.diag([math.exp(-1.0) / z, math.e / z]),
                                   atol=1e-12)

    def test_low_temperature_projects_on_ground_state(self):
        rng = np.random.default_rng(1)
        mat = random_hermitian(rng, 6)
        w, v = np.linalg.eigh(mat)
        gap = w[1] - w[0]
        state = gibbs(DenseOperator((0,), (6,), mat), 50.0 / gap)
        ground = v[:, 0]
        fidelity = float(np.real(ground.conj() @ state.density @ ground))
        assert fidelity > 1.0 - 1e-6

    def test_negative_beta_still_a_state(self):
        state = gibbs(DenseOperator((0,), (2,), SZ), -2.0)
        assert np.trace(state.density).real == pytest.approx(1.0, abs=1e-12)
        assert state.min_eigenvalue() >= -1e-12


class TestStateRep:
    def test_refuses_a_non_positive_matrix(self):
        # unit trace and Hermitian, with eigenvalues 1.5 and -0.5
        with pytest.raises(ValueError, match="positive"):
            StateRep((0,), (2,), np.array([[0.5, 1.0], [1.0, 0.5]]))

    @pytest.mark.parametrize("lowest,accepted", [(-1e-8, False), (-1e-12, True), (0.0, True)])
    def test_positivity_is_checked_to_its_tolerance(self, lowest, accepted):
        assert opalg.STATE_POSITIVITY_TOL == 1e-10
        u = random_unitary(np.random.default_rng(2), 3)
        density = u @ np.diag([lowest, 0.4, 0.6 - lowest]) @ u.conj().T
        if accepted:
            assert StateRep((0,), (3,), density).min_eigenvalue() == pytest.approx(
                lowest, abs=1e-14)
        else:
            with pytest.raises(ValueError, match="positive"):
                StateRep((0,), (3,), density)


class TestInitialState:
    def test_no_reservoir_terms_gives_maximally_mixed(self, decoupled_model):
        spec = ModelSpec(decoupled_model.sites, decoupled_model.regions, (),
                         0.5, decoupled_model.betas)
        vols = build(spec, (0, 1, 2))
        state = initial_state(vols)
        np.testing.assert_allclose(state.density, np.eye(8) / 8.0, atol=1e-12)

    def test_unit_trace_by_construction(self, chain5):
        vols = build(chain5, range(5))
        state = initial_state(vols)
        assert np.trace(state.density).real == pytest.approx(1.0, abs=1e-10)
        assert state.min_eigenvalue() >= -1e-10

    def test_matches_explicit_tensor_product(self, chain5):
        vols = build(chain5, range(5))
        direct = initial_state(vols)
        product = oracles.product_initial_state(chain5, range(5))
        assert np.max(np.abs(direct.density - product.density)) <= 1e-10

    def test_matches_product_with_perturbation(self, chain5):
        entry = PerturbationEntry(frozenset(range(5)),
                                  (InteractionTerm((0, 1), 0.3 * np.kron(SX, SX)),
                                   InteractionTerm((4,), 0.25 * SZ)))
        family = PerturbationFamily((entry,), bound_K=1.0)
        vols = build(chain5, range(5), family)
        direct = initial_state(vols)
        product = oracles.product_initial_state(chain5, range(5), family)
        assert np.max(np.abs(direct.density - product.density)) <= 1e-10

    def test_small_system_factor_is_normalized_trace(self, chain5):
        vols = build(chain5, range(5))
        state = initial_state(vols)
        # tracing out the reservoirs leaves the maximally mixed qubit at site 2
        rho = state.density.reshape((2,) * 10)
        reduced = np.einsum("abcdeabfde->cf", rho)
        np.testing.assert_allclose(reduced, np.eye(2) / 2.0, atol=1e-12)


class TestKms:
    def test_infinite_temperature_residual_zero(self):
        h = DenseOperator((0,), (2,), SZ)
        state = gibbs(h, 0.0)
        a = DenseOperator((0,), (2,), SX)
        b = DenseOperator((0,), (2,), SY)
        assert kms_check(state, h, 0.0, a, b) <= 1e-14

    def test_qubit_residual(self):
        h = DenseOperator((0,), (2,), SZ)
        state = gibbs(h, 1.0)
        a = DenseOperator((0,), (2,), SX)
        b = DenseOperator((0,), (2,), SY)
        assert kms_check(state, h, 1.0, a, b) <= 1e-10

    def test_random_three_qubit_fuzz(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            h = DenseOperator((0,), (n,), random_hermitian(rng, n))
            beta = float(rng.uniform(0.1, 2.0))
            state = gibbs(h, beta)
            a = DenseOperator((0,), (n,), rng.standard_normal((n, n))
                              + 1j * rng.standard_normal((n, n)))
            b = DenseOperator((0,), (n,), rng.standard_normal((n, n))
                              + 1j * rng.standard_normal((n, n)))
            assert kms_check(state, h, beta, a, b) <= 1e-8 * op_norm(a) * op_norm(b)

    def test_one_eigensolve(self, chain5, eigensolves):
        vols = build(chain5, range(5))
        beta = 0.7
        state = gibbs(vols.H_B, beta)
        a = embed(DenseOperator((1,), (2,), SX), vols.sites, vols.dims)
        b = embed(DenseOperator((3,), (2,), SY), vols.sites, vols.dims)
        tol = 1e-8 * op_norm(a) * op_norm(b)
        eigensolves.clear()
        residual = kms_check(state, vols.H_B, beta, a, b)
        assert [dim for dim, _, _ in eigensolves] == [vols.dim]
        assert residual <= tol

    def test_foreign_state_is_refused(self):
        h = DenseOperator((0,), (2,), SZ)
        state = gibbs(h, 2.0)
        a = DenseOperator((0,), (2,), SX)
        with pytest.raises(ValueError):
            kms_check(state, h, 1.0, a, a)


class TestTimeAverage:
    def test_conserved_observable_is_horizon_independent(self, chain5):
        vols = build(chain5, range(5))
        plan = make_plan(vols.H_B)
        state = initial_state(vols)
        conserved = oracles.apply_function(vols.H_B, lambda s: s * s)
        base = state.expectation(conserved)
        for horizon in (0.5, 3.0, 17.0):
            avg = time_averaged_state(plan, state, horizon).expectation(conserved)
            assert avg == pytest.approx(base, abs=1e-10)

    def test_short_horizon_continuity(self, chain5):
        vols = build(chain5, range(5))
        plan = make_plan(vols.H_B)
        state = initial_state(vols)
        a = embed(vols.currents[1], vols.sites, vols.dims)
        scale = op_norm(a) * (1.0 + op_norm(vols.H_B))
        avg = time_averaged_state(plan, state, 1e-6).expectation(a)
        assert abs(avg - state.expectation(a)) <= 1e-6 * scale

    def test_qubit_pauli_average_vanishes(self):
        gen = DenseOperator((0,), (2,), 0.5 * SZ)
        plan = make_plan(gen)
        state = StateRep((0,), (2,), np.eye(2, dtype=complex) / 2.0)
        a = DenseOperator((0,), (2,), SX)
        for horizon in (0.1, 1.0, 10.0):
            avg = time_averaged_state(plan, state, horizon).expectation(a)
            assert abs(avg) <= 1e-12

    def test_kernel_exact_at_every_bohr_frequency(self):
        # a qubit with splitting x averaged over T = 1 keeps K(x)/2 as its
        # coherence, K(x) = (e^{ix} - 1)/(ix): compared with the Taylor
        # series where the closed form cancels, and with the closed form
        # where it does not
        state = StateRep((0,), (2,), np.full((2, 2), 0.5, dtype=complex))
        for x in (1e-14, 1e-10, 1e-8, 1e-6, 1e-4, 1e-3, 1.0, 2.5, 10.0, 1e3):
            plan = make_plan(DenseOperator((0,), (2,), np.diag([0.0, x])))
            got = 2.0 * time_averaged_state(plan, state, 1.0).density[0, 1]
            if x <= 1e-3:
                want = sum((1j * x) ** n / math.factorial(n + 1) for n in range(5))
            else:
                want = (np.exp(1j * x) - 1.0) / (1j * x)
            assert abs(got - want) <= 1e-15, x

    def test_matches_simpson_quadrature(self, chain5):
        vols = build(chain5, range(5))
        plan = make_plan(vols.H_B)
        state = initial_state(vols)
        a = embed(vols.currents[1], vols.sites, vols.dims)
        spectral_avg = time_averaged_state(plan, state, 2.5).expectation(a)
        quad_avg = oracles.time_avg_expectation_quadrature(vols, state, a, 2.5,
                                                           panels=160, plan=plan)
        # composite Simpson error ~ (T/panels)^4 * ||d^4/dt^4|| / 180
        step = 2.5 / 160
        quad_err = step**4 * 2.5 * (op_norm(vols.H_B) ** 4) * op_norm(a)
        assert abs(spectral_avg - quad_avg) <= max(quad_err, 1e-9)

    def test_averaged_state_is_a_state(self, chain5):
        vols = build(chain5, range(5))
        plan = make_plan(vols.H_B)
        averaged = time_averaged_state(plan, initial_state(vols), 7.0)
        assert np.trace(averaged.density).real == pytest.approx(1.0, abs=1e-10)
        assert averaged.min_eigenvalue() >= -1e-10

    def test_nonpositive_horizon_rejected(self, chain5):
        vols = build(chain5, range(5))
        w_op = embed(vols.W, vols.sites, vols.dims)
        with pytest.raises(ValueError):
            time_averaged_state(make_plan(vols.H_B), initial_state(vols), 0.0).expectation(w_op)


EPS = np.finfo(float).eps
KERNEL_POINTS = (0.0, 1e-300, -1e-300, 1e-12, -1e-12, 1e-6, -1e-6, 1.0, -1.0, math.pi,
                 1e3, -1e3, 1e6, -1e6)


class TestHorizonKernels:
    """The sine/cosine form of K(x) = (e^{ix} - 1)/(ix) and expm1(ix)."""

    @staticmethod
    def _exact(x: float) -> tuple:
        with mpmath.workdps(50):
            if x == 0.0:
                return mpmath.mpc(1), mpmath.mpc(0)
            endpoint = mpmath.expm1(1j * mpmath.mpf(x))
            return endpoint / (1j * mpmath.mpf(x)), endpoint

    @pytest.mark.parametrize("x", KERNEL_POINTS)
    def test_matches_50_digits(self, x):
        # at the same double x, each component within 4 eps of |K| or |expm1|
        re_k, im_k, re_e, im_e = _horizon_kernels(np.array([0.5 * x]))[:, 0]
        kernel, endpoint = self._exact(x)
        with mpmath.workdps(50):
            assert abs(re_k - kernel.real) <= 4 * EPS * abs(kernel)
            assert abs(im_k - kernel.imag) <= 4 * EPS * abs(kernel)
            assert abs(re_e - endpoint.real) <= 4 * EPS * abs(endpoint)
            assert abs(im_e - endpoint.imag) <= 4 * EPS * abs(endpoint)

    def test_relative_accuracy_on_a_grid(self):
        # the complex form's np.sinc rounds x / (2 pi) before taking the sine,
        # so near the zeros of sin(x/2) at large x it keeps only its absolute
        # accuracy; the sine/cosine form keeps a relative one
        rng = np.random.default_rng(0)
        x = np.concatenate([np.logspace(-8.0, 4.0, 100), -np.logspace(-8.0, 4.0, 100),
                            rng.uniform(-1e6, 1e6, 200)])
        kernels = _horizon_kernels(0.5 * x)
        for xi, (re_k, im_k, re_e, im_e) in zip(x, kernels.T):
            kernel, endpoint = self._exact(float(xi))
            with mpmath.workdps(50):
                assert abs(re_k + 1j * im_k - kernel) <= 4 * EPS * abs(kernel)
                assert abs(re_e + 1j * im_e - endpoint) <= 4 * EPS * abs(endpoint)
        # |K| <= 1 and |expm1| <= 2: both forms agree to a few eps absolute
        kernel_gap = kernels[0] + 1j * kernels[1] - oracles.averaging_kernel(x)
        endpoint_gap = kernels[2] + 1j * kernels[3] - oracles.endpoint_factor(x)
        assert np.max(np.abs(kernel_gap)) <= 4 * EPS
        assert np.max(np.abs(endpoint_gap)) <= 8 * EPS

    def test_degenerate_spectrum(self, decoupled_model):
        # field terms only: H_B is diagonal with exactly repeated eigenvalues,
        # so many Bohr frequencies are exactly zero
        vols = build(decoupled_model, (0, 1, 2))
        plan = make_plan(vols.H_B)
        (sector,) = plan.sectors
        w = sector.eigenvalues
        half = 0.5 * 7.0 * (w[None, :] - w[:, None])
        assert np.count_nonzero(half == 0.0) > vols.dim
        kernels = _horizon_kernels(half)
        assert np.all(np.isfinite(kernels))
        np.testing.assert_array_equal(kernels[:, half == 0.0].T,
                                      np.tile([1.0, 0.0, 0.0, 0.0], (np.sum(half == 0.0), 1)))
        # every basis state is its own sector of the diagonal terms, so the
        # sector route keeps no Bohr frequency at all
        assert len(vols.sectors) == vols.dim
        for p in (plan, None):
            for report, _ in horizon_reports(vols, (1e-3, 7.0, 1e6), plan=p):
                values = [*report.fluxes.values(), report.e, report.e_telescoped]
                assert all(np.isfinite(values)) and max(map(abs, values)) <= 1e-12


class TestLocalObservables:
    @pytest.mark.parametrize("chain", ["real", "complex"])
    def test_own_sites_match_the_lifted_route(self, chain):
        spec = make_chain(5, {0: 1, 1: 1, 2: 0, 3: 2, 4: 2}, {1: 2.0, 2: 1.0}, anis=0.3)
        if chain == "complex":
            dm = InteractionTerm((1, 2), 0.4 * (np.kron(SX, SY) - np.kron(SY, SX)))
            spec = ModelSpec(spec.sites, spec.regions, spec.terms + (dm,), spec.lam,
                             spec.betas)
        vols = build(spec, range(5))
        rng = np.random.default_rng(11)
        local = {"mid": DenseOperator((2,), (2,), SX),
                 "pair": DenseOperator((0, 3), (2, 2), random_hermitian(rng, 4)),
                 "left": DenseOperator((0, 1), (2, 2), np.kron(SZ, SY) + np.kron(SY, SZ))}
        lifted = {k: embed(x, vols.sites, vols.dims) for k, x in local.items()}
        plan = make_plan(vols.H_B)
        horizons = (0.5, 3.0, 40.0)
        for (rep, avg), (rep_l, avg_l) in zip(
                horizon_reports(vols, horizons, plan=plan, observables=local),
                horizon_reports(vols, horizons, plan=plan, observables=lifted)):
            assert rep == rep_l
            for key in local:
                assert abs(avg[key] - avg_l[key]) <= 1e-12 * (1.0 + abs(avg_l[key]))


    def test_non_selfadjoint_observable_refused(self):
        # its horizon average is complex: the packed weights, which assume a
        # conjugate-symmetric P, would report neither its real nor its
        # imaginary part
        spec = make_chain(5, {0: 1, 1: 1, 2: 0, 3: 2, 4: 2}, {1: 2.0, 2: 1.0}, anis=0.3)
        vols = build(spec, range(5))
        skew = DenseOperator((1, 2), (2, 2), np.kron([[1.0, 0.7], [0.1, -0.3]],
                                                     [[0.2, 1.0], [0.4, 0.5]]))
        with pytest.raises(ValueError, match="skew"):
            horizon_reports(vols, (3.0,), observables={"skew": skew})


class TestEntropyProduction:
    def test_decoupled_model_produces_nothing(self, decoupled_model):
        vols = build(decoupled_model, (0, 1, 2))
        report = entropy_production(vols, 5.0)
        assert all(abs(f) <= 1e-13 for f in report.fluxes.values())
        assert abs(report.e) <= 1e-13
        assert abs(report.e_telescoped) <= 1e-12

    def test_endpoint_route_nonnegative(self, chain5):
        vols = build(chain5, range(5))
        for horizon in (0.5, 2.0, 11.0, 60.0):
            report = entropy_production(vols, horizon)
            assert report.e_telescoped >= -1e-10 * report.g_norm

    def test_three_site_chain_nonnegative(self, standard_chain):
        vols = build(standard_chain, (0, 1, 2))
        plan = make_plan(vols.H_B)
        for horizon in (0.3, 1.0, 5.0, 40.0):
            report = entropy_production(vols, horizon, plan=plan)
            assert report.e_telescoped >= -1e-10 * report.g_norm

    def test_report_serialization(self, standard_chain):
        vols = build(standard_chain, (0, 1, 2))
        report = entropy_production(vols, 3.0)
        doc = report.to_dict()
        assert set(doc) == {"T", "fluxes", "e", "e_telescoped",
                            "sum_rule_residual", "tol_sum_rule"}
        assert doc["T"] == 3.0
        assert set(doc["fluxes"]) == {"1", "2"}
        row = report.csv_row()
        assert len(row) == 1 + 2 + 4
        assert row[0] == 3.0

    def test_flux_route_matches_endpoint_route(self, chain5):
        vols = build(chain5, range(5))
        plan = make_plan(vols.H_B)
        for horizon in (1.0, 10.0):
            report = entropy_production(vols, horizon, plan=plan)
            assert not report.perturbed
            assert abs(report.e - report.e_telescoped) <= 1e-8 * max(1.0, abs(report.e))

    def test_equal_temperature_entropy_decays(self):
        spec = make_chain(4, {0: 1, 1: 0, 2: 0, 3: 2}, {1: 1.0, 2: 1.0},
                          coup=0.8075, field=0.2753, anis=0.2166)
        vols = build(spec, range(4))
        plan = make_plan(vols.H_B)
        values = {t: entropy_production(vols, t, plan=plan).e_telescoped
                  for t in (5.0, 10.0, 20.0, 40.0, 80.0)}
        for t in (5.0, 10.0, 20.0, 40.0):
            assert (abs(values[2 * t]) <= 0.67 * abs(values[t])
                    or (abs(values[t]) < 1e-9 and abs(values[2 * t]) < 1e-9))

    def test_sum_rule_equals_interface_endpoint_difference(self, chain5):
        vols = build(chain5, range(5))
        plan = make_plan(vols.H_B)
        sigma = initial_state(vols)
        for horizon in (1.0, 7.0, 30.0):
            report = entropy_production(vols, horizon, plan=plan)
            w_op = embed(vols.W, vols.sites, vols.dims)
            w_end = exact_evolve(plan, w_op, horizon)
            endpoint = -(sigma.expectation(w_end) - sigma.expectation(w_op)) / horizon
            assert abs(report.sum_rule_residual - endpoint) <= 1e-10
            assert abs(report.sum_rule_residual) <= report.tol_sum_rule + 1e-10

    def test_fundamental_theorem_identity(self, chain5):
        vols = build(chain5, range(5))
        plan = make_plan(vols.H_B)
        sigma = initial_state(vols)
        horizon = 4.0
        averaged = time_averaged_state(plan, sigma, horizon)
        g = oracles.exponent_operator(vols)
        comm = 1j * (vols.H_B.matrix @ g.matrix - g.matrix @ vols.H_B.matrix)
        lhs = float(np.real(np.trace(averaged.density @ comm)))
        g_end = exact_evolve(plan, g, horizon)
        rhs = (sigma.expectation(g_end) - sigma.expectation(g)) / horizon
        scale = max(1.0, op_norm(g))
        assert abs(lhs - rhs) <= 1e-8 * scale

    def test_perturbed_volume_still_nonnegative(self, chain5):
        entry = PerturbationEntry(frozenset(range(5)),
                                  (InteractionTerm((0, 1), 0.4 * np.kron(SX, SX)),
                                   InteractionTerm((4,), 0.3 * SZ)))
        family = PerturbationFamily((entry,), bound_K=1.5)
        vols = build(chain5, range(5), family)
        for horizon in (0.7, 6.0, 25.0):
            report = entropy_production(vols, horizon)
            assert report.perturbed
            assert report.e_telescoped >= -1e-10 * report.g_norm


class TestHeatDirection:
    def test_equal_betas_reduces_to_slack(self):
        spec = make_chain(4, {0: 1, 1: 0, 2: 0, 3: 2}, {1: 1.0, 2: 1.0})
        vols = build(spec, range(4))
        report = heat_direction_check(vols, 10.0)
        assert report.lhs == 0.0
        assert report.ok

    def test_four_site_chain_hot_to_cold(self):
        spec = make_chain(4, {0: 1, 1: 0, 2: 0, 3: 2}, {1: 2.0, 2: 1.0})
        vols = build(spec, range(4))
        report = heat_direction_check(vols, 50.0)
        assert report.ok
        # reservoir 1 is the cold one; at a long horizon energy flows into it
        assert report.flux_into_first > 0.0

    def test_decoupled_holds_with_full_slack(self, decoupled_model):
        vols = build(decoupled_model, (0, 1, 2))
        report = heat_direction_check(vols, 5.0)
        assert abs(report.flux_into_first) <= 1e-13
        assert report.ok

    def test_three_reservoirs_rejected(self):
        spec = make_chain(4, {0: 1, 1: 0, 2: 2, 3: 3}, {1: 1.0, 2: 1.0, 3: 1.0})
        vols = build(spec, range(4))
        with pytest.raises(ValueError):
            heat_direction_check(vols, 5.0)


class TestBoundaryRedraw:
    def test_unchanged_small_system_is_exact(self, chain5):
        (report,) = boundary_redraw_check(chain5, {2}, range(5), (9.0,))
        assert report.difference == 0.0
        assert report.ok

    def test_decoupled_both_zero(self, decoupled_model):
        (report,) = boundary_redraw_check(decoupled_model, {0, 1}, (0, 1, 2), (5.0,))
        assert abs(report.e_original) <= 1e-13
        assert abs(report.e_redrawn) <= 1e-13
        assert report.ok

    def test_five_site_difference_within_bound_and_shrinking(self):
        spec = make_chain(5, {0: 1, 1: 1, 2: 0, 3: 2, 4: 2}, {1: 2.0, 2: 1.0},
                          coup=0.5493, field=0.2908, anis=0.3793)
        horizon = 25.0
        first, second = boundary_redraw_check(spec, {1, 2, 3}, range(5),
                                              (horizon, 2 * horizon))
        assert first.ok and second.ok
        factor = first.difference / second.difference
        assert 1.5 <= factor <= 3.0


class TestKleinCheck:
    def test_identity_conjugation_is_equality(self):
        rng = np.random.default_rng(3)
        a = random_hermitian(rng, 5)
        witness = klein_check(a, np.eye(5, dtype=complex), lambda s: s)
        assert witness.lhs == pytest.approx(witness.rhs, abs=1e-10)

    def test_two_by_two_swap(self):
        a = np.diag([0.0, 1.0]).astype(complex)
        swap = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        witness = klein_check(a, swap, lambda s: s)
        assert witness.lhs == pytest.approx(0.0, abs=1e-14)
        assert witness.rhs == pytest.approx(1.0, abs=1e-14)

    def test_witness_is_doubly_stochastic(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(1, 9))
            witness = klein_check(random_hermitian(rng, n), random_unitary(rng, n),
                                  math.tanh,
                                  lambda s: abs(s) + math.log1p(math.exp(-2 * abs(s)))
                                  - math.log(2.0))
            assert witness.min_entry >= -1e-12
            assert witness.row_sum_deviation <= 1e-10
            assert witness.col_sum_deviation <= 1e-10
            assert witness.violation <= 1e-10 * max(1.0, witness.scale)
            assert witness.footnote_value >= -1e-10 * max(1.0, witness.scale)

    def test_counting_identity(self):
        rng = np.random.default_rng(7)
        n = 6
        witness = klein_check(random_hermitian(rng, n), random_unitary(rng, n),
                              lambda s: s)
        for j in range(n):
            tail = witness.c[j:, :].sum()
            assert tail == pytest.approx(n - j, abs=1e-9)

    def test_non_monotone_phi_refused(self):
        rng = np.random.default_rng(9)
        with pytest.raises(ValueError):
            klein_check(random_hermitian(rng, 4), random_unitary(rng, 4),
                        lambda s: -s)

    def test_non_unitary_refused(self):
        rng = np.random.default_rng(11)
        with pytest.raises(ValueError):
            klein_check(random_hermitian(rng, 3), np.diag([2.0, 1.0, 1.0]),
                        lambda s: s)

    def test_witness_serialization(self):
        rng = np.random.default_rng(13)
        witness = klein_check(random_hermitian(rng, 4), random_unitary(rng, 4),
                              lambda s: s)
        doc = witness.to_dict()
        assert set(doc) == {"eigenvalues", "c", "lhs", "rhs"}
        assert len(doc["eigenvalues"]) == 4
        assert len(witness.csv_row()) == 6
