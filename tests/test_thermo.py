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
    gibbs,
    heat_direction_check,
    horizon_reports,
    klein_check,
    kms_check,
    make_plan,
    op_norm,
)
from nesslab import exact_evolve, opalg, thermo
from nesslab.model import PerturbationFamily
from nesslab.thermo import _gibbs_factors, _horizon_kernels

import oracles
from conftest import (SX, SY, SZ, dense_generator, end_chain, entropy_report, make_chain,
                      one_sector, random_hermitian, random_unitary, traced_peak)
from oracles import expectation, initial_state, time_averaged_state


class TestGibbs:
    def test_infinite_temperature_is_maximally_mixed(self):
        rng = np.random.default_rng(0)
        h = DenseOperator((0, 1), (2, 2), random_hermitian(rng, 4))
        state = gibbs(h, 0.0)
        np.testing.assert_allclose(state.matrix, np.eye(4) / 4.0, atol=1e-12)

    def test_qubit_closed_form(self):
        state = gibbs(DenseOperator((0,), (2,), SZ), 1.0)
        z = math.e + math.exp(-1.0)
        np.testing.assert_allclose(state.matrix,
                                   np.diag([math.exp(-1.0) / z, math.e / z]),
                                   atol=1e-12)

    def test_low_temperature_projects_on_ground_state(self):
        rng = np.random.default_rng(1)
        mat = random_hermitian(rng, 6)
        w, v = np.linalg.eigh(mat)
        gap = w[1] - w[0]
        state = gibbs(DenseOperator((0,), (6,), mat), 50.0 / gap)
        ground = v[:, 0]
        fidelity = float(np.real(ground.conj() @ state.matrix @ ground))
        assert fidelity > 1.0 - 1e-6

    def test_negative_beta_still_a_state(self):
        state = gibbs(DenseOperator((0,), (2,), SZ), -2.0)
        assert np.trace(state.matrix).real == pytest.approx(1.0, abs=1e-12)
        assert np.min(opalg.eigenvalues(state.matrix)) >= -1e-12

    @pytest.mark.parametrize("kind", ["real", "complex", "perturbed"])
    def test_initial_state_factors_are_density_matrices(self, kind):
        # each Gibbs factor of exp(-G), on its reservoir's sites: unit trace,
        # Hermitian and no eigenvalue below zero, each within 1e-10
        spec = make_chain(6, {0: 1, 1: 1, 2: 0, 3: 2, 4: 2, 5: 2}, {1: 2.0, 2: 0.5},
                          coup=0.8, anis=0.3)
        family = None
        if kind == "complex":
            extra = (InteractionTerm((0, 1), 0.4 * np.kron(SX, SY)),
                     InteractionTerm((4,), 0.3 * SY))
            spec = ModelSpec(spec.sites, spec.regions, spec.terms + extra, spec.lam, spec.betas)
        elif kind == "perturbed":
            entry = (frozenset(range(6)),
                     (InteractionTerm((0, 1), 0.3 * np.kron(SX, SX)),
                      InteractionTerm((5,), 0.25 * SZ)))
            family = PerturbationFamily((entry,), bound_K=1.0)
        factors, _ = _gibbs_factors(build(spec, range(6), family))
        assert [f.sites for f in factors] == [(0, 1), (3, 4, 5)]
        assert any(np.iscomplexobj(f.matrix) for f in factors) == (kind == "complex")
        for rho in factors:
            m = rho.matrix
            assert abs(np.trace(m) - 1.0) <= 1e-10
            assert np.max(np.abs(m - m.conj().T)) <= 1e-10 * np.max(np.abs(m))
            assert np.min(np.linalg.eigvalsh(m)) >= -1e-10


class TestInitialState:
    def test_no_reservoir_terms_gives_maximally_mixed(self, decoupled_model):
        spec = ModelSpec(decoupled_model.sites, decoupled_model.regions, (),
                         0.5, decoupled_model.betas)
        vols = build(spec, (0, 1, 2))
        state = initial_state(vols)
        np.testing.assert_allclose(state.matrix, np.eye(8) / 8.0, atol=1e-12)

    def test_unit_trace_by_construction(self, chain5):
        vols = build(chain5, range(5))
        state = initial_state(vols)
        assert np.trace(state.matrix).real == pytest.approx(1.0, abs=1e-10)
        assert np.min(opalg.eigenvalues(state.matrix)) >= -1e-10

    def test_matches_explicit_tensor_product(self, chain5):
        vols = build(chain5, range(5))
        direct = initial_state(vols)
        product = oracles.product_initial_state(chain5, range(5))
        assert np.max(np.abs(direct.matrix - product.matrix)) <= 1e-10

    def test_matches_product_with_perturbation(self, chain5):
        entry = (frozenset(range(5)),
                 (InteractionTerm((0, 1), 0.3 * np.kron(SX, SX)),
                  InteractionTerm((4,), 0.25 * SZ)))
        family = PerturbationFamily((entry,), bound_K=1.0)
        vols = build(chain5, range(5), family)
        direct = initial_state(vols)
        product = oracles.product_initial_state(chain5, range(5), family)
        assert np.max(np.abs(direct.matrix - product.matrix)) <= 1e-10

    def test_small_system_factor_is_normalized_trace(self, chain5):
        vols = build(chain5, range(5))
        state = initial_state(vols)
        # tracing out the reservoirs leaves the maximally mixed qubit at site 2
        rho = state.matrix.reshape((2,) * 10)
        reduced = np.einsum("abcdeabfde->cf", rho)
        np.testing.assert_allclose(reduced, np.eye(2) / 2.0, atol=1e-12)


class TestKms:
    def test_infinite_temperature_residual_zero(self):
        h = DenseOperator((0,), (2,), SZ)
        a = DenseOperator((0,), (2,), SX)
        b = DenseOperator((0,), (2,), SY)
        assert kms_check(h, 0.0, a, b) <= 1e-14

    def test_qubit_residual(self):
        h = DenseOperator((0,), (2,), SZ)
        a = DenseOperator((0,), (2,), SX)
        b = DenseOperator((0,), (2,), SY)
        assert kms_check(h, 1.0, a, b) <= 1e-10

    def test_random_three_qubit_fuzz(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            h = DenseOperator((0,), (n,), random_hermitian(rng, n))
            beta = float(rng.uniform(0.1, 2.0))
            a = DenseOperator((0,), (n,), rng.standard_normal((n, n))
                              + 1j * rng.standard_normal((n, n)))
            b = DenseOperator((0,), (n,), rng.standard_normal((n, n))
                              + 1j * rng.standard_normal((n, n)))
            assert kms_check(h, beta, a, b) <= 1e-8 * op_norm(a) * op_norm(b)

    @pytest.mark.parametrize("n", [4, 8])
    @pytest.mark.parametrize("beta", [20.0, 40.0, 100.0])
    def test_large_beta_times_spread(self, n, beta):
        # H scaled to spectral spread 1: the continuation's factors reach e^beta, so
        # any roundoff off the state's diagonal would be amplified that much
        rng = np.random.default_rng(42)
        for _ in range(20):
            m = random_hermitian(rng, n)
            w = np.linalg.eigvalsh(m)
            h = DenseOperator((0,), (n,), m / (w[-1] - w[0]))
            a, b = (DenseOperator((0,), (n,), rng.standard_normal((n, n))
                                  + 1j * rng.standard_normal((n, n))) for _ in range(2))
            assert kms_check(h, beta, a, b) <= 1e-12 * op_norm(a) * op_norm(b)

    def test_largest_continuation_factor_below_overflow(self):
        # beta (max w - min w) = 709 < log(max float) = 709.78: e^709 is finite
        h = DenseOperator((0,), (2,), np.diag([0.0, 1.0]))
        a = DenseOperator((0,), (2,), SX)
        assert kms_check(h, 709.0, a, a) <= 1e-12

    @pytest.mark.parametrize("beta", [710.0, 800.0])
    def test_overflowing_continuation_factor_refused(self, beta):
        # e^{beta (max w - min w)} is inf, and the smallest Gibbs weight 0: their
        # product would be nan or inf, not a residual
        h = DenseOperator((0,), (2,), np.diag([0.0, 1.0]))
        a = DenseOperator((0,), (2,), SX)
        with pytest.raises(ValueError, match=f"{beta:g} exceeds log.max float. = 709.783"):
            kms_check(h, beta, a, a)

    def test_one_eigensolve(self, chain5, eigensolves):
        vols = build(chain5, range(5))
        beta = 0.7
        h_b = dense_generator(vols)
        a = embed(DenseOperator((1,), (2,), SX), vols.sites, vols.dims)
        b = embed(DenseOperator((3,), (2,), SY), vols.sites, vols.dims)
        tol = 1e-8 * op_norm(a) * op_norm(b)
        eigensolves.clear()
        residual = kms_check(h_b, beta, a, b)
        assert [dim for dim, _, _ in eigensolves] == [vols.dim]
        assert residual <= tol


class TestTimeAverage:
    def test_conserved_observable_is_horizon_independent(self, chain5):
        vols = build(chain5, range(5))
        plan = make_plan(one_sector(vols))
        state = initial_state(vols)
        conserved = oracles.apply_function(dense_generator(vols), lambda s: s * s)
        base = expectation(state, conserved)
        for horizon in (0.5, 3.0, 17.0):
            avg = expectation(time_averaged_state(plan, state, horizon), conserved)
            assert avg == pytest.approx(base, abs=1e-10)

    def test_short_horizon_continuity(self, chain5):
        vols = build(chain5, range(5))
        plan = make_plan(one_sector(vols))
        state = initial_state(vols)
        a = embed(vols.currents[1], vols.sites, vols.dims)
        scale = op_norm(a) * (1.0 + op_norm(dense_generator(vols)))
        avg = expectation(time_averaged_state(plan, state, 1e-6), a)
        assert abs(avg - expectation(state, a)) <= 1e-6 * scale

    def test_qubit_pauli_average_vanishes(self):
        plan = oracles.dense_plan(DenseOperator((0,), (2,), 0.5 * SZ))
        state = DenseOperator((0,), (2,), np.eye(2, dtype=complex) / 2.0)
        a = DenseOperator((0,), (2,), SX)
        for horizon in (0.1, 1.0, 10.0):
            avg = expectation(time_averaged_state(plan, state, horizon), a)
            assert abs(avg) <= 1e-12

    def test_kernel_exact_at_every_bohr_frequency(self):
        # a qubit with splitting x averaged over T = 1 keeps K(x)/2 as its
        # coherence, K(x) = (e^{ix} - 1)/(ix): compared with the Taylor
        # series where the closed form cancels, and with the closed form
        # where it does not
        state = DenseOperator((0,), (2,), np.full((2, 2), 0.5, dtype=complex))
        for x in (1e-14, 1e-10, 1e-8, 1e-6, 1e-4, 1e-3, 1.0, 2.5, 10.0, 1e3):
            plan = oracles.dense_plan(DenseOperator((0,), (2,), np.diag([0.0, x])))
            got = 2.0 * time_averaged_state(plan, state, 1.0).matrix[0, 1]
            if x <= 1e-3:
                want = sum((1j * x) ** n / math.factorial(n + 1) for n in range(5))
            else:
                want = (np.exp(1j * x) - 1.0) / (1j * x)
            assert abs(got - want) <= 1e-15, x

    def test_matches_simpson_quadrature(self, chain5):
        vols = build(chain5, range(5))
        plan = make_plan(one_sector(vols))
        state = initial_state(vols)
        a = embed(vols.currents[1], vols.sites, vols.dims)
        spectral_avg = expectation(time_averaged_state(plan, state, 2.5), a)
        quad_avg = oracles.time_avg_expectation_quadrature(vols, state, a, 2.5,
                                                           panels=160, plan=plan)
        # composite Simpson error ~ (T/panels)^4 * ||d^4/dt^4|| / 180
        step = 2.5 / 160
        quad_err = step**4 * 2.5 * (op_norm(dense_generator(vols)) ** 4) * op_norm(a)
        assert abs(spectral_avg - quad_avg) <= max(quad_err, 1e-9)

    def test_averaged_state_is_a_state(self, chain5):
        vols = build(chain5, range(5))
        plan = make_plan(one_sector(vols))
        averaged = time_averaged_state(plan, initial_state(vols), 7.0)
        assert np.trace(averaged.matrix).real == pytest.approx(1.0, abs=1e-10)
        assert np.min(opalg.eigenvalues(averaged.matrix)) >= -1e-10

    def test_nonpositive_horizon_rejected(self, chain5):
        vols = build(chain5, range(5))
        w_op = embed(vols.W, vols.sites, vols.dims)
        with pytest.raises(ValueError):
            time_averaged_state(make_plan(one_sector(vols)), initial_state(vols), 0.0)

    @pytest.mark.parametrize("horizons", [(0.0,), (1.0, -2.0)], ids=["zero", "negative"])
    def test_horizon_reports_refuse_a_nonpositive_horizon(self, chain5, horizons):
        with pytest.raises(ValueError, match="horizon must be > 0"):
            horizon_reports(build(chain5, range(5)), horizons)


EPS = np.finfo(float).eps
KERNEL_POINTS = (0.0, 1e-300, -1e-300, 1e-12, -1e-12, 1e-6, -1e-6, 1.0, -1.0, math.pi,
                 1e3, -1e3, 1e6, -1e6)


class TestHorizonKernels:
    """The sine/cosine form of K(x) = (e^{ix} - 1)/(ix)."""

    @staticmethod
    def _exact(x: float):
        with mpmath.workdps(50):
            if x == 0.0:
                return mpmath.mpc(1)
            return mpmath.expm1(1j * mpmath.mpf(x)) / (1j * mpmath.mpf(x))

    @pytest.mark.parametrize("x", KERNEL_POINTS)
    def test_matches_50_digits(self, x):
        # at the same double x, each component within 4 eps of |K|
        (kernel,) = _horizon_kernels(np.array([0.5 * x]))
        exact = self._exact(x)
        with mpmath.workdps(50):
            assert abs(kernel.real - exact.real) <= 4 * EPS * abs(exact)
            assert abs(kernel.imag - exact.imag) <= 4 * EPS * abs(exact)

    def test_relative_accuracy_on_a_grid(self):
        # the complex form's np.sinc rounds x / (2 pi) before taking the sine,
        # so near the zeros of sin(x/2) at large x it keeps only its absolute
        # accuracy; the sine/cosine form keeps a relative one
        rng = np.random.default_rng(0)
        x = np.concatenate([np.logspace(-8.0, 4.0, 100), -np.logspace(-8.0, 4.0, 100),
                            rng.uniform(-1e6, 1e6, 200)])
        kernels = _horizon_kernels(0.5 * x)
        for xi, kernel in zip(x, kernels):
            exact = self._exact(float(xi))
            with mpmath.workdps(50):
                assert abs(kernel - exact) <= 4 * EPS * abs(exact)
        # |K| <= 1: both forms agree to a few eps absolute
        assert np.max(np.abs(kernels - oracles.averaging_kernel(x))) <= 4 * EPS

    def test_fills_the_rows_in_place(self):
        # 16 bytes per frequency for K, 8 each for s and c, and the one-byte mask
        # of nonzero frequencies: 4.1 rows of 8 bytes; K is c sinc + i s sinc to
        # the last bit
        half = np.random.default_rng(1).uniform(-1e3, 1e3, 1 << 17)
        half[:5] = 0.0
        kernels, peak = traced_peak(lambda: _horizon_kernels(half))
        assert peak <= 4 * half.nbytes + half.size + 16384
        s, c = np.sin(half), np.cos(half)
        sinc = np.divide(s, half, out=np.ones_like(half), where=half != 0)
        assert kernels.dtype == np.complex128
        assert kernels.tobytes() == (c * sinc + 1j * (s * sinc)).tobytes()

    def test_degenerate_spectrum(self, decoupled_model):
        # field terms only: H_B is diagonal with exactly repeated eigenvalues,
        # so many Bohr frequencies are exactly zero
        vols = build(decoupled_model, (0, 1, 2))
        (sector,) = make_plan(one_sector(vols)).sectors
        w = sector.eigenvalues
        half = 0.5 * 7.0 * (w[None, :] - w[:, None])
        assert np.count_nonzero(half == 0.0) > vols.dim
        kernels = _horizon_kernels(half)
        assert np.all(np.isfinite(kernels))
        np.testing.assert_array_equal(kernels[half == 0.0], 1.0 + 0.0j)
        # every basis state is its own sector of the diagonal terms, so the
        # sector route keeps no Bohr frequency at all
        assert len(vols.sectors) == vols.dim
        for v in (one_sector(vols), vols):
            for report, _ in horizon_reports(v, (1e-3, 7.0, 1e6)):
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
        vols = one_sector(build(spec, range(5)))
        rng = np.random.default_rng(11)
        local = {"mid": DenseOperator((2,), (2,), SX),
                 "pair": DenseOperator((0, 3), (2, 2), random_hermitian(rng, 4)),
                 "left": DenseOperator((0, 1), (2, 2), np.kron(SZ, SY) + np.kron(SY, SZ))}
        lifted = {k: embed(x, vols.sites, vols.dims) for k, x in local.items()}
        horizons = (0.5, 3.0, 40.0)
        for (rep, avg), (rep_l, avg_l) in zip(
                horizon_reports(vols, horizons, observables=local),
                horizon_reports(vols, horizons, observables=lifted)):
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
    def test_no_reservoir_leaves_the_plan_intact(self, monkeypatch):
        # validate refuses such a model, but the library takes it: the state is the
        # normalized identity, whose image of the basis must not be the basis itself,
        # which the contraction conjugates in place on a complex plan
        spec = ModelSpec({0: 2, 1: 2}, {0: 0, 1: 0},
                         (InteractionTerm((0, 1), np.kron(SX, SX) + np.kron(SZ, SZ)),
                          InteractionTerm((0,), 0.3 * SY)), 0.5, {})
        vols = build(spec, (0, 1))
        plan = make_plan(vols)
        ((sector,),) = (plan.sectors,)
        basis = sector.basis.copy()
        assert basis.dtype == np.complex128
        monkeypatch.setattr(thermo, "make_plan", lambda vols: plan)
        ((report, avg),) = horizon_reports(vols, (3.0,),
                                           observables={"z": DenseOperator((0,), (2,), SZ)})
        np.testing.assert_array_equal(sector.basis, basis)
        assert report.fluxes == {} and report.e == 0.0 and report.e_telescoped == 0.0
        assert abs(avg["z"]) <= 1e-15

    def test_an_operator_on_no_sites_is_not_rotated(self, chain5, monkeypatch):
        # reservoir 2 (sites 3, 4) has no site in the volume (1, 2), so no term of it
        # meets W: its current is the 1x1 zero on no sites, whose average is its entry
        vols = build(chain5, (1, 2))
        assert vols.currents[2].sites == () and vols.currents[2].matrix.tolist() == [[0.0]]
        assert vols.currents[1].sites == (1, 2) and vols.perturbation_current.sites == ()
        # each row block of a rotated operator is made from one panel image
        rotations = []
        kron_apply = opalg.kron_apply
        monkeypatch.setattr(opalg, "kron_apply",
                            lambda factors, sites, dims, v: rotations.append(v.shape)
                            or kron_apply(factors, sites, dims, v))
        obs = {"z": DenseOperator((1,), (2,), SZ)}
        ((report, avg),) = horizon_reports(vols, (5.0,), observables=obs)
        # per sector (two of 2 states, one 128-row block each, its panel padded to
        # D = 4 rows): the state, the current of reservoir 1 and the observable
        assert len(vols.sectors) == 2
        assert rotations == [(4, 2)] * len(vols.sectors) * (1 + 1 + len(obs))
        assert report.fluxes[2] == 0.0 and report.e_telescoped == report.e
        assert report.e == vols.betas[1] * report.fluxes[1]

    def test_decoupled_model_produces_nothing(self, decoupled_model):
        vols = build(decoupled_model, (0, 1, 2))
        report = entropy_report(vols, 5.0)
        assert all(abs(f) <= 1e-13 for f in report.fluxes.values())
        assert abs(report.e) <= 1e-13
        assert abs(report.e_telescoped) <= 1e-12

    def test_endpoint_route_nonnegative(self, chain5):
        vols = build(chain5, range(5))
        for horizon in (0.5, 2.0, 11.0, 60.0):
            report = entropy_report(vols, horizon)
            assert report.e_telescoped >= -1e-10 * vols.g_norm

    def test_three_site_chain_nonnegative(self, standard_chain):
        vols = one_sector(build(standard_chain, (0, 1, 2)))
        for report, _ in horizon_reports(vols, (0.3, 1.0, 5.0, 40.0)):
            assert report.e_telescoped >= -1e-10 * vols.g_norm

    def test_report_serialization(self, standard_chain):
        vols = build(standard_chain, (0, 1, 2))
        report = entropy_report(vols, 3.0)
        row = report.csv_row()
        assert len(row) == 1 + 2 + 4
        assert row[0] == 3.0

    def test_flux_route_matches_endpoint_route(self, chain5):
        # against G's weights in the endpoint form (1/T)(<G(T)> - <G>), which the
        # library does not form
        vols = one_sector(build(chain5, range(5)))
        assert not any(np.any(b.matrix) for b in vols.B_a.values())
        horizons = (1.0, 10.0)
        endpoint = oracles.packed_horizon_reports(vols, horizons, make_plan(vols))
        for (report, _), (ref, _) in zip(horizon_reports(vols, horizons), endpoint):
            assert abs(report.e_telescoped - ref.e_telescoped) <= 1e-8 * max(1.0, abs(report.e))
            assert report.e_telescoped == report.e   # no perturbation: bitwise

    def test_perturbation_away_from_the_interface_adds_no_rotation(self, monkeypatch):
        # W of the end-S chain is on (0, 1); a family on (3, 4) and 4 commutes with it,
        # so e_telescoped is e and the operators rotated are those of the bare chain
        entry = (frozenset(range(5)),
                 (InteractionTerm((3, 4), 0.3 * np.kron(SX, SX)), InteractionTerm((4,), 0.25 * SZ)))
        spec = end_chain(5, anis=0.3)
        rotated = []   # one panel image per row block of a rotated operator
        kron_apply = opalg.kron_apply
        monkeypatch.setattr(opalg, "kron_apply",
                            lambda factors, sites, dims, v: rotated.append(v.shape)
                            or kron_apply(factors, sites, dims, v))
        counts = []
        for family in (None, PerturbationFamily((entry,), bound_K=1.0)):
            vols = build(spec, range(5), family)
            rotated.clear()
            for report, _ in horizon_reports(vols, (0.5, 4.0, 100.0)):
                assert report.e_telescoped == report.e
            counts.append(len(rotated))
        assert vols.perturbation_current.sites == ()
        assert any(np.any(b.matrix) for b in vols.B_a.values())
        # the state and the one current, per parity sector
        assert counts == [2 * 2, 2 * 2]

    def test_equal_temperature_entropy_decays(self):
        spec = make_chain(4, {0: 1, 1: 0, 2: 0, 3: 2}, {1: 1.0, 2: 1.0},
                          coup=0.8075, field=0.2753, anis=0.2166)
        vols = one_sector(build(spec, range(4)))
        values = {rep.horizon: rep.e_telescoped
                  for rep, _ in horizon_reports(vols, (5.0, 10.0, 20.0, 40.0, 80.0))}
        for t in (5.0, 10.0, 20.0, 40.0):
            assert (abs(values[2 * t]) <= 0.67 * abs(values[t])
                    or (abs(values[t]) < 1e-9 and abs(values[2 * t]) < 1e-9))

    def test_sum_rule_equals_interface_endpoint_difference(self, chain5):
        vols = one_sector(build(chain5, range(5)))
        plan = make_plan(vols)
        sigma = initial_state(vols)
        horizons = (1.0, 7.0, 30.0)
        for horizon, (report, _) in zip(horizons, horizon_reports(vols, horizons)):
            w_op = embed(vols.W, vols.sites, vols.dims)
            w_end = exact_evolve(plan, w_op, horizon)
            endpoint = -(expectation(sigma, w_end) - expectation(sigma, w_op)) / horizon
            assert abs(report.sum_rule_residual - endpoint) <= 1e-10
            assert abs(report.sum_rule_residual) <= report.tol_sum_rule + 1e-10

    def test_fundamental_theorem_identity(self, chain5):
        vols = build(chain5, range(5))
        h_b = dense_generator(vols)
        plan = make_plan(one_sector(vols))
        sigma = initial_state(vols)
        horizon = 4.0
        averaged = time_averaged_state(plan, sigma, horizon)
        g = oracles.exponent_operator(vols)
        comm = 1j * (h_b.matrix @ g.matrix - g.matrix @ h_b.matrix)
        lhs = float(np.real(np.trace(averaged.matrix @ comm)))
        g_end = exact_evolve(plan, g, horizon)
        rhs = (expectation(sigma, g_end) - expectation(sigma, g)) / horizon
        scale = max(1.0, op_norm(g))
        assert abs(lhs - rhs) <= 1e-8 * scale

    def test_perturbed_volume_still_nonnegative(self, chain5):
        entry = (frozenset(range(5)),
                 (InteractionTerm((0, 1), 0.4 * np.kron(SX, SX)),
                  InteractionTerm((4,), 0.3 * SZ)))
        family = PerturbationFamily((entry,), bound_K=1.5)
        vols = build(chain5, range(5), family)
        assert any(np.any(b.matrix) for b in vols.B_a.values())
        for horizon in (0.7, 6.0, 25.0):
            report = entropy_report(vols, horizon)
            assert report.e_telescoped >= -1e-10 * vols.g_norm

    def test_perturbed_chain_matches_the_evolution_oracle(self, chain5):
        # B_1 = 0.4 sigma_z(1) does not commute with the interface bond (1, 2), so
        # e and e_telescoped differ: each against its own full-D route on the parity
        # sectors, the fluxes from the averaged state and e_telescoped from G evolved
        # to the endpoint, whose difference (<G(T)> - <G>) / T loses about
        # eps ||G|| / T to cancellation at T = 1e-3
        entry = (frozenset(range(5)),
                 (InteractionTerm((1,), 0.4 * SZ),
                  InteractionTerm((3, 4), 0.3 * np.kron(SZ, SZ))))
        vols = build(chain5, range(5), PerturbationFamily((entry,), bound_K=1.5))
        plan = make_plan(vols)
        assert len(plan.sectors) == 2
        sigma = initial_state(vols)
        horizons = (1e-3, 1.0, 1e6)
        for horizon, (report, _) in zip(horizons, horizon_reports(vols, horizons)):
            fluxes, e_tel = oracles.horizon_values(vols, plan, sigma, horizon)
            for a, flux in fluxes.items():
                assert abs(report.fluxes[a] - flux) <= 1e-12 * (1.0 + abs(flux))
            assert abs(report.e_telescoped - e_tel) <= 1e-11 * (1.0 + abs(e_tel))
            assert abs(report.e - report.e_telescoped) >= 0.3 * report.e_telescoped > 0.0

    def test_three_site_volumes_of_a_five_site_chain(self):
        # volumes (1, 2, 3) and (2, 3, 4) have the same dimension, and two fields
        # give one volume the same sectors: each report is of its own build
        spec = make_chain(5, {0: 1, 1: 1, 2: 0, 3: 2, 4: 2}, {1: 2.0, 2: 1.0},
                          anis=0.3, field=0.7)
        spec = ModelSpec(spec.sites, spec.regions,
                         spec.terms + (InteractionTerm((4,), 0.9 * SZ),), spec.lam, spec.betas)
        ((report, _),) = horizon_reports(build(spec, (1, 2, 3)), (5.0,))
        assert report.e == pytest.approx(0.24102, abs=1e-5)
        assignment = {0: 1, 1: 1, 2: 0, 3: 2, 4: 2}
        vols = build(make_chain(5, assignment, {1: 2.0, 2: 1.0}, field=0.7), (1, 2, 3))
        ((report, _),) = horizon_reports(vols, (5.0,))
        assert report.e == pytest.approx(0.039137, abs=1e-6)
        assert heat_direction_check(report, vols.betas).lhs == (2.0 - 1.0) * report.fluxes[1]
        # the dense route: one sector whose block is the whole H_B
        ((dense, _),) = horizon_reports(one_sector(vols), (5.0,))
        assert dense.e == pytest.approx(report.e, abs=1e-12)


class TestHeatDirection:
    def test_equal_betas_reduces_to_slack(self):
        spec = make_chain(4, {0: 1, 1: 0, 2: 0, 3: 2}, {1: 1.0, 2: 1.0})
        vols = build(spec, range(4))
        report = heat_direction_check(entropy_report(vols, 10.0), vols.betas)
        assert report.lhs == 0.0
        assert report.ok

    def test_four_site_chain_hot_to_cold(self):
        spec = make_chain(4, {0: 1, 1: 0, 2: 0, 3: 2}, {1: 2.0, 2: 1.0})
        vols = build(spec, range(4))
        fluxes = entropy_report(vols, 50.0)
        report = heat_direction_check(fluxes, vols.betas)
        assert report.ok and report.horizon == 50.0
        # reservoir 1 is the cold one; at a long horizon energy flows into it
        assert fluxes.fluxes[1] > 0.0

    def test_decoupled_holds_with_full_slack(self, decoupled_model):
        vols = build(decoupled_model, (0, 1, 2))
        fluxes = entropy_report(vols, 5.0)
        report = heat_direction_check(fluxes, vols.betas)
        assert abs(fluxes.fluxes[1]) <= 1e-13
        assert report.ok

    def test_three_reservoirs_rejected(self):
        spec = make_chain(4, {0: 1, 1: 0, 2: 2, 3: 3}, {1: 1.0, 2: 1.0, 3: 1.0})
        vols = build(spec, range(4))
        with pytest.raises(ValueError, match="exactly 2 reservoirs, got 3"):
            heat_direction_check(entropy_report(vols, 5.0), vols.betas)

    def test_judges_the_report_it_is_given_with_no_solve(self, eigensolves):
        spec = make_chain(4, {0: 1, 1: 0, 2: 0, 3: 2}, {1: 2.0, 2: 1.0})
        vols = build(spec, range(4))
        (short, _), (long, _) = horizon_reports(vols, (0.5, 50.0))
        assert eigensolves
        eigensolves.clear()
        checks = [heat_direction_check(r, vols.betas) for r in (short, long)]
        assert eigensolves == []
        assert [c.horizon for c in checks] == [0.5, 50.0]
        assert [c.lhs for c in checks] == [short.fluxes[1], long.fluxes[1]]   # beta_1 - beta_2 = 1


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

    @pytest.mark.parametrize("u, match", [
        (np.diag([2.0, 1.0]).astype(complex), "not unitary"),
        (np.eye(4, dtype=complex), "does not match A"),
        (np.eye(2, dtype=complex)[:, :1], "does not match A"),
    ], ids=["not-unitary", "larger", "not-square"])
    def test_u_refused(self, u, match):
        with pytest.raises(ValueError, match=match):
            klein_check(SX, u, lambda s: s)

    @pytest.mark.parametrize("a, u", [
        (np.zeros((0, 0)), np.zeros((0, 0))),
        (np.zeros((0, 0), complex), np.zeros((0, 0), complex)),
        (np.zeros((0, 0)), np.eye(1)),
    ], ids=["real", "complex", "empty-A"])
    def test_empty_pair_refused(self, a, u):
        # refused by its own message, before the unitarity test reduces over no entry
        with pytest.raises(ValueError, match=r"refuses an empty A or U \(shapes \(0, 0\), "):
            klein_check(a, u, lambda s: s)
