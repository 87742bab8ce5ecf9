import dataclasses
import gc
import math
import warnings
import weakref
from collections import Counter

import mpmath
import numpy as np
import pytest

from nesslab import (
    DenseOperator,
    InteractionTerm,
    ModelSpec,
    VolumeOperators,
    build,
    convergence_sweep,
    dyson_evolve,
    embed,
    exact_evolve,
    make_plan,
    op_norm,
    series_radius,
    spectral,
)
from nesslab import dynamics
from nesslab.dynamics import derivation_growth_bound
from nesslab.model import PerturbationFamily
from nesslab import opalg

import oracles
from conftest import (SX, SY, SZ, dense_generator, derivation, make_chain, one_sector,
                      random_hermitian, random_unitary, traced_peak)

OMEGA = 1.3


def qubit_model(omega=OMEGA):
    return ModelSpec({0: 2}, {0: 0},
                     (InteractionTerm((0,), (omega / 2.0) * SZ),), 0.5, {})


def qubit_plan(omega=OMEGA):
    return oracles.dense_plan(DenseOperator((0,), (2,), (omega / 2.0) * SZ))


class TestDerivation:
    def test_identity_maps_to_zero(self, standard_chain):
        one = DenseOperator((0, 1, 2), (2, 2, 2), np.eye(8))
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
        h_b = dense_generator(vols)
        evolved = exact_evolve(make_plan(one_sector(vols)), a, 1.3)
        out = derivation(chain5, range(5), evolved)
        h = h_b.matrix
        expected = 1j * (h @ evolved.matrix - evolved.matrix @ h)
        assert np.max(np.abs(out.matrix - expected)) <= 1e-12

    def test_conjugated_operator_uses_full_generator(self, chain5):
        vols = build(chain5, range(5))
        a = embed(DenseOperator((2,), (2,), SX), vols.sites, vols.dims)
        u = random_unitary(np.random.default_rng(5), vols.dim)
        conj = a.with_matrix(opalg.rotate_back(u, a.matrix))
        out = derivation(chain5, range(5), conj)
        h = dense_generator(vols).matrix
        expected = 1j * (h @ conj.matrix - conj.matrix @ h)
        assert np.max(np.abs(out.matrix - expected)) <= 1e-12

    def test_support_outside_volume_rejected(self, chain5):
        a = DenseOperator((4,), (2,), SX)
        with pytest.raises(ValueError):
            derivation(chain5, (1, 2, 3), a)


def _dm_chain():
    """chain5 with anisotropy plus a Dzyaloshinskii-Moriya bond, which is imaginary."""
    spec = make_chain(5, {0: 1, 1: 1, 2: 0, 3: 2, 4: 2}, {1: 2.0, 2: 1.0}, anis=0.3)
    dm = InteractionTerm((1, 2), 0.4 * (np.kron(SX, SY) - np.kron(SY, SX)))
    return ModelSpec(spec.sites, spec.regions, spec.terms + (dm,), spec.lam, spec.betas)


class TestDerivationStructure:
    """r_m = [H_B, r_{m-1}] alternates between Hermitian and anti-Hermitian, so
    each order is one product H_B r and its adjoint."""

    ORDER = 6

    @pytest.fixture(params=["real", "complex"])
    def case(self, request):
        if request.param == "real":
            spec = make_chain(5, {0: 1, 1: 1, 2: 0, 3: 2, 4: 2}, {1: 2.0, 2: 1.0}, anis=0.3)
            local = np.kron(SZ, SX) + 0.5 * np.kron(SX, SX)
        else:
            spec = _dm_chain()
            local = np.kron(SZ, SY) + 0.5 * np.kron(SY, SX)
        h_b = dense_generator(build(spec, range(5)))
        return request.param, h_b, embed(DenseOperator((1, 2), (2, 2), local),
                                         h_b.sites, h_b.dims)

    def test_commutators_are_exactly_hermitian_or_anti_hermitian(self, case):
        kind, h_b, a = case
        commutators = [blocks[0, 0] for blocks in dynamics._commutator_blocks(
            [h_b.matrix], {(0, 0): a.matrix}, self.ORDER)]
        assert len(commutators) == self.ORDER
        for m, r in enumerate(commutators, start=1):
            sign = -1.0 if m % 2 else 1.0
            assert np.array_equal(r.conj().T, sign * r), m
            assert np.any(r)
            if kind == "real":
                assert r.dtype == np.float64

    def test_one_volume_sized_product_per_order(self, case, monkeypatch):
        _, h_b, a = case
        shapes = []
        product = opalg.matmul

        def counted(x, y):
            shapes.append((np.shape(x), np.shape(y)))
            return product(x, y)

        monkeypatch.setattr(opalg, "matmul", counted)
        powers = self.powers(h_b, a)
        square = (h_b.dim, h_b.dim)
        assert shapes == [(square, square)] * self.ORDER
        for power in powers:
            # delta^m(a) = i^m r_m is exactly Hermitian
            assert np.array_equal(power.conj().T, power)

    def test_powers_match_the_complex_oracle(self, case):
        _, h_b, a = case
        for power, reference in zip(self.powers(h_b, a),
                                    oracles.derivation_powers(h_b, a, self.ORDER)):
            scale = max(1.0, float(np.max(np.abs(reference))))
            assert np.max(np.abs(power - reference)) <= 1e-12 * scale

    def powers(self, h_b, a):
        """delta^m(a) = i^m r_m, m <= ORDER, for the r_m of the one-sector step."""
        return [dynamics._I_POWERS[m % 4] * blocks[0, 0] for m, blocks in enumerate(
            dynamics._commutator_blocks([h_b.matrix], {(0, 0): a.matrix}, self.ORDER),
            start=1)]


class TestSelfadjointObservable:
    """The series and the sweep are defined for selfadjoint observables only."""

    SKEW = DenseOperator((1, 2), (2, 2), np.kron([[1.0, 0.7], [0.1, -0.3]],
                                                 [[0.2, 1.0], [0.4, 0.5]]))

    def test_sweep_refuses_before_any_build(self, chain5, monkeypatch):
        built = []
        monkeypatch.setattr("nesslab.volume.build", lambda *a, **k: built.append(a))
        with pytest.raises(ValueError, match="Hermitian"):
            convergence_sweep(chain5, [(1, 2, 3), (0, 1, 2, 3)], self.SKEW, [0.1])
        assert built == []

    def test_dyson_evolve_refuses(self, chain5):
        with pytest.raises(ValueError, match="Hermitian"):
            dyson_evolve(chain5, range(5), self.SKEW, 0.01)


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
        plan = make_plan(one_sector(vols))
        rng = np.random.default_rng(2)
        a = embed(DenseOperator((2,), (2,), random_hermitian(rng, 2)),
                  vols.sites, vols.dims)
        two_step = exact_evolve(plan, exact_evolve(plan, a, 0.7), 0.55)
        one_step = exact_evolve(plan, a, 1.25)
        assert op_norm(two_step - one_step) <= 1e-9

    def test_preserves_hermiticity_spectrum_norm(self, chain5):
        vols = build(chain5, range(5))
        plan = make_plan(one_sector(vols))
        rng = np.random.default_rng(4)
        a = DenseOperator(vols.sites, vols.dims, random_hermitian(rng, vols.dim))
        out = exact_evolve(plan, a, 2.2)
        assert opalg.is_hermitian_matrix(out.matrix)
        assert op_norm(out) == pytest.approx(op_norm(a), abs=1e-10)
        np.testing.assert_allclose(np.linalg.eigvalsh(out.matrix),
                                   np.linalg.eigvalsh(a.matrix), atol=1e-10)

    def test_derivative_at_zero_matches_derivation(self, standard_chain):
        vols = build(standard_chain, (0, 1, 2))
        plan = make_plan(one_sector(vols))
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
        with pytest.raises(ValueError):
            exact_evolve(plan, DenseOperator((0,), (3,), np.eye(3)), 0.1)

    def test_gathers_the_parity_blocks_of_a_volume_operator(self, chain5):
        vols = build(chain5, range(5))
        a = embed(DenseOperator((2,), (2,), SX), vols.sites, vols.dims)
        parity = dynamics._embedded_blocks(vols.sectors, vols.sites, vols.dims, a)
        assert set(parity) == {(0, 1)}
        np.testing.assert_array_equal(parity[0, 1], a.matrix[np.ix_(*vols.sectors)])


class TestMakePlan:
    def test_checks_hermiticity_once(self, chain5, monkeypatch):
        # one opalg.hermitian_matrix per sector: its exact comparison alone for a
        # bitwise Hermitian block, and one tolerance test more for any other
        checks, tolerance = [], []

        def counted(name, record):
            fn = getattr(opalg, name)
            monkeypatch.setattr(opalg, name, lambda mat, *args, **kwargs: (
                record.append(np.shape(opalg.as_matrix(mat))) or fn(mat, *args, **kwargs)))

        counted("hermitian_matrix", checks)
        counted("is_hermitian_matrix", tolerance)
        vols = one_sector(build(chain5, range(5)))
        h_b = dense_generator(vols)
        off = np.triu(np.full((32, 32), 1e-14), 1)
        skewed = dataclasses.replace(vols, generator_terms=(h_b.with_matrix(h_b.matrix + off),))
        for generator, expected, tested in [
                (vols, [(32, 32)], []), (skewed, [(32, 32)], [(32, 32)])]:
            checks.clear()
            tolerance.clear()
            make_plan(generator)
            assert (checks, tolerance) == (expected, tested)

    def test_solves_the_build_blocks_uncopied(self, chain5, monkeypatch):
        # the blocks H_B_blocks() assembles, each solved in place as it is: a
        # block outlives its solve as its sector's basis alone
        if opalg._lapack_eigh() is None:
            pytest.skip("no ILP64 OpenBLAS next to numpy: numpy's eigh solves a copy")
        vols = build(chain5, range(5))
        assembled, seen = [], []
        blocks_of, eigh = VolumeOperators.H_B_blocks, opalg._eigh

        def assemble(self):
            out = blocks_of(self)
            assembled.extend(weakref.ref(h) for h in out)
            return out

        def solve(a, vectors):
            seen.append(([a is ref() for ref in assembled], [ref() is None for ref in assembled]))
            return eigh(a, vectors)
        monkeypatch.setattr(VolumeOperators, "H_B_blocks", assemble)
        monkeypatch.setattr(opalg, "_eigh", solve)
        plan = make_plan(vols)
        # per solve: which assembled block it is given, and which blocks are freed
        assert seen == [([True, False], [False, False]), ([False, True], [False, False])]
        assert [ref() for ref in assembled] == [s.basis.base for s in plan.sectors]
        for sector, block in zip(plan.sectors, blocks_of(vols)):
            w, v = opalg.spectral(block)
            assert np.array_equal(sector.eigenvalues, w) and np.array_equal(sector.basis, v)
        del plan, sector
        gc.collect()
        assert [ref() for ref in assembled] == [None, None]

    def test_non_hermitian_generator_refused(self):
        # a build's terms are Hermitian; one put in by hand reaches the solve
        vols = one_sector(build(qubit_model(), (0,)))
        term = DenseOperator((0,), (2,), np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError):
            make_plan(dataclasses.replace(vols, generator_terms=(term,)))

    def test_keeps_the_volume_not_the_generator(self, chain5):
        vols = build(chain5, range(5))
        terms = [weakref.ref(op) for op in vols.generator_terms]
        plan = make_plan(vols)
        del vols
        gc.collect()
        assert [term() for term in terms] == [None] * len(terms)
        assert (plan.sites, plan.dims) == (tuple(range(5)), (2,) * 5)


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
        exact = exact_evolve(make_plan(vols), embed(a, vols.sites, vols.dims), t)
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

    def test_growth_bound_past_the_largest_float_is_inf(self):
        # ||Phi||_lam = e^{3 lam} on one 4-site term: 2 ||Phi||_lam / lam squared overflows
        term = InteractionTerm((0, 1, 2, 3), np.kron(np.kron(SX, SX), np.kron(SX, SX)))
        spec = ModelSpec({i: 2 for i in range(4)}, {0: 1, 1: 0, 2: 0, 3: 2}, (term,), 177.0,
                         {1: 1.0, 2: 2.0})
        a = DenseOperator((1,), (2,), SX)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert derivation_growth_bound(spec, a, 2) == math.inf
            assert derivation_growth_bound(spec, a, 0) == math.exp(177.0)

    def test_growth_bound_whose_factorial_overflows_is_finite(self):
        # 171! is past the largest float, but with 2 ||Phi||_lam / lam = 1/2 the bound
        # e^0.5 171! 2^-171 is about 1e257
        a = DenseOperator((0,), (2,), SX)
        bound = derivation_growth_bound(qubit_model(omega=0.25), a, 171)
        exact = mpmath.e ** 0.5 * mpmath.factorial(171) * mpmath.mpf(0.5) ** 171
        assert bound == pytest.approx(float(exact), rel=1e-12)

    @pytest.mark.parametrize("zero", ["observable", "interaction"])
    def test_growth_bound_with_a_zero_factor_is_zero(self, standard_chain, zero):
        # 171! alone is past the largest float
        if zero == "observable":
            spec, a = standard_chain, DenseOperator((1,), (2,), np.zeros((2, 2)))
        else:
            spec, a = ModelSpec({0: 2}, {0: 0}, (), 0.5, {}), DenseOperator((0,), (2,), SX)
        assert derivation_growth_bound(spec, a, 171) == 0.0

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

    def test_runs_on_the_sector_blocks(self):
        # the real 10-site chain, two parity sectors of 512: the series runs on the
        # build's blocks and only the partial sum is assembled to D x D; measured
        # 3.02 real D x D for sigma_z(5) at half the radius (7.55 with a dense H_B)
        spec = make_chain(10, {i: 0 if i == 5 else 1 if i < 5 else 2 for i in range(10)},
                          {1: 2.0, 2: 1.0}, anis=0.3)
        t = 0.5 * series_radius(spec)
        (out, bound), peak = traced_peak(lambda: dyson_evolve(
            spec, range(10), DenseOperator((5,), (2,), SZ), t))
        assert out.dim == 1024 and bound < 1e-3
        assert peak <= 5.0 * 8 * 1024 ** 2

    def test_perturbation_shrinks_radius(self, chain5):
        entry = (frozenset(range(5)), (InteractionTerm((0,), 0.5 * SZ),))
        family = PerturbationFamily((entry,), bound_K=0.5)
        assert series_radius(chain5, family) < series_radius(chain5)


class TestConvergenceSweep:
    def test_termfree_enlargement_gives_zero(self):
        # site 3 carries no terms at all: adding it changes nothing
        sites = {i: 2 for i in range(4)}
        regions = {0: 1, 1: 0, 2: 2, 3: 2}
        terms = (InteractionTerm((0,), 0.5 * SZ), InteractionTerm((0, 1), np.kron(SX, SX)),
                 InteractionTerm((1,), 0.5 * SZ), InteractionTerm((2,), 0.5 * SZ),
                 InteractionTerm((1, 2), np.kron(SX, SX)))
        spec = ModelSpec(sites, regions, terms, 0.5, {1: 2.0, 2: 1.0})
        a = DenseOperator((1,), (2,), SX)
        report = convergence_sweep(spec, [(0, 1, 2), (0, 1, 2, 3)], a, [0.2, 0.5])
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
                                   a, t_grid)
        sups = [max(r.discrepancy for r in report.evolution_rows if r.pair_index == k)
                for k in (0, 1)]
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
            ((frozenset(small), (InteractionTerm((3,), 0.4 * SZ),)),
             (frozenset(full), (InteractionTerm((4,), 0.4 * SZ),))),
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
        self._check_rows_against_standalone_routes(chain5)

    def test_rows_match_standalone_routes_on_a_complex_outer_site(self, chain5):
        # a sigma_y field on site 4 alone: the first volume is real and the
        # others complex, so the first order rows lift real commutators and
        # subtract complex ones from them
        spec = ModelSpec(chain5.sites, chain5.regions,
                         chain5.terms + (InteractionTerm((4,), 0.3 * SY),), chain5.lam,
                         chain5.betas)
        self._check_rows_against_standalone_routes(spec)

    @staticmethod
    def _check_rows_against_standalone_routes(chain5):
        a = DenseOperator((2,), (2,), SX)
        exhaustion = [(1, 2, 3), (1, 2, 3, 4), tuple(range(5))]
        radius = series_radius(chain5)
        t_grid = [0.3 * radius, 0.7 * radius, 1.5 * radius]
        report = convergence_sweep(chain5, exhaustion, a, t_grid)
        inside = [t for t in t_grid if t < radius]
        assert [(r.volume_index, r.t) for r in report.dyson_rows] == [
            (i, t) for i in range(len(exhaustion)) for t in inside]
        for row in report.dyson_rows:
            vols = build(chain5, exhaustion[row.volume_index])
            a_v = embed(a, vols.sites, vols.dims)
            approx, bound = dyson_evolve(chain5, vols.sites, a, row.t)
            exact = exact_evolve(make_plan(vols), a_v, row.t)
            assert abs(row.error - op_norm(approx - exact)) <= 1e-12
            assert row.bound == bound
        powers = []
        for sites in exhaustion:
            cur = embed(a, sites, chain5.dims_for(sites))
            per_volume = []
            for _ in range(dynamics.SWEEP_ORDERS):
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
                                   [0.2 * radius, 0.6 * radius, 1.5 * radius])
        order = dynamics.SERIES_ORDER
        envelope = op_norm(a) * math.exp(chain5.lam * len(a.sites))
        assert len(report.dyson_rows) == 6
        for row in report.dyson_rows:
            r = abs(row.t) / radius
            assert row.bound == pytest.approx(envelope * r ** (order + 1) / (1.0 - r),
                                              rel=1e-12)
            assert row.error <= row.bound

    def test_envelope_takes_no_volume_sized_solve(self, named_eigensolves):
        # The chain conserves the parity and sigma_x flips it. At each volume:
        # H_B's real eigh per sector at D/2, then one complex Gram solve at
        # D/2 per Dyson row and, past the first volume, per evolution row,
        # each an exactly Hermitian matrix with zero diagonal sector blocks.
        # The order rows vanish here and a zero matrix takes no solve. Nothing
        # is solved at the largest D, nor above 8 but at a sector dimension:
        # the envelope ||a|| is taken on a's own site.
        spec = make_chain(7, {0: 1, 1: 1, 2: 1, 3: 0, 4: 2, 5: 2, 6: 2}, {1: 2.0, 2: 1.0})
        a = DenseOperator((3,), (2,), SX)
        exhaustion = [tuple(range(1, 6)), tuple(range(6)), tuple(range(7))]
        radius = series_radius(spec)
        t_grid = [0.2 * radius, 0.5 * radius, 2.0 * radius]
        report = convergence_sweep(spec, exhaustion, a, t_grid)
        assert all(row.discrepancy == 0.0 for row in report.order_rows)
        expected = Counter()
        for i, sites in enumerate(exhaustion):
            half = spec.volume_dim(sites) // 2
            expected["eigh", half, "float64"] += 2
            expected["eigvalsh", half, "complex128"] += 2 + (len(t_grid) if i else 0)
        solves = Counter((name, dim, np.dtype(dtype).name)
                         for name, dim, dtype in named_eigensolves if dim > 8)
        assert solves == expected

    def test_real_chain_order_norms_solve_real(self, named_eigensolves):
        # Outside the radius there are no Dyson rows. Past the first volume,
        # each sector dimension D/2 sees H_B's two real eigh; each order row
        # outside the pair's light cone, real, through the Gram matrix of the
        # one stored off-diagonal sector block of its difference, which is
        # exactly antisymmetric (odd order) or symmetric (even order); and one
        # complex Gram solve per evolution row, which is exactly Hermitian. At D/2 = 4 of the first
        # volume only H_B is solved. The sweep reads neither ||W|| nor log Z,
        # so no interface or reservoir block is solved at dimension 8.
        # Nothing is solved at the largest D. The light cone of
        # sigma_x on site 2 reaches {1, 2, 3} after one order and the whole
        # middle volume after two: the bond (3, 4), then (0, 1), then (4, 5)
        # is the first term that tells the pair's volumes apart, so orders
        # below 2, 2 and 3 are exactly zero and take no solve.
        spec = make_chain(6, {0: 1, 1: 1, 2: 0, 3: 2, 4: 2, 5: 2}, {1: 2.0, 2: 1.0}, anis=0.3)
        a = DenseOperator((2,), (2,), SX)
        exhaustion = [(1, 2, 3), (1, 2, 3, 4), (0, 1, 2, 3, 4), tuple(range(6))]
        cones = [2, 2, 3]
        radius = series_radius(spec)
        t_grid = [2.0 * radius, 8.0 * radius]
        report = convergence_sweep(spec, exhaustion, a, t_grid)
        for row in report.order_rows:
            assert (row.discrepancy > 0.0) == (row.order >= cones[row.pair_index])
        expected = Counter()
        for sites, cone in zip(exhaustion[1:], cones):
            half = spec.volume_dim(sites) // 2
            expected["eigh", half, "float64"] += 2
            expected["eigvalsh", half, "float64"] += dynamics.SWEEP_ORDERS + 1 - cone
            expected["eigvalsh", half, "complex128"] += len(t_grid)
        solves = Counter((name, dim, np.dtype(dtype).name)
                         for name, dim, dtype in named_eigensolves if dim >= 8)
        assert solves == expected

    def test_outside_radius_grid_computes_only_order_powers(self, chain5, monkeypatch):
        from nesslab import dynamics
        orders = []
        real = dynamics._commutator_blocks

        def counting(h_blocks, blocks, order):
            orders.append(order)
            return real(h_blocks, blocks, order)

        monkeypatch.setattr(dynamics, "_commutator_blocks", counting)
        a = DenseOperator((2,), (2,), SX)
        exhaustion = [(1, 2, 3), (1, 2, 3, 4)]
        radius = series_radius(chain5)
        report = convergence_sweep(chain5, exhaustion, a, [2.0 * radius, 5.0 * radius])
        assert report.dyson_rows == ()
        assert orders == [4, 4]
        assert len(report.order_rows) == 4

    def test_peak_memory_is_a_few_volume_matrices(self):
        # volumes are processed in ascending order; only the previous one's
        # evolved observables and commutators are kept, and the twelve
        # series orders are never held at once. Measured: 14.2 complex DxD
        # at the largest D = 256 (24.3 when every volume's operators and
        # powers were kept)
        spec = make_chain(8, {0: 1, 1: 1, 2: 1, 3: 0, 4: 2, 5: 2, 6: 2, 7: 2},
                          {1: 2.0, 2: 1.0}, anis=0.3)
        a = DenseOperator((3,), (2,), SX)
        radius = series_radius(spec)
        exhaustion = [tuple(range(1, 6)), tuple(range(1, 7)), tuple(range(1, 8)),
                      tuple(range(8))]
        t_grid = [f * radius for f in (0.2, 0.5, 0.8, 2.0, 8.0)]
        report, peak = traced_peak(lambda: convergence_sweep(spec, exhaustion, a, t_grid))
        assert len(report.dyson_rows) == 3 * len(exhaustion)
        assert peak <= 16 * 16 * spec.volume_dim(exhaustion[-1]) ** 2

    def test_sector_blocks_keep_the_peak_below_eight_volume_matrices(self):
        # the case above: every volume-sized operator is held as its nonzero
        # sector blocks, here the one off-diagonal block of the parity-odd
        # sigma_x, so nothing of the largest D is held but H_B. Measured:
        # 5.0 complex DxD at D = 256 (14.4 with dense evolved operators,
        # commutators and series errors)
        spec = make_chain(8, {0: 1, 1: 1, 2: 1, 3: 0, 4: 2, 5: 2, 6: 2, 7: 2},
                          {1: 2.0, 2: 1.0}, anis=0.3)
        a = DenseOperator((3,), (2,), SX)
        radius = series_radius(spec)
        exhaustion = [tuple(range(1, 6)), tuple(range(1, 7)), tuple(range(1, 8)),
                      tuple(range(8))]
        t_grid = [f * radius for f in (0.2, 0.5, 0.8, 2.0, 8.0)]
        report, peak = traced_peak(lambda: convergence_sweep(spec, exhaustion, a, t_grid))
        assert len(report.dyson_rows) == 3 * len(exhaustion)
        assert peak <= 8 * 16 * spec.volume_dim(exhaustion[-1]) ** 2

    @pytest.fixture(scope="class")
    def ten_site_sweep(self):
        """The sweep of a 10-site parity chain up to D = 1024, with its
        tracemalloc peak in real DxD matrices of the largest volume."""
        spec = make_chain(10, {i: 0 if i == 5 else 1 if i < 5 else 2 for i in range(10)},
                          {1: 2.0, 2: 1.0}, anis=0.3)
        a = DenseOperator((5,), (2,), SX)
        exhaustion = [tuple(range(3, 7)), tuple(range(2, 8)), tuple(range(1, 9)),
                      tuple(range(10))]
        radius = series_radius(spec)
        t_grid = [f * radius for f in (0.2, 0.5, 0.8, 2.0, 8.0, 32.0)]
        report, peak = traced_peak(lambda: convergence_sweep(spec, exhaustion, a, t_grid))
        dim = spec.volume_dim(exhaustion[-1])
        assert dim == 1024
        assert len(report.evolution_rows) == 3 * len(t_grid)
        assert len(report.dyson_rows) == 3 * len(exhaustion)
        return peak / (8 * dim ** 2)

    def test_holds_one_time_at_a_time(self, ten_site_sweep):
        # each time is evolved, compared and dropped before the next, the
        # previous volume re-evolves its observable per time at its own sector
        # size, and a Gram norm holds no conjugate copy of its matrix. Measured:
        # 6.8 real DxD at D = 1024 (10.1 with every time's evolved operators held)
        assert ten_site_sweep <= 7.0

    def test_holds_no_dense_generator(self, ten_site_sweep):
        # each volume's H_B is dropped once its sector blocks are gathered, so
        # no dense H_B, the previous volume's included, is held through the
        # times and orders. Measured: 5.8 real DxD at D = 1024 (6.8 with it)
        assert ten_site_sweep <= 6.0

    def test_compares_outside_times_while_no_series_error_is_held(self, ten_site_sweep):
        # no series error is held while a time is compared, a Gram matrix is
        # formed by symmetric rank-k products of the real and imaginary parts,
        # a pair difference drops the smaller operator once gathered, and an
        # evolution weight is one temporary. Measured: 4.9 real DxD at
        # D = 1024 when the series errors were held but the times outside the
        # radius compared first (5.8 with the grid in order and the Gram
        # matrix a general product of a scaled copy and its conjugate)
        assert ten_site_sweep <= 5.6

    def test_holds_nothing_a_later_step_does_not_read(self, ten_site_sweep):
        # a Dyson row is taken entrywise from the rotated observable, so no
        # series error is held; H_B and the embedded observable are dropped
        # before the times; the largest volume keeps no commutators; and each
        # evolved block is freed as it is subtracted. Measured: 2.6 real DxD
        # at D = 1024 (4.9 with the series errors summed in the site basis)
        assert ten_site_sweep <= 3.2

    def test_parity_even_observable_norms_hold_one_copy(self):
        # sigma_z has the two diagonal sector blocks, so each pair, even order and
        # series error is normed per sector by op_norm, which solves a copy of a
        # bitwise Hermitian block. Measured: 3.67 real DxD at D = 512 (3.98 with a
        # tolerance test and the Hermitian part formed in an adjoint buffer)
        spec = make_chain(9, {i: 0 if i == 4 else 1 if i < 4 else 2 for i in range(9)},
                          {1: 2.0, 2: 1.0}, anis=0.3)
        a = DenseOperator((4,), (2,), SZ)
        exhaustion = [tuple(range(2, 7)), tuple(range(1, 8)), tuple(range(9))]
        t_grid = [f * series_radius(spec) for f in (0.2, 0.5, 0.8, 2.0, 8.0)]
        report, peak = traced_peak(lambda: convergence_sweep(spec, exhaustion, a, t_grid))
        assert len(report.dyson_rows) == 3 * len(exhaustion)
        assert peak <= 3.70 * 8 * spec.volume_dim(exhaustion[-1]) ** 2

    def test_largest_volume_works_at_the_sector_dimension(self, monkeypatch,
                                                          named_eigensolves):
        # On a parity chain the sweep's products and solves at the largest
        # volume are all at D/2: sigma_x has the one off-diagonal sector block
        # and H_B two diagonal ones, so each commutator order is two D/2
        # products (a quarter of the flops of one D product). They are the
        # rotation of sigma_x (two), two rotations back per time, two per
        # order of the SWEEP_ORDERS the order rows compare (a Dyson row is
        # entrywise in the eigenbasis), and the Gram products of each nonzero
        # norm: one for a real block (the order rows from 3 on: sigma_x on
        # site 3 meets the bond (5, 6) only at its third order), three for a
        # complex one (the evolution and Dyson rows); the solves are H_B's two
        # eigh and one Gram eigvalsh per nonzero norm. The previous volume, of
        # dimension D/2, works at D/4, so nothing else reaches D/2.
        shapes = []
        product = opalg.matmul

        def counted(x, y):
            shapes.append((np.shape(x), np.shape(y)))
            return product(x, y)

        monkeypatch.setattr(opalg, "matmul", counted)
        spec = make_chain(7, {0: 1, 1: 1, 2: 1, 3: 0, 4: 2, 5: 2, 6: 2}, {1: 2.0, 2: 1.0},
                          anis=0.3)
        a = DenseOperator((3,), (2,), SX)
        exhaustion = [tuple(range(1, 6)), tuple(range(6)), tuple(range(7))]
        radius = series_radius(spec)
        t_grid = [0.2 * radius, 0.5 * radius, 2.0 * radius]
        report = convergence_sweep(spec, exhaustion, a, t_grid)
        dim = spec.volume_dim(exhaustion[-1])
        half = dim // 2
        norms = sum(row.discrepancy > 0.0 for row in report.evolution_rows + report.order_rows
                    if row.pair_index == 1) + sum(row.error > 0.0 for row in report.dyson_rows
                                                  if row.volume_index == 2)
        orders = dynamics.SWEEP_ORDERS - 2
        assert norms == 3 + orders + 2
        assert max(max(x + y) for x, y in shapes) == half
        assert [s for s in shapes if max(s[0] + s[1]) == half] == [
            ((half, half), (half, half))] * (2 + 2 * len(t_grid) + 2 * dynamics.SWEEP_ORDERS
                                             + orders + 3 * (3 + 2))
        assert max(d for _, d, _ in named_eigensolves) == half
        assert Counter(name for name, d, _ in named_eigensolves if d == half) == {
            "eigh": 2, "eigvalsh": norms}

    def test_order_row_of_a_vanishing_smaller_commutator(self):
        # sigma_z on the small system's site 2 commutes with the one-site volume's
        # generator, its Z field: the smaller volume's commutators are all zero, so
        # each order row of the first pair is the larger volume's norm alone, its
        # blocks negated with no lifted block to subtract them from. At order 1,
        # ||i[X_1 X_2 + X_2 X_3, Z_2]|| = ||2 Y_2 (X_1 + X_3)|| = 4.
        spec = make_chain(5, {0: 1, 1: 1, 2: 0, 3: 2, 4: 2}, {1: 2.0, 2: 1.0}, field=0.4)
        a = DenseOperator((2,), (2,), SZ)
        exhaustion = [(2,), (1, 2, 3), tuple(range(5))]
        report = convergence_sweep(spec, exhaustion, a, [0.1])
        powers = []
        for sites in exhaustion:
            h_b = dense_generator(build(spec, sites))
            powers.append(oracles.derivation_powers(h_b, embed(a, h_b.sites, h_b.dims),
                                                    dynamics.SWEEP_ORDERS))
        assert not any(np.any(x) for x in powers[0])
        assert [(row.pair_index, row.order) for row in report.order_rows] == [
            (k, m) for k in range(2) for m in range(1, dynamics.SWEEP_ORDERS + 1)]
        assert report.order_rows[0].discrepancy == pytest.approx(4.0, rel=1e-14)
        for row in report.order_rows:
            small, large = (exhaustion[row.pair_index + k] for k in (0, 1))
            lifted = embed(DenseOperator(small, spec.dims_for(small),
                                         powers[row.pair_index][row.order - 1]),
                           large, spec.dims_for(large)).matrix
            expected = np.linalg.norm(lifted - powers[row.pair_index + 1][row.order - 1], 2)
            assert abs(row.discrepancy - expected) <= 1e-13 * max(1.0, expected)

    def test_lifted_gap_negates_the_blocks_only_the_larger_operator_has(self):
        # S = diag(1, 0) on site 0 lifts to the identity on the larger volume's
        # sector {0, 1} (site 0 up) and to zero on {2, 3}. L has blocks (0, 1) and
        # (1, 1) alone, each the identity: S - L is [[1, -1], [-1, -1]] on each
        # pair of partner states, of norm sqrt(2); L - S's blocks with S's sign
        # kept would give [[1, 1], [1, 1]], of norm 2.
        def plan(sites, sectors):
            dims = (2,) * len(sites)
            return dynamics.EvolutionPlan(sites, dims, tuple(
                dynamics.Sector(np.array(rows), np.zeros(len(rows)), np.eye(len(rows)))
                for rows in sectors))

        small_plan, large_plan = plan((0,), [(0, 1)]), plan((0, 1), [(0, 1), (2, 3)])
        small = {(0, 0): np.diag([1.0, 0.0])}
        large = {(0, 1): np.eye(2), (1, 1): np.eye(2)}
        gap = dynamics._lifted_gap(small_plan, small, large_plan, large, 1.0)
        assert large == {}
        assert gap == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_non_nested_exhaustion_rejected(self, chain5):
        a = DenseOperator((2,), (2,), SX)
        with pytest.raises(ValueError):
            convergence_sweep(chain5, [(1, 2, 3), (2, 3, 4)], a, [0.1])

    def test_observable_must_fit_smallest_volume(self, chain5):
        a = DenseOperator((4,), (2,), SX)
        with pytest.raises(ValueError):
            convergence_sweep(chain5, [(1, 2, 3), (1, 2, 3, 4)], a, [0.1])


def _middle_chain(n, **kwargs):
    """An open chain of n qubits whose middle site is the small system, sigma_x
    on it, and the nested volumes that grow by one site on each side."""
    mid = n // 2
    spec = make_chain(n, {i: 0 if i == mid else 1 if i < mid else 2 for i in range(n)},
                      {1: 2.0, 2: 1.0}, **kwargs)
    exhaustion = [tuple(range(mid - k, min(n, mid + k + 1))) for k in range(1, mid + 1)]
    return spec, DenseOperator((mid,), (2,), SX), exhaustion


def _mp_remainder(x):
    """R(x) = sum_{m > SERIES_ORDER} (ix)^m / m! at the working precision."""
    m = dynamics.SERIES_ORDER + 1
    term = (1j * x) ** m / mpmath.factorial(m)
    total = mpmath.mpc(0)
    while abs(term) > mpmath.mpf(10) ** (-2 * mpmath.mp.dps) or m < abs(x):
        total += term
        m += 1
        term *= 1j * x / m
    return total


class TestSweepDysonRows:
    """A Dyson row is the norm of R(x) o V^dagger a V, R(x) = e^{ix} - sum_{m <= 12}
    (ix)^m / m!, x_jk = t (w_j - w_k): the series remainder itself, not the
    roundoff of a difference of two D x D operators."""

    @pytest.mark.parametrize("n", [6, 8])
    def test_error_below_its_bound_near_zero(self, n):
        # the bound falls as (t / radius)^13: 1.7e-26 at 0.01 of the radius,
        # far below the 4e-15 of roundoff a site-basis difference carries
        spec, a, exhaustion = _middle_chain(n, anis=0.3)
        radius = series_radius(spec)
        report = convergence_sweep(spec, exhaustion, a, [f * radius for f in (0.01, 0.03, 0.05)])
        assert len(report.dyson_rows) == 3 * len(exhaustion)
        for row in report.dyson_rows:
            assert 0.0 < row.error <= row.bound

    def test_remainder_matches_fifty_digits(self):
        # both branches, each side of |x| = 4, and R(-x) = conj R(x) bitwise
        x = np.concatenate([np.geomspace(1e-6, 3.99, 40), [4.0], np.linspace(4.01, 40.0, 40)])
        x = np.concatenate([x, -x, [0.0]])
        got = dynamics._series_remainder(x)
        with mpmath.workdps(50):
            for xi, gi in zip(x, got):
                ref = complex(_mp_remainder(mpmath.mpf(float(xi))))
                assert abs(gi - ref) <= 1e-12 * abs(ref), xi
        half = len(x) // 2
        assert np.array_equal(got[half:-1], got[:half].conj())
        assert got[-1] == 0.0

    @pytest.mark.parametrize("model", ["tail", "difference"])
    def test_rows_match_fifty_digits(self, model):
        # D <= 16. The second chain's strong field and weak bonds at a large
        # lam give a radius at which some |x| passes 4, the difference branch
        if model == "tail":
            spec, a, exhaustion = _middle_chain(4, anis=0.3)
            spec = ModelSpec(spec.sites, spec.regions,
                             spec.terms + (InteractionTerm((3,), 0.3 * SY),), spec.lam, spec.betas)
        else:
            spec, a, exhaustion = _middle_chain(4, coup=0.01, field=2.0, lam=5.0)
        exhaustion = [(2,), (1, 2, 3), (0, 1, 2, 3)]
        radius = series_radius(spec)
        t_grid = [f * radius for f in (0.2, 0.5, 0.9)]
        report = convergence_sweep(spec, exhaustion, a, t_grid)
        assert len(report.dyson_rows) == len(exhaustion) * len(t_grid)
        widest = 0.0
        with mpmath.workdps(50):
            for i, sites in enumerate(exhaustion):
                h_b = dense_generator(build(spec, sites))
                a_v = embed(a, h_b.sites, h_b.dims).matrix
                w, q = mpmath.eigh(mpmath.matrix(h_b.matrix.tolist()))
                rotated = q.H * mpmath.matrix(a_v.tolist()) * q
                dim = h_b.dim
                for row in report.dyson_rows[i * len(t_grid):(i + 1) * len(t_grid)]:
                    assert row.volume_index == i
                    t = mpmath.mpf(row.t)
                    r = [[_mp_remainder(t * (w[j] - w[k])) for k in range(dim)]
                         for j in range(dim)]
                    err = mpmath.matrix(dim)
                    for j in range(dim):
                        for k in range(dim):
                            err[j, k] = r[j][k] * rotated[j, k]
                    exact = max(abs(e) for e in mpmath.eigh(err, eigvals_only=True))
                    top = max(abs(v) for line in r for v in line)
                    widest = max(widest, float(max(abs(t * (w[j] - w[k])) for j in range(dim)
                                                   for k in range(dim))))
                    assert abs(row.error - float(exact)) <= 1e-10 * float(top) * op_norm(a)
        assert (widest > 4.0) == (model == "difference")


class TestSweepLightCone:
    """An order m below k = 1 + the first j at which the terms meeting S_j
    differ between a pair's volumes is the same operator in both."""

    def test_orders_inside_the_cone_are_zero_and_take_no_norm(self, monkeypatch):
        # sigma_x on site 3 reaches {2, 3, 4} after one order and {1, ..., 5}
        # after two; the bond (0, 1), then (5, 6), is the first term that
        # tells a pair apart, so k = 3 for both pairs
        spec, a, _ = _middle_chain(7, anis=0.3)
        exhaustion = [tuple(range(1, 6)), tuple(range(6)), tuple(range(7))]
        radius = series_radius(spec)
        t_grid = [0.5 * radius, 2.0 * radius]
        calls = []
        block_norm = opalg.block_norm
        monkeypatch.setattr(opalg, "block_norm", lambda *args: calls.append(1) or block_norm(*args))
        report = convergence_sweep(spec, exhaustion, a, t_grid)
        assert [row.order for row in report.order_rows] == [1, 2, 3, 4] * 2
        for row in report.order_rows:
            if row.order < 3:
                assert row.discrepancy == 0.0 and type(row.discrepancy) is float
            else:
                assert row.discrepancy > 0.0
        normed = [row for row in report.order_rows if row.order >= 3]
        assert len(calls) == (len(report.evolution_rows) + len(normed)
                              + len(report.dyson_rows))

    def test_perturbation_terms_are_in_the_cone(self, chain5):
        # sigma_x on site 3 against volumes {1, 2, 3} and {0, 1, 2, 3}: the
        # bond (0, 1) is met at the third order, but a perturbation term on
        # site 3 is met at the first unless both volumes carry it alike
        a = DenseOperator((3,), (2,), SX)
        small, large = (1, 2, 3), (0, 1, 2, 3)
        term = InteractionTerm((3,), 0.4 * SZ)
        other = InteractionTerm((3,), 0.3 * SZ)

        def family(*entries):
            return PerturbationFamily(tuple((frozenset(v), (t,))
                                            for v, t in entries), bound_K=0.5)

        def cone(perturbation):
            terms = [build(chain5, v, perturbation).generator_terms for v in (small, large)]
            return dynamics._light_cone_order(*terms, a.sites)

        assert cone(None) == 3
        assert cone(family((large, term))) == 1
        assert cone(family((small, term), (large, term))) == 3
        assert cone(family((small, term), (large, other))) == 1
        report = convergence_sweep(chain5, [small, large], a, [0.1], family((large, term)))
        assert report.order_rows[0].discrepancy == pytest.approx(
            op_norm(DenseOperator((3,), (2,), 0.4 * (SZ @ SX - SX @ SZ))), rel=1e-12)
