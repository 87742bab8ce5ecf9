"""Real models run in real arithmetic, and the real and complex routes agree.

An operator's or state's matrix is float64 when every entry is real and
complex128 otherwise. On a real chain the eigenbasis of H_B is then real, and
the rotations, derivation powers and volume-sized eigensolves use real
products. The complex route is forced by handing the library another
eigenbasis of the same H_B, V diag(e^{i theta}); both routes must agree with
each other and with the full-D oracles to 1e-12.
"""

import json

import numpy as np
import pytest

from nesslab import (DenseOperator, EvolutionPlan, InteractionTerm, ModelSpec, build, embed,
                     exact_evolve, horizon_reports, initial_state, make_plan, model_to_dict)
from nesslab.cli import main
from nesslab.dynamics import derivation_powers
from nesslab.model import PerturbationEntry, PerturbationFamily
from nesslab.opalg import as_matrix, matmul

import oracles
from conftest import SX, SY, SZ, make_chain

TOL = 1e-12
HORIZONS = (0.5, 3.0, 40.0)
TIMES = (0.3, 2.0, 7.5)
REAL_PERTURBATION = (InteractionTerm((0, 1), 0.3 * np.kron(SX, SX)),
                     InteractionTerm((4,), 0.25 * SZ))


def _chain():
    return make_chain(5, {0: 1, 1: 1, 2: 0, 3: 2, 4: 2}, {1: 2.0, 2: 1.0}, anis=0.3)


def _family(*terms):
    return PerturbationFamily((PerturbationEntry(frozenset(range(5)), terms),), bound_K=1.0)


def _complex_plan(plan: EvolutionPlan) -> EvolutionPlan:
    """The same generator and spectrum with the eigenbasis V diag(e^{i theta})."""
    theta = np.random.default_rng(3).uniform(0.0, 2.0 * np.pi, plan.eigenvalues.size)
    return EvolutionPlan(plan.generator, plan.eigenvalues, plan.basis * np.exp(1j * theta))


def _observable(vols) -> DenseOperator:
    return embed(DenseOperator((1, 2), (2, 2), np.kron(SZ, SX) + 0.5 * np.kron(SX, SX)),
                 vols.sites, vols.dims)


def _gap(x, y) -> float:
    return float(np.max(np.abs(np.asarray(x) - np.asarray(y))))


@pytest.fixture(params=[False, True], ids=["unperturbed", "perturbed"])
def vols(request):
    return build(_chain(), range(5), _family(*REAL_PERTURBATION) if request.param else None)


class TestDtypeRule:
    def test_real_entries_are_stored_real(self):
        assert DenseOperator((0,), (2,), SX).matrix.dtype == np.float64
        assert DenseOperator((0,), (2,), SY).matrix.dtype == np.complex128
        assert as_matrix(np.eye(2, dtype=int)).dtype == np.float64
        assert as_matrix(SZ + 0j * SX).dtype == np.float64

    def test_real_chain_is_real_except_the_currents(self, vols):
        operators = [vols.H_B, vols.G, vols.W, *vols.H_a.values(), *vols.B_a.values()]
        assert all(op.matrix.dtype == np.float64 for op in operators)
        assert make_plan(vols.H_B).basis.dtype == np.float64
        assert initial_state(vols).density.dtype == np.float64
        for current in vols.currents.values():
            # i times a real antisymmetric matrix
            assert current.matrix.dtype == np.complex128
            assert not np.any(current.matrix.real)

    def test_real_chain_with_a_complex_perturbation(self):
        # sigma_y on reservoir 1 makes H_B and G complex while H_a and
        # reservoir 2's block stay real; G is allocated complex up front
        vols = build(_chain(), range(5), _family(InteractionTerm((0,), 0.2 * SY)))
        assert vols.H_B.matrix.dtype == vols.G.matrix.dtype == np.complex128
        assert vols.B_a[1].matrix.dtype == np.complex128
        assert vols.H_a[1].matrix.dtype == vols.B_a[2].matrix.dtype == np.float64
        assert _gap(vols.G.matrix, oracles.exponent(vols)) <= TOL
        plan = make_plan(vols.H_B)
        (report, _), = horizon_reports(vols, (10.0,), plan=plan)
        fluxes, e_tel = oracles.horizon_values(vols, plan, initial_state(vols), 10.0)
        assert abs(report.e_telescoped - e_tel) <= TOL
        assert all(abs(report.fluxes[a] - fluxes[a]) <= TOL for a in fluxes)
        # the value of the all-complex route this case was first run on
        assert report.e_telescoped == pytest.approx(0.10949781156381225, abs=TOL)


@pytest.mark.parametrize("a_complex,b_complex", [(False, False), (False, True),
                                                 (True, False), (True, True)])
def test_matmul_matches_the_upcast_product(a_complex, b_complex):
    rng = np.random.default_rng(0)

    def sample(shape, cplx):
        m = rng.standard_normal(shape)
        return m + 1j * rng.standard_normal(shape) if cplx else m

    a, b = sample((6, 4), a_complex), sample((4, 5), b_complex)
    out = matmul(a, b)
    assert out.dtype == (np.complex128 if a_complex or b_complex else np.float64)
    assert out.shape == (6, 5)
    assert _gap(out, a @ b) <= TOL
    # transposed views are not C-contiguous, as in rotate's V^dagger factor
    assert _gap(matmul(b.T, a.T), b.T @ a.T) <= TOL


class TestRouteAgreement:
    def test_horizon_reports(self, vols):
        plan = make_plan(vols.H_B)
        cplan = _complex_plan(plan)
        assert plan.basis.dtype == np.float64 and cplan.basis.dtype == np.complex128
        obs = {"x": _observable(vols)}
        real = horizon_reports(vols, HORIZONS, plan=plan, observables=obs)
        cplx = horizon_reports(vols, HORIZONS, plan=cplan, observables=obs)
        sigma = initial_state(vols)
        for horizon, (r_rep, r_avg), (c_rep, c_avg) in zip(HORIZONS, real, cplx):
            fluxes, e_tel = oracles.horizon_values(vols, cplan, sigma, horizon)
            avg = oracles.time_avg_expectation_quadrature(vols, sigma, obs["x"], horizon,
                                                          plan=cplan)
            for rep in (r_rep, c_rep):
                assert all(abs(rep.fluxes[a] - fluxes[a]) <= TOL for a in fluxes)
                assert abs(rep.e_telescoped - e_tel) <= TOL
            assert abs(r_rep.e - c_rep.e) <= TOL
            assert abs(r_rep.sum_rule_residual - c_rep.sum_rule_residual) <= TOL
            assert abs(r_avg["x"] - c_avg["x"]) <= TOL
            # Simpson quadrature: exact to its own discretization error only
            assert abs(r_avg["x"] - avg) <= 1e-6

    def test_exact_evolve(self, vols):
        plan = make_plan(vols.H_B)
        cplan = _complex_plan(plan)
        a = _observable(vols)
        for t in TIMES:
            reference = oracles.heisenberg(vols.H_B, a, t)
            real = exact_evolve(plan, a, t).matrix
            cplx = exact_evolve(cplan, a, t).matrix
            assert _gap(real, cplx) <= TOL
            assert _gap(real, reference) <= TOL

    def test_derivation_powers(self, vols):
        a = _observable(vols)
        powers = derivation_powers(vols.H_B, a, 6)
        for m, (power, reference) in enumerate(
                zip(powers, oracles.derivation_powers(vols.H_B, a, 6)), start=1):
            # delta^m(a) = i^m r with r real: real for even m, imaginary for odd m
            assert power.matrix.dtype == (np.float64 if m % 2 == 0 else np.complex128)
            assert _gap(power.matrix, reference) <= TOL * max(1.0, np.max(np.abs(reference)))


def _cli_files(tmp_path, spec):
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(model_to_dict(spec)), encoding="utf-8")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "model": model_path.name,
        "exhaustion": [[1, 2, 3], [0, 1, 2, 3], [0, 1, 2, 3, 4]],
        "horizons": [0.05, 0.5, 5.0],
        "observables": {"mid_x": [{"support": [2],
                                   "matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]}]},
        "output_dir": str(tmp_path / "out"),
    }), encoding="utf-8")
    return config_path


def _dm_chain():
    """The real chain plus a Dzyaloshinskii-Moriya bond, which is imaginary."""
    spec = _chain()
    dm = InteractionTerm((1, 2), 0.4 * (np.kron(SX, SY) - np.kron(SY, SX)))
    return ModelSpec(spec.sites, spec.regions, spec.terms + (dm,), spec.lam, spec.betas)


class TestVolumeSolveDtypes:
    DIMS = (8, 16, 32)

    def _solves_at_volume_dims(self, tmp_path, eigensolves, spec, command):
        eigensolves.clear()
        assert main([command, "--config", str(_cli_files(tmp_path, spec))]) == 0
        return [(dim, dtype) for dim, _, dtype in eigensolves if dim in self.DIMS]

    def test_simulate_on_a_real_chain_solves_real(self, tmp_path, eigensolves):
        solves = self._solves_at_volume_dims(tmp_path, eigensolves, _chain(), "simulate")
        assert {dim for dim, _ in solves} == set(self.DIMS)
        assert all(dtype == np.float64 for _, dtype in solves)

    def test_sweep_on_a_real_chain_solves_h_b_real(self, tmp_path, eigensolves):
        # the first solve at each volume's D is the eigendecomposition of H_B;
        # the evolved observables are complex, so their norms are not real
        solves = self._solves_at_volume_dims(tmp_path, eigensolves, _chain(),
                                             "sweep-convergence")
        for dim in self.DIMS:
            assert next(dtype for d, dtype in solves if d == dim) == np.float64

    @pytest.mark.parametrize("command", ["simulate", "sweep-convergence"])
    def test_complex_chain_solves_complex(self, tmp_path, eigensolves, command):
        solves = self._solves_at_volume_dims(tmp_path, eigensolves, _dm_chain(), command)
        assert {dim for dim, _ in solves} == set(self.DIMS)
        assert all(dtype == np.complex128 for _, dtype in solves)
