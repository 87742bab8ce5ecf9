"""Real models run in real arithmetic, and the real and complex routes agree.

An operator's or state's matrix is float64 when every entry is real and
complex128 otherwise. On a real chain the eigenbasis of H_B is then real, and
the rotations, derivation powers and volume-sized eigensolves use real
products. The complex route is forced by handing the library another
eigenbasis of the same H_B, V diag(e^{i theta}); both routes must agree with
each other and with the full-D oracles to 1e-12.
"""

import json
from collections import Counter

import numpy as np
import pytest

from nesslab import (DenseOperator, EvolutionPlan, InteractionTerm, ModelSpec, build, embed,
                     exact_evolve, horizon_reports, initial_state, make_plan, model_to_dict,
                     series_radius)
from nesslab.cli import _observable_operators, load_config, main
from nesslab.dynamics import Sector, _commutators, derivation_powers
from nesslab.model import PerturbationEntry, PerturbationFamily, load_model
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
    """The same generator, sectors and spectrum with each sector's
    eigenbasis V diag(e^{i theta})."""
    rng = np.random.default_rng(3)
    return EvolutionPlan(plan.generator, tuple(
        Sector(s.indices, s.eigenvalues,
               s.basis * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, s.eigenvalues.size)))
        for s in plan.sectors))


def _sector_plan(vols) -> EvolutionPlan:
    plan = make_plan(vols.H_B, vols.sectors)
    assert len(plan.sectors) == 2   # the parity of the real chain
    return plan


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
        operators = [vols.H_B, vols.W, *vols.H_a.values(), *vols.B_a.values(),
                     *vols.blocks.values()]
        assert all(op.matrix.dtype == np.float64 for op in operators)
        assert all(s.basis.dtype == np.float64 for s in _sector_plan(vols).sectors)
        assert initial_state(vols).density.dtype == np.float64
        for current in vols.currents.values():
            # i times a real antisymmetric matrix
            assert current.matrix.dtype == np.complex128
            assert not np.any(current.matrix.real)

    def test_real_chain_with_a_complex_perturbation(self):
        # sigma_y on reservoir 1 makes H_B and reservoir 1's block complex
        # while H_a and reservoir 2's block stay real
        vols = build(_chain(), range(5), _family(InteractionTerm((0,), 0.2 * SY)))
        assert vols.H_B.matrix.dtype == vols.blocks[1].matrix.dtype == np.complex128
        assert vols.B_a[1].matrix.dtype == np.complex128
        assert vols.H_a[1].matrix.dtype == vols.blocks[2].matrix.dtype == np.float64
        assert abs(vols.log_z - oracles.log_partition(vols)) <= TOL
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


@pytest.mark.parametrize("zero_part", ["real", "imag"])
@pytest.mark.parametrize("a_complex,b_complex", [(False, False), (False, True),
                                                 (True, False), (True, True)])
def test_matmul_with_a_vanishing_part(a_complex, b_complex, zero_part):
    # a complex factor whose real or imaginary part is identically zero, as
    # a current i[W, H_a] of a real chain, against numpy's upcast product
    rng = np.random.default_rng(1)

    def sample(shape, cplx):
        m = rng.standard_normal(shape)
        if not cplx:
            return m
        return 1j * m if zero_part == "real" else m + 0j

    a, b = sample((6, 4), a_complex), sample((4, 5), b_complex)
    out = matmul(a, b)
    expected = a.astype(complex) @ b.astype(complex)
    assert out.dtype == (np.complex128 if a_complex or b_complex else np.float64)
    assert _gap(out, expected) <= TOL
    if a_complex != b_complex:
        # one real product: the other part of the result is exactly zero
        cplx, real = (a, b) if a_complex else (b, a)
        part = cplx.imag if zero_part == "real" else cplx.real
        product = part @ real if a_complex else real @ part
        kept, dropped = ((out.imag, out.real) if zero_part == "real"
                         else (out.real, out.imag))
        np.testing.assert_array_equal(kept, product)
        assert not np.any(dropped)
    # stacked operands, as kron_apply contracts them
    stacked = b.reshape(2, 2, 5)
    assert _gap(matmul(a[:, :2], stacked), a[:, :2].astype(complex) @ stacked) <= TOL


class TestRouteAgreement:
    def test_horizon_reports(self, vols):
        plan = _sector_plan(vols)
        cplan = _complex_plan(plan)
        assert all(s.basis.dtype == np.float64 for s in plan.sectors)
        assert all(s.basis.dtype == np.complex128 for s in cplan.sectors)
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
        plan = _sector_plan(vols)
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
    """Both chains conserve the parity prod sigma_z, so the volumes of D = 8,
    16 and 32 are each diagonalized as two sectors of D/2 = 4, 8 and 16, and
    nothing is solved at the largest D. Every solve of dimension 4 or more
    is pinned by solver, dimension and dtype."""

    def _solves(self, tmp_path, named_eigensolves, spec, command) -> Counter:
        named_eigensolves.clear()
        assert main([command, "--config", str(_cli_files(tmp_path, spec))]) == 0
        return Counter((name, dim, np.dtype(dtype).name)
                       for name, dim, dtype in named_eigensolves if dim >= 4)

    @staticmethod
    def _simulate(h_b_dtype: str, w_dtype: str) -> Counter:
        # eigh of H_B's two sectors in each volume; eigh (Gibbs state) and
        # eigvalsh (log Z) of the three two-site reservoir blocks, {0, 1} in
        # the last two volumes and {3, 4} in the last, which are real; and
        # ||W|| on W's sites {1, 2, 3} in each volume
        return (Counter({("eigh", 4, h_b_dtype): 2, ("eigh", 8, h_b_dtype): 2,
                         ("eigh", 16, h_b_dtype): 2})
                + Counter({("eigh", 4, "float64"): 3, ("eigvalsh", 4, "float64"): 3,
                           ("eigvalsh", 8, w_dtype): 3}))

    def test_simulate_on_a_real_chain_solves_real(self, tmp_path, named_eigensolves):
        solves = self._solves(tmp_path, named_eigensolves, _chain(), "simulate")
        assert solves == self._simulate("float64", "float64")

    def test_sweep_on_a_real_chain_solves_h_b_real(self, tmp_path, named_eigensolves):
        solves = self._solves(tmp_path, named_eigensolves, _chain(), "sweep-convergence")
        # H_B's sectors, log Z of the reservoir blocks (as in simulate) and
        # ||Phi||_lam, one solve per bond support, all real
        expected = Counter({("eigh", 4, "float64"): 2, ("eigh", 8, "float64"): 2,
                            ("eigh", 16, "float64"): 2, ("eigvalsh", 4, "float64"): 3 + 4,
                            ("eigvalsh", 8, "float64"): 3})
        assert solves == expected + _sweep_norm_solves(tmp_path / "config.json")

    @pytest.mark.parametrize("command", ["simulate", "sweep-convergence"])
    def test_complex_chain_solves_complex(self, tmp_path, named_eigensolves, command):
        solves = self._solves(tmp_path, named_eigensolves, _dm_chain(), command)
        if command == "simulate":
            assert solves == self._simulate("complex128", "complex128")
            return
        # H_B's sectors and ||W|| are complex; log Z of the real reservoir
        # blocks and ||Phi||_lam of the three real bond supports are real,
        # that of the bond (1, 2) with the DM term complex
        expected = Counter({("eigh", 4, "complex128"): 2, ("eigh", 8, "complex128"): 2,
                            ("eigh", 16, "complex128"): 2, ("eigvalsh", 4, "float64"): 3 + 3,
                            ("eigvalsh", 4, "complex128"): 1,
                            ("eigvalsh", 8, "complex128"): 3})
        assert solves == expected + _sweep_norm_solves(tmp_path / "config.json")


def _sweep_norm_solves(config_path, max_order=4) -> Counter:
    """The eigvalsh calls of the sweep's norms, derived from the block rule.

    The observable mid_x flips the parity, so every norm is that of a
    matrix with zero diagonal sector blocks, taken by the Gram route on an
    off-diagonal block at the sector dimension D/2 of the larger volume.
    The evolved observables are exactly Hermitian, and so are their
    differences and the series errors: one complex solve per evolution row
    and per Dyson row. An order difference embed(r_m) - r_m is exactly
    Hermitian for even m and anti-Hermitian for odd m, so one solve of its
    stored block either way, none when it is zero, and real when its
    imaginary part is exactly zero.
    """
    cfg = load_config(config_path)
    spec = load_model(cfg.model_path)
    (a,) = _observable_operators(spec, cfg).values()
    inside = sum(abs(t) < series_radius(spec) for t in cfg.horizons)
    half = [spec.volume_dim(sites) // 2 for sites in cfg.exhaustion]
    solves = Counter()
    for dim in half:
        solves["eigvalsh", dim, "complex128"] += inside
    for dim in half[1:]:
        solves["eigvalsh", dim, "complex128"] += len(cfg.horizons)
    commutators = []
    for sites in cfg.exhaustion:
        h_b = build(spec, sites).H_B
        commutators.append([h_b.with_matrix(r) for r in
                            _commutators(h_b, embed(a, h_b.sites, h_b.dims), max_order)])
    for dim, small, large in zip(half[1:], commutators, commutators[1:]):
        for r_small, r_large in zip(small, large):
            diff = embed(r_small, r_large.sites, r_large.dims).matrix - r_large.matrix
            if np.any(diff):
                dtype = "complex128" if np.any(np.imag(diff)) else "float64"
                solves["eigvalsh", dim, dtype] += 1
    return +solves
