"""Conserved sectors: how build finds them, and that the sector route agrees
with the one-sector (dense) route.

Every chain of the benchmark conserves the parity prod sigma_z, so H_B, the
initial state, G and the currents have no entry between the parity sectors.
``build`` finds the sectors from the terms, ``make_plan`` diagonalizes each
sector block on its own, and the sweep, the horizon contraction and the
norms work block by block. A one-sector plan runs the dense algorithm, which
is the reference here.
"""

import dataclasses
import math
import tracemalloc
from math import comb

import numpy as np
import pytest

from nesslab import (DenseOperator, InteractionTerm, ModelSpec, build, convergence_sweep,
                     embed, exact_evolve, horizon_reports, make_plan, opalg, series_radius,
                     thermo, volume)
from nesslab.model import PerturbationFamily, redraw

import oracles
from conftest import (SX, SY, SZ, dense_generator, make_chain, one_sector, random_hermitian,
                      traced_peak)

TOL = 1e-12
SEVEN = {0: 1, 1: 1, 2: 1, 3: 0, 4: 2, 5: 2, 6: 2}
BETAS = {1: 2.0, 2: 1.0}


def _with_terms(spec, *terms):
    return ModelSpec(spec.sites, spec.regions, spec.terms + terms, spec.lam, spec.betas)


def _parity(index: int) -> int:
    return bin(index).count("1") % 2


def _close(got: float, ref: float) -> bool:
    return abs(got - ref) <= TOL * (1.0 + abs(ref))


class TestDetection:
    def test_parity_chain_has_two_sectors(self):
        spec = make_chain(6, {0: 1, 1: 1, 2: 0, 3: 2, 4: 2, 5: 2}, BETAS, anis=0.3)
        vols = build(spec, range(6))
        assert len(vols.sectors) == 2
        for sector in vols.sectors:
            assert sector.size == vols.dim // 2
            assert np.all(np.diff(sector) > 0)
            assert len({_parity(int(i)) for i in sector}) == 1
        assert vols.sectors[0][0] == 0

    def test_sigma_y_fields_break_the_parity(self):
        spec = make_chain(5, {0: 1, 1: 1, 2: 0, 3: 2, 4: 2}, BETAS)
        spec = _with_terms(spec, *(InteractionTerm((i,), 0.2 * SY) for i in range(5)))
        (sector,) = build(spec, range(5)).sectors
        np.testing.assert_array_equal(sector, np.arange(32))

    @pytest.mark.parametrize("n", [3, 5, 6])
    def test_xx_plus_yy_conserves_the_magnetization(self, n):
        spec = make_chain(n, {i: (0 if i == n // 2 else 1 if i < n // 2 else 2)
                              for i in range(n)}, BETAS, coup=0.0)
        hopping = np.kron(SX, SX) + np.kron(SY, SY)
        spec = _with_terms(spec, *(InteractionTerm((i, i + 1), hopping)
                                   for i in range(n - 1)))
        vols = build(spec, range(n))
        assert len(vols.sectors) == n + 1
        # sigma_z = +1 on bit 0, so the sector of index i has popcount(i) down spins
        downs = sorted(bin(int(s[0])).count("1") for s in vols.sectors)
        assert downs == list(range(n + 1))
        assert sorted(s.size for s in vols.sectors) == sorted(comb(n, k) for k in range(n + 1))

    def test_sectors_partition_the_basis_and_block_h_b(self):
        spec = _with_terms(make_chain(5, {0: 1, 1: 1, 2: 0, 3: 2, 4: 2}, BETAS, anis=0.3),
                           InteractionTerm((1, 2), 0.4 * (np.kron(SX, SY) - np.kron(SY, SX))))
        vols = build(spec, range(5))
        np.testing.assert_array_equal(np.sort(np.concatenate(vols.sectors)), np.arange(32))
        label = np.empty(32, dtype=int)
        for k, sector in enumerate(vols.sectors):
            label[sector] = k
        rows, cols = np.nonzero(dense_generator(vols).matrix)
        assert np.array_equal(label[rows], label[cols])

    def test_found_from_the_terms_not_from_h_b(self):
        # sigma_x on site 0 and -sigma_x (x) 1 on sites (0, 1) cancel in H_B,
        # which is then diagonal, but each term flips site 0: the sectors join
        # its two states
        spec = make_chain(3, {0: 1, 1: 0, 2: 2}, BETAS, coup=0.0)
        spec = _with_terms(spec, InteractionTerm((0,), SX),
                           InteractionTerm((0, 1), -np.kron(SX, np.eye(2))))
        vols = build(spec, range(3))
        h_b = dense_generator(vols).matrix
        assert not np.any(h_b - np.diag(np.diagonal(h_b)))
        assert [s.tolist() for s in vols.sectors] == [[0, 4], [1, 5], [2, 6], [3, 7]]

    def test_allocates_no_volume_sized_array(self):
        spec = make_chain(11, {i: (0 if i == 5 else 1 if i < 5 else 2) for i in range(11)},
                          BETAS, anis=0.3)
        sites = tuple(range(11))
        dims = spec.dims_for(sites)
        ops = [spec.term_operator(t) for t in spec.terms]
        dim = math.prod(dims)
        assert dim == 2048
        found, peak = traced_peak(lambda: opalg.sectors(ops, sites, dims))
        assert len(found) == 2
        assert peak <= dim * dim * 8 / 16


class TestMakePlanPerSector:
    def test_one_spectral_call_per_sector_at_half_the_dimension(self, monkeypatch,
                                                                  named_eigensolves):
        spec = make_chain(9, {i: (0 if i == 4 else 1 if i < 4 else 2) for i in range(9)},
                          BETAS, anis=0.3)
        vols = build(spec, range(9))
        shapes = []
        eigh = opalg._eigh
        monkeypatch.setattr(opalg, "_eigh", lambda a: shapes.append(np.shape(a)) or eigh(a))
        named_eigensolves.clear()
        plan = make_plan(vols)
        assert shapes == [(256, 256)] * 2
        assert [(name, dim) for name, dim, _ in named_eigensolves] == [("eigh", 256)] * 2
        for sector, rows in zip(plan.sectors, vols.sectors):
            np.testing.assert_array_equal(sector.indices, rows)
            assert sector.basis.shape == (256, 256) and sector.basis.dtype == np.float64


def _spec(kind: str) -> ModelSpec:
    spec = make_chain(7, SEVEN, BETAS, anis=0.3)
    if kind == "complex":
        dm = 0.4 * (np.kron(SX, SY) - np.kron(SY, SX))
        spec = _with_terms(spec, InteractionTerm((2, 3), dm), InteractionTerm((4, 5), dm))
    return spec


EXHAUSTION = [tuple(range(1, 6)), tuple(range(6)), tuple(range(7))]


def _family(kind: str) -> PerturbationFamily:
    terms = [InteractionTerm((1, 2), 0.3 * np.kron(SX, SX)), InteractionTerm((5,), 0.25 * SZ)]
    if kind == "complex":
        terms.append(InteractionTerm((5, 6), 0.2 * (np.kron(SX, SY) - np.kron(SY, SX))))
    return PerturbationFamily(
        tuple((frozenset(v), tuple(t for t in terms if set(t.support) <= set(v)))
              for v in EXHAUSTION), bound_K=1.0)


def _observables(seed: int = 5) -> dict:
    rng = np.random.default_rng(seed)
    return {"odd": DenseOperator((3,), (2,), SX),
            "even": DenseOperator((2, 3), (2, 2), np.kron(SZ, SZ) + 0.5 * np.kron(SX, SY)),
            "mixed": DenseOperator((2, 3), (2, 2), random_hermitian(rng, 4))}


@pytest.fixture(params=[("real", False), ("real", True), ("complex", False), ("complex", True)],
                ids=["real", "real-perturbed", "complex", "complex-perturbed"])
def case(request):
    kind, perturbed = request.param
    spec = _spec(kind)
    family = _family(kind) if perturbed else None
    return spec, family, build(spec, range(7), family)


class TestSectorRouteMatchesDense:
    """The sector route against one-sector plans, within 1e-12 (1 + |ref|)."""

    def test_case_has_parity_sectors(self, case):
        _, _, vols = case
        assert len(vols.sectors) == 2

    def test_exact_evolve(self, case):
        _, _, vols = case
        plan = make_plan(vols)
        dense = make_plan(one_sector(vols))
        operators = {k: embed(x, vols.sites, vols.dims) for k, x in _observables().items()}
        # sigma^+ on site 3, not selfadjoint: every block pair on its own
        operators["raise"] = embed(DenseOperator((3,), (2,), 0.5 * (SX + 1j * SY)),
                                   vols.sites, vols.dims)
        for key, a in operators.items():
            for t in (0.3, 2.0, 7.5):
                ref = exact_evolve(dense, a, t).matrix
                got = exact_evolve(plan, a, t).matrix
                assert np.max(np.abs(got - ref)) <= TOL * (1.0 + np.max(np.abs(ref))), key
                if key == "odd":
                    # the diagonal sector blocks of a parity-odd operator stay exactly zero
                    for sector in plan.sectors:
                        assert not np.any(got[np.ix_(sector.indices, sector.indices)])
                if key != "raise":
                    assert np.array_equal(got, got.conj().T)

    def test_horizon_reports(self, case):
        _, _, vols = case
        horizons = (0.5, 3.0, 40.0)
        obs = _observables()
        ref = horizon_reports(one_sector(vols), horizons, observables=obs)
        got = horizon_reports(vols, horizons, observables=obs)
        for (r_rep, r_avg), (g_rep, g_avg) in zip(ref, got):
            for a in r_rep.fluxes:
                assert _close(g_rep.fluxes[a], r_rep.fluxes[a])
            for name in ("e", "e_telescoped", "sum_rule_residual", "tol_sum_rule"):
                assert _close(getattr(g_rep, name), getattr(r_rep, name)), name
            for key in obs:
                assert _close(g_avg[key], r_avg[key]), key
            # its in-sector blocks are exactly zero, so nothing is added
            assert g_avg["odd"] == 0.0

    def test_convergence_sweep(self, case, monkeypatch):
        spec, family, _ = case
        radius = series_radius(spec, family)
        t_grid = [0.2 * radius, 0.8 * radius, 2.0 * radius, 8.0 * radius]
        for key, a in _observables().items():
            got = convergence_sweep(spec, EXHAUSTION, a, t_grid, family)
            with monkeypatch.context() as m:
                real_build = volume.build
                m.setattr(volume, "build", lambda *args: one_sector(real_build(*args)))
                ref = convergence_sweep(spec, EXHAUSTION, a, t_grid, family)
            for rows in ("evolution_rows", "order_rows", "dyson_rows"):
                assert len(getattr(got, rows)) == len(getattr(ref, rows))
                for g, r in zip(getattr(got, rows), getattr(ref, rows)):
                    fields = dataclasses.asdict(r)
                    value = "error" if rows == "dyson_rows" else "discrepancy"
                    assert {k: v for k, v in dataclasses.asdict(g).items() if k != value} == {
                        k: v for k, v in fields.items() if k != value}
                    assert _close(getattr(g, value), fields[value]), (key, rows, g, r)


def _kernel_arguments(monkeypatch) -> list:
    """The number of Bohr frequencies of each :func:`thermo._horizon_kernels` call."""
    sizes = []
    kernels = thermo._horizon_kernels

    def record(half, *args, **kwargs):
        sizes.append(np.size(half))
        return kernels(half, *args, **kwargs)

    monkeypatch.setattr(thermo, "_horizon_kernels", record)
    return sizes


def _pairs(plan) -> int:
    """The Bohr frequencies j < k within the sectors of a plan."""
    return sum(s.indices.size * (s.indices.size - 1) // 2 for s in plan.sectors)


def _assert_reports_close(got, ref):
    assert len(got) == len(ref)
    for (g_rep, g_avg), (r_rep, r_avg) in zip(got, ref):
        assert g_rep.horizon == r_rep.horizon
        for a in r_rep.fluxes:
            assert _close(g_rep.fluxes[a], r_rep.fluxes[a]), (g_rep.horizon, a)
        for name in ("e", "e_telescoped", "sum_rule_residual", "tol_sum_rule"):
            assert _close(getattr(g_rep, name), getattr(r_rep, name)), (g_rep.horizon, name)
        assert g_avg.keys() == r_avg.keys()
        for key in r_avg:
            assert _close(g_avg[key], r_avg[key]), (g_rep.horizon, key)


class TestSeparableContraction:
    """Separable phases against the packed per-pair oracle, within 1e-12 (1 + |ref|)."""

    @pytest.mark.parametrize("horizons, regime", [
        ((1e-3, 0.37, 1.0, 1e3, 1e6), "all"),
        ((0.37, 1.0, 1e3, 1e6), "some"),
    ], ids=["tiny-min-T", "mixed"])
    def test_matches_the_per_pair_oracle(self, case, horizons, regime, monkeypatch):
        _, _, vols = case
        plan = make_plan(vols)
        obs = _observables()
        sizes = _kernel_arguments(monkeypatch)
        got = horizon_reports(vols, horizons, observables=obs)
        monkeypatch.undo()
        _assert_reports_close(got, oracles.packed_horizon_reports(vols, horizons, plan, obs))
        total = len(horizons) * _pairs(plan)
        # tau / 1e-3 exceeds every Bohr frequency of the chain: every pair direct
        assert sum(sizes) == total if regime == "all" else 0 < sum(sizes) < total

    @pytest.mark.parametrize("horizons, regime", [
        ((1e-3, 0.37, 1.0, 1e3), "all"),
        ((0.37, 1.0, 1e3, 1e6), "some"),
    ], ids=["tiny-min-T", "mixed"])
    def test_imaginary_observables_on_a_real_chain(self, horizons, regime, monkeypatch):
        # i times a real matrix, applied as that real matrix on the real plan
        # (P = -i Q): two parity-even bonds and a current of a redrawn boundary
        spec = _spec("real")
        vols = build(spec, range(7))
        plan = make_plan(vols)
        obs = {"xy": DenseOperator((2, 3), (2, 2), np.kron(SX, SY)),
               "dm": DenseOperator((3, 4), (2, 2), 0.5 * (np.kron(SX, SY) - np.kron(SY, SX))),
               "redrawn": build(redraw(spec, {2, 3, 4}), range(7)).currents[1]}
        assert all(s.basis.dtype == np.float64 for s in plan.sectors)
        assert all(x.matrix.dtype == np.complex128 and not np.any(x.matrix.real)
                   for x in obs.values())
        sizes = _kernel_arguments(monkeypatch)
        got = horizon_reports(vols, horizons, observables=obs)
        monkeypatch.undo()
        ref = oracles.packed_horizon_reports(vols, horizons, plan, obs)
        _assert_reports_close(got, ref)
        assert all(max(abs(avg[key]) for _, avg in ref) > 1e-3 for key in obs)
        total = len(horizons) * _pairs(plan)
        assert sum(sizes) == total if regime == "all" else 0 < sum(sizes) < total

    def test_no_pair_direct(self, case, monkeypatch):
        _, _, vols = case
        plan = make_plan(vols)
        gap = min(np.min(np.diff(s.eigenvalues)) for s in plan.sectors)
        assert gap > 0
        t_min = 2.0 * opalg.SEPARABLE_PHASE_TOL / gap
        horizons = (t_min, 7.0 * t_min, 1e3 * t_min)
        obs = _observables()
        sizes = _kernel_arguments(monkeypatch)
        got = horizon_reports(vols, horizons, observables=obs)
        monkeypatch.undo()
        assert sum(sizes) == 0
        _assert_reports_close(got, oracles.packed_horizon_reports(vols, horizons, plan, obs))

    @pytest.mark.parametrize("horizons", [(1e-3, 7.0, 1e6), (7.0, 1e6)])
    def test_degenerate_spectrum(self, decoupled_model, horizons):
        # H_B = 0.7 sum sigma_z: levels with exact repeats, so many Bohr
        # frequencies are exactly zero and always direct
        vols = build(decoupled_model, (0, 1, 2))
        obs = {"pair": DenseOperator((0, 1), (2, 2), random_hermitian(np.random.default_rng(3), 4))}
        for v in (one_sector(vols), vols):
            plan = make_plan(v)
            got = horizon_reports(v, horizons, observables=obs)
            _assert_reports_close(got, oracles.packed_horizon_reports(v, horizons, plan, obs))

    def test_few_pairs_take_per_pair_kernels(self, case, monkeypatch):
        # min T >= 1: only |d| < tau takes sines and cosines at each horizon
        _, _, vols = case
        plan = make_plan(vols)
        horizons = tuple(np.logspace(0.0, 3.0, 16))
        sizes = _kernel_arguments(monkeypatch)
        horizon_reports(vols, horizons, observables=_observables())
        # one call per row block of 128 and horizon, each over that block's direct pairs
        row_blocks = sum(-(-s.indices.size // 128) for s in plan.sectors)
        assert len(sizes) == row_blocks * len(horizons)
        cut = opalg.SEPARABLE_PHASE_TOL / min(horizons)
        direct = sum(int(np.count_nonzero(np.triu(
            np.abs(s.eigenvalues[None, :] - s.eigenvalues[:, None]) < cut, 1)))
            for s in plan.sectors)
        assert sum(sizes) == len(horizons) * direct
        half_squares = sum(s.indices.size ** 2 / 2 for s in plan.sectors)
        assert sum(sizes) < 0.05 * len(horizons) * half_squares

    def test_no_horizon_gives_no_report(self, case):
        assert horizon_reports(case[2], (), observables=_observables()) == []

    def test_peak_is_below_five_volume_matrices(self, monkeypatch):
        # ROADMAP item 3, with the plan given: measured 0.46 real DxD at
        # D = 1024 (6.5 with packed per-pair weights for every operator)
        spec = make_chain(10, {i: 0 if i == 5 else 1 if i < 5 else 2 for i in range(10)},
                          BETAS, anis=0.3)
        vols = build(spec, range(10))
        plan = make_plan(vols)
        obs = {"mid": DenseOperator((5,), (2,), SZ), "left": DenseOperator((4,), (2,), SX)}
        assert vols.dim == 1024 and len(plan.sectors) == 2
        monkeypatch.setattr(thermo, "make_plan", lambda vols: plan)
        reports, peak = traced_peak(lambda: horizon_reports(
            vols, tuple(np.logspace(0.0, 3.0, 16)), observables=obs))
        assert len(reports) == 16
        assert peak <= 5 * 8 * vols.dim ** 2


def _ten_site_chain(family=None):
    """The real 10-site chain (D = 1024, two parity sectors of 512), perturbed by
    ``family``, its plan and two one-site observables."""
    spec = make_chain(10, {i: 0 if i == 5 else 1 if i < 5 else 2 for i in range(10)},
                      BETAS, anis=0.3)
    vols = build(spec, range(10), family)
    plan = make_plan(vols)
    obs = {"mid": DenseOperator((5,), (2,), SZ), "left": DenseOperator((4,), (2,), SX)}
    assert vols.dim == 1024 and [s.indices.size for s in plan.sectors] == [512, 512]
    return vols, plan, obs


class TestBlockUpperTriangle:
    """horizon_reports rotates and contracts only the block upper triangle of
    each sector, one row block of 128 at a time."""

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_several_row_blocks_match_the_per_pair_oracle(self, kind):
        # D = 512: four row blocks on one sector and two on each parity sector, so
        # most pairs lie in the blocks right of the diagonal, which count twice
        spec = make_chain(9, {i: 0 if i == 4 else 1 if i < 4 else 2 for i in range(9)},
                          BETAS, anis=0.3)
        if kind == "complex":
            dm = 0.4 * (np.kron(SX, SY) - np.kron(SY, SX))
            spec = _with_terms(spec, InteractionTerm((3, 4), dm), InteractionTerm((5, 6), dm))
        vols = build(spec, range(9))
        obs = _observables()
        horizons = (0.37, 1.0, 1e3)
        for v in (one_sector(vols), vols):
            plan = make_plan(v)
            got = horizon_reports(v, horizons, observables=obs)
            _assert_reports_close(got, oracles.packed_horizon_reports(v, horizons, plan, obs))

    @pytest.mark.parametrize("site", [None, 1, 4], ids=["unperturbed", "away-from-W", "at-W"])
    def test_no_rotation_is_a_full_sector_product(self, monkeypatch, site):
        # a family field on site 4 meets W on (4, 5, 6), one on site 1 does not
        family = None if site is None else PerturbationFamily(
            ((frozenset(range(10)), (InteractionTerm((site,), 0.2 * SZ),)),), bound_K=1.0)
        vols, plan, obs = _ten_site_chain(family)
        horizons = tuple(np.logspace(0.0, 3.0, 16))
        products = []
        matmul = opalg.matmul

        def counted(a, b):
            out = matmul(a, b)
            products.append((np.shape(a), np.shape(b), out.shape))
            return out

        monkeypatch.setattr(opalg, "matmul", counted)
        horizon_reports(vols, horizons, observables=obs)
        # a rotation contracts a sector's index; a phase product ends in the horizons
        rotations = [out for a, b, out in products
                     if len(a) == 2 and a[-1] == 512 and b[-1] != len(horizons)]
        # the state, the currents, the observables and, only where a family term meets
        # W's sites, the perturbation current; never G
        operators = 1 + len(vols.currents) + len(obs) + (site == 4)
        assert bool(vols.perturbation_current.sites) == (site == 4)
        blocks = 512 // 128
        assert len(rotations) == operators * blocks * len(plan.sectors)
        assert (512, 512) not in rotations
        entries = sum(rows * cols for rows, cols in rotations)
        assert entries <= operators * len(plan.sectors) * (blocks + 1) / (2 * blocks) * 512 ** 2

    def test_real_chain_takes_no_complex_sector_product(self, monkeypatch):
        # the currents, i times a real matrix, are applied as that matrix, so of
        # the operands of sector size only the phases of all horizons are complex
        vols, plan, obs = _ten_site_chain()
        horizons = tuple(np.logspace(0.0, 3.0, 16))
        operands = []
        matmul = opalg.matmul
        monkeypatch.setattr(opalg, "matmul",
                            lambda a, b: operands.extend((a, b)) or matmul(a, b))
        horizon_reports(vols, horizons, observables=obs)
        sector = [x for x in operands if 512 in x.shape[-2:] and x.shape[-1] != len(horizons)]
        assert len(sector) >= 5 * 4 * len(plan.sectors)   # each operator's rotations
        assert [x.shape for x in sector if np.iscomplexobj(x)] == []

    def test_peak_is_below_the_triangle_bound(self, monkeypatch):
        # with the plan given: measured 0.46 real DxD (3.6 with full rotations)
        vols, plan, obs = _ten_site_chain()
        monkeypatch.setattr(thermo, "make_plan", lambda vols: plan)
        reports, peak = traced_peak(lambda: horizon_reports(
            vols, tuple(np.logspace(0.0, 3.0, 16)), observables=obs))
        assert len(reports) == 16
        assert peak <= 3.2 * 8 * vols.dim ** 2

    def test_all_direct_peak(self, monkeypatch):
        # tau / 1e-3 exceeds every Bohr frequency: no row block has a 1/d block or
        # a phase product. Measured 0.73 real DxD (6.8 with a zero 1/d block per
        # row block, int64 pair indices and zero imaginary rows for real P)
        vols, plan, obs = _ten_site_chain()
        horizons = (1e-3, 0.05, 1.0, 1e4)
        sizes = _kernel_arguments(monkeypatch)
        monkeypatch.setattr(thermo, "make_plan", lambda vols: plan)
        reports, peak = traced_peak(lambda: horizon_reports(vols, horizons,
                                                            observables=obs))
        assert len(reports) == 4
        assert sum(sizes) == len(horizons) * _pairs(plan)
        assert peak <= 5.5 * 8 * vols.dim ** 2


def _complex_ten_site_chain():
    """The 10-site chain with 0.2 sigma_y on every site, one sector of 1024, its
    plan and the observables of :func:`_ten_site_chain`."""
    spec = make_chain(10, {i: 0 if i == 5 else 1 if i < 5 else 2 for i in range(10)},
                      BETAS, anis=0.3)
    spec = _with_terms(spec, *(InteractionTerm((i,), 0.2 * SY) for i in range(10)))
    vols = build(spec, range(10))
    plan = make_plan(vols)
    obs = {"mid": DenseOperator((5,), (2,), SZ), "left": DenseOperator((4,), (2,), SX)}
    assert [s.indices.size for s in plan.sectors] == [1024]
    return vols, plan, obs


@pytest.mark.parametrize("chain", [_ten_site_chain, _complex_ten_site_chain],
                         ids=["real-two-sectors", "complex-one-sector"])
def test_exact_evolve_on_own_sites_equals_its_embedding_bitwise(chain):
    # one gather for both: the embedding's entries are the operator's, or exact zeros
    vols, plan, obs = chain()
    obs["raise"] = DenseOperator((3,), (2,), 0.5 * (SX + 1j * SY))
    for key, a in obs.items():
        lifted = embed(a, vols.sites, vols.dims)
        for t in (0.3, 7.5):
            got = exact_evolve(plan, a, t)
            assert (got.sites, got.dims) == (vols.sites, vols.dims)
            assert np.array_equal(got.matrix, exact_evolve(plan, lifted, t).matrix), key


class TestPlanFootprint:
    """The horizon stage holds nothing across row blocks beyond the plan and its
    sums: per row block of 128 rows, the state's block, each operator's block in
    turn and the stacked direct pairs of every operator, each block made from one
    panel image of its own basis columns, zero-padded to D rows; no sector-sized
    image and no block of the generator. A real chain's currents, i times a real
    matrix, are applied as that matrix. 10-site chains, 16 horizons unless every
    pair is direct, tracemalloc in real D x D; the figures in parentheses were
    measured before, with a dense H_B, a complex image of each current, a D x d_p
    padded basis and G's accumulator."""

    HORIZONS = tuple(np.logspace(0.0, 3.0, 16))
    DIRECT = (1e-3, 0.05, 1.0, 1e4)   # tau / 1e-3 exceeds every Bohr frequency
    UNIT = 8 * 1024 ** 2

    def test_real_horizon_stage(self, monkeypatch):
        # measured 0.46 (2.38)
        vols, plan, obs = _ten_site_chain()
        monkeypatch.setattr(thermo, "make_plan", lambda vols: plan)
        reports, peak = traced_peak(lambda: horizon_reports(
            vols, self.HORIZONS, observables=obs))
        assert len(reports) == 16
        assert peak <= 1.25 * self.UNIT

    def test_real_horizon_stage_every_pair_direct(self, monkeypatch):
        # measured 0.73 (4.30): one row block's direct pairs of every operator, real
        vols, plan, obs = _ten_site_chain()
        monkeypatch.setattr(thermo, "make_plan", lambda vols: plan)
        reports, peak = traced_peak(lambda: horizon_reports(
            vols, self.DIRECT, observables=obs))
        assert len(reports) == 4
        assert peak <= 3.6 * self.UNIT

    def test_complex_horizon_stage(self, monkeypatch):
        # measured 0.91 (5.81): no complex image, no separate accumulator for G
        vols, plan, obs = _complex_ten_site_chain()
        monkeypatch.setattr(thermo, "make_plan", lambda vols: plan)
        reports, peak = traced_peak(lambda: horizon_reports(
            vols, self.HORIZONS, observables=obs))
        assert len(reports) == 16
        assert peak <= 5.0 * self.UNIT

    @pytest.mark.parametrize("chain, direct, bound", [
        (_ten_site_chain, False, 0.8), (_complex_ten_site_chain, False, 3.0),
        (_ten_site_chain, True, 1.0), (_complex_ten_site_chain, True, 3.0),
        (_complex_ten_site_chain, False, 1.5)],
        ids=["real", "complex", "real-every-pair-direct", "complex-every-pair-direct",
             "complex-no-held-triangle"])
    def test_horizon_stage_forms_no_image(self, monkeypatch, chain, direct, bound):
        # measured, 16 horizons: 0.46 real and 0.91 complex (0.93 and 4.30 with each
        # operator's whole d_p x d_p image formed before its upper triangle was
        # rotated; 0.72 and 2.47 with the state's block upper triangle held while
        # each operator was contracted). Every pair direct: 0.73 real and 1.98
        # complex (2.56 and 7.09 with every operator's direct pairs packed and
        # held until the last operator was done)
        vols, plan, obs = chain()
        horizons = self.DIRECT if direct else self.HORIZONS
        monkeypatch.setattr(thermo, "make_plan", lambda vols: plan)
        reports, peak = traced_peak(lambda: horizon_reports(
            vols, horizons, observables=obs))
        assert len(reports) == len(horizons)
        assert peak <= bound * self.UNIT

    @pytest.fixture(scope="class")
    def real_run(self):
        """What build leaves allocated, what build and make_plan leave allocated,
        and the peak of build, make_plan and horizon_reports, which makes its own
        plan, on the real 10-site chain."""
        spec = make_chain(10, {i: 0 if i == 5 else 1 if i < 5 else 2 for i in range(10)},
                          BETAS, anis=0.3)
        obs = {"mid": DenseOperator((5,), (2,), SZ), "left": DenseOperator((4,), (2,), SX)}
        tracemalloc.start()
        try:
            vols = build(spec, range(10))
            built = tracemalloc.get_traced_memory()[0]
            plan = make_plan(vols)
            held = tracemalloc.get_traced_memory()[0]
            del plan
            reports = horizon_reports(vols, self.HORIZONS, observables=obs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(reports) == 16 and vols.dim == 1024
        return built / self.UNIT, held / self.UNIT, peak / self.UNIT

    def test_build_holds_no_volume_sized_array(self, real_run):
        # measured 0.046 (0.545 with H_B's two sector blocks held by the build)
        assert real_run[0] < 0.1

    def test_build_and_plan_hold_the_bases(self, real_run):
        # measured 0.55 (1.05): two bases, 0.5 in all; no block of H_B outlives the plan
        assert real_run[1] <= 0.6

    def test_build_plan_and_horizon_stage_peak(self, real_run):
        # measured 1.05, LAPACK's workspace included (0.97 with numpy's eigh, whose
        # workspace tracemalloc did not see; 2.00 with H_B held through the solves
        # and the horizon stage)
        assert real_run[2] <= 1.6

    def test_complex_build_and_horizon_stage_peak(self):
        # 9 sites, one sector of 512: the peak is make_plan's complex solve, in place,
        # beside no block of H_B other than the one it solves. Measured 4.22, the
        # matrix and one buffer of Z and its workspace (6.31 with zheevd's complex copy
        # of Z beside its real workspace; 4.21 with numpy's eigh, whose copies and
        # workspace tracemalloc did not see; 9.30 before that)
        spec = make_chain(9, {i: 0 if i == 4 else 1 if i < 4 else 2 for i in range(9)},
                          BETAS, anis=0.3)
        spec = _with_terms(spec, *(InteractionTerm((i,), 0.2 * SY) for i in range(9)))
        obs = {"mid": DenseOperator((4,), (2,), SZ), "left": DenseOperator((3,), (2,), SX)}
        reports, peak = traced_peak(lambda: horizon_reports(
            build(spec, range(9)), self.HORIZONS, observables=obs))
        assert len(reports) == 16
        assert peak <= 5.0 * 8 * 512 ** 2


def test_redraw_check_keeps_only_the_redrawn_currents():
    # the redrawn build's generator is dropped at once: measured 1.52 real
    # D x D at D = 512 (5.40 with the second build held through the horizons)
    spec = make_chain(9, {i: 0 if i == 4 else 1 if i < 4 else 2 for i in range(9)},
                      BETAS, anis=0.3)
    reports, peak = traced_peak(lambda: thermo.boundary_redraw_check(
        spec, {3, 4, 5}, range(9), (1.0, 10.0, 100.0)))
    assert len(reports) == 3 and all(r.ok for r in reports)
    assert peak <= 3.5 * 8 * 512 ** 2
