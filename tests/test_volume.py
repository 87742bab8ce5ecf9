import math
import warnings
from collections.abc import Mapping
from dataclasses import fields

import numpy as np
import pytest
from scipy.linalg import expm

from nesslab import (
    InteractionTerm,
    ModelSpec,
    build,
    commutator,
    current_bound_check,
    embed,
    op_norm,
)
from nesslab.model import PerturbationFamily, lambda_norm
from nesslab import opalg
from nesslab.opalg import DenseOperator

import oracles
from oracles import zero
from conftest import (SX, SZ, dense_generator, end_chain, make_chain, random_hermitian,
                      traced_peak)


class TestBuild:
    def test_decoupled_currents_vanish(self, decoupled_model):
        vols = build(decoupled_model, (0, 1, 2))
        for cur in vols.currents.values():
            assert op_norm(cur) <= 1e-14

    def test_equal_betas_g_is_shifted_reservoir_sum(self, standard_chain):
        spec = ModelSpec(standard_chain.sites, standard_chain.regions,
                         standard_chain.terms, standard_chain.lam, {1: 1.3, 2: 1.3})
        vols = build(spec, (0, 1, 2))
        total = zero(vols.sites, vols.dims)
        for a in vols.reservoirs:
            total = total + embed(vols.H_a[a], vols.sites, vols.dims)
        shift = oracles.exponent(vols) - 1.3 * total.matrix
        # the remainder must be a multiple of the identity
        off = shift - shift[0, 0] * np.eye(vols.dim)
        assert np.max(np.abs(off)) <= 1e-12

    def test_exact_field_identities(self, chain5):
        vols = build(chain5, range(5))
        h = oracles.hamiltonian(vols)
        recon = h
        for a in vols.reservoirs:
            recon = recon + embed(vols.B_a[a], vols.sites, vols.dims)
        np.testing.assert_array_equal(dense_generator(vols).matrix, recon.matrix)
        sub = h
        for a in vols.reservoirs:
            sub = sub - embed(vols.H_a[a], vols.sites, vols.dims)
        np.testing.assert_array_equal(embed(vols.W, vols.sites, vols.dims).matrix, sub.matrix)

    def test_all_fields_hermitian(self, chain5):
        vols = build(chain5, range(5))
        for op in [oracles.hamiltonian(vols), dense_generator(vols), vols.W, *vols.H_a.values(),
                   *vols.B_a.values(), *vols.blocks.values(), *vols.currents.values()]:
            defect = np.max(np.abs(op.matrix - op.matrix.conj().T))
            assert defect <= 1e-12 * max(1.0, np.max(np.abs(op.matrix)))

    def test_exp_minus_g_is_normalized_positive(self, chain5):
        vols = build(chain5, range(5))
        # G, the lifted blocks plus log Z, is nonnegative with g_norm its largest eigenvalue
        g = oracles.exponent(vols)
        rho = expm(-g)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
        assert np.min(np.linalg.eigvalsh(rho)) > 0.0
        spectrum = np.linalg.eigvalsh(g)
        assert spectrum[0] >= -1e-12 and vols.g_norm == pytest.approx(spectrum[-1], rel=1e-12)

    def test_boundary_terms_dropped(self, chain5):
        vols = build(chain5, (1, 2, 3))
        # the site terms at 0 and 4 and the bonds (0,1), (3,4) fall outside
        manual = zero(vols.sites, vols.dims)
        for term in chain5.terms:
            if set(term.support) <= {1, 2, 3}:
                manual = manual + embed(chain5.term_operator(term), vols.sites, vols.dims)
        np.testing.assert_allclose(oracles.hamiltonian(vols).matrix, manual.matrix, atol=1e-14)

    @pytest.mark.parametrize("case", ["chain5", "end-S"])
    def test_builds_with_no_eigensolve(self, chain5, case, eigensolves):
        # the norms of G and W are read on request, each from its own solves
        spec = chain5 if case == "chain5" else end_chain(8)
        vols = build(spec, spec.site_ids)
        assert eigensolves == []
        assert vols.w_norm > 0.0
        assert len(eigensolves) == 1
        assert math.isfinite(vols.g_norm)
        assert len(eigensolves) == 1 + len(vols.reservoirs)

    def test_reservoir_without_beta_refused(self, chain5):
        spec = ModelSpec(chain5.sites, chain5.regions, chain5.terms, chain5.lam, {1: 2.0})
        with pytest.raises(ValueError, match="reservoir 2 has no inverse temperature"):
            build(spec, range(5))

    def test_volume_must_contain_small_system(self, chain5):
        with pytest.raises(ValueError):
            build(chain5, (0, 1))

    def test_undeclared_sites_rejected(self, chain5):
        with pytest.raises(ValueError):
            build(chain5, (2, 3, 9))

    def test_reservoir_blocks_commute(self, chain5):
        entry = (frozenset(range(5)),
                 (InteractionTerm((0, 1), 0.4 * np.kron(SX, SX)),
                  InteractionTerm((4,), 0.2 * SZ)))
        family = PerturbationFamily((entry,), bound_K=2.0)
        vols = build(chain5, range(5), family)
        blocks = [embed(vols.H_a[a], vols.sites, vols.dims) + embed(vols.B_a[a], vols.sites,
                                                                    vols.dims)
                  for a in vols.reservoirs]
        total = sum(blocks, zero(vols.sites, vols.dims))
        for block in blocks:
            assert op_norm(commutator(block, total)) <= 1e-10

    def test_current_sum_equals_interface_commutator(self, chain5):
        vols = build(chain5, range(5))
        total = zero(vols.sites, vols.dims)
        for cur in vols.currents.values():
            total = total + embed(cur, vols.sites, vols.dims)
        expected = -1j * commutator(oracles.hamiltonian(vols),
                                    embed(vols.W, vols.sites, vols.dims)).matrix
        assert np.max(np.abs(total.matrix - expected)) <= 1e-12

    def test_perturbation_for_other_volume_is_inert(self, chain5):
        entry = (frozenset({1, 2, 3}),
                 (InteractionTerm((4,), 0.2 * SZ),))
        family = PerturbationFamily((entry,), bound_K=1.0)
        vols = build(chain5, range(5), family)
        for b in vols.B_a.values():
            assert op_norm(b) == 0.0

    def test_perturbation_outside_its_volume_rejected(self, chain5):
        # refused as a term outside a single reservoir is, not dropped
        entry = (frozenset({1, 2, 3}), (InteractionTerm((0,), 0.2 * SZ),))
        family = PerturbationFamily((entry,), bound_K=1.0)
        with pytest.raises(ValueError, match=r"term on \(0,\) is not inside its volume"):
            build(chain5, (1, 2, 3), family)

    def test_perturbation_meeting_small_system_rejected(self, chain5):
        entry = (frozenset(range(5)),
                 (InteractionTerm((2,), 0.2 * SZ),))
        family = PerturbationFamily((entry,), bound_K=1.0)
        with pytest.raises(ValueError):
            build(chain5, range(5), family)

    def test_currents_stabilize_once_interface_is_inside(self):
        # beyond (1,2,3) the added sites only bring reservoir-interior bonds,
        # which commute with nothing new in the interface
        spec = make_chain(7, {0: 1, 1: 1, 2: 1, 3: 0, 4: 2, 5: 2, 6: 2},
                          {1: 2.0, 2: 1.0})
        prev = None
        diffs = []
        for volume in [(2, 3, 4), (1, 2, 3, 4, 5), (0, 1, 2, 3, 4, 5, 6)]:
            vols = build(spec, volume)
            cur = embed(vols.currents[1], vols.sites, vols.dims)
            if prev is not None:
                lifted = embed(prev, vols.sites, vols.dims)
                diffs.append(op_norm(lifted - cur))
            prev = cur
        assert diffs == sorted(diffs, reverse=True) or diffs[-1] <= diffs[0] + 1e-12
        # interface commutators involve only terms meeting S and their
        # neighbors, all inside (1..5): the last enlargement changes nothing
        assert diffs[-1] <= 1e-12


class TestFootprint:
    """No field is volume-sized: H_B's terms, H_a, B_a, W, the currents and the
    perturbation current stay on their own sites, and H_B's sector blocks are
    assembled on request."""

    @pytest.mark.parametrize("case", ["bare", "perturbed", "end-S"])
    def test_volume_sized_fields(self, chain5, case):
        entry = (frozenset(range(5)),
                 (InteractionTerm((0, 1), 0.4 * np.kron(SX, SX)),
                  InteractionTerm((4,), 0.2 * SZ)))
        family = PerturbationFamily((entry,), bound_K=2.0) if case == "perturbed" else None
        spec = end_chain(5) if case == "end-S" else chain5
        vols = build(spec, range(5), family)
        operators = []
        for f in fields(vols):
            value = getattr(vols, f.name)
            if isinstance(value, DenseOperator):
                operators.append(value)
            elif isinstance(value, Mapping):
                operators += [v for v in value.values() if isinstance(v, DenseOperator)]
            elif isinstance(value, tuple):
                operators += [v for v in value if isinstance(v, DenseOperator)]
        assert len(operators) == 2 + 3 * len(vols.reservoirs) + len(vols.generator_terms)
        assert [op for op in operators if op.dim == vols.dim] == []
        assert [h.shape for h in vols.H_B_blocks()] == [(16, 16)] * 2   # the parity sectors
        assert isinstance(vols.g_norm, float)
        # B_a is on the sites of its family terms, and with none on no sites, as is
        # the perturbation current when no family term meets W's sites
        if case == "end-S":
            # W is on (0, 1); of the reservoir's terms only the field on 1 and the
            # bond (1, 2) meet it, so the current is on (0, 1, 2), not on the volume
            own_sites = [(vols.H_a[1], (1, 2, 3, 4)), (vols.B_a[1], ()),
                         (vols.W, (0, 1)), (vols.currents[1], (0, 1, 2)),
                         (vols.perturbation_current, ())]
        else:
            # of the family, the bond (0, 1) meets W on (1, 2, 3) and the field on 4 does not
            perturbed = case == "perturbed"
            own_sites = [(vols.H_a[1], (0, 1)), (vols.B_a[1], (0, 1) if perturbed else ()),
                         (vols.H_a[2], (3, 4)), (vols.B_a[2], (4,) if perturbed else ()),
                         (vols.W, (1, 2, 3)),
                         (vols.currents[1], (0, 1, 2, 3)), (vols.currents[2], (1, 2, 3, 4)),
                         (vols.perturbation_current, (0, 1, 2, 3) if perturbed else ())]
        for op, sites in own_sites:
            assert op.sites == sites
            assert op.dim == spec.volume_dim(sites)

    @pytest.mark.parametrize("case", ["middle-S", "end-S"])
    def test_build_holds_one_volume_sized_array_at_a_time(self, case):
        # with S in the middle of 8 sites every other operator lives on at most 6 of
        # them; with S at the end of 10, H_a lives on 9, the current on 3 and B_a, with
        # no family term, on none: the reservoir-sized array is H_a's alone (measured
        # 0.27 real DxD, and 0.50 with B_a a zero matrix on H_a's sites)
        if case == "middle-S":
            spec = make_chain(8, {0: 1, 1: 1, 2: 1, 3: 0, 4: 2, 5: 2, 6: 2, 7: 2},
                              {1: 2.0, 2: 1.0}, anis=0.3)
            bound = 0.75
        else:
            spec = end_chain(10, anis=0.3)
            bound = 0.375
        vols, peak = traced_peak(lambda: build(spec, spec.site_ids))
        assert vols.dim == 2 ** len(spec.site_ids)
        assert peak <= bound * 8 * vols.dim ** 2


class TestLogPartition:
    """g_norm, whose log Z comes from the reservoir blocks, against the norm of
    the D x D exponent, whose log Z is scipy's logsumexp over the D x D
    spectrum (``oracles.g_norm`` and ``oracles.log_partition``)."""

    ASSIGNMENT = {0: 1, 1: 1, 2: 0, 3: 2, 4: 2}

    # (case id, spec or fixture name, volume)
    CASES = (
        # the minimum of the volume spectrum is tied (S contributes a factor 2)
        ("decoupled", "decoupled_model", (0, 1, 2)),
        # no fields: each reservoir block sx sx has a doubly degenerate minimum
        ("tied-block-minimum", make_chain(5, ASSIGNMENT, {1: 2.0, 2: 1.0}, field=0.0),
         range(5)),
        # beta ||H_a|| about 1e3: exp of the unshifted spectrum overflows
        ("wide-spread", make_chain(5, ASSIGNMENT, {1: 2.0, 2: 1.0}, field=250.0), range(5)),
        # reservoir 2 has no in-volume site: a 1x1 zero block
        ("one-dimensional-block", "chain5", (1, 2)),
    )

    @pytest.mark.parametrize("spec,volume", [case[1:] for case in CASES],
                             ids=[case[0] for case in CASES])
    def test_matches_logsumexp_of_full_spectrum(self, request, spec, volume):
        if isinstance(spec, str):
            spec = request.getfixturevalue(spec)
        with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise"):
            warnings.simplefilter("error")
            vols = build(spec, volume)
        g_ref = oracles.g_norm(vols)
        assert math.isfinite(vols.g_norm)
        assert abs(vols.g_norm - g_ref) <= 1e-12 * max(1.0, abs(g_ref))


class TestInterfaceOperator:
    def test_no_terms_meeting_small_system(self, decoupled_model):
        reservoir_only = ModelSpec(
            decoupled_model.sites, decoupled_model.regions,
            tuple(t for t in decoupled_model.terms if 1 not in t.support),
            decoupled_model.lam, decoupled_model.betas)
        w = oracles.interface_operator(reservoir_only, (0, 1, 2))
        assert op_norm(w) == 0.0

    def test_weights_telescope_for_two_site_overlap(self):
        # one bond with both endpoints inside S: counted 2 * (1/2) = once
        spec = make_chain(3, {0: 0, 1: 0, 2: 1}, {1: 1.0}, field=0.0)
        w = oracles.interface_operator(spec, (0, 1, 2))
        vols = build(spec, (0, 1, 2))
        direct = embed(vols.W, vols.sites, vols.dims)
        assert np.max(np.abs(w.matrix - direct.matrix)) <= 1e-12

    def test_matches_direct_subtraction_on_random_model(self):
        rng = np.random.default_rng(31)
        sites = tuple(range(5))
        terms = [InteractionTerm((i,), random_hermitian(rng, 2)) for i in sites]
        terms += [InteractionTerm((i, i + 1), random_hermitian(rng, 4)) for i in range(4)]
        terms += [InteractionTerm((1, 2, 3), random_hermitian(rng, 8))]
        spec = ModelSpec({i: 2 for i in sites},
                         {0: 1, 1: 1, 2: 0, 3: 2, 4: 2},
                         tuple(terms), 0.5, {1: 2.0, 2: 1.0})
        w = oracles.interface_operator(spec, sites)
        vols = build(spec, sites)
        direct = embed(vols.W, vols.sites, vols.dims)
        assert np.max(np.abs(w.matrix - direct.matrix)) <= 1e-12

    def test_standard_chain_agreement(self, standard_chain):
        w = oracles.interface_operator(standard_chain, (0, 1, 2))
        vols = build(standard_chain, (0, 1, 2))
        direct = embed(vols.W, vols.sites, vols.dims)
        assert np.max(np.abs(w.matrix - direct.matrix)) <= 1e-12


class TestCurrentBound:
    def test_decoupled(self, decoupled_model):
        report = current_bound_check(decoupled_model, build(decoupled_model, (0, 1, 2)))
        assert report.ok
        assert all(v == 0.0 for v in report.norms.values())

    def test_standard_chain(self, standard_chain):
        report = current_bound_check(standard_chain, build(standard_chain, (0, 1, 2)))
        assert report.ok
        assert all(v <= report.bound for v in report.norms.values())
        # a finite bound is the float product as written
        assert report.bound == 2.0 * 1 * np.exp(0.5) * lambda_norm(standard_chain)**2 / 0.5

    def test_no_volume_sized_eigensolve(self, chain5, eigensolves):
        # each current lives on W's sites (1, 2, 3) plus its reservoir's two
        report = current_bound_check(chain5, build(chain5, range(5)))
        assert report.ok
        assert eigensolves
        assert max(dim for dim, _, _ in eigensolves) == 16

    def test_takes_the_builds_currents_bitwise(self, chain5, monkeypatch):
        from nesslab import volume

        vols = build(chain5, range(5))
        expected = {a: op_norm(c) for a, c in vols.currents.items()}
        monkeypatch.setattr(volume, "build", None)   # nothing is built again
        report = current_bound_check(chain5, vols)
        assert report.norms == expected

    @pytest.mark.parametrize("case", ["3-site chain", "4-site term"])
    def test_bound_whose_float_product_overflows(self, case):
        # the 3-site chain's e^lam ||Phi||_lam^2 = 4 e^708 overflows at lam = 236, but the
        # bound 8 e^708 / 236 is finite; one 4-site term has ||Phi||_lam = e^{3 lam}, and
        # its bound 4 e^{7 lam} / lam is past the largest float at lam = 177
        if case == "3-site chain":
            spec = make_chain(3, {0: 1, 1: 0, 2: 2}, {1: 1.0, 2: 2.0}, field=0.0, lam=236.0)
            expected = 8.0 * math.exp(708.0 - math.log(236.0))
        else:
            term = InteractionTerm((0, 1, 2, 3), np.kron(np.kron(SX, SX), np.kron(SX, SX)))
            spec = ModelSpec({i: 2 for i in range(4)}, {0: 1, 1: 0, 2: 0, 3: 2}, (term,),
                             177.0, {1: 1.0, 2: 2.0})
            expected = math.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = current_bound_check(spec, build(spec, spec.site_ids))
        assert report.bound == pytest.approx(expected, rel=1e-12) and report.ok

    def test_scaling_is_quartic_in_bound_quadratic_in_interaction(self, standard_chain):
        doubled = ModelSpec(
            standard_chain.sites, standard_chain.regions,
            tuple(InteractionTerm(t.support, 2.0 * t.matrix) for t in standard_chain.terms),
            standard_chain.lam, standard_chain.betas)
        base = current_bound_check(standard_chain, build(standard_chain, (0, 1, 2)))
        big = current_bound_check(doubled, build(doubled, (0, 1, 2)))
        assert big.bound == pytest.approx(4.0 * base.bound, rel=1e-12)
        for a in base.norms:
            assert big.norms[a] == pytest.approx(4.0 * base.norms[a], rel=1e-10)
