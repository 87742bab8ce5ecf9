from collections.abc import Mapping
from dataclasses import fields

import numpy as np
import pytest
from scipy.linalg import expm

from nesslab import (
    InteractionTerm,
    ModelSpec,
    RegionMap,
    SiteSpec,
    build,
    commutator,
    current_bound_check,
    embed,
    interface_operator,
    op_norm,
)
from nesslab.model import PerturbationEntry, PerturbationFamily
from nesslab.opalg import DenseOperator, zero

import oracles
from conftest import SX, SZ, make_chain, random_hermitian


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
        shift = vols.G.matrix - 1.3 * total.matrix
        # the remainder must be a multiple of the identity
        off = shift - shift[0, 0] * np.eye(vols.dim)
        assert np.max(np.abs(off)) <= 1e-12

    def test_exact_field_identities(self, chain5):
        vols = build(chain5, range(5))
        h = oracles.hamiltonian(vols)
        recon = h
        for a in vols.reservoirs:
            recon = recon + embed(vols.B_a[a], vols.sites, vols.dims)
        np.testing.assert_array_equal(vols.H_B.matrix, recon.matrix)
        sub = h
        for a in vols.reservoirs:
            sub = sub - embed(vols.H_a[a], vols.sites, vols.dims)
        np.testing.assert_array_equal(embed(vols.W, vols.sites, vols.dims).matrix, sub.matrix)

    def test_all_fields_hermitian(self, chain5):
        vols = build(chain5, range(5))
        for op in [oracles.hamiltonian(vols), vols.H_B, vols.G, vols.W, *vols.H_a.values(),
                   *vols.B_a.values(), *vols.currents.values()]:
            assert op.is_hermitian(1e-12)

    def test_exp_minus_g_is_normalized_positive(self, chain5):
        vols = build(chain5, range(5))
        rho = expm(-vols.G.matrix)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
        assert np.min(np.linalg.eigvalsh(rho)) > 0.0

    def test_boundary_terms_dropped_and_logged(self, chain5):
        vols = build(chain5, (1, 2, 3))
        # the site terms at 0 and 4 and the bonds (0,1), (3,4) fall outside
        assert any("dropped at the boundary: 4" in line for line in vols.log)
        manual = zero(vols.sites, vols.dims)
        for term in chain5.terms:
            if set(term.support) <= {1, 2, 3}:
                manual = manual + embed(chain5.term_operator(term), vols.sites, vols.dims)
        np.testing.assert_allclose(oracles.hamiltonian(vols).matrix, manual.matrix, atol=1e-14)

    def test_volume_must_contain_small_system(self, chain5):
        with pytest.raises(ValueError):
            build(chain5, (0, 1))

    def test_undeclared_sites_rejected(self, chain5):
        with pytest.raises(ValueError):
            build(chain5, (2, 3, 9))

    def test_reservoir_blocks_commute(self, chain5):
        entry = PerturbationEntry(frozenset(range(5)),
                                  (InteractionTerm((0, 1), 0.4 * np.kron(SX, SX)),
                                   InteractionTerm((4,), 0.2 * SZ)))
        family = PerturbationFamily((entry,), bound_K=2.0)
        vols = build(chain5, range(5), family)
        total = zero(vols.sites, vols.dims)
        for a in vols.reservoirs:
            total = total + embed(vols.H_a[a] + vols.B_a[a], vols.sites, vols.dims)
        for a in vols.reservoirs:
            block = embed(vols.H_a[a] + vols.B_a[a], vols.sites, vols.dims)
            assert op_norm(commutator(block, total)) <= 1e-10

    def test_current_sum_equals_interface_commutator(self, chain5):
        vols = build(chain5, range(5))
        total = zero(vols.sites, vols.dims)
        for cur in vols.currents.values():
            total = total + cur
        expected = -1j * commutator(oracles.hamiltonian(vols),
                                    embed(vols.W, vols.sites, vols.dims)).matrix
        assert np.max(np.abs(total.matrix - expected)) <= 1e-12

    def test_perturbation_for_other_volume_is_inert(self, chain5):
        entry = PerturbationEntry(frozenset({1, 2, 3}),
                                  (InteractionTerm((4,), 0.2 * SZ),))
        family = PerturbationFamily((entry,), bound_K=1.0)
        vols = build(chain5, range(5), family)
        for b in vols.B_a.values():
            assert op_norm(b) == 0.0

    def test_perturbation_meeting_small_system_rejected(self, chain5):
        entry = PerturbationEntry(frozenset(range(5)),
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
            cur = vols.currents[1]
            if prev is not None:
                lifted = embed(prev, vols.sites, vols.dims)
                diffs.append(op_norm(lifted - cur))
            prev = cur
        assert diffs == sorted(diffs, reverse=True) or diffs[-1] <= diffs[0] + 1e-12
        # interface commutators involve only terms meeting S and their
        # neighbors, all inside (1..5): the last enlargement changes nothing
        assert diffs[-1] <= 1e-12


class TestFootprint:
    """Only H_B, G and the currents are volume-sized; H_a, B_a and W stay on
    their own sites."""

    @pytest.mark.parametrize("perturbed", [False, True], ids=["bare", "perturbed"])
    def test_volume_sized_fields(self, chain5, perturbed):
        entry = PerturbationEntry(frozenset(range(5)),
                                  (InteractionTerm((0, 1), 0.4 * np.kron(SX, SX)),
                                   InteractionTerm((4,), 0.2 * SZ)))
        family = PerturbationFamily((entry,), bound_K=2.0) if perturbed else None
        vols = build(chain5, range(5), family)
        operators = []
        for f in fields(vols):
            value = getattr(vols, f.name)
            if isinstance(value, DenseOperator):
                operators.append(value)
            elif isinstance(value, Mapping):
                operators += [v for v in value.values() if isinstance(v, DenseOperator)]
        assert sum(op.dim == vols.dim for op in operators) == 2 + len(vols.reservoirs)
        assert vols.H_B.dim == vols.G.dim == vols.dim
        assert all(cur.dim == vols.dim for cur in vols.currents.values())
        own_sites = [(vols.H_a[1], (0, 1)), (vols.B_a[1], (0, 1)),
                     (vols.H_a[2], (3, 4)), (vols.B_a[2], (3, 4)), (vols.W, (1, 2, 3))]
        for op, sites in own_sites:
            assert op.sites == sites
            assert op.dim == chain5.volume_dim(sites)


class TestInterfaceOperator:
    def test_no_terms_meeting_small_system(self, decoupled_model):
        reservoir_only = ModelSpec(
            decoupled_model.sites, decoupled_model.regions,
            tuple(t for t in decoupled_model.terms if 1 not in t.support),
            decoupled_model.lam, decoupled_model.betas)
        w = interface_operator(reservoir_only, (0, 1, 2))
        assert op_norm(w) == 0.0

    def test_weights_telescope_for_two_site_overlap(self):
        # one bond with both endpoints inside S: counted 2 * (1/2) = once
        spec = make_chain(3, {0: 0, 1: 0, 2: 1}, {1: 1.0}, field=0.0)
        w = interface_operator(spec, (0, 1, 2))
        vols = build(spec, (0, 1, 2))
        direct = embed(vols.W, vols.sites, vols.dims)
        assert np.max(np.abs(w.matrix - direct.matrix)) <= 1e-12

    def test_matches_direct_subtraction_on_random_model(self):
        rng = np.random.default_rng(31)
        sites = tuple(range(5))
        terms = [InteractionTerm((i,), random_hermitian(rng, 2)) for i in sites]
        terms += [InteractionTerm((i, i + 1), random_hermitian(rng, 4)) for i in range(4)]
        terms += [InteractionTerm((1, 2, 3), random_hermitian(rng, 8))]
        spec = ModelSpec(tuple(SiteSpec(i, 2) for i in sites),
                         RegionMap({0: 1, 1: 1, 2: 0, 3: 2, 4: 2}),
                         tuple(terms), 0.5, {1: 2.0, 2: 1.0})
        w = interface_operator(spec, sites)
        vols = build(spec, sites)
        direct = embed(vols.W, vols.sites, vols.dims)
        assert np.max(np.abs(w.matrix - direct.matrix)) <= 1e-12

    def test_standard_chain_agreement(self, standard_chain):
        w = interface_operator(standard_chain, (0, 1, 2))
        vols = build(standard_chain, (0, 1, 2))
        direct = embed(vols.W, vols.sites, vols.dims)
        assert np.max(np.abs(w.matrix - direct.matrix)) <= 1e-12


class TestCurrentBound:
    def test_decoupled(self, decoupled_model):
        report = current_bound_check(decoupled_model, (0, 1, 2))
        assert report.ok
        assert all(v == 0.0 for v in report.norms.values())

    def test_standard_chain(self, standard_chain):
        report = current_bound_check(standard_chain, (0, 1, 2))
        assert report.ok
        assert all(v <= report.bound for v in report.norms.values())

    def test_scaling_is_quartic_in_bound_quadratic_in_interaction(self, standard_chain):
        doubled = ModelSpec(
            standard_chain.sites, standard_chain.regions,
            tuple(InteractionTerm(t.support, 2.0 * t.matrix) for t in standard_chain.terms),
            standard_chain.lam, standard_chain.betas)
        base = current_bound_check(standard_chain, (0, 1, 2))
        big = current_bound_check(doubled, (0, 1, 2))
        assert big.bound == pytest.approx(4.0 * base.bound, rel=1e-12)
        for a in base.norms:
            assert big.norms[a] == pytest.approx(4.0 * base.norms[a], rel=1e-10)
