import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nesslab import (
    InteractionTerm,
    ModelSpec,
    RegionMap,
    SiteSpec,
    lambda_norm,
    model_from_dict,
    model_to_dict,
    redraw,
    restrict,
    series_radius,
    tail_norm,
    validate,
)
from nesslab.model import PerturbationEntry, PerturbationFamily, interaction_lambda_norm

from conftest import SX, SZ, make_chain


def brute_lambda_norm(spec):
    """Independent oracle: per-site weighted sums with SVD norms."""
    best = 0.0
    for x in spec.site_ids:
        total = 0.0
        for t in spec.terms:
            if x in t.support:
                sym = 0.5 * (t.matrix + t.matrix.conj().T)
                total += math.exp(spec.lam * (len(t.support) - 1)) * np.linalg.norm(sym, 2)
        best = max(best, total)
    return best


class TestValidate:
    def test_chain_ok(self, standard_chain):
        assert validate(standard_chain).ok

    def test_reservoir_coupling_flagged(self, standard_chain):
        bad = ModelSpec(
            standard_chain.sites, standard_chain.regions,
            standard_chain.terms + (InteractionTerm((0, 2), np.kron(SX, SX)),),
            standard_chain.lam, standard_chain.betas)
        report = validate(bad)
        assert not report.ok
        assert any(v.kind == "reservoir-coupling" for v in report.violations)

    def test_non_hermitian_flagged(self):
        sites = (SiteSpec(0, 2), SiteSpec(1, 2))
        regions = RegionMap({0: 0, 1: 1})
        term = InteractionTerm((0,), np.array([[0, 1], [0, 0]], dtype=complex))
        report = validate(ModelSpec(sites, regions, (term,), 0.5, {1: 1.0}))
        assert any(v.kind == "hermiticity" for v in report.violations)

    def test_empty_small_system_flagged(self):
        sites = (SiteSpec(0, 2), SiteSpec(1, 2))
        regions = RegionMap({0: 1, 1: 2})
        report = validate(ModelSpec(sites, regions, (), 0.5, {1: 1.0, 2: 1.0}))
        assert any(v.kind == "empty-s" for v in report.violations)

    def test_missing_beta_flagged(self):
        sites = (SiteSpec(0, 2), SiteSpec(1, 2))
        regions = RegionMap({0: 0, 1: 1})
        report = validate(ModelSpec(sites, regions, (), 0.5, {}))
        assert any(v.kind == "missing-beta" for v in report.violations)


class TestLambdaNorm:
    def test_chain_value(self, standard_chain):
        expected = 0.5 + 2.0 * math.exp(0.5)  # attained at the middle site
        assert lambda_norm(standard_chain) == pytest.approx(expected, abs=1e-12)
        assert brute_lambda_norm(standard_chain) == pytest.approx(expected, abs=1e-12)

    def test_empty_interaction(self):
        spec = ModelSpec((SiteSpec(0, 2), SiteSpec(1, 2)), RegionMap({0: 0, 1: 1}),
                         (), 0.5, {1: 1.0})
        assert lambda_norm(spec) == 0.0

    def test_single_site_term_ignores_lam(self):
        h = 0.37
        for lam in (0.1, 1.0, 3.0):
            spec = ModelSpec((SiteSpec(0, 2),), RegionMap({0: 0}),
                             (InteractionTerm((0,), h * SZ),), lam, {})
            assert lambda_norm(spec) == pytest.approx(h, abs=1e-14)

    def test_matches_bruteforce_on_random_models(self, chain5):
        assert lambda_norm(chain5) == pytest.approx(brute_lambda_norm(chain5), abs=1e-12)

    @given(scale=st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=25, deadline=None)
    def test_homogeneous_under_term_scaling(self, scale):
        base = make_chain(3, {0: 1, 1: 0, 2: 2}, {1: 1.0, 2: 1.0})
        scaled = ModelSpec(
            base.sites, base.regions,
            tuple(InteractionTerm(t.support, scale * t.matrix) for t in base.terms),
            base.lam, base.betas)
        assert lambda_norm(scaled) == pytest.approx(scale * lambda_norm(base), rel=1e-12)

    @given(lam2=st.floats(min_value=0.5, max_value=4.0))
    @settings(max_examples=25, deadline=None)
    def test_monotone_in_lam(self, lam2):
        base = make_chain(3, {0: 1, 1: 0, 2: 2}, {1: 1.0, 2: 1.0}, lam=0.5)
        bigger = ModelSpec(base.sites, base.regions, base.terms, lam2, base.betas)
        assert lambda_norm(bigger) >= lambda_norm(base) - 1e-14


class TestConvergenceRadius:
    def test_chain_value(self, standard_chain):
        expected = 0.5 / (2.0 * (0.5 + 2.0 * math.exp(0.5)))
        assert series_radius(standard_chain) == pytest.approx(expected, rel=1e-12)

    def test_doubling_terms_halves_radius(self, standard_chain):
        doubled = ModelSpec(
            standard_chain.sites, standard_chain.regions,
            tuple(InteractionTerm(t.support, 2.0 * t.matrix) for t in standard_chain.terms),
            standard_chain.lam, standard_chain.betas)
        assert series_radius(doubled) == pytest.approx(
            series_radius(standard_chain) / 2.0, rel=1e-12)

    def test_empty_interaction_is_infinite(self):
        spec = ModelSpec((SiteSpec(0, 2), SiteSpec(1, 2)), RegionMap({0: 0, 1: 1}),
                         (), 0.5, {1: 1.0})
        assert series_radius(spec) == math.inf


class TestTailNorm:
    def test_full_volume_is_zero(self, standard_chain):
        assert tail_norm(standard_chain, {0, 1, 2}) == 0.0

    def test_single_site(self, standard_chain):
        # only the first bond escapes {0}; its weight is e^{lam (2-1)}
        assert tail_norm(standard_chain, {0}) == pytest.approx(math.exp(0.5), abs=1e-12)

    def test_empty_set(self, standard_chain):
        assert tail_norm(standard_chain, set()) == 0.0

    def test_nonincreasing_along_exhaustion(self, chain5):
        values = [tail_norm(chain5, set(range(k))) for k in range(1, 6)]
        assert all(a >= b - 1e-14 for a, b in zip(values, values[1:]))
        assert values[-1] == 0.0


class TestRestrict:
    def test_chain_reservoir_one(self, standard_chain):
        terms = restrict(standard_chain, 1)
        assert [t.support for t in terms] == [(0,)]

    def test_no_interior_terms(self, decoupled_model):
        spec = ModelSpec(decoupled_model.sites, decoupled_model.regions,
                         (InteractionTerm((0, 1), np.kron(SX, SX)),),
                         0.5, decoupled_model.betas)
        assert restrict(spec, 2) == ()

    def test_five_site_enumeration(self):
        spec = make_chain(5, {0: 1, 1: 1, 2: 0, 3: 2, 4: 2}, {1: 1.0, 2: 1.0})
        picked = {t.support for t in restrict(spec, 1)}
        # enumeration oracle: exactly the supports inside {0, 1}
        expected = {t.support for t in spec.terms if set(t.support) <= {0, 1}}
        assert picked == expected
        assert (1, 2) not in picked

    def test_unknown_reservoir(self, standard_chain):
        with pytest.raises(ValueError):
            restrict(standard_chain, 7)


class TestRedraw:
    def test_identity(self, chain5):
        same = redraw(chain5, chain5.small_system)
        assert same.regions.assignment == chain5.regions.assignment

    def test_five_site_enlargement(self, chain5):
        out = redraw(chain5, {1, 2, 3})
        assert out.regions.sites_in(0) == {1, 2, 3}
        assert out.regions.sites_in(1) == {0}
        assert out.regions.sites_in(2) == {4}
        assert validate(out).ok

    def test_preserves_sites_and_terms(self, chain5):
        out = redraw(chain5, {1, 2, 3})
        assert out.sites == chain5.sites
        assert out.terms == chain5.terms
        assert out.lam == chain5.lam

    def test_must_contain_old_small_system(self, chain5):
        with pytest.raises(ValueError):
            redraw(chain5, {1, 3})

    def test_unknown_sites_rejected(self, chain5):
        with pytest.raises(ValueError):
            redraw(chain5, {2, 9})


class TestModelStructure:
    def test_duplicate_supports_merge(self):
        sites = (SiteSpec(0, 2), SiteSpec(1, 2))
        regions = RegionMap({0: 0, 1: 1})
        spec = ModelSpec(sites, regions,
                         (InteractionTerm((0,), 0.5 * SZ), InteractionTerm((0,), 0.25 * SZ)),
                         0.5, {1: 1.0})
        assert len(spec.terms) == 1
        np.testing.assert_allclose(spec.terms[0].matrix, 0.75 * SZ)

    def test_local_dim_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            SiteSpec(0, 1)

    def test_term_dimension_checked(self):
        sites = (SiteSpec(0, 2), SiteSpec(1, 3))
        with pytest.raises(ValueError):
            ModelSpec(sites, RegionMap({0: 0, 1: 1}),
                      (InteractionTerm((0, 1), np.eye(4)),), 0.5, {1: 1.0})

    def test_region_map_covers_sites(self):
        with pytest.raises(ValueError):
            ModelSpec((SiteSpec(0, 2), SiteSpec(1, 2)), RegionMap({0: 0}), (), 0.5, {})

    def test_json_roundtrip(self, standard_chain):
        doc = model_to_dict(standard_chain)
        again = model_from_dict(json.loads(json.dumps(doc)))
        assert again.site_ids == standard_chain.site_ids
        assert again.regions.assignment == standard_chain.regions.assignment
        assert again.betas == standard_chain.betas
        for a, b in zip(again.terms, standard_chain.terms):
            assert a.support == b.support
            np.testing.assert_allclose(a.matrix, b.matrix, atol=1e-15)


class TestPerturbationFamily:
    def test_terms_keyed_by_volume(self):
        entry = PerturbationEntry(frozenset({0, 1, 2}), (InteractionTerm((0,), 0.3 * SZ),))
        family = PerturbationFamily((entry,), bound_K=1.0)
        assert family.terms_for((0, 1, 2)) == entry.terms
        assert family.terms_for((0, 1)) == ()

    def test_check_flags_small_system_terms(self, standard_chain):
        entry = PerturbationEntry(frozenset({0, 1, 2}), (InteractionTerm((1,), 0.3 * SZ),))
        family = PerturbationFamily((entry,), bound_K=1.0)
        assert family.check(standard_chain)

    def test_check_flags_bound_violation(self, standard_chain):
        entry = PerturbationEntry(frozenset({0, 1, 2}), (InteractionTerm((0,), 5.0 * SZ),))
        family = PerturbationFamily((entry,), bound_K=1.0)
        problems = family.check(standard_chain)
        assert any("bound_K" in p for p in problems)

    def test_protected_sets_enforced(self, standard_chain):
        touching = PerturbationEntry(frozenset({0, 1, 2}), (InteractionTerm((0,), 0.3 * SZ),))
        family = PerturbationFamily((touching, touching), bound_K=1.0,
                                    protected=(((frozenset({0})), 1),))
        problems = family.check(standard_chain)
        assert any("protected" in p for p in problems)
        clean = PerturbationFamily((touching,), bound_K=1.0,
                                   protected=((frozenset({0}), 1),))
        assert not clean.check(standard_chain)

    def test_family_norm_uses_same_weighting(self, standard_chain):
        terms = (InteractionTerm((0,), 0.3 * SZ),)
        assert interaction_lambda_norm(terms, standard_chain.lam,
                                       standard_chain.site_ids) == pytest.approx(0.3)
