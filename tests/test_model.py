import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nesslab import (
    InteractionTerm,
    ModelSpec,
    build,
    lambda_norm,
    model_from_dict,
    redraw,
    series_radius,
    tail_norm,
    validate,
)
from nesslab import opalg
from nesslab.model import PerturbationFamily, interaction_lambda_norm

from conftest import SX, SZ, make_chain, model_to_dict, random_hermitian


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
        assert validate(standard_chain) == ()

    def test_reservoir_coupling_flagged(self, standard_chain):
        bad = ModelSpec(
            standard_chain.sites, standard_chain.regions,
            standard_chain.terms + (InteractionTerm((0, 2), np.kron(SX, SX)),),
            standard_chain.lam, standard_chain.betas)
        problems = validate(bad)
        assert any(p.startswith("[reservoir-coupling] ") for p in problems)

    def test_non_hermitian_flagged(self):
        sites = {0: 2, 1: 2}
        regions = {0: 0, 1: 1}
        term = InteractionTerm((0,), np.array([[0, 1], [0, 0]], dtype=complex))
        problems = validate(ModelSpec(sites, regions, (term,), 0.5, {1: 1.0}))
        assert any(p.startswith("[hermiticity] ") for p in problems)

    def test_empty_small_system_flagged(self):
        sites = {0: 2, 1: 2}
        regions = {0: 1, 1: 2}
        problems = validate(ModelSpec(sites, regions, (), 0.5, {1: 1.0, 2: 1.0}))
        assert any(p.startswith("[empty-s] ") for p in problems)

    def test_missing_beta_flagged(self):
        sites = {0: 2, 1: 2}
        regions = {0: 0, 1: 1}
        problems = validate(ModelSpec(sites, regions, (), 0.5, {}))
        assert any(p.startswith("[missing-beta] ") for p in problems)

    @pytest.mark.parametrize("beta", [0.0, -1.0])
    def test_nonpositive_beta_flagged(self, beta):
        problems = validate(ModelSpec({0: 2, 1: 2}, {0: 0, 1: 1}, (), 0.5, {1: beta}))
        assert problems == ("[bad-beta] reservoir 1: beta must be > 0",)


class TestLambdaNorm:
    def test_chain_value(self, standard_chain):
        expected = 0.5 + 2.0 * math.exp(0.5)  # attained at the middle site
        assert lambda_norm(standard_chain) == pytest.approx(expected, abs=1e-12)
        assert brute_lambda_norm(standard_chain) == pytest.approx(expected, abs=1e-12)

    def test_empty_interaction(self):
        spec = ModelSpec({0: 2, 1: 2}, {0: 0, 1: 1},
                         (), 0.5, {1: 1.0})
        assert lambda_norm(spec) == 0.0

    def test_single_site_term_ignores_lam(self):
        h = 0.37
        for lam in (0.1, 1.0, 3.0):
            spec = ModelSpec({0: 2}, {0: 0},
                             (InteractionTerm((0,), h * SZ),), lam, {})
            assert lambda_norm(spec) == pytest.approx(h, abs=1e-14)

    def test_matches_bruteforce_on_random_models(self, chain5):
        assert lambda_norm(chain5) == pytest.approx(brute_lambda_norm(chain5), abs=1e-12)

    def test_one_eigensolve_per_term(self, eigensolves):
        spec = make_chain(7, {0: 1, 1: 1, 2: 1, 3: 0, 4: 2, 5: 2, 6: 2}, {1: 2.0, 2: 1.0})
        lambda_norm(spec)
        assert len(spec.terms) == 13
        assert len(eigensolves) == 13

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
        spec = ModelSpec({0: 2, 1: 2}, {0: 0, 1: 1},
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
    """The reservoir Hamiltonian H_a of build sums the terms inside reservoir a."""

    def test_chain_reservoir_one(self, standard_chain):
        h_a = build(standard_chain, (0, 1, 2)).H_a[1]
        assert h_a.sites == (0,)
        np.testing.assert_array_equal(h_a.matrix, 0.5 * SZ.real)

    def test_no_interior_terms(self, decoupled_model):
        spec = ModelSpec(decoupled_model.sites, decoupled_model.regions,
                         (InteractionTerm((0, 1), np.kron(SX, SX)),),
                         0.5, decoupled_model.betas)
        assert not np.any(build(spec, (0, 1, 2)).H_a[2].matrix)

    def test_five_site_enumeration(self):
        spec = make_chain(5, {0: 1, 1: 1, 2: 0, 3: 2, 4: 2}, {1: 1.0, 2: 1.0})
        h_a = build(spec, range(5)).H_a[1]
        # enumeration oracle: exactly the supports inside {0, 1}, so not (1, 2)
        expected = [t for t in spec.terms if set(t.support) <= {0, 1}]
        assert (1, 2) not in {t.support for t in expected}
        assert h_a.sites == (0, 1)
        np.testing.assert_array_equal(h_a.matrix, spec.term_sum(expected, (0, 1)).matrix)


class TestRedraw:
    def test_identity(self, chain5):
        same = redraw(chain5, chain5.small_system)
        assert same.regions == chain5.regions

    def test_five_site_enlargement(self, chain5):
        out = redraw(chain5, {1, 2, 3})
        assert out.sites_in(0) == {1, 2, 3}
        assert out.sites_in(1) == {0}
        assert out.sites_in(2) == {4}
        assert validate(out) == ()

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


class TestTermSum:
    def test_equals_the_sum_of_embeds_bitwise(self):
        # non-adjacent supports, local dimensions 2 and 3, complex terms
        rng = np.random.default_rng(23)
        dims = {0: 2, 1: 3, 2: 2, 3: 3, 4: 2}
        terms = (InteractionTerm((0, 2), random_hermitian(rng, 4)),
                 InteractionTerm((1, 4), random_hermitian(rng, 6)),
                 InteractionTerm((3,), random_hermitian(rng, 3).real + 0j),
                 InteractionTerm((0, 1, 3), random_hermitian(rng, 18)),
                 InteractionTerm((2, 3), random_hermitian(rng, 6)))
        spec = ModelSpec(dims,
                         {0: 1, 1: 1, 2: 0, 3: 2, 4: 2}, terms, 0.5,
                         {1: 1.0, 2: 2.0})
        for sites in [(0, 1, 2, 3, 4), (0, 1, 2, 3)]:
            inside = [t for t in spec.terms if set(t.support) <= set(sites)]
            dense = np.zeros((spec.volume_dim(sites),) * 2, dtype=complex)
            for term in inside:
                dense = dense + opalg.embed(spec.term_operator(term), sites,
                                            spec.dims_for(sites)).matrix
            got = spec.term_sum(inside, sites)
            assert got.matrix.dtype == np.complex128
            np.testing.assert_array_equal(got.matrix, dense)


class TestModelStructure:
    def test_duplicate_supports_merge(self):
        sites = {0: 2, 1: 2}
        regions = {0: 0, 1: 1}
        spec = ModelSpec(sites, regions,
                         (InteractionTerm((0,), 0.5 * SZ), InteractionTerm((0,), 0.25 * SZ)),
                         0.5, {1: 1.0})
        assert len(spec.terms) == 1
        np.testing.assert_allclose(spec.terms[0].matrix, 0.75 * SZ)

    def test_local_dim_must_be_at_least_two(self):
        with pytest.raises(ValueError, match="local_dim must be >= 2"):
            ModelSpec({0: 1}, {0: 0}, (), 0.5, {})

    def test_term_dimension_checked(self):
        sites = {0: 2, 1: 3}
        with pytest.raises(ValueError):
            ModelSpec(sites, {0: 0, 1: 1},
                      (InteractionTerm((0, 1), np.eye(4)),), 0.5, {1: 1.0})

    def test_unsorted_support_refused(self):
        with pytest.raises(ValueError, match=r"support \(1, 0\) must be sorted ascending"):
            InteractionTerm((1, 0), np.kron(SZ, SZ))

    def test_negative_region_refused(self):
        with pytest.raises(ValueError, match="site 1: region index must be >= 0"):
            ModelSpec({0: 2, 1: 2}, {0: 0, 1: -1}, (), 0.5, {})

    def test_region_map_covers_sites(self):
        with pytest.raises(ValueError):
            ModelSpec({0: 2, 1: 2}, {0: 0}, (), 0.5, {})

    def test_json_roundtrip(self, standard_chain):
        doc = model_to_dict(standard_chain)
        again = model_from_dict(json.loads(json.dumps(doc)))
        assert again.site_ids == standard_chain.site_ids
        assert again.regions == standard_chain.regions
        assert again.betas == standard_chain.betas
        for a, b in zip(again.terms, standard_chain.terms):
            assert a.support == b.support
            np.testing.assert_allclose(a.matrix, b.matrix, atol=1e-15)


class TestPerturbationFamily:
    def test_terms_keyed_by_volume(self):
        entry = (frozenset({0, 1, 2}), (InteractionTerm((0,), 0.3 * SZ),))
        family = PerturbationFamily((entry,), bound_K=1.0)
        assert family.terms_for((0, 1, 2)) == entry[1]
        assert family.terms_for((0, 1)) == ()

    def test_check_flags_small_system_terms(self, standard_chain):
        entry = (frozenset({0, 1, 2}), (InteractionTerm((1,), 0.3 * SZ),))
        family = PerturbationFamily((entry,), bound_K=1.0)
        assert family.check(standard_chain)

    def test_check_flags_undeclared_sites(self, standard_chain):
        # a problem line, not the KeyError of looking the site up in the region map
        entry = (frozenset({0, 1, 2}), (InteractionTerm((99,), 0.3 * SZ),))
        family = PerturbationFamily((entry,), bound_K=1.0)
        assert family.check(standard_chain) == [
            "entry 0: term on (99,) names undeclared sites [99]"]

    def test_check_flags_a_term_of_the_wrong_dimension(self, standard_chain):
        # the model's own term check, so a problem line instead of build's ValueError
        entry = (frozenset({0, 1, 2}), (InteractionTerm((0,), np.eye(3)),))
        family = PerturbationFamily((entry,), bound_K=10.0)
        problem = ("term on (0,) has matrix dimension 3, not 2, the product of its sites' "
                   "local dimensions")
        assert standard_chain.term_problem(entry[1][0]) == problem
        assert family.check(standard_chain) == [f"entry 0: {problem}"]
        with pytest.raises(ValueError, match=re.escape(problem)):
            ModelSpec(standard_chain.sites, standard_chain.regions, entry[1],
                      standard_chain.lam, standard_chain.betas)

    def test_check_flags_a_term_outside_its_volume(self, standard_chain):
        # site 0 is a reservoir site of the model, but not of the entry's volume
        entry = (frozenset({1, 2}), (InteractionTerm((0,), 0.3 * SZ),))
        family = PerturbationFamily((entry,), bound_K=1.0)
        assert family.check(standard_chain) == [
            "entry 0: term on (0,) lies outside its volume [1, 2]"]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_numbers_refused(self, standard_chain, bad):
        with pytest.raises(ValueError, match="finite"):
            InteractionTerm((0,), np.array([[bad, 0.0], [0.0, 1.0]]))
        spec = standard_chain
        with pytest.raises(ValueError, match="finite"):
            ModelSpec(spec.sites, spec.regions, spec.terms, bad, spec.betas)
        with pytest.raises(ValueError, match="finite"):
            ModelSpec(spec.sites, spec.regions, spec.terms, spec.lam, {1: bad, 2: 1.0})
        with pytest.raises(ValueError, match="bound_K"):
            PerturbationFamily((), bound_K=bad)

    def test_check_flags_bound_violation(self, standard_chain):
        entry = (frozenset({0, 1, 2}), (InteractionTerm((0,), 5.0 * SZ),))
        family = PerturbationFamily((entry,), bound_K=1.0)
        problems = family.check(standard_chain)
        assert any("bound_K" in p for p in problems)

    def test_protected_sets_enforced(self, standard_chain):
        touching = (frozenset({0, 1, 2}), (InteractionTerm((0,), 0.3 * SZ),))
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
