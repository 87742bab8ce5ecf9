"""Metamorphic relations: one route on two inputs that the physics says must agree.

Local gauge: conjugating every term and the observable by a product of local
unitaries U = u_0 x u_1 x ... maps H_B, W, each H_a and the initial state to
U (.) U^dagger, so every flux, e, e_telescoped and horizon average is unchanged.
On a parity chain the two inputs take different routes: the chain's terms are
real and conserve the parity, two real sectors, while Haar-random local
unitaries leave complex terms that conserve nothing, one complex sector.

Reservoir relabeling: swapping the two reservoirs' labels together with their
betas describes the same system, so the flux columns swap and e, e_telescoped
and the average are unchanged.

Scaling by 2: (H, beta, T) -> (2H, beta/2, T/2) leaves beta H and the state at
each rescaled time unchanged, so each current and its flux scale by 4, as do
the sum-rule residual and its tolerance 2||W||/T, e and e_telescoped by 2, and
averages not at all.

Both relations run on the 7-site parity chain (two real sectors) and on its
gauged copy (one complex sector, seed 0).
"""

import functools

import numpy as np
import pytest

from nesslab import DenseOperator, InteractionTerm, ModelSpec, build, horizon_reports

from conftest import SX, make_chain, random_unitary

HORIZONS = (1.0, 10.0, 100.0)


def _gauged(spec, unitaries):
    """``spec`` with each term on X conjugated by the tensor product of u_s over s in X
    (X ascending, as the term's matrix is ordered)."""
    def conjugated(term):
        u = functools.reduce(np.kron, [unitaries[s] for s in term.support])
        return InteractionTerm(term.support, u @ term.matrix @ u.conj().T)
    return ModelSpec(spec.sites, spec.regions, tuple(map(conjugated, spec.terms)), spec.lam,
                     spec.betas)


def _values(spec, observable, sites):
    """Each horizon's fluxes, e, e_telescoped and the observable's average, flat."""
    vols = build(spec, sites)
    out = []
    for report, averages in horizon_reports(vols, HORIZONS, observables={"x": observable}):
        out += [*(report.fluxes[a] for a in sorted(report.fluxes)), report.e,
                report.e_telescoped, averages["x"]]
    return np.array(out), vols


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_local_gauge_leaves_every_value_unchanged(seed):
    rng = np.random.default_rng(seed)
    n = 7
    spec = make_chain(n, {i: 0 if i == 3 else 1 if i < 3 else 2 for i in range(n)},
                      {1: 2.0, 2: 1.0}, anis=0.3)
    unitaries = {s: random_unitary(rng, 2) for s in range(n)}
    u = unitaries[2]
    ref, vols = _values(spec, DenseOperator((2,), (2,), SX), range(n))
    got, gauged = _values(_gauged(spec, unitaries), DenseOperator((2,), (2,), u @ SX @ u.conj().T),
                          range(n))
    # the two routes: two real parity sectors against one complex sector
    assert [len(r) for r in vols.sectors] == [64, 64]
    assert [len(r) for r in gauged.sectors] == [128]
    assert not any(np.iscomplexobj(b) for b in vols.H_B_blocks())
    assert all(np.iscomplexobj(b) for b in gauged.H_B_blocks())
    assert np.max(np.abs(got - ref) / (1.0 + np.abs(ref))) <= 1e-13


def _chain(route):
    """The 7-site chain and its sigma_x on site 2, or their local gauge by seed 0's unitaries."""
    n = 7
    spec = make_chain(n, {i: 0 if i == 3 else 1 if i < 3 else 2 for i in range(n)},
                      {1: 2.0, 2: 1.0}, anis=0.3)
    if route == "real":
        return spec, DenseOperator((2,), (2,), SX)
    rng = np.random.default_rng(0)
    unitaries = {s: random_unitary(rng, 2) for s in range(n)}
    u = unitaries[2]
    return _gauged(spec, unitaries), DenseOperator((2,), (2,), u @ SX @ u.conj().T)


def _reports(spec, observable, horizons=HORIZONS):
    """(report, average of the observable) per horizon on the whole chain."""
    vols = build(spec, sorted(spec.sites))
    return [(report, averages["x"]) for report, averages in
            horizon_reports(vols, horizons, observables={"x": observable})]


def _assert_close(got, ref):
    got, ref = np.array(got), np.array(ref)
    assert np.max(np.abs(got - ref) / (1.0 + np.abs(ref))) <= 1e-13


@pytest.mark.parametrize("route", ["real", "complex"])
def test_reservoir_relabeling_swaps_the_flux_columns(route):
    # measured within 1.8e-16; of these only the real route's average is bitwise
    spec, observable = _chain(route)
    swapped = ModelSpec(spec.sites, {s: {1: 2, 2: 1}.get(r, r) for s, r in spec.regions.items()},
                        spec.terms, spec.lam, {1: spec.betas[2], 2: spec.betas[1]})
    ref, got = _reports(spec, observable), _reports(swapped, observable)
    _assert_close([[g.fluxes[2], g.fluxes[1], g.e, g.e_telescoped, x] for g, x in got],
                  [[r.fluxes[1], r.fluxes[2], r.e, r.e_telescoped, x] for r, x in ref])


@pytest.mark.parametrize("route", ["real", "complex"])
def test_scaling_by_two(route):
    # measured bitwise on both routes: every flux, the sum-rule residual, tol, e,
    # e_telescoped and the average, since scaling by a power of 2 rounds nothing
    spec, observable = _chain(route)
    scaled = ModelSpec(spec.sites, spec.regions,
                       tuple(InteractionTerm(t.support, 2.0 * t.matrix) for t in spec.terms),
                       spec.lam, {a: b / 2.0 for a, b in spec.betas.items()})
    ref = _reports(spec, observable)
    got = _reports(scaled, observable, tuple(t / 2.0 for t in HORIZONS))

    def values(reports, flux, energy):
        return [[*(flux * r.fluxes[a] for a in sorted(r.fluxes)), flux * r.sum_rule_residual,
                 flux * r.tol_sum_rule, energy * r.e, energy * r.e_telescoped, x]
                for r, x in reports]
    _assert_close(values(got, 1.0, 1.0), values(ref, 4.0, 2.0))
