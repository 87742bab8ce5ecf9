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

Site relabeling: renaming the sites, with each term's and the observable's
tensor factors permuted to follow their new supports in ascending order,
describes the same system, so every value, sweep row and redraw line is
unchanged. A shuffle puts each reservoir on sites that are not contiguous.

The relations run on the 7-site parity chain (two real sectors) and on its
gauged copy (one complex sector, seed 0).
"""

import functools

import numpy as np
import pytest

from nesslab import (DenseOperator, InteractionTerm, ModelSpec, boundary_redraw_check, build,
                     convergence_sweep, horizon_reports, series_radius)

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


def _relabeled(spec, observable, label):
    """``spec`` and ``observable`` with each site s renamed label[s], each matrix's
    tensor factors permuted into the ascending order of its new support."""
    def moved(support, mat):
        new, k = [label[s] for s in support], len(support)
        order = np.argsort(new)
        dims = [spec.sites[support[i]] for i in order]
        tensor = mat.reshape([spec.sites[s] for s in support] * 2)
        return tuple(sorted(new)), dims, tensor.transpose([*order, *(k + order)]).reshape(mat.shape)

    terms = tuple(InteractionTerm(support, mat) for support, _, mat in
                  (moved(t.support, t.matrix) for t in spec.terms))
    return (ModelSpec({label[s]: d for s, d in spec.sites.items()},
                      {label[s]: r for s, r in spec.regions.items()}, terms, spec.lam,
                      spec.betas),
            DenseOperator(*moved(observable.sites, observable.matrix)))


def _all_values(spec, observable, label):
    """Every flux, e, e_telescoped, sum-rule residual, tol and average per horizon; every
    sweep row over three nested volumes at times inside and outside the series radius; and
    every redraw line, for the sites renamed by ``label``, flat."""
    values = [[*(r.fluxes[a] for a in sorted(r.fluxes)), r.e, r.e_telescoped,
               r.sum_rule_residual, r.tol_sum_rule, x] for r, x in _reports(spec, observable)]
    exhaustion = [[label[s] for s in v] for v in ((2, 3, 4), (1, 2, 3, 4, 5), range(7))]
    t_grid = [f * series_radius(spec) for f in (0.2, 0.5, 2.0, 8.0)]
    sweep = convergence_sweep(spec, exhaustion, observable, t_grid)
    values += [[r.t, r.discrepancy] for r in sweep.evolution_rows]
    values += [[r.order, r.discrepancy] for r in sweep.order_rows]
    values += [[r.t, r.error, r.bound] for r in sweep.dyson_rows]
    values += [[r.e_original, r.e_redrawn, r.difference, r.bound] for r in
               boundary_redraw_check(spec, [label[2], label[3]], sorted(spec.sites), HORIZONS)]
    return np.concatenate([np.ravel(v) for v in values])


@pytest.mark.parametrize("relabel", ["reversed", "shuffled", "offset"])
@pytest.mark.parametrize("route", ["real", "complex"])
def test_site_relabeling_leaves_every_value_unchanged(route, relabel):
    # measured within 1.2e-15, bitwise for the offset; the shuffle puts reservoir 1 on
    # sites {2, 5, 6} and reservoir 2 on {0, 3, 4}, so their operators are embedded and
    # applied along axes that are not adjacent
    spec, observable = _chain(route)
    shuffled = np.random.default_rng(3).permutation(7)
    label = {s: {"reversed": 6 - s, "shuffled": int(shuffled[s]), "offset": s + 10}[relabel]
             for s in spec.sites}
    got = _all_values(*_relabeled(spec, observable, label), label)
    _assert_close(got, _all_values(spec, observable, {s: s for s in spec.sites}))
