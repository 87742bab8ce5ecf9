"""Metamorphic relations: one route on two inputs that the physics says must agree.

Local gauge: conjugating every term and the observable by a product of local
unitaries U = u_0 x u_1 x ... maps H_B, W, each H_a and the initial state to
U (.) U^dagger, so every flux, e, e_telescoped and horizon average is unchanged.
On a parity chain the two inputs take different routes: the chain's terms are
real and conserve the parity, two real sectors, while Haar-random local
unitaries leave complex terms that conserve nothing, one complex sector.
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
