import dataclasses
import sys
import tracemalloc

import numpy as np
import pytest

from nesslab import (DenseOperator, InteractionTerm, ModelSpec, build, commutator, embed,
                     horizon_reports, opalg)

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
ID2 = np.eye(2, dtype=complex)


def random_hermitian(rng, n, scale=1.0):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * 0.5 * (m + m.conj().T)


def random_unitary(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def dense_generator(vols):
    """The generator H_B of a build as one D x D operator, assembled from its sector blocks."""
    blocks = {(p, p): h for p, h in enumerate(vols.H_B_blocks())}
    return DenseOperator(vols.sites, vols.dims, opalg.assemble(blocks, vols.sectors, vols.dim))


def one_sector(vols):
    """A build as one sector, whose one block is the dense H_B: the dense route's operators."""
    return dataclasses.replace(vols, sectors=(np.arange(vols.dim),))


def derivation(spec, volume, a, perturbation=None):
    """i[H_B, a] for the H_B that build assembles for ``volume``, ``a`` embedded into it."""
    h_b = dense_generator(build(spec, volume, perturbation))
    return 1j * commutator(h_b, embed(a, h_b.sites, h_b.dims))


def entropy_report(vols, horizon):
    """The entropy report of one horizon."""
    return horizon_reports(vols, (horizon,))[0][0]


def traced_peak(fn):
    """fn()'s result and the tracemalloc peak while it ran."""
    tracemalloc.start()
    try:
        out = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def _matrix_to_json(mat):
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(mat, dtype=complex)]


def model_to_dict(spec):
    """The JSON document of a model, as ``nesslab.load_model`` reads it."""
    return {
        "sites": [{"id": s, "dim": d} for s, d in spec.sites.items()],
        "regions": {str(s): r for s, r in sorted(spec.regions.items())},
        "lambda": spec.lam,
        "betas": {str(a): b for a, b in sorted(spec.betas.items())},
        "terms": [{"support": list(t.support), "matrix": _matrix_to_json(t.matrix)}
                  for t in spec.terms],
    }


def make_chain(n, assignment, betas, coup=1.0, field=0.5, anis=0.0, lam=0.5):
    """Open chain of qubits: field*sz on every site, coup*sxsx + anis*szsz bonds."""
    sites = {i: 2 for i in range(n)}
    terms = [InteractionTerm((i,), field * SZ) for i in range(n)]
    for i in range(n - 1):
        terms.append(InteractionTerm((i, i + 1), coup * np.kron(SX, SX) + anis * np.kron(SZ, SZ)))
    return ModelSpec(sites, assignment, tuple(terms), lam, betas)


def end_chain(n, **kwargs):
    """make_chain of ``n`` qubits whose small system is the end site 0 and whose one
    reservoir is every other site: W is the field on 0 and the bond (0, 1)."""
    return make_chain(n, {i: 0 if i == 0 else 1 for i in range(n)}, {1: 1.5}, **kwargs)


@pytest.fixture
def standard_chain():
    """3-site chain, S={1} between two single-site reservoirs.

    Single-site terms of norm 0.5 and bond terms of norm 1 with lam=0.5, so
    the weighted interaction norm is 0.5 + 2 e^{0.5}, attained at the middle
    site.
    """
    sites = {i: 2 for i in range(3)}
    regions = {0: 1, 1: 0, 2: 2}
    terms = tuple(
        [InteractionTerm((i,), 0.5 * SZ) for i in range(3)]
        + [InteractionTerm((0, 1), np.kron(SX, SX)),
           InteractionTerm((1, 2), np.kron(SX, SX))]
    )
    return ModelSpec(sites, regions, terms, 0.5, {1: 2.0, 2: 1.0})


@pytest.fixture
def decoupled_model():
    """Terms never connect the small system to the reservoirs."""
    sites = {i: 2 for i in range(3)}
    regions = {0: 1, 1: 0, 2: 2}
    terms = tuple(InteractionTerm((i,), 0.7 * SZ) for i in range(3))
    return ModelSpec(sites, regions, terms, 0.5, {1: 2.0, 2: 1.0})


@pytest.fixture
def chain5():
    """5-site chain with a one-site small system in the middle."""
    return make_chain(5, {0: 1, 1: 1, 2: 0, 3: 2, 4: 2}, {1: 2.0, 2: 1.0})


def record_solves(monkeypatch, record):
    """Route every numpy/scipy eigh/eigvalsh call, and each LAPACK call of opalg's
    in-place kernel (recorded as an eigh of its matrix), through ``record(name, a)``;
    in ``record``, sys._getframe(2) is the frame that called the solver, which is
    ``opalg._eigh`` for the kernel's LAPACK call."""
    import numpy.linalg
    import scipy.linalg

    def counted(fn, name):
        def solve(a, *args, **kwargs):
            record(name, a)
            return fn(a, *args, **kwargs)
        return solve

    for mod in (numpy.linalg, scipy.linalg):
        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(mod, name, counted(getattr(mod, name), name))
    lapack = opalg._lapack_eigh()
    if lapack is not None:   # else the kernel's solve is numpy's eigh, counted above
        monkeypatch.setattr(opalg, "_lapack_eigh", lambda: counted(lapack, "eigh"))


@pytest.fixture
def eigensolves(monkeypatch):
    """Every Hermitian eigensolve (:func:`record_solves`) as (matrix dimension,
    calling file, matrix dtype)."""
    calls = []
    record_solves(monkeypatch, lambda name, a: calls.append(
        (np.shape(a)[-1], sys._getframe(2).f_code.co_filename, np.asarray(a).dtype)))
    return calls


@pytest.fixture
def named_eigensolves(monkeypatch):
    """Every Hermitian eigensolve (:func:`record_solves`) as (solver name,
    matrix dimension, matrix dtype)."""
    calls = []
    record_solves(monkeypatch, lambda name, a: calls.append(
        (name, np.shape(a)[-1], np.asarray(a).dtype)))
    return calls
