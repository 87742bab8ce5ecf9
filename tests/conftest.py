import sys

import numpy as np
import pytest

from nesslab import InteractionTerm, ModelSpec, RegionMap, SiteSpec

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


def make_chain(n, assignment, betas, coup=1.0, field=0.5, anis=0.0, lam=0.5):
    """Open chain of qubits: field*sz on every site, coup*sxsx + anis*szsz bonds."""
    sites = tuple(SiteSpec(i, 2) for i in range(n))
    terms = [InteractionTerm((i,), field * SZ) for i in range(n)]
    for i in range(n - 1):
        terms.append(InteractionTerm((i, i + 1), coup * np.kron(SX, SX) + anis * np.kron(SZ, SZ)))
    return ModelSpec(sites, RegionMap(assignment), tuple(terms), lam, betas)


@pytest.fixture
def standard_chain():
    """3-site chain, S={1} between two single-site reservoirs.

    Single-site terms of norm 0.5 and bond terms of norm 1 with lam=0.5, so
    the weighted interaction norm is 0.5 + 2 e^{0.5}, attained at the middle
    site.
    """
    sites = tuple(SiteSpec(i, 2) for i in range(3))
    regions = RegionMap({0: 1, 1: 0, 2: 2})
    terms = tuple(
        [InteractionTerm((i,), 0.5 * SZ) for i in range(3)]
        + [InteractionTerm((0, 1), np.kron(SX, SX)),
           InteractionTerm((1, 2), np.kron(SX, SX))]
    )
    return ModelSpec(sites, regions, terms, 0.5, {1: 2.0, 2: 1.0})


@pytest.fixture
def decoupled_model():
    """Terms never connect the small system to the reservoirs."""
    sites = tuple(SiteSpec(i, 2) for i in range(3))
    regions = RegionMap({0: 1, 1: 0, 2: 2})
    terms = tuple(InteractionTerm((i,), 0.7 * SZ) for i in range(3))
    return ModelSpec(sites, regions, terms, 0.5, {1: 2.0, 2: 1.0})


@pytest.fixture
def chain5():
    """5-site chain with a one-site small system in the middle."""
    return make_chain(5, {0: 1, 1: 1, 2: 0, 3: 2, 4: 2}, {1: 2.0, 2: 1.0})


@pytest.fixture
def eigensolves(monkeypatch):
    """Every numpy/scipy eigh/eigvalsh call as (matrix dimension, calling file,
    matrix dtype)."""
    import numpy.linalg
    import scipy.linalg

    calls = []

    def counted(fn):
        def solve(a, *args, **kwargs):
            calls.append((np.shape(a)[-1], sys._getframe(1).f_code.co_filename,
                          np.asarray(a).dtype))
            return fn(a, *args, **kwargs)
        return solve

    for mod in (numpy.linalg, scipy.linalg):
        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(mod, name, counted(getattr(mod, name)))
    return calls
