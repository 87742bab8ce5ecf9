"""Dense operator algebra on finite volumes.

Operators live on an ordered list of lattice sites (ascending site id, one
finite-dimensional factor per site) and are stored as full complex matrices.
The module provides tensor products and embedding into larger volumes,
commutators, the operator norm, spectral decomposition of Hermitian matrices
with degeneracy grouping, functional calculus, and the exponentially
weighted observable norm in its upper-bound form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

HERMITICITY_TOL = 1e-10
UNITARITY_TOL = 1e-10
DEGENERACY_REL_GAP = 1e-9


@dataclass(frozen=True)
class DenseOperator:
    """A complex matrix attached to an ordered finite volume of sites.

    ``sites`` and ``dims`` are parallel tuples in canonical ascending-id
    order; the matrix dimension is the product of the local dimensions.
    ``support`` tracks the (sub)set of sites on which the operator may act
    nontrivially; it is preserved by embedding, grows under sums and
    commutators, and is reset to the whole volume by time evolution and
    unitary conjugation.
    """

    sites: tuple[int, ...]
    dims: tuple[int, ...]
    matrix: np.ndarray
    support: frozenset[int] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if len(self.sites) != len(self.dims):
            raise ValueError("sites and dims must have equal length")
        if tuple(sorted(self.sites)) != self.sites:
            raise ValueError("volume must be ordered by ascending site id")
        if len(set(self.sites)) != len(self.sites):
            raise ValueError("duplicate site id in volume")
        dim = int(np.prod(self.dims)) if self.dims else 1
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.shape != (dim, dim):
            raise ValueError(
                f"matrix shape {mat.shape} does not match volume dimension {dim}"
            )
        object.__setattr__(self, "matrix", mat)
        if self.support is None:
            object.__setattr__(self, "support", frozenset(self.sites))
        else:
            supp = frozenset(self.support)
            if not supp <= set(self.sites):
                raise ValueError("support must be a subset of the volume")
            object.__setattr__(self, "support", supp)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def dim_of(self, site: int) -> int:
        return self.dims[self.sites.index(site)]

    def same_volume(self, other: "DenseOperator") -> bool:
        return self.sites == other.sites and self.dims == other.dims

    def _require_same_volume(self, other: "DenseOperator"):
        if not self.same_volume(other):
            raise ValueError(
                f"volume mismatch: {self.sites} vs {other.sites}"
            )

    def with_matrix(self, matrix: np.ndarray, support=None) -> "DenseOperator":
        return DenseOperator(
            self.sites, self.dims, matrix,
            self.support if support is None else frozenset(support),
        )

    def dagger(self) -> "DenseOperator":
        return self.with_matrix(self.matrix.conj().T)

    def hermiticity_defect(self) -> float:
        """Largest entrywise deviation from selfadjointness."""
        return float(np.max(np.abs(self.matrix - self.matrix.conj().T))) if self.dim else 0.0

    def is_hermitian(self, tol: float = HERMITICITY_TOL) -> bool:
        scale = max(1.0, float(np.max(np.abs(self.matrix))) if self.dim else 0.0)
        return self.hermiticity_defect() <= tol * scale

    def symmetrized(self) -> "DenseOperator":
        return self.with_matrix(0.5 * (self.matrix + self.matrix.conj().T))

    def __add__(self, other: "DenseOperator") -> "DenseOperator":
        self._require_same_volume(other)
        return DenseOperator(self.sites, self.dims, self.matrix + other.matrix,
                             self.support | other.support)

    def __sub__(self, other: "DenseOperator") -> "DenseOperator":
        self._require_same_volume(other)
        return DenseOperator(self.sites, self.dims, self.matrix - other.matrix,
                             self.support | other.support)

    def __neg__(self) -> "DenseOperator":
        return self.with_matrix(-self.matrix)

    def __mul__(self, scalar: complex) -> "DenseOperator":
        return self.with_matrix(self.matrix * scalar)

    __rmul__ = __mul__

    def __matmul__(self, other: "DenseOperator") -> "DenseOperator":
        self._require_same_volume(other)
        return DenseOperator(self.sites, self.dims, self.matrix @ other.matrix,
                             self.support | other.support)


def identity(sites: Sequence[int], dims: Sequence[int]) -> DenseOperator:
    dim = int(np.prod(tuple(dims))) if len(dims) else 1
    return DenseOperator(tuple(sites), tuple(dims), np.eye(dim, dtype=complex),
                         frozenset())


def zero(sites: Sequence[int], dims: Sequence[int]) -> DenseOperator:
    dim = int(np.prod(tuple(dims))) if len(dims) else 1
    return DenseOperator(tuple(sites), tuple(dims),
                         np.zeros((dim, dim), dtype=complex), frozenset())


def kron_embed(factors: Sequence[DenseOperator], sites: Sequence[int],
               dims: Sequence[int]) -> DenseOperator:
    """Tensor product of operators on disjoint volumes, placed into a volume.

    The result acts as each factor on that factor's sites and as the
    identity on the target sites no factor covers, under canonical
    ascending-site ordering; its support is the union of the factors'
    supports. Implemented as one Kronecker product in factor order followed
    by one axis permutation of the reshaped tensor; no permutation matrices
    are materialized.
    """
    sites = tuple(sites)
    dims = tuple(dims)
    pos = {s: i for i, s in enumerate(sites)}
    order = [s for f in factors for s in f.sites]
    if len(set(order)) != len(order):
        raise ValueError("tensor factors must act on disjoint volumes")
    if not set(order) <= pos.keys():
        raise ValueError(f"operator volume {tuple(order)} not contained in {sites}")
    for f in factors:
        for s, d in zip(f.sites, f.dims):
            if dims[pos[s]] != d:
                raise ValueError(f"local dimension mismatch at site {s}")

    covered = set(order)
    rest = [s for s in sites if s not in covered]
    mats = [f.matrix for f in factors]
    if rest:
        mats.append(np.eye(math.prod(dims[pos[s]] for s in rest), dtype=complex))
    order += rest
    full = mats[0] if mats else np.ones((1, 1), dtype=complex)
    for mat in mats[1:]:
        full = np.kron(full, mat)

    n = len(order)
    axis = {s: i for i, s in enumerate(order)}
    perm = [axis[s] for s in sites] + [n + axis[s] for s in sites]
    order_dims = tuple(dims[pos[s]] for s in order)
    dim = math.prod(dims)
    full = full.reshape(order_dims + order_dims).transpose(perm).reshape(dim, dim)
    return DenseOperator(sites, dims, full,
                         frozenset().union(*(f.support for f in factors)))


def embed(op: DenseOperator, sites: Sequence[int], dims: Sequence[int]) -> DenseOperator:
    """Embed ``op`` into a larger volume as ``op`` tensor identity.

    The target volume must contain the operator's volume; the result acts
    as ``op`` on the original factors and as the identity elsewhere, under
    canonical ascending-site ordering (see :func:`kron_embed`).
    """
    return kron_embed((op,), sites, dims)


def commutator(a: DenseOperator, b: DenseOperator) -> DenseOperator:
    """AB - BA on a shared volume."""
    a._require_same_volume(b)
    return DenseOperator(a.sites, a.dims, a.matrix @ b.matrix - b.matrix @ a.matrix,
                         a.support | b.support)


def op_norm(a) -> float:
    """Operator norm (largest singular value).

    Hermitian inputs take the spectral route (largest absolute eigenvalue,
    exact for selfadjoint matrices); anything else falls back to the SVD.
    """
    mat = a.matrix if isinstance(a, DenseOperator) else np.asarray(a)
    if mat.size == 0:
        return 0.0
    if np.max(np.abs(mat - mat.conj().T)) <= 1e-12 * max(1.0, np.max(np.abs(mat))):
        w = np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))
        return float(np.max(np.abs(w)))
    return float(np.linalg.norm(mat, 2))


def trace(a) -> complex:
    mat = a.matrix if isinstance(a, DenseOperator) else np.asarray(a)
    return complex(np.trace(mat))


def _as_matrix(a) -> np.ndarray:
    return a.matrix if isinstance(a, DenseOperator) else np.asarray(a, dtype=complex)


def check_unitary(u, tol: float = UNITARITY_TOL):
    mat = _as_matrix(u)
    defect = np.max(np.abs(mat.conj().T @ mat - np.eye(mat.shape[0])))
    if defect > tol:
        raise ValueError(f"matrix is not unitary (defect {defect:.3e})")


def unitary_conj(u, a):
    """U A U^{-1} for unitary U; preserves spectrum and trace.

    An operator result has the whole volume as its support.
    """
    check_unitary(u)
    um = _as_matrix(u)
    am = _as_matrix(a)
    if um.shape[0] != am.shape[0]:
        raise ValueError("dimension mismatch in unitary conjugation")
    out = um @ am @ um.conj().T
    if isinstance(a, DenseOperator):
        return DenseOperator(a.sites, a.dims, out)
    return out


@dataclass(frozen=True)
class SpectralData:
    """Ascending eigenvalues with orthogonal spectral projections.

    Eigenvalues closer than ``DEGENERACY_REL_GAP`` times the operator norm
    are grouped into a single projection. ``basis`` is the unitary of raw
    eigenvectors and ``raw_eigenvalues`` the ungrouped eigh output; the
    grouped projections are materialized lazily since they are quadratic in
    the dimension each.
    """

    eigenvalues: np.ndarray                 # one entry per group, ascending
    blocks: tuple[tuple[int, int], ...]     # half-open column ranges into basis
    basis: np.ndarray                       # unitary eigenvector matrix
    raw_eigenvalues: np.ndarray             # ungrouped, ascending

    @property
    def projections(self) -> tuple[np.ndarray, ...]:
        out = []
        for lo, hi in self.blocks:
            v = self.basis[:, lo:hi]
            out.append(v @ v.conj().T)
        return tuple(out)

    def unitary(self, t: float) -> np.ndarray:
        """exp(i t A) for the decomposed operator A."""
        phases = np.exp(1j * t * self.raw_eigenvalues)
        return (self.basis * phases) @ self.basis.conj().T


def spectral(a) -> SpectralData:
    """Spectral decomposition of a Hermitian operator.

    Raises ValueError for non-Hermitian input. Degenerate eigenvalues
    (consecutive gap at most 1e-9 times the norm) share one projection.
    """
    mat = _as_matrix(a)
    scale = float(np.max(np.abs(mat))) if mat.size else 0.0
    if mat.size and np.max(np.abs(mat - mat.conj().T)) > HERMITICITY_TOL * max(1.0, scale):
        raise ValueError("spectral decomposition requires a Hermitian matrix")
    sym = 0.5 * (mat + mat.conj().T)
    w, v = np.linalg.eigh(sym)
    norm = float(np.max(np.abs(w))) if w.size else 0.0
    thr = DEGENERACY_REL_GAP * norm
    blocks = []
    values = []
    lo = 0
    for i in range(1, len(w) + 1):
        if i == len(w) or w[i] - w[i - 1] > thr:
            blocks.append((lo, i))
            values.append(float(np.mean(w[lo:i])))
            lo = i
    return SpectralData(np.asarray(values), tuple(blocks), v, w)


def apply_function(a, phi: Callable[[float], float]):
    """phi(A) for Hermitian A via the spectral decomposition.

    Exceptions raised by ``phi`` at an eigenvalue propagate to the caller.
    """
    sd = spectral(a)
    vals = np.array([phi(float(x)) for x in sd.raw_eigenvalues], dtype=complex)
    mat = (sd.basis * vals) @ sd.basis.conj().T
    if isinstance(a, DenseOperator):
        return a.with_matrix(mat)
    return mat


def observable_lambda_norm_upper(
    decomposition: Iterable[tuple[Sequence[int], np.ndarray]], lam: float
) -> float:
    """Upper bound on the exponentially weighted observable norm.

    For a supplied finite decomposition A = sum_X A_X this returns
    sum_X ||A_X|| e^{lam card X}; the infimum over decompositions is not
    computed.
    """
    total = 0.0
    for support, mat in decomposition:
        total += op_norm(np.asarray(mat, dtype=complex)) * math.exp(lam * len(tuple(support)))
    return total
