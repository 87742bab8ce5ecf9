"""Dense operator algebra on finite volumes.

Operators live on an ordered list of lattice sites (ascending site id, one
finite-dimensional factor per site) and are stored as full dense matrices:
float64 when every entry is real, complex128 otherwise (:func:`as_matrix`).
The module provides tensor products and embedding into larger volumes,
commutators, the operator norm, the spectral decomposition of Hermitian
matrices, functional calculus, and the exponentially weighted observable
norm in its upper-bound form. Every Hermitian eigensolve of the package goes
through :func:`spectral` or the solver of :func:`eigenvalues`, which
:func:`op_norm` shares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

# Tolerances of the validity checks; relative ones scale with max(1, max|M|).
# relative Hermiticity of operators, states and Klein inputs: far above sum/product roundoff
HERMITICITY_TOL = 1e-10
# absolute max|U^dagger U - I| of a supplied unitary, whose entries are O(1)
UNITARITY_TOL = 1e-10
# op_norm uses eigvalsh of the symmetrized matrix below this defect, which bounds its error
OP_NORM_HERMITIAN_TOL = 1e-12
# absolute |tr rho - 1| of a density matrix, whose trace is O(1)
STATE_TRACE_TOL = 1e-10
# absolute entrywise defect of raw user terms: text rounding is ~1e-16
TERM_HERMITICITY_TOL = 1e-12

# Slacks of the reported checks, added to (or scaling) the rigorous bound
# each check compares against so that roundoff alone never fails it.
# kms_check: max entry of state - Gibbs(H, beta) for "same state"; both are O(1)
KMS_STATE_TOL = 1e-8
# heat_direction_check: absolute, on top of beta_2 * 2||W||/T
HEAT_DIRECTION_SLACK = 1e-10
# boundary_redraw_check: absolute, on top of (2/T) ||sum_a beta_a (H_a - H'_a)||
REDRAW_BOUND_SLACK = 1e-9
# current_bound_check: absolute, on top of 2 card(S) e^lam ||Phi||_lam^2 / lam
CURRENT_BOUND_SLACK = 1e-12
# PerturbationFamily.check: absolute, on top of bound_K for each entry's weighted norm
BOUND_K_SLACK = 1e-12
# klein-fuzz: violation relative to card * ||A|| * max|phi| (the trace's scale)
KLEIN_VIOLATION_REL_TOL = 1e-10
# klein-fuzz: absolute defect of the witness's unit row and column sums
KLEIN_STOCHASTIC_TOL = 1e-10
# klein-fuzz: most negative witness entry allowed (entries are |overlap|^2 >= 0)
KLEIN_MIN_ENTRY_TOL = 1e-12


def is_hermitian_matrix(mat, tol: float = HERMITICITY_TOL) -> bool:
    """max|M - M^dagger| <= tol * max(1, max|M|); an empty matrix passes."""
    mat = np.asarray(mat)
    if mat.size == 0:
        return True
    scale = max(1.0, float(np.max(np.abs(mat))))
    return bool(np.max(np.abs(mat - mat.conj().T)) <= tol * scale)


def as_matrix(a) -> np.ndarray:
    """The matrix of an operator or array: float64 when every entry is real,
    complex128 otherwise, so real models run in real arithmetic."""
    if isinstance(a, DenseOperator):
        return a.matrix
    mat = np.asarray(a)
    if not np.iscomplexobj(mat):
        return mat.astype(float, copy=False)
    if np.any(mat.imag):
        return mat.astype(complex, copy=False)
    return mat.real.copy()


@dataclass(frozen=True)
class DenseOperator:
    """A dense matrix attached to an ordered finite volume of sites.

    ``sites`` and ``dims`` are parallel tuples in canonical ascending-id
    order; the matrix dimension is the product of the local dimensions. The
    matrix is float64 when every entry is real and complex128 otherwise.
    """

    sites: tuple[int, ...]
    dims: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        if len(self.sites) != len(self.dims):
            raise ValueError("sites and dims must have equal length")
        if tuple(sorted(self.sites)) != self.sites:
            raise ValueError("volume must be ordered by ascending site id")
        if len(set(self.sites)) != len(self.sites):
            raise ValueError("duplicate site id in volume")
        dim = int(np.prod(self.dims)) if self.dims else 1
        mat = as_matrix(self.matrix)
        if mat.shape != (dim, dim):
            raise ValueError(
                f"matrix shape {mat.shape} does not match volume dimension {dim}"
            )
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def same_volume(self, other: "DenseOperator") -> bool:
        return self.sites == other.sites and self.dims == other.dims

    def _require_same_volume(self, other: "DenseOperator"):
        if not self.same_volume(other):
            raise ValueError(
                f"volume mismatch: {self.sites} vs {other.sites}"
            )

    def with_matrix(self, matrix: np.ndarray) -> "DenseOperator":
        return DenseOperator(self.sites, self.dims, matrix)

    def is_hermitian(self, tol: float = HERMITICITY_TOL) -> bool:
        return is_hermitian_matrix(self.matrix, tol)

    def __add__(self, other: "DenseOperator") -> "DenseOperator":
        self._require_same_volume(other)
        return self.with_matrix(self.matrix + other.matrix)

    def __sub__(self, other: "DenseOperator") -> "DenseOperator":
        self._require_same_volume(other)
        return self.with_matrix(self.matrix - other.matrix)

    def __neg__(self) -> "DenseOperator":
        return self.with_matrix(-self.matrix)

    def __mul__(self, scalar: complex) -> "DenseOperator":
        return self.with_matrix(self.matrix * scalar)

    __rmul__ = __mul__

    def __matmul__(self, other: "DenseOperator") -> "DenseOperator":
        self._require_same_volume(other)
        return self.with_matrix(matmul(self.matrix, other.matrix))


def identity(sites: Sequence[int], dims: Sequence[int]) -> DenseOperator:
    dim = int(np.prod(tuple(dims))) if len(dims) else 1
    return DenseOperator(tuple(sites), tuple(dims), np.eye(dim))


def zero(sites: Sequence[int], dims: Sequence[int]) -> DenseOperator:
    dim = int(np.prod(tuple(dims))) if len(dims) else 1
    return DenseOperator(tuple(sites), tuple(dims), np.zeros((dim, dim)))


def kron_embed(factors: Sequence[DenseOperator], sites: Sequence[int],
               dims: Sequence[int]) -> DenseOperator:
    """Tensor product of operators on disjoint volumes, placed into a volume.

    The result acts as each factor on that factor's sites and as the
    identity on the target sites no factor covers, under canonical
    ascending-site ordering. Implemented as one Kronecker product in factor
    order followed by one axis permutation of the reshaped tensor; no
    permutation matrices are materialized.
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
        mats.append(np.eye(math.prod(dims[pos[s]] for s in rest),
                           dtype=np.result_type(float, *mats)))
    order += rest
    full = mats[0] if mats else np.ones((1, 1))
    for mat in mats[1:]:
        full = np.kron(full, mat)

    n = len(order)
    axis = {s: i for i, s in enumerate(order)}
    perm = [axis[s] for s in sites] + [n + axis[s] for s in sites]
    order_dims = tuple(dims[pos[s]] for s in order)
    dim = math.prod(dims)
    full = full.reshape(order_dims + order_dims).transpose(perm).reshape(dim, dim)
    return DenseOperator(sites, dims, full)


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
    return a.with_matrix(matmul(a.matrix, b.matrix) - matmul(b.matrix, a.matrix))


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The product a @ b of two matrices.

    When exactly one factor is complex, the real and imaginary parts of the
    result are each one real BLAS product: numpy would upcast the real
    factor and run a complex product, twice the arithmetic. The parts of the
    complex factor are copied to contiguous arrays first, because numpy
    hands only unit-stride operands to BLAS.
    """
    if np.iscomplexobj(a) == np.iscomplexobj(b):
        return a @ b
    out = np.empty((a.shape[0], b.shape[1]), dtype=complex)
    if np.iscomplexobj(a):
        out.real = np.ascontiguousarray(a.real) @ b
        out.imag = np.ascontiguousarray(a.imag) @ b
    else:
        out.real = a @ np.ascontiguousarray(b.real)
        out.imag = a @ np.ascontiguousarray(b.imag)
    return out


def rotate(v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """V^dagger X V through :func:`matmul`; ``rotate(v.conj().T, x)`` is V X V^dagger."""
    return matmul(matmul(v.conj().T, x), v)


def op_norm(a) -> float:
    """Operator norm (largest singular value).

    Hermitian inputs take the spectral route (largest absolute eigenvalue,
    exact for selfadjoint matrices); anything else falls back to the SVD.
    The Hermiticity test is made once, with the stricter
    OP_NORM_HERMITIAN_TOL, so the solver does not repeat it.
    """
    mat = as_matrix(a)
    if mat.size == 0:
        return 0.0
    if is_hermitian_matrix(mat, OP_NORM_HERMITIAN_TOL):
        return float(np.max(np.abs(_eigvalsh(mat))))
    return float(np.linalg.norm(mat, 2))


def check_unitary(u, tol: float = UNITARITY_TOL):
    mat = as_matrix(u)
    defect = np.max(np.abs(mat.conj().T @ mat - np.eye(mat.shape[0])))
    if defect > tol:
        raise ValueError(f"matrix is not unitary (defect {defect:.3e})")


def unitary_conj(u, a):
    """U A U^{-1} for unitary U; preserves spectrum and trace."""
    check_unitary(u)
    um = as_matrix(u)
    am = as_matrix(a)
    if um.shape[0] != am.shape[0]:
        raise ValueError("dimension mismatch in unitary conjugation")
    out = rotate(um.conj().T, am)
    if isinstance(a, DenseOperator):
        return DenseOperator(a.sites, a.dims, out)
    return out


def _require_hermitian(a) -> np.ndarray:
    """The matrix of A, which must be Hermitian within HERMITICITY_TOL."""
    mat = as_matrix(a)
    if not is_hermitian_matrix(mat):
        raise ValueError("spectral decomposition requires a Hermitian matrix")
    return mat


def _hermitian_part(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + mat.conj().T)


def _eigvalsh(mat: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of (M + M^dagger) / 2 for an already checked M."""
    return np.linalg.eigvalsh(_hermitian_part(mat))


def spectral(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and unitary eigenvector matrix of a Hermitian A.

    ``(w, v)`` with A = v diag(w) v^dagger, as ``np.linalg.eigh`` returns
    them for the symmetrized matrix. Raises ValueError for non-Hermitian
    input.
    """
    return np.linalg.eigh(_hermitian_part(_require_hermitian(a)))


def eigenvalues(a) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian A; see :func:`spectral`."""
    return _eigvalsh(_require_hermitian(a))


def apply_function(a, phi: Callable[[float], float]):
    """phi(A) for Hermitian A via the spectral decomposition.

    Exceptions raised by ``phi`` at an eigenvalue propagate to the caller.
    """
    w, v = spectral(a)
    vals = np.array([phi(float(x)) for x in w])
    mat = matmul(v * vals, v.conj().T)
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
        total += op_norm(mat) * math.exp(lam * len(tuple(support)))
    return total
