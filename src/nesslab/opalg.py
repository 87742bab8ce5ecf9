"""Dense operator algebra on finite volumes.

Operators live on an ordered list of lattice sites (ascending site id, one
finite-dimensional factor per site) and are stored as full dense matrices:
float64 when every entry is real, complex128 otherwise (:func:`as_matrix`).
The module provides tensor products, embedding into larger volumes and
the one in-place sum of embedded operators (:func:`embed_sum`), the
conserved sectors of a set of operators, commutators, the operator
norm, the spectral decomposition of Hermitian matrices, and the
exponentially weighted observable norm in its upper-bound form. Every
Hermitian eigensolve of the package goes through the in-place kernel
:func:`_eigh`, which :func:`spectral` and ``dynamics.make_plan`` share, or
the solver of :func:`eigenvalues`, which :func:`op_norm` shares.
"""

from __future__ import annotations

import ctypes
import functools
import math
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

# Tolerances of the validity checks; relative ones scale with max(1, max|M|).
# relative Hermiticity of operators and Klein inputs: far above sum/product roundoff
HERMITICITY_TOL = 1e-10
# absolute max|U^dagger U - I| of a supplied unitary, whose entries are O(1)
UNITARITY_TOL = 1e-10
# op_norm uses eigvalsh of the symmetrized matrix below this defect, which bounds its error
OP_NORM_HERMITIAN_TOL = 1e-12
# absolute entrywise defect of raw user terms: text rounding is ~1e-16
TERM_HERMITICITY_TOL = 1e-12
# horizon_reports: Bohr frequencies |d| >= tol / min T are separable (rounding eps |P| / tol)
SEPARABLE_PHASE_TOL = 0.1
# embed_sum: index entries formed at once, rows times the operator's dimension d
# (2 MiB per index array); a chain term (d <= 16) on up to 16384 states takes one chunk
EMBED_CHUNK_ENTRIES = 1 << 18

# Slacks of the reported checks, added to (or scaling) the rigorous bound
# each check compares against so that roundoff alone never fails it.
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

# the largest x whose exp(x) is a finite float, about 709.78
LOG_MAX_FLOAT = math.log(np.finfo(float).max)


def exp_or_inf(x: float) -> float:
    """e^x, or inf for x above LOG_MAX_FLOAT (a product given by its logarithm x)."""
    return math.exp(x) if x <= LOG_MAX_FLOAT else math.inf


def is_hermitian_matrix(mat, tol: float = HERMITICITY_TOL, adjoint=None,
                        floor: float = 1.0) -> bool:
    """max|M - M^dagger| <= tol * max(floor, max|M|), relative for floor 0, with
    ``adjoint`` the M^dagger a caller has formed; an empty matrix passes."""
    mat = np.asarray(mat)
    if mat.size == 0:
        return True
    scale = max(floor, float(np.max(np.abs(mat))))
    defect = mat - (mat.conj().T if adjoint is None else adjoint)
    return bool(np.max(np.abs(defect)) <= tol * scale)


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
        # Python ints, whose product is exact; a tuple of them is kept as it is
        if any(type(d) is not int for d in self.dims):
            object.__setattr__(self, "dims", tuple(map(operator.index, self.dims)))
        if len(self.sites) != len(self.dims):
            raise ValueError("sites and dims must have equal length")
        if tuple(sorted(self.sites)) != self.sites:
            raise ValueError("volume must be ordered by ascending site id")
        if len(set(self.sites)) != len(self.sites):
            raise ValueError("duplicate site id in volume")
        dim = math.prod(self.dims)
        mat = as_matrix(self.matrix)
        if mat.shape != (dim, dim):
            raise ValueError(
                f"matrix shape {mat.shape} does not match volume dimension {dim}"
            )
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def _require_same_volume(self, other: "DenseOperator"):
        if (self.sites, self.dims) != (other.sites, other.dims):
            raise ValueError(f"volume mismatch: {self.sites} vs {other.sites}")

    def with_matrix(self, matrix: np.ndarray) -> "DenseOperator":
        return DenseOperator(self.sites, self.dims, matrix)

    def __add__(self, other: "DenseOperator") -> "DenseOperator":
        self._require_same_volume(other)
        return self.with_matrix(self.matrix + other.matrix)

    def __sub__(self, other: "DenseOperator") -> "DenseOperator":
        self._require_same_volume(other)
        return self.with_matrix(self.matrix - other.matrix)

    def __mul__(self, scalar: complex) -> "DenseOperator":
        return self.with_matrix(self.matrix * scalar)

    __rmul__ = __mul__


def _positions(factors: Sequence[DenseOperator], sites: tuple[int, ...],
               dims: tuple[int, ...]) -> list[list[int]]:
    """Each factor's site positions in the volume; the factors must act on
    disjoint sites of the volume with matching local dimensions."""
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
    return [[pos[s] for s in f.sites] for f in factors]


def embed(op: DenseOperator, sites: Sequence[int], dims: Sequence[int]) -> DenseOperator:
    """Embed ``op`` into a larger volume as ``op`` tensor identity.

    The target volume must contain the operator's volume; the result acts
    as ``op`` on the original factors and as the identity elsewhere, under
    canonical ascending-site ordering: :func:`embed_sum` of ``op`` alone on
    the whole volume as one sector.
    """
    (matrix,) = embed_sum([op], sites, dims, [np.arange(math.prod(dims))])
    return DenseOperator(tuple(sites), tuple(dims), matrix)


def embedding_maps(op: DenseOperator, sites: Sequence[int],
                   dims: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """(inner, outside): each volume index's index on op's sites and on the others;
    embed(op, sites, dims).matrix[i, j] is op.matrix[inner[i], inner[j]] or 0 by outside."""
    (axes,) = _positions((op,), sites, dims)
    return tuple(np.broadcast_to(np.arange(math.prod(shape)).reshape(shape), dims).ravel()
                 for shape in ([d if k in axes else 1 for k, d in enumerate(dims)],
                               [1 if k in axes else d for k, d in enumerate(dims)]))


def embed_sum(ops: Sequence[DenseOperator], sites: Sequence[int], dims: Sequence[int],
              indices: Sequence[np.ndarray]) -> list[np.ndarray]:
    """The diagonal blocks M[indices[p]][:, indices[p]], one per sector p, of the
    sum M of the embed(op, sites, dims) of ``ops``, none of which has an entry
    between two sectors: each op is added in place, in order, into zeroed blocks
    of the sum's dtype. The whole volume is the one sector np.arange(D).

    Row i of an op's embedding has its d nonzeros (d the op's dimension) in the
    columns that differ from i on op's sites only, i - lift[inner[i]] + lift[k]
    for k < d, with lift[k] the volume index of op's index k and the other
    sites at 0 (:func:`embedding_maps`); those in the row's own sector are
    added, D d entries per op, walked in chunks of rows of at most
    ``EMBED_CHUNK_ENTRIES`` entries so that no index array is D d long. Each
    index's sector and position in it are found once per call.
    """
    dtype = np.result_type(float, *(op.matrix for op in ops))
    blocks = [np.zeros((rows.size, rows.size), dtype) for rows in indices]
    label = np.empty(math.prod(dims), dtype=np.intp)
    position = np.empty_like(label)
    for p, rows in enumerate(indices):
        label[rows] = p
        position[rows] = np.arange(rows.size)
    for op in ops:
        inner, outside = embedding_maps(op, sites, dims)
        lift = np.empty(op.dim, dtype=np.intp)
        at = np.flatnonzero(outside == 0)
        lift[inner[at]] = at
        step = max(1, EMBED_CHUNK_ENTRIES // op.dim)
        for p, (block, rows) in enumerate(zip(blocks, indices)):
            for lo in range(0, rows.size, step):
                part = rows[lo:lo + step]
                cols = (part - lift[inner[part]])[:, None] + lift
                keep = label[cols] == p
                flat = (position[part, None] * rows.size + position[cols])[keep]
                block.reshape(-1)[flat] += op.matrix[inner[part]][keep]
    return blocks


def assemble(blocks: dict, indices: Sequence[np.ndarray], dim: int,
             sign: float | None = None) -> np.ndarray:
    """The matrix with block M_pq at (indices[p], indices[q]) and, given ``sign``,
    M_qp = sign M_pq^dagger, zero elsewhere; for one sector, its block itself."""
    if len(indices) == 1 and blocks:
        return blocks[next(iter(blocks))]
    out = np.zeros((dim, dim), dtype=np.result_type(float, *blocks.values()))
    for (p, q), block in blocks.items():
        out[np.ix_(indices[p], indices[q])] = block
        if sign is not None and p != q:
            out[np.ix_(indices[q], indices[p])] = sign * block.conj().T
    return out


def kron_apply(factors: Sequence[DenseOperator], sites: Sequence[int],
               dims: Sequence[int], v: np.ndarray) -> np.ndarray:
    """T v for the tensor product T of operators on disjoint sites of the
    volume, each factor acting on its own sites and the identity on the
    sites no factor covers, without forming T.

    Each factor is contracted with the row index of ``v`` along its own
    site axes, at the cost of D d products per column for a factor of
    dimension d, instead of the D^2 of a volume-sized operator: on
    contiguous sites one batched product on ``v`` viewed as (sites before,
    factor, sites after and columns), with no copy, else with the axes moved
    to the front. Products go through :func:`matmul`, so a real ``v`` is
    never upcast: a complex factor is split into its real and imaginary parts.
    """
    sites = tuple(sites)
    dims = tuple(dims)
    out = v
    cols = v.shape[1]
    for f, axes in zip(factors, _positions(factors, sites, dims)):
        first = min(axes, default=0)
        if axes == list(range(first, first + len(axes))):
            out = matmul(f.matrix, out.reshape(math.prod(dims[:first]), f.dim, -1))
            out = out.reshape(-1, cols)
            continue
        front = range(len(axes))
        tensor = np.moveaxis(out.reshape(dims + (cols,)), axes, front)
        moved = tensor.shape
        out = matmul(f.matrix, tensor.reshape(f.dim, -1)).reshape(moved)
        out = np.moveaxis(out, front, axes).reshape(-1, cols)
    return out


def sectors(ops: Sequence[DenseOperator], sites: Sequence[int],
            dims: Sequence[int]) -> tuple[np.ndarray, ...]:
    """The connected components (ascending index arrays, by first index) of
    the union of the nonzero patterns of the embedded ``ops``, whose sums
    and products map each component's span into itself. Each pass sets the
    labels of both indices of each nonzero pair of an operator's own matrix
    to their minimum, for all configurations of the other sites at once;
    passes with pointer jumping repeat until no label changes, on arrays of
    length D only."""
    local = []
    for op in ops:
        (axes,) = _positions((op,), sites, dims)
        pattern = op.matrix != 0
        local.append((axes, op.dim, np.argwhere(np.triu(pattern | pattern.T, 1))))
    label = np.arange(math.prod(dims))
    while True:
        before = label.copy()
        for axes, dim, pairs in local:
            tensor = np.moveaxis(label.reshape(dims), axes, range(len(axes)))
            flat = tensor.reshape(dim, -1)
            for pair in pairs:
                flat[pair] = flat[pair].min(axis=0)
            label = np.moveaxis(flat.reshape(tensor.shape), range(len(axes)), axes).reshape(-1)
        while not np.array_equal(label[label], label):
            label = label[label]
        if np.array_equal(label, before):
            break
    order = np.argsort(label, kind="stable")
    return tuple(np.split(order, np.flatnonzero(np.diff(label[order])) + 1))


def commutator(a: DenseOperator, b: DenseOperator) -> DenseOperator:
    """AB - BA on a shared volume."""
    a._require_same_volume(b)
    return a.with_matrix(matmul(a.matrix, b.matrix) - matmul(b.matrix, a.matrix))


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The product a @ b of two matrices, or of stacks of them as ``@`` takes.

    numpy would upcast a real factor next to a complex one and run a complex
    product, twice the arithmetic. A real ``a`` times a complex ``b`` whose
    last axis has unit stride is one real BLAS product on ``b`` viewed as
    its interleaved real and imaginary parts, a real matrix of twice the
    columns, whose result viewed back is the complex product: no copy and
    nothing beyond the output. Otherwise (a complex ``a``, or a ``b`` of
    other strides) the real and imaginary parts of the result are each one
    real product, on contiguous copies of the complex factor's parts, since
    numpy hands only unit-stride operands to BLAS; a part that is
    identically zero, as the real part of i times a real matrix, costs no
    product.
    """
    if np.iscomplexobj(a) == np.iscomplexobj(b):
        return a @ b
    if np.iscomplexobj(b) and b.strides[-1] == b.itemsize:
        return (a @ b.view(np.float64)).view(np.complex128)
    cplx = a if np.iscomplexobj(a) else b

    def product(part: np.ndarray) -> np.ndarray:
        part = np.ascontiguousarray(part)
        return part @ b if cplx is a else a @ part

    if not np.any(cplx.imag):
        return product(cplx.real).astype(complex)
    shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (a.shape[-2], b.shape[-1])
    if np.any(cplx.real):
        out = np.empty(shape, dtype=complex)
        out.real = product(cplx.real)
    else:
        out = np.zeros(shape, dtype=complex)
    out.imag = product(cplx.imag)
    return out


def _conjugate_in_place(a: np.ndarray) -> np.ndarray:
    return np.conjugate(a, out=a) if np.iscomplexobj(a) else a


def rotate(v: np.ndarray, x: np.ndarray, w: np.ndarray | None = None) -> np.ndarray:
    """V^dagger X W through :func:`matmul`, with W = V unless given.

    A real V^T is a free view, so the product is (V^T X) W. numpy has no
    conjugate-transpose product, and ``v.conj()`` of a complex V is a copy of
    16 D^2 bytes, so a complex one is formed as conj(V^T conj(X W)),
    conjugating the temporary X W and the product in place, without copying
    V: exact, so equal to ``v.conj().T @ (x @ w)`` to the last bit when BLAS
    sums in the same order for both.
    """
    w = v if w is None else w
    if np.iscomplexobj(v):
        return _conjugate_in_place(matmul(v.T, _conjugate_in_place(matmul(x, w))))
    return matmul(matmul(v.T, x), w)


def rotate_back(v: np.ndarray, x: np.ndarray, w: np.ndarray | None = None) -> np.ndarray:
    """V X W^dagger through :func:`matmul`, with W = V unless given: the
    inverse of :func:`rotate` for unitary V and W.

    Formed as (V X) W^dagger; for a complex W as conj(conj(V X) W^T),
    conjugating the temporary V X and the product in place, without
    copying W.
    """
    w = v if w is None else w
    vx = matmul(v, x)
    del x   # a temporary X of the caller's is freed before the second product
    if not np.iscomplexobj(w):
        return matmul(vx, w.T)
    return _conjugate_in_place(matmul(_conjugate_in_place(vx), w.T))


def op_norm(a) -> float:
    """Operator norm (largest singular value).

    A Hermitian M, within OP_NORM_HERMITIAN_TOL relative to max|M|, is
    normed by the largest absolute eigenvalue of its Hermitian part, formed
    from the conjugate transpose the test used. Else it is the root of the
    largest eigenvalue of the Gram matrix of M / max|M| (no overflow or
    underflow): :func:`_gram_norm`, real for a real M.
    """
    mat = as_matrix(a)
    if mat.size == 0:
        return 0.0
    adjoint = np.conjugate(mat.T, out=np.empty_like(mat))
    if is_hermitian_matrix(mat, OP_NORM_HERMITIAN_TOL, adjoint, 0.0):
        return float(np.max(np.abs(_eigvalsh(0.5 * (mat + adjoint)))))
    del adjoint
    return _gram_norm(mat)


def block_norm(blocks: dict, sizes: Sequence[int], sign: float | None = None) -> float:
    """||M|| for M given by its blocks {(p, q): M_pq} on sectors of ``sizes``,
    p <= q alone if M_qp = sign M_pq^dagger (``sign`` +1 or -1): the largest
    over the components of the graph of nonzero blocks. Two sectors' [[0, B],
    [C, 0]] is max(||B||, ||C||), ||B|| given ``sign``, by Gram solves; any
    other is assembled and normed by :func:`op_norm`, Hermiticity tested."""
    blocks = {key: as_matrix(block) for key, block in blocks.items() if np.any(block)}
    graph = np.zeros((len(sizes),) * 2)
    for p, q in blocks:
        graph[p, q] = graph[q, p] = 1.0
    norms = [0.0]
    for group in sectors([DenseOperator((0,), (len(sizes),), graph)], (0,), (len(sizes),)):
        part = {(p, q): block for (p, q), block in blocks.items() if p in group}
        if len(group) == 2 and all(p != q for p, q in part):
            norms += [_gram_norm(block) for block in part.values()]
        elif part:
            bounds = np.cumsum([0] + [sizes[p] for p in group])
            local = {p: np.arange(lo, hi) for p, lo, hi in zip(group, bounds, bounds[1:])}
            norms.append(op_norm(assemble(part, local, bounds[-1], sign)))
    return max(norms)


def _gram_norm(mat: np.ndarray) -> float:
    """The largest singular value of a nonzero M as max|M| times the root of
    the largest eigenvalue of G = U^dagger U, U = X + iY = M / max|M|, formed
    by symmetric rank-k products (syrk), which fill both triangles alike:
    Re G = X^T X + Y^T Y and Im G = C - C^T, C = X^T Y. So G is bitwise
    Hermitian at half the flops of a general product, with no copy of U^dagger."""
    scale = float(np.max(np.abs(mat)))
    x = (mat.real if np.iscomplexobj(mat) else mat) / scale
    gram = matmul(x.T, x)
    if np.iscomplexobj(mat):
        y = mat.imag / scale
        gram += matmul(y.T, y)
        cross = matmul(x.T, y)
        del x, y
        gram = gram.astype(complex)
        np.subtract(cross, cross.T, out=gram.imag)
    largest = float(_eigvalsh(gram)[-1])
    return scale * math.sqrt(max(largest, 0.0))


def hermitian_matrix(a, what: str = "spectral decomposition") -> np.ndarray:
    """The Hermitian part (M + M^dagger) / 2 of the matrix M of A, which
    must be Hermitian within HERMITICITY_TOL (ValueError naming ``what``
    otherwise); a bitwise Hermitian M is returned itself after one exact test."""
    mat = as_matrix(a)
    if np.array_equal(mat, mat.conj().T):
        return mat
    if not is_hermitian_matrix(mat):
        raise ValueError(f"{what} requires a Hermitian matrix")
    return 0.5 * (mat + mat.conj().T)


def _eigvalsh(mat: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a bitwise Hermitian M."""
    return np.linalg.eigvalsh(mat)


@functools.cache
def _lapack_eigh():
    """The solver :func:`_eigh` runs on a float64 or complex128 matrix, in place, returning
    the eigenvalues and LAPACK's INFO; None unless numpy's LAPACK is the ILP64 OpenBLAS
    of its wheels, found on the first solve, not at import.

    The library is the file of that name next to numpy (``numpy.libs``, or
    ``numpy/.dylibs``), which ctypes maps as the copy numpy loaded, so one
    OPENBLAS_NUM_THREADS governs both. The solver calls the divide-and-conquer routine
    that ``np.linalg.eigh`` calls, dsyevd or zheevd (JOBZ 'V', UPLO 'L'), with the minimal
    real and integer workspaces and LWORK 64 n above the minimal, n^2 + 66 n (complex)
    or 1 + 6 n + 2 n^2 + 64 n (real): numpy passes the minimal, with which the complex
    Householder back-transformation runs unblocked, at about twice the time for n >= 512.
    """
    found = [*Path(np.__file__).parent.parent.glob("numpy.libs/libscipy_openblas64_*"),
             *Path(np.__file__).parent.glob(".dylibs/libscipy_openblas64_*")]
    try:
        lib = ctypes.CDLL(str(found[0]))
        routines = {np.dtype(float): lib.scipy_dsyevd_64_,
                    np.dtype(complex): lib.scipy_zheevd_64_}
    except (IndexError, OSError, AttributeError):
        return None
    integer, buffer = ctypes.POINTER(ctypes.c_int64), ctypes.c_void_p
    for dtype, routine in routines.items():
        # JOBZ, UPLO, N, A, LDA, W, each workspace and its length (zheevd's real one
        # after its complex one), INFO, and the lengths of the two characters
        routine.argtypes = ([ctypes.c_char_p] * 2 + [integer, buffer, integer, buffer]
                            + [buffer, integer] * (3 if dtype == complex else 2)
                            + [integer] + [ctypes.c_size_t] * 2)
        routine.restype = None

    def solve(mat: np.ndarray) -> tuple[np.ndarray, int]:
        n = mat.shape[0]
        if not (mat.dtype in routines and mat.shape == (n, n) and mat.flags.c_contiguous
                and mat.flags.writeable):
            raise ValueError("the in-place eigensolve takes a writeable, C-contiguous, "
                             "square float64 or complex128 matrix")
        w, info = np.empty(n), ctypes.c_int64(0)
        work = ([np.empty(n * n + 66 * n or 1, complex), np.empty(1 + 5 * n + 2 * n * n)]
                if mat.dtype == complex else [np.empty(1 + 6 * n + 2 * n * n + 64 * n)])
        work.append(np.empty(3 + 5 * n, np.int64))
        sizes = [ctypes.c_int64(x.size) for x in work]
        spaces = [arg for x, size in zip(work, sizes) for arg in (x.ctypes, ctypes.byref(size))]
        routines[mat.dtype](b"V", b"L", ctypes.byref(ctypes.c_int64(n)), mat.ctypes,
                            ctypes.byref(ctypes.c_int64(max(1, n))), w.ctypes, *spaces,
                            ctypes.byref(info), 1, 1)
        return w, info.value
    return solve


def _eigh(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and unitary eigenvector matrix of a bitwise Hermitian,
    C-contiguous float64 or complex128 M, which is overwritten by the eigenvectors: no
    copy in or out. LAPACK reads M's buffer by columns, as M^T = conj(M), whose
    eigenvectors are the conjugates of M's, so the eigenvector matrix is the transpose of
    the result, conjugated in place. np.linalg.eigh where :func:`_lapack_eigh` finds no
    library; LinAlgError for a nonzero INFO."""
    solve = _lapack_eigh()
    if solve is None:
        return np.linalg.eigh(mat)
    w, info = solve(mat)
    if info:
        raise np.linalg.LinAlgError(f"Hermitian eigensolve failed: LAPACK INFO {info}")
    return w, _conjugate_in_place(mat).T


def spectral(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and unitary eigenvector matrix of a Hermitian A.

    ``(w, v)`` with A = v diag(w) v^dagger for the symmetrized matrix
    (:func:`hermitian_matrix`), solved by :func:`_eigh` on a copy only if that
    matrix is the caller's own: no array of the caller's is written. Raises
    ValueError for non-Hermitian input.
    """
    mat = hermitian_matrix(a)
    if (np.may_share_memory(mat, a.matrix if isinstance(a, DenseOperator) else a)
            or not mat.flags.c_contiguous):
        mat = np.array(mat, order="C")
    return _eigh(mat)


def eigenvalues(a) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian A; see :func:`spectral`."""
    return _eigvalsh(hermitian_matrix(a))


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
