import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nesslab import (
    DenseOperator,
    commutator,
    embed,
    observable_lambda_norm_upper,
    op_norm,
    spectral,
)
from nesslab import opalg
from nesslab.opalg import eigenvalues

from conftest import ID2, SX, SY, SZ, random_hermitian, random_unitary, traced_peak
from oracles import apply_function


def embed_via_permutation(mat, op_sites, all_sites, dims_by_site):
    """Oracle: kron with trailing identity, then permute basis indices.

    Builds the permutation matrix explicitly from mixed-radix index
    arithmetic; deliberately different from the implementation's axis
    transposition.
    """
    rest = [s for s in all_sites if s not in op_sites]
    order = list(op_sites) + rest  # site order of the naive kron
    dim_rest = int(np.prod([dims_by_site[s] for s in rest])) if rest else 1
    big = np.kron(mat, np.eye(dim_rest))
    dims_order = [dims_by_site[s] for s in order]
    dim = int(np.prod(dims_order))
    perm = np.zeros((dim, dim))
    for idx in range(dim):
        # digits of idx in the naive order, re-read in canonical order
        rem = idx
        digits = {}
        for s, d in zip(order[::-1], dims_order[::-1]):
            digits[s] = rem % d
            rem //= d
        target = 0
        for s in all_sites:
            target = target * dims_by_site[s] + digits[s]
        perm[target, idx] = 1.0
    return perm @ big @ perm.T


class TestEmbed:
    def test_identity_maps_to_identity(self):
        one = DenseOperator((1,), (2,), np.eye(2))
        out = embed(one, (0, 1, 2), (2, 2, 2))
        np.testing.assert_allclose(out.matrix, np.eye(8), atol=1e-15)

    def test_leading_identity_kron(self):
        a = DenseOperator((1,), (2,), SX)
        out = embed(a, (0, 1), (2, 2))
        np.testing.assert_allclose(out.matrix, np.kron(ID2, SX), atol=1e-15)

    def test_matches_permutation_oracle(self):
        rng = np.random.default_rng(7)
        dims_by_site = {0: 2, 1: 3, 2: 2}
        mat = random_hermitian(rng, 4)
        a = DenseOperator((0, 2), (2, 2), mat)
        out = embed(a, (0, 1, 2), (2, 3, 2))
        expected = embed_via_permutation(mat, (0, 2), (0, 1, 2), dims_by_site)
        np.testing.assert_allclose(out.matrix, expected, atol=1e-13)

    def test_is_algebra_morphism(self):
        rng = np.random.default_rng(11)
        a = DenseOperator((0, 2), (2, 2), random_hermitian(rng, 4))
        b = DenseOperator((0, 2), (2, 2), random_hermitian(rng, 4))
        lhs = embed(a, (0, 1, 2), (2, 2, 2)).matrix @ embed(b, (0, 1, 2), (2, 2, 2)).matrix
        rhs = embed(a.with_matrix(a.matrix @ b.matrix), (0, 1, 2), (2, 2, 2))
        np.testing.assert_allclose(lhs, rhs.matrix, atol=1e-13)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_isometric_for_operator_norm(self, seed):
        rng = np.random.default_rng(seed)
        a = DenseOperator((1,), (2,), random_hermitian(rng, 2))
        out = embed(a, (0, 1, 3), (2, 2, 3))
        assert op_norm(out) == pytest.approx(op_norm(a), abs=1e-10)

    def test_volume_must_contain_support(self):
        a = DenseOperator((1,), (2,), SX)
        with pytest.raises(ValueError):
            embed(a, (0, 2), (2, 2))

    def test_dimension_mismatch_rejected(self):
        a = DenseOperator((1,), (2,), SX)
        with pytest.raises(ValueError):
            embed(a, (0, 1), (2, 3))


class TestKronEmbed:
    def test_product_of_interleaved_factors(self):
        # factor sites interleave with each other and with an uncovered site
        rng = np.random.default_rng(17)
        sites, dims = (0, 1, 2, 3), (2, 3, 2, 2)
        a = DenseOperator((0, 2), (2, 2), random_hermitian(rng, 4))
        b = DenseOperator((1,), (3,), random_hermitian(rng, 3))
        out = opalg.kron_apply((a, b), sites, dims, np.eye(24))
        expected = embed(a, sites, dims).matrix @ embed(b, sites, dims).matrix
        np.testing.assert_allclose(out, expected, atol=1e-14)

    def test_overlapping_factors_rejected(self):
        a = DenseOperator((0, 1), (2, 2), np.eye(4))
        b = DenseOperator((1,), (2,), SX)
        with pytest.raises(ValueError):
            opalg.kron_apply((a, b), (0, 1), (2, 2), np.eye(4))


class TestKronApply:
    """kron_apply(factors, ...) against the product of the factors' dense
    embeddings, applied to v."""

    SITES, DIMS = (0, 1, 2, 3), (2, 3, 2, 2)

    def _factors(self, rng, cplx):
        def mat(n):
            return random_hermitian(rng, n) if cplx else random_hermitian(rng, n).real
        return {"leading": (DenseOperator((0, 1), (2, 3), mat(6)),),
                "trailing": (DenseOperator((3,), (2,), mat(2)),),
                "interleaved": (DenseOperator((0, 2), (2, 2), mat(4)),
                                DenseOperator((1,), (3,), mat(3))),
                "whole-volume": (DenseOperator(self.SITES, self.DIMS, mat(24)),),
                "no-sites": (DenseOperator((), (), np.full((1, 1), 0.5)),)}

    @pytest.mark.parametrize("factor_complex", [False, True], ids=["real-op", "complex-op"])
    @pytest.mark.parametrize("v_complex", [False, True], ids=["real-v", "complex-v"])
    def test_matches_the_dense_product(self, factor_complex, v_complex):
        rng = np.random.default_rng(5)
        v = rng.standard_normal((24, 24))
        if v_complex:
            v = v + 1j * rng.standard_normal((24, 24))
        for name, factors in self._factors(rng, factor_complex).items():
            out = opalg.kron_apply(factors, self.SITES, self.DIMS, v)
            dense = np.eye(24)
            for f in factors:
                dense = dense @ embed(f, self.SITES, self.DIMS).matrix
            expected = dense @ v
            assert out.dtype == expected.dtype, name
            np.testing.assert_allclose(out, expected, atol=1e-13, err_msg=name)

    @pytest.mark.parametrize("factor_complex", [False, True], ids=["real-op", "complex-op"])
    @pytest.mark.parametrize("v_complex", [False, True], ids=["real-v", "complex-v"])
    def test_matches_the_explicit_kronecker_product(self, factor_complex, v_complex):
        # one factor on leading, middle, trailing or non-contiguous sites; the
        # first three are one batched product, the last moves its axes
        rng = np.random.default_rng(9)
        v = rng.standard_normal((24, 24)) + (1j * rng.standard_normal((24, 24))
                                             if v_complex else 0.0)
        mats = [random_hermitian(rng, n) if factor_complex else random_hermitian(rng, n).real
                for n in (6, 6, 4, 4)]
        eye = np.eye

        def unit(i, j):
            return np.outer(eye(2)[i], eye(2)[j])

        split = mats[3].reshape(2, 2, 2, 2)   # rows (site 0, site 2), columns the same
        cases = {
            "leading": ((0, 1), (2, 3), mats[0], np.kron(mats[0], eye(4))),
            "middle": ((1, 2), (3, 2), mats[1], np.kron(np.kron(eye(2), mats[1]), eye(2))),
            "trailing": ((2, 3), (2, 2), mats[2], np.kron(eye(6), mats[2])),
            "non-contiguous": ((0, 2), (2, 2), mats[3], sum(
                split[a, b, c, d] * np.kron(np.kron(np.kron(unit(a, c), eye(3)), unit(b, d)),
                                            eye(2))
                for a, b, c, d in itertools.product(range(2), repeat=4))),
        }
        for name, (sites, dims, mat, dense) in cases.items():
            out = opalg.kron_apply((DenseOperator(sites, dims, mat),), self.SITES, self.DIMS, v)
            expected = dense @ v
            assert out.shape == expected.shape and out.dtype == expected.dtype, name
            np.testing.assert_allclose(out, expected, atol=1e-13, err_msg=name)

    def test_rejects_what_kron_embed_rejects(self):
        v = np.eye(4)
        with pytest.raises(ValueError):
            opalg.kron_apply((DenseOperator((1,), (2,), SX),), (0, 2), (2, 2), v)
        with pytest.raises(ValueError):
            opalg.kron_apply((DenseOperator((0, 1), (2, 2), np.eye(4)),
                              DenseOperator((1,), (2,), SX)), (0, 1), (2, 2), v)


class TestAdjointProducts:
    """rotate and rotate_back against products with the explicit
    V^dagger = v.conj().T."""

    @staticmethod
    def _gap(got, expected):
        return np.max(np.abs(got - expected)) / np.max(np.abs(expected))

    @pytest.mark.parametrize("y_complex", [False, True], ids=["real-y", "complex-y"])
    @pytest.mark.parametrize("v_complex", [False, True], ids=["real-v", "complex-v"])
    def test_match_the_explicit_adjoint(self, v_complex, y_complex):
        rng = np.random.default_rng(23)
        v = random_unitary(rng, 24) if v_complex else np.linalg.qr(
            rng.standard_normal((24, 24)))[0]
        y = rng.standard_normal((24, 24))
        if y_complex:
            y = y + 1j * rng.standard_normal((24, 24))
        v_dagger = v.conj().T
        expected = v_dagger @ y @ v
        got = opalg.rotate(v, y)
        assert got.dtype == expected.dtype
        assert self._gap(got, expected) <= 1e-14
        assert self._gap(opalg.rotate_back(v, y), v @ y @ v_dagger) <= 1e-14
        np.testing.assert_allclose(opalg.rotate_back(v, opalg.rotate(v, y)), y, atol=1e-13)


class TestEmbedSum:
    """embed_sum with the whole volume as its one sector: the embedding itself."""

    def test_one_operator_is_its_embedding(self):
        rng = np.random.default_rng(8)
        sites, dims = (0, 1, 2, 3), (2, 3, 2, 3)
        op = DenseOperator((1, 3), (3, 3), random_hermitian(rng, 9))
        (got,) = opalg.embed_sum([op], sites, dims, [np.arange(36)])
        lifted = embed_via_permutation(op.matrix, op.sites, sites, dict(zip(sites, dims)))
        assert got.dtype == lifted.dtype and got.tobytes() == lifted.tobytes()

    def test_large_operator_costs_little_beyond_its_embedding(self):
        # a real operator on 10 of 11 qubits: D = 2048, d = 1024, so D d index
        # entries at once would be 0.5 real DxD per array
        rng = np.random.default_rng(3)
        op = DenseOperator(tuple(range(10)), (2,) * 10, rng.standard_normal((1024, 1024)))
        out, peak = traced_peak(lambda: embed(op, tuple(range(11)), (2,) * 11))
        assert out.matrix[1::2, 1::2].tobytes() == op.matrix.tobytes()
        assert peak <= 1.6 * 8 * 2048 ** 2


class TestEmbedSumSectors:
    """embed_sum against the sector blocks of :func:`embed_via_permutation`: of each
    term alone, and of the sum of the six in one call."""

    SITES, DIMS = (0, 1, 2, 3), (2, 3, 2, 2)

    def _terms(self, rng):
        # each term preserves the parity of the qubits 0, 2 and 3 (site 1 is a qutrit)
        return [DenseOperator((0,), (2,), 0.7 * SZ),
                DenseOperator((1,), (3,), random_hermitian(rng, 3)),
                DenseOperator((0, 2), (2, 2), np.kron(SX, SX)),
                DenseOperator((2, 3), (2, 2), np.kron(SZ, SZ) + np.kron(SX, SY)),
                DenseOperator((0, 1, 3), (2, 3, 2), np.kron(np.kron(SX, random_hermitian(
                    rng, 3)), SX)),
                DenseOperator(self.SITES, self.DIMS, np.diag(rng.standard_normal(24)))]

    @pytest.mark.parametrize(
        "split,chunk,together",
        [("parity", None, False), ("one-sector", None, False), ("parity", 7, False),
         ("one-sector", 7, False), ("parity", None, True)],
        ids=["parity", "one-sector", "parity-chunks-of-7", "one-sector-chunks-of-7",
             "parity-six-terms-in-one-call"])
    def test_matches_the_split_dense_sum_bitwise(self, split, chunk, together, monkeypatch):
        # a budget of 7 entries walks every term's rows in chunks, one row at a
        # time for the terms of dimension 8 or more
        if chunk is not None:
            monkeypatch.setattr(opalg, "EMBED_CHUNK_ENTRIES", chunk)
        rng = np.random.default_rng(12)
        terms = self._terms(rng)
        parity = np.array([(i // 12 + i // 2 + i) % 2 for i in range(24)])
        indices = ((np.flatnonzero(parity == 0), np.flatnonzero(parity == 1))
                   if split == "parity" else (np.arange(24),))
        if split == "parity":
            assert [r.tolist() for r in opalg.sectors(terms, self.SITES, self.DIMS)] == [
                r.tolist() for r in indices]
        # the dense sum is accumulated in the dtype of the sum, as embed_sum's blocks are
        for ops in [terms] if together else [[op] for op in terms]:
            dense = np.zeros((24, 24), dtype=np.result_type(float, *(op.matrix for op in ops)))
            for op in ops:
                dense += embed_via_permutation(op.matrix, op.sites, self.SITES,
                                               dict(zip(self.SITES, self.DIMS)))
            blocks = opalg.embed_sum(ops, self.SITES, self.DIMS, indices)
            for rows, block in zip(indices, blocks, strict=True):
                assert block.dtype == dense.dtype
                assert block.tobytes() == dense[np.ix_(rows, rows)].tobytes()
            assert np.count_nonzero(dense) == sum(map(np.count_nonzero, blocks))


class TestCommutator:
    def test_pauli_algebra(self):
        a = DenseOperator((0,), (2,), SZ)
        b = DenseOperator((0,), (2,), SX)
        np.testing.assert_allclose(commutator(a, b).matrix, 2j * SY, atol=1e-15)

    def test_with_identity_vanishes(self):
        rng = np.random.default_rng(0)
        a = DenseOperator((0, 1), (2, 2), random_hermitian(rng, 4))
        np.testing.assert_allclose(commutator(a, DenseOperator((0, 1), (2, 2), np.eye(4))).matrix,
                                   np.zeros((4, 4)), atol=1e-15)

    def test_antisymmetry(self):
        rng = np.random.default_rng(1)
        a = DenseOperator((0, 1), (2, 2), random_hermitian(rng, 4))
        b = DenseOperator((0, 1), (2, 2), random_hermitian(rng, 4))
        np.testing.assert_allclose(commutator(a, b).matrix,
                                   -commutator(b, a).matrix, atol=1e-13)

    def test_volume_mismatch(self):
        a = DenseOperator((0,), (2,), SX)
        b = DenseOperator((1,), (2,), SX)
        with pytest.raises(ValueError):
            commutator(a, b)


class TestSpectral:
    def test_diagonal_sorting(self):
        w, v = spectral(np.diag([3.0, 1.0, 2.0]).astype(complex))
        np.testing.assert_allclose(w, [1.0, 2.0, 3.0])
        for value, vec in zip(w, v.T):
            idx = [3.0, 1.0, 2.0].index(value)
            expected = np.zeros((3, 3))
            expected[idx, idx] = 1.0
            np.testing.assert_allclose(np.outer(vec, vec.conj()), expected, atol=1e-12)

    def test_pauli_x_projections(self):
        w, v = spectral(SX)
        np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(np.outer(v[:, 0], v[:, 0].conj()), 0.5 * (ID2 - SX),
                                   atol=1e-12)
        np.testing.assert_allclose(np.outer(v[:, 1], v[:, 1].conj()), 0.5 * (ID2 + SX),
                                   atol=1e-12)

    def test_invariants_on_random_hermitian(self):
        rng = np.random.default_rng(21)
        mat = random_hermitian(rng, 6)
        w, v = spectral(mat)
        assert np.all(np.diff(w) >= 0.0)
        np.testing.assert_allclose(v.conj().T @ v, np.eye(6), atol=1e-10)
        np.testing.assert_allclose(v @ v.conj().T, np.eye(6), atol=1e-10)
        recon = (v * w) @ v.conj().T
        assert np.max(np.abs(recon - mat)) <= 1e-10 * max(1.0, op_norm(mat))
        np.testing.assert_allclose(eigenvalues(mat), w, atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            spectral(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
        with pytest.raises(ValueError):
            eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


def _bitwise_hermitian(mat):
    return 0.5 * (mat + mat.conj().T)


def _kernel_inputs():
    """(id, bitwise Hermitian matrix) pairs, real and complex: random at n = 1, 2, 3, 64
    and 200, the identity, and a spectrum of repeated eigenvalues in a random basis."""
    rng = np.random.default_rng(39)
    out = []
    for dtype in (float, complex):
        kind = np.dtype(dtype).name
        for n in (1, 2, 3, 64, 200):
            mat = rng.standard_normal((n, n)) + (
                1j * rng.standard_normal((n, n)) if dtype is complex else 0.0)
            out.append((f"{kind}-{n}", _bitwise_hermitian(mat)))
        out.append((f"{kind}-identity", np.eye(50, dtype=dtype)))
        basis = random_unitary(rng, 12) if dtype is complex else np.linalg.qr(
            rng.standard_normal((12, 12)))[0]
        spectrum = np.repeat([-1.0, 0.5, 2.0], 4)
        out.append((f"{kind}-repeated", _bitwise_hermitian((basis * spectrum) @ basis.conj().T)))
    return out


class TestInPlaceEigensolve:
    """opalg._eigh: LAPACK's dsyevd or zheevd on the matrix's own buffer, with LWORK
    above the minimal, against numpy's eigh."""

    @staticmethod
    def assert_decomposes(mat, w, v):
        # eigenvalues within 1e-13 ||A||; residual and unitarity defect at most 1e-12
        ref = np.linalg.eigvalsh(mat)
        norm = max(float(np.max(np.abs(ref))), np.finfo(float).tiny)
        assert v.shape == mat.shape and v.dtype == mat.dtype
        assert np.max(np.abs(w - ref)) <= 1e-13 * norm
        assert np.max(np.abs(mat @ v - v * w)) <= 1e-12 * norm
        assert np.max(np.abs(v.conj().T @ v - np.eye(len(w)))) <= 1e-12

    @pytest.mark.parametrize("mat", [m for _, m in _kernel_inputs()],
                             ids=[name for name, _ in _kernel_inputs()])
    def test_matches_numpy_eigh(self, mat):
        given = mat.copy()
        w, v = opalg._eigh(given)
        self.assert_decomposes(mat, w, v)
        # in place: the eigenvectors are the given buffer's transpose
        assert np.shares_memory(v, given) and v.T.flags.c_contiguous

    @pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
    def test_symmetrized_input(self, complex_entries):
        # Hermitian within roundoff, not bitwise: spectral solves its Hermitian part
        rng = np.random.default_rng(7)
        mat = rng.standard_normal((40, 40)) + (
            1j * rng.standard_normal((40, 40)) if complex_entries else 0.0)
        mat = _bitwise_hermitian(mat) + 1e-14 * rng.standard_normal((40, 40))
        assert not np.array_equal(mat, mat.conj().T)
        w, v = spectral(mat)
        self.assert_decomposes(_bitwise_hermitian(mat), w, v)

    @pytest.mark.parametrize("given", [
        _bitwise_hermitian(np.random.default_rng(3).standard_normal((6, 6))),
        random_hermitian(np.random.default_rng(4), 6),
        np.asfortranarray(random_hermitian(np.random.default_rng(5), 6)),
        DenseOperator((0, 1), (2, 3), random_hermitian(np.random.default_rng(6), 6)),
        np.array([[2, 1], [1, 3]], order="F")],
        ids=["real", "complex", "fortran-order", "operator", "integer-fortran-order"])
    def test_spectral_writes_no_array_of_the_caller(self, given):
        mat = given.matrix if isinstance(given, DenseOperator) else given
        before = mat.copy()
        w, v = spectral(given)
        np.testing.assert_array_equal(mat, before)
        assert not np.shares_memory(v, mat)
        self.assert_decomposes(opalg.as_matrix(before), w, v)

    def test_fallback_agrees(self, monkeypatch):
        # where no ILP64 OpenBLAS sits next to numpy, the kernel is numpy's eigh
        rng = np.random.default_rng(11)
        mats = [_bitwise_hermitian(rng.standard_normal((30, 30))), random_hermitian(rng, 30)]
        fast = [spectral(mat)[0] for mat in mats]
        solves, eigh = [], np.linalg.eigh
        monkeypatch.setattr(opalg, "_lapack_eigh", lambda: None)
        monkeypatch.setattr(np.linalg, "eigh", lambda a: solves.append(a.shape) or eigh(a))
        for mat, w_fast in zip(mats, fast):
            w, v = spectral(mat)
            self.assert_decomposes(mat, w, v)
            assert np.max(np.abs(w - w_fast)) <= 1e-13 * np.max(np.abs(w))
        assert solves == [(30, 30)] * 2

    def test_refuses_a_buffer_it_cannot_overwrite_as_given(self):
        solve = opalg._lapack_eigh()
        if solve is None:
            pytest.skip("no ILP64 OpenBLAS next to numpy: the kernel is numpy's eigh")
        mat = random_hermitian(np.random.default_rng(2), 4)
        read_only = mat.copy()
        read_only.flags.writeable = False
        for bad in (np.asfortranarray(mat), mat.astype(np.complex64), read_only, mat[:, :3]):
            with pytest.raises(ValueError, match="writeable, C-contiguous"):
                solve(bad)

    def test_nonzero_info_raises(self, monkeypatch):
        monkeypatch.setattr(opalg, "_lapack_eigh", lambda: lambda mat: (np.zeros(len(mat)), 3))
        with pytest.raises(np.linalg.LinAlgError, match="INFO 3"):
            spectral(random_hermitian(np.random.default_rng(1), 4))


class TestApplyFunction:
    def test_identity_function(self):
        rng = np.random.default_rng(3)
        mat = random_hermitian(rng, 5)
        np.testing.assert_allclose(apply_function(mat, lambda s: s), mat, atol=1e-12)

    def test_exp_of_diagonal(self):
        out = apply_function(np.diag([0.0, math.log(2.0)]).astype(complex), math.exp)
        np.testing.assert_allclose(out, np.diag([1.0, 2.0]), atol=1e-13)

    def test_exp_matches_power_series(self):
        # oracle: truncated power series of exp(t sx)
        t = 0.3
        series = np.zeros((2, 2), dtype=complex)
        power = np.eye(2, dtype=complex)
        for m in range(30):
            series += power
            power = power @ (t * SX) / (m + 1)
        out = apply_function(t * SX, math.exp)
        assert np.max(np.abs(out - series)) <= 1e-10

    def test_composition(self):
        rng = np.random.default_rng(9)
        mat = random_hermitian(rng, 6)
        inner = apply_function(mat, math.exp)          # monotone inner map
        lhs = apply_function(inner, lambda s: math.log(s) ** 2)
        rhs = apply_function(mat, lambda s: s**2)
        assert np.max(np.abs(lhs - rhs)) <= 1e-8 * max(1.0, op_norm(rhs))

    def test_exp_i_h_is_unitary(self):
        rng = np.random.default_rng(13)
        mat = random_hermitian(rng, 6)
        u = apply_function(mat, lambda s: cmath.exp(1j * s))
        np.testing.assert_allclose(u @ u.conj().T, np.eye(6), atol=1e-10)

    def test_propagates_evaluation_errors(self):
        with pytest.raises(ValueError):
            apply_function(np.diag([-1.0, 1.0]).astype(complex), math.sqrt)


class TestNormTraceConjugation:
    def test_norm_of_diagonal(self):
        assert op_norm(np.diag([1.0, -3.0]).astype(complex)) == pytest.approx(3.0)

    def test_norm_of_an_empty_matrix_is_zero(self):
        assert op_norm(np.zeros((0, 0))) == 0.0

    def test_norm_checks_hermiticity_once(self, monkeypatch):
        calls = []
        check = opalg.is_hermitian_matrix
        monkeypatch.setattr(opalg, "is_hermitian_matrix",
                            lambda *args: calls.append(args) or check(*args))
        a = random_hermitian(np.random.default_rng(31), 4)
        assert op_norm(a) == pytest.approx(np.max(np.abs(np.linalg.eigvalsh(a))), rel=1e-12)
        assert len(calls) == 1

    def test_trace_cyclicity_under_conjugation(self):
        rng = np.random.default_rng(17)
        a = random_hermitian(rng, 4)
        u = random_unitary(rng, 4)
        assert np.trace(opalg.rotate_back(u, a)) == pytest.approx(np.trace(a), abs=1e-12)

    def test_norm_unitary_invariance(self):
        rng = np.random.default_rng(19)
        a = random_hermitian(rng, 4)
        u = random_unitary(rng, 4)
        assert op_norm(opalg.rotate_back(u, a)) == pytest.approx(op_norm(a), abs=1e-10)


class TestNonHermitianNorm:
    """op_norm of a non-Hermitian matrix: the square root of the largest
    eigenvalue of the Gram matrix of M / max|M|, against numpy's SVD."""

    @staticmethod
    def _sample(kind):
        rng = np.random.default_rng(43)
        g = rng.standard_normal((12, 12))
        if kind == "real antisymmetric":
            return g - g.T
        if kind == "real general":
            return g
        return g + 1j * rng.standard_normal((12, 12))

    KINDS = ["real antisymmetric", "real general", "complex general"]

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("scale", [1.0, 1e200, 1e-200])
    def test_matches_the_svd(self, kind, scale):
        # op_norm's Hermiticity test is relative to max|M| at every scale
        m = scale * self._sample(kind)
        assert not opalg.is_hermitian_matrix(m, opalg.OP_NORM_HERMITIAN_TOL, None, 0.0)
        expected = np.linalg.norm(m, 2)
        assert np.isfinite(expected) and expected > 0.0
        assert abs(op_norm(m) - expected) <= 1e-13 * expected

    @pytest.mark.parametrize("n", [1, 7, 64])
    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
    def test_gram_route_matches_the_svd(self, monkeypatch, n, field, scale):
        # the Gram matrix is made of symmetric rank-k products (X^T X, Y^T Y and
        # C - C^T): bitwise Hermitian as the eigensolver gets it
        grams = []
        solve = opalg._eigvalsh

        def recording(mat):
            grams.append(mat.copy())
            return solve(mat)

        monkeypatch.setattr(opalg, "_eigvalsh", recording)
        rng = np.random.default_rng(n)
        m = rng.standard_normal((n, n))
        if field == "complex":
            m = m + 1j * rng.standard_normal((n, n))
        m *= scale
        expected = np.linalg.norm(m, 2)
        assert np.isfinite(expected) and expected > 0.0
        assert abs(op_norm(m) - expected) <= 1e-13 * expected
        grams.clear()
        assert abs(opalg._gram_norm(m) - expected) <= 1e-13 * expected
        assert [g.shape for g in grams] == [(n, n)]
        assert np.array_equal(grams[0], grams[0].conj().T)

    @pytest.mark.parametrize("kind", KINDS)
    def test_tiny_matrices_do_not_underflow(self, kind):
        # entries ~1e-200 square to 0 without the scaling by max|M|; op_norm
        # routes them by their own scale, so 1e-200 (g - g^T) is not 0
        m = 1e-200 * self._sample(kind)
        expected = np.linalg.norm(m, 2)
        assert expected > 0.0
        assert abs(opalg._gram_norm(m) - expected) <= 1e-13 * expected
        assert abs(op_norm(m) - expected) <= 1e-13 * expected

    def test_zero_matrix(self):
        assert op_norm(np.zeros((5, 5))) == 0.0
        assert op_norm(np.zeros((5, 5), dtype=complex)) == 0.0

    def test_real_matrix_takes_a_real_solve(self, eigensolves):
        g = self._sample("real general")
        op_norm(g - g.T)
        assert [dtype for _, _, dtype in eigensolves] == [np.float64]


class TestGramNorm:
    """The Gram route of a two-sector [[0, B], [sign B^dagger, 0]]: ||B|| from the
    symmetric rank-k products of B / max|B| and one solve of its bitwise
    Hermitian Gram matrix."""

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_complex_off_diagonal_block_matches_the_svd(self, sign, scale):
        rng = np.random.default_rng(44)
        b = scale * (rng.standard_normal((7, 5)) + 1j * rng.standard_normal((7, 5)))
        expected = np.linalg.svd(b, compute_uv=False)[0]
        assert np.isfinite(expected) and expected > 0.0
        assert abs(opalg.block_norm({(0, 1): b}, [7, 5], sign) - expected) <= 1e-13 * expected

    def test_solves_a_bitwise_hermitian_gram_matrix(self, monkeypatch):
        grams = []
        solve = opalg._eigvalsh

        def recording(mat):
            grams.append(mat.copy())
            return solve(mat)

        monkeypatch.setattr(opalg, "_eigvalsh", recording)
        rng = np.random.default_rng(45)
        b = rng.standard_normal((9, 6))
        for mat in (b, b + 1j * rng.standard_normal((9, 6))):
            opalg._gram_norm(mat)
        assert [g.shape for g in grams] == [(6, 6)] * 2
        assert all(np.array_equal(g, g.conj().T) for g in grams)


def _sector_matrix(rng, pattern, kind, sizes=(5, 5, 4)):
    """A matrix on sectors of ``sizes`` whose block pq is nonzero where
    ``pattern`` has a 1 (symmetric), under a scrambled basis order."""
    sizes = sizes[:len(pattern)]
    dim = sum(sizes)
    order = rng.permutation(dim)
    bounds = np.cumsum((0,) + sizes)
    sectors = [np.sort(order[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    m = rng.standard_normal((dim, dim))
    if kind != "real":
        m = m + 1j * rng.standard_normal((dim, dim))
    for p, rows in enumerate(sectors):
        for q, cols in enumerate(sectors):
            if not pattern[p][q]:
                m[np.ix_(rows, cols)] = 0.0
    if kind == "hermitian":
        m = m + m.conj().T
    elif kind == "antihermitian":
        m = m - m.conj().T
    return m, sectors


def _sector_norm(m, sectors):
    """opalg.block_norm of the sector blocks of m: the blocks p <= q alone
    for a bitwise Hermitian or anti-Hermitian m, every block otherwise."""
    sign = next((s for s in (1.0, -1.0) if np.array_equal(m, s * m.conj().T)), None)
    return opalg.block_norm({(p, q): m[np.ix_(rows, cols)]
                             for p, rows in enumerate(sectors) for q, cols in enumerate(sectors)
                             if sign is None or p <= q}, [rows.size for rows in sectors], sign)


class TestSectorNorm:
    """opalg.block_norm of a matrix's sector blocks equals the dense norm;
    the graph of nonzero blocks is read from the blocks."""

    PATTERNS = {"off-diagonal": ((0, 1), (1, 0)), "diagonal": ((1, 0), (0, 1)),
                "full": ((1, 1), (1, 1)), "one zero sector": ((1, 0), (0, 0)),
                "chain of three": ((0, 1, 0), (1, 0, 1), (0, 1, 0)),
                "pair and single": ((0, 1, 0), (1, 0, 0), (0, 0, 1))}

    @pytest.mark.parametrize("kind", ["hermitian", "antihermitian", "real", "complex"])
    @pytest.mark.parametrize("pattern", list(PATTERNS))
    @pytest.mark.parametrize("scale", [1.0, 1e200, 1e-200])
    def test_matches_the_dense_norm(self, kind, pattern, scale):
        m, sectors = _sector_matrix(np.random.default_rng(7), self.PATTERNS[pattern], kind)
        m = scale * m
        expected = np.linalg.norm(m, 2)
        assert abs(_sector_norm(m, sectors) - expected) <= 1e-13 * expected
        assert abs(op_norm(m) - expected) <= 1e-13 * expected

    def test_off_diagonal_component_takes_gram_solves_at_the_sector_dimension(
            self, eigensolves):
        rng = np.random.default_rng(8)
        pattern = self.PATTERNS["off-diagonal"]
        for kind, solves in (("hermitian", 1), ("antihermitian", 1), ("real", 2)):
            m, sectors = _sector_matrix(rng, pattern, kind, sizes=(6, 6))
            eigensolves.clear()
            _sector_norm(m, sectors)
            assert [dim for dim, _, _ in eigensolves] == [6] * solves, kind

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_anti_hermitian_component_takes_one_solve(self, kind, eigensolves):
        # C = -B^dagger exactly, so ||C|| = ||B||: one Gram solve of B
        rng = np.random.default_rng(12)
        m, sectors = _sector_matrix(rng, self.PATTERNS["off-diagonal"], kind, sizes=(6, 5))
        m = m - m.conj().T
        assert np.array_equal(m.conj().T, -m)
        expected = np.linalg.norm(m, 2)
        eigensolves.clear()
        assert abs(_sector_norm(m, sectors) - expected) <= 1e-13 * expected
        assert [dim for dim, _, _ in eigensolves] == [5]

    def test_zero_and_one_sector(self, eigensolves):
        m, sectors = _sector_matrix(np.random.default_rng(9), self.PATTERNS["full"], "complex")
        assert _sector_norm(np.zeros_like(m), sectors) == 0.0
        assert eigensolves == []
        assert _sector_norm(m, [np.arange(m.shape[0])]) == op_norm(m)

    def test_hermitian_route_is_bitwise_unchanged(self):
        # one conjugate transpose serves the test and the Hermitian part
        for m in (random_hermitian(np.random.default_rng(10), 9),
                  self._nearly_hermitian()):
            herm = 0.5 * (m + m.conj().T)
            assert op_norm(m) == float(np.max(np.abs(np.linalg.eigvalsh(herm))))

    @staticmethod
    def _nearly_hermitian():
        m = random_hermitian(np.random.default_rng(11), 9)
        m[0, 1] += 1e-15
        return m


class TestObservableNormUpper:
    def test_single_term(self):
        rng = np.random.default_rng(23)
        mat = random_hermitian(rng, 4)
        bound = observable_lambda_norm_upper([((0, 1), mat)], 0.7)
        assert bound == pytest.approx(op_norm(mat) * math.exp(1.4), rel=1e-12)

    def test_halving_is_neutral(self):
        rng = np.random.default_rng(29)
        mat = random_hermitian(rng, 4)
        whole = observable_lambda_norm_upper([((0, 1), mat)], 0.7)
        halves = observable_lambda_norm_upper([((0, 1), 0.5 * mat), ((0, 1), 0.5 * mat)], 0.7)
        assert halves == pytest.approx(whole, rel=1e-12)

    def test_finer_decomposition_beats_coarse(self):
        lam = 1.0
        coarse = observable_lambda_norm_upper(
            [((0, 1), np.kron(SZ, ID2) + np.kron(ID2, SZ))], lam)
        fine = observable_lambda_norm_upper([((0,), SZ), ((1,), SZ)], lam)
        assert fine == pytest.approx(2.0 * math.exp(lam), rel=1e-12)
        assert coarse == pytest.approx(2.0 * math.exp(2.0 * lam), rel=1e-12)
        assert fine < coarse


class TestDenseOperator:
    def test_matrix_shape_checked(self):
        with pytest.raises(ValueError):
            DenseOperator((0, 1), (2, 2), np.eye(3))

    def test_dimension_is_the_exact_product(self):
        # 2^32 * 2^32 is 0 in int64 arithmetic; the volume's dimension is 2^64
        with pytest.raises(ValueError, match="does not match volume dimension"):
            DenseOperator((0, 1), (2**32, 2**32), np.zeros((0, 0)))

    def test_numpy_integer_dimensions_multiply_exactly(self):
        # np.int64 would overflow to 0 in the product: each dim is taken as a Python int
        big = np.int64(2**32)
        with pytest.raises(ValueError, match="does not match volume dimension"):
            DenseOperator((0, 1), (big, big), np.zeros((0, 0)))
        op = DenseOperator((0,), (np.int64(2),), np.eye(2))
        assert type(op.dims[0]) is int and op.dims == (2,)

    def test_non_integer_dimension_refused(self):
        with pytest.raises(TypeError):
            DenseOperator((0,), (2.0,), np.eye(2))

    @pytest.mark.parametrize("sites, dims, match", [
        ((0, 1), (2,), "equal length"),
        ((0, 0), (2, 2), "duplicate site"),
    ], ids=["unequal-lengths", "duplicate-site"])
    def test_malformed_volume_refused(self, sites, dims, match):
        with pytest.raises(ValueError, match=match):
            DenseOperator(sites, dims, np.eye(4))

    def test_volume_ordering_enforced(self):
        with pytest.raises(ValueError):
            DenseOperator((1, 0), (2, 2), np.eye(4))
