"""Tensor-kernel tests: every derived expectation is checked against an
independent brute-force oracle."""

import numpy as np
import pytest

from ristensor.tensorops import (
    dominant_rank1,
    fold,
    khatri_rao,
    kronecker,
    mode_product,
    pseudoinverse,
    unfold,
    unvec,
    vec,
)
from conftest import crandn


def kron_oracle(a, b):
    """Quadruple-loop Kronecker product straight from the definition."""
    ia, ja = a.shape
    ib, jb = b.shape
    out = np.zeros((ia * ib, ja * jb), dtype=complex)
    for i in range(ia):
        for j in range(ja):
            for k in range(ib):
                for l in range(jb):
                    out[i * ib + k, j * jb + l] = a[i, j] * b[k, l]
    return out


def unfold_oracle(tensor, mode):
    """Entry-by-entry unfolding from the index contract."""
    i1, i2, i3 = tensor.shape
    if mode == 1:
        out = np.zeros((i1, i2 * i3), dtype=tensor.dtype)
        for a in range(i1):
            for b in range(i2):
                for c in range(i3):
                    out[a, c * i2 + b] = tensor[a, b, c]
    elif mode == 2:
        out = np.zeros((i2, i1 * i3), dtype=tensor.dtype)
        for a in range(i1):
            for b in range(i2):
                for c in range(i3):
                    out[b, c * i1 + a] = tensor[a, b, c]
    else:
        out = np.zeros((i3, i1 * i2), dtype=tensor.dtype)
        for a in range(i1):
            for b in range(i2):
                for c in range(i3):
                    out[c, b * i1 + a] = tensor[a, b, c]
    return out


class TestKronecker:
    def test_identity(self):
        assert np.array_equal(kronecker(np.eye(2), np.eye(2)), np.eye(4))

    def test_steering_expansion(self):
        mu, psi = 0.8, -1.7
        a = np.array([1.0, np.exp(-1j * mu)])
        b = np.array([1.0, np.exp(-1j * psi)])
        expected = np.array(
            [1.0, np.exp(-1j * psi), np.exp(-1j * mu), np.exp(-1j * (mu + psi))]
        )
        assert np.allclose(kronecker(a, b), expected, atol=1e-15)

    def test_against_loop_oracle(self, rng):
        a = crandn(rng, 2, 3)
        b = crandn(rng, 3, 2)
        got = kronecker(a, b)
        ref = kron_oracle(a, b)
        assert np.linalg.norm(got - ref) < 1e-14 * np.linalg.norm(ref)


class TestKhatriRao:
    def test_single_column_reduces_to_kron(self, rng):
        a = crandn(rng, 3, 1)
        b = crandn(rng, 4, 1)
        assert np.allclose(khatri_rao(a, b), kronecker(a, b), atol=1e-15)

    def test_dft_self_product(self):
        w = np.array([[1, 1], [1, -1]], dtype=complex)
        got = khatri_rao(w, w)
        for k in range(2):
            assert np.allclose(got[:, k], np.kron(w[:, k], w[:, k]), atol=1e-15)

    def test_column_oracle(self, rng):
        a = crandn(rng, 3, 4)
        b = crandn(rng, 5, 4)
        got = khatri_rao(a, b)
        assert got.shape == (15, 4)
        for r in range(4):
            assert np.allclose(got[:, r], np.kron(a[:, r], b[:, r]), atol=1e-14)

    def test_column_mismatch(self, rng):
        with pytest.raises(ValueError):
            khatri_rao(crandn(rng, 3, 4), crandn(rng, 3, 5))


class TestUnfoldFold:
    def test_counting_tensor_against_index_oracle(self):
        t = np.arange(1.0, 9.0).reshape(2, 2, 2)
        for mode in (1, 2, 3):
            assert np.array_equal(unfold(t, mode), unfold_oracle(t, mode))

    def test_random_against_index_oracle(self, rng):
        t = crandn(rng, 3, 4, 5)
        for mode in (1, 2, 3):
            assert np.array_equal(unfold(t, mode), unfold_oracle(t, mode))

    def test_rank1_mode3_structure(self, rng):
        a, b, c = crandn(rng, 3), crandn(rng, 4), crandn(rng, 5)
        t = np.einsum("i,j,k->ijk", a, b, c)
        ref = np.outer(c, np.kron(b, a))
        assert np.linalg.norm(unfold(t, 3) - ref) < 1e-14 * np.linalg.norm(ref)

    def test_roundtrip(self, rng):
        t = crandn(rng, 3, 4, 5)
        for mode in (1, 2, 3):
            assert np.array_equal(fold(unfold(t, mode), mode, t.shape), t)

    def test_exhaustive_small_dims(self, rng):
        # every dimension tuple up to 4x4x4 plus a sample of larger ones to 8
        dims_list = [(a, b, c) for a in range(1, 5) for b in range(1, 5) for c in range(1, 5)]
        dims_list += [(8, 8, 8), (1, 8, 3), (8, 1, 5), (5, 7, 8), (2, 8, 8)]
        for dims in dims_list:
            t = crandn(rng, *dims)
            for mode in (1, 2, 3):
                assert np.array_equal(fold(unfold(t, mode), mode, dims), t)

    def test_fold_zero(self):
        z = fold(np.zeros((3, 8)), 2, (4, 3, 2))
        assert z.shape == (4, 3, 2) and not z.any()

    def test_fold_index_contract(self):
        # counting matrix folded along mode 2, checked entry by entry
        dims = (2, 3, 2)
        mat = np.arange(12.0).reshape(3, 4)
        t = fold(mat, 2, dims)
        for a in range(2):
            for b in range(3):
                for c in range(2):
                    assert t[a, b, c] == mat[b, c * 2 + a]

    def test_invalid_mode(self, rng):
        t = crandn(rng, 2, 2, 2)
        with pytest.raises(ValueError):
            unfold(t, 4)
        with pytest.raises(ValueError):
            fold(unfold(t, 1), 0, (2, 2, 2))

    def test_fold_shape_mismatch(self):
        with pytest.raises(ValueError):
            fold(np.zeros((3, 7)), 2, (4, 3, 2))


class TestModeProduct:
    def test_identity(self, rng):
        t = crandn(rng, 2, 3, 4)
        assert np.allclose(mode_product(t, np.eye(3), 2), t, atol=1e-15)

    def test_composition(self, rng):
        t = crandn(rng, 3, 4, 2)
        a = crandn(rng, 5, 3)
        b = crandn(rng, 6, 5)
        lhs = mode_product(mode_product(t, a, 1), b, 1)
        rhs = mode_product(t, b @ a, 1)
        assert np.linalg.norm(lhs - rhs) < 1e-13 * np.linalg.norm(rhs)

    def test_tucker_assembly_matches_unfolding_formula(self, rng):
        # diagonal-core Tucker product vs the three unfolding expressions
        n, l, mq, k = 3, 4, 5, 11
        h = crandn(rng, l, n)
        f = crandn(rng, mq, n)
        w = np.exp(2j * np.pi * rng.random((n, k)))
        wkr_t = khatri_rao(w, w).T
        core_vec = crandn(rng, n * n)
        core = fold(np.diag(core_vec), 3, (n, n, n * n))
        tensor = mode_product(mode_product(mode_product(core, h, 1), f, 2), wkr_t, 3)
        y1 = h @ unfold(core, 1) @ kronecker(wkr_t, f).T
        y2 = f @ unfold(core, 2) @ kronecker(wkr_t, h).T
        y3 = wkr_t @ np.diag(core_vec) @ kronecker(f, h).T
        for mode, ref in ((1, y1), (2, y2), (3, y3)):
            got = unfold(tensor, mode)
            assert np.linalg.norm(got - ref) < 1e-12 * np.linalg.norm(ref)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            mode_product(crandn(rng, 2, 3, 4), crandn(rng, 5, 99), 2)


class TestPseudoinverse:
    def test_identity(self):
        assert np.allclose(pseudoinverse(np.eye(3)), np.eye(3), atol=1e-14)

    def test_rank_deficient_diagonal(self):
        got = pseudoinverse(np.diag([2.0, 0.0]))
        assert np.allclose(got, np.diag([0.5, 0.0]), atol=1e-14)

    def test_projection_property(self, rng):
        a = crandn(rng, 8, 3)
        pinv = pseudoinverse(a)
        assert np.linalg.norm(a @ pinv @ a - a) < 1e-12 * np.linalg.norm(a)

    def test_four_penrose_conditions(self, rng):
        for shape in [(6, 4), (4, 6), (5, 5)]:
            a = crandn(rng, *shape)
            x = pseudoinverse(a)
            assert np.linalg.norm(a @ x @ a - a) < 1e-10 * np.linalg.norm(a)
            assert np.linalg.norm(x @ a @ x - x) < 1e-10 * np.linalg.norm(x)
            assert np.linalg.norm((a @ x).conj().T - a @ x) < 1e-10
            assert np.linalg.norm((x @ a).conj().T - x @ a) < 1e-10


class TestSvdHelpers:
    def test_dominant_rank1_recovers_dyad_direction(self, rng):
        p = np.exp(-1j * 0.9 * np.arange(5))
        u, sigma, v = dominant_rank1(np.outer(p, p))
        assert abs(abs(np.vdot(u, p)) - np.linalg.norm(p)) < 1e-10

    def test_dominant_rank1_sigma_of_outer_product(self, rng):
        a, b = crandn(rng, 4), crandn(rng, 6)
        _, sigma, _ = dominant_rank1(np.outer(a, b))
        assert abs(sigma - np.linalg.norm(a) * np.linalg.norm(b)) < 1e-12

    def test_dominant_rank1_diagonal(self):
        _, sigma, _ = dominant_rank1(np.diag([3.0, 1.0]))
        assert abs(sigma - 3.0) < 1e-14

    def test_dominant_rank1_rejects_zero(self):
        with pytest.raises(ValueError):
            dominant_rank1(np.zeros((3, 3)))


class TestVecUnvec:
    def test_vec_abc_identity(self, rng):
        for _ in range(20):
            a, b, c = crandn(rng, 2, 3), crandn(rng, 3, 2), crandn(rng, 2, 4)
            lhs = vec(a @ b @ c)
            rhs = kronecker(c.T, a) @ vec(b)
            assert np.linalg.norm(lhs - rhs) < 1e-13 * np.linalg.norm(lhs)

    def test_vec_diag_identity(self, rng):
        for _ in range(100):
            a, d, c = crandn(rng, 3, 4), crandn(rng, 4), crandn(rng, 4, 5)
            lhs = vec(a @ np.diag(d) @ c)
            rhs = khatri_rao(c.T, a) @ d
            assert np.linalg.norm(lhs - rhs) < 1e-13 * np.linalg.norm(lhs)

    def test_row_khatri_rao_identity(self, rng):
        for _ in range(100):
            a = crandn(rng, 4)
            b = crandn(rng, 5, 4)
            lhs = khatri_rao(a[None, :], b)
            rhs = b @ np.diag(a)
            assert np.linalg.norm(lhs - rhs) < 1e-13 * np.linalg.norm(rhs)

    def test_unvec_roundtrip(self, rng):
        m = crandn(rng, 4, 6)
        assert np.array_equal(unvec(vec(m), 4, 6), m)

    def test_unvec_length_check(self):
        with pytest.raises(ValueError):
            unvec(np.zeros(7), 2, 3)

    def test_vec_column_stacking_contract(self):
        m = np.array([[1.0, 3.0], [2.0, 4.0]])
        assert np.array_equal(vec(m), np.array([1.0, 2.0, 3.0, 4.0]))
