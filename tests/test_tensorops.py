"""Tensor-kernel tests: every derived expectation is checked against an
independent brute-force oracle."""

import numpy as np
import pytest

from ristensor.tensorops import (
    dominant_rank1,
    fold,
    khatri_rao,
    kronecker,
    _frobenius_norms,
    certified,
    least_squares,
    lu_solve,
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


    @pytest.mark.parametrize("shape_a,shape_b", [
        ((4,), (3,)), ((3, 4), (2, 5)), ((5, 1), (3, 1)), ((1, 6), (4, 2)),
    ])
    def test_bit_identical_to_np_kron(self, rng, shape_a, shape_b):
        a = crandn(rng, *shape_a)
        b = crandn(rng, *shape_b)
        assert np.array_equal(kronecker(a, b), np.kron(a, b))


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


class TestLuSolve:
    """``lu_solve`` calls numpy's private LAPACK gufunc directly; a numpy
    release that moves or changes it must fail here, not change a fit."""

    @pytest.mark.parametrize("n", [4, 9, 16, 81])
    @pytest.mark.parametrize("columns", [None, 1, 3])
    def test_matches_numpy_solve_bitwise(self, rng, n, columns):
        a = crandn(rng, n, n)
        b = crandn(rng, n) if columns is None else crandn(rng, n, columns)
        x = lu_solve(a, b)
        assert x.shape == b.shape and x.dtype == np.complex128
        assert np.array_equal(x, np.linalg.solve(a, b))

    @pytest.mark.parametrize("columns", [None, 2])
    def test_singular_matrix_raises_floating_point_error(self, rng, columns):
        # an exact zero pivot: numpy's wrapper turns the invalid flag into
        # LinAlgError, the bare gufunc leaves it to np.errstate
        a = np.diag([2.0, 1.0, 0.0, 0.5]).astype(complex)
        b = crandn(rng, 4) if columns is None else crandn(rng, 4, columns)
        with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
            lu_solve(a, b)


class TestLeastSquares:
    def test_matches_pseudoinverse(self, rng):
        for shape in [(12, 5), (7, 7)]:
            a = crandn(rng, *shape)
            b = crandn(rng, shape[0])
            ref = pseudoinverse(a) @ b
            assert np.linalg.norm(least_squares(a, b) - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_minimum_norm_on_rank_deficient(self, rng):
        # rank 3 of 5 columns: every solution differs by a null-space vector
        a = crandn(rng, 10, 3) @ crandn(rng, 3, 5)
        b = crandn(rng, 10)
        x = least_squares(a, b)
        ref = pseudoinverse(a) @ b
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
        null = np.linalg.svd(a)[2][3:].conj().T
        assert np.linalg.norm(null.conj().T @ x) <= 1e-12 * np.linalg.norm(x)
        assert np.linalg.norm(a.conj().T @ (a @ x - b)) <= 1e-10 * np.linalg.norm(a) * np.linalg.norm(b)

    def test_square_matrix_rhs_matches_pseudoinverse(self, rng):
        a = crandn(rng, 6, 6)
        b = crandn(rng, 6, 3)
        ref = pseudoinverse(a) @ b
        x = least_squares(a, b)
        assert x.shape == (6, 3)
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_square_matrix_below_cutoff_is_truncated(self, rng):
        # one singular value under the 1e-12 cutoff: an inverse would blow
        # the solution up along v[:, -1] by 1e13; the pseudoinverse drops it
        u = np.linalg.qr(crandn(rng, 4, 4))[0]
        v = np.linalg.qr(crandn(rng, 4, 4))[0]
        a = (u * np.array([1.0, 0.7, 0.4, 1e-13])) @ v.conj().T
        b = crandn(rng, 4)
        x = least_squares(a, b)
        ref = v[:, :3] @ ((u[:, :3].conj().T @ b) / np.array([1.0, 0.7, 0.4]))
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
        assert abs(np.vdot(v[:, 3], x)) <= 1e-12 * np.linalg.norm(x)

    @pytest.mark.parametrize("kind", ["gram", "zero_pivot"])
    def test_singular_hermitian_psd_gives_minimum_norm(self, rng, kind):
        if kind == "gram":  # rank 3 of 5, singular in exact arithmetic
            f = crandn(rng, 5, 3)
            a = f @ f.conj().T
        else:  # an exact zero pivot makes the LU solve itself fail
            a = np.diag([2.0, 1.0, 0.0, 0.5]).astype(complex)
        b = crandn(rng, a.shape[0])
        x = least_squares(a, b)
        ref = pseudoinverse(a) @ b
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
        rank = np.linalg.matrix_rank(a)
        null = np.linalg.svd(a)[2][rank:].conj().T
        assert np.linalg.norm(null.conj().T @ x) <= 1e-12 * np.linalg.norm(x)

    @pytest.mark.parametrize("n", [4, 16, 81])
    def test_gram_with_rounding_skew_takes_cholesky_path(self, rng, n, monkeypatch):
        # a Gram formed by products in another order is Hermitian only up to
        # rounding; the certificate absorbs that skew and no SVD solve runs
        x = crandn(rng, n, 2 * n)
        a = x @ x.conj().T
        a = a + 1e-16 * np.linalg.norm(a) / n * crandn(rng, n, n)
        assert 0 < np.linalg.norm(a - a.conj().T) <= 1e-14 * np.linalg.norm(a)
        b = crandn(rng, n, 3)
        ref = np.linalg.solve(a, b)

        def no_lstsq(*args, **kwargs):
            raise AssertionError("lstsq called on a certified Gram")

        monkeypatch.setattr(np.linalg, "lstsq", no_lstsq)
        assert np.array_equal(least_squares(a, b), ref)
        assert np.array_equal(least_squares(a, b[:, 0]), np.linalg.solve(a, b[:, 0]))

    def test_singular_matrix_with_hermitian_pd_lower_triangle(self, rng):
        # the lower triangle (the only part Cholesky reads) is that of a
        # well-conditioned Hermitian positive definite matrix, but the upper
        # triangle makes the last column a combination of the others
        n = 5
        x = crandn(rng, n, 2 * n)
        herm = x @ x.conj().T / (2 * n) + np.eye(n)
        a = np.tril(herm)
        c = crandn(rng, n - 1)
        c *= herm[n - 1, n - 1] / (a[n - 1, : n - 1] @ c)
        a[: n - 1, n - 1] = a[: n - 1, : n - 1] @ c
        assert np.linalg.matrix_rank(a) == n - 1
        b = crandn(rng, n)
        x = least_squares(a, b)
        ref = pseudoinverse(a) @ b
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_hermitian_gram_below_cutoff_is_truncated(self, rng):
        # a Hermitian positive semidefinite Gram with one eigenvalue at
        # 1e-13 * lambda_max: the certificate must refuse it
        u = np.linalg.qr(crandn(rng, 4, 4))[0]
        lam = np.array([1.0, 0.7, 0.4, 1e-13])
        a = (u * lam) @ u.conj().T
        a = (a + a.conj().T) / 2
        b = crandn(rng, 4)
        x = least_squares(a, b)
        ref = u[:, :3] @ ((u[:, :3].conj().T @ b) / lam[:3])
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
        assert abs(np.vdot(u[:, 3], x)) <= 1e-12 * np.linalg.norm(x)

    @pytest.mark.parametrize("shape", [(3, 3), (5, 3)])
    def test_non_finite_matrix_raises(self, shape):
        # a NaN on the diagonal of an identity is an input on which LAPACK's
        # least-squares routine does not return
        a = np.eye(*shape, dtype=complex)
        a[1, 1] = np.nan
        with pytest.raises(np.linalg.LinAlgError):
            least_squares(a, np.ones(shape[0]))

    def test_infinite_entry_raises_without_a_warning(self):
        # A - A^H meets inf - inf; pytest turns an escaped numpy warning into an error
        with pytest.raises(np.linalg.LinAlgError):
            least_squares(np.diag([1.0, np.inf]).astype(complex), np.ones(2))

    def test_overflowing_norm_falls_back_to_lstsq(self):
        # ||A||_F overflows, so the certificate fails and lstsq answers
        x = least_squares(1e200 * np.eye(2, dtype=complex), np.ones(2))
        assert np.array_equal(x, np.full(2, 1e-200))


class TestCertified:
    @staticmethod
    def grams(rng, n, count):
        x = crandn(rng, count, n, 2 * n)
        return x @ x.conj().transpose(0, 2, 1)

    def test_stack_passes_only_if_every_matrix_does(self, rng):
        good = self.grams(rng, 4, 3)
        u = np.linalg.qr(crandn(rng, 4, 4))[0]
        bad = (u * np.array([1.0, 0.7, 0.4, 1e-13])) @ u.conj().T
        assert certified(good) and all(certified(a) for a in good)
        assert not certified(bad)
        assert not certified(np.concatenate([good, bad[None]]))

    def test_each_matrix_has_its_own_shift(self, rng):
        # a shift shared across the stack would follow the largest norm and
        # fail the small, well-conditioned matrix
        stack = self.grams(rng, 5, 2) * np.array([1.0, 1e14])[:, None, None]
        assert certified(stack)

    def test_a_matrix_has_the_same_shift_alone_as_in_a_stack(self, rng):
        # one arithmetic for both: a stacked check passes a matrix exactly
        # when least_squares' single check does
        for n, count in ((3, 5), (4, 400), (9, 37)):
            stack = self.grams(rng, n, count)
            stack[0] = stack[0] - 1e-3 * stack[0].T  # not Hermitian: a nonzero skew part
            norms = _frobenius_norms(stack)
            assert norms.shape == (count, 1, 1)
            for i in range(count):
                assert np.array_equal(_frobenius_norms(stack[i]), norms[i])

    def test_any_layout_or_real_dtype(self, rng):
        # the shift is written on the diagonal of a C-ordered floating copy
        good = self.grams(rng, 4, 1)[0]
        u = np.linalg.qr(crandn(rng, 4, 4))[0]
        bad = (u * np.array([1.0, 0.7, 0.4, 1e-13])) @ u.conj().T
        assert certified(np.asfortranarray(good)) and not certified(np.asfortranarray(bad))
        assert certified(np.stack([good, good]).transpose(0, 2, 1))
        assert certified(2 * np.eye(3, dtype=int)) and not certified(np.zeros((3, 3), dtype=int))

    def test_empty_stack_passes(self):
        # no matrix in it can fail; stage 1's final core check gets one at N=9
        for n in (1, 4, 81):
            assert certified(np.empty((0, n, n), dtype=complex))
        assert certified(np.empty((0, 3, 3)))

    def test_non_finite_matrix_never_passes(self, rng):
        stack = self.grams(rng, 3, 2)
        stack[1, 0, 0] = np.nan
        assert not certified(stack) and not certified(stack[1])
        stack[1, 0, 0] = np.inf
        assert not certified(stack) and not certified(stack[1])
        assert not certified(1e200 * self.grams(rng, 3, 1))


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
