"""Dense complex matrix/tensor kernels: products, unfoldings, SVD helpers.

Index conventions (all 1-based in the formulas, 0-based in code):

* ``vec`` stacks columns: ``vec(M)[(j-1)*rows + i] = M[i, j]``.
* ``kron(a, b)`` of column vectors puts ``a[i]*b[k]`` at ``(i-1)*len(b) + k``.
* Mode-n unfolding of a third-order tensor ``T`` with dims ``(I1, I2, I3)``
  maps entry ``(i1, i2, i3)`` to

  - mode 1: row ``i1``, column ``(i3-1)*I2 + i2``
  - mode 2: row ``i2``, column ``(i3-1)*I1 + i1``
  - mode 3: row ``i3``, column ``(i2-1)*I1 + i1``

  With this ordering a Tucker-3 product ``G x1 A x2 B x3 C`` unfolds as
  ``A [G]_(1) (C kron B)^T``, ``B [G]_(2) (C kron A)^T`` and
  ``C [G]_(3) (B kron A)^T``.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import _umath_linalg


#: singular values at or below this fraction of the largest count as zero
_RCOND = 1e-12


def kronecker(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two vectors, or of two matrices.

    A broadcast outer product: bit-identical to ``np.kron`` on these inputs,
    without its per-call dimension bookkeeping.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim == b.ndim == 1:
        return (a[:, None] * b[None, :]).reshape(-1)
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]
    )


def khatri_rao(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Column-wise Kronecker product of two matrices with equal column count.

    Column r of the result is ``kron(a[:, r], b[:, r])``; the output has
    shape ``(a.rows * b.rows, R)``.
    """
    a = np.atleast_2d(np.asarray(a))
    b = np.atleast_2d(np.asarray(b))
    if a.shape[1] != b.shape[1]:
        raise ValueError(
            f"khatri_rao needs equal column counts, got {a.shape[1]} and {b.shape[1]}"
        )
    return (a[:, None, :] * b[None, :, :]).reshape(a.shape[0] * b.shape[0], a.shape[1])


def unfold(tensor: np.ndarray, mode: int) -> np.ndarray:
    """Mode-n unfolding of a third-order tensor, ``mode`` in {1, 2, 3}."""
    tensor = np.asarray(tensor)
    if tensor.ndim != 3:
        raise ValueError(f"expected a third-order tensor, got ndim={tensor.ndim}")
    if mode not in (1, 2, 3):
        raise ValueError(f"mode must be 1, 2 or 3, got {mode}")
    return np.reshape(
        np.moveaxis(tensor, mode - 1, 0), (tensor.shape[mode - 1], -1), order="F"
    )


def fold(matrix: np.ndarray, mode: int, dims: tuple[int, int, int]) -> np.ndarray:
    """Inverse of :func:`unfold`: rebuild the tensor of shape ``dims``."""
    matrix = np.asarray(matrix)
    if mode not in (1, 2, 3):
        raise ValueError(f"mode must be 1, 2 or 3, got {mode}")
    rest = tuple(d for i, d in enumerate(dims) if i != mode - 1)
    expected = (dims[mode - 1], int(np.prod(rest)))
    if matrix.shape != expected:
        raise ValueError(
            f"mode-{mode} unfolding of dims {dims} has shape {expected}, got {matrix.shape}"
        )
    return np.moveaxis(
        np.reshape(matrix, (dims[mode - 1],) + rest, order="F"), 0, mode - 1
    )


def mode_product(tensor: np.ndarray, matrix: np.ndarray, mode: int) -> np.ndarray:
    """n-mode product: multiply ``matrix`` onto the mode-``mode`` fibers."""
    tensor = np.asarray(tensor)
    matrix = np.asarray(matrix)
    if matrix.shape[1] != tensor.shape[mode - 1]:
        raise ValueError(
            f"mode-{mode} product needs matrix with {tensor.shape[mode - 1]} columns, "
            f"got {matrix.shape}"
        )
    dims = list(tensor.shape)
    dims[mode - 1] = matrix.shape[0]
    return fold(matrix @ unfold(tensor, mode), mode, tuple(dims))


def pseudoinverse(matrix: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD.

    Singular values at or below ``1e-12 * sigma_max`` are truncated, so
    rank-deficient inputs yield the minimum-norm solution when used in
    least-squares solves.
    """
    return np.linalg.pinv(np.asarray(matrix), rcond=_RCOND)


def _frobenius_norms(stack: np.ndarray) -> np.ndarray:
    """``||A||_F`` of each matrix in a ``(..., m, n)`` stack, shaped ``(..., 1, 1)``:
    one ``(1, mn) @ (mn, 1)`` product per matrix, so a matrix's norm is the
    same alone or in a stack."""
    batch = stack.shape[:-2]
    return np.sqrt((stack.reshape(batch + (1, -1)).conj() @ stack.reshape(batch + (-1, 1))).real)


def certified(matrices: np.ndarray) -> bool:
    """Whether a shifted Cholesky factorization proves that no singular value
    of a square matrix, or of any matrix in a stack of them, lies at or below
    the ``1e-12`` cutoff.

    With ``s = ||A||_F`` and ``e = ||A - A^H||_F``,
    ``cholesky(A - (1e-10 s + e) I)`` reads only the lower triangle, and
    succeeds only when the Hermitian matrix that triangle defines has every
    eigenvalue above ``1e-10 s + e``.  That matrix differs from ``A`` by at
    most ``e`` in norm, so by Weyl's inequality
    ``sigma_min(A) > 1e-10 s >= 1e-10 sigma_max(A)``: the pseudoinverse is
    the inverse; the factor ``1e-2`` between the two thresholds absorbs the
    rounding in the factorization.  A stack ``(..., n, n)`` is factored in
    one call, each matrix with its own shift, and passes only if every
    matrix does; an empty stack has no matrix to fail, and passes.  A
    non-finite matrix never passes, and neither does one whose norm
    overflows; neither emits a floating-point warning.
    """
    if not matrices.size:
        return True
    with np.errstate(invalid="ignore", over="ignore"):
        skew = matrices - matrices.swapaxes(-1, -2).conj()
        shift = 1e-10 * _frobenius_norms(matrices) + _frobenius_norms(skew)
    if not np.isfinite(shift).all():
        return False
    # A - shift I, written on the diagonal of a copy: building and scaling
    # an identity for it took about 3% of an N = 3 x 3 trial
    shifted = matrices.astype(np.result_type(matrices, np.float64), order="C")
    shifted.reshape(shifted.shape[:-2] + (-1,))[..., :: matrices.shape[-1] + 1] -= shift[..., 0]
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def lu_solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """LU solution of the square complex ``matrix @ x = rhs``, ``rhs`` a
    vector or a matrix: numpy's own LAPACK gufunc, the one
    ``np.linalg.solve`` wraps, called without the wrapper's checks,
    promotions and ``errstate`` set-up, which cost a 4 x 4 solve about
    three times its LAPACK call.  The answer is the wrapper's bitwise.
    The inputs must be 2-D ``matrix`` and 1-D or 2-D ``rhs``, of matching
    sizes.  A singular matrix raises the ``invalid`` floating-point
    condition, not ``LinAlgError``: a ``FloatingPointError`` under
    ``np.errstate(invalid="raise")``, which is how stage 1's deferred
    pass calls it.
    """
    gufunc = _umath_linalg.solve1 if rhs.ndim == 1 else _umath_linalg.solve
    return gufunc(matrix, rhs, signature="DD->D")


def least_squares(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solution of ``matrix @ x = rhs``.

    Equals ``pseudoinverse(matrix) @ rhs`` (the same ``1e-12`` cutoff on
    the singular values) without forming the pseudoinverse; ``rhs`` is a
    vector or a matrix.  A square matrix is checked here, once per call, by
    the shifted Cholesky certificate of :func:`certified`; when it passes,
    an LU solve returns the answer.  Otherwise (a non-square,
    non-Hermitian, singular or nearly singular matrix) the SVD-based
    ``lstsq`` returns the truncated minimum-norm solution, so a failed
    certificate costs one Cholesky attempt.  Stage 1 of the ALS fit solves
    its systems by LU directly and certifies their Grams in stacks
    afterwards (see :func:`~ristensor.estimation.als_stage1`); its core
    solves come here where two core Grams do not fit in one stack
    (``N >= 9``), and every solve does when a stacked check fails.  A
    non-finite matrix raises ``LinAlgError`` as
    ``pseudoinverse`` does; ``lstsq`` itself can fail to return on one (a
    NaN on the diagonal of an identity does that).
    """
    matrix = np.asarray(matrix)
    rhs = np.asarray(rhs)
    n_rows, n_cols = matrix.shape
    if n_rows == n_cols and certified(matrix):
        return np.linalg.solve(matrix, rhs)
    if not np.all(np.isfinite(matrix)):
        raise np.linalg.LinAlgError("least_squares: the matrix has non-finite entries")
    return np.linalg.lstsq(matrix, rhs, rcond=_RCOND)[0]


def dominant_rank1(matrix: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
    """Leading SVD triple ``(u, sigma, v)`` of a nonzero matrix.

    ``sigma * outer(u, v.conj())`` is the best rank-1 approximant in the
    Frobenius sense.
    """
    matrix = np.asarray(matrix)
    if not np.any(matrix):
        raise ValueError("dominant_rank1: input matrix is identically zero")
    u, s, vh = np.linalg.svd(matrix, full_matrices=False)
    return u[:, 0], float(s[0]), vh[0].conj()


def vec(matrix: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(matrix).reshape(-1, order="F")


def unvec(vector: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Inverse of :func:`vec`."""
    vector = np.asarray(vector)
    if vector.size != rows * cols:
        raise ValueError(f"cannot unvec length {vector.size} into {rows}x{cols}")
    return vector.reshape((rows, cols), order="F")
