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


def kronecker(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices (or vectors)."""
    return np.kron(a, b)


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
    return np.linalg.pinv(np.asarray(matrix), rcond=1e-12)


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
