"""Truncated SVD of a matrix or a stack of matrices, with a reproducible sign
convention; the decomposition runs one call per level over all branches.

:func:`truncated_svd` keeps only the top ``r_hat`` singular triplets of each
matrix in the stack.  Below full rank it never builds the discarded ones: it
takes the eigenvectors of the smaller Gram matrix (``M M^T`` or ``M^T M``), a
small symmetric eigenproblem plus matrix products instead of a full SVD.
Forming the Gram matrix squares the condition number, so singular values
below about ``1e-8 * sigma_1`` are lost to rounding and their vectors are not
accurate.  The discarded tail is therefore measured as the residual of the
returned factors, never as ``||M||^2 - sum(sigma^2)``, which cancels.  At
full rank nothing is discarded; the full SVD runs and the tail is exactly
``0.0``.  Every step runs on the whole stack, and each matrix of a stack gets
the same bits as a call on that matrix alone.
"""

import numpy as np

from sekron.errors import RankError, ShapeError, SvdConvergenceError
from sekron.tensor_core import _as_int, _floats

# elements per matrix in one row block of the residual: 2**17 float64, 1 MB
_RESIDUAL_BLOCK = 2**17


def _normalize_signs(u: np.ndarray, v: np.ndarray | None = None):
    """Flip every column of ``u`` whose largest-magnitude entry (the first
    one, on ties) is negative, and the same columns of ``v``.

    Works on stacks ``(..., rows, r)``; returns the flipped ``(u, v)``.
    """
    pivot = np.argmax(np.abs(u), axis=-2)[..., None, :]
    sign = np.where(np.take_along_axis(u, pivot, axis=-2) < 0, -1.0, 1.0)
    return u * sign, None if v is None else v * sign


def _rescaled(m: np.ndarray, r_hat: int, finite: np.ndarray):
    """:func:`truncated_svd` of a stack in which the Gram matrix of some
    matrices overflows: each such matrix is divided by its largest
    magnitude, the stack is truncated again, and the right factors and
    tails are scaled back.  Matrices whose Gram matrix is finite are divided
    by 1.0, so they keep their bits.  A tail too large for a float64, the
    square of entries near ``1e154`` or more, reads ``inf``.
    """
    scale = np.where(finite, 1.0, np.abs(m).max(axis=(-2, -1)))
    u_r, scaled_v_r, tails = truncated_svd(m / scale[..., None, None], r_hat)
    with np.errstate(over="ignore"):
        return u_r, scaled_v_r * scale[..., None, None], tails * scale * scale


def truncated_svd(m, r_hat: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank-``r_hat`` truncation of each matrix of a stack ``(..., rows,
    cols)`` and its squared residual.

    Returns ``(u_r, scaled_v_r, tails)`` with shapes ``(..., rows, r_hat)``,
    ``(..., cols, r_hat)`` and ``m.shape[:-2]`` (0-d for a single matrix):
    the top ``r_hat`` left singular vectors, orthonormal and sign-normalized
    so the largest-magnitude entry of each is positive (which makes factor
    files byte-reproducible), right factors ``M^T @ u_r`` (the sigma-scaled
    right vectors), and ``tails = ||M - u_r @ scaled_v_r^T||^2``.  ``u_r @
    scaled_v_r^T`` is the optimal (Eckart-Young) rank-``r_hat``
    approximation of ``M``.

    Below full rank (``r_hat < min(rows, cols)``) the left vectors come from
    the Gram matrix, as described in the module docstring: exact to rounding
    for singular values above about ``1e-8 * sigma_1``, and an orthonormal
    basis, with ``tails`` the true residual, for any input.  The residual is
    never built whole: it is formed one block of rows at a time, about
    ``2**17`` elements (1 MB) of each matrix, and each block's squared norm
    (one BLAS dot per matrix) is added into ``tails``, so the extra memory is
    one block per matrix of the stack.  At full rank the full SVD runs and
    every tail is exactly ``0.0``.  A matrix whose Gram matrix overflows,
    one with entries near ``1e154`` or more, is truncated over its largest
    magnitude and scaled back (:func:`_rescaled`); only such stacks pay for
    the second pass.  Non-convergence of the underlying LAPACK
    driver is reported as :class:`SvdConvergenceError`.

    ``r_hat`` is read as a Python int (:func:`sekron.tensor_core._as_int`):
    a float, a string or a bool, which would read as 0 or 1, raises
    :class:`RankError`, as does a rank outside ``[1, min(rows, cols)]``.
    An ``m`` that is not real numbers (:func:`sekron.tensor_core._floats`) or
    has fewer than two axes raises :class:`ShapeError`, and one holding NaN
    or an infinity ``ValueError``.
    """
    m = _floats(m)
    if m.ndim < 2:
        raise ShapeError(f"svd expects a matrix or a stack of them, got {m.ndim} axes")
    if not np.all(np.isfinite(m)):
        raise ValueError("svd input must be finite")
    rows, cols = m.shape[-2:]
    full = min(rows, cols)
    r_hat = _as_int(r_hat, "rank", RankError)
    if not 1 <= r_hat <= full:
        raise RankError(f"rank {r_hat} out of range [1, {full}]")
    m_t = np.swapaxes(m, -1, -2)
    try:
        if r_hat == full:
            u_r, s, vt = np.linalg.svd(m, full_matrices=False)
            u_r, v = _normalize_signs(u_r, np.swapaxes(vt, -1, -2))
            return u_r, v * s[..., None, :], np.zeros(m.shape[:-2])
        with np.errstate(over="ignore", invalid="ignore"):
            gram = m @ m_t if rows <= cols else m_t @ m
        finite = np.isfinite(gram).all(axis=(-2, -1))
        if not finite.all():
            return _rescaled(m, r_hat, finite)
        _, vecs = np.linalg.eigh(gram)
        if rows <= cols:
            u_r = np.ascontiguousarray(vecs[..., : -r_hat - 1 : -1])
        else:
            u_r, _ = np.linalg.qr(m @ vecs[..., : -r_hat - 1 : -1])
    except np.linalg.LinAlgError as exc:
        raise SvdConvergenceError(f"SVD did not converge: {exc}") from exc
    u_r, _ = _normalize_signs(u_r)
    scaled_v_r = m_t @ u_r
    v_t = np.swapaxes(scaled_v_r, -1, -2)
    tails = np.zeros(m.shape[:-2])
    step = max(1, _RESIDUAL_BLOCK // cols)
    for start in range(0, rows, step):
        block = u_r[..., start : start + step, :] @ v_t
        block -= m[..., start : start + step, :]
        # per matrix a (1, n) @ (n, 1) product: the BLAS dot, without a squared copy
        flat = block.reshape(block.shape[:-2] + (1, -1))
        tails += (flat @ np.swapaxes(flat, -1, -2))[..., 0, 0]
    return u_r, scaled_v_r, tails
