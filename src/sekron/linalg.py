"""Thin SVD with a reproducible sign convention, and the truncated SVD the
decomposition runs on.

:func:`truncated_svd` keeps only the top ``r_hat`` singular triplets.  Below
full rank it never builds the discarded ones: it takes the eigenvectors of
the smaller Gram matrix (``M M^T`` or ``M^T M``), a small symmetric
eigenproblem plus matrix products instead of a full SVD.  Forming the Gram
matrix squares the condition number, so singular values below about
``1e-8 * sigma_1`` are lost to rounding and their vectors are not accurate.
The discarded tail is therefore measured as the residual of the returned
factors, never as ``||M||^2 - sum(sigma^2)``, which cancels.  At full rank
nothing is discarded; the full SVD runs and the tail is exactly ``0.0``.
"""

from dataclasses import dataclass

import numpy as np

from sekron.errors import RankError, ShapeError, SvdConvergenceError


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD ``m = u @ diag(s) @ v.T`` with orthonormal u/v columns and
    ``s`` sorted non-increasing."""

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray

    @property
    def rank(self) -> int:
        return self.s.shape[0]


def _checked_matrix(m) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"svd expects a matrix, got {m.ndim} axes")
    if not np.all(np.isfinite(m)):
        raise ValueError("svd input must be finite")
    return m


def _normalize_signs(u: np.ndarray, v: np.ndarray | None = None) -> None:
    """Negate, in place, every column of ``u`` whose largest-magnitude entry
    (the first one, on ties) is negative, and the same columns of ``v``."""
    pivot = np.argmax(np.abs(u), axis=0)
    flip = u[pivot, np.arange(u.shape[1])] < 0
    u[:, flip] = -u[:, flip]
    if v is not None:
        v[:, flip] = -v[:, flip]


def svd(m) -> SvdResult:
    """Thin SVD of a 2-D array.

    Each singular pair is sign-normalized so the largest-magnitude entry of
    the left vector is positive, which makes factor files byte-reproducible
    across runs.  Non-convergence of the underlying LAPACK driver is reported
    as :class:`SvdConvergenceError`, never silently.
    """
    m = _checked_matrix(m)
    try:
        u, s, vt = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise SvdConvergenceError(f"SVD did not converge: {exc}") from exc
    v = vt.T
    _normalize_signs(u, v)
    return SvdResult(u=u, s=s, v=np.ascontiguousarray(v))


def truncated_svd(m, r_hat: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Rank-``r_hat`` truncation of a 2-D array and its squared residual.

    Returns ``(u_r, scaled_v_r, tail)``: the top ``r_hat`` left vectors of
    :func:`svd`, orthonormal and with the same sign rule, right factors
    ``m.T @ u_r`` (the sigma-scaled right vectors), and ``tail = ||m - u_r @
    scaled_v_r.T||^2``.  ``u_r @ scaled_v_r.T`` is the optimal
    (Eckart-Young) rank-``r_hat`` approximation of ``m``.

    Below full rank (``r_hat < min(m.shape)``) the left vectors come from
    the Gram matrix, as described in the module docstring: exact to rounding
    for singular values above about ``1e-8 * sigma_1``, and an orthonormal
    basis, with ``tail`` the true residual, for any input.  At full rank the
    full SVD runs and ``tail`` is exactly ``0.0``.
    """
    m = _checked_matrix(m)
    rows, cols = m.shape
    full = min(rows, cols)
    if not 1 <= r_hat <= full:
        raise RankError(f"rank {r_hat} out of range [1, {full}]")
    if r_hat == full:
        res = svd(m)
        return res.u, res.v * res.s, 0.0
    try:
        if rows <= cols:
            _, vecs = np.linalg.eigh(m @ m.T)
            u_r = np.ascontiguousarray(vecs[:, : -r_hat - 1 : -1])
        else:
            _, vecs = np.linalg.eigh(m.T @ m)
            u_r, _ = np.linalg.qr(m @ vecs[:, : -r_hat - 1 : -1])
    except np.linalg.LinAlgError as exc:
        raise SvdConvergenceError(f"SVD did not converge: {exc}") from exc
    _normalize_signs(u_r)
    scaled_v_r = m.T @ u_r
    residual = u_r @ scaled_v_r.T
    residual -= m
    return u_r, scaled_v_r, float(np.vdot(residual, residual))
