"""SVD contract: accuracy, ordering, sign reproducibility, truncation, and the
Gram-matrix truncated SVD, full rank included, checked against LAPACK's SVD."""

import math

import numpy as np
import pytest

from sekron import (
    FactorShapeMatrix,
    RankError,
    ShapeError,
    SvdConvergenceError,
    truncated_svd,
)
from sekron.linalg import _normalize_signs
from oracles import kron_unfolding


def loop_signs(u):
    """The sign rule column by column: -1.0 for each column of ``u`` whose
    largest-magnitude entry (the first one, on ties) is negative, else 1.0."""
    signs = np.ones(u.shape[1])
    for r in range(u.shape[1]):
        if u[np.argmax(np.abs(u[:, r])), r] < 0:
            signs[r] = -1.0
    return signs


def loop_signed_svd(m):
    """LAPACK's thin SVD with the sign rule applied column by column."""
    u, s, vt = np.linalg.svd(np.asarray(m, dtype=np.float64), full_matrices=False)
    signs = loop_signs(u)
    return u * signs, s, np.ascontiguousarray(vt.T * signs)


def full_svd(m):
    """``truncated_svd`` at full rank, checked against LAPACK's singular
    values: orthonormal left vectors that keep the sign rule, singular values
    within ``1e-12 * sigma_1``, and a reconstruction whose squared residual,
    at most ``1e-26 * ||M||^2``, is the tail.  Returns the left vectors, the
    sigma-scaled right vectors and the singular values (the column norms of
    the scaled right vectors)."""
    k = min(m.shape)
    u, scaled_v, tail = truncated_svd(m, k)
    s = np.linalg.norm(scaled_v, axis=0)
    s_ref = np.linalg.svd(m, compute_uv=False)
    assert np.abs(u.T @ u - np.eye(k)).max() <= 1e-12
    assert np.array_equal(loop_signs(u), np.ones(k))
    assert np.abs(s - s_ref).max() <= 1e-12 * s_ref[0]
    norm2 = float(np.sum(m * m))
    residual = float(np.sum((m - u @ scaled_v.T) ** 2))
    assert tail == pytest.approx(residual, rel=1e-9, abs=0)
    assert residual <= 1e-26 * norm2
    return u, scaled_v, s


def test_identity_singular_values():
    _, _, s = full_svd(np.eye(3))
    assert np.allclose(s, np.ones(3), atol=1e-12)


def test_constructed_rank_one():
    u = np.array([3.0, 4.0]) / 5.0
    v = np.array([1.0, 0.0, 0.0])
    _, _, s = full_svd(5.0 * np.outer(u, v))
    assert s[0] == pytest.approx(5.0, rel=1e-12)
    assert s[1] == pytest.approx(0.0, abs=1e-12)


def test_diagonal_example():
    _, _, s = full_svd(np.array([[3.0, 0.0], [0.0, 4.0]]))
    assert np.allclose(s, [4.0, 3.0], atol=1e-12)


def test_reconstruction_and_orthonormality_random():
    rng = np.random.default_rng(5)
    for _ in range(10):
        m = rng.standard_normal((6, 9))
        u, scaled_v, s = full_svd(m)
        assert np.all(np.diff(s) <= 1e-12)
        assert np.allclose(u.T @ u, np.eye(6), atol=1e-10)
        v = scaled_v / s
        assert np.allclose(v.T @ v, np.eye(6), atol=1e-10)
        rebuilt = u @ scaled_v.T
        assert np.linalg.norm(rebuilt - m) <= 1e-10 * np.linalg.norm(m)


def test_sign_convention_is_reproducible():
    rng = np.random.default_rng(9)
    m = rng.standard_normal((5, 5))
    (u_a, v_a, _), (u_b, v_b, _) = full_svd(m.copy()), full_svd(m.copy())
    assert np.array_equal(u_a, u_b) and np.array_equal(v_a, v_b)


def test_truncate_full_rank_is_exact():
    rng = np.random.default_rng(15)
    m = rng.standard_normal((4, 4))
    u_r, sv_r, _ = truncated_svd(m, 4)
    assert np.allclose(u_r @ sv_r.T, m, atol=1e-12)


def test_truncate_rank_one_matrix_zero_residual():
    m = np.outer([1.0, 2.0], [3.0, 4.0, 5.0])
    u_r, sv_r, tail = truncated_svd(m, 1)
    assert np.linalg.norm(u_r @ sv_r.T - m) <= 1e-12
    assert tail <= 1e-24


def test_truncate_residual_equals_tail():
    m = np.array([[3.0, 0.0], [0.0, 4.0]])
    u_r, sv_r, _ = truncated_svd(m, 1)
    residual = np.sum((u_r @ sv_r.T - m) ** 2)
    assert residual == pytest.approx(9.0, rel=1e-12)


def test_tail_energy_values():
    m = np.array([[3.0, 0.0], [0.0, 4.0]])
    assert truncated_svd(m, 2)[2] == 0.0
    assert truncated_svd(m, 1)[2] == pytest.approx(9.0, rel=1e-12)


def test_eckart_young_over_all_ranks():
    rng = np.random.default_rng(21)
    for _ in range(5):
        m = rng.standard_normal((8, 8))
        s = loop_signed_svd(m)[1]
        for r in range(1, 9):
            u_r, sv_r, tail = truncated_svd(m, r)
            residual = np.sum((m - u_r @ sv_r.T) ** 2)
            want = float(np.sum(s[r:] ** 2))
            assert residual == pytest.approx(want, rel=1e-9, abs=1e-18)
            assert tail == pytest.approx(want, rel=1e-9, abs=1e-18)


def test_rank_out_of_range():
    with pytest.raises(RankError):
        truncated_svd(np.eye(3), 0)
    with pytest.raises(RankError):
        truncated_svd(np.eye(3), 4)


def test_bad_inputs():
    with pytest.raises(ShapeError):
        truncated_svd(np.ones(3), 1)
    with pytest.raises(ValueError):
        truncated_svd(np.array([[np.nan, 0.0], [0.0, 1.0]]), 2)


# a zero-length axis is a shape error, as in as_tensor: not numpy's reshape
# error for an empty stack, nor a rank range of [1, 0] for an empty matrix
@pytest.mark.parametrize("shape", [(0, 3, 3), (0, 3), (3, 0), (2, 0, 3)])
def test_zero_length_axis_is_a_shape_error(shape):
    with pytest.raises(ShapeError, match="zero-length"):
        truncated_svd(np.ones(shape), 1)


def test_vectorized_sign_rule_equals_loop():
    rng = np.random.default_rng(31)
    cases = [rng.standard_normal(shape) for shape in [(5, 5), (3, 11), (11, 3), (1, 4)]]
    cases *= 5
    # equal-magnitude entries: the first maximum decides, as in the loop
    cases += [np.array([[1.0, 1.0], [1.0, -1.0]]), np.array([[1.0, -1.0], [-1.0, 1.0]])]
    for u in cases:
        assert np.array_equal(_normalize_signs(u), u * loop_signs(u))
    # a stack: each matrix as on its own
    stack = rng.standard_normal((4, 3, 11))
    assert np.array_equal(_normalize_signs(stack), np.stack(list(map(_normalize_signs, stack))))


def geometric(rng, rows, cols, decay=0.7):
    """Random matrix with singular values ``decay**t``."""
    k = min(rows, cols)
    q_left, _ = np.linalg.qr(rng.standard_normal((rows, k)))
    q_right, _ = np.linalg.qr(rng.standard_normal((cols, k)))
    return (q_left * decay ** np.arange(k)) @ q_right.T


def assert_truncation_contract(m, r_hat):
    u_r, scaled_v_r, tail = truncated_svd(m, r_hat)
    s = np.linalg.svd(m, compute_uv=False)
    norm2 = float(np.sum(m * m))
    assert u_r.shape == (m.shape[0], r_hat)
    assert scaled_v_r.shape == (m.shape[1], r_hat)
    assert abs(tail - float(np.sum(s[r_hat:] ** 2))) <= 1e-12 * norm2
    assert np.abs(u_r.T @ u_r - np.eye(r_hat)).max() <= 1e-12
    pivot = np.argmax(np.abs(u_r), axis=0)
    assert np.all(u_r[pivot, np.arange(r_hat)] > 0)
    assert np.allclose(scaled_v_r, m.T @ u_r, rtol=0, atol=1e-12 * math.sqrt(norm2))
    residual = m - u_r @ scaled_v_r.T
    assert abs(tail - float(np.sum(residual**2))) <= 1e-14 * norm2
    return u_r, scaled_v_r, tail


class TestTruncatedSvd:
    @pytest.mark.parametrize("shape", [(6, 40), (40, 6), (12, 12), (16, 300)])
    def test_geometric_spectra_every_rank(self, shape):
        rng = np.random.default_rng(sum(shape))
        m = geometric(rng, *shape)
        u, s, v = loop_signed_svd(m)
        for r_hat in range(1, min(shape) + 1):
            u_r, scaled_v_r, _ = assert_truncation_contract(m, r_hat)
            # a well-separated spectrum pins the vectors, signs included
            u_ref, sv_ref = u[:, :r_hat], v[:, :r_hat] * s[:r_hat]
            assert np.abs(u_r - u_ref).max() <= 1e-8
            assert np.abs(scaled_v_r - sv_ref).max() <= 1e-8

    @pytest.mark.parametrize("shape", [(7, 30), (30, 7), (9, 9)])
    def test_gaussian_matrices(self, shape):
        rng = np.random.default_rng(3 * shape[0] + shape[1])
        for _ in range(5):
            m = rng.standard_normal(shape)
            for r_hat in range(1, min(shape)):
                assert_truncation_contract(m, r_hat)

    @pytest.mark.parametrize("transpose", [False, True])
    def test_rank_above_true_rank(self, transpose):
        # the nearest-Kronecker unfolding of kron(a, b) has rank one
        rng = np.random.default_rng(41)
        a, b = rng.standard_normal((2, 3)), rng.standard_normal((3, 4))
        m = kron_unfolding(np.kron(a, b), FactorShapeMatrix((a.shape, b.shape)))
        assert np.linalg.matrix_rank(m) == 1
        m = m.T if transpose else m
        _, _, tail = assert_truncation_contract(m, 3)
        assert tail <= 1e-12 * float(np.sum(m * m))

    @pytest.mark.parametrize("shape", [(8, 200), (200, 8)])
    def test_small_tail_is_relatively_accurate(self, shape):
        # the tail is 1e-10 of the energy; ||m||^2 - sum(kept sigma^2) would
        # lose about six of its digits to cancellation
        rng = np.random.default_rng(47)
        sigma = np.concatenate([[1.0, 0.5, 0.25], 1e-5 * 0.7 ** np.arange(5)])
        q_left, _ = np.linalg.qr(rng.standard_normal((shape[0], 8)))
        q_right, _ = np.linalg.qr(rng.standard_normal((shape[1], 8)))
        m = (q_left * sigma) @ q_right.T
        _, _, tail = truncated_svd(m, 3)
        want = float(np.sum(np.linalg.svd(m, compute_uv=False)[3:] ** 2))
        assert tail == pytest.approx(want, rel=1e-8, abs=0)

    def test_full_rank_is_the_full_svd(self):
        rng = np.random.default_rng(43)
        for shape in [(4, 9), (9, 4), (5, 5)]:
            full_svd(rng.standard_normal(shape))

    @pytest.mark.parametrize("shape", [(3, 12, 40), (3, 12, 12), (3, 40, 12)])
    def test_full_rank_tails_are_the_measured_residual(self, shape):
        # thin, square and tall stacks whose singular values span 1 to 1e-14:
        # nothing is discarded, and the tail is the rounding the factors
        # leave, measured, so a reported 0.0 fails the relative check
        rng = np.random.default_rng(shape[1] + shape[2])
        k = min(shape[1:])
        sigma = np.logspace(0, -14, k)
        stack = np.stack([
            np.linalg.qr(rng.standard_normal((shape[1], k)))[0] * sigma
            @ np.linalg.qr(rng.standard_normal((shape[2], k)))[0].T
            for _ in range(shape[0])
        ])
        u, scaled_v, tails = truncated_svd(stack, k)
        for m, u_b, scaled_v_b, tail in zip(stack, u, scaled_v, tails):
            norm2 = float(np.sum(m * m))
            residual = float(np.sum((m - u_b @ scaled_v_b.T) ** 2))
            assert abs(tail - residual) <= 1e-12 * norm2
            assert tail == pytest.approx(residual, rel=1e-9, abs=0)
            assert residual <= 1e-26 * norm2

    @pytest.mark.parametrize("shape", [(4, 16), (16, 4)])
    def test_overflowing_gram_is_rescaled(self, shape):
        # matrix 1 is rank 2 plus a small tail, times 1e155: its Gram matrix
        # overflows and its tail does not; matrix 0 keeps its own bits
        rng = np.random.default_rng(53)
        low = rng.standard_normal(shape[:1] + (2,)) @ rng.standard_normal((2, shape[1]))
        m = np.stack([rng.standard_normal(shape), low + 1e-4 * rng.standard_normal(shape)])
        big = m * np.array([1.0, 1e155])[:, None, None]
        with np.errstate(all="raise"):
            u, scaled_v, tails = truncated_svd(big, 2)
        alone = truncated_svd(m[0], 2)
        assert all(np.array_equal(got[0], want) for got, want in zip((u, scaled_v, tails), alone))
        u_1, scaled_v_1, tail_1 = truncated_svd(m[1], 2)
        assert np.linalg.norm(u[1] - u_1) <= 1e-10
        scaled_v_err = np.linalg.norm(scaled_v[1] / 1e155 - scaled_v_1)
        assert scaled_v_err <= 1e-10 * np.linalg.norm(scaled_v_1)
        assert tails[1] / 1e155 / 1e155 == pytest.approx(tail_1, rel=1e-6)

    @pytest.mark.parametrize(
        "rows, cols, r_hat", [(4, 15, 2), (15, 4, 3), (6, 6, 6), (3, 8, 3), (8, 3, 3)]
    )
    def test_stack_equals_per_matrix_calls(self, rows, cols, r_hat):
        # thin and tall stacks below full rank, then square, thin and tall at it
        rng = np.random.default_rng(7 * rows + cols)
        for lead in [(2,), (3,), (4,), (5,), (2, 3)]:
            stack = rng.standard_normal(lead + (rows, cols))
            stack[0] = geometric(rng, rows, cols)
            u_r, scaled_v_r, tails = truncated_svd(stack, r_hat)
            assert u_r.shape == lead + (rows, r_hat)
            assert scaled_v_r.shape == lead + (cols, r_hat)
            assert tails.shape == lead
            for b in np.ndindex(lead):
                m = stack[b]
                u_b, scaled_v_b, tail_b = truncated_svd(m, r_hat)
                assert np.array_equal(u_r[b], u_b)
                assert np.array_equal(scaled_v_r[b], scaled_v_b)
                norm2 = float(np.sum(m * m))
                assert abs(tails[b] - tail_b) <= 1e-12 * norm2
                want = float(np.sum(np.linalg.svd(m, compute_uv=False)[r_hat:] ** 2))
                assert abs(tails[b] - want) <= 1e-12 * norm2

    # each matrix spans several 2**17-element row blocks of the residual; the
    # last shape has more columns than a block, so a block is one row
    @pytest.mark.parametrize("rows, cols, r_hat", [(300, 600, 5), (700, 200, 4), (2, 140_000, 1)])
    def test_row_blocked_tails_equal_whole_residual(self, rows, cols, r_hat):
        rng = np.random.default_rng(rows + cols)
        stack = rng.standard_normal((2, rows, cols))
        u_r, scaled_v_r, tails = truncated_svd(stack, r_hat)
        for b in range(2):
            m = stack[b]
            whole = m - u_r[b] @ scaled_v_r[b].T
            want = float(np.sum(whole * whole))
            assert abs(tails[b] - want) <= 1e-12 * float(np.sum(m * m))
            assert tails[b] == truncated_svd(m, r_hat)[2]

    def test_bad_inputs(self):
        with pytest.raises(ShapeError):
            truncated_svd(np.ones(3), 1)
        for r_hat in (1, 2):
            with pytest.raises(ValueError):
                truncated_svd(np.array([[np.nan, 0.0], [0.0, 1.0]]), r_hat)
        for r_hat in (0, 3):
            with pytest.raises(RankError):
                truncated_svd(np.ones((2, 5)), r_hat)

    @pytest.mark.parametrize(
        "name, shape, r_hat",
        [("eigh", (3, 6), 2), ("eigh", (6, 3), 2), ("eigh", (3, 3), 3)],
    )
    def test_convergence_failure_is_reported(self, monkeypatch, name, shape, r_hat):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(np.linalg, name, fail)
        with pytest.raises(SvdConvergenceError):
            truncated_svd(np.ones(shape), r_hat)
