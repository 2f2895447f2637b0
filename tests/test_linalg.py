"""SVD contract: accuracy, ordering, sign reproducibility, truncation, and the
Gram-matrix truncated SVD checked against the full one."""

import math

import numpy as np
import pytest

from sekron import (
    RankError,
    ShapeError,
    SvdConvergenceError,
    svd,
    truncated_svd,
    unfold_blocks,
)


def test_identity_singular_values():
    res = svd(np.eye(3))
    assert np.allclose(res.s, np.ones(3), atol=1e-12)


def test_constructed_rank_one():
    u = np.array([3.0, 4.0]) / 5.0
    v = np.array([1.0, 0.0, 0.0])
    res = svd(5.0 * np.outer(u, v))
    assert res.s[0] == pytest.approx(5.0, rel=1e-12)
    assert res.s[1] == pytest.approx(0.0, abs=1e-12)


def test_diagonal_example():
    res = svd(np.array([[3.0, 0.0], [0.0, 4.0]]))
    assert np.allclose(res.s, [4.0, 3.0], atol=1e-12)


def test_reconstruction_and_orthonormality_random():
    rng = np.random.default_rng(5)
    for _ in range(10):
        m = rng.standard_normal((6, 9))
        res = svd(m)
        assert np.all(np.diff(res.s) <= 1e-12)
        assert np.allclose(res.u.T @ res.u, np.eye(res.rank), atol=1e-10)
        assert np.allclose(res.v.T @ res.v, np.eye(res.rank), atol=1e-10)
        rebuilt = res.u @ np.diag(res.s) @ res.v.T
        assert np.linalg.norm(rebuilt - m) <= 1e-10 * np.linalg.norm(m)


def test_sign_convention_is_reproducible():
    rng = np.random.default_rng(9)
    m = rng.standard_normal((5, 5))
    a, b = svd(m.copy()), svd(m.copy())
    assert np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v)
    for r in range(a.rank):
        pivot = np.argmax(np.abs(a.u[:, r]))
        assert a.u[pivot, r] > 0


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
        s = svd(m).s
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
        svd(np.ones(3))
    with pytest.raises(ValueError):
        svd(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def loop_signed_svd(m):
    """The per-column sign loop ``svd`` used before its vectorized rule."""
    u, s, vt = np.linalg.svd(np.asarray(m, dtype=np.float64), full_matrices=False)
    v = vt.T
    for r in range(s.shape[0]):
        pivot = np.argmax(np.abs(u[:, r]))
        if u[pivot, r] < 0:
            u[:, r] = -u[:, r]
            v[:, r] = -v[:, r]
    return u, s, np.ascontiguousarray(v)


def test_vectorized_sign_rule_equals_loop():
    rng = np.random.default_rng(31)
    cases = [rng.standard_normal(shape) for shape in [(5, 5), (3, 11), (11, 3), (1, 4)]]
    cases *= 5
    # equal-magnitude entries: the first maximum decides, as in the loop
    cases += [np.array([[1.0, 1.0], [1.0, -1.0]]), np.array([[1.0, -1.0], [-1.0, 1.0]])]
    for m in cases:
        res = svd(m)
        u, s, v = loop_signed_svd(m)
        assert np.array_equal(res.u, u)
        assert np.array_equal(res.s, s)
        assert np.array_equal(res.v, v)


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
        res = svd(m)
        for r_hat in range(1, min(shape) + 1):
            u_r, scaled_v_r, _ = assert_truncation_contract(m, r_hat)
            # a well-separated spectrum pins the vectors, signs included
            u_ref, sv_ref = res.u[:, :r_hat], res.v[:, :r_hat] * res.s[:r_hat]
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
        m = unfold_blocks(np.kron(a, b), b.shape)[0]
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
            m = rng.standard_normal(shape)
            u_r, scaled_v_r, tail = truncated_svd(m, min(shape))
            res = svd(m)
            assert tail == 0.0
            assert np.array_equal(u_r, res.u) and np.array_equal(scaled_v_r, res.v * res.s)

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
        [("eigh", (3, 6), 2), ("eigh", (6, 3), 2), ("svd", (3, 3), 3)],
    )
    def test_convergence_failure_is_reported(self, monkeypatch, name, shape, r_hat):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(np.linalg, name, fail)
        with pytest.raises(SvdConvergenceError):
            truncated_svd(np.ones(shape), r_hat)
