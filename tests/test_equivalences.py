"""CP/Tucker/TT/TR embeddings must reconstruct identically to the native
scalar-formula oracles."""

import numpy as np
import pytest

from sekron import (
    CpFactors,
    RankError,
    TrCores,
    TuckerFactors,
    conv_macs,
    from_cp,
    from_tr,
    from_tt,
    from_tucker,
    reconstruct,
)
from oracles import native_reconstruct


def assert_matches_oracle(seq, fmt, factors):
    native = native_reconstruct(fmt, factors)
    got = reconstruct(seq)
    scale = max(np.linalg.norm(native), 1.0)
    assert np.linalg.norm(got - native) <= 1e-12 * scale


def random_cp(rng, dims, rank):
    return CpFactors(tuple(rng.standard_normal((rank, d)) for d in dims))


def random_tucker(rng, dims, ranks):
    core = rng.standard_normal(ranks)
    mats = tuple(rng.standard_normal((d, r)) for d, r in zip(dims, ranks))
    return TuckerFactors(core, mats)


def random_ring(rng, dims, ranks):
    closed = tuple(ranks) + (ranks[0],)
    return TrCores(
        tuple(
            rng.standard_normal((d, closed[n], closed[n + 1]))
            for n, d in enumerate(dims)
        )
    )


def random_train(rng, dims, inner_ranks):
    ranks = (1,) + tuple(inner_ranks) + (1,)
    return TrCores(
        tuple(
            rng.standard_normal((d, ranks[n], ranks[n + 1]))
            for n, d in enumerate(dims)
        )
    )


class TestNativeOracles:
    def test_cp_rank_one_is_outer_product(self):
        u, v = np.array([[1.0, 2.0]]), np.array([[3.0, 4.0]])
        out = native_reconstruct("cp", CpFactors((u, v)))
        assert np.array_equal(out, np.outer(u[0], v[0]))

    def test_tucker_identity_is_delta(self):
        f = TuckerFactors(np.eye(2), (np.eye(2), np.eye(2)))
        assert np.array_equal(native_reconstruct("tucker", f), np.eye(2))

    def test_tt_all_rank_one_is_outer_product(self):
        rng = np.random.default_rng(0)
        f = random_train(rng, (2, 3, 2), (1, 1))
        fibers = [c[:, 0, 0] for c in f.cores]
        expected = np.multiply.outer(np.multiply.outer(fibers[0], fibers[1]), fibers[2])
        assert np.allclose(native_reconstruct("tt", f), expected, atol=1e-14)

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            native_reconstruct("hosvd", None)


class TestFromCp:
    def test_rank_one_vectors(self):
        f = CpFactors((np.array([[1.0, 2.0]]), np.array([[3.0, 4.0]])))
        out = reconstruct(from_cp(f))
        assert np.array_equal(out, np.array([[3.0, 4.0], [6.0, 8.0]]))

    def test_zero_factors(self):
        f = CpFactors((np.zeros((2, 3)), np.zeros((2, 2))))
        assert np.array_equal(reconstruct(from_cp(f)), np.zeros((3, 2)))

    @pytest.mark.parametrize("seed", range(10))
    def test_random_against_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        dims = tuple(rng.choice([2, 3], size=rng.integers(2, 4)))
        rank = int(rng.integers(1, 4))
        f = random_cp(rng, dims, rank)
        assert_matches_oracle(from_cp(f), "cp", f)

    def test_channel_axis_is_the_last_factor(self):
        # a rank-32 64x64x3x3 weight as factors F, Kh, Kw, C: on a 28x28
        # input with padding 1 the conv runs 4,598 MACs per output position,
        # where the axis order F, C, Kh, Kw ran 28,672
        f = random_cp(np.random.default_rng(7), (64, 64, 3, 3), 32)
        seq = from_cp(f)
        assert seq.shapes.rows == ((64, 1, 1, 1), (1, 1, 3, 1), (1, 1, 1, 3), (1, 64, 1, 1))
        assert conv_macs(seq, (28, 28), 1) == 3_604_736  # 4,597.9 x 28 x 28
        assert_matches_oracle(seq, "cp", f)

    def test_single_axis(self):
        f = CpFactors((np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]),))
        assert np.array_equal(reconstruct(from_cp(f)), np.array([5.0, 7.0, 9.0]))

    def test_inconsistent_ranks_rejected(self):
        with pytest.raises(RankError):
            CpFactors((np.ones((2, 3)), np.ones((3, 2))))


class TestFromTucker:
    def test_identity_core_and_matrices(self):
        f = TuckerFactors(np.eye(2), (np.eye(2), np.eye(2)))
        assert np.allclose(reconstruct(from_tucker(f)), np.eye(2), atol=1e-15)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_against_oracle(self, seed):
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(2, 4))
        dims = tuple(int(d) for d in rng.choice([2, 3], size=n))
        ranks = tuple(int(r) for r in rng.choice([1, 2], size=n))
        f = random_tucker(rng, dims, ranks)
        assert_matches_oracle(from_tucker(f), "tucker", f)

    def test_rank_one_tucker_equals_rank_one_cp(self):
        rng = np.random.default_rng(42)
        u = rng.standard_normal(3)
        v = rng.standard_normal(2)
        g = rng.standard_normal()
        tucker = TuckerFactors(
            np.array([[g]]), (u.reshape(3, 1), v.reshape(2, 1))
        )
        cp = CpFactors(((g * u).reshape(1, 3), v.reshape(1, 2)))
        a = reconstruct(from_tucker(tucker))
        b = reconstruct(from_cp(cp))
        assert np.allclose(a, b, atol=1e-14)

    def test_core_matrix_rank_mismatch_rejected(self):
        with pytest.raises(RankError):
            TuckerFactors(np.ones((2, 2)), (np.ones((3, 2)), np.ones((3, 3))))


class TestFromTr:
    def test_all_rank_one_ring_is_outer_product(self):
        rng = np.random.default_rng(7)
        f = random_ring(rng, (2, 3), (1, 1))
        expected = np.multiply.outer(f.cores[0][:, 0, 0], f.cores[1][:, 0, 0])
        assert np.allclose(reconstruct(from_tr(f)), expected, atol=1e-14)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_against_oracle(self, seed):
        rng = np.random.default_rng(300 + seed)
        n = int(rng.integers(2, 4))
        dims = tuple(int(d) for d in rng.choice([2, 3], size=n))
        ranks = tuple(int(r) for r in rng.choice([1, 2, 3], size=n))
        f = random_ring(rng, dims, ranks)
        assert_matches_oracle(from_tr(f), "tr", f)

    def test_three_axis_rank_two_ring(self):
        rng = np.random.default_rng(8)
        f = random_ring(rng, (2, 2, 2), (2, 2, 2))
        assert_matches_oracle(from_tr(f), "tr", f)

    def test_single_core_ring_traces_ranks(self):
        rng = np.random.default_rng(9)
        f = random_ring(rng, (4,), (3,))
        expected = np.einsum("irr->i", f.cores[0])
        assert np.allclose(reconstruct(from_tr(f)), expected, atol=1e-14)

    def test_ring_closure_mismatch_rejected(self):
        with pytest.raises(RankError):
            TrCores((np.ones((2, 1, 2)), np.ones((2, 2, 2))))

    def test_first_factor_is_all_ones(self):
        rng = np.random.default_rng(10)
        seq = from_tr(random_ring(rng, (2, 2), (2, 2)))
        assert np.array_equal(seq.factors[0], np.ones_like(seq.factors[0]))


class TestFromTt:
    def test_rank_one_chain(self):
        rng = np.random.default_rng(11)
        f = random_train(rng, (2, 3), (1,))
        assert_matches_oracle(from_tt(f), "tt", f)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_chain_against_oracle(self, seed):
        rng = np.random.default_rng(400 + seed)
        n = int(rng.integers(2, 4))
        dims = tuple(int(d) for d in rng.choice([2, 3], size=n))
        inner = tuple(int(r) for r in rng.choice([1, 2], size=n - 1))
        f = random_train(rng, dims, inner)
        assert_matches_oracle(from_tt(f), "tt", f)

    def test_single_core(self):
        f = TrCores((np.arange(3.0).reshape(3, 1, 1),))
        assert np.array_equal(reconstruct(from_tt(f)), np.arange(3.0))

    def test_boundary_rank_must_be_one(self):
        rng = np.random.default_rng(12)
        ring = random_ring(rng, (2, 2), (2, 2))
        with pytest.raises(RankError):
            from_tt(ring)
