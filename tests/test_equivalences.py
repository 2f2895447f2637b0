"""CP/Tucker/TT/TR embeddings must reconstruct identically to the native
scalar-formula oracles."""

import numpy as np
import pytest

from sekron import (
    CpFactors,
    RankError,
    ShapeError,
    TrCores,
    TuckerFactors,
    compression_ratio,
    conv_macs,
    from_cp,
    from_tr,
    from_tt,
    from_tucker,
    reconstruct,
    stored_param_count,
)
from sekron.tensor_core import _rank_caps
from oracles import native_reconstruct, random_factors


def assert_matches_oracle(seq, fmt, factors):
    native = native_reconstruct(fmt, factors)
    got = reconstruct(seq)
    scale = max(np.linalg.norm(native), 1.0)
    assert np.linalg.norm(got - native) <= 1e-12 * scale


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
        f = random_factors("tt", (2, 3, 2), (1, 1), rng)
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
        f = random_factors("cp", dims, rank, rng)
        assert_matches_oracle(from_cp(f), "cp", f)

    def test_channel_axis_is_the_last_factor(self):
        # a rank-32 64x64x3x3 weight as factors F, Kh, Kw, C: on a 28x28
        # input with padding 1 the conv runs 4,598 MACs per output position,
        # where the axis order F, C, Kh, Kw ran 28,672
        f = random_factors("cp", (64, 64, 3, 3), 32, np.random.default_rng(7))
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
        f = random_factors("tucker", dims, ranks, rng)
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
        f = random_factors("tr", (2, 3), (1, 1), rng)
        expected = np.multiply.outer(f.cores[0][:, 0, 0], f.cores[1][:, 0, 0])
        assert np.allclose(reconstruct(from_tr(f)), expected, atol=1e-14)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_against_oracle(self, seed):
        rng = np.random.default_rng(300 + seed)
        n = int(rng.integers(2, 4))
        dims = tuple(int(d) for d in rng.choice([2, 3], size=n))
        ranks = tuple(int(r) for r in rng.choice([1, 2, 3], size=n))
        f = random_factors("tr", dims, ranks, rng)
        assert_matches_oracle(from_tr(f), "tr", f)

    def test_three_axis_rank_two_ring(self):
        rng = np.random.default_rng(8)
        f = random_factors("tr", (2, 2, 2), (2, 2, 2), rng)
        assert_matches_oracle(from_tr(f), "tr", f)

    def test_single_core_ring_traces_ranks(self):
        rng = np.random.default_rng(9)
        f = random_factors("tr", (4,), (3,), rng)
        expected = np.einsum("irr->i", f.cores[0])
        assert np.allclose(reconstruct(from_tr(f)), expected, atol=1e-14)

    def test_ring_closure_mismatch_rejected(self):
        with pytest.raises(RankError):
            TrCores((np.ones((2, 1, 2)), np.ones((2, 2, 2))))

    def test_first_factor_is_all_ones(self):
        rng = np.random.default_rng(10)
        seq = from_tr(random_factors("tr", (2, 2), (2, 2), rng))
        assert np.array_equal(seq.factors[0], np.ones_like(seq.factors[0]))


class TestFromTt:
    def test_rank_one_chain(self):
        rng = np.random.default_rng(11)
        f = random_factors("tt", (2, 3), (1,), rng)
        assert_matches_oracle(from_tt(f), "tt", f)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_chain_against_oracle(self, seed):
        rng = np.random.default_rng(400 + seed)
        n = int(rng.integers(2, 4))
        dims = tuple(int(d) for d in rng.choice([2, 3], size=n))
        inner = tuple(int(r) for r in rng.choice([1, 2], size=n - 1))
        f = random_factors("tt", dims, inner, rng)
        assert_matches_oracle(from_tt(f), "tt", f)

    def test_single_core(self):
        f = TrCores((np.arange(3.0).reshape(3, 1, 1),))
        assert np.array_equal(reconstruct(from_tt(f)), np.arange(3.0))

    def test_boundary_rank_must_be_one(self):
        rng = np.random.default_rng(12)
        ring = random_factors("tr", (2, 2), (2, 2), rng)
        with pytest.raises(RankError):
            from_tt(ring)


def random_embeddings():
    """Each format's embedding of a 32x16x3x3 weight: rank-4 CP, a Tucker
    core of shape (2, 3, 2, 2), ring ranks (2, 3, 2, 2) and train ranks
    (2, 3, 2)."""
    rng = np.random.default_rng(40)
    dims = (32, 16, 3, 3)
    return {
        "cp": from_cp(random_factors("cp", dims, 4, rng)),
        "tucker": from_tucker(random_factors("tucker", dims, (2, 3, 2, 2), rng)),
        "tr": from_tr(random_factors("tr", dims, (2, 3, 2, 2), rng)),
        "tt": from_tt(random_factors("tt", dims, (2, 3, 2), rng)),
    }


@pytest.mark.parametrize("name", ["cp", "tucker", "tr", "tt"])
def test_cr_counts_ranks_above_the_caps_as_given(name):
    # Tucker's ranks (2, 3, 2, 2) exceed its caps (32, 9, 3, 1) and TR's
    # exceed (1, 32, 9, 3): both are the ranks the embedding stores, so CR
    # is still the dense count over the elements it holds
    seq = random_embeddings()[name]
    if name in ("tucker", "tr"):
        assert any(map(int.__gt__, seq.ranks, _rank_caps(seq.shapes.volumes)))
    assert stored_param_count(seq.shapes, seq.ranks) == seq.param_count
    assert compression_ratio(seq.shapes, seq.ranks) == 32 * 16 * 3 * 3 / seq.param_count


@pytest.mark.parametrize(
    "convert, wrong",
    [
        (from_cp, [np.ones((2, 3))]),
        (from_tucker, None),
        (from_tr, (np.ones((2, 1, 1)),)),
        (from_tt, (np.ones((2, 1, 1)),)),
        (from_tt, CpFactors((np.ones((1, 2)),))),
    ],
    ids=["cp-list", "tucker-none", "tr-tuple", "tt-tuple", "tt-cp"],
)
def test_wrong_format_object_is_a_shape_error(convert, wrong):
    with pytest.raises(ShapeError, match=f"got {type(wrong).__name__}"):
        convert(wrong)
