"""Decomposition exactness, greedy truncation behavior, exact error accounting,
and reconstruction against the Kronecker-sum oracle."""

import math
from dataclasses import FrozenInstanceError, replace
from functools import reduce

import numpy as np
import pytest

from sekron import (
    FactorShapeMatrix,
    KroneckerSequence,
    RankError,
    ShapeError,
    compression_ratio,
    flops_ratio,
    reconstruct,
    read_sequence,
    sekron_decompose,
    stored_param_count,
    write_sequence,
)
from sekron.decompose import _branch_sizes
from oracles import kron_sum, kron_unfolding, random_sequence, reconstruction_error


def rel_error(w, seq):
    return math.sqrt(reconstruction_error(w, seq)) / np.linalg.norm(w)


class TestDecompose:
    def test_constructed_rank_one_instance(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((2, 2, 1, 1))
        b = rng.standard_normal((2, 2, 3, 3))
        w = np.kron(a, b)
        shapes = FactorShapeMatrix(((2, 2, 1, 1), (2, 2, 3, 3)))
        seq = sekron_decompose(w, shapes, (1,))
        assert rel_error(w, seq) <= 1e-12

    def test_full_rank_exact(self):
        rng = np.random.default_rng(2)
        w = rng.standard_normal((4, 4, 3, 3))
        shapes = FactorShapeMatrix(((2, 2, 1, 1), (2, 2, 3, 3)))
        seq = sekron_decompose(w, shapes, (4,))
        assert rel_error(w, seq) <= 1e-10

    def test_sixteen_parameter_factorization(self):
        rng = np.random.default_rng(3)
        w = rng.standard_normal((16, 16))
        shapes = FactorShapeMatrix(((2, 2),) * 4)
        seq = sekron_decompose(w, shapes, (1, 1, 1))
        assert seq.param_count == 16

    def test_rank_cap_violation(self):
        shapes = FactorShapeMatrix(((2, 3), (3, 2)))
        with pytest.raises(RankError):
            sekron_decompose(np.ones((6, 6)), shapes, (7,))

    def test_rank_caps_are_checked_before_any_svd(self, monkeypatch):
        # level 1's rank is far above its cap; level 0's SVD of a 1 x 16 x
        # 9,216 stack would run first if the levels checked their own ranks
        shapes = FactorShapeMatrix.from_string("4x4x1x1,4x4x1x1,8x8x3x3")
        calls = []
        monkeypatch.setattr("sekron.decompose.truncated_svd", lambda *args: calls.append(args))
        with pytest.raises(RankError, match="level-1"):
            sekron_decompose(np.ones(shapes.target_shape), shapes, (4, 99999))
        assert calls == []

    def test_shape_incompatibility(self):
        shapes = FactorShapeMatrix(((2, 3), (3, 2)))
        with pytest.raises(ShapeError):
            sekron_decompose(np.ones((6, 4)), shapes, (1,))

    def test_wrong_rank_count(self):
        shapes = FactorShapeMatrix(((2, 3), (3, 2)))
        with pytest.raises(RankError):
            sekron_decompose(np.ones((6, 6)), shapes, (1, 1))

    def test_factor_layout(self):
        rng = np.random.default_rng(4)
        w = rng.standard_normal((8, 4))
        shapes = FactorShapeMatrix(((2, 2), (2, 1), (2, 2)))
        seq = sekron_decompose(w, shapes, (2, 2))
        assert seq.branch_sizes == (2, 4, 4)
        assert [f.shape for f in seq.factors] == [(2, 2, 2), (4, 2, 1), (4, 2, 2)]


class TestReconstruct:
    def test_single_factor(self):
        rng = np.random.default_rng(5)
        f = rng.standard_normal((1, 3, 2))
        shapes = FactorShapeMatrix(((3, 2),))
        seq = KroneckerSequence(shapes=shapes, ranks=(), factors=[f])
        assert np.array_equal(reconstruct(seq), f[0])

    def test_single_factor_returns_a_copy(self):
        f = np.arange(6.0).reshape(1, 3, 2)
        seq = KroneckerSequence(shapes=FactorShapeMatrix(((3, 2),)), ranks=(), factors=[f])
        out = reconstruct(seq)
        assert not np.shares_memory(out, seq.factors[0])
        out[0, 0] = -1.0
        assert seq.factors[0][0, 0, 0] == 0.0

    # Small-integer factors make every product and partial sum exact, so any
    # evaluation order gives the same bits and np.array_equal is fair.

    def test_all_rank_one_is_plain_kron_sequence(self):
        rng = np.random.default_rng(6)
        rows = ((2, 2), (2, 1), (1, 3))
        factors = [rng.integers(-3, 4, (1,) + r).astype(float) for r in rows]
        seq = KroneckerSequence(
            shapes=FactorShapeMatrix(rows), ranks=(1, 1), factors=factors
        )
        expected = reduce(np.kron, [f[0] for f in factors])
        assert np.array_equal(reconstruct(seq), expected)

    def test_branch_flattening_is_row_major(self):
        # manual evaluation of the rank sums with branch = r0 * R1 + r1
        rng = np.random.default_rng(7)
        shapes = FactorShapeMatrix(((2, 1), (2, 2), (1, 2)))
        factors = [
            rng.integers(-3, 4, (rho,) + row).astype(float)
            for rho, row in zip((2, 6, 6), shapes.rows)
        ]
        seq = KroneckerSequence(shapes=shapes, ranks=(2, 3), factors=factors)
        manual = np.zeros(seq.target_shape)
        for r0 in range(2):
            for r1 in range(3):
                manual += reduce(
                    np.kron,
                    [
                        seq.factors[0][r0],
                        seq.factors[1][r0 * 3 + r1],
                        seq.factors[2][r0 * 3 + r1],
                    ],
                )
        assert np.array_equal(reconstruct(seq), manual)

    def test_float_factors_within_rounding_of_kron_sum(self):
        # Each entry is a sum of P = prod(ranks) products of S factor entries.
        # reconstruct and the oracle add and multiply in different orders, so
        # each lies within the standard gamma bound of the exact value, taken
        # on the same sum of absolute values, A.
        rng = np.random.default_rng(50)
        eps = np.finfo(float).eps
        for _ in range(150):
            s = int(rng.integers(1, 5))
            n_axes = int(rng.integers(1, 4))
            rows = tuple(
                tuple(int(d) for d in rng.integers(1, 4, n_axes)) for _ in range(s)
            )
            shapes = FactorShapeMatrix(rows)
            if math.prod(shapes.target_shape) > 4096:
                continue
            ranks = tuple(int(r) for r in rng.integers(1, 5, s - 1))
            seq = random_sequence(shapes, ranks, rng=rng)
            magnitude = kron_sum(replace(seq, factors=[np.abs(f) for f in seq.factors]))
            bound = (s + math.prod(ranks)) * eps * magnitude
            assert np.all(np.abs(reconstruct(seq) - kron_sum(seq)) <= bound)

    def test_decompose_reconstruct_roundtrip(self):
        rng = np.random.default_rng(8)
        w = rng.standard_normal((4, 6))
        shapes = FactorShapeMatrix(((2, 2), (2, 3)))
        seq = sekron_decompose(w, shapes, shapes.max_ranks())
        assert rel_error(w, seq) <= 1e-10


class TestReconstructionError:
    def test_full_rank_error_tiny_on_unit_norm(self):
        rng = np.random.default_rng(9)
        w = rng.standard_normal((4, 4))
        w /= np.linalg.norm(w)
        shapes = FactorShapeMatrix(((2, 2), (2, 2)))
        seq = sekron_decompose(w, shapes, (4,))
        assert reconstruction_error(w, seq) <= 1e-18

    def test_two_level_error_is_eckart_young_tail(self):
        rng = np.random.default_rng(10)
        w = rng.standard_normal((6, 6))
        shapes = FactorShapeMatrix(((2, 3), (3, 2)))
        m = kron_unfolding(w, shapes)
        s = np.linalg.svd(m, compute_uv=False)
        for r in range(1, 6):
            seq = sekron_decompose(w, shapes, (r,))
            tail = float(np.sum(s[r:] ** 2))
            assert reconstruction_error(w, seq) == pytest.approx(
                tail, rel=1e-9, abs=1e-18
            )

    def test_zero_tensor(self):
        shapes = FactorShapeMatrix(((2, 2), (2, 2)))
        factors = [np.zeros((1, 2, 2)), np.zeros((1, 2, 2))]
        seq = KroneckerSequence(shapes=shapes, ranks=(1,), factors=factors)
        assert reconstruction_error(np.zeros((4, 4)), seq) == 0.0

    def test_shape_mismatch(self):
        seq = random_sequence(FactorShapeMatrix(((2, 2), (2, 2))), (1,), rng=0)
        with pytest.raises(ShapeError):
            reconstruction_error(np.zeros((4, 5)), seq)


class TestLevelTails:
    @pytest.mark.parametrize(
        "rows, ranks",
        [
            (((2, 2, 1, 1), (2, 2, 3, 3)), (2,)),
            (((2, 2, 1, 1), (2, 1, 2, 1), (1, 2, 1, 2)), (2, 2)),
            (((2, 2),) * 4, (2, 2, 2)),
        ],
    )
    def test_tail_sum_is_exact_error(self, rows, ranks):
        shapes = FactorShapeMatrix(rows)
        assert all(r < cap for r, cap in zip(ranks, shapes.max_ranks()))
        rng = np.random.default_rng(len(rows))
        w = rng.standard_normal(shapes.target_shape)
        seq = sekron_decompose(w, shapes, ranks)
        assert [len(tails) for tails in seq.level_tails] == [
            math.prod(ranks[:k]) for k in range(len(ranks))
        ]
        exact = reconstruction_error(w, seq)
        assert exact > 0
        assert sum(map(sum, seq.level_tails)) == pytest.approx(exact, rel=1e-9, abs=0)

    @pytest.mark.parametrize(
        "rows",
        [
            ((3, 4), (4, 3)),
            ((2, 2, 1, 1), (2, 1, 2, 1), (1, 2, 1, 2)),
            ((2, 2),) * 4,
        ],
    )
    def test_full_ranks_discard_nothing(self, rows):
        # at full rank the tails are the rounding the factors leave, measured
        # like any other tail: they add up to the error, and both are tiny
        shapes = FactorShapeMatrix(rows)
        rng = np.random.default_rng(20 + len(rows))
        w = rng.standard_normal(shapes.target_shape)
        seq = sekron_decompose(w, shapes, shapes.max_ranks())
        assert len(seq.level_tails) == len(rows) - 1
        norm2 = float(np.sum(w * w))
        tails, exact = sum(map(sum, seq.level_tails)), reconstruction_error(w, seq)
        assert abs(tails - exact) <= 1e-12 * norm2
        assert 0 <= tails <= 1e-26 * norm2 and exact <= 1e-26 * norm2

    def test_none_unless_decomposed(self, tmp_path):
        shapes = FactorShapeMatrix(((2, 2), (2, 2)))
        assert random_sequence(shapes, (1,), rng=0).level_tails is None
        seq = sekron_decompose(np.ones((4, 4)), shapes, (1,))
        path = tmp_path / "seq.sks"
        write_sequence(path, seq)
        assert read_sequence(path).level_tails is None


class TestInvariants:
    @pytest.mark.parametrize(
        "rows",
        [
            ((3, 4), (4, 3)),
            ((2, 2, 3), (3, 5, 1), (4, 2, 7)),  # 24 x 20 x 21, ~1e4 elements
            ((2, 2), (2, 2), (2, 2), (2, 2)),
        ],
    )
    def test_full_rank_exactness_up_to_s4(self, rows):
        shapes = FactorShapeMatrix(rows)
        rng = np.random.default_rng(hash(rows) % 2**32)
        w = rng.standard_normal(shapes.target_shape)
        seq = sekron_decompose(w, shapes, shapes.max_ranks())
        assert rel_error(w, seq) <= 1e-9

    def test_rank_monotonicity(self):
        shapes = FactorShapeMatrix(((2, 2, 2), (2, 2, 1), (2, 1, 2)))
        caps = shapes.max_ranks()
        rng = np.random.default_rng(14)
        for _ in range(10):
            w = rng.standard_normal(shapes.target_shape)
            base = tuple(int(rng.integers(1, c)) for c in caps)
            err_base = reconstruction_error(w, sekron_decompose(w, shapes, base))
            for level in range(len(base)):
                bumped = tuple(
                    r + 1 if k == level else r for k, r in enumerate(base)
                )
                err_bumped = reconstruction_error(
                    w, sekron_decompose(w, shapes, bumped)
                )
                assert err_bumped <= err_base + 1e-12

    def test_param_count_matches_branch_weighted_volumes(self):
        shapes = FactorShapeMatrix(((2, 3, 1), (3, 1, 2), (1, 2, 2)))
        ranks = (2, 2)
        seq = random_sequence(shapes, ranks, rng=15)
        expected = sum(
            rho * volume for rho, volume in zip(seq.branch_sizes, shapes.volumes)
        )
        assert seq.param_count == expected

    def test_branch_sizes_match_the_closed_form(self):
        # factor k has prod(ranks[:k+1]) branches, the last factor sharing
        # the count of the one before it
        rng = np.random.default_rng(17)
        for s in range(1, 9):
            for _ in range(5):
                ranks = tuple(int(r) for r in rng.integers(1, 6, size=s - 1))
                closed = tuple(math.prod(ranks[: min(k, s - 2) + 1]) for k in range(s))
                assert _branch_sizes(ranks) == closed

    def test_deterministic_output(self):
        rng = np.random.default_rng(16)
        w = rng.standard_normal((4, 6))
        shapes = FactorShapeMatrix(((2, 2), (2, 3)))
        a = sekron_decompose(w, shapes, (2,))
        b = sekron_decompose(w.copy(), shapes, (2,))
        for fa, fb in zip(a.factors, b.factors):
            assert np.array_equal(fa, fb)


class TestSequenceValidation:
    def test_a_sequence_is_frozen_and_holds_tuples(self):
        shapes = FactorShapeMatrix(((2, 2), (2, 3)))
        seq = sekron_decompose(np.random.default_rng(7).standard_normal((4, 6)), shapes, (2,))
        assert type(seq.ranks) is tuple and type(seq.factors) is tuple
        assert type(seq.level_tails) is tuple
        assert all(type(tails) is tuple for tails in seq.level_tails)
        for name in ("shapes", "ranks", "factors", "level_tails"):
            with pytest.raises(FrozenInstanceError):
                setattr(seq, name, getattr(seq, name))
        # compared and hashed by identity, never by its arrays
        copy = replace(seq)
        assert seq == seq and seq != copy and len({seq, copy}) == 2
        # given as lists, tails are stored as tuples too; no iterable is a ShapeError
        rebuilt = replace(seq, level_tails=[list(tails) for tails in seq.level_tails])
        assert rebuilt.level_tails == seq.level_tails
        for tails in (5, [5]):
            with pytest.raises(ShapeError, match="level tails"):
                replace(seq, level_tails=tails)

    def test_factor_shape_mismatch_rejected(self):
        shapes = FactorShapeMatrix(((2, 2), (2, 2)))
        with pytest.raises(ShapeError):
            KroneckerSequence(
                shapes=shapes,
                ranks=(2,),
                factors=[np.ones((2, 2, 2)), np.ones((1, 2, 2))],
            )

    # a float, a bool or a string would otherwise be truncated or read as 1
    @pytest.mark.parametrize("rank", [1.9, 2.0, True, "1"])
    def test_non_integer_rank_is_a_rank_error(self, rank):
        shapes = FactorShapeMatrix(((2, 2), (2, 2)))
        w = np.random.default_rng(5).standard_normal((4, 4))
        calls = [
            lambda: random_sequence(shapes, (rank,), rng=0),
            lambda: stored_param_count(shapes, (rank,)),
            lambda: sekron_decompose(w, shapes, (rank,)),
            lambda: KroneckerSequence(shapes, (rank,), [np.ones((1, 2, 2))] * 2),
        ]
        for call in calls:
            with pytest.raises(RankError, match="rank"):
                call()

    # ranks that are not iterable at all, as a caller passing one rank for
    # a one-level sequence might write them
    @pytest.mark.parametrize("ranks", [2, None, 2.0], ids=["int", "none", "float"])
    def test_non_iterable_ranks_are_a_rank_error(self, ranks):
        shapes = FactorShapeMatrix(((2, 2), (2, 2)))
        w = np.random.default_rng(5).standard_normal((4, 4))
        calls = [
            lambda: stored_param_count(shapes, ranks),
            lambda: sekron_decompose(w, shapes, ranks),
            lambda: compression_ratio(shapes, ranks),
            lambda: flops_ratio(FactorShapeMatrix(((2, 2, 1, 1), (2, 2, 3, 3))), ranks),
            lambda: KroneckerSequence(shapes, ranks, [np.ones((2, 2, 2))] * 2),
        ]
        for call in calls:
            with pytest.raises(RankError, match="ranks must be a sequence of integers"):
                call()

    def test_numpy_integer_ranks_become_ints(self):
        shapes = FactorShapeMatrix(((2, 2), (2, 2)))
        w = np.random.default_rng(6).standard_normal((4, 4))
        seq = sekron_decompose(w, shapes, (np.int64(2),))
        assert seq.ranks == (2,) and type(seq.ranks[0]) is int
        assert stored_param_count(shapes, (np.int64(2),)) == stored_param_count(shapes, (2,))

    def test_embedding_ranks_may_exceed_decomposition_caps(self):
        # hand-built sequences (format embeddings) are not rank-capped
        shapes = FactorShapeMatrix(((2, 1), (1, 2)))
        seq = KroneckerSequence(
            shapes=shapes,
            ranks=(5,),
            factors=[np.ones((5, 2, 1)), np.ones((5, 1, 2))],
        )
        assert reconstruct(seq).shape == (2, 2)
