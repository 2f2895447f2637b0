"""Decomposition exactness, greedy truncation behavior, and the error bound."""

import itertools
import math

import numpy as np
import pytest

from sekron import (
    FactorShapeMatrix,
    KroneckerSequence,
    RankError,
    ShapeError,
    error_bound,
    kron_pair,
    kron_sequence,
    random_sequence,
    reconstruct,
    read_sequence,
    reconstruction_error,
    sekron_decompose,
    unfold_blocks,
    write_sequence,
)


def rel_error(w, seq):
    return math.sqrt(reconstruction_error(w, seq)) / np.linalg.norm(w)


class TestDecompose:
    def test_constructed_rank_one_instance(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((2, 2, 1, 1))
        b = rng.standard_normal((2, 2, 3, 3))
        w = kron_pair(a, b)
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

    def test_all_rank_one_is_plain_kron_sequence(self):
        rng = np.random.default_rng(6)
        rows = ((2, 2), (2, 1), (1, 3))
        factors = [rng.standard_normal((1,) + r) for r in rows]
        seq = KroneckerSequence(
            shapes=FactorShapeMatrix(rows), ranks=(1, 1), factors=factors
        )
        expected = kron_sequence([f[0] for f in factors])
        assert np.array_equal(reconstruct(seq), expected)

    def test_branch_flattening_is_row_major(self):
        # manual evaluation of the rank sums with branch = r0 * R1 + r1
        seq = random_sequence(
            FactorShapeMatrix(((2, 1), (2, 2), (1, 2))), (2, 3), rng=7
        )
        manual = np.zeros(seq.target_shape)
        for r0 in range(2):
            for r1 in range(3):
                manual += kron_sequence(
                    [
                        seq.factors[0][r0],
                        seq.factors[1][r0 * 3 + r1],
                        seq.factors[2][r0 * 3 + r1],
                    ]
                )
        assert np.array_equal(reconstruct(seq), manual)

    def test_decompose_reconstruct_roundtrip(self):
        rng = np.random.default_rng(8)
        w = rng.standard_normal((4, 6))
        shapes = FactorShapeMatrix(((2, 2), (2, 3)))
        seq = sekron_decompose(w, shapes, (shapes.full_rank(0),))
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
        m = unfold_blocks(w, (3, 2))[0]
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


class TestErrorBound:
    def test_full_ranks_give_zero(self):
        rng = np.random.default_rng(11)
        w = rng.standard_normal((4, 4, 2, 2))
        shapes = FactorShapeMatrix(((2, 2, 1, 1), (2, 1, 2, 1), (1, 2, 1, 2)))
        full = shapes.max_ranks()
        assert error_bound(w, shapes, full) == 0.0

    def test_two_level_bound_is_tail_energy(self):
        rng = np.random.default_rng(12)
        w = rng.standard_normal((6, 6))
        shapes = FactorShapeMatrix(((3, 2), (2, 3)))
        m = unfold_blocks(w, (2, 3))[0]
        s = np.linalg.svd(m, compute_uv=False)
        for r in range(1, 7):
            tail = float(np.sum(s[r:] ** 2))
            assert error_bound(w, shapes, (r,)) == pytest.approx(
                tail, rel=1e-12, abs=1e-18
            )

    def test_bound_dominates_error_monte_carlo(self):
        shapes = FactorShapeMatrix(((2, 2, 1, 1), (2, 1, 2, 1), (1, 2, 1, 2)))
        for seed in range(100):
            rng = np.random.default_rng(1000 + seed)
            w = rng.standard_normal((4, 4, 2, 2))
            seq = sekron_decompose(w, shapes, (1, 1))
            assert reconstruction_error(w, seq) <= error_bound(w, shapes, (1, 1)) + 1e-9


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
            rho * shapes.factor_volume(k) for k, rho in enumerate(seq.branch_sizes)
        )
        assert seq.param_count == expected

    def test_deterministic_output(self):
        rng = np.random.default_rng(16)
        w = rng.standard_normal((4, 6))
        shapes = FactorShapeMatrix(((2, 2), (2, 3)))
        a = sekron_decompose(w, shapes, (2,))
        b = sekron_decompose(w.copy(), shapes, (2,))
        for fa, fb in zip(a.factors, b.factors):
            assert np.array_equal(fa, fb)


class TestSequenceValidation:
    def test_factor_shape_mismatch_rejected(self):
        shapes = FactorShapeMatrix(((2, 2), (2, 2)))
        with pytest.raises(ShapeError):
            KroneckerSequence(
                shapes=shapes,
                ranks=(2,),
                factors=[np.ones((2, 2, 2)), np.ones((1, 2, 2))],
            )

    def test_embedding_ranks_may_exceed_decomposition_caps(self):
        # hand-built sequences (format embeddings) are not rank-capped
        shapes = FactorShapeMatrix(((2, 1), (1, 2)))
        seq = KroneckerSequence(
            shapes=shapes,
            ranks=(5,),
            factors=[np.ones((5, 2, 1)), np.ones((5, 1, 2))],
        )
        assert reconstruct(seq).shape == (2, 2)
