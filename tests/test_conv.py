"""Reference convolution and the equivalence of the factorized path."""

import numpy as np
import pytest

from sekron import (
    FactorShapeMatrix,
    KroneckerSequence,
    ShapeError,
    conv2d_reference,
    conv_macs,
    flops_denominator,
    random_sequence,
    reconstruct,
    sekron_conv2d,
    sekron_decompose,
)


class TestReferenceConv:
    def test_zero_input(self):
        w = np.ones((2, 3, 2, 2))
        out = conv2d_reference(np.zeros((1, 3, 4, 4)), w)
        assert np.array_equal(out, np.zeros((1, 2, 3, 3)))

    def test_one_by_one_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 1, 5, 5))
        w = np.ones((1, 1, 1, 1))
        assert np.array_equal(conv2d_reference(x, w), x)

    def test_hand_sum(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        w = np.ones((1, 1, 2, 2))
        out = conv2d_reference(x, w)
        assert out.shape == (1, 1, 1, 1)
        assert out[0, 0, 0, 0] == 10.0

    def test_padding_grows_output(self):
        x = np.ones((1, 1, 2, 2))
        w = np.ones((1, 1, 2, 2))
        out = conv2d_reference(x, w, padding=1)
        assert out.shape == (1, 1, 3, 3)
        assert out[0, 0, 1, 1] == 4.0
        assert out[0, 0, 0, 0] == 1.0

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            conv2d_reference(np.ones((1, 2, 4, 4)), np.ones((1, 3, 2, 2)))

    def test_kernel_larger_than_padded_input(self):
        with pytest.raises(ShapeError):
            conv2d_reference(np.ones((1, 1, 2, 2)), np.ones((1, 1, 4, 4)))


class TestSekronConv:
    def test_single_factor_equals_reference_exactly(self):
        rng = np.random.default_rng(1)
        w = rng.standard_normal((4, 3, 2, 2))
        seq = KroneckerSequence(
            shapes=FactorShapeMatrix(((4, 3, 2, 2),)), ranks=(), factors=[w[None]]
        )
        x = rng.standard_normal((2, 3, 5, 5))
        assert np.array_equal(sekron_conv2d(x, seq), conv2d_reference(x, w))

    def test_all_singleton_ones_is_identity(self):
        rows = ((1, 1, 1, 1), (1, 1, 1, 1))
        seq = KroneckerSequence(
            shapes=FactorShapeMatrix(rows),
            ranks=(1,),
            factors=[np.ones((1, 1, 1, 1, 1)), np.ones((1, 1, 1, 1, 1))],
        )
        rng = np.random.default_rng(2)
        x = rng.standard_normal((1, 1, 4, 4))
        assert np.allclose(sekron_conv2d(x, seq), x, atol=0)

    def test_three_factor_random_matches_oracle(self):
        rows = ((2, 2, 1, 1), (2, 2, 3, 1), (2, 2, 1, 3))
        seq = random_sequence(FactorShapeMatrix(rows), (2, 2), rng=3)
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 8, 6, 6))
        got = sekron_conv2d(x, seq)
        want = conv2d_reference(x, reconstruct(seq))
        assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)

    def test_decomposed_weights_match_oracle_with_padding(self):
        rng = np.random.default_rng(5)
        w = rng.standard_normal((4, 4, 3, 3))
        shapes = FactorShapeMatrix(((2, 2, 3, 1), (2, 2, 1, 3)))
        seq = sekron_decompose(w, shapes, (3,))
        x = rng.standard_normal((3, 4, 7, 7))
        got = sekron_conv2d(x, seq, padding=1)
        want = conv2d_reference(x, reconstruct(seq), padding=1)
        assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)

    def test_linearity(self):
        rows = ((2, 2, 1, 1), (2, 2, 2, 2))
        seq = random_sequence(FactorShapeMatrix(rows), (2,), rng=6)
        rng = np.random.default_rng(7)
        x1 = rng.standard_normal((1, 4, 5, 5))
        x2 = rng.standard_normal((1, 4, 5, 5))
        alpha, beta = 1.7, -0.4
        combined = sekron_conv2d(alpha * x1 + beta * x2, seq)
        separate = alpha * sekron_conv2d(x1, seq) + beta * sekron_conv2d(x2, seq)
        assert np.linalg.norm(combined - separate) <= 1e-10 * max(
            np.linalg.norm(separate), 1.0
        )

    def test_channel_mismatch(self):
        seq = random_sequence(
            FactorShapeMatrix(((2, 2, 1, 1), (2, 2, 3, 3))), (1,), rng=8
        )
        with pytest.raises(ShapeError):
            sekron_conv2d(np.ones((1, 3, 6, 6)), seq)

    def test_non_conv_axis_count_rejected(self):
        seq = random_sequence(FactorShapeMatrix(((2, 2), (2, 2))), (1,), rng=9)
        with pytest.raises(ShapeError):
            sekron_conv2d(np.ones((1, 4, 6, 6)), seq)


class TestConvMacs:
    def test_single_factor_is_dense_count(self):
        seq = random_sequence(FactorShapeMatrix(((4, 3, 2, 2),)), (), rng=10)
        # F*C*Kh*Kw per output position, 16 positions on a 5x5 input
        assert conv_macs(seq, (5, 5)) == 4 * 3 * 2 * 2 * 4 * 4

    def test_two_factor_worked_example(self):
        shapes = FactorShapeMatrix(((2, 2, 1, 1), (2, 2, 3, 3)))
        seq = random_sequence(shapes, (1,), rng=11)
        out_positions = (8 - 3 + 1) ** 2
        assert conv_macs(seq, (8, 8)) == 80 * out_positions

    def test_rank_scaling_matches_formula(self):
        shapes = FactorShapeMatrix(((2, 2, 1, 1), (2, 2, 3, 3)))
        for ranks in [(1,), (2,), (4,)]:
            seq = random_sequence(shapes, ranks, rng=12)
            assert conv_macs(seq, (6, 6)) == flops_denominator(shapes, ranks) * 16

    def test_agrees_with_formula_across_random_configs(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            rows = tuple(
                tuple(int(d) for d in rng.choice([1, 2], size=4)) for _ in range(3)
            )
            shapes = FactorShapeMatrix(rows)
            ranks = tuple(int(r) for r in rng.integers(1, 3, size=2))
            seq = random_sequence(shapes, ranks, rng=rng)
            kh, kw = shapes.target_shape[2], shapes.target_shape[3]
            h = kh + int(rng.integers(0, 4))
            w = kw + int(rng.integers(0, 4))
            positions = (h - kh + 1) * (w - kw + 1)
            assert conv_macs(seq, (h, w)) == flops_denominator(shapes, ranks) * positions


def test_equivalence_sweep():
    # mixed shapes/ranks/padding, sekron path vs reconstruct-then-convolve
    rng = np.random.default_rng(14)
    for trial in range(40):
        s = int(rng.integers(1, 5))
        dims = []
        for axis_pool in ([2, 4, 6], [2, 4, 6], [1, 2, 3], [1, 2, 3]):
            dims.append(int(rng.choice(axis_pool)))
        rows = []
        for _ in range(s):
            rows.append([1, 1, 1, 1])
        for n, d in enumerate(dims):
            remaining = d
            for k in range(s - 1):
                choices = [v for v in range(1, remaining + 1) if remaining % v == 0]
                pick = int(rng.choice(choices))
                rows[k][n] = pick
                remaining //= pick
            rows[s - 1][n] = remaining
        shapes = FactorShapeMatrix(tuple(tuple(r) for r in rows))
        ranks = tuple(int(rng.integers(1, 3)) for _ in range(s - 1))
        seq = random_sequence(shapes, ranks, rng=rng)
        padding = int(rng.integers(0, 2))
        batch = int(rng.integers(1, 4))
        h = dims[2] + int(rng.integers(0, 5))
        w = dims[3] + int(rng.integers(0, 5))
        x = rng.standard_normal((batch, dims[1], h, w))
        got = sekron_conv2d(x, seq, padding=padding)
        want = conv2d_reference(x, reconstruct(seq), padding=padding)
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-8 * max(np.linalg.norm(want), 1e-30)
