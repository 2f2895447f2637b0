"""Reference convolution and the equivalence of the factorized path."""

import dataclasses
import functools
import itertools
import math
import operator
import tracemalloc

import numpy as np
import pytest

import sekron.conv
import sekron.planner
from sekron import (
    FactorShapeMatrix,
    KroneckerSequence,
    PlanRequest,
    RankError,
    ShapeError,
    conv2d_reference,
    conv_macs,
    enumerate_configs,
    flops_ratio,
    from_cp,
    from_tr,
    from_tt,
    from_tucker,
    measure_sequence_latency,
    reconstruct,
    sekron_conv2d,
    sekron_decompose,
    write_sequence,
)
from oracles import executed_conv_macs, random_factors, random_sequence, stage_mac_count


def per_tap_conv(x, w, padding=0):
    """Independent oracle: ``out[b,f,x,y] = sum w[f,c,i,j] * xp[b,c,i+x,j+y]``,
    one einsum per kernel tap."""
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    kh, kw = w.shape[2:]
    out_h, out_w = xp.shape[2] - kh + 1, xp.shape[3] - kw + 1
    out = np.zeros((x.shape[0], w.shape[0], out_h, out_w))
    for i in range(kh):
        for j in range(kw):
            out += np.einsum(
                "fc,bcuv->bfuv", w[:, :, i, j], xp[:, :, i : i + out_h, j : j + out_w]
            )
    return out


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

    def test_matches_per_tap_oracle(self):
        rng = np.random.default_rng(15)
        for _ in range(30):
            f, c, kh, kw = (int(v) for v in rng.integers(1, 6, size=4))
            batch = int(rng.integers(1, 4))
            padding = int(rng.integers(0, 3))
            h = max(kh - 2 * padding, 1) + int(rng.integers(0, 6))
            w = max(kw - 2 * padding, 1) + int(rng.integers(0, 6))
            x = rng.standard_normal((batch, c, h, w))
            weights = rng.standard_normal((f, c, kh, kw))
            got = conv2d_reference(x, weights, padding=padding)
            want = per_tap_conv(x, weights, padding=padding)
            assert got.shape == want.shape
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


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

    def test_spatial_taps_in_two_factors(self):
        # factor 0's 3x3 taps run at dilation 3 inside the composed 9x9 kernel
        seq = random_sequence(
            FactorShapeMatrix(((2, 2, 3, 3), (2, 2, 3, 3))), (2,), rng=16
        )
        x = np.random.default_rng(17).standard_normal((2, 4, 6, 7))
        got = sekron_conv2d(x, seq, padding=4)
        want = conv2d_reference(x, reconstruct(seq), padding=4)
        assert got.shape == (2, 4, 6, 7)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_fan_out_stage_works_one_image_at_a_time(self):
        # Batch 8, with the 3x3 factor on the fan-out stage.  Beyond the
        # padded input and the result, only one image's stage output and
        # columns are live at a time; a whole-batch GEMM would hold all 8.
        seq = random_sequence(
            FactorShapeMatrix(((16, 16, 1, 1), (4, 4, 3, 3))), (4,), rng=18
        )
        x = np.random.default_rng(19).standard_normal((8, 64, 16, 16))
        padded = 8 * 64 * 18 * 18
        result = 8 * 64 * 16 * 16
        fan_out = (4 * 4) * 16 * 16 * 16  # branches x f, groups, H, W
        columns = (4 * 3 * 3) * 16 * 16 * 16  # (c, i, j) by (groups, H, W)
        budget = 8 * (padded + result + 2 * (fan_out + columns))
        tracemalloc.start()
        try:
            sekron_conv2d(x, seq, padding=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < budget

    def test_non_conv_axis_count_rejected(self):
        seq = random_sequence(FactorShapeMatrix(((2, 2), (2, 2))), (1,), rng=9)
        with pytest.raises(ShapeError):
            sekron_conv2d(np.ones((1, 4, 6, 6)), seq)
        # a weight with one axis has no channel count to build the input from
        for rows in [((2, 2), (2, 2)), ((2,), (2,))]:
            seq = random_sequence(FactorShapeMatrix(rows), (1,), rng=9)
            with pytest.raises(ShapeError, match="weights must be"):
                conv_macs(seq, (6, 6))


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
            assert conv_macs(seq, (6, 6)) == per_position_macs(shapes, ranks, False) * 16

    def test_counts_executed_macs_across_sweep_cases(self):
        # S = 1..4 with taps split across factors: a stage that runs before
        # a tapped stage also writes the border that the taps read, in the
        # stage order the conv runs
        for seq, x, padding in itertools.chain(sweep_cases(), factor0_first_cases()):
            hw = x.shape[2:]
            first, *_ = sekron.conv._cheaper_schedule(seq.shapes, seq.ranks)
            assert conv_macs(seq, hw, padding) == executed_conv_macs(seq, hw, padding, first)

    def test_border_of_early_stages_is_counted(self):
        # stages run factor 2, 1, 0 at 9x5, 7x5 and 3x3 positions with 64,
        # 32 and 32 MACs per position over all branches; the per-position
        # count times the 3x3 output gives (64 + 32 + 32) * 9 = 1,152
        shapes = FactorShapeMatrix.from_string("2x2x2x2,1x2x2x1,1x1x2x2")
        seq = random_sequence(shapes, (2, 2), rng=25)
        assert conv_macs(seq, (10, 6)) == 64 * 45 + 32 * 35 + 32 * 9 == 4288
        assert flops_ratio(shapes, (2, 2)) == math.prod(shapes.target_shape) / 128

    def test_stage_terms_match_counted_macs(self):
        rng = np.random.default_rng(20)
        for _ in range(30):
            s = int(rng.integers(1, 5))
            rows = tuple(
                tuple(int(d) for d in rng.integers(1, 4, size=4)) for _ in range(s)
            )
            shapes = FactorShapeMatrix(rows)
            stages = stage_mac_count(shapes)
            assert list(sekron.planner._fr_terms(shapes)) == stages
            # at rank 1 each stage's record holds its GEMMs' MACs, the
            # counted term, in either order
            for first in (False, True):
                gemm = [0] * s
                for stage in sekron.conv._schedule(shapes, (1,) * (s - 1), first):
                    assert stage.macs == stage.batch * stage.m * stage.kdim * stage.n
                    gemm[stage.k] = stage.macs
                assert gemm == stage_mac_count(shapes, factor0_first=first)
            ranks = tuple(int(r) for r in rng.integers(1, 4, size=s - 1))
            # the records sum to the counted terms over all branches, and FR
            # divides the dense count by that sum
            macs = sum(stage.macs for stage in sekron.conv._schedule(shapes, ranks))
            assert macs == per_position_macs(shapes, ranks, False)
            assert flops_ratio(shapes, ranks) == math.prod(shapes.target_shape) / macs


@pytest.mark.parametrize("padding", [1.0, 1.5, "1", True])
def test_non_integer_padding_is_a_shape_error(padding):
    seq = random_sequence(FactorShapeMatrix(((2, 2, 1, 1), (2, 2, 3, 3))), (1,), rng=21)
    x = np.ones((1, 4, 5, 5))
    with pytest.raises(ShapeError, match="padding"):
        sekron_conv2d(x, seq, padding=padding)
    with pytest.raises(ShapeError, match="padding"):
        conv2d_reference(x, reconstruct(seq), padding=padding)
    with pytest.raises(ShapeError, match="padding"):
        conv_macs(seq, (5, 5), padding)


def _write_and_read_back(seq, path):
    write_sequence(path, seq)
    return path.read_bytes()


# the four consumers of a sequence, each as a function of the sequence and
# the path write_sequence writes to, returning a result an array comparison
# can check bit for bit
_CONSUMERS = pytest.mark.parametrize(
    "consume",
    [
        lambda seq, path: sekron_conv2d(np.ones((1, 4, 5, 5)), seq, padding=1),
        lambda seq, path: reconstruct(seq),
        lambda seq, path: conv_macs(seq, (5, 5), 1),
        _write_and_read_back,
    ],
    ids=["sekron_conv2d", "reconstruct", "conv_macs", "write_sequence"],
)

# each change an open record would take on a 2x2x1x1,4x2x3x3 sequence of
# rank 2, and the error the frozen record raises where the change is made:
# its fields cannot be assigned and its factors are a tuple
_CHANGES = [
    ("swap", lambda seq: seq.factors.__setitem__(0, np.ones((2, 1, 4, 1, 1))), AttributeError),
    ("item", lambda seq: operator.setitem(seq.factors, 0, np.ones((2, 2, 2, 1, 1))), TypeError),
    ("pop", lambda seq: seq.factors.pop(), AttributeError),
    ("append", lambda seq: seq.factors.append(np.ones(3)), AttributeError),
    ("ranks", lambda seq: setattr(seq, "ranks", ()), dataclasses.FrozenInstanceError),
    ("float rank", lambda seq: setattr(seq, "ranks", (2.0,)), dataclasses.FrozenInstanceError),
    ("factors", lambda seq: setattr(seq, "factors", None), dataclasses.FrozenInstanceError),
    ("shapes", lambda seq: setattr(seq, "shapes", FactorShapeMatrix.from_string("4x4x3x3")),
     dataclasses.FrozenInstanceError),
    ("delete ranks", lambda seq: delattr(seq, "ranks"), dataclasses.FrozenInstanceError),
]


@_CONSUMERS
def test_a_factor_swapped_in_after_construction_is_refused(consume, tmp_path):
    # a change to a built sequence is refused where it is made, not by the
    # consumer that reads it later: each consumer then gives the unchanged
    # sequence's result.  A warm call comes first, so the conv's memo holds
    # the geometry of these shapes and ranks
    shapes = FactorShapeMatrix.from_string("2x2x1x1,4x2x3x3")
    for name, change, error in _CHANGES:
        seq = random_sequence(shapes, (2,), rng=28)
        want = consume(seq, tmp_path / "unchanged.sks")
        with pytest.raises(error):
            change(seq)
        got = consume(seq, tmp_path / f"{name}.sks")
        assert type(got) is type(want) and np.array_equal(got, want), name


# each change of the fields of a 2x2x1x1,4x2x3x3 sequence of the given rank,
# made by building a new sequence, with the error the constructor raises and
# its message, or None where the new sequence is still the same sequence
_REBUILT = [
    # 8 elements, like the (2, 2, 2, 1, 1) it replaces, so every reshape would succeed
    ("swap", (2,), lambda f: {"factors": (np.ones((2, 1, 4, 1, 1)), f[1])},
     ShapeError, r"factor 0 has shape \(2, 1, 4, 1, 1\), expected an array of shape \(2, 2, 2"),
    ("one branch", (2,), lambda f: {"factors": (f[0][:1], f[1])},
     ShapeError, r"factor 0 has shape \(1, 2, 2, 1, 1\)"),
    ("nested list", (2,), lambda f: {"factors": (f[0].tolist(), f[1])}, None, None),
    ("pop", (2,), lambda f: {"factors": f[:1]}, ShapeError, "expected 2 factors, got 1"),
    ("append", (2,), lambda f: {"factors": (*f, np.ones(3))},
     ShapeError, "expected 2 factors, got 3"),
    ("no ranks", (2,), lambda f: {"ranks": ()}, RankError, "need 1 ranks"),
    ("float rank", (2,), lambda f: {"ranks": (2.0,)}, RankError, "integer"),
    # True == 1, so only the type can refuse it
    ("bool rank", (1,), lambda f: {"ranks": (True,)}, RankError, "bool"),
    ("list of ranks", (2,), lambda f: {"ranks": [2]}, None, None),
    ("numpy rank", (2,), lambda f: {"ranks": (np.int64(2),)}, None, None),
    # not iterable at all: refused as the ranks or the factors they are
    ("int ranks", (2,), lambda f: {"ranks": 2}, RankError,
     "ranks must be a sequence of integers, got 2"),
    ("none ranks", (2,), lambda f: {"ranks": None}, RankError,
     "ranks must be a sequence of integers, got None"),
    ("none factors", (2,), lambda f: {"factors": None}, ShapeError,
     "factors must be a sequence of arrays, got None"),
]


@_CONSUMERS
def test_a_changed_sequence_is_refused_when_it_is_built(consume, tmp_path):
    # the one check of a sequence is its constructor's: a change it refuses
    # raises ShapeError or RankError, never a raw Python error, so no
    # consumer is ever given the changed sequence; a change to fields of
    # another type but the same values gives the unchanged sequence's result
    shapes = FactorShapeMatrix.from_string("2x2x1x1,4x2x3x3")
    for name, ranks, fields, error, message in _REBUILT:
        seq = random_sequence(shapes, ranks, rng=28)
        want = consume(seq, tmp_path / "unchanged.sks")
        if error is None:
            got = consume(dataclasses.replace(seq, **fields(seq.factors)), tmp_path / f"{name}.sks")
            assert type(got) is type(want) and np.array_equal(got, want), name
        else:
            with pytest.raises(error, match=message):
                dataclasses.replace(seq, **fields(seq.factors))


@_CONSUMERS
def test_a_factor_shape_changed_in_place_changes_no_result(consume, tmp_path):
    # the one change a frozen sequence still takes: a factor's own shape,
    # set in place to another of the same size.  No consumer reads it; each
    # takes every size from the shapes and ranks, so each gives the
    # unchanged sequence's result bit for bit, and the file its bytes
    shapes = FactorShapeMatrix.from_string("2x2x1x1,4x2x3x3")
    for k in range(2):
        seq = random_sequence(shapes, (2,), rng=28)
        want = consume(seq, tmp_path / "unchanged.sks")
        seq.factors[k].shape = (seq.factors[k].size,)
        got = consume(seq, tmp_path / f"reshaped{k}.sks")
        assert type(got) is type(want) and np.array_equal(got, want), k


@pytest.mark.parametrize("padding", [True, 1.0, "1"])
def test_bad_padding_is_refused_after_a_warm_call(padding):
    # True == 1.0 == 1 and they hash alike, so a memo looked up before the
    # check would hand them the entry padding=1 left
    seq = random_sequence(FactorShapeMatrix(((2, 2, 1, 1), (2, 2, 3, 3))), (1,), rng=21)
    x = np.ones((1, 4, 5, 5))
    sekron_conv2d(x, seq, padding=1)
    conv_macs(seq, (5, 5), 1)
    with pytest.raises(ShapeError, match="padding"):
        sekron_conv2d(x, seq, padding=padding)
    with pytest.raises(ShapeError, match="padding"):
        conv_macs(seq, (5, 5), padding)


# the first runs last factor first, the second factor 0 first
@pytest.mark.parametrize(
    "text, ranks", [("2x2x3x1,2x2x1x3", (2,)), ("1x4x3x1,2x2x1x3,4x1x1x1", (2, 2))]
)
def test_memo_holds_no_values(text, ranks):
    # two input sizes, two paddings, batch 4 then 1, and factor 0 edited in
    # place before every call: each call must see the values it is given,
    # and the two batch sizes share one memo entry
    seq = random_sequence(FactorShapeMatrix.from_string(text), ranks, rng=30)
    rng = np.random.default_rng(31)
    sekron.conv._geometry.cache_clear()
    for hw in [(5, 6), (8, 7)]:
        for padding in (0, 1):
            for batch in (4, 1):
                seq.factors[0][...] *= rng.uniform(0.5, 2.0, size=seq.factors[0].shape)
                x = rng.standard_normal((batch, seq.target_shape[1], *hw))
                got = sekron_conv2d(x, seq, padding=padding)
                want = conv2d_reference(x, reconstruct(seq), padding=padding)
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    info = sekron.conv._geometry.cache_info()
    assert (info.misses, info.hits, info.maxsize) == (4, 4, 1024)


def test_enumerated_and_parsed_matrices_share_a_memo_entry():
    # the enumeration builds its matrices without re-reading the rows
    # (FactorShapeMatrix._of_ints); they must equal and hash as parsed ones
    # do, so the conv's memo keeps one entry for both
    text = "2x2x1x1,2x2x3x3"
    sweep = enumerate_configs(PlanRequest((4, 4, 3, 3), 2, 2.0, max_rank=1))
    enumerated = next(g.shapes for g in sweep.groups if g.shapes.to_string() == text)
    parsed = FactorShapeMatrix.from_string(text)
    assert enumerated is not parsed
    assert enumerated == parsed and hash(enumerated) == hash(parsed)
    x = np.ones((1, 4, 5, 5))
    sekron.conv._geometry.cache_clear()
    for shapes in (enumerated, parsed):
        sekron_conv2d(x, random_sequence(shapes, (1,), rng=32), padding=1)
    info = sekron.conv._geometry.cache_info()
    assert (info.misses, info.hits) == (1, 1)


@pytest.mark.parametrize(
    "hw",
    [(5.9, 5), (5.0, 5), (5, True), (5,), (5, 5, 5), (0, 5)],
    ids=["float", "integral-float", "bool", "short", "long", "zero"],
)
def test_non_integer_input_size_is_a_shape_error(hw):
    seq = random_sequence(FactorShapeMatrix(((2, 2, 1, 1), (2, 2, 3, 3))), (1,), rng=24)
    with pytest.raises(ShapeError, match="input size"):
        conv_macs(seq, hw, 1)
    with pytest.raises(ShapeError, match="input shape"):
        measure_sequence_latency(seq, (1, 4) + hw, trials=3, padding=1)


def test_numpy_integer_padding_is_accepted():
    seq = random_sequence(FactorShapeMatrix(((2, 2, 1, 1), (2, 2, 3, 3))), (1,), rng=22)
    x = np.random.default_rng(23).standard_normal((1, 4, 5, 5))
    one = np.int64(1)
    assert np.array_equal(sekron_conv2d(x, seq, padding=one), sekron_conv2d(x, seq, padding=1))
    dense = reconstruct(seq)
    assert np.array_equal(conv2d_reference(x, dense, padding=one), conv2d_reference(x, dense, 1))
    assert conv_macs(seq, (5, 5), one) == conv_macs(seq, (5, 5), 1)
    assert conv_macs(seq, (np.int64(5), np.int32(5)), 1) == conv_macs(seq, (5, 5), 1)


def test_a_tall_padded_image_is_counted_in_one_sum_over_the_stages():
    # the values the bands x stages sum gave, over 20,003 and 200,003 bands
    seq = random_sequence(FactorShapeMatrix.from_string("2x2x1x1,4x2x3x3"), (2,), rng=0)
    assert conv_macs(seq, (5, 5), 10**4) == 128_038_402_880
    assert conv_macs(seq, (5, 5), 10**5) == 12_800_384_002_880
    # the memo holds the band height, and at most two slab heights
    _, step, slabs = sekron.conv._geometry(seq.shapes, (2,), 5, 5, 10**5, sekron.conv._BAND_BYTES)
    assert type(step) is int and len(slabs) <= 2


def test_padding_no_array_can_hold_is_a_shape_error():
    # a float64 1x4x5x5 input padded to 2**29 - 1 rows and columns spans
    # fewer bytes than np.intp counts, and one padded to 2**29 + 1 more
    seq = random_sequence(FactorShapeMatrix.from_string("2x2x1x1,4x2x3x3"), (2,), rng=0)
    assert conv_macs(seq, (5, 5), 2**28 - 3) > 0
    x = np.ones((1, 4, 5, 5))
    for padding in (2**28 - 2, 10**22):
        with pytest.raises(ShapeError, match="exceeds any array"):
            conv_macs(seq, (5, 5), padding)
        with pytest.raises(ShapeError, match="exceeds any array"):
            sekron_conv2d(x, seq, padding)
        with pytest.raises(ShapeError, match="exceeds any array"):
            conv2d_reference(x, reconstruct(seq), padding)


def sweep_cases():
    """Mixed shapes/ranks/padding at S = 1..4: (seq, x, padding) per trial."""
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
        yield seq, x, padding


def test_equivalence_sweep():
    # sekron path vs reconstruct-then-convolve
    for seq, x, padding in sweep_cases():
        got = sekron_conv2d(x, seq, padding=padding)
        want = conv2d_reference(x, reconstruct(seq), padding=padding)
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-8 * max(np.linalg.norm(want), 1e-30)


def test_images_independent_of_batch():
    for seq, x, padding in sweep_cases():
        batched = sekron_conv2d(x, seq, padding=padding)
        for i in range(x.shape[0]):
            alone = sekron_conv2d(x[i : i + 1], seq, padding=padding)
            assert np.array_equal(batched[i : i + 1], alone)


@pytest.mark.parametrize("band_bytes", [1, sekron.conv._BAND_BYTES], ids=["one-row", "default"])
def test_only_padding_fills_a_slab(monkeypatch, band_bytes):
    # without padding every band reads its rows straight from the image and
    # no slab is filled; with padding every band of every image fills one
    monkeypatch.setattr("sekron.conv._BAND_BYTES", band_bytes)
    fill_slab = sekron.conv._fill_slab

    def no_fill(*args):
        raise AssertionError("a slab was filled without padding")

    monkeypatch.setattr("sekron.conv._fill_slab", no_fill)
    for seq, x, _ in sweep_cases():
        got = sekron_conv2d(x, seq, padding=0)
        want = conv2d_reference(x, reconstruct(seq), padding=0)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        for i in range(x.shape[0]):
            assert np.array_equal(got[i : i + 1], sekron_conv2d(x[i : i + 1], seq, padding=0))
        # the windows are views of x, which may be read-only
        x.setflags(write=False)
        assert np.array_equal(got, sekron_conv2d(x, seq, padding=0))
    fills = []
    monkeypatch.setattr("sekron.conv._fill_slab", lambda *args: fills.append(fill_slab(*args)))
    for seq, x, _ in sweep_cases():
        before = len(fills)
        sekron_conv2d(x, seq, padding=1)
        assert len(fills) - before == x.shape[0] * band_count(seq, x, 1)


def geometry(seq, x, padding):
    """The conv's memoized :func:`sekron.conv._geometry` for ``seq`` on ``x``."""
    return sekron.conv._geometry(
        seq.shapes, seq.ranks, *x.shape[2:], padding, sekron.conv._BAND_BYTES
    )


def output_rows(seq, x, padding):
    return x.shape[2] + 2 * padding - seq.target_shape[2] + 1


def band_count(seq, x, padding):
    """The bands the conv runs per image, ``ceil(out_h / step)`` for the
    band height ``step`` of its geometry."""
    return -(-output_rows(seq, x, padding) // geometry(seq, x, padding)[1])


class CountingNumpy:
    """numpy, with the MACs of every ``matmul`` added up: a GEMM-by-GEMM
    tally, each matrix of a stacked product counted."""

    def __init__(self):
        self.macs = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, a, b, **kwargs):
        stack = math.prod(np.broadcast_shapes(a.shape[:-2], b.shape[:-2]))
        self.macs += stack * a.shape[-2] * a.shape[-1] * b.shape[-1]
        return np.matmul(a, b, **kwargs)


class RecordingNumpy:
    """numpy, with the ``out`` array of every ``matmul`` appended to
    ``outs``."""

    def __init__(self, outs):
        self.outs = outs

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, a, b, out):
        self.outs.append(out)
        return np.matmul(a, b, out=out)


class TestBands:
    def test_one_row_bands_match_reference(self, monkeypatch):
        monkeypatch.setattr("sekron.conv._BAND_BYTES", 1)
        for seq, x, padding in sweep_cases():
            assert geometry(seq, x, padding)[1] == 1
            got = sekron_conv2d(x, seq, padding=padding)
            want = conv2d_reference(x, reconstruct(seq), padding=padding)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("band_bytes", [1, sekron.conv._BAND_BYTES], ids=["one-row", "default"])
    def test_conv_macs_is_the_gemm_tally(self, monkeypatch, band_bytes):
        monkeypatch.setattr("sekron.conv._BAND_BYTES", band_bytes)
        counter = CountingNumpy()
        monkeypatch.setattr("sekron.conv.np", counter)
        recomputed = 0
        for seq, x, padding in sweep_cases():
            before = counter.macs
            sekron_conv2d(x, seq, padding=padding)
            hw = x.shape[2:]
            assert conv_macs(seq, hw, padding) * x.shape[0] == counter.macs - before
            first, *_ = sekron.conv._cheaper_schedule(seq.shapes, seq.ranks)
            recomputed += conv_macs(seq, hw, padding) > executed_conv_macs(seq, hw, padding, first)
        # 1-row bands recompute the border rows that a tapped factor other
        # than the last reads; one band per image recomputes nothing
        assert (recomputed > 0) == (band_bytes == 1)

    def test_band_bytes_are_not_read_from_a_warm_memo(self, monkeypatch):
        # the default bands are memoized first; the one-row bands asked for
        # next must run, and recompute border rows, in the GEMMs themselves
        for seq, x, padding in sweep_cases():
            sekron_conv2d(x, seq, padding=padding)
        monkeypatch.setattr("sekron.conv._BAND_BYTES", 1)
        counter = CountingNumpy()
        monkeypatch.setattr("sekron.conv.np", counter)
        recomputed = 0
        for seq, x, padding in sweep_cases():
            before = counter.macs
            sekron_conv2d(x, seq, padding=padding)
            first, _ = sekron.conv._cheaper_schedule(seq.shapes, seq.ranks)
            executed = executed_conv_macs(seq, x.shape[2:], padding, first)
            recomputed += counter.macs - before > x.shape[0] * executed
        assert recomputed > 0

    def test_peak_memory_stays_within_a_few_bands(self):
        # at 2 rows a band the tapped stage's columns are the largest buffer,
        # about 1 MB; columns of the whole image would be 58 MB
        seq = random_sequence(FactorShapeMatrix(((16, 16, 1, 1), (4, 4, 3, 3))), (4,), rng=26)
        x = np.random.default_rng(27).standard_normal((1, 64, 112, 112))
        result = x.nbytes
        tracemalloc.start()
        try:
            sekron_conv2d(x, seq, padding=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < result + 4 * sekron.conv._BAND_BYTES


# Sequences the rule runs factor 0 first: channel-heavy early factors, S =
# 2..4, taps on factors other than the last, with and without padding.
FACTOR0_FIRST = [
    ("1x8x3x1,4x1x1x3", (2,), 1),
    ("1x4x3x3,4x1x1x1", (3,), 1),
    ("2x16x1x1,16x1x1x1", (4,), 0),
    ("1x4x3x1,1x2x1x3,4x1x1x1", (2, 2), 1),  # f_1 = 1: the last stage's columns are a view
    ("1x4x3x1,2x2x1x3,4x1x1x1", (2, 2), 1),  # f_1 = 2: the last stage gathers them
    ("1x4x3x1,2x2x1x3,4x1x1x1", (1, 2), 1),  # r_0 = 1: f_1 separates no rank digits
    ("1x4x1x1,2x2x3x1,4x1x1x3", (2, 2), 0),
    ("1x2x1x1,1x2x3x1,2x2x1x1,4x1x1x3", (2, 2, 2), 1),
    ("1x2x3x1,2x2x1x1,1x2x1x3,4x1x1x1", (2, 1, 2), 1),
]


def factor0_first_cases():
    """(seq, x, padding) per entry of FACTOR0_FIRST, on a batch of 2."""
    rng = np.random.default_rng(28)
    for text, ranks, padding in FACTOR0_FIRST:
        shapes = FactorShapeMatrix.from_string(text)
        seq = random_sequence(shapes, ranks, rng=rng)
        _, c, kh, kw = shapes.target_shape
        x = rng.standard_normal((2, c, kh + 3, kw + 4))
        yield seq, x, padding


def per_position_macs(shapes, ranks, factor0_first):
    """The counted per-branch stage MACs of one order, over all branches."""
    s = shapes.num_factors
    branches = [math.prod(ranks[: min(k, s - 2) + 1]) for k in range(s)]
    return sum(b * t for b, t in zip(branches, stage_mac_count(shapes, factor0_first)))


def force_order(monkeypatch, first):
    """Run the factorized conv, and count its MACs, in stage order ``first``
    whatever the rule would pick, through a fresh geometry memo: an entry
    the rule's order left in the package's memo is never read, and the
    forced order leaves none there."""
    monkeypatch.setattr(
        "sekron.conv._cheaper_schedule",
        lambda shapes, ranks: (first, sekron.conv._schedule(shapes, ranks, first)),
    )
    memo = functools.lru_cache(maxsize=None)(sekron.conv._geometry.__wrapped__)
    monkeypatch.setattr("sekron.conv._geometry", memo)


@pytest.fixture(params=[False, True], ids=["last-first", "factor0-first"])
def stage_order(request, monkeypatch):
    """Each test that takes it runs once in each stage order (:func:`force_order`)."""
    force_order(monkeypatch, request.param)
    return request.param


# the ranks of each format's factors of a (4, 3, 3, 3) weight
EMBEDDING_RANKS = {"cp": 3, "tucker": (2, 3, 2, 2), "tt": (2, 3, 2), "tr": (2, 3, 2, 2)}


def embedding(fmt):
    """4-D CP, Tucker, TT or TR factors of a ``(4, 3, 3, 3)`` weight,
    embedded as a Kronecker sequence."""
    factors = random_factors(fmt, (4, 3, 3, 3), EMBEDDING_RANKS[fmt], rng=61)
    return {"cp": from_cp, "tucker": from_tucker, "tt": from_tt, "tr": from_tr}[fmt](factors)


# the one factorized conv runs every structure the sequences embed
@pytest.mark.parametrize("padding", [0, 1])
@pytest.mark.parametrize("fmt", ["cp", "tucker", "tt", "tr"])
def test_conv_runs_every_embedding(monkeypatch, fmt, padding):
    seq = embedding(fmt)
    x = np.random.default_rng(62).standard_normal((2, 3, 7, 6))
    want = conv2d_reference(x, reconstruct(seq), padding)
    counter = CountingNumpy()
    monkeypatch.setattr("sekron.conv.np", counter)
    got = sekron_conv2d(x, seq, padding)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    assert conv_macs(seq, x.shape[2:], padding) * x.shape[0] == counter.macs


class TestStageOrder:
    def test_rule_runs_channel_heavy_sequences_factor0_first(self):
        for seq, _, _ in factor0_first_cases():
            first, *_ = sekron.conv._cheaper_schedule(seq.shapes, seq.ranks)
            assert first, seq.shapes.to_string()
            assert per_position_macs(seq.shapes, seq.ranks, True) < per_position_macs(
                seq.shapes, seq.ranks, False
            )

    def test_worked_example_runs_factor0_first(self):
        # last factor first: a fan-out to 256 outputs for each of 128
        # groups, then a sum over those 128 groups for every f_1, 65,536
        # MACs per position; factor 0 first: 128 then 256, 384
        shapes = FactorShapeMatrix.from_string("1x128x1x1,256x1x1x1")
        assert per_position_macs(shapes, (1,), False) == 65536
        assert flops_ratio(shapes, (1,)) == 256 * 128 / 65536
        assert per_position_macs(shapes, (1,), True) == 384
        seq = random_sequence(shapes, (1,), rng=29)
        assert conv_macs(seq, (7, 7)) == 384 * 49

    @pytest.mark.parametrize(
        "text, ranks, first",
        [
            # every 3x3 layer keeps the order it ran in before: factor 0
            # first would copy more window elements, or run no fewer MACs
            ("16x16x1x1,4x4x3x3", (4,), False),
            ("4x4x1x1,4x4x1x1,8x4x3x3", (4, 2), False),
            ("16x8x1x1,8x16x3x3", (4,), False),
            ("4x4x1x1,8x4x1x1,8x8x3x3", (2, 4), False),
            ("8x8x1x1,4x4x1x1,8x8x3x3", (4, 4), False),
            ("4x4x1x1,8x8x1x1,16x8x3x3", (3, 2), False),
            ("16x16x1x1,32x32x3x3", (4,), False),
            # 1x1, S = 2: both orders copy nothing, factor 0 first runs fewer MACs
            ("8x8x1x1,16x8x1x1", (4,), True),
            ("16x16x1x1,16x8x1x1", (4,), True),
            # 1x1, S = 3, f_1 = 4: factor 0 first would gather its last stage
            ("8x8x1x1,4x4x1x1,16x8x1x1", (2, 3), False),
        ],
    )
    def test_rule_on_resnet_layer_configs(self, text, ranks, first):
        assert sekron.conv._cheaper_schedule(FactorShapeMatrix.from_string(text), ranks)[0] is first

    @pytest.mark.parametrize("band_bytes", [1, sekron.conv._BAND_BYTES], ids=["one-row", "default"])
    def test_both_orders_match_reference(self, monkeypatch, stage_order, band_bytes):
        monkeypatch.setattr("sekron.conv._BAND_BYTES", band_bytes)
        for seq, x, padding in itertools.chain(sweep_cases(), factor0_first_cases()):
            got = sekron_conv2d(x, seq, padding=padding)
            want = conv2d_reference(x, reconstruct(seq), padding=padding)
            assert got.shape == want.shape
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("band_bytes", [1, sekron.conv._BAND_BYTES], ids=["one-row", "default"])
    def test_conv_macs_is_the_gemm_tally_in_both_orders(self, monkeypatch, stage_order, band_bytes):
        monkeypatch.setattr("sekron.conv._BAND_BYTES", band_bytes)
        counter = CountingNumpy()
        monkeypatch.setattr("sekron.conv.np", counter)
        for seq, x, padding in itertools.chain(sweep_cases(), factor0_first_cases()):
            before = counter.macs
            sekron_conv2d(x, seq, padding=padding)
            hw = x.shape[2:]
            assert conv_macs(seq, hw, padding) * x.shape[0] == counter.macs - before
            if band_bytes > 1:
                executed = executed_conv_macs(seq, hw, padding, stage_order)
                assert conv_macs(seq, hw, padding) == executed

    def test_forced_order_ignores_a_warm_memo(self, monkeypatch):
        # the rule's order is memoized first; a forced order that read its
        # entry would run, and count, the rule's GEMMs
        differ = 0
        for first in (False, True):
            for seq, x, padding in itertools.chain(sweep_cases(), factor0_first_cases()):
                sekron_conv2d(x, seq, padding=padding)
                hw = x.shape[2:]
                with monkeypatch.context() as forced:
                    force_order(forced, first)
                    counter = CountingNumpy()
                    forced.setattr("sekron.conv.np", counter)
                    sekron_conv2d(x, seq, padding=padding)
                want = executed_conv_macs(seq, hw, padding, first)
                assert counter.macs == x.shape[0] * want
                differ += want != executed_conv_macs(seq, hw, padding, not first)
        assert differ > 0

    def test_factor0_first_copies_only_where_scheduled(self):
        # S = 2 without taps runs copy-free; at S = 3 the last stage reads a
        # view unless f_1 > 1 sits between two rank digits of size > 1
        for text, ranks, copies in [
            ("2x16x1x1,16x1x1x1", (4,), [False, False]),
            ("1x4x3x1,1x2x1x3,4x1x1x1", (2, 2), [True, True, False]),
            ("1x4x3x1,2x2x1x3,4x1x1x1", (2, 2), [True, True, True]),
            ("1x4x3x1,2x2x1x3,4x1x1x1", (1, 2), [True, True, False]),
        ]:
            shapes = FactorShapeMatrix.from_string(text)
            first, stages = sekron.conv._cheaper_schedule(shapes, ranks)
            assert first and [stage.copy for stage in stages] == copies

    @pytest.mark.parametrize("band_bytes", [1, sekron.conv._BAND_BYTES], ids=["one-row", "default"])
    def test_columns_are_a_view_exactly_where_nothing_is_copied(
        self, monkeypatch, stage_order, band_bytes
    ):
        # in every stage of every slab height the conv builds, the stage has
        # no window, is not scheduled to copy, and reads its columns from its
        # input's memory, or none of the three.  Without padding there is no
        # slab and the first stage reads each band's rows of the image,
        # copying them too where the band is shorter than the image and the
        # stage carries planes (whose rows are then apart); its window or
        # columns are made per band from its view.
        monkeypatch.setattr("sekron.conv._BAND_BYTES", band_bytes)
        for seq, x, padding in itertools.chain(sweep_cases(), factor0_first_cases()):
            stages, step, slabs = geometry(seq, x, padding)
            out_h = output_rows(seq, x, padding)
            # the heights of the bands the conv walks, the last taking the rest
            heights = sorted({min(step, out_h - y) for y in range(0, out_h, step)})
            assert [rows for rows, _, _ in slabs] == heights
            plans = sekron.conv._plans(seq, stages, slabs)
            assert sorted(plans) == heights
            for rows, (slab, first, plan) in plans.items():
                assert (slab is None) == (padding == 0)
                source = slab
                for stage, (_, win, cols, t) in zip(stages, plan):
                    # a band's input rows against the image's
                    apart = stage.n > 1 and rows + seq.target_shape[2] - 1 < x.shape[2]
                    if source is None:
                        assert first[0] == (stage.copy or apart)
                        assert (win is None) and (cols is None) == (not first[0])
                    else:
                        assert (win is None) == (not stage.copy) == np.shares_memory(cols, source)
                    source = t
            # the last GEMM of each image writes into the result exactly where
            # one band covers the image
            outs = []
            with monkeypatch.context() as recording:
                recording.setattr("sekron.conv.np", RecordingNumpy(outs))
                result = sekron_conv2d(x, seq, padding=padding)
            last = outs[len(stages) - 1 :: len(stages)]
            assert len(last) == x.shape[0] * band_count(seq, x, padding)
            assert [np.shares_memory(t, result) for t in last] == [step == out_h] * len(last)
