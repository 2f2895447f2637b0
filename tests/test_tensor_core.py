"""Kronecker products as composed by ``reconstruct``, index bijections, and
the digit-major layout the decomposition levels read."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sekron import (
    CpFactors,
    FactorShapeMatrix,
    KroneckerSequence,
    PlanRequest,
    RankError,
    ShapeError,
    TrCores,
    TuckerFactors,
    compression_ratio,
    conv2d_reference,
    conv_macs,
    enumerate_factorizations,
    flops_ratio,
    measure_sequence_latency,
    reconstruct,
    sekron_conv2d,
    sekron_decompose,
    stage_macs_per_branch,
    stored_param_count,
    truncated_svd,
    write_sequence,
    write_tensor,
)
from sekron.decompose import _digit_major
from sekron.tensor_core import as_tensor
from oracles import random_sequence, seq_index_compose, seq_index_decompose


def compose(*factors):
    """``reconstruct`` of the all-rank-1 sequence of these factors: their
    Kronecker product."""
    shapes = FactorShapeMatrix(tuple(np.shape(f) for f in factors))
    seq = KroneckerSequence(
        shapes=shapes,
        ranks=(1,) * (len(factors) - 1),
        factors=[np.asarray(f)[None] for f in factors],
    )
    return reconstruct(seq)


def kron_index_oracle(a, b):
    """Direct evaluation of the index rule: out[i] = a[i // b_n] * b[i % b_n]."""
    out = np.zeros(tuple(x * y for x, y in zip(a.shape, b.shape)))
    for idx in np.ndindex(out.shape):
        j = tuple(i // bn for i, bn in zip(idx, b.shape))
        k = tuple(i % bn for i, bn in zip(idx, b.shape))
        out[idx] = a[j] * b[k]
    return out


class TestKronPair:
    def test_identity_factor_leaves_other_unchanged(self):
        b = np.arange(6.0).reshape(2, 3) + 1
        assert np.array_equal(compose(np.ones((1, 1)), b), b)

    def test_vector_example(self):
        out = compose(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        assert np.array_equal(out, np.array([3.0, 4.0, 6.0, 8.0]))

    def test_matrix_example(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        b = np.array([[1.0, 2.0], [3.0, 4.0]])
        expected = np.array(
            [
                [0.0, 0.0, 1.0, 2.0],
                [0.0, 0.0, 3.0, 4.0],
                [1.0, 2.0, 0.0, 0.0],
                [3.0, 4.0, 0.0, 0.0],
            ]
        )
        assert np.array_equal(compose(a, b), expected)

    def test_matches_index_oracle_on_random_tensors(self):
        rng = np.random.default_rng(7)
        for shapes in [((2,), (3,)), ((2, 3), (2, 2)), ((2, 1, 2), (1, 3, 2))]:
            a = rng.standard_normal(shapes[0])
            b = rng.standard_normal(shapes[1])
            assert np.array_equal(compose(a, b), kron_index_oracle(a, b))

    def test_axis_mismatch_is_an_error(self):
        with pytest.raises(ShapeError):
            compose(np.ones((2,)), np.ones((2, 2)))


class TestKronSequence:
    def test_single_factor(self):
        a = np.arange(4.0).reshape(2, 2)
        assert np.array_equal(compose(a), a)

    def test_vector_chain_example(self):
        out = compose(np.array([1.0, 2.0]), np.array([1.0, 1.0]), np.array([1.0, 3.0]))
        assert np.array_equal(out, np.array([1.0, 3.0, 1.0, 3.0, 2.0, 6.0, 2.0, 6.0]))

    def test_associativity_against_right_fold(self):
        rng = np.random.default_rng(11)
        a, b, c = (rng.standard_normal((2, 2)) for _ in range(3))
        got = compose(a, b, c)
        for want in (np.kron(np.kron(a, b), c), np.kron(a, np.kron(b, c))):
            assert np.allclose(got, want, rtol=1e-12, atol=0)

    def test_empty_list_rejected(self):
        with pytest.raises(ShapeError):
            compose()

    def test_scalar_law_exhaustive(self):
        # every choice of factor sub-indices lands, through the index
        # composition, on the product of the factor entries, on 64 elements
        rng = np.random.default_rng(13)
        rows = ((2, 2), (2, 1), (2, 4))
        shapes = FactorShapeMatrix(rows)
        factors = [rng.standard_normal(r) for r in rows]
        out = compose(*factors)
        assert out.size == 64
        for js in itertools.product(*(np.ndindex(r) for r in rows)):
            expected = math.prod(f[j] for f, j in zip(factors, js))
            assert out[seq_index_compose(js, shapes)] == pytest.approx(expected, rel=1e-15)


@st.composite
def shape_matrices(draw, max_factors=3):
    n = draw(st.integers(1, 3))
    s = draw(st.integers(1, max_factors))
    rows = tuple(
        tuple(draw(st.integers(1, 3)) for _ in range(n)) for _ in range(s)
    )
    return FactorShapeMatrix(rows)


class TestIndexBijection:
    def test_zero_index(self):
        shapes = FactorShapeMatrix(((2, 3), (3, 2)))
        js = seq_index_decompose((0, 0), shapes)
        assert js == [(0, 0), (0, 0)]
        assert seq_index_compose(js, shapes) == (0, 0)

    def test_mixed_radix_examples(self):
        shapes = FactorShapeMatrix(((2,), (2,), (2,)))
        assert seq_index_decompose((5,), shapes) == [(1,), (0,), (1,)]
        assert seq_index_compose([(1,), (0,), (1,)], shapes) == (5,)
        shapes2 = FactorShapeMatrix(((3,), (4,)))
        assert seq_index_decompose((7,), shapes2) == [(1,), (3,)]
        assert seq_index_compose([(1,), (3,)], shapes2) == (7,)

    def test_round_trip_exhaustive_6x6(self):
        shapes = FactorShapeMatrix(((2, 3), (3, 2)))
        for idx in np.ndindex((6, 6)):
            assert seq_index_compose(seq_index_decompose(idx, shapes), shapes) == idx

    @settings(max_examples=150, deadline=None)
    @given(shape_matrices(), st.data())
    def test_bijection_property(self, shapes, data):
        target = shapes.target_shape
        idx = tuple(data.draw(st.integers(0, d - 1)) for d in target)
        js = seq_index_decompose(idx, shapes)
        for k, sub in enumerate(js):
            assert all(0 <= j < d for j, d in zip(sub, shapes.rows[k]))
        assert seq_index_compose(js, shapes) == idx
        # and the other direction
        js2 = [
            tuple(data.draw(st.integers(0, d - 1)) for d in row)
            for row in shapes.rows
        ]
        assert seq_index_decompose(seq_index_compose(js2, shapes), shapes) == [
            tuple(j) for j in js2
        ]

    @settings(max_examples=150, deadline=None)
    @given(shape_matrices(max_factors=4), st.data())
    def test_digit_major_entry_is_sub_index_entry(self, shapes, data):
        # the layout every decompose and reconstruct level reshapes: its entry
        # at the concatenated per-factor sub-indices is the tensor's entry
        w = np.arange(math.prod(shapes.target_shape), dtype=float).reshape(
            shapes.target_shape
        )
        split, order = _digit_major(shapes)
        digits = w.reshape(split).transpose(order)
        assert digits.shape == sum(shapes.rows, ())
        idx = tuple(data.draw(st.integers(0, d - 1)) for d in shapes.target_shape)
        assert digits[sum(seq_index_decompose(idx, shapes), ())] == w[idx]

    def test_out_of_range_rejected(self):
        shapes = FactorShapeMatrix(((2, 3), (3, 2)))
        with pytest.raises(ShapeError):
            seq_index_decompose((6, 0), shapes)
        with pytest.raises(ShapeError):
            seq_index_compose([(2, 0), (0, 0)], shapes)


class TestFactorShapeMatrix:
    def test_target_and_blocks(self):
        shapes = FactorShapeMatrix(((2, 2, 1, 1), (2, 2, 3, 3)))
        assert shapes.target_shape == (4, 4, 3, 3)
        assert shapes.volumes == (4, 36)
        assert shapes.max_ranks() == (4,)

    @pytest.mark.parametrize("s", [1, 2, 3, 5, 16, 64])
    def test_max_ranks_match_a_brute_force_count(self, s):
        # level k's unfolding has one row per entry of factor k and one
        # column per entry of the block of later factors, multiplied out
        # one dimension at a time
        rng = np.random.default_rng(s)
        rows = tuple(tuple(int(d) for d in rng.integers(1, 4, size=4)) for _ in range(s))
        shapes = FactorShapeMatrix(rows)
        volumes, caps = [], []
        for k in range(s):
            n_rows = n_cols = 1
            for d in rows[k]:
                n_rows *= d
            for row in rows[k + 1 :]:
                for d in row:
                    n_cols *= d
            volumes.append(n_rows)
            if k < s - 1:
                caps.append(min(n_rows, n_cols))
        assert shapes.volumes == tuple(volumes)
        assert shapes.max_ranks() == tuple(caps)

    def test_string_round_trip(self):
        text = "2x2x1x1,2x2x3x3"
        shapes = FactorShapeMatrix.from_string(text)
        assert shapes.rows == ((2, 2, 1, 1), (2, 2, 3, 3))
        assert shapes.to_string() == text

    def test_validate_target(self):
        shapes = FactorShapeMatrix(((2, 3), (3, 2)))
        shapes.validate_target((6, 6))
        with pytest.raises(ShapeError):
            shapes.validate_target((6, 4))

    def test_bad_rows_rejected(self):
        with pytest.raises(ShapeError):
            FactorShapeMatrix(((2, 3), (3,)))
        with pytest.raises(ShapeError):
            FactorShapeMatrix(((0, 3), (3, 2)))

    # a float, a bool or a string would otherwise be truncated or read as 1
    @pytest.mark.parametrize("dim", [2.7, 2.0, True, "2"])
    def test_non_integer_dimension_is_a_shape_error(self, dim):
        with pytest.raises(ShapeError, match="dimension"):
            FactorShapeMatrix(((dim, 2), (2, 2)))
        with pytest.raises(ShapeError, match="dimension"):
            FactorShapeMatrix(((2, 2), (2, 2))).validate_target((4, dim))

    def test_numpy_integer_dimensions_become_ints(self):
        shapes = FactorShapeMatrix(((np.int64(2), 3), (3, np.int32(2))))
        assert shapes.rows == ((2, 3), (3, 2))
        assert all(type(d) is int for row in shapes.rows for d in row)
        shapes.validate_target((np.int64(6), 6))


def _sequence():
    return random_sequence(FactorShapeMatrix(((2, 2, 1, 1), (2, 2, 3, 3))), (1,), rng=40)


# every integer argument, or container of them or of arrays, that is not
# iterable or not an int raises its documented error type, never a raw
# TypeError, and a bool is not read as 0 or 1
@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: conv_macs(_sequence(), 7), ShapeError),
        (lambda: PlanRequest(5, 2, 4.0), ShapeError),
        (lambda: measure_sequence_latency(_sequence(), None, trials=3), ShapeError),
        (lambda: FactorShapeMatrix(5), ShapeError),
        (lambda: FactorShapeMatrix((5,)), ShapeError),
        (lambda: FactorShapeMatrix(((2, 2), (2, 2))).validate_target(4), ShapeError),
        (lambda: truncated_svd(np.ones((3, 4)), 1.5), RankError),
        (lambda: truncated_svd(np.ones((3, 4)), True), RankError),
        (lambda: enumerate_factorizations(6.0, 2), ValueError),
        (lambda: enumerate_factorizations("6", 2), ValueError),
        (lambda: enumerate_factorizations(6, True), ValueError),
        (lambda: CpFactors(5), ShapeError),
        (lambda: TuckerFactors(np.ones((2, 2)), 5), ShapeError),
        (lambda: TrCores(5), ShapeError),
    ],
    ids=[
        "conv_macs-int-size", "plan-request-int-shape", "latency-none-shape",
        "matrix-int-rows", "matrix-int-row", "validate-target-int", "svd-float-rank",
        "svd-bool-rank", "factorizations-float-n", "factorizations-str-n",
        "factorizations-bool-s", "cp-int-matrices", "tucker-int-matrices", "tr-int-cores",
    ],
)
def test_bad_integer_argument_raises_its_documented_error(call, error):
    with pytest.raises(error):
        call()


def test_integer_arguments_accept_numpy_ints_and_any_iterable_of_rows():
    rows = ((2, 3), (3, 1))
    for given_rows in (rows, [list(row) for row in rows], np.array(rows), iter(rows)):
        shapes = FactorShapeMatrix(given_rows)
        assert shapes.rows == rows and all(type(d) is int for row in shapes.rows for d in row)
    seq = _sequence()
    assert conv_macs(seq, np.array([5, 5]), np.int64(1)) == conv_macs(seq, (5, 5), 1)
    assert enumerate_factorizations(np.int64(6), np.int32(2)) == enumerate_factorizations(6, 2)
    m = np.random.default_rng(41).standard_normal((3, 4))
    for got, want in zip(truncated_svd(m, np.int64(2)), truncated_svd(m, 2)):
        assert np.array_equal(got, want)
    matrices = [np.ones((2, 3)), np.ones((2, 4))]
    assert CpFactors(matrices).dims == CpFactors(iter(matrices)).dims == (3, 4)


# an array argument numpy cannot read as floats, a sequence argument that
# is no KroneckerSequence and factor shapes that are no FactorShapeMatrix
# raise ShapeError, never numpy's TypeError or ValueError or a raw
# AttributeError
@pytest.mark.parametrize(
    "call",
    [
        lambda: CpFactors(({},)),
        lambda: KroneckerSequence(FactorShapeMatrix(((2, 2),)), (), [{}]),
        lambda: sekron_conv2d("x", _sequence()),
        lambda: sekron_conv2d([[1], [1, 2]], _sequence()),
        lambda: conv2d_reference("x", np.ones((2, 2, 3, 3))),
        lambda: truncated_svd("x", 1),
        lambda: sekron_decompose(np.ones((4, 4)), "2x2,2x2", (1,)),
        lambda: conv_macs(None, (5, 5)),
        lambda: sekron_conv2d(np.ones((1, 4, 5, 5)), None),
        lambda: reconstruct(None),
        lambda: KroneckerSequence("2x2", (), [[1.0]]),
        lambda: stored_param_count("2x2", (1,)),
        lambda: compression_ratio("2x2", (1,)),
        lambda: stage_macs_per_branch("2x2"),
        lambda: flops_ratio("2x2", (1,)),
        lambda: measure_sequence_latency(None, (1, 1, 3, 3)),
    ],
    ids=[
        "cp-dict-matrix", "sequence-dict-factor", "conv-str-input", "conv-ragged-input",
        "reference-str-input", "svd-str-matrix", "decompose-str-shapes", "conv_macs-none",
        "conv-none", "reconstruct-none", "sequence-str-shapes", "param-count-str-shapes",
        "cr-str-shapes", "stage-macs-str-shapes", "fr-str-shapes", "latency-none",
    ],
)
def test_bad_array_sequence_or_shapes_argument_is_a_shape_error(call):
    with pytest.raises(ShapeError):
        call()


@pytest.mark.parametrize(
    "write, arg",
    [(write_tensor, {"a": 1}), (write_sequence, None)],
    ids=["tensor-dict", "sequence-none"],
)
def test_a_bad_argument_to_a_writer_creates_no_file(tmp_path, write, arg):
    path = tmp_path / "never"
    with pytest.raises(ShapeError):
        write(path, arg)
    assert not path.exists()


def test_a_nan_matrix_is_still_a_value_error():
    with pytest.raises(ValueError, match="finite"):
        truncated_svd([[np.nan, 1.0], [1.0, 2.0]], 1)


@settings(max_examples=60, deadline=None)
@given(shape_matrices())
def test_kron_shape_law(shapes):
    rng = np.random.default_rng(47)
    factors = [rng.standard_normal(row) for row in shapes.rows]
    out = compose(*factors)
    assert out.shape == shapes.target_shape
    for _ in range(5):
        js = [tuple(int(rng.integers(d)) for d in row) for row in shapes.rows]
        expected = math.prod(f[j] for f, j in zip(factors, js))
        assert out[seq_index_compose(js, shapes)] == pytest.approx(expected, rel=1e-15)


# a scalar has no axis: every array argument refuses it instead of reading
# it as a vector of one value, and the writer creates no file
@pytest.mark.parametrize(
    "call",
    [
        lambda path: as_tensor(5.0),
        lambda path: write_tensor(path, np.float64(5.0)),
        lambda path: sekron_conv2d(5.0, _sequence()),
        lambda path: sekron_decompose(np.array(5.0), FactorShapeMatrix(((1,),)), ()),
    ],
    ids=["as_tensor", "write_tensor", "conv-input", "decompose"],
)
def test_a_scalar_is_a_shape_error(tmp_path, call):
    path = tmp_path / "never"
    with pytest.raises(ShapeError, match="at least one axis"):
        call(path)
    assert not path.exists()


# the cast to float64 would drop the imaginary part with only a
# ComplexWarning, which this test turns into an error: none may be emitted
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "data", [np.array([[1 + 2j, 3.0]]), [[1j, 2.0]], 1j], ids=["array", "list", "scalar"]
)
def test_complex_data_is_a_shape_error(data):
    with pytest.raises(ShapeError, match="complex"):
        as_tensor(data)
    with pytest.raises(ShapeError, match="complex"):
        truncated_svd(data, 1)


def test_a_float64_array_is_taken_as_it_is():
    a = np.ones((2, 3))
    assert as_tensor(a) is a
    b = as_tensor(a.T)
    assert b.flags.c_contiguous and np.array_equal(b, a.T)
