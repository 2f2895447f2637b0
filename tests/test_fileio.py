"""Header validation of the ``.skt``/``.sks`` readers, the payload size check,
and the writers' bytes against a writer that joins copied payloads."""

import struct
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sekron import (
    FactorShapeMatrix,
    FileFormatError,
    KroneckerSequence,
    MalformedHeaderError,
    NonFinitePayloadError,
    ShapeError,
    TruncatedPayloadError,
    read_sequence,
    read_tensor,
    write_sequence,
    write_tensor,
)
from oracles import random_sequence, write_raw, write_sequence_joined, write_tensor_joined


def sequence_header(factor_shapes, ranks) -> dict:
    return {
        "S": len(factor_shapes),
        "N": len(factor_shapes[0]),
        "ranks": ranks,
        "factor_shapes": factor_shapes,
        "layout": "branch-major",
    }


class TestTensorHeader:
    def test_valid_shape_reads(self, tmp_path):
        path = tmp_path / "t.skt"
        write_raw(path, b"SKTN", {"dtype": "f64", "shape": [3, 2]}, 6)
        assert np.array_equal(read_tensor(path), np.arange(6.0).reshape(3, 2))

    # "23" and 5 are no JSON list of dimensions: not read as (2, 3) or (5,)
    @pytest.mark.parametrize("shape", [[True, 2], [], [0, 2], [2.0, 3], "3,2", None, "23", 5])
    def test_bad_shape_is_malformed_header(self, tmp_path, shape):
        path = tmp_path / "t.skt"
        write_raw(path, b"SKTN", {"dtype": "f64", "shape": shape}, 2)
        with pytest.raises(MalformedHeaderError):
            read_tensor(path)


class TestSequenceHeader:
    def test_single_factor_takes_empty_ranks(self, tmp_path):
        path = tmp_path / "s.sks"
        write_raw(path, b"SKSQ", sequence_header([[2, 3]], []), 6)
        seq = read_sequence(path)
        assert seq.ranks == ()
        assert np.array_equal(seq.factors[0][0], np.arange(6.0).reshape(2, 3))

    @pytest.mark.parametrize(
        "factor_shapes, ranks",
        [
            ([[2, 2], [2, 2]], [True]),
            ([[2, 2], [2, 2]], [0]),
            ([[2, 2], [2, 2]], "1"),
            ([[True, 2], [2, 2]], [1]),
            ([[2, 2], []], [1]),
            ([[2, 2], [2, 2, 1]], [1]),
            # one factor takes no ranks, but only as a JSON list: an empty
            # string or object would otherwise read as none
            ([[2, 3]], ""),
            ([[2, 3]], {}),
        ],
    )
    def test_bad_ints_are_malformed_header(self, tmp_path, factor_shapes, ranks):
        path = tmp_path / "s.sks"
        write_raw(path, b"SKSQ", sequence_header(factor_shapes, ranks), 8)
        with pytest.raises(MalformedHeaderError):
            read_sequence(path)

    @pytest.mark.parametrize("key, value", [("S", True), ("S", 1.0), ("N", 2.0)])
    def test_non_int_counts_are_malformed_header(self, tmp_path, key, value):
        path = tmp_path / "s.sks"
        header = sequence_header([[2, 3]], [])
        header[key] = value
        write_raw(path, b"SKSQ", header, 6)
        with pytest.raises(MalformedHeaderError):
            read_sequence(path)

    def test_round_trip_is_byte_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = ((2, 1), (1, 2), (2, 2))
        factors = [rng.standard_normal((b,) + r) for b, r in zip((2, 4, 4), rows)]
        seq = KroneckerSequence(FactorShapeMatrix(rows), (2, 2), factors)
        first, second = tmp_path / "a.sks", tmp_path / "b.sks"
        write_sequence(first, seq)
        write_sequence(second, read_sequence(first))
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize(
        "factor_shapes",
        [[(1, 2, 2), (2, 2, 2)], [(2, 2, 2)], [(2, 2, 2), (2, 2, 2), (2, 2, 2)]],
    )
    def test_replaced_factors_are_checked_before_writing(self, tmp_path, factor_shapes):
        # a rank-2 2x2,2x2 sequence needs (2, 2, 2) twice, and a file written
        # from anything else would not read back (96 payload bytes against
        # 128 for the first case); the constructor refuses such factors, so
        # no sequence that holds them can reach the writer
        factors = [np.ones(shape) for shape in factor_shapes]
        with pytest.raises(ShapeError, match="factor"):
            KroneckerSequence(FactorShapeMatrix(((2, 2), (2, 2))), (2,), factors)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("which", ["tensor", "sequence"])
def test_writers_refuse_non_finite_values_before_opening(tmp_path, which, value):
    # the readers reject such a payload, so writing it would leave a file
    # that cannot be read back
    path = tmp_path / "out"
    if which == "tensor":
        with pytest.raises(NonFinitePayloadError):
            write_tensor(path, [1.0, value])
    else:
        seq = random_sequence(FactorShapeMatrix(((2, 2), (2, 2))), (2,), rng=0)
        seq.factors[1][1, 0, 1] = value
        with pytest.raises(NonFinitePayloadError):
            write_sequence(path, seq)
    assert not path.exists()


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """A valid ``.skt`` and ``.sks``, each as (reader, bytes, payload offset),
    and a path to write corrupted copies to."""
    root = tmp_path_factory.mktemp("valid")
    tensor, sequence = root / "t.skt", root / "s.sks"
    write_tensor(tensor, np.random.default_rng(0).standard_normal((3, 2)))
    shapes = FactorShapeMatrix(((2, 1), (1, 2), (2, 2)))
    write_sequence(sequence, random_sequence(shapes, (2, 2), rng=0))
    files = []
    for reader, path in ((read_tensor, tensor), (read_sequence, sequence)):
        data = path.read_bytes()
        (header_len,) = struct.unpack("<I", data[5:9])
        files.append((reader, data, 9 + header_len))
    return files, root / "probe"


class TestCorruptedFiles:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_truncation_or_header_byte_change_is_format_error(self, valid_files, data):
        files, probe = valid_files
        reader, blob, payload_at = data.draw(st.sampled_from(files))
        if data.draw(st.booleans()):
            blob = blob[: data.draw(st.integers(0, len(blob) - 1))]
        else:
            at = data.draw(st.integers(0, payload_at - 1))
            byte = data.draw(st.integers(0, 255).filter(lambda b: b != blob[at]))
            blob = blob[:at] + bytes([byte]) + blob[at + 1 :]
        probe.write_bytes(blob)
        with pytest.raises(FileFormatError):
            reader(probe)

    @settings(max_examples=100, deadline=None)
    # all-ones exponent: mantissa 0 is +-inf, any other mantissa a NaN
    @given(st.data(), st.integers(0, 1), st.one_of(st.just(0), st.integers(0, 2**52 - 1)))
    def test_non_finite_payload_word_is_rejected(self, valid_files, data, sign, mantissa):
        files, probe = valid_files
        reader, blob, payload_at = data.draw(st.sampled_from(files))
        word = data.draw(st.integers(0, (len(blob) - payload_at) // 8 - 1))
        at = payload_at + 8 * word
        bits = struct.pack("<Q", sign << 63 | 0x7FF << 52 | mantissa)
        probe.write_bytes(blob[:at] + bits + blob[at + 8 :])
        with pytest.raises(NonFinitePayloadError):
            reader(probe)

    @pytest.mark.parametrize("which", [0, 1])
    def test_one_appended_byte_is_truncated_payload(self, valid_files, which):
        files, probe = valid_files
        reader, blob, _ = files[which]
        probe.write_bytes(blob + b"\x00")
        with pytest.raises(TruncatedPayloadError):
            reader(probe)


class TestPayloadSizeCheck:
    """A header that claims far more floats than the file holds is refused
    before anything is allocated: TruncatedPayloadError, never MemoryError."""

    def test_huge_tensor_shape(self, tmp_path):
        path = tmp_path / "t.skt"
        write_raw(path, b"SKTN", {"dtype": "f64", "shape": [2**31, 2**31]}, 1)
        with pytest.raises(TruncatedPayloadError):
            read_tensor(path)

    def test_huge_sequence_rows(self, tmp_path):
        # 2 factors of 2**31 elements, 2**30 branches each: 2**62 floats
        path = tmp_path / "s.sks"
        rows = [[2**15, 2**16], [2**16, 2**15]]
        write_raw(path, b"SKSQ", sequence_header(rows, [2**30]), 1)
        with pytest.raises(TruncatedPayloadError):
            read_sequence(path)


LAYOUTS = {
    "c-order": np.ascontiguousarray,
    "fortran-order": np.asfortranarray,
    "float32": lambda a: a.astype(np.float32),
    "int64": lambda a: np.rint(8 * a).astype(np.int64),
}


class TestWriterBytes:
    @pytest.mark.parametrize("layout", list(LAYOUTS))
    def test_tensor_matches_joined_writer(self, tmp_path, layout):
        t = LAYOUTS[layout](np.random.default_rng(1).standard_normal((3, 4, 2)))
        write_tensor(tmp_path / "a.skt", t)
        write_tensor_joined(tmp_path / "b.skt", t)
        assert (tmp_path / "a.skt").read_bytes() == (tmp_path / "b.skt").read_bytes()

    @pytest.mark.parametrize("layout", list(LAYOUTS))
    def test_sequence_matches_joined_writer(self, tmp_path, layout):
        shapes = FactorShapeMatrix(((2, 1, 3), (1, 2, 2), (2, 3, 1)))
        given = [LAYOUTS[layout](f) for f in random_sequence(shapes, (2, 3), rng=2).factors]
        # a caller may build a sequence from arrays of any layout or dtype;
        # the file holds them as the joined writer copies the arrays given
        write_sequence(tmp_path / "a.sks", KroneckerSequence(shapes, (2, 3), given))
        write_sequence_joined(tmp_path / "b.sks", SimpleNamespace(shapes=shapes, ranks=(2, 3),
                                                                  factors=given))
        assert (tmp_path / "a.sks").read_bytes() == (tmp_path / "b.sks").read_bytes()


class TestReadArrays:
    def test_tensor_is_an_owned_writeable_c_float64_array(self, tmp_path):
        path = tmp_path / "t.skt"
        write_tensor(path, np.arange(24.0).reshape(2, 3, 4))
        t = read_tensor(path)
        assert t.dtype == np.float64
        assert t.flags.c_contiguous and t.flags.writeable
        assert t.base is None or isinstance(t.base, np.ndarray)
        assert t.base is None or t.base.base is None  # no bytes object underneath

    def test_sequence_factors_are_views_into_one_payload(self, tmp_path):
        path = tmp_path / "s.sks"
        shapes = FactorShapeMatrix(((2, 1), (1, 2), (2, 2)))
        write_sequence(path, random_sequence(shapes, (2, 2), rng=3))
        seq = read_sequence(path)
        payload = seq.factors[0].base
        assert isinstance(payload, np.ndarray) and payload.base is None
        assert all(f.base is payload and f.flags.writeable for f in seq.factors)
        assert payload.size == seq.param_count
