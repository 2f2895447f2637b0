"""Header validation of the ``.skt``/``.sks`` readers."""

import json
import struct

import numpy as np
import pytest

from sekron import (
    FactorShapeMatrix,
    KroneckerSequence,
    MalformedHeaderError,
    read_sequence,
    read_tensor,
    write_sequence,
)


def write_raw(path, magic: bytes, header: dict, n_floats: int) -> None:
    blob = json.dumps(header).encode("utf-8")
    payload = np.arange(n_floats, dtype="<f8").tobytes()
    path.write_bytes(magic + b"\x01" + struct.pack("<I", len(blob)) + blob + payload)


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

    @pytest.mark.parametrize("shape", [[True, 2], [], [0, 2], [2.0, 3], "3,2", None])
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
        ],
    )
    def test_bad_ints_are_malformed_header(self, tmp_path, factor_shapes, ranks):
        path = tmp_path / "s.sks"
        write_raw(path, b"SKSQ", sequence_header(factor_shapes, ranks), 8)
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
