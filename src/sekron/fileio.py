"""Binary file formats for tensors (``.skt``) and factor sequences (``.sks``).

Both formats are magic + version byte + u32-LE header length + UTF-8 JSON
header + row-major little-endian float64 payload.  Round trips are
byte-exact; every way a file can be malformed maps to a distinct error type,
including a payload that holds NaN or an infinity (``NonFinitePayloadError``).
The writers raise that error too, before they open the file, so they never
write a file their readers reject.

A reader opens the file once and reads the prefix and the header with small
reads.  Once the header says how many floats the payload holds, it compares
that with the bytes left in the file *before* allocating anything, so a
header that claims a huge shape over a short payload raises
``TruncatedPayloadError``, as does a payload that is too long.  The payload
is then read straight into the array that is returned, with no intermediate
``bytes``; a writer passes each array's own buffer to the file.  The size
check reads the file size from ``os.fstat``, so inputs must be regular
files: a pipe or FIFO reports no size and reads as truncated.
"""

import json
import math
import os
import struct

import numpy as np

from sekron.decompose import KroneckerSequence, _branch_sizes, stored_param_count
from sekron.errors import (
    BadMagicError,
    MalformedHeaderError,
    NonFinitePayloadError,
    ShapeError,
    TruncatedPayloadError,
    VersionMismatchError,
)
from sekron.tensor_core import FactorShapeMatrix, _dims, _instance, as_tensor

TENSOR_MAGIC = b"SKTN"
SEQUENCE_MAGIC = b"SKSQ"
FORMAT_VERSION = 1


def _encode_header(header: dict) -> bytes:
    return json.dumps(header, separators=(",", ":")).encode("utf-8")


def _check_finite(arrays, path) -> None:
    if not all(np.isfinite(array).all() for array in arrays):
        raise NonFinitePayloadError(f"{path}: payload holds NaN or infinite values")


def _write_file(path, magic: bytes, header: dict, arrays) -> None:
    # refused before the file is opened, as the readers would refuse it
    _check_finite(arrays, path)
    blob = _encode_header(header)
    with open(path, "wb") as handle:
        handle.write(magic + bytes([FORMAT_VERSION]) + struct.pack("<I", len(blob)) + blob)
        for array in arrays:
            # a no-op for the C-contiguous float64 arrays as_tensor gives
            handle.write(memoryview(np.ascontiguousarray(array, dtype="<f8")))


def _remaining(handle) -> int:
    return os.fstat(handle.fileno()).st_size - handle.tell()


def _read_header(handle, magic: bytes, path) -> dict:
    prefix = handle.read(9)
    if prefix[:4] != magic:
        raise BadMagicError(
            f"{path}: expected magic {magic!r}, found {prefix[:4]!r}"
        )
    if len(prefix) < 5:
        raise TruncatedPayloadError(f"{path}: file ends before the version byte")
    if prefix[4] != FORMAT_VERSION:
        raise VersionMismatchError(
            f"{path}: format version {prefix[4]}, this reader handles {FORMAT_VERSION}"
        )
    if len(prefix) < 9:
        raise TruncatedPayloadError(f"{path}: file ends inside the header length")
    (header_len,) = struct.unpack("<I", prefix[5:9])
    # checked before reading: a damaged length may claim up to 4 GB
    if _remaining(handle) < header_len:
        raise TruncatedPayloadError(f"{path}: file ends inside the header")
    try:
        header = json.loads(handle.read(header_len).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedHeaderError(f"{path}: header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise MalformedHeaderError(f"{path}: header must be a JSON object")
    return header


def _read_payload(handle, count: int, path) -> np.ndarray:
    expected = 8 * count
    size = _remaining(handle)
    if size != expected:
        raise TruncatedPayloadError(
            f"{path}: payload is {size} bytes, expected {expected}"
        )
    values = np.empty(count, dtype="<f8")
    got = handle.readinto(values)
    if got != expected:
        raise TruncatedPayloadError(
            f"{path}: read {got} payload bytes, expected {expected}"
        )
    _check_finite([values], path)
    return values


def write_tensor(path, t) -> None:
    """Write a dense tensor as a ``.skt`` file.

    A NaN or infinite value raises :class:`NonFinitePayloadError` and
    creates no file.
    """
    t = as_tensor(t)
    header = {"dtype": "f64", "shape": list(t.shape)}
    _write_file(path, TENSOR_MAGIC, header, [t])


def read_tensor(path) -> np.ndarray:
    """Read a ``.skt`` file back into a float64 array."""
    with open(path, "rb") as handle:
        header = _read_header(handle, TENSOR_MAGIC, path)
        if header.get("dtype") != "f64":
            raise MalformedHeaderError(
                f"{path}: unsupported dtype {header.get('dtype')!r}, expected 'f64'"
            )
        shape = _dims(header.get("shape"), None, f"'shape' values in {path}", MalformedHeaderError)
        return _read_payload(handle, math.prod(shape), path).reshape(shape)


def write_sequence(path, seq: KroneckerSequence) -> None:
    """Write a Kronecker sequence as a ``.sks`` file.

    Factors are concatenated in order, each row-major with its branch axis
    leading; branch sizes are reconstructed from the ranks on read.  The
    header holds the sequence's ranks, Python ints, as its constructor
    stored them.  ``seq`` that is no :class:`KroneckerSequence` raises
    :class:`ShapeError`, and a NaN or infinite value
    :class:`NonFinitePayloadError`; neither creates a file.
    """
    ranks = _instance(seq, KroneckerSequence, "sequence").ranks
    header = {
        "S": seq.shapes.num_factors,
        "N": seq.shapes.num_axes,
        "ranks": list(ranks),
        "factor_shapes": [list(row) for row in seq.shapes.rows],
        "layout": "branch-major",
    }
    _write_file(path, SEQUENCE_MAGIC, header, seq.factors)


def _sequence_layout(header: dict, path) -> tuple[FactorShapeMatrix, tuple[int, ...]]:
    if header.get("layout") != "branch-major":
        raise MalformedHeaderError(
            f"{path}: unsupported layout {header.get('layout')!r}"
        )
    try:
        shapes = FactorShapeMatrix(header.get("factor_shapes"))
    except ShapeError as exc:
        raise MalformedHeaderError(f"{path}: 'factor_shapes': {exc}") from None
    # read as ints: true == 1.0 == 1 would compare equal
    counts = _dims((header.get("S"), header.get("N")), 2, f"S and N in {path}", MalformedHeaderError)
    if counts != (shapes.num_factors, shapes.num_axes):
        raise MalformedHeaderError(f"{path}: S/N disagree with 'factor_shapes'")
    ranks = header.get("ranks")
    # a JSON list only: "" or {} would read as no ranks
    if not isinstance(ranks, list):
        raise MalformedHeaderError(f"{path}: 'ranks' must be a list, got {ranks!r}")
    ranks = _dims(ranks, shapes.num_factors - 1, f"ranks in {path}", MalformedHeaderError)
    return shapes, ranks


def read_sequence(path) -> KroneckerSequence:
    """Read a ``.sks`` file back into a :class:`KroneckerSequence`.

    The factors are views into the one array the payload is read into.
    """
    with open(path, "rb") as handle:
        shapes, ranks = _sequence_layout(_read_header(handle, SEQUENCE_MAGIC, path), path)
        values = _read_payload(handle, stored_param_count(shapes, ranks), path)
    factors = []
    offset = 0
    for r, volume, row in zip(_branch_sizes(ranks), shapes.volumes, shapes.rows):
        size = r * volume
        factors.append(values[offset : offset + size].reshape((r,) + row))
        offset += size
    return KroneckerSequence(shapes=shapes, ranks=ranks, factors=factors)
