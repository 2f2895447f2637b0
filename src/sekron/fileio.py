"""Binary file formats for tensors (``.skt``) and factor sequences (``.sks``).

Both formats are magic + version byte + u32-LE header length + UTF-8 JSON
header + row-major little-endian float64 payload.  Round trips are
byte-exact; every way a file can be malformed maps to a distinct error type,
including a payload that holds NaN or an infinity (``NonFinitePayloadError``).
"""

import json
import math
import struct

import numpy as np

from sekron.decompose import KroneckerSequence, _branch_sizes, stored_param_count
from sekron.errors import (
    BadMagicError,
    MalformedHeaderError,
    NonFinitePayloadError,
    TruncatedPayloadError,
    VersionMismatchError,
)
from sekron.tensor_core import FactorShapeMatrix, as_tensor

TENSOR_MAGIC = b"SKTN"
SEQUENCE_MAGIC = b"SKSQ"
FORMAT_VERSION = 1


def _encode_header(header: dict) -> bytes:
    return json.dumps(header, separators=(",", ":")).encode("utf-8")


def _write_file(path, magic: bytes, header: dict, payload: bytes) -> None:
    blob = _encode_header(header)
    with open(path, "wb") as handle:
        handle.write(magic)
        handle.write(bytes([FORMAT_VERSION]))
        handle.write(struct.pack("<I", len(blob)))
        handle.write(blob)
        handle.write(payload)


def _read_file(path, magic: bytes) -> tuple[dict, bytes]:
    with open(path, "rb") as handle:
        data = handle.read()
    if data[:4] != magic:
        raise BadMagicError(
            f"{path}: expected magic {magic!r}, found {data[:4]!r}"
        )
    if len(data) < 5:
        raise TruncatedPayloadError(f"{path}: file ends before the version byte")
    if data[4] != FORMAT_VERSION:
        raise VersionMismatchError(
            f"{path}: format version {data[4]}, this reader handles {FORMAT_VERSION}"
        )
    if len(data) < 9:
        raise TruncatedPayloadError(f"{path}: file ends inside the header length")
    (header_len,) = struct.unpack("<I", data[5:9])
    if len(data) < 9 + header_len:
        raise TruncatedPayloadError(f"{path}: file ends inside the header")
    try:
        header = json.loads(data[9 : 9 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedHeaderError(f"{path}: header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise MalformedHeaderError(f"{path}: header must be a JSON object")
    return header, data[9 + header_len :]


def _positive_ints(value, path, what, allow_empty=False) -> tuple[int, ...]:
    # bool is an int subclass, so isinstance() would read true as 1
    if (
        not isinstance(value, list)
        or not (value or allow_empty)
        or not all(type(d) is int and d >= 1 for d in value)
    ):
        raise MalformedHeaderError(f"{path}: {what} must be a list of positive ints")
    return tuple(value)


def _payload_floats(payload: bytes, count: int, path) -> np.ndarray:
    expected = 8 * count
    if len(payload) != expected:
        raise TruncatedPayloadError(
            f"{path}: payload is {len(payload)} bytes, expected {expected}"
        )
    values = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    if not np.isfinite(values).all():
        raise NonFinitePayloadError(f"{path}: payload holds NaN or infinite values")
    return values


def write_tensor(path, t) -> None:
    """Write a dense tensor as a ``.skt`` file."""
    t = as_tensor(t)
    header = {"dtype": "f64", "shape": list(t.shape)}
    _write_file(path, TENSOR_MAGIC, header, t.astype("<f8").tobytes())


def read_tensor(path) -> np.ndarray:
    """Read a ``.skt`` file back into a float64 array."""
    header, payload = _read_file(path, TENSOR_MAGIC)
    if header.get("dtype") != "f64":
        raise MalformedHeaderError(
            f"{path}: unsupported dtype {header.get('dtype')!r}, expected 'f64'"
        )
    shape = _positive_ints(header.get("shape"), path, "'shape'")
    values = _payload_floats(payload, math.prod(shape), path)
    return values.reshape(shape)


def write_sequence(path, seq: KroneckerSequence) -> None:
    """Write a Kronecker sequence as a ``.sks`` file.

    Factors are concatenated in order, each row-major with its branch axis
    leading; branch sizes are reconstructed from the ranks on read.
    """
    header = {
        "S": seq.shapes.num_factors,
        "N": seq.shapes.num_axes,
        "ranks": list(seq.ranks),
        "factor_shapes": [list(row) for row in seq.shapes.rows],
        "layout": "branch-major",
    }
    payload = b"".join(f.astype("<f8").tobytes() for f in seq.factors)
    _write_file(path, SEQUENCE_MAGIC, header, payload)


def read_sequence(path) -> KroneckerSequence:
    """Read a ``.sks`` file back into a :class:`KroneckerSequence`."""
    header, payload = _read_file(path, SEQUENCE_MAGIC)
    if header.get("layout") != "branch-major":
        raise MalformedHeaderError(
            f"{path}: unsupported layout {header.get('layout')!r}"
        )
    rows = header.get("factor_shapes")
    if not isinstance(rows, list) or not rows:
        raise MalformedHeaderError(f"{path}: 'factor_shapes' must be a list of rows")
    parsed_rows = tuple(_positive_ints(row, path, "factor shape rows") for row in rows)
    if len({len(row) for row in parsed_rows}) != 1:
        raise MalformedHeaderError(f"{path}: factor shape rows differ in length")
    shapes = FactorShapeMatrix(parsed_rows)
    counts = (header.get("S"), header.get("N"))
    # true == 1.0 == 1, so the type must be exactly int as well
    if counts != (shapes.num_factors, shapes.num_axes) or not all(
        type(v) is int for v in counts
    ):
        raise MalformedHeaderError(f"{path}: S/N disagree with 'factor_shapes'")
    ranks = _positive_ints(header.get("ranks"), path, "'ranks'", allow_empty=True)
    if len(ranks) != shapes.num_factors - 1:
        raise MalformedHeaderError(
            f"{path}: {len(ranks)} ranks for {shapes.num_factors} factors"
        )
    values = _payload_floats(payload, stored_param_count(shapes, ranks), path)
    factors = []
    offset = 0
    for k, r in enumerate(_branch_sizes(ranks)):
        size = r * shapes.factor_volume(k)
        factors.append(values[offset : offset + size].reshape((r,) + shapes.rows[k]))
        offset += size
    return KroneckerSequence(shapes=shapes, ranks=ranks, factors=factors)
