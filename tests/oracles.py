"""Reference implementations the tests check the package against.

No program path calls them, so they live with the tests rather than in the
package, as do :func:`random_sequence` and :func:`random_factors`, which draw
the synthetic sequences and CP, Tucker, TT and TR factors the tests run, and
:func:`write_raw`, which writes a file with any header.  The index bijection, the Kronecker unfolding and the native
reconstructions are built from scalar formulas, the Kronecker sum from
``np.kron``, the conv stage MACs by counting one multiply at a time in either
stage order (and a conv's executed MACs from those counts and each stage's
output size), and the file writers by copying each payload into ``bytes``,
independent of the machinery they check.
"""

import csv
import itertools
import json
import math
import struct
from functools import reduce

import numpy as np

from sekron import (
    CpFactors,
    FactorShapeMatrix,
    KroneckerSequence,
    ShapeError,
    TrCores,
    TuckerFactors,
    reconstruct,
)
from sekron.decompose import _branch_sizes, _validate_ranks
from sekron.tensor_core import as_tensor


def random_sequence(shapes: FactorShapeMatrix, ranks, rng=None) -> KroneckerSequence:
    """Standard-normal factors with the layout a decomposition would produce.

    Synthetic weights for equivalence tests; the ranks are not required to
    respect the decomposition rank ceilings.
    """
    ranks = _validate_ranks(shapes, ranks)
    rng = np.random.default_rng(rng)
    factors = [
        rng.standard_normal((rho,) + shapes.rows[k])
        for k, rho in enumerate(_branch_sizes(ranks))
    ]
    return KroneckerSequence(shapes=shapes, ranks=ranks, factors=factors)


def random_factors(fmt: str, dims, ranks, rng=None):
    """Standard-normal factors of a ``dims`` weight in format ``fmt``:
    ``"cp"`` at rank ``ranks``, ``"tucker"`` with a core of shape
    ``ranks``, ``"tt"`` with inner ranks ``ranks`` between boundary ranks of
    1, and ``"tr"`` with ring ranks ``ranks``, the last core closing on the
    first rank.  The Tucker core is drawn first, then the factors in axis
    order."""
    rng = np.random.default_rng(rng)
    if fmt == "cp":
        return CpFactors(tuple(rng.standard_normal((ranks, d)) for d in dims))
    if fmt == "tucker":
        core = rng.standard_normal(ranks)
        return TuckerFactors(core, tuple(rng.standard_normal((d, r)) for d, r in zip(dims, ranks)))
    closed = (1, *ranks, 1) if fmt == "tt" else (*ranks, ranks[0])
    return TrCores(tuple(rng.standard_normal((d, closed[n], closed[n + 1]))
                         for n, d in enumerate(dims)))


def seq_index_decompose(index, shapes: FactorShapeMatrix) -> list[tuple[int, ...]]:
    """Split a multi-index of the composed tensor into one sub-index per factor.

    Per axis this is the mixed-radix expansion of ``index[n]`` with radices
    ``(rows[0][n], ..., rows[S-1][n])``, most significant digit first.
    Inverse of :func:`seq_index_compose`.
    """
    index = tuple(int(i) for i in index)
    target = shapes.target_shape
    if len(index) != shapes.num_axes:
        raise ShapeError(f"index has {len(index)} axes, expected {shapes.num_axes}")
    for n, (i, size) in enumerate(zip(index, target)):
        if not 0 <= i < size:
            raise ShapeError(f"index {i} out of range [0, {size}) on axis {n}")
    digits = [[0] * shapes.num_axes for _ in range(shapes.num_factors)]
    for n in range(shapes.num_axes):
        rest = index[n]
        for k in range(shapes.num_factors):
            stride = math.prod(row[n] for row in shapes.rows[k + 1 :])
            digits[k][n], rest = divmod(rest, stride)
    return [tuple(d) for d in digits]


def seq_index_compose(sub_indices, shapes: FactorShapeMatrix) -> tuple[int, ...]:
    """Recombine per-factor sub-indices: ``i_n = sum_k j_n^k * prod_{l>k} rows[l][n]``."""
    sub_indices = [tuple(int(j) for j in js) for js in sub_indices]
    if len(sub_indices) != shapes.num_factors:
        raise ShapeError(
            f"got {len(sub_indices)} sub-indices, expected {shapes.num_factors}"
        )
    out = [0] * shapes.num_axes
    for k, js in enumerate(sub_indices):
        if len(js) != shapes.num_axes:
            raise ShapeError("sub-index axis count mismatch")
        for n, j in enumerate(js):
            if not 0 <= j < shapes.rows[k][n]:
                raise ShapeError(
                    f"sub-index {j} out of range [0, {shapes.rows[k][n]}) "
                    f"for factor {k}, axis {n}"
                )
            out[n] += j * math.prod(row[n] for row in shapes.rows[k + 1 :])
    return tuple(out)


def kron_unfolding(w, shapes: FactorShapeMatrix) -> np.ndarray:
    """The level-0 nearest-Kronecker unfolding of ``w``, filled one entry at a
    time through :func:`seq_index_decompose`.

    Row ``j`` is the row-major position of the factor-0 sub-index, column the
    row-major position of the later sub-indices, factor by factor.  For two
    factors, ``kron(a, b)`` unfolds to the rank-one ``outer(a.ravel(),
    b.ravel())``.
    """
    w = np.asarray(w)
    rest = tuple(d for row in shapes.rows[1:] for d in row)
    out = np.zeros((math.prod(shapes.rows[0]), math.prod(rest)))
    for index in np.ndindex(w.shape):
        js = seq_index_decompose(index, shapes)
        row = np.ravel_multi_index(js[0], shapes.rows[0])
        col = np.ravel_multi_index(sum(js[1:], ()), rest)
        out[row, col] = w[index]
    return out


def _cp_reconstruct(f: CpFactors) -> np.ndarray:
    out = np.zeros(f.dims)
    for r in range(f.rank):
        out += reduce(np.multiply.outer, (m[r] for m in f.matrices))
    return out


def _tucker_reconstruct(f: TuckerFactors) -> np.ndarray:
    out = np.zeros(f.dims)
    for idx in itertools.product(*(range(d) for d in f.core.shape)):
        out += f.core[idx] * reduce(
            np.multiply.outer, (m[:, r] for m, r in zip(f.matrices, idx))
        )
    return out


def _tr_reconstruct(f: TrCores) -> np.ndarray:
    out = np.zeros(f.dims)
    ranks = f.ring_ranks
    for idx in itertools.product(*(range(r) for r in ranks)):
        closed = idx + (idx[0],)
        out += reduce(
            np.multiply.outer,
            (c[:, closed[n], closed[n + 1]] for n, c in enumerate(f.cores)),
        )
    return out


def native_reconstruct(format: str, factors) -> np.ndarray:
    """Reconstruct a tensor by direct summation of the format's scalar formula.

    Deliberately independent of the Kronecker machinery; serves as the oracle
    the ``from_*`` conversions are checked against.
    """
    if format == "cp":
        return _cp_reconstruct(factors)
    if format == "tucker":
        return _tucker_reconstruct(factors)
    if format in ("tr", "tt"):
        return _tr_reconstruct(factors)
    raise ValueError(f"unknown format {format!r}")


def kron_sum(seq) -> np.ndarray:
    """Sum, over every retained rank tuple ``(r_0, ..., r_{S-2})``, of the
    ``np.kron`` left fold of the branch-selected factor slices.

    Factor ``k`` contributes its slice at branch ``(...(r_0 * R_1 + r_1) ...)
    * R_k + r_k`` (row-major); the last factor shares the branch of the one
    before it.
    """
    ranks = seq.ranks
    out = np.zeros(seq.target_shape)
    for tup in itertools.product(*(range(r) for r in ranks)):
        slices = []
        branch = 0
        for k, factor in enumerate(seq.factors):
            if k < len(ranks):
                branch = branch * ranks[k] + tup[k]
            slices.append(factor[branch])
        out += reduce(np.kron, slices)
    return out


def reconstruction_error(w, seq) -> float:
    """Squared Frobenius norm of ``w - reconstruct(seq)``."""
    w = as_tensor(w)
    if w.shape != seq.target_shape:
        raise ShapeError(
            f"tensor shape {w.shape} != sequence target {seq.target_shape}"
        )
    diff = w - reconstruct(seq)
    return float(np.sum(diff * diff))


def stage_mac_count(shapes: FactorShapeMatrix, factor0_first: bool = False) -> list[int]:
    """Per-branch, per-output-position MACs of each factorized conv stage,
    counted one multiply at a time, in factor order.

    Last factor first, the stage that contracts factor ``i`` writes one
    output for every ``f`` digit of factors ``i .. S-1`` and every ``c``
    digit of factors ``0 .. i-1`` (the channel groups not yet summed).
    Factor 0 first, it writes one for every ``f`` digit of factors ``0 ..
    i`` and every ``c`` digit of factors ``i+1 .. S-1``.  Either way each
    output adds one product per ``(c, h, w)`` digit of factor ``i``.
    """
    rows = shapes.rows
    counts = []
    for i, (_, c, h, w) in enumerate(rows):
        if factor0_first:
            f_rows, c_rows = rows[: i + 1], rows[i + 1 :]
        else:
            f_rows, c_rows = rows[i:], rows[:i]
        outputs = itertools.product(
            *(range(row[0]) for row in f_rows), *(range(row[1]) for row in c_rows)
        )
        count = 0
        for _ in outputs:
            for _ in itertools.product(range(c), range(h), range(w)):
                count += 1
        counts.append(count)
    return counts


def executed_conv_macs(seq, input_hw, padding: int = 0, factor0_first: bool = False) -> int:
    """MACs the staged conv runs on an ``(H, W)`` input in one band, each
    stage at its own output size.

    Last factor first, the stage that contracts factor ``k`` reads an image
    already shrunk by the taps of factors ``k+1 .. S-1`` and shrinks it by
    its own, so it writes ``(H_p - prod_{j>=k} h_j + 1) (W_p - prod_{j>=k}
    w_j + 1)`` positions.  Factor 0 first, the image shrinks by the taps of
    factors ``0 .. k``, each at the dilation ``prod_{j>l} h_j`` of its
    factor ``l``, so the stage writes ``H_p - sum_{l<=k} (h_l - 1)
    prod_{j>l} h_j`` rows, and likewise columns.  Each position counts, for
    each branch of factor ``k``, the per-branch outputs
    :func:`stage_mac_count` counts.
    """
    rows = seq.shapes.rows
    s = len(rows)
    h, w = (d + 2 * padding for d in input_hw)
    total = 0
    for k, per_position in enumerate(stage_mac_count(seq.shapes, factor0_first)):
        branches = math.prod(seq.ranks[: min(k, s - 2) + 1])
        if factor0_first:
            # factor l's taps run at the dilation prod_{j>l} of its axis
            shrink = [
                sum((rows[l][a] - 1) * math.prod(r[a] for r in rows[l + 1 :]) for l in range(k + 1))
                for a in (2, 3)
            ]
        else:
            shrink = [math.prod(row[a] for row in rows[k:]) - 1 for a in (2, 3)]
        total += branches * per_position * (h - shrink[0]) * (w - shrink[1])
    return total


def write_candidates_csv_per_row(candidates, path) -> None:
    """The sweep CSV written with every field, the shape string included,
    built afresh for each row."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["shapes", "ranks", "cr", "fr", "latency_ms"])
        for c in candidates:
            writer.writerow(
                [
                    c.shapes.to_string(),
                    ",".join(str(r) for r in c.ranks),
                    repr(c.cr),
                    repr(c.fr),
                    "" if c.latency_ms is None else repr(float(c.latency_ms)),
                ]
            )


def write_raw(path, magic: bytes, header: dict, n_floats: int) -> None:
    """A file of ``header`` as given, whatever it holds, and a payload of
    ``0 .. n_floats - 1``."""
    blob = json.dumps(header).encode("utf-8")
    payload = np.arange(n_floats, dtype="<f8").tobytes()
    path.write_bytes(magic + b"\x01" + struct.pack("<I", len(blob)) + blob + payload)


def _write_joined(path, magic: bytes, header: dict, arrays) -> None:
    blob = json.dumps(header, separators=(",", ":")).encode("utf-8")
    payload = b"".join(np.asarray(a).astype("<f8").tobytes() for a in arrays)
    with open(path, "wb") as handle:
        handle.write(magic + bytes([1]) + struct.pack("<I", len(blob)) + blob + payload)


def write_tensor_joined(path, t) -> None:
    """A ``.skt`` writer that copies the payload into ``bytes`` first."""
    t = np.asarray(t)
    _write_joined(path, b"SKTN", {"dtype": "f64", "shape": list(t.shape)}, [t])


def write_sequence_joined(path, seq) -> None:
    """A ``.sks`` writer that copies each factor into ``bytes`` and joins them."""
    header = {
        "S": seq.shapes.num_factors,
        "N": seq.shapes.num_axes,
        "ranks": list(seq.ranks),
        "factor_shapes": [list(row) for row in seq.shapes.rows],
        "layout": "branch-major",
    }
    _write_joined(path, b"SKSQ", header, seq.factors)
