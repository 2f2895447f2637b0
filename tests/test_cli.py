"""Exit codes and the ``decompose --report`` output of the command line."""

import json
import struct

import numpy as np
import pytest

from sekron import (
    FactorShapeMatrix,
    error_bound,
    read_sequence,
    reconstruction_error,
    write_tensor,
)
from sekron.cli import run_cli


def write_raw(path, magic: bytes, header: dict, n_floats: int) -> None:
    blob = json.dumps(header).encode("utf-8")
    payload = np.zeros(n_floats).astype("<f8").tobytes()
    path.write_bytes(magic + b"\x01" + struct.pack("<I", len(blob)) + blob + payload)


def write_weight(tmp_path, shape=(4, 4, 2, 2), seed=0):
    path = tmp_path / "w.skt"
    write_tensor(path, np.random.default_rng(seed).standard_normal(shape))
    return str(path)


def decompose_argv(tmp_path, shapes, ranks, *extra):
    return ["decompose", "--input", write_weight(tmp_path), "--shapes", shapes,
            "--ranks", ranks, "--output", str(tmp_path / "w.sks"), *extra]


def bad_magic(tmp_path):
    path = tmp_path / "w.skt"
    path.write_bytes(b"NOPE" + bytes(16))
    return ["decompose", "--input", str(path), "--shapes", "2x2,2x2", "--ranks", "1",
            "--output", str(tmp_path / "w.sks")]


def bool_dimension(tmp_path):
    path = tmp_path / "w.skt"
    write_raw(path, b"SKTN", {"dtype": "f64", "shape": [True, 2]}, 2)
    return ["decompose", "--input", str(path), "--shapes", "1x1,1x2", "--ranks", "1",
            "--output", str(tmp_path / "w.sks")]


def sequence_file(tmp_path, factor_shapes, ranks):
    path = tmp_path / "w.sks"
    header = {"S": len(factor_shapes), "N": len(factor_shapes[0]), "ranks": ranks,
              "factor_shapes": factor_shapes, "layout": "branch-major"}
    write_raw(path, b"SKSQ", header, 8)
    return ["reconstruct", "--input", str(path), "--output", str(tmp_path / "out.skt")]


def tiny_plan(tmp_path, *extra):
    return ["plan", "--shape", "2,2,1,1", "--seq-len", "2", "--target-cr", "1",
            "--max-rank", "1", "--out", str(tmp_path / "sweep.csv"), *extra]


CASES = {
    "report": (0, lambda p: decompose_argv(p, "2x2x1x1,2x2x2x2", "2", "--report")),
    "no-command": (2, lambda p: []),
    "unknown-command": (2, lambda p: ["compose"]),
    "missing-required": (2, lambda p: ["decompose", "--input", "w.skt"]),
    "bad-int-option": (2, lambda p: tiny_plan(p, "--trials", "three")),
    "bad-magic": (3, bad_magic),
    "bool-dimension": (3, bool_dimension),
    "bool-rank": (3, lambda p: sequence_file(p, [[2, 2], [2, 2]], [True])),
    "ragged-rows": (3, lambda p: sequence_file(p, [[2, 2], [2, 2, 1]], [1])),
    "rank-over-cap": (4, lambda p: decompose_argv(p, "2x2x1x1,2x2x2x2", "5")),
    "unparsable-rank": (4, lambda p: decompose_argv(p, "2x2x1x1,2x2x2x2", "a")),
    "budget-unmet": (5, lambda p: tiny_plan(
        p, "--bench-input", "1,2,3,3", "--latency-budget-ms", "0", "--trials", "3")),
    "candidate-cap": (7, lambda p: ["plan", "--shape", "256,256,3,3", "--seq-len", "4",
                                    "--target-cr", "4", "--out", str(p / "sweep.csv")]),
}


@pytest.mark.parametrize("case", list(CASES))
def test_exit_code(tmp_path, capsys, case):
    code, make_argv = CASES[case]
    assert run_cli(make_argv(tmp_path)) == code
    captured = capsys.readouterr()
    if code != 0:
        assert captured.out == ""
    if code > 2:
        assert captured.err.splitlines()[-1].startswith("error")


def test_report_reads_exact_error_off_the_tails(tmp_path, capsys):
    shapes, ranks = "2x2x1x1,2x1x2x1,1x2x1x2", (1, 1)
    w_path = write_weight(tmp_path)
    out = tmp_path / "w.sks"
    argv = ["decompose", "--input", w_path, "--shapes", shapes, "--ranks", "1,1",
            "--output", str(out), "--report"]
    assert run_cli(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    report = json.loads(lines[0])
    assert set(report) == {"frobenius_error", "error_bound", "cr", "fr", "param_count"}

    w = np.random.default_rng(0).standard_normal((4, 4, 2, 2))
    exact = reconstruction_error(w, read_sequence(out))
    assert report["frobenius_error"] == pytest.approx(exact, rel=1e-9, abs=0)
    assert report["error_bound"] == error_bound(
        w, FactorShapeMatrix.from_string(shapes), ranks
    )
    assert report["error_bound"] > report["frobenius_error"]
