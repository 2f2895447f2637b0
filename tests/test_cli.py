"""Exit codes, the ``decompose --report`` output and the ``plan`` progress
lines of the command line."""

import csv
import json
import struct

import numpy as np
import pytest

from sekron import (
    CpFactors,
    FactorShapeMatrix,
    FileFormatError,
    SekronError,
    TrCores,
    TuckerFactors,
    read_sequence,
    read_tensor,
    reconstruct,
    write_sequence,
    write_tensor,
)
from sekron.cli import build_parser, run_cli
from oracles import native_reconstruct, random_sequence, reconstruction_error


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


def write_tensor_first_value(path, t, value) -> None:
    """``t`` as a ``.skt`` file whose first payload value is then set to
    ``value``; the writer itself refuses NaN and infinities."""
    write_tensor(path, t)
    data = bytearray(path.read_bytes())
    start = len(data) - 8 * t.size
    data[start : start + 8] = struct.pack("<d", value)
    path.write_bytes(bytes(data))


def nan_weight(tmp_path):
    w = np.random.default_rng(0).standard_normal((4, 4, 2, 2))
    write_tensor_first_value(tmp_path / "w.skt", w, np.nan)
    return ["decompose", "--input", str(tmp_path / "w.skt"), "--shapes", "2x2x1x1,2x2x2x2",
            "--ranks", "2", "--output", str(tmp_path / "w.sks")]


def write_weights(tmp_path) -> str:
    """A two-factor sequence composing to 4x4x3x3, as ``w.sks``."""
    shapes = FactorShapeMatrix.from_string("2x2x1x1,2x2x3x3")
    write_sequence(tmp_path / "w.sks", random_sequence(shapes, (2,), rng=0))
    return str(tmp_path / "w.sks")


def conv_argv(tmp_path):
    return ["conv", "--weights", write_weights(tmp_path), "--input", str(tmp_path / "x.skt"),
            "--output", str(tmp_path / "y.skt"), "--padding", "1"]


def inf_activation(tmp_path):
    x = np.random.default_rng(0).standard_normal((1, 4, 5, 5))
    write_tensor_first_value(tmp_path / "x.skt", x, np.inf)
    return conv_argv(tmp_path)


def random_activation(tmp_path, shape=(2, 4, 5, 6)):
    write_tensor(tmp_path / "x.skt", np.random.default_rng(1).standard_normal(shape))
    return conv_argv(tmp_path)


def bench_argv(tmp_path, input_shape, *extra):
    return ["bench", "--weights", write_weights(tmp_path), "--input-shape", input_shape,
            *extra]


def tucker_core_only(tmp_path):
    write_tensor(tmp_path / "core.skt", np.ones((2, 2)))
    return ["convert", "--from", "tucker", "--input", str(tmp_path / "core.skt"),
            "--output", str(tmp_path / "w.sks")]


def tiny_plan(tmp_path, *extra):
    return ["plan", "--shape", "2,2,1,1", "--seq-len", "2", "--target-cr", "1",
            "--max-rank", "1", "--out", str(tmp_path / "sweep.csv"), *extra]


CASES = {
    "report": (0, lambda p: decompose_argv(p, "2x2x1x1,2x2x2x2", "2", "--report")),
    "no-command": (2, lambda p: []),
    "unknown-command": (2, lambda p: ["compose"]),
    "missing-required": (2, lambda p: ["decompose", "--input", "w.skt"]),
    "bad-int-option": (2, lambda p: tiny_plan(p, "--trials", "three")),
    "missing-input": (1, lambda p: ["decompose", "--input", str(p / "absent.skt"),
                                    "--shapes", "2x2,2x2", "--ranks", "1",
                                    "--output", str(p / "w.sks")]),
    "bad-magic": (3, bad_magic),
    "bool-dimension": (3, bool_dimension),
    "bool-rank": (3, lambda p: sequence_file(p, [[2, 2], [2, 2]], [True])),
    "ragged-rows": (3, lambda p: sequence_file(p, [[2, 2], [2, 2, 1]], [1])),
    "nan-weight": (3, nan_weight),
    "inf-activation": (3, inf_activation),
    "rank-over-cap": (4, lambda p: decompose_argv(p, "2x2x1x1,2x2x2x2", "5")),
    "unparsable-rank": (4, lambda p: decompose_argv(p, "2x2x1x1,2x2x2x2", "a")),
    # runs with np.linalg.eigh failing, as LAPACK does when it does not converge
    "svd-no-convergence": (6, lambda p: decompose_argv(p, "2x2x1x1,2x2x2x2", "2")),
    "budget-unmet": (5, lambda p: tiny_plan(
        p, "--bench-input", "1,2,3,3", "--latency-budget-ms", "0", "--trials", "3")),
    "latency-budget-nan": (4, lambda p: tiny_plan(
        p, "--bench-input", "1,2,3,3", "--latency-budget-ms", "nan", "--trials", "3")),
    "target-cr-nan": (4, lambda p: tiny_plan(p, "--target-cr", "nan")),
    "target-cr-inf": (4, lambda p: tiny_plan(p, "--target-cr", "inf")),
    "shape-arity": (4, lambda p: ["plan", "--shape", "8,8,3", "--seq-len", "2",
                                  "--target-cr", "2", "--out", str(p / "sweep.csv")]),
    "input-shape-arity": (4, lambda p: bench_argv(p, "1,4,5", "--trials", "3")),
    "bench-too-few-trials": (4, lambda p: bench_argv(p, "1,4,5,5", "--trials", "2")),
    "conv-3d-input": (4, lambda p: random_activation(p, (4, 5, 6))),
    "tucker-core-only": (4, tucker_core_only),
    "shape-over-bound": (4, lambda p: ["plan", "--shape", "1000000000000000003,1,1,1",
                                       "--seq-len", "2", "--target-cr", "1", "--max-rank", "1",
                                       "--out", str(p / "sweep.csv")]),
    "candidate-cap": (7, lambda p: ["plan", "--shape", "256,256,3,3", "--seq-len", "4",
                                    "--target-cr", "4", "--out", str(p / "sweep.csv")]),
    # counts with thousands of digits: the cap is decided without building them
    "candidate-cap-long-sequence": (7, lambda p: ["plan", "--shape", "64,64,3,3",
                                                  "--seq-len", "8000", "--target-cr", "6",
                                                  "--out", str(p / "sweep.csv")]),
    "candidate-cap-huge-sequence": (7, lambda p: ["plan", "--shape", "64,64,3,3",
                                                  "--seq-len", "200000000", "--target-cr", "6",
                                                  "--out", str(p / "sweep.csv")]),
}


def eigh_fails(*args, **kwargs):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


@pytest.mark.parametrize("case", list(CASES))
def test_exit_code(tmp_path, capsys, monkeypatch, case):
    code, make_argv = CASES[case]
    if case == "svd-no-convergence":
        monkeypatch.setattr(np.linalg, "eigh", eigh_fails)
    assert run_cli(make_argv(tmp_path)) == code
    captured = capsys.readouterr()
    if code != 0:
        assert captured.out == ""
    if code not in (0, 2):
        assert captured.err.splitlines()[-1].startswith("error")


def help_exit_codes(capsys) -> dict[str, int]:
    """The exit code the epilog of ``sekron --help`` lists for each error
    type name, and for ``success`` and ``usage error``."""
    assert run_cli(["--help"]) == 0
    epilog = capsys.readouterr().out.split("exit codes:\n")[1]
    listed = {}
    for line in epilog.splitlines():
        code, names = line.split(maxsplit=1)
        listed.update(dict.fromkeys(names.split(", "), int(code)))
    return listed


def subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from subclasses(sub)


@pytest.mark.parametrize(
    "error", [*subclasses(SekronError), ValueError, OSError], ids=lambda e: e.__name__
)
def test_every_error_type_exits_with_the_code_help_lists(capsys, monkeypatch, error):
    listed = help_exit_codes(capsys)
    assert (listed["success"], listed["usage error"]) == (0, 2)
    # the code of the nearest type the epilog names
    code = next(listed[t.__name__] for t in error.__mro__ if t.__name__ in listed)

    def read_sequence(path):
        raise error("stub")

    monkeypatch.setattr("sekron.cli.read_sequence", read_sequence)
    assert run_cli(["reconstruct", "--input", "w.sks", "--output", "w.skt"]) == code
    tag = f" [{error.code}]" if issubclass(error, FileFormatError) else ""
    assert capsys.readouterr().err.splitlines()[-1] == f"error{tag}: stub"


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_target_cr_is_rejected_before_the_sweep(tmp_path, capsys, value):
    assert run_cli(tiny_plan(tmp_path, "--target-cr", value)) == 4
    assert "target compression ratio" in capsys.readouterr().err.splitlines()[-1]
    assert not (tmp_path / "sweep.csv").exists()


def test_nan_latency_budget_is_rejected_before_the_sweep(tmp_path, capsys):
    argv = tiny_plan(tmp_path, "--bench-input", "1,2,3,3", "--latency-budget-ms", "nan")
    assert run_cli(argv) == 4
    assert "latency budget" in capsys.readouterr().err.splitlines()[-1]
    assert not (tmp_path / "sweep.csv").exists()


def test_too_few_trials_are_rejected_before_the_sweep(tmp_path, capsys):
    # enumerating this request would exceed the candidate cap (exit 7), so
    # exit 4 shows that the trial count is checked first
    argv = ["plan", "--shape", "256,256,3,3", "--seq-len", "4", "--target-cr", "4",
            "--bench-input", "1,256,3,3", "--trials", "2", "--out", str(tmp_path / "sweep.csv")]
    assert run_cli(argv) == 4
    assert "--trials must be at least 3" in capsys.readouterr().err.splitlines()[-1]
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize(
    "bench_input", ["1,4,5,5", "1,8,2,5", "1,8,5,2", "0,8,5,5", "1,8,5"],
    ids=["channels", "height", "width", "empty-batch", "arity"],
)
def test_bench_input_is_checked_against_shape_before_the_sweep(
    tmp_path, capsys, monkeypatch, bench_input
):
    def no_sweep(request):
        raise AssertionError("enumerated before --bench-input was checked")

    monkeypatch.setattr("sekron.cli.enumerate_configs", no_sweep)
    argv = ["plan", "--shape", "8,8,3,3", "--seq-len", "2", "--target-cr", "2",
            "--bench-input", bench_input, "--out", str(tmp_path / "sweep.csv")]
    assert run_cli(argv) == 4
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith("error") and "--bench-input" in last
    assert not (tmp_path / "sweep.csv").exists()


def test_plan_of_a_long_sequence_finishes(tmp_path, capsys):
    # 1,000 shape matrices of 1,000 factors each: every rank cap, term and
    # factorization is O(S) per matrix, so this runs in seconds (its rank
    # caps alone were O(S**2) per matrix and took minutes)
    argv = ["plan", "--shape", "3,1,1,1", "--seq-len", "1000", "--max-rank", "1",
            "--target-cr", "1", "--out", str(tmp_path / "sweep.csv")]
    assert run_cli(argv) == 0
    chosen = json.loads(capsys.readouterr().out)
    assert chosen["ranks"] == [1] * 999 and chosen["cr"] == 3 / 1002
    with open(tmp_path / "sweep.csv", newline="") as handle:
        assert sum(1 for _ in csv.reader(handle)) == 1001


def test_plan_progress_is_one_json_object_per_candidate(tmp_path, capsys):
    # max rank 2 gives two candidates for some shape matrices, told apart
    # only by their ranks
    argv = tiny_plan(tmp_path, "--max-rank", "2", "--bench-input", "1,2,3,3", "--trials", "3")
    assert run_cli(argv) == 0
    captured = capsys.readouterr()
    *progress, wrote = captured.err.splitlines()
    assert wrote == f"wrote {len(progress)} candidates to {tmp_path / 'sweep.csv'}"
    records = [json.loads(line) for line in progress]
    with open(tmp_path / "sweep.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert records == [
        {
            "i": i + 1,
            "n": len(rows),
            "shapes": row["shapes"],
            "ranks": [int(r) for r in row["ranks"].split(",")],
            "latency_ms": float(row["latency_ms"]),
        }
        for i, row in enumerate(rows)
    ]
    assert len({r["shapes"] for r in records}) < len(records)
    # each line is the bytes json.dumps writes for its record
    assert progress == [json.dumps(record) for record in records]
    # stdout is the chosen config alone, one line as json.dumps writes it
    chosen = json.loads(captured.out)
    assert captured.out == json.dumps(chosen) + "\n"
    assert list(chosen) == ["shapes", "ranks", "cr", "fr", "latency_ms"]
    key = (chosen["shapes"], chosen["ranks"])
    picked = [r["latency_ms"] for r in records if (r["shapes"], r["ranks"]) == key]
    assert picked == [chosen["latency_ms"]]


def test_report_reads_exact_error_off_the_tails(tmp_path, capsys):
    shapes = "2x2x1x1,2x1x2x1,1x2x1x2"
    w_path = write_weight(tmp_path)
    out = tmp_path / "w.sks"
    argv = ["decompose", "--input", w_path, "--shapes", shapes, "--ranks", "1,1",
            "--output", str(out), "--report"]
    assert run_cli(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    report = json.loads(lines[0])
    assert set(report) == {"frobenius_error", "cr", "fr", "param_count"}

    w = np.random.default_rng(0).standard_normal((4, 4, 2, 2))
    exact = reconstruction_error(w, read_sequence(out))
    assert report["frobenius_error"] == pytest.approx(exact, rel=1e-9, abs=0)


def test_weight_whose_gram_overflows_decomposes(tmp_path):
    # entries near 1e160 square past the float64 range in the Gram matrix
    # of the rank-2 level; the factors are the unscaled ones, the last
    # factor times the scale
    w = np.random.default_rng(0).standard_normal((4, 4, 2, 2))
    outs = []
    for scale in (1.0, 1e160):
        write_tensor(tmp_path / "w.skt", scale * w)
        outs.append(tmp_path / f"w{len(outs)}.sks")
        argv = ["decompose", "--input", str(tmp_path / "w.skt"), "--shapes",
                "2x2x1x1,2x2x2x2", "--ranks", "2", "--output", str(outs[-1])]
        assert run_cli(argv) == 0
    plain, scaled = (read_sequence(out).factors for out in outs)
    assert np.linalg.norm(scaled[0] - plain[0]) <= 1e-12 * np.linalg.norm(plain[0])
    assert np.linalg.norm(scaled[1] / 1e160 - plain[1]) <= 1e-12 * np.linalg.norm(plain[1])


def test_report_is_strict_json_when_the_error_overflows(tmp_path, capsys):
    # the squared error of a weight near 1e160 passes the float64 range; the
    # report writes it as null, which a strict reader accepts
    w = 1e160 * np.random.default_rng(0).standard_normal((4, 4, 2, 2))
    write_tensor(tmp_path / "w.skt", w)
    argv = ["decompose", "--input", str(tmp_path / "w.skt"), "--shapes", "2x2x1x1,2x2x2x2",
            "--ranks", "2", "--output", str(tmp_path / "w.sks"), "--report"]
    assert run_cli(argv) == 0

    def refuse(name):
        raise ValueError(f"not strict JSON: {name}")

    report = json.loads(capsys.readouterr().out, parse_constant=refuse)
    assert report["frobenius_error"] is None
    assert report["cr"] == 64 / 40 and report["param_count"] == 40


def random_factors(fmt):
    """Small factors of each format with their ``.skt`` payloads in the order
    ``convert --input`` takes them."""
    rng = np.random.default_rng(2)
    dims = (3, 4, 2, 2)
    if fmt == "cp":
        arrays = [rng.standard_normal((3, d)) for d in dims]
        return CpFactors(tuple(arrays)), arrays
    if fmt == "tucker":
        arrays = [rng.standard_normal((2, 3, 2, 1))]
        arrays += [rng.standard_normal((d, r)) for d, r in zip(dims, (2, 3, 2, 1))]
        return TuckerFactors(arrays[0], tuple(arrays[1:])), arrays
    ranks = (1, 2, 3, 2, 1) if fmt == "tt" else (2, 3, 2, 2, 2)
    arrays = [rng.standard_normal((d, ranks[n], ranks[n + 1])) for n, d in enumerate(dims)]
    return TrCores(tuple(arrays)), arrays


@pytest.mark.parametrize("fmt", ["cp", "tucker", "tt", "tr"])
def test_convert_matches_the_native_formula(tmp_path, capsys, fmt):
    factors, arrays = random_factors(fmt)
    paths = []
    for i, array in enumerate(arrays):
        paths.append(str(tmp_path / f"f{i}.skt"))
        write_tensor(paths[-1], array)
    out = tmp_path / "w.sks"
    assert run_cli(["convert", "--from", fmt, "--input", *paths, "--output", str(out)]) == 0
    assert capsys.readouterr().out == ""
    native = native_reconstruct(fmt, factors)
    got = reconstruct(read_sequence(out))
    assert np.linalg.norm(got - native) <= 1e-12 * np.linalg.norm(native)


def test_conv_reference_matches_factorized_conv(tmp_path):
    argv = random_activation(tmp_path)
    assert run_cli(argv) == 0
    factorized = read_tensor(tmp_path / "y.skt")
    assert run_cli(argv + ["--reference"]) == 0
    dense = read_tensor(tmp_path / "y.skt")
    assert factorized.shape == (2, 4, 5, 6)
    assert np.linalg.norm(dense - factorized) <= 1e-12 * np.linalg.norm(dense)


def test_bench_prints_one_json_line(tmp_path, capsys):
    assert run_cli(bench_argv(tmp_path, "2,4,5,5", "--trials", "3", "--padding", "1")) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    result = json.loads(lines[0])
    assert set(result) == {"latency_ms", "trials"}
    assert result["latency_ms"] > 0
    assert result["trials"] == 3


class TestSharedParser:
    def test_report_flag_does_not_carry_over(self, tmp_path, capsys):
        argv = decompose_argv(tmp_path, "2x2x1x1,2x2x2x2", "2")
        assert run_cli(argv + ["--report"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1
        assert run_cli(argv) == 0
        assert capsys.readouterr().out == ""

    def test_usage_error_then_valid_call(self, tmp_path, capsys):
        assert run_cli(["decompose", "--input", "w.skt"]) == 2
        assert run_cli(decompose_argv(tmp_path, "2x2x1x1,2x2x2x2", "2")) == 0
        capsys.readouterr()

    def test_build_parser_returns_a_new_parser(self):
        assert build_parser() is not build_parser()
