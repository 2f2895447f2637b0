"""Command-line interface.

Machine-readable results go to stdout as JSON lines; all diagnostics go to
stderr.  Exit codes: 0 success, 1 unexpected error, 2 usage, 3 file format
error, 4 shape/rank error, 5 no feasible configuration, 6 SVD
non-convergence, 7 candidate cap exceeded.
"""

import argparse
import json
import sys

from sekron.conv import conv2d_reference, sekron_conv2d
from sekron.decompose import (
    reconstruct,
    sekron_decompose,
    tail_bound,
)
from sekron.equivalences import (
    CpFactors,
    TrCores,
    TuckerFactors,
    from_cp,
    from_tr,
    from_tt,
    from_tucker,
)
from sekron.errors import (
    CandidateLimitError,
    FileFormatError,
    NoFeasibleConfigError,
    RankError,
    ShapeError,
    SvdConvergenceError,
)
from sekron.fileio import read_sequence, read_tensor, write_sequence, write_tensor
from sekron.planner import (
    PlanRequest,
    compression_ratio,
    enumerate_configs,
    flops_ratio,
    measure_latency,
    measure_sequence_latency,
    select_config,
    write_candidates_csv,
)
from sekron.tensor_core import FactorShapeMatrix

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_FORMAT = 3
EXIT_SHAPE = 4
EXIT_NO_CONFIG = 5
EXIT_SVD = 6
EXIT_CANDIDATE_CAP = 7


def _parse_ranks(text: str) -> tuple[int, ...]:
    if not text:
        return ()
    try:
        return tuple(int(r) for r in text.split(","))
    except ValueError as exc:
        raise RankError(f"cannot parse ranks {text!r}") from exc


def _parse_int_tuple(text: str, expect: int, what: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(d) for d in text.split(","))
    except ValueError as exc:
        raise ShapeError(f"cannot parse {what} {text!r}") from exc
    if len(dims) != expect:
        raise ShapeError(f"{what} needs {expect} comma-separated ints, got {text!r}")
    return dims


def _emit(obj) -> None:
    print(json.dumps(obj))


def _cmd_decompose(args) -> int:
    w = read_tensor(args.input)
    shapes = FactorShapeMatrix.from_string(args.shapes)
    ranks = _parse_ranks(args.ranks)
    seq = sekron_decompose(w, shapes, ranks)
    write_sequence(args.output, seq)
    print(f"wrote {args.output}", file=sys.stderr)
    if args.report:
        # the tails' sum is the exact squared error (see sekron.decompose);
        # float() because a single factor has no levels and sum([]) is int 0
        report = {
            "frobenius_error": float(sum(map(sum, seq.level_tails))),
            "error_bound": tail_bound(shapes, seq.level_tails),
            "cr": compression_ratio(shapes, ranks),
            "fr": flops_ratio(shapes, ranks) if shapes.num_axes == 4 else None,
            "param_count": seq.param_count,
        }
        _emit(report)
    return EXIT_OK


def _cmd_reconstruct(args) -> int:
    seq = read_sequence(args.input)
    write_tensor(args.output, reconstruct(seq))
    print(f"wrote {args.output}", file=sys.stderr)
    return EXIT_OK


def _cmd_conv(args) -> int:
    seq = read_sequence(args.weights)
    x = read_tensor(args.input)
    if args.reference:
        y = conv2d_reference(x, reconstruct(seq), padding=args.padding)
    else:
        y = sekron_conv2d(x, seq, padding=args.padding)
    write_tensor(args.output, y)
    print(f"wrote {args.output}", file=sys.stderr)
    return EXIT_OK


def _cmd_convert(args) -> int:
    arrays = [read_tensor(p) for p in args.input]
    fmt = args.source_format
    if fmt == "cp":
        seq = from_cp(CpFactors(tuple(arrays)))
    elif fmt == "tucker":
        if len(arrays) < 2:
            raise ShapeError("tucker conversion needs a core file plus one matrix per axis")
        seq = from_tucker(TuckerFactors(arrays[0], tuple(arrays[1:])))
    elif fmt == "tt":
        seq = from_tt(TrCores(tuple(arrays)))
    else:
        seq = from_tr(TrCores(tuple(arrays)))
    write_sequence(args.output, seq)
    print(f"wrote {args.output}", file=sys.stderr)
    return EXIT_OK


def _config_json(config) -> dict:
    return {
        "shapes": config.shapes.to_string(),
        "ranks": list(config.ranks),
        "cr": config.cr,
        "fr": config.fr,
        "latency_ms": config.latency_ms,
    }


def _cmd_plan(args) -> int:
    shape = _parse_int_tuple(args.shape, 4, "--shape")
    request = PlanRequest(
        target_shape=shape,
        sequence_length=args.seq_len,
        target_cr=args.target_cr,
        latency_budget_ms=args.latency_budget_ms,
        max_rank=args.max_rank,
    )
    if request.latency_budget_ms is not None and args.bench_input is None:
        raise ShapeError("--latency-budget-ms requires --bench-input to measure latencies")
    candidates = enumerate_configs(request)
    if args.bench_input is not None:
        input_shape = _parse_int_tuple(args.bench_input, 4, "--bench-input")
        measured = []
        for i, candidate in enumerate(candidates):
            latency = measure_latency(candidate, input_shape, trials=args.trials)
            measured.append(candidate.with_latency(latency))
            print(
                f"benchmarked {i + 1}/{len(candidates)}: "
                f"{candidate.shapes.to_string()} -> {latency:.3f} ms",
                file=sys.stderr,
            )
        candidates = measured
    write_candidates_csv(candidates, args.out)
    print(f"wrote {len(candidates)} candidates to {args.out}", file=sys.stderr)
    chosen = select_config(candidates, request.target_cr, request.latency_budget_ms)
    _emit(_config_json(chosen))
    return EXIT_OK


def _cmd_bench(args) -> int:
    seq = read_sequence(args.weights)
    input_shape = _parse_int_tuple(args.input_shape, 4, "--input-shape")
    latency = measure_sequence_latency(
        seq, input_shape, trials=args.trials, padding=args.padding
    )
    _emit({"latency_ms": latency, "trials": args.trials})
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sekron",
        description="Kronecker-sequence tensor decomposition and factorized convolution",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="decompose a tensor into Kronecker factors")
    p.add_argument("--input", required=True, help="input .skt tensor")
    p.add_argument(
        "--shapes",
        required=True,
        help="factor shapes, e.g. 2x2x1x1,2x2x3x3 (axes x-separated, factors comma-separated)",
    )
    p.add_argument(
        "--ranks",
        default="",
        help="comma-separated retained ranks, one per level (empty for a single factor)",
    )
    p.add_argument("--output", required=True, help="output .sks sequence")
    p.add_argument(
        "--report",
        action="store_true",
        help="print JSON with frobenius_error, error_bound, cr, fr, param_count",
    )
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("reconstruct", help="compose a sequence back into a tensor")
    p.add_argument("--input", required=True, help="input .sks sequence")
    p.add_argument("--output", required=True, help="output .skt tensor")
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("conv", help="convolve an input with factorized weights")
    p.add_argument("--weights", required=True, help="weights as a .sks sequence")
    p.add_argument("--input", required=True, help="input activations (.skt, N,C,H,W)")
    p.add_argument("--output", required=True, help="output activations (.skt)")
    p.add_argument("--padding", type=int, default=0, help="symmetric zero padding")
    p.add_argument(
        "--reference",
        action="store_true",
        help="compose the weights first and run the dense reference convolution",
    )
    p.set_defaults(func=_cmd_conv)

    p = sub.add_parser("convert", help="embed CP/Tucker/TT/TR factors as a sequence")
    p.add_argument(
        "--from",
        dest="source_format",
        required=True,
        choices=["cp", "tucker", "tt", "tr"],
        help="source format",
    )
    p.add_argument(
        "--input",
        required=True,
        nargs="+",
        help="factor files (.skt): cp = rank x dim matrices; tucker = core then "
        "dim x rank matrices; tt/tr = dim x rank x rank cores",
    )
    p.add_argument("--output", required=True, help="output .sks sequence")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("plan", help="enumerate configurations and pick one")
    p.add_argument("--shape", required=True, help="weight shape F,C,KH,KW")
    p.add_argument("--seq-len", type=int, required=True, help="number of factors")
    p.add_argument("--target-cr", type=float, required=True, help="desired compression ratio")
    p.add_argument("--latency-budget-ms", type=float, default=None)
    p.add_argument(
        "--bench-input",
        default=None,
        help="benchmark each candidate on this input shape N,C,H,W",
    )
    p.add_argument("--max-rank", type=int, default=4, help="rank grid upper bound")
    p.add_argument("--trials", type=int, default=5, help="timing trials per candidate")
    p.add_argument("--out", required=True, help="CSV file for the full sweep")
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("bench", help="measure conv latency of a stored sequence")
    p.add_argument("--weights", required=True, help="weights as a .sks sequence")
    p.add_argument("--input-shape", required=True, help="input shape N,C,H,W")
    p.add_argument("--trials", type=int, default=11, help="timing trials")
    p.add_argument("--padding", type=int, default=0)
    p.set_defaults(func=_cmd_bench)
    return parser


def run_cli(argv=None) -> int:
    """Parse and run one command; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except FileFormatError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except (ShapeError, RankError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SHAPE
    except NoFeasibleConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONFIG
    except SvdConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SVD
    except CandidateLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CANDIDATE_CAP
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
