"""Command-line interface.

Machine-readable results go to stdout as JSON lines; all diagnostics go to
stderr.  ``plan --bench-input`` reports its progress on stderr as one JSON
object per measured candidate, with keys ``i``, ``n``, ``shapes``, ``ranks``
and ``latency_ms``.  The exit code is 0 on success and 2 on a usage error;
an error a command raises maps to its code through :data:`_EXIT_CODES`,
which ``sekron --help`` lists.
"""

import argparse
import functools
import json
import math
import sys

from sekron.conv import _conv_shape, conv2d_reference, sekron_conv2d
from sekron.decompose import reconstruct, sekron_decompose
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
    MIN_TRIALS,
    PlanRequest,
    _count,
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
EXIT_USAGE = 2

# the exit code of each error a command may raise, the first match wins; any
# other exception is a bug and propagates with its traceback.  A MemoryError,
# a size the machine cannot allocate, is no bug: it exits 1 as an OSError does
_EXIT_CODES = (
    ((FileFormatError,), 3),
    ((ShapeError, RankError, ValueError), 4),
    ((NoFeasibleConfigError,), 5),
    ((SvdConvergenceError,), 6),
    ((CandidateLimitError,), 7),
    ((OSError, MemoryError), 1),
)


def _parse_ints(text: str, what: str, error) -> tuple[int, ...]:
    """Comma-separated ints, ``()`` for the empty string; anything else that
    ``int`` cannot read raises ``error``.  The count is left to the library
    call the values go to."""
    if not text:
        return ()
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise error(f"cannot parse {what} {text!r}") from exc


def _emit(obj) -> None:
    # strict JSON, which has no NaN or infinity: a non-finite value, such as
    # the squared error of a weight whose error passes the float64 range,
    # is written as null
    finite = {
        key: None if isinstance(value, float) and not math.isfinite(value) else value
        for key, value in obj.items()
    }
    print(json.dumps(finite, allow_nan=False))


def _cmd_decompose(args) -> int:
    w = read_tensor(args.input)
    shapes = FactorShapeMatrix.from_string(args.shapes)
    ranks = _parse_ints(args.ranks, "ranks", RankError)
    seq = sekron_decompose(w, shapes, ranks)
    write_sequence(args.output, seq)
    print(f"wrote {args.output}", file=sys.stderr)
    if args.report:
        # the tails' sum is the squared error of the written factors, each
        # tail a measured residual (see sekron.decompose); float() because a
        # single factor has no levels and sum([]) is int 0
        report = {
            "frobenius_error": float(sum(map(sum, seq.level_tails))),
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
    request = PlanRequest(
        target_shape=_parse_ints(args.shape, "--shape", ShapeError),
        sequence_length=args.seq_len,
        target_cr=args.target_cr,
        latency_budget_ms=args.latency_budget_ms,
        max_rank=args.max_rank,
    )
    # the probes' own check of the count, run before the sweep and whether or
    # not any candidate is timed
    _count(args.trials, "--trials", MIN_TRIALS)
    if args.bench_input is None:
        if request.latency_budget_ms is not None:
            raise ShapeError("--latency-budget-ms requires --bench-input to measure latencies")
    else:
        # checked before the sweep, which can take seconds to enumerate; the
        # probes run without padding
        input_shape = _parse_ints(args.bench_input, "--bench-input", ShapeError)
        _conv_shape(input_shape, request.target_shape, 0, "--bench-input")
    candidates = enumerate_configs(request)
    if args.bench_input is not None:
        latencies, n = [], len(candidates)
        for i, candidate in enumerate(candidates, 1):
            latency = measure_latency(candidate, input_shape, trials=args.trials)
            latencies.append(latency)
            progress = {"i": i, "n": n, "shapes": candidate.shapes.to_string(),
                        "ranks": list(candidate.ranks), "latency_ms": latency}
            print(json.dumps(progress), file=sys.stderr)
        candidates = candidates.with_latency(latencies)
    write_candidates_csv(candidates, args.out)
    print(f"wrote {len(candidates)} candidates to {args.out}", file=sys.stderr)
    chosen = select_config(candidates, request.target_cr, request.latency_budget_ms)
    _emit(_config_json(chosen))
    return EXIT_OK


def _cmd_bench(args) -> int:
    seq = read_sequence(args.weights)
    input_shape = _parse_ints(args.input_shape, "--input-shape", ShapeError)
    latency = measure_sequence_latency(
        seq, input_shape, trials=args.trials, padding=args.padding
    )
    _emit({"latency_ms": latency, "trials": args.trials})
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    """A new parser for all subcommands on every call."""
    codes = [(EXIT_OK, "success"), (EXIT_USAGE, "usage error")] + [
        (code, ", ".join(t.__name__ for t in types)) for types, code in _EXIT_CODES
    ]
    parser = argparse.ArgumentParser(
        prog="sekron",
        description="Kronecker-sequence tensor decomposition and factorized convolution",
        epilog="exit codes:\n" + "\n".join(f"  {code}  {what}" for code, what in sorted(codes)),
        formatter_class=argparse.RawDescriptionHelpFormatter,
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
        help="print strict JSON: frobenius_error, the squared error ||W - W_hat||^2 of the "
        "written factors (the sum of each level's measured residual), cr, fr, param_count; "
        "a value beyond the float64 range, such as that squared error near 1e160, is null",
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
        help="compose the weights first and run the dense im2col GEMM convolution",
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
    p.add_argument("--shape", required=True, help="weight shape F,C,KH,KW, each at most 2**20")
    p.add_argument("--seq-len", type=int, required=True, help="number of factors")
    p.add_argument("--target-cr", type=float, required=True, help="desired compression ratio")
    p.add_argument("--latency-budget-ms", type=float, default=None,
                   help="pick only a candidate whose measured latency is at most this many "
                   "ms; needs --bench-input, and must be finite and >= 0")
    p.add_argument(
        "--bench-input",
        default=None,
        help="benchmark each candidate on this input shape N,C,H,W",
    )
    p.add_argument("--max-rank", type=int, default=4, help="rank grid upper bound")
    p.add_argument(
        "--trials",
        type=int,
        default=5,
        help=f"timing trials per candidate, at least {MIN_TRIALS}",
    )
    p.add_argument("--out", required=True, help="CSV file for the full sweep, columns shapes, "
                   "ranks, cr, fr (the per-position MAC ratio run last factor first, a lower "
                   "bound on the conv's saving), latency_ms (empty without --bench-input)")
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("bench", help="measure conv latency of a stored sequence")
    p.add_argument("--weights", required=True, help="weights as a .sks sequence")
    p.add_argument("--input-shape", required=True, help="input shape N,C,H,W")
    p.add_argument(
        "--trials", type=int, default=11, help=f"timing trials, at least {MIN_TRIALS}"
    )
    p.add_argument("--padding", type=int, default=0, help="symmetric zero padding")
    p.set_defaults(func=_cmd_bench)
    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    return build_parser()


def run_cli(argv=None) -> int:
    """Parse and run one command; returns the process exit code.

    All calls in a process parse with one parser, built on the first call;
    argparse keeps the parsed values in a fresh namespace per call and does
    not change the parser, so no call sees another's arguments.
    """
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except Exception as exc:
        for types, code in _EXIT_CODES:
            if isinstance(exc, types):
                tag = f" [{exc.code}]" if isinstance(exc, FileFormatError) else ""
                print(f"error{tag}: {exc}", file=sys.stderr)
                return code
        raise


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
