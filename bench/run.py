"""Benchmark of the sekron package on a ResNet-18-shaped network.

    python3 bench/run.py --workload {compress,infer,plan} --seed N --seconds S --trace {0,1}

Run from the repository root; it imports the package from ``src/``.  One
process, one caller (closed loop).  The seed makes every input; the program
receives only the generated arrays and files.  Rounds of the workload run for
about ``--seconds``, then the last round's outputs are checked against
independent numpy oracles.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced rounds and reports per-module
self times, counts and per-layer conv timings, plus the tracing overhead.

Standard output: one JSON line of provenance, inputs and sample counts, then
one result line ``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import contextlib
import os
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

from tracing import MODULES

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = 1
CPUS = sorted(os.sched_getaffinity(0))[:2]  # rounds take turns on these

END_TO_END = {
    "setup_s": "s",
    "job_s": "s",
    "latency_ms": "ms",
    "rel_err": "ratio",
    "peak_rss_mb": "MB",
}


def per_layer_units(labels, batch) -> dict:
    units = {f"{m}.self_s": "s" for m in MODULES}
    units.update({
        "bench.remainder_s": "s", "trace.wall_s": "s", "trace.overhead_s": "s",
        "planner.enumerate_s": "s", "planner.candidates": "count",
        "planner.measured": "count", "planner.measure_s": "s",
        "planner.select_s": "s", "planner.csv_s": "s",
        "linalg.svd_calls": "count", "linalg.svd_s": "s", "linalg.svd_kept_frac": "ratio",
        "decompose.decompose_calls": "count", "decompose.decompose_s": "s",
        "decompose.reconstruct_s": "s", "decompose.error_bound_s": "s",
        "tensor_core.unfold_s": "s", "tensor_core.kron_calls": "count",
        "tensor_core.kron_s": "s",
        "fileio.read_s": "s", "fileio.write_s": "s", "fileio.bytes": "B",
    })
    for label in labels:
        units.update({
            f"conv.{label}.b{batch}_ms": "ms", f"conv.{label}.b1_ms": "ms",
            f"conv.{label}.macs": "MAC", f"conv.{label}.gmac_per_s": "GMAC/s",
            f"conv.{label}.gemm_ms": "ms", f"conv.{label}.gemm_ratio": "ratio",
        })
    return units


def git_commit():
    """HEAD of the checkout, read without running git; None outside a repository."""
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = ROOT / ".git" / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def pin(i: int) -> int:
    """Pin the process to the ``i``-th of :data:`CPUS`, cyclically; returns its id.

    On a 2-vCPU virtual machine the two CPUs ran up to 1.5x apart in speed,
    and which one was slower changed over minutes.  Set-ups and rounds
    therefore take turns on each CPU, and a timing is the mean over CPUs of
    the median on each, so a run does not depend on where the scheduler put it.
    """
    cpu = CPUS[i % len(CPUS)]
    os.sched_setaffinity(0, {cpu})
    return cpu


def cpu_mean(samples) -> float:
    """Mean over CPUs of the median of the (cpu, seconds) samples on each."""
    by_cpu = defaultdict(list)
    for cpu, seconds in samples:
        by_cpu[cpu].append(seconds)
    return statistics.fmean(statistics.median(v) for v in by_cpu.values())


def pooled(rounds) -> float:
    """Seconds per round from (cpu, ops) rounds: the sum over op keys of
    (calls per round) x :func:`cpu_mean` of that key's calls.  Same-shape calls
    share a key, so each median rests on many samples and a slow spell of the
    machine moves it less than it moves a median of round totals."""
    samples = defaultdict(list)
    for cpu, ops in rounds:
        for key, seconds in ops:
            samples[key].append((cpu, seconds))
    return sum(len(v) / len(rounds) * cpu_mean(v) for v in samples.values())


def measure(workload, seconds: float, tracer, direct_call):
    """Rounds until the next one would end past ``seconds``, at least one per
    CPU (per CPU and kind with a tracer, where odd rounds are traced).
    Returns (traced, cpu, wall, job ops, latency ops) per round."""
    rounds = []
    start = time.perf_counter()
    kinds = 1 if tracer is None else 2
    while True:
        traced = len(rounds) % kinds == 1
        cpu = pin(len(rounds) // kinds)
        t0 = time.perf_counter()
        if traced:
            with tracer.patched():
                job, latency = workload.round(tracer.call)
        else:
            job, latency = workload.round(direct_call)
        rounds.append((traced, cpu, time.perf_counter() - t0, job, latency))
        elapsed = time.perf_counter() - start
        if (len(rounds) >= kinds * len(CPUS)
                and elapsed + statistics.median(r[2] for r in rounds) > seconds):
            return rounds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["compress", "infer", "plan"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "sekron" / "__init__.py").is_file():
        print(f"error: no sekron package under {src}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)  # before numpy is imported
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(src))

    import json
    import platform
    import resource

    import numpy as np

    import network as net
    import sekron
    from tracing import Tracer, direct_call
    from workloads import INFER_BATCH, SETUP_REPEATS, Bench, WORKLOADS

    if Path(sekron.__file__).resolve().parent != (src / "sekron").resolve():
        print(f"error: imported sekron from {sekron.__file__}, not {src}", file=sys.stderr)
        return 2

    workdir = ROOT / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        bench = Bench(workdir, args.seed)
        workload = WORKLOADS[args.workload](bench)
        setups = []
        for i in range(SETUP_REPEATS):
            cpu = pin(i)
            t0 = time.perf_counter()
            workload.setup()
            setups.append((cpu, time.perf_counter() - t0))
        workload.hash_inputs()

        tracer = Tracer() if args.trace else None
        rounds = measure(workload, args.seconds, tracer, direct_call)
        rel_err = workload.check()

        untraced = [r for r in rounds if not r[0]]
        info = {"rounds": len(rounds), "setups": len(setups)}
        if tracer is None:
            info.update(rounds_s=[r[1:3] for r in untraced], setups_s=setups,
                        latency_samples=sum(len(r[4]) for r in untraced))
            values = {
                "setup_s": cpu_mean(setups),
                "job_s": pooled([(r[1], r[3]) for r in untraced]),
                "latency_ms": 1000.0 * pooled([(r[1], r[4]) for r in untraced])
                / workload.requests,
                "rel_err": rel_err,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = END_TO_END
        else:
            walls = [r[2] for r in rounds if r[0]]
            values = dict.fromkeys(per_layer_units(net.LABELS, INFER_BATCH), 0.0)
            summary = tracer.summary(len(walls), sum(walls))
            values.update(summary)
            values["trace.overhead_s"] = (
                cpu_mean(r[1:3] for r in rounds if r[0]) - cpu_mean(r[1:3] for r in untraced))
            values.update(workload.traced(tracer, summary))
            units = per_layer_units(net.LABELS, INFER_BATCH)
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(spans_path)
            info.update(traced_rounds=len(walls), spans=len(tracer.spans),
                        spans_file=str(spans_path.relative_to(ROOT)), absent=tracer.absent)

        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        provenance = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": len(CPUS),
            "blas_threads": BLAS_THREADS, "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "python": platform.python_version(), "git_commit": git_commit(),
            "configs": net.CONFIGS, "spectrum": net.SPECTRUM, "infer_batch": INFER_BATCH,
            "inputs": bench.hashes, **info,
        }
        print(json.dumps({"provenance": provenance}))
        print(json.dumps({
            "correct": bench.failed == 0,
            "attempted": bench.attempted,
            "failed": bench.failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()


if __name__ == "__main__":
    sys.exit(main())
