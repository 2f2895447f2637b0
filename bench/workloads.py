"""The three workloads.  Each sets up from the seed, runs rounds of operations
through the package's public functions or its CLI entry point, and checks the
last round's outputs against the independent oracles in :mod:`network`
outside the timed region.

* ``compress``: ``sekron decompose --report`` on each of the 19 layers.
* ``infer``: the factorized forward pass over the 19 layers, batched and at
  batch 1.
* ``plan``: ``sekron plan`` on layer shapes, with and without timing each
  candidate.
"""

import contextlib
import csv
import gc
import io
import json
import math
import statistics
import sys
import time
import traceback

import numpy as np

import network as net
import sekron
from sekron.cli import run_cli

SETUP_REPEATS = 4
INFER_BATCH = 4
B1_PASSES = 3  # batch-1 passes per infer round, after one batched pass
ORACLE_RTOL = 1e-9

# (layer whose shape is planned, plan arguments).  The first job is dominated by
# enumeration, the others by the per-candidate timing loop over tiny convs,
# with and without spatial taps.  Each takes under half a second, so a run
# holds a dozen samples of each per CPU: on a noisy machine, medians of many
# short calls held steadier than medians of a few calls of several seconds.
PLAN_JOBS = (
    ("layer2.0.downsample", ["--seq-len", "3", "--target-cr", "10", "--max-rank", "4"]),
    ("layer1.0.conv1", ["--seq-len", "2", "--target-cr", "6", "--max-rank", "1",
                        "--bench-input", "1,64,6,6", "--trials", "3"]),
    ("layer3.0.downsample", ["--seq-len", "2", "--target-cr", "6", "--max-rank", "1",
                             "--bench-input", "1,128,7,7", "--trials", "3"]),
)


class Bench:
    """One benchmark run: its seed, its work directory, and operation accounting."""

    def __init__(self, workdir, seed: int):
        self.workdir = workdir
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.hashes = {}

    def op(self, call, name, fn, *args, tag=None):
        """Run one operation; an exception counts as a failure and gives None."""
        self.attempted += 1
        try:
            return call(name, fn, *args, tag=tag)
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return None

    def cli(self, call, argv):
        """One CLI invocation; returns its parsed JSON report, or None on failure."""
        gc.collect()  # every call starts from the same collector state
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.op(call, "cli.run_cli", run_cli, argv)
        if code != 0:
            if code is not None:
                self.failed += 1
            print(f"sekron {' '.join(argv)} exited {code}: {err.getvalue()}", file=sys.stderr)
            return None
        try:
            return json.loads(out.getvalue().splitlines()[-1])
        except (IndexError, ValueError):
            self.mismatch(f"sekron {' '.join(argv)} printed no JSON report")
            return None

    def mismatch(self, message: str) -> None:
        self.failed += 1
        print(f"oracle mismatch: {message}", file=sys.stderr)

    def path(self, name: str) -> str:
        return str(self.workdir / name)

    def checkpoint(self):
        """Write each seeded weight as ``.skt`` and read it back: the model a
        user starts from.  Yields (layer, path, weight as read back)."""
        for layer in net.LAYERS:
            path = self.path(f"{layer.name}.skt")
            sekron.write_tensor(path, net.synth_weight(layer, self.seed))
            yield layer, path, sekron.read_tensor(path)

    def hash_checkpoint(self) -> None:
        for layer in net.LAYERS:
            name = f"{layer.name}.skt"
            self.hashes[name] = net.digest(net.read_skt(self.path(name)))


def close(a: float, b: float, rtol: float = ORACLE_RTOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


class Compress:
    requests = len(net.LAYERS)  # latency requests per round

    def __init__(self, bench: Bench):
        self.bench = bench
        self.reports = []

    def setup(self) -> None:
        for _ in self.bench.checkpoint():
            pass

    def hash_inputs(self) -> None:
        self.bench.hash_checkpoint()

    def round(self, call):
        """One ``decompose --report`` per layer.  Returns (job ops, latency
        ops), each a list of (key, seconds); a request is one call."""
        self.reports, ops = [], []
        for layer in net.LAYERS:
            argv = ["decompose", "--input", self.bench.path(f"{layer.name}.skt"),
                    "--shapes", layer.shapes, "--ranks", ",".join(map(str, layer.ranks)),
                    "--output", self.bench.path(f"{layer.name}.sks"), "--report"]
            start = time.perf_counter()
            self.reports.append(self.bench.cli(call, argv))
            ops.append((layer.label, time.perf_counter() - start))
        return ops, ops

    def check(self) -> float:
        """Reported error and CR against a recompute from the written ``.sks``;
        returns sum of reported errors over sum of squared weight norms."""
        err = energy = 0.0
        for layer, report in zip(net.LAYERS, self.reports):
            w = net.read_skt(self.bench.path(f"{layer.name}.skt"))
            energy += float(np.sum(w * w))
            if report is None:
                continue
            rows, ranks, factors = net.read_sks(self.bench.path(f"{layer.name}.sks"))
            if rows != net.parse_rows(layer.shapes) or ranks != layer.ranks:
                self.bench.mismatch(f"{layer.name}: stored config {rows} {ranks}")
                continue
            diff = w - net.compose(ranks, factors)
            if not close(report["frobenius_error"], float(np.sum(diff * diff))):
                self.bench.mismatch(f"{layer.name}: frobenius_error {report['frobenius_error']}")
            if not close(report["cr"], net.ratios(rows, ranks)[0]):
                self.bench.mismatch(f"{layer.name}: cr {report['cr']}")
            err += report["frobenius_error"]
        return err / energy

    def traced(self, tracer, summary) -> dict:
        return {}


class Infer:
    requests = B1_PASSES

    def __init__(self, bench: Bench):
        self.bench = bench
        self.outputs = {}

    def setup(self) -> None:
        self.seqs = {}
        for layer, path, w in self.bench.checkpoint():
            seq = sekron.sekron_decompose(
                w, sekron.FactorShapeMatrix.from_string(layer.shapes), layer.ranks
            )
            sks = self.bench.path(f"{layer.name}.sks")
            sekron.write_sequence(sks, seq)
            self.seqs[layer.name] = sekron.read_sequence(sks)
        self.inputs = {
            (layer.in_channels, layer.hw): net.synth_input(
                layer.in_channels, layer.hw, INFER_BATCH, self.bench.seed)
            for layer in net.LAYERS
        }

    def hash_inputs(self) -> None:
        self.bench.hash_checkpoint()
        for (channels, hw), x in self.inputs.items():
            self.bench.hashes[f"x{INFER_BATCH}x{channels}x{hw}x{hw}"] = net.digest(x)

    def x(self, layer, batch):
        return self.inputs[layer.in_channels, layer.hw][:batch]

    def forward(self, call, batch: int):
        """One pass over the 19 layers; returns ((key, seconds) per layer, outputs)."""
        ops, outputs = [], []
        for layer in net.LAYERS:
            start = time.perf_counter()
            outputs.append(self.bench.op(
                call, "conv.sekron_conv2d", sekron.sekron_conv2d,
                self.x(layer, batch), self.seqs[layer.name], layer.padding,
                tag=(layer.label, batch)))
            ops.append((layer.label, time.perf_counter() - start))
        return ops, outputs

    def round(self, call):
        """One batched pass (the job), then batch-1 passes (the latency
        requests).  Returns (job ops, latency ops)."""
        job, self.outputs[INFER_BATCH] = self.forward(call, INFER_BATCH)
        latency = []
        for _ in range(B1_PASSES):
            ops, self.outputs[1] = self.forward(call, 1)
            latency += ops
        return job, latency

    def check(self) -> float:
        """Each output against im2col GEMM on reconstruct(read_sequence(...));
        returns the batched output error energy against the uncompressed weights."""
        err = energy = 0.0
        for i, layer in enumerate(net.LAYERS):
            w_hat = sekron.reconstruct(sekron.read_sequence(self.bench.path(f"{layer.name}.sks")))
            for batch, outputs in self.outputs.items():
                y, x = outputs[i], self.x(layer, batch)
                if y is None:
                    continue
                ref = net.conv_gemm(x, w_hat, layer.padding)
                if np.max(np.abs(y - ref)) > ORACLE_RTOL * np.max(np.abs(ref)):
                    self.bench.mismatch(f"{layer.name} batch {batch}: output differs from GEMM")
                if batch == INFER_BATCH:
                    w = net.read_skt(self.bench.path(f"{layer.name}.skt"))
                    dense = net.conv_gemm(x, w, layer.padding)
                    err += float(np.sum((y - dense) ** 2))
                    energy += float(np.sum(dense * dense))
        return err / energy

    def traced(self, tracer, summary) -> dict:
        """Per unique layer shape: staged ms at both batch sizes, MACs per image,
        achieved GMAC/s, and the im2col-GEMM yardstick on the same weight."""
        staged = tracer.tagged_ms("conv.sekron_conv2d")
        out = {}
        for label in net.LABELS:
            layer = next(l for l in net.LAYERS if l.label == label)
            seq = self.seqs[layer.name]
            x = self.x(layer, INFER_BATCH)
            w_hat = sekron.reconstruct(seq)
            net.conv_gemm(x, w_hat, layer.padding)
            times = []
            for _ in range(3):
                start = time.perf_counter()
                net.conv_gemm(x, w_hat, layer.padding)
                times.append(time.perf_counter() - start)
            gemm_ms = 1000.0 * statistics.median(times)
            macs = sekron.conv_macs(seq, (layer.hw, layer.hw), layer.padding)
            bn_ms = staged.get((label, INFER_BATCH), math.nan)
            out.update({
                f"conv.{label}.b{INFER_BATCH}_ms": bn_ms,
                f"conv.{label}.b1_ms": staged.get((label, 1), math.nan),
                f"conv.{label}.macs": macs,
                f"conv.{label}.gmac_per_s": INFER_BATCH * macs / bn_ms / 1e6,
                f"conv.{label}.gemm_ms": gemm_ms,
                f"conv.{label}.gemm_ratio": bn_ms / gemm_ms,
            })
        return out


class Plan:
    requests = len(PLAN_JOBS)

    def __init__(self, bench: Bench):
        self.bench = bench
        self.chosen = []

    def setup(self) -> None:
        self.shapes = {
            layer.name: ",".join(map(str, w.shape)) for layer, _, w in self.bench.checkpoint()
        }

    def hash_inputs(self) -> None:
        self.bench.hash_checkpoint()

    def argv(self, i):
        name, args = PLAN_JOBS[i]
        return ["plan", "--shape", self.shapes[name], *args,
                "--out", self.bench.path(f"plan{i}.csv")]

    def round(self, call):
        """Every plan job once.  Returns (job ops, latency ops); a request is one call."""
        self.chosen, ops = [], []
        for i in range(len(PLAN_JOBS)):
            start = time.perf_counter()
            self.chosen.append(self.bench.cli(call, self.argv(i)))
            ops.append((i, time.perf_counter() - start))
        return ops, ops

    def check(self) -> float:
        """The chosen config against first-principles CR/FR and the closest CR
        over every valid config (any CR-tied winner passes); returns the mean
        relative CR miss."""
        misses = []
        for i, chosen in enumerate(self.chosen):
            if chosen is None:
                continue
            argv = self.argv(i)
            opt = dict(zip(argv[1::2], argv[2::2]))
            shape = tuple(int(d) for d in opt["--shape"].split(","))
            seq_len, max_rank = int(opt["--seq-len"]), int(opt["--max-rank"])
            target = float(opt["--target-cr"])
            rows, ranks = net.parse_rows(chosen["shapes"]), tuple(chosen["ranks"])
            if (rows, ranks) not in net.configs(shape, seq_len, max_rank):
                self.bench.mismatch(f"plan {i}: {chosen} is not a valid config")
                continue
            cr, fr = net.ratios(rows, ranks)
            if not (close(chosen["cr"], cr) and close(chosen["fr"], fr)):
                self.bench.mismatch(f"plan {i}: cr/fr {chosen['cr']}/{chosen['fr']} != {cr}/{fr}")
            best = min(abs(net.ratios(r, k)[0] - target)
                       for r, k in net.configs(shape, seq_len, max_rank))
            if not close(abs(cr - target), best):
                self.bench.mismatch(f"plan {i}: CR gap {abs(cr - target)} > best {best}")
            if "--bench-input" in opt and not chosen["latency_ms"] > 0:
                self.bench.mismatch(f"plan {i}: no measured latency")
            misses.append(abs(cr - target) / target)
        return statistics.fmean(misses) if misses else math.nan

    def traced(self, tracer, summary) -> dict:
        """The CSV sweeps of the last round against the traced candidate count."""
        rows = 0
        for i in range(len(PLAN_JOBS)):
            with open(self.bench.path(f"plan{i}.csv"), newline="") as handle:
                rows += sum(1 for _ in csv.reader(handle)) - 1
        if summary["planner.candidates"] and rows != summary["planner.candidates"]:
            self.bench.mismatch(f"{rows} CSV rows != {summary['planner.candidates']} candidates")
        return {}


WORKLOADS = {"compress": Compress, "infer": Infer, "plan": Plan}
