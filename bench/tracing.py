"""In-memory span tracer for traced benchmark rounds.

Spans are recorded at module boundaries by wrapping the public functions a
module calls, in the namespace where the caller looks them up (for example
``sekron.decompose.svd`` is the SVD as ``sekron.decompose`` sees it).  The
wrappers are installed only for the duration of a traced round, so untraced
rounds run the program unchanged.
"""

import importlib
import json
import os
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

MODULES = ("cli", "decompose", "linalg", "tensor_core", "fileio", "planner", "conv")


def _file_bytes(args, result):
    return os.path.getsize(args[0])


def _min_dim(args, result):
    return min(args[0].shape)


def _kept_rank(args, result):
    return int(args[1])


def _length(args, result):
    return len(result) if hasattr(result, "__len__") else 0


# (module where the caller looks the name up, attribute, span name, tag function)
PATCHES = (
    ("sekron.cli", "read_tensor", "fileio.read_tensor", _file_bytes),
    ("sekron.cli", "read_sequence", "fileio.read_sequence", _file_bytes),
    ("sekron.cli", "write_tensor", "fileio.write_tensor", _file_bytes),
    ("sekron.cli", "write_sequence", "fileio.write_sequence", _file_bytes),
    ("sekron.cli", "sekron_decompose", "decompose.sekron_decompose", None),
    ("sekron.cli", "reconstruction_error", "decompose.reconstruction_error", None),
    ("sekron.cli", "error_bound", "decompose.error_bound", None),
    ("sekron.cli", "compression_ratio", "planner.compression_ratio", None),
    ("sekron.cli", "flops_ratio", "planner.flops_ratio", None),
    ("sekron.cli", "enumerate_configs", "planner.enumerate_configs", _length),
    ("sekron.cli", "measure_latency", "planner.measure_latency", None),
    ("sekron.cli", "select_config", "planner.select_config", None),
    ("sekron.cli", "write_candidates_csv", "planner.write_candidates_csv", None),
    ("sekron.decompose", "svd", "linalg.svd", _min_dim),
    ("sekron.decompose", "truncate", "linalg.truncate", _kept_rank),
    ("sekron.decompose", "tail_energy", "linalg.tail_energy", None),
    ("sekron.decompose", "unfold_blocks", "tensor_core.unfold_blocks", None),
    ("sekron.decompose", "reconstruct", "decompose.reconstruct", None),
    ("sekron.decompose", "kron_sequence", "tensor_core.kron_sequence", None),
    ("sekron.planner", "random_sequence", "decompose.random_sequence", None),
    ("sekron.planner", "measure_sequence_latency", "planner.measure_sequence_latency", None),
    ("sekron.planner", "sekron_conv2d", "conv.sekron_conv2d", None),
)


def direct_call(name, fn, *args, tag=None):
    """Untraced counterpart of :meth:`Tracer.call`."""
    return fn(*args)


class Tracer:
    """Records spans as ``[name, start, end, parent index, tag]`` lists."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.absent = []

    def call(self, name, fn, *args, tag=None, tag_fn=None, **kwargs):
        index = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, tag]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        if tag_fn is not None:
            span[4] = tag_fn(args, result)
        return result

    def _wrap(self, name, fn, tag_fn):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, tag_fn=tag_fn, **kwargs)

        return wrapper

    @contextmanager
    def patched(self):
        """Install the wrappers in :data:`PATCHES`; a name the program no
        longer has is recorded in :attr:`absent` and skipped."""
        saved = []
        try:
            for module_name, attr, span_name, tag_fn in PATCHES:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if fn is None:
                    key = f"{module_name}.{attr}"
                    if key not in self.absent:
                        self.absent.append(key)
                    continue
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(span_name, fn, tag_fn))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def write(self, path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as handle:
            for name, start, end, parent, tag in self.spans:
                handle.write(json.dumps({
                    "name": name, "start": start - origin, "end": end - origin,
                    "parent": parent, "tag": tag,
                }) + "\n")

    def summary(self, rounds: int, wall: float) -> dict:
        """Per-round totals: self time per module, a remainder so that they add
        up to ``wall``, and the time and counts of the named boundaries."""
        total = defaultdict(float)
        count = defaultdict(int)
        tag_sum = defaultdict(float)
        self_time = dict.fromkeys(MODULES, 0.0)
        child = [0.0] * len(self.spans)
        top = 0.0
        for name, start, end, parent, tag in self.spans:
            if parent >= 0:
                child[parent] += end - start
            else:
                top += end - start
        for (name, start, end, parent, tag), inner in zip(self.spans, child):
            total[name] += end - start
            count[name] += 1
            if isinstance(tag, (int, float)):
                tag_sum[name] += tag
            module = name.split(".", 1)[0]
            self_time[module] = self_time.get(module, 0.0) + (end - start - inner)
        svd_dims = tag_sum["linalg.svd"]
        out = {f"{m}.self_s": t / rounds for m, t in self_time.items()}
        out.update({
            "bench.remainder_s": (wall - top) / rounds,
            "trace.wall_s": wall / rounds,
            "planner.enumerate_s": total["planner.enumerate_configs"] / rounds,
            "planner.candidates": tag_sum["planner.enumerate_configs"] / rounds,
            "planner.measured": count["planner.measure_latency"] / rounds,
            "planner.measure_s": total["planner.measure_latency"] / rounds,
            "planner.select_s": total["planner.select_config"] / rounds,
            "planner.csv_s": total["planner.write_candidates_csv"] / rounds,
            "linalg.svd_calls": count["linalg.svd"] / rounds,
            "linalg.svd_s": total["linalg.svd"] / rounds,
            "linalg.svd_kept_frac": tag_sum["linalg.truncate"] / svd_dims if svd_dims else 0.0,
            # both entry points run one full level-by-level decomposition
            "decompose.decompose_calls": (
                count["decompose.sekron_decompose"] + count["decompose.error_bound"]
            ) / rounds,
            "decompose.decompose_s": total["decompose.sekron_decompose"] / rounds,
            "decompose.reconstruct_s": total["decompose.reconstruct"] / rounds,
            "decompose.error_bound_s": total["decompose.error_bound"] / rounds,
            "tensor_core.unfold_s": total["tensor_core.unfold_blocks"] / rounds,
            "tensor_core.kron_calls": count["tensor_core.kron_sequence"] / rounds,
            "tensor_core.kron_s": total["tensor_core.kron_sequence"] / rounds,
            "fileio.read_s": sum(t for n, t in total.items() if n.startswith("fileio.read"))
            / rounds,
            "fileio.write_s": sum(t for n, t in total.items() if n.startswith("fileio.write"))
            / rounds,
            "fileio.bytes": sum(b for n, b in tag_sum.items() if n.startswith("fileio.")) / rounds,
        })
        return out

    def tagged_ms(self, name: str) -> dict:
        """Median milliseconds of the spans called ``name``, per tag."""
        by_tag = defaultdict(list)
        for span_name, start, end, parent, tag in self.spans:
            if span_name == name and tag is not None:
                by_tag[tuple(tag) if isinstance(tag, list) else tag].append(end - start)
        return {tag: 1000.0 * statistics.median(d) for tag, d in by_tag.items()}
