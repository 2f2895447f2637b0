"""Compression/FLOP accounting, candidate configuration enumeration,
latency measurement, and configuration selection for factorized conv layers.
"""

import csv
import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from sekron.conv import conv2d_reference, flops_denominator, sekron_conv2d
from sekron.decompose import _branch_sizes, _validate_ranks, random_sequence
from sekron.errors import (
    CandidateLimitError,
    NoFeasibleConfigError,
    ShapeError,
)
from sekron.tensor_core import FactorShapeMatrix

# CR gaps within this fraction of the target CR count as equal in select_config.
CR_TIE_RTOL = 1e-9


@dataclass(frozen=True)
class CandidateConfig:
    """One (shapes, ranks) point of a compression sweep."""

    shapes: FactorShapeMatrix
    ranks: tuple[int, ...]
    cr: float
    fr: float
    latency_ms: float | None = None

    def with_latency(self, latency_ms: float) -> "CandidateConfig":
        return CandidateConfig(self.shapes, self.ranks, self.cr, self.fr, latency_ms)


@dataclass(frozen=True)
class PlanRequest:
    """What to enumerate: a conv weight shape, a sequence length, and a
    compression target."""

    target_shape: tuple[int, int, int, int]
    sequence_length: int
    target_cr: float
    latency_budget_ms: float | None = None
    max_rank: int = 4

    def __post_init__(self):
        shape = tuple(int(d) for d in self.target_shape)
        object.__setattr__(self, "target_shape", shape)
        if len(shape) != 4 or any(d < 1 for d in shape):
            raise ShapeError("target shape must be four positive dims (F, C, KH, KW)")
        if self.sequence_length < 1:
            raise ValueError("sequence length must be >= 1")
        if self.target_cr < 1:
            raise ValueError("target compression ratio must be >= 1")
        if self.max_rank < 1:
            raise ValueError("max rank must be >= 1")


def stored_param_count(shapes: FactorShapeMatrix, ranks) -> int:
    """Elements stored by a sequence with these shapes and ranks."""
    ranks = _validate_ranks(shapes, ranks)
    rho = _branch_sizes(shapes, ranks)
    return sum(r * shapes.factor_volume(k) for k, r in enumerate(rho))


def compression_ratio(shapes: FactorShapeMatrix, ranks) -> float:
    """Dense element count divided by stored element count."""
    dense = math.prod(shapes.target_shape)
    return dense / stored_param_count(shapes, ranks)


def flops_ratio(shapes: FactorShapeMatrix, ranks) -> float:
    """Dense per-position MACs divided by factorized per-position MACs."""
    dense = math.prod(shapes.target_shape)
    return dense / flops_denominator(shapes, ranks)


def _divisors(n: int) -> list[int]:
    small, large = [], []
    for d in range(1, int(math.isqrt(n)) + 1):
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
    return small + large[::-1]


def enumerate_factorizations(n: int, s: int) -> list[tuple[int, ...]]:
    """All ordered ``s``-tuples of positive integers with product ``n``,
    in lexicographic order."""
    if n < 1 or s < 1:
        raise ValueError("n and s must be >= 1")
    if s == 1:
        return [(n,)]
    out = []
    for d in _divisors(n):
        for rest in enumerate_factorizations(n // d, s - 1):
            out.append((d, *rest))
    return out


def enumerate_configs(
    req: PlanRequest, max_candidates: int = 1_000_000
) -> list[CandidateConfig]:
    """Cross per-axis factorizations with rank tuples up to ``max_rank``.

    Rank tuples exceeding a level's full-rank ceiling are dropped.  Raises
    :class:`CandidateLimitError` (never truncates silently) if the raw
    product of choices exceeds ``max_candidates``.
    """
    s = req.sequence_length
    per_axis = [enumerate_factorizations(dim, s) for dim in req.target_shape]
    raw = math.prod(len(p) for p in per_axis) * req.max_rank ** (s - 1)
    if raw > max_candidates:
        raise CandidateLimitError(
            f"{raw} raw candidates exceed the cap of {max_candidates}; "
            "raise max_candidates or reduce max_rank / sequence length"
        )
    configs = []
    for combo in itertools.product(*per_axis):
        rows = tuple(zip(*combo))
        shapes = FactorShapeMatrix(rows)
        caps = shapes.max_ranks()
        for ranks in itertools.product(range(1, req.max_rank + 1), repeat=s - 1):
            if any(r > cap for r, cap in zip(ranks, caps)):
                continue
            configs.append(
                CandidateConfig(
                    shapes=shapes,
                    ranks=ranks,
                    cr=compression_ratio(shapes, ranks),
                    fr=flops_ratio(shapes, ranks),
                )
            )
    return configs


def _median_ms(run, trials: int) -> float:
    """Median wall-clock milliseconds of ``run()`` over ``trials`` calls,
    after one warm-up call."""
    if trials < 3:
        raise ValueError("need at least 3 trials for a stable median")
    run()
    times = []
    for _ in range(trials):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return float(np.median(times) * 1000.0)


def measure_sequence_latency(
    seq, input_shape, trials: int = 5, padding: int = 0, rng=None
) -> float:
    """Median wall-clock milliseconds of ``sekron_conv2d`` on random input.

    Runs one warm-up call first.  Benchmarks should not run concurrently
    with other work; numbers are only comparable within one process.
    """
    rng = np.random.default_rng(rng)
    x = rng.standard_normal(tuple(int(d) for d in input_shape))
    return _median_ms(lambda: sekron_conv2d(x, seq, padding=padding), trials)


def measure_latency(
    config: CandidateConfig, input_shape, trials: int = 5, padding: int = 0, rng=0
) -> float:
    """Latency of a candidate configuration, using synthetic factor values
    (latency depends on shapes and ranks, not on the numbers)."""
    seq = random_sequence(config.shapes, config.ranks, rng=rng)
    return measure_sequence_latency(seq, input_shape, trials, padding=padding, rng=rng)


def measure_dense_latency(
    weight_shape, input_shape, trials: int = 5, padding: int = 0, rng=0
) -> float:
    """Baseline: median milliseconds of the dense reference convolution."""
    rng = np.random.default_rng(rng)
    w = rng.standard_normal(tuple(int(d) for d in weight_shape))
    x = rng.standard_normal(tuple(int(d) for d in input_shape))
    return _median_ms(lambda: conv2d_reference(x, w, padding=padding), trials)


def select_config(
    candidates, target_cr: float, latency_budget_ms: float | None = None
) -> CandidateConfig:
    """Candidate whose CR is closest to the target, subject to the budget.

    After the budget filter, every candidate whose CR gap ``|cr - target_cr|``
    is within ``CR_TIE_RTOL * target_cr`` of the smallest gap counts as tied,
    so gaps that are equal in exact arithmetic but differ by float rounding
    (4.1 and 3.9 against 4.0) tie.  Ties break toward lower latency, with
    ``latency_ms=None`` after every measured latency, then toward
    lexicographically smaller shapes (``shapes.rows``), then smaller ranks.
    The choice does not depend on candidate order.
    """
    candidates = list(candidates)
    if not candidates:
        raise NoFeasibleConfigError("no candidates to select from")
    pool = candidates
    if latency_budget_ms is not None:
        if any(c.latency_ms is None for c in candidates):
            raise ValueError("a latency budget requires measured latencies")
        pool = [c for c in candidates if c.latency_ms <= latency_budget_ms]
        if not pool:
            raise NoFeasibleConfigError(
                f"no configuration within {latency_budget_ms} ms"
            )

    best_gap = min(abs(c.cr - target_cr) for c in pool)
    tied = [c for c in pool if abs(c.cr - target_cr) - best_gap <= CR_TIE_RTOL * target_cr]

    def order(c: CandidateConfig):
        latency = c.latency_ms if c.latency_ms is not None else math.inf
        return (latency, c.shapes.rows, c.ranks)

    return min(tied, key=order)


def write_candidates_csv(candidates, path) -> None:
    """Dump a sweep as CSV with columns shapes, ranks, cr, fr, latency_ms."""
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
                    "" if c.latency_ms is None else repr(c.latency_ms),
                ]
            )
