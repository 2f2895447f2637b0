"""Compression/FLOP accounting, candidate configuration enumeration,
latency measurement, and configuration selection for factorized conv layers.
"""

import itertools
import math
import numbers
import statistics
import time
from dataclasses import dataclass

import numpy as np

from sekron.conv import sekron_conv2d
from sekron.decompose import (
    KroneckerSequence,
    _branch_sizes,
    _branch_total,
    _validate_ranks,
    stored_param_count,
)
from sekron.errors import CandidateLimitError, NoFeasibleConfigError, ShapeError
from sekron.tensor_core import FactorShapeMatrix, _as_int, _dims, _rank_caps

# CR gaps within this fraction of the target CR count as equal in select_config.
CR_TIE_RTOL = 1e-9

# enumerate_configs refuses a request whose raw product of choices exceeds this.
MAX_CANDIDATES = 1_000_000

# PlanRequest refuses a target dimension above this: 2**20 is beyond any conv
# layer, and factoring it by trial division takes 2**10 steps.
_MAX_DIMENSION = 2**20

# Fewest timed calls a latency median is taken over.
MIN_TRIALS = 3


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


def _real(value, what: str) -> float:
    """``value`` as a Python float; a bool, a string, any other value that is
    not a real number, or one beyond the float range raises ``ValueError``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{what} is beyond the float range") from None


def _check_target_cr(target_cr) -> float:
    target_cr = _real(target_cr, "target compression ratio")
    if not 1 <= target_cr < math.inf:
        raise ValueError(
            f"target compression ratio must be finite and >= 1, got {target_cr}"
        )
    return target_cr


def _count(value, what: str) -> int:
    """``value`` as a Python int >= 1, read through ``operator.index``; a bool,
    a float or a string raises ``ValueError``."""
    value = _as_int(value, what, ValueError)
    if value < 1:
        raise ValueError(f"{what} must be >= 1")
    return value


@dataclass(frozen=True)
class PlanRequest:
    """What to enumerate: a conv weight shape, a sequence length, and a
    compression target.

    ``target_cr`` and ``latency_budget_ms`` are stored as floats; a bool, a
    string or another non-real value raises ``ValueError``.  A target
    dimension above ``2**20`` raises :class:`ShapeError` before any
    factorization is counted."""

    target_shape: tuple[int, int, int, int]
    sequence_length: int
    target_cr: float
    latency_budget_ms: float | None = None
    max_rank: int = 4

    def __post_init__(self):
        shape = _dims(self.target_shape, 4, "target shape")
        if max(shape) > _MAX_DIMENSION:
            raise ShapeError(
                f"target shape dimensions must be at most {_MAX_DIMENSION}, got {shape}"
            )
        object.__setattr__(self, "target_shape", shape)
        object.__setattr__(
            self, "sequence_length", _count(self.sequence_length, "sequence length")
        )
        object.__setattr__(self, "max_rank", _count(self.max_rank, "max rank"))
        object.__setattr__(self, "target_cr", _check_target_cr(self.target_cr))
        if self.latency_budget_ms is not None:
            budget = _real(self.latency_budget_ms, "latency budget")
            if math.isnan(budget):
                raise ValueError("latency budget must be a number of milliseconds, got nan")
            object.__setattr__(self, "latency_budget_ms", budget)


def compression_ratio(shapes: FactorShapeMatrix, ranks) -> float:
    """Dense element count divided by stored element count."""
    dense = math.prod(shapes.target_shape)
    return dense / stored_param_count(shapes, ranks)


def stage_macs_per_branch(shapes: FactorShapeMatrix) -> tuple[int, ...]:
    """Per-output-position MACs of each stage of the factorized convolution
    run last factor first, for one branch of its factor, in factor order.

    Term ``k`` is ``(prod_{j>=k} f_j) (prod_{j<=k} c_j) h_k w_k``: the stage
    that contracts factor ``k`` writes the ``f`` digits of factors ``k ..
    S-1`` for each open channel group, and each output sums over ``c_k h_k
    w_k`` inputs.  That is the stage's GEMM MACs per position in
    :func:`sekron.conv._schedule` run last factor first at rank 1, where
    every factor has a single branch.  The terms depend only on the shapes,
    so a sweep over rank tuples computes them once per shape matrix.
    Raises :class:`ShapeError` unless the factors have the four axes ``(f,
    c, h, w)``.
    """
    if shapes.num_axes != 4:
        raise ShapeError("FLOP accounting needs factor axes (f, c, h, w)")
    f_from = math.prod(row[0] for row in shapes.rows)
    c_upto = 1
    terms = []
    for f, c, h, w in shapes.rows:
        c_upto *= c
        terms.append(f_from * c_upto * h * w)
        f_from //= f
    return tuple(terms)


def flops_denominator(shapes: FactorShapeMatrix, ranks) -> int:
    """Per-output-position MACs of the factorized convolution run last
    factor first, the denominator of the flops ratio (FR).

    ``sum_k branch_k * term_k``: the branch count of factor ``k`` (see the
    :mod:`sekron.tensor_core` docstring) times its term from
    :func:`stage_macs_per_branch`.  FR is defined by this order even where
    :func:`sekron.conv.sekron_conv2d` runs factor 0 first, which it does
    only where that order runs fewer MACs per position, so this is an upper
    bound on the per-position MACs of the order it runs.  Each term counts
    the outputs of its stage at the final output positions only, leaving
    out the border that a stage before a tapped stage also computes;
    :func:`sekron.conv.conv_macs` counts both exactly for a given input
    size.  This times the output size equals :func:`sekron.conv.conv_macs`
    when the conv runs last factor first and no factor but the last (factor
    ``S-1``, the first stage) has taps.
    """
    stages = stage_macs_per_branch(shapes)
    ranks = _validate_ranks(shapes, ranks)
    return _branch_total(_branch_sizes(ranks), stages)


def flops_ratio(shapes: FactorShapeMatrix, ranks) -> float:
    """Dense per-position MACs divided by factorized per-position MACs
    (:func:`flops_denominator`), counted last factor first.

    :func:`sekron.conv.sekron_conv2d` runs factor 0 first only where that
    order runs fewer MACs per position, so FR is a lower bound on the
    per-position saving of the order it runs.  Per output position, FR also
    leaves out the border that a stage before a tapped stage computes;
    :func:`sekron.conv.conv_macs` is the exact count a conv on a given input
    size runs, in the order it runs.
    """
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


def _count_factorizations(n: int, s: int) -> int:
    """``len(enumerate_factorizations(n, s))`` without building the tuples.

    Each prime power ``p**a`` of ``n`` spreads its ``a`` factors of ``p``
    over the ``s`` slots independently of the other primes, in
    ``comb(a + s - 1, s - 1)`` ways.
    """
    count, p = 1, 2
    while p * p <= n:
        a = 0
        while n % p == 0:
            n, a = n // p, a + 1
        count *= math.comb(a + s - 1, s - 1)
        p += 1
    return count * (s if n > 1 else 1)


def enumerate_factorizations(n: int, s: int) -> list[tuple[int, ...]]:
    """All ordered ``s``-tuples of positive integers with product ``n``,
    in lexicographic order.

    A depth-first walk over prefixes, on an explicit stack, so ``s`` is not
    bounded by the recursion limit.  A prefix whose product is already
    ``n`` is completed with ones at once, so every prefix the walk extends
    has at least two completions, and the walk costs O(s) per tuple it
    returns.
    """
    if n < 1 or s < 1:
        raise ValueError("n and s must be >= 1")
    out = []
    stack = [((), n)]
    while stack:
        prefix, rest = stack.pop()
        if rest == 1 or len(prefix) == s - 1:
            out.append(prefix + (rest,) + (1,) * (s - 1 - len(prefix)))
        else:
            # pushed largest first, so the smallest divisor is taken next
            stack.extend((prefix + (d,), rest // d) for d in reversed(_divisors(rest)))
    return out


def _branch_totals(per_branch, ranges) -> list[int]:
    """``sum_k branch_k * per_branch[k]`` for every rank tuple of
    ``itertools.product(*ranges)``, in that order.

    Branch ``k`` is the branch count the :mod:`sekron.tensor_core` docstring
    defines (:func:`sekron.decompose._branch_sizes`), so the sum nests as
    ``r_0 (p_0 + r_1 (p_1 + .. r_{S-2} (p_{S-2} + p_{S-1})))``: each rank
    level, last to first, multiplies out the totals of the levels after it,
    one multiply-add per rank tuple of the levels from it on.  Exact
    integers, as :func:`sekron.decompose._branch_total` gives them.
    """
    totals = [per_branch[-1]]
    for k in reversed(range(len(ranges))):
        totals = [r * (per_branch[k] + t) for r in ranges[k] for t in totals]
    return totals


def enumerate_configs(req: PlanRequest) -> list[CandidateConfig]:
    """Cross per-axis factorizations with rank tuples up to ``max_rank``.

    Rank tuples exceeding a level's full-rank ceiling are dropped.  Raises
    :class:`CandidateLimitError` (never truncates silently) if the raw
    product of choices exceeds :data:`MAX_CANDIDATES`; the choices are
    counted before any factorization is built.

    Both ratios are a dense count over ``sum_k branch_k * term_k``, where
    the branch sizes depend only on the rank tuple and the terms (factor
    volumes for CR, :func:`stage_macs_per_branch` for FR) only on the shape
    matrix.  So each shape combination's volumes, terms and rank caps
    (:func:`sekron.tensor_core._rank_caps`) take one O(S) pass, and its
    denominators one nested sum over its rank tuples
    (:func:`_branch_totals`): the same integers, hence the same floats, as
    :func:`compression_ratio` and :func:`flops_ratio`.  Candidates come out
    in the order of the shape combinations, then of the rank tuples, both
    lexicographic.
    """
    s = req.sequence_length
    axes = math.prod(_count_factorizations(dim, s) for dim in req.target_shape)
    # past 20 rank levels any max_rank > 1 alone exceeds the cap (2**20 >
    # MAX_CANDIDATES), so the power is never built beyond that
    if axes * req.max_rank ** min(s - 1, MAX_CANDIDATES.bit_length()) > MAX_CANDIDATES:
        raise CandidateLimitError(
            f"the raw candidates exceed the cap of {MAX_CANDIDATES}; "
            "reduce max_rank / sequence length"
        )
    per_axis = [enumerate_factorizations(dim, s) for dim in req.target_shape]
    dense = math.prod(req.target_shape)
    configs = []
    for combo in itertools.product(*per_axis):
        # the enumerator's own ints, so the rows are not read again
        shapes = FactorShapeMatrix._of_ints(tuple(zip(*combo)))
        volumes = shapes.volumes
        ranges = [range(1, min(req.max_rank, cap) + 1) for cap in _rank_caps(volumes)]
        stored = _branch_totals(volumes, ranges)
        macs = _branch_totals(stage_macs_per_branch(shapes), ranges)
        for ranks, cr_den, fr_den in zip(itertools.product(*ranges), stored, macs):
            configs.append(CandidateConfig(shapes, ranks, dense / cr_den, dense / fr_den))
    return configs


def _median_ms(run, trials: int) -> float:
    """Median wall-clock milliseconds of ``run()`` over ``trials`` calls,
    after one warm-up call.  ``trials`` is read through ``operator.index``:
    a bool, a float, a string, ``None`` or a count below
    :data:`MIN_TRIALS` raises ``ValueError``."""
    trials = _as_int(trials, "trials", ValueError)
    if trials < MIN_TRIALS:
        raise ValueError(f"need at least {MIN_TRIALS} trials for a stable median")
    run()
    times = []
    for _ in range(trials):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1000.0


def measure_sequence_latency(seq, input_shape, trials: int = 5, padding: int = 0) -> float:
    """Median wall-clock milliseconds of ``trials`` calls of
    :func:`sekron_conv2d` on ``seq``, after one warm-up call.

    Latency depends on the shapes, not on the numbers: a float64 GEMM runs
    at the same speed for any finite values.  So every input entry is 1.0,
    and nothing is drawn from a random generator.  The warm-up call also
    works out the conv's geometry, which the trials then read from its memo
    (keyed on the shapes, ranks, input height and width and padding, not on
    the factor values or the batch size; see :func:`sekron_conv2d`), so
    the median is of calls that only build their buffers and run.
    Benchmarks should not run concurrently with other work; numbers are
    only comparable within one process.
    """
    x = np.ones(_dims(input_shape, 4, "input shape"))
    return _median_ms(lambda: sekron_conv2d(x, seq, padding=padding), trials)


def measure_latency(config: CandidateConfig, input_shape, trials: int = 5) -> float:
    """Latency of a candidate configuration: :func:`measure_sequence_latency`
    without padding, on a sequence whose every factor entry is 1.0, for the
    same reason the input is all ones.
    """
    factors = [
        np.ones((rho,) + row)
        for rho, row in zip(_branch_sizes(config.ranks), config.shapes.rows)
    ]
    seq = KroneckerSequence(config.shapes, config.ranks, factors)
    return measure_sequence_latency(seq, input_shape, trials)


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
    The choice does not depend on candidate order.  ``target_cr`` must be
    finite and ``>= 1``, as in :class:`PlanRequest`, and a budget a real
    number; anything else raises ``ValueError``.
    """
    target_cr = _check_target_cr(target_cr)
    candidates = list(candidates)
    if not candidates:
        raise NoFeasibleConfigError("no candidates to select from")
    pool = candidates
    if latency_budget_ms is not None:
        latency_budget_ms = _real(latency_budget_ms, "latency budget")
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


def _csv_field(text: str) -> str:
    # csv.writer's default (excel) dialect quotes a field holding a comma, a
    # double quote or a line break and doubles its double quotes; an empty
    # field within a row is written as nothing
    if any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_candidates_csv(candidates, path) -> None:
    """Dump a sweep as CSV with columns shapes, ranks, cr, fr, latency_ms.

    The bytes are those of :func:`csv.writer` with its default dialect
    (``\\r\\n`` line ends, minimal quoting).  A sweep shares one shape matrix
    between all of its rank tuples and one rank tuple between many shape
    matrices, so each distinct shapes and ranks field is quoted once.  It
    also repeats few CR and FR values, so each is formatted once: both are
    ratios of positive counts, finite positive floats, so equal values
    have equal text.  The rows are then joined and written in one call.
    """
    shape_fields, rank_fields, ratio_fields = {}, {}, {}
    lines = ["shapes,ranks,cr,fr,latency_ms\r\n"]
    for c in candidates:
        shapes = shape_fields.get(c.shapes)
        if shapes is None:
            shapes = shape_fields[c.shapes] = _csv_field(c.shapes.to_string())
        ranks = rank_fields.get(c.ranks)
        if ranks is None:
            ranks = rank_fields[c.ranks] = _csv_field(",".join(map(str, c.ranks)))
        cr = ratio_fields.get(c.cr)
        if cr is None:
            cr = ratio_fields[c.cr] = repr(c.cr)
        fr = ratio_fields.get(c.fr)
        if fr is None:
            fr = ratio_fields[c.fr] = repr(c.fr)
        latency = "" if c.latency_ms is None else repr(c.latency_ms)
        lines.append(f"{shapes},{ranks},{cr},{fr},{latency}\r\n")
    with open(path, "w", newline="") as handle:
        handle.write("".join(lines))
