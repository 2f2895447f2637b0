"""Compression/FLOP accounting, candidate configuration enumeration,
latency measurement, and configuration selection for factorized conv layers.

A sweep is stored as columns, one group per shape matrix (:class:`Sweep`):
the matrix, its rank tuples, a tuple of CR and a tuple of FR values, and,
once timed, a tuple of the group's own latencies, one per row.  A sweep
holds numbers only, no text, and is frozen, its groups and columns
tuples.  It shares each shape matrix among all of its rank tuples, each
tuple of rank tuples among all of its shape matrices that have the same
capped ranks, and each CR or FR tuple among the shape matrices whose counts
give equal tuples.  Enumeration (:func:`enumerate_configs`) builds a
sweep, and a sweep is the only form the CSV writer
(:func:`write_candidates_csv`) and the selector (:func:`select_config`)
read.  Each works one group at a time, so none of them builds an object per
candidate; :class:`CandidateConfig` is the record of one candidate, built
only where one is asked for: by iterating a sweep, for a latency probe, and
for the pick.  The writer makes all of the CSV text, formatting each
distinct rank-tuple column and each distinct CR or FR value once.  Both
readers take each measured latency through one check (:func:`_latency`), so
the CSV holds only latencies the selector accepts.
A latency probe (:func:`measure_latency`) times the conv on an all-ones
input with each factor an all-ones array of its own.
"""

import itertools
import math
import numbers
import operator
import statistics
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from sekron.conv import sekron_conv2d
from sekron.decompose import (
    KroneckerSequence,
    _branch_sizes,
    _branch_total,
    _check_shapes,
    _validate_ranks,
    stored_param_count,
)
from sekron.errors import CandidateLimitError, NoFeasibleConfigError, ShapeError
from sekron.tensor_core import FactorShapeMatrix, _as_int, _dims, _instance, _rank_caps, _tuple

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


def _csv_field(text: str) -> str:
    # csv.writer's default (excel) dialect quotes a field holding a comma, a
    # double quote or a line break and doubles its double quotes; an empty
    # field within a row is written as nothing
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


class ShapeGroup(NamedTuple):
    """The candidates of one shape matrix in a :class:`Sweep`: row ``i`` has
    the rank tuple ``ranks[i]``, CR ``cr[i]`` and FR ``fr[i]``.

    ``latency_ms`` is ``None`` for a group that was not timed, else one
    entry per row, ``None`` where a row has no measured latency.  Every
    column is a tuple (:class:`Sweep` refuses any other).  A group holds
    numbers only; the CSV writer makes their text."""

    shapes: FactorShapeMatrix
    ranks: tuple[tuple[int, ...], ...]
    cr: tuple[float, ...]
    fr: tuple[float, ...]
    latency_ms: tuple[float | None, ...] | None = None


@dataclass(frozen=True)
class Sweep:
    """A compression sweep as columns: one :class:`ShapeGroup` per shape
    matrix, the candidates in group order, then row order.

    Each group holds its own rows' latencies (:class:`ShapeGroup`).  ``len``
    is the candidate count, and iterating yields each candidate as a
    :class:`CandidateConfig`, built as it is asked for.  Groups may share
    their rank-tuple, CR and FR columns, which are tuples, so none can be
    changed in place; :meth:`with_latency` gives a timed sweep whose groups
    share them.  A sweep holds no CSV text.

    The constructor stores ``groups`` as a tuple, checked once: ``groups``
    that is not iterable (:func:`sekron.tensor_core._tuple`), a group that
    is no :class:`ShapeGroup`, and a group whose ``ranks``, ``cr``, ``fr``
    and, once timed, ``latency_ms`` are not tuples of one length, which
    ``len``, iteration, the CSV and the selector would each read
    differently, raise ``ValueError``.
    """

    groups: tuple[ShapeGroup, ...]

    def __post_init__(self):
        groups = _tuple(self.groups, "sweep groups", "ShapeGroups", ValueError)
        for group in groups:
            _, ranks, cr, fr, latency = _instance(group, ShapeGroup, "sweep group", ValueError)
            # an untimed group has no latency column to count
            latency = cr if latency is None else latency
            if not (type(ranks) is type(cr) is type(fr) is type(latency) is tuple
                    and len(ranks) == len(cr) == len(fr) == len(latency)):
                raise ValueError("a sweep group's ranks, cr, fr and latencies must be tuples of "
                                 "one length")
        object.__setattr__(self, "groups", groups)

    def __len__(self) -> int:
        return sum(len(group.cr) for group in self.groups)

    def __iter__(self):
        for shapes, ranks, cr, fr, latency in self.groups:
            for row in zip(ranks, cr, fr, latency or itertools.repeat(None)):
                yield CandidateConfig(shapes, *row)

    def with_latency(self, latency_ms) -> "Sweep":
        """The same candidates with one measured latency each, in order,
        split across the groups.  ``latency_ms`` is read into a tuple
        (:func:`sekron.tensor_core._tuple`): a value that is not iterable,
        or the wrong count, raises ``ValueError``."""
        latency_ms = _tuple(latency_ms, "latencies", "numbers", ValueError)
        if len(latency_ms) != len(self):
            raise ValueError(f"need {len(self)} latencies, got {len(latency_ms)}")
        latency = iter(latency_ms)
        return Sweep(group._replace(latency_ms=tuple(itertools.islice(latency, len(group.cr))))
                     for group in self.groups)


def _real(value, what: str, least: float | None = None) -> float:
    """``value`` as a Python float; a bool, a string, any other value that is
    not a real number, or one beyond the float range raises ``ValueError``.
    With ``least``, so does any value but a finite one ``>= least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what} must be a real number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        raise ValueError(f"{what} is beyond the float range") from None
    if least is not None and not least <= value < math.inf:
        raise ValueError(f"{what} must be finite and >= {least}, got {value}")
    return value


def _latency(value) -> float | None:
    """A measured latency as the selector and the CSV writer read it:
    ``None`` stays unmeasured, and anything else is a Python float, finite
    and ``>= 0`` (:func:`_real`), else ``ValueError``.  A NaN would compare
    false with every other latency, and a negative one pass any budget."""
    return None if value is None else _real(value, "measured latency", 0)


def _count(value, what: str, least: int = 1) -> int:
    """``value`` as a Python int ``>= least``, read through
    ``operator.index``; a bool, a float, a string or a smaller count raises
    ``ValueError``, naming the value ``what``.  The one check of a count,
    the trial count of a latency median included."""
    value = _as_int(value, what, ValueError)
    if value < least:
        raise ValueError(f"{what} must be at least {least}, got {value}")
    return value


@dataclass(frozen=True)
class PlanRequest:
    """What to enumerate: a conv weight shape, a sequence length, and a
    compression target.

    ``target_shape`` is read as four Python ints >= 1
    (:func:`sekron.tensor_core._dims`): a shape that is not iterable, a
    value that is not an int (a bool included) or below 1, the wrong count,
    and a dimension above ``2**20``, raise :class:`ShapeError` before any
    factorization is counted.  ``sequence_length`` and ``max_rank`` are read
    as Python ints >= 1; anything else raises ``ValueError``.
    ``target_cr`` and ``latency_budget_ms`` are stored as floats
    (:func:`_real`): a bool, a string or another non-real value raises
    ``ValueError``, and so does a target that is not finite and ``>= 1``,
    or a budget that is not finite and ``>= 0``, as a measured latency is
    read (:func:`_latency`)."""

    target_shape: tuple[int, int, int, int]
    sequence_length: int
    target_cr: float
    latency_budget_ms: float | None = None
    max_rank: int = 4

    def __post_init__(self):
        shape = _dims(self.target_shape, 4, "target shape dimensions")
        if max(shape) > _MAX_DIMENSION:
            raise ShapeError(
                f"target shape dimensions must be at most {_MAX_DIMENSION}, got {shape}"
            )
        object.__setattr__(self, "target_shape", shape)
        object.__setattr__(
            self, "sequence_length", _count(self.sequence_length, "sequence length")
        )
        object.__setattr__(self, "max_rank", _count(self.max_rank, "max rank"))
        object.__setattr__(self, "target_cr", _real(self.target_cr, "target compression ratio", 1))
        if self.latency_budget_ms is not None:
            object.__setattr__(
                self, "latency_budget_ms", _real(self.latency_budget_ms, "latency budget", 0)
            )


def compression_ratio(shapes: FactorShapeMatrix, ranks) -> float:
    """Dense element count divided by stored element count
    (:func:`sekron.decompose.stored_param_count`).

    Ranks above a level's cap (:func:`sekron.tensor_core._rank_caps`) are
    counted as given: an embedding (:mod:`sekron.equivalences`) carries
    such ranks, a Tucker core's shape or a ring's ranks, and its CR is
    still the dense count over the elements it stores."""
    # first: it refuses shapes that are no FactorShapeMatrix
    stored = stored_param_count(shapes, ranks)
    return math.prod(shapes.target_shape) / stored


def flops_ratio(shapes: FactorShapeMatrix, ranks) -> float:
    """Dense per-position MACs divided by the factorized conv's per-position
    MACs run last factor first, ``sum_k branch_k * term_k`` over the terms
    of :func:`_fr_terms`.

    FR is defined by that order even where
    :func:`sekron.conv.sekron_conv2d` runs factor 0 first, which it does
    only where that order runs fewer MACs per position, so FR is a lower
    bound on the per-position saving of the order it runs.  Per output
    position, FR also leaves out the border that a stage before a tapped
    stage computes; :func:`sekron.conv.conv_macs` is the exact count a conv
    on a given input size runs, in the order it runs.  Raises
    :class:`ShapeError` unless ``shapes`` is a :class:`FactorShapeMatrix`
    (:func:`sekron.decompose._check_shapes`) whose factors have the four
    axes ``(f, c, h, w)``, and :class:`RankError` for ranks that fail
    :func:`sekron.decompose._validate_ranks`.  Ranks above the level caps
    are counted as given, as in :func:`compression_ratio`.
    """
    if _check_shapes(shapes).num_axes != 4:
        raise ShapeError("FLOP accounting needs factor axes (f, c, h, w)")
    macs = _branch_total(_branch_sizes(_validate_ranks(shapes, ranks)), _fr_terms(shapes))
    return math.prod(shapes.target_shape) / macs


def _fr_terms(shapes: FactorShapeMatrix) -> tuple[int, ...]:
    """The MACs per output position of one branch of each factor, run last
    factor first, in factor order: a closed form of the stage records'
    ``macs`` (:func:`sekron.conv._schedule`) at rank 1, where every factor
    has a single branch, which takes O(S) per shape matrix instead of a
    schedule.

    Term ``k`` is ``(prod_{j>=k} f_j) (prod_{j<=k} c_j) h_k w_k``: the stage
    that contracts factor ``k`` writes the ``f`` digits of factors ``k ..
    S-1`` for each open channel group, and each output sums over ``c_k h_k
    w_k`` inputs.  At any ranks the records' ``macs`` sum to ``sum_k
    branch_k * term_k``, the branch counts of the :mod:`sekron.tensor_core`
    docstring.  ``shapes`` is a checked matrix of four-axis factors.
    """
    f_from = math.prod(row[0] for row in shapes.rows)
    c_upto = 1
    terms = []
    for f, c, h, w in shapes.rows:
        c_upto *= c
        terms.append(f_from * c_upto * h * w)
        f_from //= f
    return tuple(terms)


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

    ``n`` and ``s`` are read as Python ints >= 1 (:func:`_count`): a bool,
    a float, a string or a value below 1 raises ``ValueError``.
    """
    n, s = _count(n, "n"), _count(s, "s")
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


def enumerate_configs(req: PlanRequest) -> Sweep:
    """Cross per-axis factorizations with rank tuples up to ``max_rank``, as
    a :class:`Sweep` with one group per shape matrix.

    Rank tuples exceeding a level's full-rank ceiling are dropped.  Raises
    :class:`CandidateLimitError` (never truncates silently) if the raw
    product of choices exceeds :data:`MAX_CANDIDATES`; the choices are
    counted before any factorization is built.

    Both ratios are a dense count over ``sum_k branch_k * term_k``, where
    the branch sizes depend only on the rank tuple and the terms (factor
    volumes for CR, :func:`_fr_terms` for FR) only on the shape
    matrix.  So each shape matrix's volumes, terms and rank caps
    (:func:`sekron.tensor_core._rank_caps`) take one O(S) pass, and its
    denominators one nested sum over its rank tuples
    (:func:`_branch_totals`): the same integers, hence the same floats, as
    :func:`compression_ratio` and :func:`flops_ratio`.  The shape matrices
    with the same capped ranks share one tuple of rank tuples, those with
    the same factor volumes one CR tuple, and those with the same terms and
    capped ranks one FR tuple, each computed once; no CSV text is built.
    Candidates come out in the order of the shape matrices, then of the
    rank tuples, both lexicographic.  ``req`` that is no
    :class:`PlanRequest` raises ``ValueError``.
    """
    s = _instance(req, PlanRequest, "plan request", ValueError).sequence_length
    axes = math.prod(_count_factorizations(dim, s) for dim in req.target_shape)
    # past 20 rank levels any max_rank > 1 alone exceeds the cap (2**20 >
    # MAX_CANDIDATES), so the power is never built beyond that
    if axes * req.max_rank ** min(s - 1, MAX_CANDIDATES.bit_length()) > MAX_CANDIDATES:
        raise CandidateLimitError(
            f"the raw candidates exceed the cap of {MAX_CANDIDATES}; "
            "reduce max_rank / sequence length"
        )
    per_axis = [enumerate_factorizations(dim, s) for dim in req.target_shape]
    dense, max_rank = math.prod(req.target_shape), req.max_rank
    # the capped ranks, rank tuples, ranges and CR tuple of each distinct
    # volumes; the rank tuples and ranges of each distinct capped ranks; the
    # FR tuple of each distinct terms and capped ranks
    by_volumes, grids, fr_columns, groups = {}, {}, {}, []
    for combo in itertools.product(*per_axis):
        # the enumerator's own ints, so the rows are not read again
        shapes = FactorShapeMatrix._of_ints(tuple(zip(*combo)))
        volumes = shapes.volumes
        column = by_volumes.get(volumes)
        if column is None:
            caps = tuple(map(min, _rank_caps(volumes), itertools.repeat(max_rank)))
            grid = grids.get(caps)
            if grid is None:
                ranges = [range(1, cap + 1) for cap in caps]
                grid = grids[caps] = tuple(itertools.product(*ranges)), ranges
            cr = tuple(map(dense.__truediv__, _branch_totals(volumes, grid[1])))
            column = by_volumes[volumes] = (caps, *grid, cr)
        caps, ranks, ranges, cr = column
        terms = _fr_terms(shapes)
        fr = fr_columns.get((terms, caps))
        if fr is None:
            fr = fr_columns[terms, caps] = tuple(map(dense.__truediv__, _branch_totals(terms, ranges)))
        groups.append(ShapeGroup(shapes, ranks, cr, fr))
    return Sweep(groups)


def _median_ms(run, trials: int) -> float:
    """Median wall-clock milliseconds of ``run()`` over ``trials`` calls,
    after one warm-up call.  ``trials`` is read by :func:`_count`: a bool,
    a float, a string, ``None`` or a count below :data:`MIN_TRIALS` raises
    ``ValueError``."""
    trials = _count(trials, "trials", MIN_TRIALS)
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

    ``input_shape`` is read as four Python ints >= 1
    (:func:`sekron.tensor_core._dims`); a shape that is not iterable, such
    as ``None``, or any other bad shape raises :class:`ShapeError`, as does
    one that does not fit ``seq`` (:func:`sekron.conv.sekron_conv2d`).  A
    bad ``trials`` raises ``ValueError`` (:func:`_median_ms`).
    """
    x = np.ones(_dims(input_shape, 4, "input shape dimensions"))
    return _median_ms(lambda: sekron_conv2d(x, seq, padding=padding), trials)


def measure_latency(config: CandidateConfig, input_shape, trials: int = 5) -> float:
    """Latency of a candidate configuration: :func:`measure_sequence_latency`
    without padding, on a sequence whose every factor entry is 1.0, for the
    same reason the input is all ones.

    Per candidate it builds each factor as its own all-ones array of shape
    ``(branches, *row)`` and the :class:`KroneckerSequence` over them; then
    the all-ones input and the timed calls of
    :func:`measure_sequence_latency`.  ``config`` that is no
    :class:`CandidateConfig` raises ``ValueError``.
    """
    shapes, ranks = _instance(config, CandidateConfig, "config", ValueError).shapes, config.ranks
    factors = [np.ones((rho, *row)) for rho, row in zip(_branch_sizes(ranks), shapes.rows)]
    seq = KroneckerSequence(shapes, ranks, factors)
    return measure_sequence_latency(seq, input_shape, trials)


def select_config(
    sweep: Sweep, target_cr: float, latency_budget_ms: float | None = None
) -> CandidateConfig:
    """Candidate whose CR is closest to the target, subject to the budget.

    After the budget filter, every candidate whose CR gap ``|cr - target_cr|``
    is within ``CR_TIE_RTOL * target_cr`` of the smallest gap counts as tied,
    so gaps that are equal in exact arithmetic but differ by float rounding
    (4.1 and 3.9 against 4.0) tie.  Ties break toward lower latency, with
    ``latency_ms=None`` after every measured latency, then toward
    lexicographically smaller shapes (``shapes.rows``), then smaller ranks.
    The choice does not depend on candidate order.  ``target_cr`` must be
    finite and ``>= 1`` and a budget finite and ``>= 0``, as in
    :class:`PlanRequest`, and every measured latency the budget filter or
    the tie rule reads passes :func:`_latency`; anything else raises
    ``ValueError``, and so does ``sweep`` that is no :class:`Sweep`, checked
    after the target and the budget.

    The gaps are taken group by group, a CR column at a time; only the tied
    candidates are compared by the tie rule, and only the pick is built as
    a :class:`CandidateConfig`.
    """
    target_cr = _real(target_cr, "target compression ratio", 1)
    if latency_budget_ms is not None:
        latency_budget_ms = _real(latency_budget_ms, "latency budget", 0)
    if not len(_instance(sweep, Sweep, "sweep", ValueError)):
        raise NoFeasibleConfigError("no candidates to select from")
    # (smallest CR gap, group, its rows within the budget) per group with a
    # row within the budget
    pool = []
    for group in sweep.groups:
        rows, cr = range(len(group.cr)), group.cr
        if latency_budget_ms is not None:
            if group.latency_ms is None or None in group.latency_ms:
                raise ValueError("a latency budget requires measured latencies")
            rows = [i for i, t in enumerate(map(_latency, group.latency_ms))
                    if t <= latency_budget_ms]
            cr = [cr[i] for i in rows]
        if rows:
            pool.append((_smallest_gap(cr, target_cr), group, rows))
    if not pool:
        raise NoFeasibleConfigError(f"no configuration within {latency_budget_ms} ms")

    best_gap = min(gap for gap, *_ in pool)
    tolerance = CR_TIE_RTOL * target_cr
    tied = []
    for gap, group, rows in pool:
        if gap - best_gap > tolerance:
            continue
        for i in rows:
            if abs(group.cr[i] - target_cr) - best_gap <= tolerance:
                measured = None if group.latency_ms is None else _latency(group.latency_ms[i])
                tied.append((math.inf if measured is None else measured, group.shapes.rows, group.ranks[i], group, i, measured))
    *_, group, i, measured = min(tied, key=operator.itemgetter(0, 1, 2))
    return CandidateConfig(group.shapes, group.ranks[i], group.cr[i], group.fr[i], measured)


def _smallest_gap(cr, target_cr: float) -> float:
    return min(map(abs, map(operator.sub, cr, itertools.repeat(target_cr))))


class _Text(dict):
    """CSV text of each float asked for, followed by a comma; each distinct
    value is formatted once per :func:`write_candidates_csv` call.  CR and
    FR are ratios of positive counts, finite positive floats, so equal
    values have equal text."""

    def __missing__(self, value: float) -> str:
        text = self[value] = repr(value) + ","
        return text


def _latency_field(latency_ms: float | None) -> str:
    latency_ms = _latency(latency_ms)
    return "" if latency_ms is None else repr(latency_ms)


def write_candidates_csv(sweep: Sweep, path) -> None:
    """Dump a sweep as CSV with columns shapes, ranks, cr, fr, latency_ms.

    The bytes are those of :func:`csv.writer` with its default dialect
    (``\\r\\n`` line ends, minimal quoting).  The rows are written group by
    group: a group's shapes field is quoted once; the rank fields of each
    distinct rank-tuple column, one tuple object however many groups share
    it, are formatted once; each distinct CR and FR value is formatted
    once (:class:`_Text`); and the group's rows are joined in one call.  A
    sweep holds no text, so all of it is made here, every field that can
    hold a comma quoted through :func:`_csv_field`.  Each
    measured latency is read through :func:`_latency` and written as the
    ``repr`` of a Python float.  All rows are then written in one call, so
    ``sweep`` that is no :class:`Sweep`, or a latency the check refuses,
    raises ``ValueError`` before the file is opened.
    """
    # the rank fields of each rank-tuple column, keyed by the column's
    # identity, which costs less than hashing its tuples; the sweep keeps
    # every column alive, so no identity is reused within the call
    ratios, rank_fields = _Text(), {}
    chunks = ["shapes,ranks,cr,fr,latency_ms\r\n"]
    for shapes, ranks, cr, fr, latency in _instance(sweep, Sweep, "sweep", ValueError).groups:
        fields = rank_fields.get(id(ranks))
        if fields is None:
            fields = rank_fields[id(ranks)] = [_csv_field(",".join(map(str, r))) + "," for r in ranks]
        rows = map(operator.add, fields, map(ratios.__getitem__, cr))
        rows = map(operator.add, rows, map(ratios.__getitem__, fr))
        # an untimed group's rows end with the empty latency field as they are
        if latency is not None:
            rows = map(operator.add, rows, map(_latency_field, latency))
        shapes_field = _csv_field(shapes.to_string()) + ","
        chunks += shapes_field, ("\r\n" + shapes_field).join(rows), "\r\n"
    with open(path, "w", newline="") as handle:
        handle.write("".join(chunks))
