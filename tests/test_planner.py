"""Compression/FLOP accounting, enumeration, selection, and latency probes."""

import csv
import dataclasses
import itertools
import math
import operator
import random
from pathlib import Path

import numpy as np
import pytest

from sekron import (
    CandidateConfig,
    CandidateLimitError,
    FactorShapeMatrix,
    NoFeasibleConfigError,
    PlanRequest,
    ShapeError,
    Sweep,
    compression_ratio,
    enumerate_configs,
    enumerate_factorizations,
    flops_ratio,
    measure_latency,
    measure_sequence_latency,
    sekron_decompose,
    select_config,
    stored_param_count,
    write_candidates_csv,
)
from sekron.cli import run_cli
from sekron.decompose import _branch_sizes, _branch_total
from sekron.planner import (
    CR_TIE_RTOL,
    ShapeGroup,
    _branch_totals,
    _count_factorizations,
)
from oracles import random_sequence, write_candidates_csv_per_row

GOLDEN = Path(__file__).parent / "golden"


class TestRatios:
    def test_sixteen_by_sixteen_examples(self):
        four_small = FactorShapeMatrix(((2, 2),) * 4)
        assert compression_ratio(four_small, (1, 1, 1)) == 16.0
        two_large = FactorShapeMatrix(((4, 4), (4, 4)))
        assert compression_ratio(two_large, (1,)) == 8.0

    def test_single_factor_ratios_are_one(self):
        shapes = FactorShapeMatrix(((8, 8, 3, 3),))
        assert compression_ratio(shapes, ()) == 1.0
        assert flops_ratio(shapes, ()) == 1.0

    def test_flops_worked_example(self):
        shapes = FactorShapeMatrix(((2, 2, 1, 1), (2, 2, 3, 3)))
        assert flops_ratio(shapes, (1,)) == pytest.approx(1.8, rel=0, abs=0)
        assert flops_ratio(shapes, (2,)) == pytest.approx(0.9, rel=0, abs=0)

    def test_cr_matches_materialized_sequence(self):
        shapes = FactorShapeMatrix(((2, 2, 3, 1), (2, 2, 1, 3)))
        ranks = (3,)
        seq = random_sequence(shapes, ranks, rng=0)
        dense = math.prod(shapes.target_shape)
        assert compression_ratio(shapes, ranks) == dense / seq.param_count
        assert stored_param_count(shapes, ranks) == seq.param_count


class TestEnumerateFactorizations:
    def test_twelve_in_two(self):
        assert enumerate_factorizations(12, 2) == [
            (1, 12),
            (2, 6),
            (3, 4),
            (4, 3),
            (6, 2),
            (12, 1),
        ]

    def test_single_slot(self):
        assert enumerate_factorizations(7, 1) == [(7,)]

    def test_four_in_three_has_six(self):
        assert len(enumerate_factorizations(4, 3)) == 6

    def test_complete_and_duplicate_free(self):
        # independent enumeration: every tuple of divisors with the right product
        for n in range(1, 65):
            divisors = [d for d in range(1, n + 1) if n % d == 0]
            for s in (1, 2, 3):
                expected = sorted(
                    t
                    for t in itertools.product(divisors, repeat=s)
                    if math.prod(t) == n
                )
                got = enumerate_factorizations(n, s)
                assert got == expected
                assert len(set(got)) == len(got)

    def test_sequence_length_is_not_bounded_by_the_recursion_limit(self):
        assert enumerate_factorizations(1, 3000) == [(1,) * 3000]

    def test_count_matches_enumeration(self):
        for n in (1, 2, 12, 64, 72, 97, 256, 360, 512, 720):
            for s in range(1, 6):
                assert _count_factorizations(n, s) == len(enumerate_factorizations(n, s))


class TestEnumerateConfigs:
    def test_small_grid_count(self):
        req = PlanRequest((4, 4, 1, 1), 2, target_cr=2.0, max_rank=1)
        configs = enumerate_configs(req)
        assert len(configs) == 9

    def test_single_factor_is_identity_config(self):
        req = PlanRequest((4, 4, 3, 3), 1, target_cr=1.0)
        configs = list(enumerate_configs(req))
        assert len(configs) == 1
        assert configs[0].cr == 1.0
        assert configs[0].fr == 1.0

    def test_count_non_decreasing_in_sequence_length(self):
        counts = []
        for s in (1, 2, 3):
            req = PlanRequest((16, 16, 3, 3), s, target_cr=4.0, max_rank=2)
            counts.append(len(enumerate_configs(req)))
        assert counts[0] <= counts[1] <= counts[2]

    def test_ranks_respect_level_caps(self):
        req = PlanRequest((4, 4, 1, 1), 2, target_cr=2.0, max_rank=20)
        for config in enumerate_configs(req):
            for r, cap in zip(config.ranks, config.shapes.max_ranks()):
                assert r <= cap

    def test_cap_exceeded_is_loud(self):
        # 165 * 165 * 4 * 4 shape combinations times 4**3 rank tuples, about
        # 2.8e7 raw candidates: refused before any of them is built
        req = PlanRequest((256, 256, 3, 3), 4, target_cr=4.0, max_rank=4)
        with pytest.raises(CandidateLimitError, match="cap"):
            enumerate_configs(req)

    def test_cap_is_checked_before_any_factorization_is_built(self, monkeypatch):
        # building the per-axis lists of this request alone takes seconds
        # and about a gigabyte
        def no_lists(n, s):
            raise AssertionError("factorizations built before the cap check")

        monkeypatch.setattr("sekron.planner.enumerate_factorizations", no_lists)
        req = PlanRequest((512, 512, 3, 3), 18, target_cr=1.0, max_rank=1)
        with pytest.raises(CandidateLimitError, match="cap"):
            enumerate_configs(req)

    def test_annotations_match_formulas(self):
        sweeps = [
            ((8, 8, 3, 3), 1, 3),
            ((8, 8, 3, 3), 2, 2),
            ((4, 4, 1, 1), 2, 20),  # caps of 1..4 below max_rank
            ((8, 4, 3, 1), 3, 3),
            ((16, 8, 3, 3), 4, 2),  # many unit-volume factors cap a rank at 1
        ]
        for shape, s, max_rank in sweeps:
            req = PlanRequest(shape, s, target_cr=4.0, max_rank=max_rank)
            configs = enumerate_configs(req)
            # the unfiltered product of shape combinations and rank tuples,
            # filtered by each shape matrix's rank caps
            expected = []
            per_axis = [enumerate_factorizations(d, s) for d in shape]
            for combo in itertools.product(*per_axis):
                shapes = FactorShapeMatrix(tuple(zip(*combo)))
                caps = shapes.max_ranks()
                for ranks in itertools.product(range(1, max_rank + 1), repeat=s - 1):
                    if all(r <= cap for r, cap in zip(ranks, caps)):
                        expected.append((shapes.rows, ranks))
            assert [(c.shapes.rows, c.ranks) for c in configs] == expected
            for config in configs:
                assert config.cr == compression_ratio(config.shapes, config.ranks)
                assert config.fr == flops_ratio(config.shapes, config.ranks)
                assert config.latency_ms is None


def test_branch_totals_match_the_per_tuple_sums():
    # levels capped at rank 1 between wider ones: each run of them is
    # carried as one sum
    rng = np.random.default_rng(32)
    for _ in range(50):
        s = int(rng.integers(1, 7))
        per_branch = tuple(int(p) for p in rng.integers(1, 10**6, size=s))
        ranges = [range(1, int(cap) + 1) for cap in rng.integers(1, 4, size=s - 1)]
        want = [
            _branch_total(_branch_sizes(ranks), per_branch)
            for ranks in itertools.product(*ranges)
        ]
        assert _branch_totals(per_branch, ranges) == want


# what the error message names for each real-valued field
REAL_FIELDS = {"target_cr": "target compression ratio", "latency_budget_ms": "latency budget"}
# refused as a target CR or a latency budget by PlanRequest and select_config:
# values that are no real number, and real ones outside the range each field
# takes, a finite target >= 1 and a finite budget >= 0 (as a measured latency)
REFUSED = [True, "4", 4j, np.bool_(True), 10**400, math.nan, -1.0, -math.inf, math.inf]
REFUSED_IDS = ["bool", "str", "complex", "np-bool", "huge-int", "nan", "negative", "minus-inf",
               "inf"]


class TestPlanRequest:
    @pytest.mark.parametrize("field", ["sequence_length", "max_rank"])
    @pytest.mark.parametrize("value", [2.5, 2.0, "2", True])
    def test_non_integer_count_is_rejected(self, field, value):
        kwargs = {"sequence_length": 2, "max_rank": 2, field: value}
        with pytest.raises(ValueError, match=field.replace("_", " ")):
            PlanRequest((4, 4, 1, 1), target_cr=2.0, **kwargs)

    @pytest.mark.parametrize("dim", [4.5, 4.0, True, "4"])
    def test_non_integer_target_dimension_is_a_shape_error(self, dim):
        with pytest.raises(ShapeError, match="dimension"):
            PlanRequest((dim, 4, 1, 1), 2, 2.0)

    def test_dimension_above_bound_is_a_shape_error(self):
        # refused at construction, before enumerate_configs factors anything
        assert PlanRequest((2**20, 1, 1, 1), 2, 1.0).target_shape[0] == 2**20
        with pytest.raises(ShapeError, match="at most"):
            PlanRequest((2**20 + 1, 1, 1, 1), 2, 1.0)

    def test_numpy_integer_target_dimensions_become_ints(self):
        req = PlanRequest(tuple(np.int64(d) for d in (4, 4, 1, 1)), 2, 2.0)
        assert req.target_shape == (4, 4, 1, 1)
        assert all(type(d) is int for d in req.target_shape)

    @pytest.mark.parametrize("field", ["target_cr", "latency_budget_ms"])
    @pytest.mark.parametrize("value", REFUSED, ids=REFUSED_IDS)
    def test_non_real_target_or_budget_is_rejected(self, field, value):
        kwargs = {"target_cr": 2.0, field: value}
        with pytest.raises(ValueError, match=REAL_FIELDS[field]):
            PlanRequest((4, 4, 1, 1), 2, **kwargs)

    def test_real_target_and_budget_become_floats(self):
        req = PlanRequest((4, 4, 1, 1), 2, np.float32(2.5), latency_budget_ms=np.int64(5))
        assert (req.target_cr, req.latency_budget_ms) == (2.5, 5.0)
        assert type(req.target_cr) is float and type(req.latency_budget_ms) is float

    def test_numpy_integer_counts_become_ints(self):
        req = PlanRequest((4, 4, 1, 1), np.int64(2), 2.0, max_rank=np.int64(3))
        assert type(req.sequence_length) is int and type(req.max_rank) is int
        assert enumerate_configs(req) == enumerate_configs(
            PlanRequest((4, 4, 1, 1), 2, 2.0, max_rank=3)
        )


def synthetic(rows, ranks, cr, fr, latency):
    """One candidate as a sweep group of its own."""
    return ShapeGroup(FactorShapeMatrix(rows), (ranks,), (cr,), (fr,), (latency,))


class TestSelectConfig:
    def candidates(self):
        return Sweep([
            synthetic(((2, 2), (8, 8)), (1,), 3.9, 2.0, 4.0),
            synthetic(((4, 4), (4, 4)), (1,), 4.2, 2.0, 6.0),
            synthetic(((8, 8), (2, 2)), (1,), 8.0, 2.0, 2.0),
        ])

    def test_budget_and_target(self):
        chosen = select_config(self.candidates(), target_cr=4.0, latency_budget_ms=5.0)
        assert chosen.cr == 3.9

    def test_tie_breaks_on_latency(self):
        pair = Sweep([
            synthetic(((2, 2), (8, 8)), (1,), 4.1, 2.0, 5.0),
            synthetic(((4, 4), (4, 4)), (1,), 3.9, 2.0, 3.0),
        ])
        chosen = select_config(pair, target_cr=4.0)
        assert chosen.latency_ms == 3.0

    def test_float_tie_pick_is_order_independent(self):
        # |4.1 - 4.0| and |3.9 - 4.0| differ only by float rounding: a tie
        pair = [
            synthetic(((2, 2), (8, 8)), (1,), 4.1, 2.0, 5.0),
            synthetic(((4, 4), (4, 4)), (1,), 3.9, 2.0, 3.0),
        ]
        for order in (pair, pair[::-1]):
            assert select_config(Sweep(order), target_cr=4.0).latency_ms == 3.0

    def test_closer_cr_beats_faster_latency(self):
        # gaps 0.05 and 0.1 differ far beyond the tie tolerance
        pair = [
            synthetic(((2, 2), (8, 8)), (1,), 4.1, 2.0, 1.0),
            synthetic(((4, 4), (4, 4)), (1,), 3.95, 2.0, 9.0),
        ]
        for order in (pair, pair[::-1]):
            assert select_config(Sweep(order), target_cr=4.0).cr == 3.95

    def test_impossible_budget(self):
        with pytest.raises(NoFeasibleConfigError):
            select_config(self.candidates(), target_cr=4.0, latency_budget_ms=1.0)

    def test_empty_candidates(self):
        with pytest.raises(NoFeasibleConfigError):
            select_config(Sweep([]), target_cr=4.0)
        # the target and the budget are checked before the sweep
        with pytest.raises(ValueError, match="latency budget"):
            select_config([], target_cr=4.0, latency_budget_ms=math.nan)

    @pytest.mark.parametrize("target_cr", [math.nan, math.inf, 0.5])
    def test_target_outside_finite_and_at_least_one_is_rejected(self, target_cr):
        with pytest.raises(ValueError, match="target compression ratio"):
            select_config(self.candidates(), target_cr=target_cr)

    @pytest.mark.parametrize("field", ["target_cr", "latency_budget_ms"])
    @pytest.mark.parametrize("value", REFUSED, ids=REFUSED_IDS)
    def test_non_real_target_or_budget_is_rejected(self, field, value):
        kwargs = {"target_cr": 4.0, "latency_budget_ms": 10.0, field: value}
        with pytest.raises(ValueError, match=REAL_FIELDS[field]):
            select_config(self.candidates(), **kwargs)

    def test_budget_requires_latencies(self):
        missing = Sweep([synthetic(((2, 2), (8, 8)), (1,), 4.0, 2.0, None)])
        with pytest.raises(ValueError):
            select_config(missing, target_cr=4.0, latency_budget_ms=5.0)

    def test_order_independent(self):
        base = [
            *self.candidates().groups,
            synthetic(((16, 16), (1, 1)), (1,), 3.9, 2.0, 4.0),
        ]
        picks = set()
        shuffler = random.Random(3)
        for _ in range(10):
            order = base[:]
            shuffler.shuffle(order)
            chosen = select_config(Sweep(order), target_cr=4.0, latency_budget_ms=10.0)
            picks.add((chosen.shapes.rows, chosen.ranks))
        assert len(picks) == 1
        # the two 3.9 candidates tie on CR and on latency; smaller shapes win
        assert picks.pop()[0] == ((2, 2), (8, 8))


# refused as a measured latency by select_config and write_candidates_csv
BAD_LATENCY = [math.nan, np.float64(math.nan), math.inf, -1.0, "x", True, 2j]
BAD_LATENCY_IDS = ["nan", "np-nan", "inf", "negative", "str", "bool", "complex"]


class TestMeasuredLatency:
    def test_nan_is_refused_in_either_candidate_order(self):
        # CR-tied: a NaN latency compares false with 2.0, so a pick would
        # depend on which of the two came first
        pair = [
            synthetic(((2, 2), (8, 8)), (1,), 4.0, 2.0, math.nan),
            synthetic(((4, 4), (4, 4)), (1,), 4.0, 2.0, 2.0),
        ]
        for order in (pair, pair[::-1]):
            with pytest.raises(ValueError, match="measured latency"):
                select_config(Sweep(order), target_cr=4.0)

    @pytest.mark.parametrize("value", BAD_LATENCY, ids=BAD_LATENCY_IDS)
    def test_bad_latency_is_refused(self, value, tmp_path):
        sweep = enumerate_configs(PlanRequest((4, 4, 1, 1), 2, target_cr=2.0, max_rank=1))
        candidate = synthetic(((2, 2), (8, 8)), (1,), 2.0, 2.0, value)
        timed = [sweep.with_latency([value] * len(sweep)), Sweep([candidate])]
        # a negative latency would pass a budget of 0 ms; a string would be picked
        for candidates, budget in itertools.product(timed, (None, 0.0)):
            with pytest.raises(ValueError, match="measured latency"):
                select_config(candidates, target_cr=2.0, latency_budget_ms=budget)
        # the writer refuses it too, before it creates the file
        for candidates in timed:
            with pytest.raises(ValueError, match="measured latency"):
                write_candidates_csv(candidates, tmp_path / "sweep.csv")
            assert not (tmp_path / "sweep.csv").exists()

    def test_picked_latency_is_a_float(self):
        candidates = Sweep([synthetic(((2, 2), (8, 8)), (1,), 4.0, 2.0, np.int64(0)),
                            synthetic(((2, 2), (8, 8)), (2,), 2.0, 1.0, None)])
        picked = select_config(candidates, target_cr=4.0).latency_ms
        assert picked == 0.0 and type(picked) is float
        sweep = enumerate_configs(PlanRequest((4, 4, 1, 1), 2, target_cr=2.0, max_rank=1))
        timed = sweep.with_latency([np.float32(0.5)] * len(sweep))
        picked = select_config(timed, target_cr=2.0, latency_budget_ms=1.0).latency_ms
        assert picked == 0.5 and type(picked) is float


def small_sweep():
    return enumerate_configs(PlanRequest((4, 4, 1, 1), 2, target_cr=2.0, max_rank=1))


def ragged_group(ranks=((1,), (2,)), cr=(1.0, 2.0), fr=(1.0, 2.0), latency=None):
    """A two-row :class:`ShapeGroup` with the columns given, as they are,
    so a column that is too short or too long, or no tuple, stays so."""
    shapes = FactorShapeMatrix(((2, 2, 1, 1), (2, 2, 3, 3)))
    return ShapeGroup(shapes, ranks, cr, fr, latency)


# each planner entry given an argument of the wrong type, and the name its
# error gives that argument
WRONG_TYPE = {
    "enumerate-none": (lambda path: enumerate_configs(None), "NoneType"),
    "probe-str": (lambda path: measure_latency("x", (1, 4, 8, 8), 3), "got str"),
    "with-latency-int": (lambda path: small_sweep().with_latency(5), "got 5"),
    "with-latency-none": (lambda path: small_sweep().with_latency(None), "got None"),
    "select-list": (lambda path: select_config([], 4.0), "got list"),
    "select-candidates": (lambda path: select_config(list(small_sweep()), 2.0), "got list"),
    "csv-list": (lambda path: write_candidates_csv([], path), "got list"),
    "csv-candidates": (lambda path: write_candidates_csv(list(small_sweep()), path), "got list"),
    "sweep-none": (lambda path: Sweep(None), "got None"),
    "sweep-tuple-group": (lambda path: Sweep([tuple(ragged_group())]), "got tuple"),
    "sweep-short-fr": (lambda path: Sweep([ragged_group(fr=(1.0,))]), "of one length"),
    "sweep-short-cr": (lambda path: Sweep([ragged_group(cr=(1.0,))]), "of one length"),
    "sweep-long-ranks": (lambda path: Sweep([ragged_group(ranks=((1,), (2,), (3,)))]),
                         "of one length"),
    "sweep-short-latency": (lambda path: Sweep([ragged_group(latency=(1.0,))]), "of one length"),
    "sweep-none-ranks": (lambda path: Sweep([ragged_group(ranks=None)]), "tuples of one length"),
    # a list column of the right length: a tuple alone cannot change in place
    "sweep-list-cr": (lambda path: Sweep([ragged_group(cr=[1.0, 2.0])]), "tuples of one length"),
    "sweep-list-ranks": (lambda path: Sweep([ragged_group(ranks=[(1,), (2,)])]),
                         "tuples of one length"),
    "sweep-list-latency": (lambda path: Sweep([ragged_group(latency=[1.0, 2.0])]),
                           "tuples of one length"),
}


@pytest.mark.parametrize("call, named", WRONG_TYPE.values(), ids=list(WRONG_TYPE))
def test_wrong_type_planner_argument_is_a_value_error(tmp_path, call, named):
    path = tmp_path / "sweep.csv"
    with pytest.raises(ValueError, match=named):
        call(path)
    assert not path.exists()


def sweep_reads(sweep, path, budget=None):
    """What the consumers of a sweep read from it: its length, its
    candidates, its CSV bytes and its pick at CR 4."""
    write_candidates_csv(sweep, path)
    return len(sweep), list(sweep), path.read_bytes(), select_config(sweep, 4.0, budget)


def test_a_sweep_built_from_a_one_shot_iterable_holds_every_group(tmp_path):
    # the constructor keeps the tuple it checked, not the iterator it used up
    sweep = enumerate_configs(PlanRequest((4, 4, 1, 1), 2, 4.0))
    assert len(sweep) == 22
    timed = sweep.with_latency([1.0 + i % 3 for i in range(len(sweep))])
    for candidates in (sweep, timed):
        want = sweep_reads(Sweep(list(candidates.groups)), tmp_path / "list.csv")
        for name, groups in [("iter", iter(candidates.groups)),
                             ("generator", (g for g in candidates.groups))]:
            assert sweep_reads(Sweep(groups), tmp_path / f"{name}.csv") == want, name


def test_enumerated_and_timed_sweeps_hold_tuples():
    sweep = enumerate_configs(PlanRequest((8, 8, 3, 3), 2, 4.0, max_rank=2))
    timed = sweep.with_latency([0.5] * len(sweep))
    for candidates in (sweep, timed):
        assert type(candidates.groups) is tuple
        for group in candidates.groups:
            columns = group.ranks, group.cr, group.fr
            assert all(type(column) is tuple for column in columns)
            assert group.latency_ms is None or type(group.latency_ms) is tuple
    assert all(group.latency_ms is None for group in sweep.groups)
    # the timed sweep shares the untimed one's columns
    assert all(a.cr is b.cr and a.ranks is b.ranks for a, b in zip(sweep.groups, timed.groups))


# each change an open record would take on a timed sweep, and the error the
# frozen record raises where the change is made
SWEEP_CHANGES = {
    "groups": (lambda sweep: setattr(sweep, "groups", ()), dataclasses.FrozenInstanceError),
    "append-group": (lambda sweep: sweep.groups.append(sweep.groups[0]), AttributeError),
    "set-group": (lambda sweep: operator.setitem(sweep.groups, 0, sweep.groups[1]), TypeError),
    # group 1 shares its CR column with group 3
    "append-shared-cr": (lambda sweep: sweep.groups[1].cr.append(1.0), AttributeError),
    "set-shared-cr": (lambda sweep: operator.setitem(sweep.groups[1].cr, 0, 4.0), TypeError),
    "set-latency": (lambda sweep: operator.setitem(sweep.groups[1].latency_ms, 0, 0.0), TypeError),
    "group-field": (lambda sweep: setattr(sweep.groups[1], "cr", ()), AttributeError),
}


@pytest.mark.parametrize("change, error", SWEEP_CHANGES.values(), ids=list(SWEEP_CHANGES))
def test_a_sweep_refuses_a_change_where_it_is_made(tmp_path, change, error):
    # once built and checked, a sweep cannot change: len, iteration, the
    # CSV and the pick read it as its constructor checked it
    sweep = enumerate_configs(PlanRequest((4, 4, 1, 1), 2, 4.0))
    timed = sweep.with_latency([1.0 + i % 3 for i in range(len(sweep))])
    assert timed.groups[1].cr is timed.groups[3].cr
    want = sweep_reads(timed, tmp_path / "before.csv", 2.0)
    with pytest.raises(error):
        change(timed)
    assert sweep_reads(timed, tmp_path / "after.csv", 2.0) == want


class TestLatency:
    def config(self):
        shapes = FactorShapeMatrix(((2, 2, 1, 1), (2, 2, 3, 3)))
        return CandidateConfig(
            shapes=shapes,
            ranks=(1,),
            cr=compression_ratio(shapes, (1,)),
            fr=flops_ratio(shapes, (1,)),
        )

    def test_positive_and_roughly_stable(self):
        cfg = self.config()
        fast = measure_latency(cfg, (1, 4, 8, 8), trials=3)
        slow = measure_latency(cfg, (1, 4, 8, 8), trials=31)
        assert fast > 0 and slow > 0
        # medians of repeated runs agree loosely; nothing tighter than 50%
        assert abs(fast - slow) <= 0.5 * max(fast, slow) + 0.5

    def test_too_few_trials(self):
        with pytest.raises(ValueError):
            measure_latency(self.config(), (1, 4, 8, 8), trials=2)

    # a float, a string or None is no count, and True would read as 1
    @pytest.mark.parametrize("trials", [3.5, "5", None, True])
    def test_non_integer_trials_is_a_value_error(self, trials):
        seq = random_sequence(self.config().shapes, (1,), rng=0)
        with pytest.raises(ValueError, match="trials must be an integer"):
            measure_latency(self.config(), (1, 4, 8, 8), trials=trials)
        with pytest.raises(ValueError, match="trials must be an integer"):
            measure_sequence_latency(seq, (1, 4, 8, 8), trials=trials)

    def test_probes_are_all_ones_through_the_planners_conv(self, monkeypatch):
        # the probe calls sekron_conv2d by its name in sekron.planner, where
        # a tracer can wrap it, with factors and input of all ones
        calls = []

        def recorder(x, seq, padding=0):
            calls.append((x, seq, padding))

        monkeypatch.setattr("sekron.planner.sekron_conv2d", recorder)
        measure_latency(self.config(), (2, 4, 8, 8), trials=3)
        measure_sequence_latency(random_sequence(self.config().shapes, (2,), rng=0),
                                 (1, 4, 6, 6), trials=3, padding=1)
        assert len(calls) == 2 * (1 + 3)
        assert all(np.all(x == 1.0) for x, _, _ in calls)
        assert [x.shape for x, _, _ in calls] == [(2, 4, 8, 8)] * 4 + [(1, 4, 6, 6)] * 4
        assert [padding for _, _, padding in calls] == [0] * 4 + [1] * 4
        assert all(np.all(f == 1.0) for _, seq, _ in calls[:4] for f in seq.factors)


def rank_subsets():
    """A sweep whose groups each keep their own subset of a rank grid, as a
    producer that picks rank tuples per shape matrix gives one: no two
    groups share a rank-tuple column, by identity or by value.  Every third
    group is untimed, and of the timed ones every other has rows with no
    measured latency."""
    full = enumerate_configs(PlanRequest((8, 8, 3, 3), 3, 4.0, max_rank=3))
    rng = random.Random(5)
    groups = []
    for k, group in enumerate(g for g in full.groups[::50] if len(g.cr) >= 4):
        keep = sorted(rng.sample(range(len(group.cr)), rng.randint(1, len(group.cr))))
        latency = [rng.choice([0.5, 1.0, 1.5]) for _ in keep]
        if k % 3 == 2:
            latency[0] = None
        groups.append(ShapeGroup(group.shapes, tuple(group.ranks[i] for i in keep),
                                 tuple(group.cr[i] for i in keep), tuple(group.fr[i] for i in keep),
                                 None if k % 3 == 0 else tuple(latency)))
    assert len(groups) >= 12
    assert len({group.ranks for group in groups}) == len(groups)
    return Sweep(groups)


class TestCsv:
    def test_sweep_round_trips_through_csv(self, tmp_path):
        sweep = enumerate_configs(PlanRequest((4, 4, 1, 1), 2, target_cr=2.0, max_rank=1))
        sweep = sweep.with_latency([1.25] + [None] * (len(sweep) - 1))
        configs = list(sweep)
        path = tmp_path / "sweep.csv"
        write_candidates_csv(sweep, path)
        with open(path, newline="") as handle:
            reader = csv.DictReader(handle)
            rows = list(reader)
        assert reader.fieldnames == ["shapes", "ranks", "cr", "fr", "latency_ms"]
        assert len(rows) == len(configs)
        for row, config in zip(rows, configs):
            assert FactorShapeMatrix.from_string(row["shapes"]).rows == config.shapes.rows
            assert float(row["cr"]) == config.cr
            assert float(row["fr"]) == config.fr
        assert float(rows[0]["latency_ms"]) == 1.25
        assert rows[1]["latency_ms"] == ""

    def test_bytes_match_per_row_writer(self, tmp_path):
        sweep = enumerate_configs(PlanRequest((8, 8, 3, 3), 2, 4.0, max_rank=2))
        sweep = sweep.with_latency([0.5 + i / 7 if i % 3 else None for i in range(len(sweep))])
        subsets = rank_subsets()
        for name, candidates in [("enumerated", sweep), ("subsets", subsets)]:
            write_candidates_csv(candidates, tmp_path / f"{name}.csv")
            write_candidates_csv_per_row(candidates, tmp_path / f"{name}-oracle.csv")
            got = (tmp_path / f"{name}.csv").read_bytes()
            assert got == (tmp_path / f"{name}-oracle.csv").read_bytes(), name
        # the selector reads the subsets as the rule applied row by row does;
        # each CR the rows hold is a target too, which ties rows of timed
        # and untimed groups exactly
        rows = list(subsets)
        for target in {1.0, 1e6, *(row.cr for row in rows)}:
            assert select_config(subsets, target) == tie_rule_pick(rows, target)

    @pytest.mark.parametrize("value", [np.float64(0.5), np.float32(0.1), np.int64(2)],
                             ids=["np-float64", "np-float32", "np-int64"])
    def test_numpy_latency_is_written_as_a_python_float(self, tmp_path, value):
        sweep = enumerate_configs(PlanRequest((4, 4, 1, 1), 2, target_cr=2.0, max_rank=1))
        write_candidates_csv(sweep.with_latency([value] * len(sweep)), tmp_path / "sweep.csv")
        with open(tmp_path / "sweep.csv", newline="") as handle:
            fields = {row["latency_ms"] for row in csv.DictReader(handle)}
        assert fields == {repr(float(value))}

    @pytest.mark.parametrize(
        "name, args",
        [
            ("plan_s3.csv", ["--shape", "4,2,1,1", "--seq-len", "3", "--target-cr", "2",
                             "--max-rank", "2"]),
            # one factor: the ranks field is empty, which csv.writer writes
            # within a row as nothing (8x4x3x3,,1.0,1.0,), not as ""
            ("plan_s1.csv", ["--shape", "8,4,3,3", "--seq-len", "1", "--target-cr", "1"]),
        ],
    )
    def test_plan_sweep_matches_golden_file(self, tmp_path, capsys, name, args):
        # golden/ holds sweeps written with csv.writer, one writerow per row
        out = tmp_path / name
        assert run_cli(["plan", *args, "--out", str(out)]) == 0
        capsys.readouterr()
        assert out.read_bytes() == (GOLDEN / name).read_bytes()


def tie_rule_pick(candidates, target_cr, latency_budget_ms=None):
    """select_config's documented rule applied candidate by candidate."""
    if latency_budget_ms is not None:
        candidates = [c for c in candidates if c.latency_ms <= latency_budget_ms]
    best = min(abs(c.cr - target_cr) for c in candidates)
    tied = [c for c in candidates if abs(c.cr - target_cr) - best <= CR_TIE_RTOL * target_cr]
    return min(tied, key=lambda c: (math.inf if c.latency_ms is None else c.latency_ms,
                                    c.shapes.rows, c.ranks))


def test_a_full_sweep_writes_and_picks_as_the_per_row_forms(tmp_path):
    # the S=3 sweep of a 128x64 1x1 layer up to rank 4: its groups share
    # rank-tuple and CR columns, whose text the writer makes once each
    sweep = enumerate_configs(PlanRequest((128, 64, 1, 1), 3, 10.0, max_rank=4))
    assert (len(sweep), len(sweep.groups)) == (11_947, 1_008)
    rng = random.Random(9)
    timed = sweep.with_latency([rng.uniform(0.5, 2.0) for _ in range(len(sweep))])
    # every fifth row unmeasured: most groups mix measured and unmeasured
    # rows, and two have no measured row
    starts = itertools.accumulate((len(group.cr) for group in timed.groups), initial=0)
    partly = Sweep([
        group._replace(latency_ms=tuple(None if (start + j) % 5 == 0 else t
                                        for j, t in enumerate(group.latency_ms)))
        for start, group in zip(starts, timed.groups)
    ])
    for name, candidates in [("untimed", sweep), ("timed", timed), ("partly", partly)]:
        rows = list(candidates)
        write_candidates_csv(candidates, tmp_path / f"{name}.csv")
        write_candidates_csv_per_row(rows, tmp_path / f"{name}-oracle.csv")
        got = (tmp_path / f"{name}.csv").read_bytes()
        assert got == (tmp_path / f"{name}-oracle.csv").read_bytes(), name
        for target in (1.0, 3.0, 10.0, 37.5, 1e6):
            assert select_config(candidates, target) == tie_rule_pick(rows, target)
    for budget in (0.6, 1.0, 1.9):
        want = tie_rule_pick(list(timed), 10.0, budget)
        assert select_config(timed, 10.0, budget) == want
        with pytest.raises(ValueError, match="requires measured latencies"):
            select_config(partly, 10.0, budget)


def test_cr_identity_on_enumerated_configs_with_decomposition():
    rng = np.random.default_rng(17)
    w = rng.standard_normal((8, 8, 3, 3))
    req = PlanRequest((8, 8, 3, 3), 2, target_cr=4.0, max_rank=2)
    configs = list(enumerate_configs(req))
    dense = w.size
    sample = configs[:: max(1, len(configs) // 12)]
    for config in sample:
        seq = sekron_decompose(w, config.shapes, config.ranks)
        assert config.cr == dense / seq.param_count
