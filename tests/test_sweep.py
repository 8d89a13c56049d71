"""Incremental-variability sweeps and the exhaustive envelope."""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from itertools import combinations

import pytest

from adaptmeter import (
    Activity,
    AnalysisConfig,
    ProcessModel,
    ReferenceTooSmall,
    exhaustive_sweep,
    process_adaptability,
    run_sweep,
)
from adaptmeter import metrics
from adaptmeter.matching import VariabilityProfile
from adaptmeter.metrics import join_point_weights
from adaptmeter.model import BASIC_KINDS, path_order
from adaptmeter.report import sweep_csv
from adaptmeter.sweep import enumerate_slots, sweep_case
from randtrees import random_process
import oracles

NO_JOIN_POINTS = ProcessModel(name="inert", root=Activity("sequence", children=(Activity("assign"),)))

SINGLE_JOIN_POINT = ProcessModel(name="single", root=Activity("sequence", children=(Activity("invoke"),)))


def _subset_envelope(process, config):
    """(min, mean, max) over every slot subset of each count, each scored by process_adaptability."""
    slots = enumerate_slots(process, config)
    rows = []
    for count in range(len(slots) + 1):
        pams = []
        for subset in combinations(slots, count):
            profile = VariabilityProfile.from_assignments(subset)
            pams.append(process_adaptability(process, profile, config).pam)
        rows.append((min(pams), sum(pams, Fraction(0)) / len(pams), max(pams)))
    return rows


def _process_with_join_points(rng, count):
    """A random tree over ``count`` invokes and some assigns, grouped bottom-up."""
    nodes = [Activity("invoke") for _ in range(count)] + [Activity("assign") for _ in range(count // 4)]
    rng.shuffle(nodes)
    while len(nodes) > 1 or nodes[0].kind in BASIC_KINDS:
        size = rng.randint(1, min(4, len(nodes)))
        at = rng.randrange(len(nodes) - size + 1)
        kind = rng.choice(("sequence", "flow", "while", "switch", "pick"))
        nodes[at:at + size] = [Activity(kind, children=tuple(nodes[at:at + size]))]
    return ProcessModel(name=f"grouped{count}", root=nodes[0])


def _outcome(compute):
    """The result, or the message of the ReferenceTooSmall raised instead."""
    try:
        return compute()
    except ReferenceTooSmall as exc:
        return str(exc)


class TestEnumerateSlots:
    def test_travel_fixture_has_fifteen(self, travel_process, config):
        slots = enumerate_slots(travel_process, config)
        assert len(slots) == 15
        assert len({path for path, _ in slots}) == 5
        # pre-order by join point, advice types in canonical order within
        assert [advice_type for _, advice_type in slots[:3]] == ["before", "around", "after"]
        paths = [path for path, _ in slots]
        assert paths == sorted(paths, key=path_order)

    def test_no_join_points_no_slots(self, config):
        assert enumerate_slots(NO_JOIN_POINTS, config) == []

    def test_three_join_points_nine_slots(self, config):
        root = Activity(
            "sequence",
            children=(Activity("receive"), Activity("invoke"), Activity("invoke")),
        )
        process = ProcessModel(name="p", root=root)
        assert len(enumerate_slots(process, config)) == 9

    def test_mini_fixture_nine_slots(self, mini_process, config):
        assert len(enumerate_slots(mini_process, config)) == 9


class TestSweepCase:
    def test_endpoints(self, travel_process, config):
        slots = enumerate_slots(travel_process, config)
        case = sweep_case(join_point_weights(travel_process, config), slots, config)
        assert case.series[0] == Fraction(0)
        assert case.series[-1] == Fraction(1)
        assert len(case.series) == 16

    def test_saturating_one_join_point_first_exposes_its_weight(self, travel_process, config):
        slots = enumerate_slots(travel_process, config)
        domestic = [slot for slot in slots if "switch" in str(slot[0]) and "invoke[0]" in str(slot[0])]
        assert len(domestic) == 3
        rest = [slot for slot in slots if slot not in domestic]
        case = sweep_case(join_point_weights(travel_process, config), domestic + rest, config)
        assert case.series[3] == Fraction(1, 8)

    def test_single_join_point_steps_by_thirds(self, config):
        slots = enumerate_slots(SINGLE_JOIN_POINT, config)
        case = sweep_case(join_point_weights(SINGLE_JOIN_POINT, config), slots, config)
        assert list(case.series) == [0, Fraction(1, 3), Fraction(2, 3), 1]

    def test_series_monotone(self, mini_process, config):
        rng = random.Random(8)
        slots = enumerate_slots(mini_process, config)
        rng.shuffle(slots)
        pams = sweep_case(join_point_weights(mini_process, config), slots, config).series
        assert all(a <= b for a, b in zip(pams, pams[1:]))

    def test_subset_sum_consistency(self, travel_process, config):
        # each point of the series is the sum of the chosen slots'
        # weight * (1/R) contributions
        weights = join_point_weights(travel_process, config)
        rng = random.Random(9)
        order = enumerate_slots(travel_process, config)
        rng.shuffle(order)
        case = sweep_case(weights, order, config)
        for count, pam in enumerate(case.series):
            expected = sum(
                (weights[path] / config.reference_value for path, _ in order[:count]),
                Fraction(0),
            )
            assert pam == expected


class TestRunSweep:
    def test_deterministic_for_equal_seeds(self, travel_process, config):
        first = run_sweep(travel_process, 3, 42, config)
        second = run_sweep(travel_process, 3, 42, config)
        assert first == second

    def test_seed_changes_orders(self, travel_process, config):
        one = run_sweep(travel_process, 1, 1, config)
        two = run_sweep(travel_process, 1, 2, config)
        assert one[0].order != two[0].order

    def test_cases_use_distinct_orders(self, travel_process, config):
        result = run_sweep(travel_process, 3, 42, config)
        orders = {case.order for case in result}
        assert len(orders) == 3

    def test_tiny_permutation_space_allows_repeats(self, config):
        # Three slots have only six orders, so the last two cases repeat
        # earlier ones after the draws for an unseen order run out. The
        # orders are pinned with the rest of the draw sequence (see below).
        result = run_sweep(SINGLE_JOIN_POINT, 8, 0, config)
        assert len(result[0].order) == 3
        assert [tuple(advice_type for _, advice_type in case.order) for case in result] == [
            ("before", "after", "around"),
            ("after", "around", "before"),
            ("before", "around", "after"),
            ("around", "before", "after"),
            ("after", "before", "around"),
            ("around", "after", "before"),
            ("after", "around", "before"),
            ("around", "before", "after"),
        ]

    # The draw sequence is part of the output contract (README, "Sweeps"),
    # so these orders must not change. The CSVs cannot pin them: swapping
    # two slots of one join point leaves a series unchanged.
    def test_draw_sequence_is_pinned(self, travel_process, config):
        result = run_sweep(travel_process, 3, 42, config)
        text = "\n".join(" ".join(f"{path}:{advice_type}" for path, advice_type in case.order)
                         for case in result)
        assert text.startswith("/process/sequence[0]/switch[2]/invoke[1]:after /process/sequence[0]/reply[5]:around ")
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "1ec8bff117609efe54af7b1ae96d3dfca02dbe95639d93e8f05815e670c3ef8d"
        )

    def test_all_cases_monotone_and_saturating(self, travel_process, config):
        result = run_sweep(travel_process, 3, 42, config)
        for case in result:
            pams = case.series
            assert pams[0] == 0
            assert pams[-1] == 1
            assert all(a <= b for a, b in zip(pams, pams[1:]))

    def test_builds_the_weight_table_once(self, monkeypatch, travel_process, config):
        # every case reads the one table; no case walks the tree again
        tables = []
        build = metrics._weights
        monkeypatch.setattr(metrics, "_weights", lambda *args: tables.append(args) or build(*args))
        assert len(run_sweep(travel_process, 5, 42, config)) == 5
        assert len(tables) == 1

    def test_case_ids_are_sequential(self, mini_process, config):
        result = run_sweep(mini_process, 4, 9, config)
        rows = sweep_csv(result).splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == [str(case_id) for case_id in range(4) for _ in range(10)]

    def test_num_cases_validated(self, mini_process, config):
        for num_cases in (0, -1, True, 2.5, "3", None):
            with pytest.raises(ValueError, match="num_cases must be an integer >= 1"):
                run_sweep(mini_process, num_cases, 1, config)

    def test_seed_must_be_an_integer(self, mini_process, config):
        # random.Random(None) seeds from the operating system, and bools,
        # floats and strings are seeds that no command line gives.
        for seed in (None, True, 1.5, "42"):
            with pytest.raises(ValueError, match=f"seed must be an integer, got {seed!r}"):
                run_sweep(mini_process, 2, seed, config)


class TestExhaustiveSweep:
    def test_mini_envelope_shape(self, mini_process, config):
        rows = exhaustive_sweep(mini_process, config)
        assert len(rows) == 10
        for low, mean, high in rows:
            assert low <= mean <= high
        assert rows[0] == (Fraction(0), Fraction(0), Fraction(0))
        assert rows[-1] == (Fraction(1), Fraction(1), Fraction(1))

    def test_envelope_matches_recursive_enumeration(self, mini_process):
        # independent oracle: evaluate every subset through the full tree
        # aggregation instead of the weight fold, with R below, at and
        # above 3, both count modes and custom join-point kinds
        rng = random.Random(30303)
        raised = 0
        for reference_value in (1, 2, 3, 5):
            for count_mode in ("set", "raw-clamped"):
                for kinds in ({"invoke", "receive", "reply"}, {"invoke"}, {"assign", "reply"}):
                    config = AnalysisConfig(reference_value=reference_value, join_point_kinds=frozenset(kinds),
                                            count_mode=count_mode)
                    subjects = [mini_process]
                    while len(subjects) < 3:
                        process = random_process(rng, max_depth=4, max_nodes=10)
                        if len(enumerate_slots(process, config)) <= 12:
                            subjects.append(process)
                    for subject in subjects:
                        expected = _outcome(lambda: _subset_envelope(subject, config))
                        assert _outcome(lambda: exhaustive_sweep(subject, config)) == expected
                        raised += isinstance(expected, str)
        assert raised > 0

    def test_travel_fixture_matches_subset_enumeration(self, travel_process, config):
        # 15 slots: each of the 2^15 subsets is aggregated over the whole tree
        assert exhaustive_sweep(travel_process, config) == _subset_envelope(travel_process, config)

    @pytest.mark.parametrize("join_points", [20, 100])
    def test_set_mode_matches_closed_form_on_large_processes(self, join_points, config):
        # With R = 3 every slot adds its join point's weight / 3, so k slots
        # reach at least the k smallest slot values and at most the k largest,
        # and every slot lies in k / S of the subsets of size k.
        process = _process_with_join_points(random.Random(join_points), join_points)
        values = sorted(
            weight / config.reference_value for weight in join_point_weights(process, config).values()
            for _ in range(3)  # one per advice type
        )
        slots = len(values)
        assert slots == 3 * join_points
        total = sum(values, Fraction(0))
        expected = [
            (sum(values[:k], Fraction(0)), Fraction(k, slots) * total, sum(values[slots - k:], Fraction(0)))
            for k in range(slots + 1)
        ]
        assert exhaustive_sweep(process, config) == expected

    @pytest.mark.parametrize("reference_value", [1, 2])
    def test_raw_clamped_below_three_matches_the_fold_on_a_large_process(self, reference_value):
        # VD = min(c, R) / R is concave but not linear here: each join point's
        # first R slots add weight / R and the rest add nothing
        process = _process_with_join_points(random.Random(100), 100)
        config = AnalysisConfig(reference_value=reference_value, count_mode="raw-clamped")
        rows = exhaustive_sweep(process, config)
        assert len(rows) == 301
        assert rows == oracles.exhaustive_fold(process, config)

    def test_raw_clamped_mode_matches_set_mode_here(self, mini_process):
        # slots are distinct (path, type) pairs, so multiplicities never
        # exceed one and the two count modes coincide
        set_rows = exhaustive_sweep(mini_process, AnalysisConfig(count_mode="set"))
        raw_rows = exhaustive_sweep(mini_process, AnalysisConfig(count_mode="raw-clamped"))
        assert set_rows == raw_rows

    def test_no_join_points_single_row(self, config):
        rows = exhaustive_sweep(NO_JOIN_POINTS, config)
        assert rows == [(Fraction(0), Fraction(0), Fraction(0))]

    def test_mid_sweep_spread_bounded_by_weight_gap(self, mini_process, config):
        # at any count k, the best and worst placements differ by at most
        # k times the largest gap between slot contributions
        weights = join_point_weights(mini_process, config)
        contributions = [weight / config.reference_value for weight in weights.values()]
        gap = max(contributions) - min(contributions)
        rows = exhaustive_sweep(mini_process, config)
        for count, (low, _, high) in enumerate(rows):
            assert high - low <= gap * count
        # random cases stay inside the exhaustive envelope
        result = run_sweep(mini_process, 5, 11, config)
        for case in result:
            for pam, (low, _, high) in zip(case.series, rows, strict=True):
                assert low <= pam <= high
