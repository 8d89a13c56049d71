"""Metric evaluation: VV, VD, per-construct aggregation, PAM, and the weight oracle.

Expected values for the travel-booking fixture are frozen from hand
computation: VV = [0, 3, 2, 1, 0] over the five join points gives
VD = [0, 1, 2/3, 1/3, 0]; the switch folds to (1 + 2/3) / 2 = 5/6; the
root sequence has four eligible members (the two assigns are inert), so
PAM = (0 + 5/6 + 1/3 + 0) / 4 = 7/24. Join-point weights, expanded as
the product of ancestor divisors, are [1/4, 1/8, 1/8, 1/4, 1/4].
"""

from __future__ import annotations

import random
import tracemalloc
from fractions import Fraction

import pytest

from adaptmeter import (
    Activity,
    AnalysisConfig,
    NotAJoinPoint,
    ProcessModel,
    ReferenceTooSmall,
    bind_aspects,
    parse_aspect,
    process_adaptability,
)
from adaptmeter.matching import VariabilityProfile
from adaptmeter.metrics import join_point_weights, linear_weight_oracle, variability_degree, variability_value
from adaptmeter.model import ADVICE_TYPES, ActivityPath, find_join_points
from oracles import activity_path
from randtrees import random_process, random_profile, shuffle_with_profile

TRAVEL_VV = [0, 3, 2, 1, 0]
TRAVEL_PAM = Fraction(7, 24)
SWITCH_VD = Fraction(5, 6)
TRAVEL_WEIGHTS = {
    "/process/sequence[0]/receive[0]": Fraction(1, 4),
    "/process/sequence[0]/switch[2]/invoke[0]": Fraction(1, 8),
    "/process/sequence[0]/switch[2]/invoke[1]": Fraction(1, 8),
    "/process/sequence[0]/invoke[3]": Fraction(1, 4),
    "/process/sequence[0]/reply[5]": Fraction(1, 4),
}


@pytest.fixture(scope="module")
def travel_profile(travel_process, travel_aspects):
    return bind_aspects(travel_process, travel_aspects, AnalysisConfig())


def _saturated_profile(process, config):
    return VariabilityProfile.from_assignments(
        (path, advice_type)
        for path, _ in find_join_points(process, config)
        for advice_type in ADVICE_TYPES
    )


def _before_aspect(name, selector):
    return parse_aspect(
        f'<aspect name="{name}"><pointcut>{selector}</pointcut>'
        '<advice type="before"><invoke/></advice></aspect>'
    )


class TestVariabilityValue:
    def test_travel_fixture_vv_vector(self, travel_process, travel_profile, config):
        values = [
            variability_value(travel_profile, path, config)
            for path, _ in find_join_points(travel_process, config)
        ]
        assert values == TRAVEL_VV

    def test_unbound_join_point_is_zero(self, travel_process, config):
        path = find_join_points(travel_process, config)[0][0]
        assert variability_value(VariabilityProfile(), path, config) == 0

    def test_duplicate_before_advice_set_vs_raw(self, linear_process):
        aspects = [
            _before_aspect("CheckA", '//invoke[@operation="bookFlight"]'),
            _before_aspect("CheckB", '//invoke[@operation="bookFlight"]'),
        ]
        set_config = AnalysisConfig(count_mode="set")
        raw_config = AnalysisConfig(count_mode="raw-clamped")
        profile = bind_aspects(linear_process, aspects, set_config)
        path = profile.bindings[0].path
        assert variability_value(profile, path, set_config) == 1
        assert variability_value(profile, path, raw_config) == 2

    def test_raw_mode_clamps_at_reference_value(self, linear_process):
        aspects = [
            _before_aspect(f"Check{i}", '//invoke[@operation="bookFlight"]') for i in range(4)
        ]
        config = AnalysisConfig(count_mode="raw-clamped")
        profile = bind_aspects(linear_process, aspects, config)
        path = profile.bindings[0].path
        assert sum(profile.raw_counts[path].values()) == 4
        assert variability_value(profile, path, config) == 3

    def test_non_join_point_path_rejected(self, travel_process, config):
        assign_path = activity_path("/process/sequence[0]/assign[1]")
        with pytest.raises(NotAJoinPoint):
            variability_value(VariabilityProfile(), assign_path, config)


class TestVariabilityDegree:
    def test_reference_three_scale(self):
        assert variability_degree(3, 3) == 1
        assert variability_degree(2, 3) == Fraction(2, 3)
        assert variability_degree(1, 3) == Fraction(1, 3)
        assert variability_degree(0, 3) == 0
        # the displayed 0.67 / 0.33 are rounded views of these exact values
        assert float(variability_degree(2, 3)) == pytest.approx(0.67, abs=0.005)
        assert float(variability_degree(1, 3)) == pytest.approx(0.33, abs=0.005)

    @pytest.mark.parametrize("reference", [1, 2, 3, 7, 100])
    def test_zero_numerator(self, reference):
        assert variability_degree(0, reference) == 0

    def test_reference_too_small(self):
        with pytest.raises(ReferenceTooSmall):
            variability_degree(4, 3)

    def test_no_intermediate_rounding(self):
        assert variability_degree(2, 3) * Fraction(1, 2) + Fraction(1, 2) == Fraction(5, 6)


class TestAggregate:
    def test_travel_node_values(self, travel_process, travel_profile, config):
        result = process_adaptability(travel_process, travel_profile, config)
        by_path = {str(node.path): node for node in result.nodes}
        switch = by_path["/process/sequence[0]/switch[2]"]
        assert switch.vd == SWITCH_VD
        assert switch.n_used == 2
        assert float(switch.vd) == pytest.approx(0.835, abs=0.01)
        root = by_path["/process/sequence[0]"]
        assert root.vd == TRAVEL_PAM
        assert root.n_used == 4  # assigns excluded from the divisor
        assert float(root.vd) == pytest.approx(0.29, abs=0.005)
        assert by_path["/process/sequence[0]/switch[2]/invoke[0]"].vd == 1
        assert by_path["/process/sequence[0]/switch[2]/invoke[1]"].vd == Fraction(2, 3)
        assert by_path["/process/sequence[0]/invoke[3]"].vd == Fraction(1, 3)
        assert by_path["/process/sequence[0]/receive[0]"].vv == 0
        assert by_path["/process/sequence[0]/assign[1]"].vv is None
        assert by_path["/process/sequence[0]/assign[1]"].vd == 0

    def test_empty_flow_scores_zero(self, config):
        process = ProcessModel(name="p", root=Activity("flow"))
        (node,) = process_adaptability(process, VariabilityProfile(), config).nodes
        assert node.vd == 0
        assert node.n_used == 0

    def test_flow_of_assigns_scores_zero(self, config):
        flow = Activity("flow", children=(Activity("assign"), Activity("assign")))
        node = process_adaptability(ProcessModel(name="p", root=flow), VariabilityProfile(), config).nodes[0]
        assert node.vd == 0
        assert node.n_used == 0

    def test_structured_vd_recomputable_from_children(self, config):
        rng = random.Random(5150)
        for _ in range(20):
            process = random_process(rng)
            profile = random_profile(rng, process, config)
            result = process_adaptability(process, profile, config)
            # A node's children are the nodes whose path extends its own by one step.
            children: dict[ActivityPath, list] = {node.path: [] for node in result.nodes}
            for node in result.nodes[1:]:
                children[ActivityPath(node.path.steps[:-1])].append(node)
            for node in result.nodes:
                if children[node.path]:
                    total = sum((child.vd for child in children[node.path]), Fraction(0))
                    expected = total / node.n_used if node.n_used else Fraction(0)
                    assert node.vd == expected


class TestProcessAdaptability:
    def test_worked_example(self, travel_process, travel_profile, config):
        result = process_adaptability(travel_process, travel_profile, config)
        assert result.pam == TRAVEL_PAM
        assert result.pam == result.nodes[0].vd
        assert result.process_name == "TravelBooking"

    def test_zero_aspects_means_zero(self, travel_process, config):
        result = process_adaptability(travel_process, VariabilityProfile(), config)
        assert result.pam == 0

    def test_saturated_profile_reaches_one(self, travel_process, config):
        result = process_adaptability(travel_process, _saturated_profile(travel_process, config), config)
        assert result.pam == 1

    def test_warnings_carried_from_profile(self, linear_process, config):
        aspect = _before_aspect("Nowhere", '//invoke[@operation="cancel"]')
        profile = bind_aspects(linear_process, [aspect], config)
        result = process_adaptability(linear_process, profile, config)
        assert result.warnings == profile.warnings
        assert len(result.warnings) == 1

    def test_reference_too_small_propagates(self, travel_process, config):
        profile = _saturated_profile(travel_process, config)
        small_r = AnalysisConfig(reference_value=2)
        with pytest.raises(ReferenceTooSmall):
            process_adaptability(travel_process, profile, small_r)

    def test_cost_does_not_grow_with_the_reference_value(self, travel_process, travel_aspects):
        config = AnalysisConfig(reference_value=10**6)
        profile = bind_aspects(travel_process, travel_aspects, config)
        travel_process.index  # built outside the measurement
        tracemalloc.start()
        try:
            result = process_adaptability(travel_process, profile, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.pam == Fraction(7, 8 * 10**6)
        assert peak < 2**20


class TestLinearWeightOracle:
    def test_travel_weights_match_hand_expansion(self, travel_process, config):
        weights = {str(path): weight for path, weight in join_point_weights(travel_process, config).items()}
        assert weights == TRAVEL_WEIGHTS

    def test_oracle_reproduces_worked_example(self, travel_process, travel_profile, config):
        oracle = linear_weight_oracle(travel_process, travel_profile, config)
        assert oracle == Fraction(1, 8) * 1 + Fraction(1, 8) * Fraction(2, 3) + Fraction(1, 4) * Fraction(1, 3)
        assert oracle == TRAVEL_PAM

    def test_zero_profile_scores_zero(self, travel_process, config):
        assert linear_weight_oracle(travel_process, VariabilityProfile(), config) == 0

    def test_matches_aggregate_on_random_trees(self, config):
        rng = random.Random(31337)
        for _ in range(100):
            process = random_process(rng)
            profile = random_profile(rng, process, config)
            result = process_adaptability(process, profile, config)
            assert linear_weight_oracle(process, profile, config) == result.pam

    def test_matches_aggregate_under_raw_clamped(self):
        config = AnalysisConfig(count_mode="raw-clamped")
        rng = random.Random(31338)
        for _ in range(30):
            process = random_process(rng)
            profile = random_profile(rng, process, config)
            result = process_adaptability(process, profile, config)
            assert linear_weight_oracle(process, profile, config) == result.pam


class TestMetricProperties:
    def test_all_degrees_in_unit_interval(self, config):
        rng = random.Random(1234)
        for _ in range(50):
            process = random_process(rng)
            profile = random_profile(rng, process, config)
            result = process_adaptability(process, profile, config)
            assert 0 <= result.pam <= 1
            for node in result.nodes:
                assert 0 <= node.vd <= 1

    def test_adding_an_advice_type_never_decreases_pam(self, config):
        rng = random.Random(2345)
        for _ in range(40):
            process = random_process(rng)
            join_points = find_join_points(process, config)
            if not join_points:
                continue
            assignments = [
                (path, advice_type)
                for path, _ in join_points
                for advice_type in ADVICE_TYPES
                if rng.random() < 0.3
            ]
            base = process_adaptability(process, VariabilityProfile.from_assignments(assignments), config)
            free = [
                (path, advice_type)
                for path, _ in join_points
                for advice_type in ADVICE_TYPES
                if (path, advice_type) not in assignments
            ]
            if not free:
                continue
            extra = free[rng.randrange(len(free))]
            grown = process_adaptability(
                process, VariabilityProfile.from_assignments(assignments + [extra]), config
            )
            # every join point has strictly positive weight, so a new
            # advice type strictly increases the result
            assert grown.pam > base.pam

    def test_saturation_reaches_one_when_branches_are_live(self, config):
        rng = random.Random(3456)
        for _ in range(40):
            process = random_process(rng, live_branches=True)
            if not find_join_points(process, config):
                continue
            result = process_adaptability(process, _saturated_profile(process, config), config)
            assert result.pam == 1

    def test_saturation_equals_total_weight_with_dead_branches(self, config):
        # a join-point-free branch keeps its probability share, capping PAM
        root = Activity(
            "sequence",
            children=(
                Activity("switch", children=(Activity("invoke"), Activity("assign"))),
            ),
        )
        process = ProcessModel(name="dead-branch", root=root)
        result = process_adaptability(process, _saturated_profile(process, config), config)
        assert result.pam == Fraction(1, 2)
        assert result.pam == sum(join_point_weights(process, config).values(), Fraction(0))

    def test_permutation_invariance_small(self, config):
        rng = random.Random(4567)
        for _ in range(20):
            process = random_process(rng)
            profile = random_profile(rng, process, config)
            pam = process_adaptability(process, profile, config).pam
            shuffled, shuffled_profile = shuffle_with_profile(process, profile, rng)
            assert process_adaptability(shuffled, shuffled_profile, config).pam == pam
