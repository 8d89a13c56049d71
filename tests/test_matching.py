"""Selector matching and aspect binding."""

from __future__ import annotations

import random
import sys
import threading

from adaptmeter import (
    Activity,
    ActivityPath,
    AnalysisConfig,
    ProcessModel,
    VariabilityProfile,
    bind_aspects,
    match_selector,
    parse_aspect,
    parse_selector,
)
from randtrees import random_process

FLIGHT_SELECTOR = '//process[@name="TravelBooking"]//invoke[@operation="bookFlight"]'


def _paths(selector_text, process):
    return [str(path) for path in match_selector(parse_selector(selector_text), process)]


def _aspect(name, selector, advice_type="before", enabled=""):
    return parse_aspect(
        f'<aspect name="{name}"{enabled}>'
        f'<pointcut name="pc">{selector}</pointcut>'
        f'<advice type="{advice_type}"><invoke/></advice>'
        "</aspect>"
    )


class TestMatchSelector:
    def test_flight_selector_hits_one_invoke(self, linear_process):
        assert _paths(FLIGHT_SELECTOR, linear_process) == ["/process/sequence[0]/invoke[2]"]

    def test_bare_invoke_hits_both(self, linear_process):
        assert _paths("//invoke", linear_process) == [
            "/process/sequence[0]/invoke[2]",
            "/process/sequence[0]/invoke[3]",
        ]

    def test_unmatched_predicate_yields_empty(self, linear_process):
        assert _paths('//invoke[@operation="cancel"]', linear_process) == []

    def test_process_predicate_gates_the_search(self, linear_process):
        assert _paths('//process[@name="SomethingElse"]//invoke', linear_process) == []

    def test_process_attribute_predicates(self, travel_process):
        assert _paths('//process[@targetNamespace="urn:example:travel"]//reply', travel_process) == [
            "/process/sequence[0]/reply[5]"
        ]

    def test_process_step_alone_matches_no_activity(self, linear_process):
        assert _paths('//process[@name="TravelBooking"]', linear_process) == []

    def test_root_activity_is_matchable(self, linear_process):
        assert _paths("//sequence", linear_process) == ["/process/sequence[0]"]

    def test_steps_scope_the_subtree(self, travel_process):
        assert _paths("//switch//invoke", travel_process) == [
            "/process/sequence[0]/switch[2]/invoke[0]",
            "/process/sequence[0]/switch[2]/invoke[1]",
        ]

    def test_name_predicate_matches_activity_name(self, travel_process):
        assert _paths('//invoke[@name="invokeHotelsService"]', travel_process) == [
            "/process/sequence[0]/invoke[3]"
        ]

    def test_conjunctive_predicates(self, linear_process):
        assert _paths('//invoke[@partnerLink="airline" and @operation="bookFlight"]', linear_process) == [
            "/process/sequence[0]/invoke[2]"
        ]
        assert _paths('//invoke[@partnerLink="hotel" and @operation="bookFlight"]', linear_process) == []

    def test_results_deduplicated_in_preorder(self, travel_process):
        # both the root step and the switch step reach the switch invokes
        assert _paths("//sequence//invoke", travel_process) == [
            "/process/sequence[0]/switch[2]/invoke[0]",
            "/process/sequence[0]/switch[2]/invoke[1]",
            "/process/sequence[0]/invoke[3]",
        ]

    def test_threads_sharing_one_process_agree_with_a_private_copy(self):
        # Big enough that a thread switch lands inside a postings table build.
        invokes = tuple(Activity("invoke", f"a{i % 7}", {"operation": f"op{i % 50}"}) for i in range(3000))
        root = Activity("sequence", children=(Activity("flow", children=invokes), Activity("invoke")))
        selectors = [parse_selector(f'//invoke[@operation="op{i}"]') for i in range(50)]
        selectors += [parse_selector(f'//flow//invoke[@name="a{i}"][@operation="op{i}"]') for i in range(7)]
        expected = [match_selector(selector, ProcessModel("p", root)) for selector in selectors]
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                shared = ProcessModel("p", root)
                shared.index
                results: dict[int, list] = {}
                start = threading.Barrier(8)

                def run(worker: int) -> None:
                    start.wait(timeout=30)
                    order = list(range(len(selectors)))
                    random.Random(worker).shuffle(order)
                    found = {i: match_selector(selectors[i], shared) for i in order}
                    results[worker] = [found[i] for i in range(len(selectors))]

                threads = [threading.Thread(target=run, args=(worker,)) for worker in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                    assert not thread.is_alive()
                assert len(results) == 8
                assert all(result == expected for result in results.values())
        finally:
            sys.setswitchinterval(old_interval)


class TestBindAspects:
    def test_travel_aspects_yield_expected_profile(self, travel_process, travel_aspects, config):
        profile = bind_aspects(travel_process, travel_aspects, config)
        entries = {str(path): types for path, types in profile.entries.items()}
        assert entries == {
            "/process/sequence[0]/switch[2]/invoke[0]": frozenset({"before", "around", "after"}),
            "/process/sequence[0]/switch[2]/invoke[1]": frozenset({"before", "around"}),
            "/process/sequence[0]/invoke[3]": frozenset({"after"}),
        }
        assert len(profile.bindings) == 6
        assert profile.warnings == ()

    def test_verify_aspect_binds_bookflight_before(self, linear_process, verify_aspect, config):
        profile = bind_aspects(linear_process, [verify_aspect], config)
        assert len(profile.bindings) == 1
        binding = profile.bindings[0]
        assert str(binding.path) == "/process/sequence[0]/invoke[2]"
        assert binding.advice_type == "before"
        assert binding.aspect_name == "VerifyRequest"

    def test_no_aspects_is_an_empty_profile(self, travel_process, config):
        profile = bind_aspects(travel_process, [], config)
        assert profile.entries == {}
        assert profile.bindings == ()

    def test_one_around_advice_covers_two_join_points(self, linear_process, config):
        aspect = _aspect("Failover", "//invoke", advice_type="around")
        profile = bind_aspects(linear_process, [aspect], config)
        assert len(profile.bindings) == 2
        assert all(types == frozenset({"around"}) for types in profile.entries.values())

    def test_disabled_aspect_contributes_nothing(self, linear_process, config):
        aspect = _aspect("Off", "//invoke", enabled=' enabled="false"')
        assert bind_aspects(linear_process, [aspect], config).bindings == ()

    def test_disabled_aspect_included_on_request(self, linear_process):
        config = AnalysisConfig(include_disabled_aspects=True)
        aspect = _aspect("Off", "//invoke", enabled=' enabled="false"')
        assert len(bind_aspects(linear_process, [aspect], config).bindings) == 2

    def test_zero_match_selector_warns(self, linear_process, config):
        aspect = _aspect("Nowhere", '//invoke[@operation="cancel"]')
        profile = bind_aspects(linear_process, [aspect], config)
        assert profile.bindings == ()
        assert len(profile.warnings) == 1
        assert "matched no activities" in profile.warnings[0]

    def test_non_join_point_match_warns_and_skips(self, linear_process, config):
        aspect = _aspect("OnAssign", "//assign")
        profile = bind_aspects(linear_process, [aspect], config)
        assert profile.bindings == ()
        assert len(profile.warnings) == 2  # two assigns matched
        assert all("not a join point" in warning for warning in profile.warnings)

    def test_duplicate_advice_types_collapse_in_entries(self, linear_process, config):
        first = _aspect("CheckA", '//invoke[@operation="bookFlight"]')
        second = _aspect("CheckB", '//invoke[@operation="bookFlight"]')
        profile = bind_aspects(linear_process, [first, second], config)
        path = profile.bindings[0].path
        assert profile.entries[path] == frozenset({"before"})
        assert profile.raw_counts[path] == {"before": 2}
        assert len(profile.bindings) == 2

    def test_binding_order_is_stable(self, travel_process, travel_aspects, config):
        profile = bind_aspects(travel_process, travel_aspects, config)
        again = bind_aspects(travel_process, list(travel_aspects), config)
        assert profile == again
        keys = [(binding.path.order_key, binding.aspect_name) for binding in profile.bindings]
        assert keys == sorted(keys)

    def test_binding_soundness(self, travel_process, travel_aspects, config):
        profile = bind_aspects(travel_process, travel_aspects, config)
        selectors = {
            (aspect.name, pointcut.name): pointcut.selector
            for aspect in travel_aspects
            for pointcut in aspect.pointcuts
        }
        for binding in profile.bindings:
            selector = selectors[(binding.aspect_name, binding.pointcut_name)]
            assert binding.path in match_selector(selector, travel_process)

    def test_entries_mirror_bindings(self, travel_process, travel_aspects, config):
        profile = bind_aspects(travel_process, travel_aspects, config)
        for path, types in profile.entries.items():
            from_bindings = {b.advice_type for b in profile.bindings if b.path == path}
            assert types == from_bindings
            assert len(types) <= 3

    def test_every_bound_path_is_a_join_point(self, config):
        rng = random.Random(99)
        for _ in range(10):
            process = random_process(rng)
            aspect = _aspect("Anything", "//invoke", advice_type="after")
            profile = bind_aspects(process, [aspect], config)
            for path in profile.entries:
                assert path.kind == "invoke"


class TestProfileConstruction:
    def test_from_assignments_builds_consistent_views(self):
        path_a = ActivityPath.from_text("/process/sequence[0]/invoke[0]")
        path_b = ActivityPath.from_text("/process/sequence[0]/invoke[1]")
        profile = VariabilityProfile.from_assignments(
            [(path_b, "after"), (path_a, "before"), (path_a, "before")]
        )
        assert profile.entries == {path_a: frozenset({"before"}), path_b: frozenset({"after"})}
        assert profile.raw_counts[path_a] == {"before": 2}
        assert len(profile.bindings) == 3

    def test_empty_profile(self):
        profile = VariabilityProfile.empty()
        assert profile.entries == {}
        assert profile.advice_types(ActivityPath.from_text("/process/sequence[0]")) == frozenset()
