"""Activity tree, path addressing, and join-point classification."""

from __future__ import annotations

import copy
import cProfile
import pickle
import pstats
import random

import pytest

import adaptmeter.model
from adaptmeter import (
    Activity,
    AnalysisConfig,
    ConfigError,
    ProcessModel,
    StructuralError,
    bind_aspects,
    process_adaptability,
    run_sweep,
)
from adaptmeter.matching import match_selector
from adaptmeter.model import STRUCTURED_KINDS, ProcessIndex, find_join_points, iter_activities, path_kind, path_order
from adaptmeter.model import resolve_path
from adaptmeter.selectors import parse_selector
from oracles import activity_path, is_ancestor_of, is_eligible_child, walk
from randtrees import random_process


def _count_nodes(activity: Activity) -> int:
    return 1 + sum(_count_nodes(child) for child in activity.children)


class TestIterActivities:
    def test_linear_fixture_yields_all_nodes_in_document_order(self, linear_process):
        kinds = [activity.kind for _, activity in iter_activities(linear_process)]
        assert kinds == ["sequence", "receive", "assign", "invoke", "invoke", "assign", "reply"]
        assert len(kinds) == 7  # both assigns included

    def test_first_yield_is_root(self, travel_process):
        path, activity = next(iter_activities(travel_process))
        assert activity is travel_process.root
        assert str(path) == "/process/sequence[0]"

    def test_single_node_tree(self):
        process = ProcessModel(name="p", root=Activity("sequence"))
        pairs = list(iter_activities(process))
        assert len(pairs) == 1
        assert str(pairs[0][0]) == "/process/sequence[0]"

    def test_random_trees_yield_every_node_once(self):
        rng = random.Random(20210)
        for _ in range(50):
            process = random_process(rng, max_nodes=20)
            pairs = list(iter_activities(process))
            paths = [path for path, _ in pairs]
            assert len(set(paths)) == len(pairs)
            assert len(pairs) == _count_nodes(process.root)
            assert len(pairs) <= 20

    def test_yield_order_is_preorder(self, travel_process):
        paths = [path for path, _ in iter_activities(travel_process)]
        assert paths == sorted(paths, key=path_order)


class TestActivityPath:
    def test_round_trip_resolves_to_identical_node(self, travel_process):
        for path, activity in iter_activities(travel_process):
            assert resolve_path(travel_process, path) is activity

    def test_text_round_trip(self, travel_process):
        for path, _ in iter_activities(travel_process):
            assert activity_path(str(path)) == path

    def test_from_text_rejects_garbage(self):
        with pytest.raises(ValueError):
            activity_path("/process/")
        with pytest.raises(ValueError):
            activity_path("sequence[0]")
        with pytest.raises(ValueError):
            activity_path("/process/sequence[x]")

    def test_resolve_rejects_unknown_paths(self, travel_process):
        with pytest.raises(ValueError):
            resolve_path(travel_process, activity_path("/process/flow[0]"))
        with pytest.raises(ValueError):
            resolve_path(travel_process, activity_path("/process/sequence[0]/invoke[9]"))
        # right index, wrong kind
        with pytest.raises(ValueError):
            resolve_path(travel_process, activity_path("/process/sequence[0]/invoke[0]"))
        # a negative sibling index is not an address, though Python would read it
        with pytest.raises(ValueError):
            resolve_path(travel_process, "/process/sequence[0]/reply[-1]")
        with pytest.raises(ValueError):
            resolve_path(travel_process, "")

    def test_every_path_of_a_large_tree_resolves_to_its_own_node(self):
        rng = random.Random(20212)
        branches = [random_process(rng, max_depth=6, max_nodes=40).root for _ in range(400)]
        process = ProcessModel("wide", Activity("flow", children=branches))
        index = process.index
        assert len(index.paths) > 2000
        for rank, path in enumerate(index.paths):
            assert resolve_path(process, path) is index.activities[rank]

    def test_a_miss_raises_value_error_naming_the_process(self, travel_process):
        foreign = ProcessModel("other", Activity("flow", children=(Activity("invoke"),))).index.paths[-1]
        assert foreign not in travel_process.index.paths
        for path in ("", foreign, 5):
            with pytest.raises(ValueError, match=r"does not resolve in process 'TravelBooking'$"):
                resolve_path(travel_process, path)

    def test_a_path_is_its_text(self, travel_process):
        path = travel_process.index.paths[6]
        assert type(path) is str and path == "/process/sequence[0]/invoke[3]"
        assert hash(path) == hash("/process/sequence[0]/invoke[3]")
        for clone in (lambda p: pickle.loads(pickle.dumps(p)), copy.copy, copy.deepcopy):
            twin = clone(path)
            assert type(twin) is str and twin == path and path_kind(twin) == "invoke"

    def test_a_path_takes_no_assignment(self, travel_process):
        path = travel_process.index.paths[6]
        with pytest.raises(AttributeError):
            path.kind = "reply"
        with pytest.raises(AttributeError):
            path.note = 1
        assert path_kind(path) == "invoke"

    def test_lookups_by_path_run_no_python_level_hash_or_eq(self, travel_process, travel_aspects, config):
        profiler = cProfile.Profile()
        profiler.enable()
        profile = bind_aspects(travel_process, travel_aspects, config)
        process_adaptability(travel_process, profile, config)
        run_sweep(travel_process, 5, 7, config)
        profiler.disable()
        functions = pstats.Stats(profiler).stats
        assert any(name == "bind_aspects" for _, _, name in functions)
        assert not [(file, line, name) for file, line, name in functions
                    if file == adaptmeter.model.__file__ and name in ("__hash__", "__eq__")]


class TestProcessIndex:
    def test_built_once_per_process(self, travel_process):
        assert travel_process.index is travel_process.index

    def test_matches_recursive_walk(self):
        rng = random.Random(20211)
        for _ in range(50):
            process = random_process(rng, max_nodes=20)
            index = ProcessIndex(process.root)
            expected = list(walk(process))
            assert list(zip(index.paths, index.activities)) == expected
            for kind, ranks in index.by_kind.items():
                assert list(ranks) == [rank for rank, (_, a) in enumerate(expected) if a.kind == kind]

    def test_subtree_ranges_hold_exactly_the_descendants(self):
        rng = random.Random(20212)
        for _ in range(50):
            index = random_process(rng, max_nodes=20).index
            assert index.parents[0] == -1 and len(index.ends) == len(index.paths)
            for rank, path in enumerate(index.paths):
                inside = {other for other in range(len(index.paths)) if is_ancestor_of(path, index.paths[other])}
                assert inside == set(range(rank + 1, index.ends[rank]))
                if rank:
                    assert is_ancestor_of(index.paths[index.parents[rank]], path)
                    assert index.paths[index.parents[rank]].count("/") == path.count("/") - 1

    def test_paths_are_plain_text_that_names_the_kind_and_sorts_in_preorder(self):
        rng = random.Random(20212)
        shuffler = random.Random(20214)
        for _ in range(50):
            index = random_process(rng, max_nodes=20).index
            for path, activity in zip(index.paths, index.activities):
                assert type(path) is str
                assert path_kind(path) == activity.kind
            shuffled = list(index.paths)
            shuffler.shuffle(shuffled)
            assert sorted(shuffled, key=path_order) == list(index.paths)

    def test_ranks_with_lists_the_kind_by_attribute_value(self, travel_process):
        rng = random.Random(20213)
        for process in [travel_process] + [random_process(rng, max_nodes=20) for _ in range(30)]:
            index = process.index
            for attribute in ("name", "operation", "partnerLink"):
                read = {rank: activity.name if attribute == "name" else activity.attributes.get(attribute)
                        for rank, activity in enumerate(index.activities)}
                for kind, ranks in index.by_kind.items():
                    for value in set(read.values()) - {None}:
                        expected = tuple(rank for rank in ranks if read[rank] == value)
                        assert index.ranks_with(kind, attribute, value) == expected
                        assert index.ranks_with(kind, attribute, value) is index.ranks_with(kind, attribute, value)
            assert index.ranks_with("case", "name", "x") == ()


def _join_point_kinds(config: AnalysisConfig, *children: Activity) -> list[str]:
    process = ProcessModel("p", Activity("sequence", children=children))
    return [activity.kind for _, activity in find_join_points(process, config)]


class TestJoinPointClassification:
    def test_messaging_trio_by_default(self, config):
        kinds = ("invoke", "receive", "reply", "assign")
        assert _join_point_kinds(config, *map(Activity, kinds)) == ["invoke", "receive", "reply"]

    def test_structured_never_a_join_point(self, config):
        assert _join_point_kinds(config, Activity("sequence", children=(Activity("invoke"),))) == ["invoke"]

    def test_respects_configured_kinds(self):
        config = AnalysisConfig(join_point_kinds=frozenset({"receive"}))
        assert _join_point_kinds(config, Activity("invoke"), Activity("receive")) == ["receive"]

    def test_assign_can_be_opted_in(self):
        config = AnalysisConfig(join_point_kinds=frozenset({"assign"}))
        assert _join_point_kinds(config, Activity("assign")) == ["assign"]


class TestEligibleChild:
    """The test oracle's eligibility rule; metrics derives the same from the index."""

    def test_switch_with_invoke_descendants_is_eligible(self, travel_process, config):
        switch = resolve_path(travel_process, activity_path("/process/sequence[0]/switch[2]"))
        assert is_eligible_child(switch, config)

    def test_lone_assign_is_not_eligible(self, config):
        assert not is_eligible_child(Activity("assign"), config)

    def test_flow_of_assigns_is_not_eligible(self, config):
        flow = Activity("flow", children=(Activity("assign"), Activity("assign")))
        assert not is_eligible_child(flow, config)

    def test_join_point_implies_eligible(self, config):
        rng = random.Random(77)
        for _ in range(20):
            process = random_process(rng)
            for _, activity in iter_activities(process):
                if activity.kind in config.join_point_kinds:
                    assert is_eligible_child(activity, config)

    def test_structured_eligible_iff_join_point_descendant(self, config):
        rng = random.Random(78)
        for _ in range(20):
            process = random_process(rng)
            for _, activity in iter_activities(process):
                if activity.kind in STRUCTURED_KINDS:
                    descendants = []

                    def collect(node):
                        for child in node.children:
                            descendants.append(child)
                            collect(child)

                    collect(activity)
                    expected = any(d.kind in config.join_point_kinds for d in descendants)
                    assert is_eligible_child(activity, config) == expected


class TestActivityInvariants:
    def test_unknown_kind_rejected(self):
        with pytest.raises(StructuralError):
            Activity("foreach")

    def test_basic_activity_cannot_have_children(self):
        with pytest.raises(StructuralError):
            Activity("invoke", children=(Activity("assign"),))

    def test_switch_requires_a_branch(self):
        with pytest.raises(StructuralError):
            Activity("switch")

    def test_children_are_kept_as_a_tuple_of_their_own(self):
        invoke, reply = Activity("invoke"), Activity("reply")
        children = [invoke]
        root = Activity("sequence", children=children)
        process = ProcessModel("p", root)
        children.append(reply)
        assert root.children == (invoke,)
        assert len(process.index.paths) == _count_nodes(process.root) == 2
        twin = pickle.loads(pickle.dumps(process))
        assert twin == process and len(twin.index.paths) == 2
        assert Activity("sequence", children=[invoke]) == Activity("sequence", children=(invoke,))
        generated = Activity("flow", children=(child for child in (invoke, reply)))
        assert type(generated.children) is tuple and generated.children == (invoke, reply)

    def test_a_child_that_is_not_an_activity_is_refused(self):
        for child in ("invoke", None, ProcessModel("p", Activity("sequence"))):
            with pytest.raises(StructuralError, match=r"^<flow> children must be activities, got \w+$"):
                Activity("flow", children=(Activity("invoke"), child))



class TestProcessModelInvariants:
    def test_name_required(self):
        with pytest.raises(StructuralError):
            ProcessModel(name="", root=Activity("sequence"))

    def test_basic_root_rejected(self):
        with pytest.raises(StructuralError, match=r"^process root activity must be structured, got <invoke>$"):
            ProcessModel(name="p", root=Activity("invoke"))

    def test_a_root_that_is_not_an_activity_is_refused(self):
        for root in ("oops", None, [Activity("sequence")]):
            with pytest.raises(StructuralError, match=r"^process root must be an Activity, got \w+$"):
                ProcessModel("x", root)

    def test_a_name_key_in_attributes_is_refused(self):
        # Selectors read @name from the name field, and serialize_process writes
        # the key as the element's name, so a model holding it would not round-trip.
        for build in (lambda: Activity("sequence", None, {"name": "x"}, (Activity("invoke"),)),
                      lambda: ProcessModel("p", Activity("sequence"), {"name": "q"})):
            with pytest.raises(StructuralError, match=r"^a name goes in the name field, not in attributes$"):
                build()

    def test_models_keep_a_copy_of_the_attributes_they_are_given(self):
        def build(operation: str, version: str) -> ProcessModel:
            invoke = Activity("invoke", "i", {"operation": operation})
            return ProcessModel("p", Activity("sequence", children=(invoke,)), {"version": version})

        invoke_attributes, process_attributes = {"operation": "book"}, {"version": "1"}
        invoke = Activity("invoke", "i", invoke_attributes)
        process = ProcessModel("p", Activity("sequence", children=(invoke,)), process_attributes)
        book = parse_selector('//process[@version="1"]//invoke[@operation="book"]')
        booked = match_selector(book, process)
        invoke_attributes["operation"], process_attributes["version"] = "cancel", "2"
        assert process == build("book", "1")
        assert len(booked) == 1 and match_selector(book, process) == booked
        assert match_selector(parse_selector('//invoke[@operation="cancel"]'), process) == []
        assert match_selector(parse_selector('//process[@version="2"]//invoke'), process) == []

    def test_attributes_are_read_only(self):
        # The selector lookup tables are built from the attributes, so a
        # mapping that could change after a match would leave them stale.
        invoke = Activity("invoke", "i", {"operation": "book"})
        process = ProcessModel("p", Activity("sequence", children=(invoke,)), {"version": "1"})
        book = parse_selector('//process[@version="1"]//invoke[@operation="book"]')
        booked = match_selector(book, process)
        for attributes, key in ((invoke.attributes, "operation"), (process.attributes, "version")):
            with pytest.raises(TypeError):
                attributes[key] = "cancel"
            assert attributes[key] != "cancel"
        assert len(booked) == 1 and match_selector(book, process) == booked
        assert match_selector(parse_selector('//invoke[@operation="cancel"]'), process) == []
        assert repr(invoke) == (
            "Activity(kind='invoke', name='i', attributes=mappingproxy({'operation': 'book'}), children=())"
        )


class TestAnalysisConfig:
    def test_defaults(self, config):
        assert config.reference_value == 3
        assert config.join_point_kinds == frozenset({"invoke", "receive", "reply"})
        assert config.count_mode == "set"
        assert not config.include_disabled_aspects

    def test_reference_value_must_be_positive(self):
        with pytest.raises(ConfigError):
            AnalysisConfig(reference_value=0)
        # bool is an int subclass, but True would print and serialise as a boolean
        with pytest.raises(ConfigError, match="^reference value must be an integer >= 1$"):
            AnalysisConfig(reference_value=True)

    def test_join_point_kinds_must_be_nonempty(self):
        with pytest.raises(ConfigError):
            AnalysisConfig(join_point_kinds=frozenset())

    def test_join_point_kinds_must_be_basic(self):
        with pytest.raises(ConfigError):
            AnalysisConfig(join_point_kinds=frozenset({"invoke", "sequence"}))

    def test_join_point_kinds_must_be_a_collection_of_names(self):
        # a lone string would otherwise be read letter by letter
        for value in ("invoke", b"invoke", 3, [b"invoke"], ["invoke", None], [["invoke"]]):
            with pytest.raises(ConfigError, match="^join-point kinds must be a collection of kind names, got "):
                AnalysisConfig(join_point_kinds=value)
        assert AnalysisConfig(join_point_kinds=("invoke",)).join_point_kinds == frozenset({"invoke"})

    def test_count_mode_checked(self):
        with pytest.raises(ConfigError):
            AnalysisConfig(count_mode="average")

    def test_include_disabled_aspects_must_be_a_bool(self):
        # a truthy string would otherwise bind disabled aspects
        for value in ("no", 0, 1, None):
            with pytest.raises(ConfigError, match="^include disabled aspects must be True or False, got "):
                AnalysisConfig(include_disabled_aspects=value)
        assert AnalysisConfig(include_disabled_aspects=True).include_disabled_aspects is True
