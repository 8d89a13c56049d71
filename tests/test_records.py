"""The package's records: immutable slotted value objects."""

from __future__ import annotations

import collections.abc
import copy
import inspect
import pickle
from fractions import Fraction

import pytest

from adaptmeter import (
    Activity,
    AnalysisConfig,
    NodeVD,
    ProcessModel,
    bind_aspects,
    parse_process,
    process_adaptability,
    run_sweep,
)
from adaptmeter.matching import JoinPointBinding, VariabilityProfile
from adaptmeter.model import ProcessIndex
from adaptmeter.parsing import MAX_NESTING, Aspect, Pointcut
from adaptmeter.selectors import parse_selector
from adaptmeter.sweep import SweepCase
from conftest import FIXTURES_DIR
from oracles import activity_path, twin_of


@pytest.fixture(scope="module")
def records(travel_process, travel_aspects):
    """One instance of every record type, built the way the CLI builds them."""
    config = AnalysisConfig()
    profile = bind_aspects(travel_process, travel_aspects, config)
    result = process_adaptability(travel_process, profile, config)
    sweep = run_sweep(travel_process, 1, 7, config)
    aspect = travel_aspects[0]
    selector = aspect.pointcuts[0].selector
    switch = travel_process.root.children[2]
    return [
        switch, travel_process.index, travel_process, config,
        selector, aspect.pointcuts[0], aspect, profile.bindings[0], profile,
        result.nodes[0], result, sweep[0],
    ]


def test_every_record_type_is_covered(records):
    assert len({type(record) for record in records}) == 12


def test_fields_cannot_be_assigned_or_deleted(records):
    for record in records:
        name = next(iter(inspect.signature(type(record)).parameters))
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.not_a_field = 1


def test_equal_records_have_equal_hashes():
    path = activity_path("/process/sequence[0]/invoke[1]")
    pairs = [
        (path, twin_of(path)),
        (AnalysisConfig(join_point_kinds=["invoke"]), AnalysisConfig(join_point_kinds=frozenset({"invoke"}))),
        (parse_selector('//invoke[@operation="x"]'), parse_selector("//invoke[@operation='x']")),
        (JoinPointBinding("a", "p", path, "before"), JoinPointBinding("a", "p", str(path), "before")),
        (NodeVD(path, Fraction(1, 3), 1), NodeVD(str(path), Fraction(2, 6), 1)),
        (SweepCase(((path, "after"),), (Fraction(0),)),
         SweepCase(((str(path), "after"),), (Fraction(0),))),
    ]
    for left, right in pairs:
        assert left is not right
        assert left == right
        assert hash(left) == hash(right)
    assert NodeVD(path, Fraction(1, 3), 1) != NodeVD(path, Fraction(1, 3), 2)
    assert type(path) is str and path == "/process/sequence[0]/invoke[1]"


def test_records_that_hold_attributes_declare_themselves_unhashable(travel_process):
    for record in (travel_process.root.children[0], travel_process):
        assert not isinstance(record, collections.abc.Hashable)
        with pytest.raises(TypeError, match=f"^unhashable type: '{type(record).__name__}'$"):
            hash(record)


@pytest.mark.parametrize("clone", [lambda r: pickle.loads(pickle.dumps(r)), copy.copy, copy.deepcopy],
                         ids=["pickle", "copy", "deepcopy"])
def test_records_round_trip_through_pickle_and_copy(records, clone):
    process, config, result, sweep = records[2], records[3], records[10], records[11]
    for record in (process, config, result, sweep):
        twin = clone(record)
        assert type(twin) is type(record)
        assert twin == record


def test_process_equality_ignores_whether_the_index_was_built():
    text = (FIXTURES_DIR / "travel_booking.bpel").read_text(encoding="utf-8")
    indexed, fresh = parse_process(text), parse_process(text)
    assert indexed.index is indexed.index
    assert indexed == fresh and fresh == indexed
    assert repr(indexed) == repr(fresh)
    assert "index" not in repr(indexed)
    assert pickle.loads(pickle.dumps(indexed)) == fresh


def test_index_equality_is_identity(travel_process):
    index = travel_process.index
    assert index == index
    assert index != ProcessIndex(travel_process.root)
    assert len({index, ProcessIndex(travel_process.root)}) == 2


def test_index_repr_names_the_object_not_its_columns():
    # The columns hold every subtree again, so a column repr would recurse
    # through the deepest tree the parser accepts.
    depth = MAX_NESTING - 2
    process = parse_process(f'<process name="deep">{"<sequence>" * depth}<invoke/>{"</sequence>" * depth}</process>')
    assert repr(process.index) == object.__repr__(process.index)


@pytest.mark.parametrize("clone", [lambda r: pickle.loads(pickle.dumps(r)), copy.copy, copy.deepcopy],
                         ids=["pickle", "copy", "deepcopy"])
def test_index_clones_index_the_same_tree(travel_process, clone):
    index = travel_process.index
    twin = clone(index)
    assert twin is not index
    for column in ("paths", "activities", "parents", "ends", "by_kind"):
        assert getattr(twin, column) == getattr(index, column)


def _outcome(compute, record):
    try:
        return compute(record)
    except TypeError as exc:
        return type(exc), str(exc)


def test_filled_postings_leave_the_process_value_unchanged(travel_aspects):
    text = (FIXTURES_DIR / "travel_booking.bpel").read_text(encoding="utf-8")
    bound, fresh = parse_process(text), parse_process(text)
    index = bound.index
    index_hash = hash(index)
    assert bind_aspects(bound, travel_aspects, AnalysisConfig()).bindings
    assert index._postings, "binding fills the postings cache"
    assert bound == fresh and fresh == bound
    assert _outcome(hash, bound) == _outcome(hash, fresh)
    assert repr(bound) == repr(fresh)
    assert pickle.dumps(bound) == pickle.dumps(fresh)
    assert bound.index is index and hash(index) == index_hash
    assert index == index and index != ProcessIndex(bound.root)
    for clone in (lambda r: pickle.loads(pickle.dumps(r)), copy.copy, copy.deepcopy):
        twin = clone(bound)
        assert twin == fresh and repr(twin) == repr(fresh)
        assert twin.index is not index and twin.index._postings == {}
        assert clone(index)._postings == {}


def test_omitted_attributes_are_a_fresh_empty_dict():
    first, second = Activity("invoke"), Activity("invoke")
    assert first.attributes == {} and first.attributes is not second.attributes
    assert ProcessModel("p", Activity("sequence")).attributes == {}


def test_node_vd_repr_keeps_the_field_form():
    path = "/process/sequence[0]/invoke[2]"
    node = NodeVD(path, Fraction(1, 3), vv=1)
    assert repr(node) == (
        "NodeVD(path='/process/sequence[0]/invoke[2]', vd=Fraction(1, 3), vv=1, n_used=None)"
    )
    assert node.kind == "invoke"


def test_results_of_the_deepest_process_do_not_recurse():
    # The <process> element and the innermost <invoke> take two of the levels.
    depth = MAX_NESTING - 2
    process = parse_process(f'<process name="deep">{"<sequence>" * depth}<invoke/>{"</sequence>" * depth}</process>')
    config = AnalysisConfig()
    result = process_adaptability(process, VariabilityProfile(), config)
    assert len(result.nodes) == depth + 1 and result.nodes[-1].kind == "invoke"
    assert result == process_adaptability(process, VariabilityProfile(), config)
    assert repr(result).startswith("MetricsResult(process_name='deep', nodes=(NodeVD(path='/process/")
    assert pickle.loads(pickle.dumps(result)) == result
    assert copy.deepcopy(result) == result


def test_records_of_another_class_are_never_equal():
    # Equal field values do not make records of two classes, or a record and
    # the plain value of its fields, equal: each side's __eq__ declines.
    selector = parse_selector("//invoke")
    pairs = [
        (Pointcut("a", "b"), SweepCase("a", "b")),
        (VariabilityProfile(), SweepCase((), ())),
        (JoinPointBinding("a", "p", "/process/sequence[0]", "before"),
         NodeVD("a", "p", "/process/sequence[0]", "before")),
        (Aspect("a", ("p",), "before", True), NodeVD("a", ("p",), "before", True)),
        (Pointcut("a", "b"), ("a", "b")),
        (selector, selector.steps),
    ]
    for left, right in pairs:
        assert left._key(left) == (right._key(right) if hasattr(right, "_key") else right)
        assert left.__eq__(right) is NotImplemented
        assert left != right and right != left
        assert not left == right and not right == left
