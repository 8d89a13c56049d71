"""The package's records: immutable slotted value objects."""

from __future__ import annotations

import copy
import inspect
import pickle
from fractions import Fraction

import pytest

from adaptmeter import (
    Activity,
    ActivityPath,
    AnalysisConfig,
    BranchLabel,
    JoinPointBinding,
    NodeVD,
    ProcessModel,
    SweepCase,
    VariabilitySlot,
    bind_aspects,
    parse_process,
    parse_selector,
    process_adaptability,
    run_sweep,
)
from adaptmeter.model import ProcessIndex
from conftest import FIXTURES_DIR


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
        switch.branch_labels[0], switch, result.root.path, travel_process.index, travel_process, config,
        selector.steps[0], selector, aspect.pointcuts[0], aspect, profile.bindings[0], profile,
        result.root, result, sweep.cases[0].order[0], sweep.cases[0], sweep,
    ]


def test_every_record_type_is_covered(records):
    assert len({type(record) for record in records}) == 17


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
    path = ActivityPath.from_text("/process/sequence[0]/invoke[1]")
    pairs = [
        (path, ActivityPath((("sequence", 0), ("invoke", 1)))),
        (AnalysisConfig(join_point_kinds=["invoke"]), AnalysisConfig(join_point_kinds=frozenset({"invoke"}))),
        (parse_selector('//invoke[@operation="x"]'), parse_selector("//invoke[@operation='x']")),
        (JoinPointBinding("a", "p", path, "before"), JoinPointBinding("a", "p", ActivityPath(path.steps), "before")),
        (NodeVD(path, "invoke", Fraction(1, 3), 1), NodeVD(ActivityPath(path.steps), "invoke", Fraction(2, 6), 1)),
        (SweepCase(0, (VariabilitySlot(path, "after"),), ((0, Fraction(0)),)),
         SweepCase(0, (VariabilitySlot(path, "after"),), ((0, Fraction(0)),))),
    ]
    for left, right in pairs:
        assert left is not right
        assert left == right
        assert hash(left) == hash(right)
    assert NodeVD(path, "invoke", Fraction(1, 3), 1) != NodeVD(path, "invoke", Fraction(1, 3), 2)
    assert VariabilitySlot(path, "after") != (path, "after")


@pytest.mark.parametrize("clone", [lambda r: pickle.loads(pickle.dumps(r)), copy.copy, copy.deepcopy],
                         ids=["pickle", "copy", "deepcopy"])
def test_records_round_trip_through_pickle_and_copy(records, clone):
    process, config, result, sweep = records[4], records[5], records[13], records[16]
    for record in (process, config, result, sweep):
        twin = clone(record)
        assert type(twin) is type(record)
        assert twin == record


def test_process_equality_ignores_whether_the_index_was_built():
    text = (FIXTURES_DIR / "travel_booking.bpel").read_text()
    indexed, fresh = parse_process(text), parse_process(text)
    assert indexed.index is indexed.index
    assert indexed == fresh and fresh == indexed
    assert repr(indexed) == repr(fresh)
    assert "index" not in repr(indexed)
    assert pickle.loads(pickle.dumps(indexed)) == fresh


def test_index_equality_is_identity(travel_process):
    index = travel_process.index
    assert index == index
    assert index != ProcessIndex.build(travel_process.root)
    assert len({index, ProcessIndex.build(travel_process.root)}) == 2


def _outcome(compute, record):
    try:
        return compute(record)
    except TypeError as exc:
        return type(exc), str(exc)


def test_filled_postings_leave_the_process_value_unchanged(travel_aspects):
    text = (FIXTURES_DIR / "travel_booking.bpel").read_text()
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
    assert index == index and index != ProcessIndex.build(bound.root)
    for clone in (lambda r: pickle.loads(pickle.dumps(r)), copy.copy, copy.deepcopy):
        twin = clone(bound)
        assert twin == fresh and repr(twin) == repr(fresh)
        assert not hasattr(twin, "_index"), "a clone rebuilds its index on first use"
        assert twin.index is not index and twin.index._postings == {}
        assert clone(index)._postings == {}


def test_omitted_attributes_are_a_fresh_empty_dict():
    first, second = Activity("invoke"), Activity("invoke")
    assert first.attributes == {} and first.attributes is not second.attributes
    assert BranchLabel("case").attributes == {}
    assert ProcessModel("p", Activity("sequence")).attributes == {}


def test_node_vd_repr_keeps_the_field_form():
    path = ActivityPath((("sequence", 0), ("invoke", 2)))
    node = NodeVD(path, "invoke", Fraction(1, 3), vv=1)
    assert repr(node) == (
        "NodeVD(path=ActivityPath(steps=(('sequence', 0), ('invoke', 2))), kind='invoke', "
        "vd=Fraction(1, 3), vv=1, n_used=None, children=())"
    )
