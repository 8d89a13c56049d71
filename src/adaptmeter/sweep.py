"""Incremental-variability sweeps.

A slot is one (join point, advice type) attachment possibility; a
process with j join points has 3j slots. A sweep case fills the slots
in some order and records the process adaptability after each addition,
producing a monotone series from the empty profile to saturation.
`run_sweep` draws seeded pseudo-random orders; `exhaustive_sweep`
reports the min/mean/max envelope over every subset of slots per count.
It folds in one join point at a time instead of enumerating the subsets,
so its cost is polynomial in the slot count.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Sequence

from .metrics import join_point_weights, variability_degree
from .model import ADVICE_TYPES, ActivityPath, AnalysisConfig, ProcessModel, Record, _set, find_join_points


class VariabilitySlot(Record):
    __slots__ = ("path", "advice_type")

    def __init__(self, path: ActivityPath, advice_type: str) -> None:
        _set(self, "path", path)
        _set(self, "advice_type", advice_type)


class SweepCase(Record):
    """One placement order and its PAM-per-count series (counts 0..slots)."""

    __slots__ = ("case_id", "order", "series")

    def __init__(
        self, case_id: int, order: tuple[VariabilitySlot, ...], series: tuple[tuple[int, Fraction], ...]
    ) -> None:
        _set(self, "case_id", case_id)
        _set(self, "order", order)
        _set(self, "series", series)


class SweepResult(Record):
    __slots__ = ("process_name", "slot_count", "cases", "seed")

    def __init__(self, process_name: str, slot_count: int, cases: tuple[SweepCase, ...], seed: int) -> None:
        _set(self, "process_name", process_name)
        _set(self, "slot_count", slot_count)
        _set(self, "cases", cases)
        _set(self, "seed", seed)


def enumerate_slots(process: ProcessModel, config: AnalysisConfig) -> list[VariabilitySlot]:
    """All slots, join points in pre-order, advice types in canonical order."""
    return [
        VariabilitySlot(path, advice_type)
        for path, _ in find_join_points(process, config)
        for advice_type in ADVICE_TYPES
    ]


def sweep_case(
    process: ProcessModel,
    order: Sequence[VariabilitySlot],
    config: AnalysisConfig,
    case_id: int = 0,
) -> SweepCase:
    """Fill slots in the given order, recording PAM after each addition.

    PAM is linear in the join-point VDs, so each slot that raises a join
    point's VV adds weight / R. Slots on other paths, repeated types in
    set mode and slots past R in raw-clamped mode add nothing.
    """
    reference = config.reference_value
    steps = {path: weight / reference for path, weight in join_point_weights(process, config).items()}
    clamp = config.count_mode == "raw-clamped"
    placed: set[tuple[ActivityPath, str]] = set()
    vvs: dict[ActivityPath, int] = {}
    pam = Fraction(0)
    series = [(0, pam)]
    for count, slot in enumerate(order, 1):
        vv = vvs.get(slot.path, 0)
        raised = vv < reference if clamp else (slot.path, slot.advice_type) not in placed
        placed.add((slot.path, slot.advice_type))
        if raised and slot.path in steps:
            variability_degree(vv + 1, reference)  # raises ReferenceTooSmall past R
            vvs[slot.path] = vv + 1
            pam += steps[slot.path]
        series.append((count, pam))
    return SweepCase(case_id, tuple(order), tuple(series))


def _permuted(slots: Sequence[VariabilitySlot], rng: random.Random) -> list[VariabilitySlot]:
    # Fisher-Yates over randrange keeps the draw sequence under our
    # control, so equal seeds give equal orders on any interpreter.
    order = list(slots)
    for i in range(len(order) - 1, 0, -1):
        j = rng.randrange(i + 1)
        order[i], order[j] = order[j], order[i]
    return order


def run_sweep(
    process: ProcessModel, num_cases: int, seed: int, config: AnalysisConfig
) -> SweepResult:
    """Run ``num_cases`` seeded random placement orders.

    Orders are drawn distinct while the permutation space allows it;
    identical inputs and seed give an identical result.
    """
    if num_cases < 1:
        raise ValueError("num_cases must be >= 1")
    slots = enumerate_slots(process, config)
    rng = random.Random(seed)
    seen: set[tuple[VariabilitySlot, ...]] = set()
    cases = []
    for case_id in range(num_cases):
        order = _permuted(slots, rng)
        attempts = 0
        while tuple(order) in seen and attempts < 1000 and len(seen) < math.factorial(len(slots)):
            order = _permuted(slots, rng)
            attempts += 1
        seen.add(tuple(order))
        cases.append(sweep_case(process, order, config, case_id=case_id))
    return SweepResult(process.name, len(slots), tuple(cases), seed)


def exhaustive_sweep(
    process: ProcessModel, config: AnalysisConfig
) -> list[tuple[int, Fraction, Fraction, Fraction]]:
    """Envelope over every slot subset: (count, min, mean, max) per count.

    A subset's PAM is the sum over join points of weight * VD(c), where c
    is how many of the join point's slots the subset holds. So the
    envelope folds in one join point at a time: for each count it keeps
    the min, max and sum of PAM over the subsets so far and their number.
    A join point adds term c in comb(3, c) ways.
    """
    weights = join_point_weights(process, config)
    per_join_point = len(ADVICE_TYPES)
    reference = config.reference_value
    clamp = config.count_mode == "raw-clamped"
    envelope = [(Fraction(0), Fraction(0), Fraction(0), 1)]  # (min, max, sum, number) per count
    for weight in weights.values():
        merged: list[list[tuple[Fraction, Fraction, Fraction, int]]] = [
            [] for _ in range(len(envelope) + per_join_point)
        ]
        for c in range(per_join_point + 1):
            term = weight * variability_degree(min(c, reference) if clamp else c, reference)
            ways = math.comb(per_join_point, c)
            for count, (low, high, total, number) in enumerate(envelope):
                merged[count + c].append((low + term, high + term, ways * (total + number * term), ways * number))
        envelope = [
            (min(lows), max(highs), sum(totals, Fraction(0)), sum(numbers))
            for lows, highs, totals, numbers in (zip(*group) for group in merged)
        ]
    return [(count, low, total / number, high) for count, (low, high, total, number) in enumerate(envelope)]
