"""Incremental-variability sweeps.

A slot is one (join point, advice type) attachment possibility; a
process with j join points has 3j slots. A sweep case fills the slots
in some order and records the process adaptability after each addition,
producing a monotone series from the empty profile to saturation.
`run_sweep` draws seeded pseudo-random orders; `exhaustive_sweep`
enumerates every subset of slots per count and reports the min/mean/max
envelope, which is only tractable for small processes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .errors import SweepLimitError
from .metrics import join_point_weights, variability_degree
from .model import ADVICE_TYPES, ActivityPath, AnalysisConfig, ProcessModel, find_join_points

EXHAUSTIVE_SLOT_LIMIT = 12


@dataclass(frozen=True)
class VariabilitySlot:
    path: ActivityPath
    advice_type: str


@dataclass(frozen=True)
class SweepCase:
    """One placement order and its PAM-per-count series (counts 0..slots)."""

    case_id: int
    order: tuple[VariabilitySlot, ...]
    series: tuple[tuple[int, Fraction], ...]


@dataclass(frozen=True)
class SweepResult:
    process_name: str
    slot_count: int
    cases: tuple[SweepCase, ...]
    seed: int


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
    space = math.factorial(len(slots))
    seen: set[tuple[VariabilitySlot, ...]] = set()
    cases = []
    for case_id in range(num_cases):
        order = _permuted(slots, rng)
        attempts = 0
        while tuple(order) in seen and len(seen) < space and attempts < 1000:
            order = _permuted(slots, rng)
            attempts += 1
        seen.add(tuple(order))
        cases.append(sweep_case(process, order, config, case_id=case_id))
    return SweepResult(process.name, len(slots), tuple(cases), seed)


def exhaustive_sweep(
    process: ProcessModel, config: AnalysisConfig, max_slots: int = EXHAUSTIVE_SLOT_LIMIT
) -> list[tuple[int, Fraction, Fraction, Fraction]]:
    """Envelope over every slot subset: (count, min, mean, max) per count.

    PAM is evaluated through the join-point weights, which the linearity
    of the aggregation guarantees to match the tree computation.
    """
    slots = enumerate_slots(process, config)
    if len(slots) > max_slots:
        raise SweepLimitError(
            f"process has {len(slots)} slots; exhaustive mode handles at most {max_slots}"
        )
    weights = join_point_weights(process, config)
    reference = config.reference_value
    clamp = config.count_mode == "raw-clamped"
    rows = []
    for count in range(len(slots) + 1):
        pams = []
        for subset in combinations(slots, count):
            per_path: dict[ActivityPath, int] = {}
            for slot in subset:
                per_path[slot.path] = per_path.get(slot.path, 0) + 1
            pam = Fraction(0)
            for path, vv in per_path.items():
                if clamp:
                    vv = min(vv, reference)
                pam += weights[path] * variability_degree(vv, reference)
            pams.append(pam)
        rows.append((count, min(pams), sum(pams, Fraction(0)) / len(pams), max(pams)))
    return rows
