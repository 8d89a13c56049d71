"""Incremental-variability sweeps.

A slot is one attachment possibility: a ``(path, advice_type)`` pair,
the pair `VariabilityProfile.from_assignments` takes. A process with j
join points has 3j slots. A sweep case fills the slots in some order,
a tuple of those pairs, and records the process adaptability after each
addition, producing a monotone series from the empty profile to
saturation: entry k is the PAM after the first k slots.
`run_sweep` draws seeded pseudo-random orders; `exhaustive_sweep`
reports the min/mean/max envelope over every subset of k slots as row k.
It reads the envelope off one sorted list of per-slot marginal gains
(two prefix sums) and a hypergeometric mean instead of enumerating the
subsets, so its cost is one sort plus linear work in the slot count.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import accumulate
from typing import Sequence

from .metrics import join_point_weights, variability_degree
from .model import ADVICE_TYPES, ActivityPath, AnalysisConfig, ProcessModel, Record, _set, find_join_points


class SweepCase(Record):
    """One placement order and its series: ``series[k]`` is the PAM after the first k slots."""

    __slots__ = ("order", "series")

    def __init__(self, order: tuple[tuple[ActivityPath, str], ...], series: tuple[Fraction, ...]) -> None:
        _set(self, "order", order)
        _set(self, "series", series)


class SweepResult(Record):
    __slots__ = ("process_name", "slot_count", "cases", "seed")

    def __init__(self, process_name: str, slot_count: int, cases: tuple[SweepCase, ...], seed: int) -> None:
        _set(self, "process_name", process_name)
        _set(self, "slot_count", slot_count)
        _set(self, "cases", cases)
        _set(self, "seed", seed)


def enumerate_slots(process: ProcessModel, config: AnalysisConfig) -> list[tuple[ActivityPath, str]]:
    """All slots, join points in pre-order, advice types in canonical order."""
    return [(path, advice_type) for path, _ in find_join_points(process, config) for advice_type in ADVICE_TYPES]


def sweep_case(process: ProcessModel, order: Sequence[tuple[ActivityPath, str]], config: AnalysisConfig) -> SweepCase:
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
    series = [pam]
    for slot in order:
        path = slot[0]
        vv = vvs.get(path, 0)
        raised = vv < reference if clamp else slot not in placed
        placed.add(slot)
        if raised and path in steps:
            variability_degree(vv + 1, reference)  # raises ReferenceTooSmall past R
            vvs[path] = vv + 1
            pam += steps[path]
        series.append(pam)
    return SweepCase(tuple(order), tuple(series))


def _permuted(slots: Sequence[tuple[ActivityPath, str]], rng: random.Random) -> tuple[tuple[ActivityPath, str], ...]:
    # Random.shuffle is a Fisher-Yates shuffle; the orders it draws are part
    # of the output contract, pinned by tests/test_sweep.py.
    order = list(slots)
    rng.shuffle(order)
    return tuple(order)


def run_sweep(
    process: ProcessModel, num_cases: int, seed: int, config: AnalysisConfig
) -> SweepResult:
    """Run ``num_cases`` seeded random placement orders.

    Orders are drawn distinct while the permutation space allows it;
    identical inputs and seed give an identical result.
    """
    if type(num_cases) is not int or num_cases < 1:
        raise ValueError("num_cases must be an integer >= 1")
    slots = enumerate_slots(process, config)
    rng = random.Random(seed)
    seen: set[tuple[tuple[ActivityPath, str], ...]] = set()
    cases = []
    for _ in range(num_cases):
        order = _permuted(slots, rng)
        attempts = 0
        while order in seen and attempts < 1000 and len(seen) < math.factorial(len(slots)):
            order = _permuted(slots, rng)
            attempts += 1
        seen.add(order)
        cases.append(sweep_case(process, order, config))
    return SweepResult(process.name, len(slots), tuple(cases), seed)


def exhaustive_sweep(process: ProcessModel, config: AnalysisConfig) -> list[tuple[Fraction, Fraction, Fraction]]:
    """Envelope over every slot subset: row k is (min, mean, max) over the k-subsets.

    A subset's PAM is the sum over join points of weight * VD(c), where c
    is how many of the join point's slots the subset holds. VD is concave
    in c with VD(0) = 0, so each join point's marginal gains
    weight * (VD(c) - VD(c - 1)) never increase with c. Hence filling the
    lightest join points whole gives the minimum, and taking the largest
    gains gives the maximum. The c of one join point in a random k-subset
    of the S slots is hypergeometric, so the mean is (sum of weights) times
    sum over c of C(k, c) C(S - k, 3 - c) VD(c) / C(S, 3).
    """
    weights = sorted(join_point_weights(process, config).values())
    if not weights:
        return [(Fraction(0), Fraction(0), Fraction(0))]
    per_join_point = len(ADVICE_TYPES)
    reference = config.reference_value
    clamp = config.count_mode == "raw-clamped"
    degrees = [variability_degree(min(c, reference) if clamp else c, reference) for c in range(per_join_point + 1)]
    gains = [weight * (degrees[c] - degrees[c - 1]) for weight in weights for c in range(1, per_join_point + 1)]
    slots = len(gains)
    scale = sum(weights, Fraction(0)) / math.comb(slots, per_join_point)
    means = [
        scale * sum(math.comb(k, c) * math.comb(slots - k, per_join_point - c) * degree for c, degree in enumerate(degrees))
        for k in range(slots + 1)
    ]
    lows = accumulate(gains, initial=Fraction(0))
    highs = accumulate(sorted(gains, reverse=True), initial=Fraction(0))
    return list(zip(lows, means, highs))
