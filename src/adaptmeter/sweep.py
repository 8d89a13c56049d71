"""Incremental-variability sweeps.

A slot is one attachment possibility: a ``(path, advice_type)`` pair,
the pair `VariabilityProfile.from_assignments` takes. A process with j
join points has 3j slots. A sweep case fills the slots in some order,
a tuple of those pairs, and records the process adaptability after each
addition, producing a monotone series from the empty profile to
saturation: entry k is the PAM after the first k slots.
`run_sweep` draws seeded pseudo-random orders and returns one
`SweepCase` per order, in the order drawn; `exhaustive_sweep` reports
the min/mean/max envelope over every subset of k slots as row k.
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
from .model import ADVICE_TYPES, AnalysisConfig, ProcessModel, Record, _set, find_join_points


class SweepCase(Record):
    """One placement order and its series: ``series[k]`` is the PAM after the first k slots."""

    __slots__ = ("order", "series")

    def __init__(self, order: tuple[tuple[str, str], ...], series: tuple[Fraction, ...]) -> None:
        _set(self, "order", order)
        _set(self, "series", series)


def enumerate_slots(process: ProcessModel, config: AnalysisConfig) -> list[tuple[str, str]]:
    """All slots, join points in pre-order, advice types in canonical order."""
    return [(path, advice_type) for path, _ in find_join_points(process, config) for advice_type in ADVICE_TYPES]


def sweep_case(
    weights: dict[str, Fraction], order: Sequence[tuple[str, str]], config: AnalysisConfig
) -> SweepCase:
    """Fill slots in the given order, recording PAM after each addition.

    ``weights`` is the table `join_point_weights` returns for the process,
    and ``order`` holds distinct slots of those join points, such as a
    permutation or a prefix of `enumerate_slots`. PAM is linear in the
    join-point VDs, so each slot raises its join point's VV and adds
    weight / R; in raw-clamped mode slots past R add nothing. Out of that
    contract, a path that is not a join point raises KeyError and a
    repeated slot counts again.
    """
    reference = config.reference_value
    steps = {path: weight / reference for path, weight in weights.items()}
    clamp = config.count_mode == "raw-clamped"
    vvs = dict.fromkeys(steps, 0)
    pam = Fraction(0)
    series = [pam]
    for path, _ in order:
        vv = vvs[path]
        if vv < reference:
            vvs[path] = vv + 1
            pam += steps[path]
        elif not clamp:
            variability_degree(vv + 1, reference)  # raises ReferenceTooSmall
        series.append(pam)
    return SweepCase(tuple(order), tuple(series))


def run_sweep(
    process: ProcessModel, num_cases: int, seed: int, config: AnalysisConfig
) -> tuple[SweepCase, ...]:
    """Run ``num_cases`` seeded random placement orders and return their cases.

    ``seed`` must be an int (anything else raises ValueError), so
    identical inputs and seed give identical cases. Orders are drawn
    distinct while the permutation space allows it, and every case reads
    one weight table.
    """
    if type(num_cases) is not int or num_cases < 1:
        raise ValueError("num_cases must be an integer >= 1")
    if type(seed) is not int:
        raise ValueError(f"seed must be an integer, got {seed!r}")
    slots = enumerate_slots(process, config)
    weights = join_point_weights(process, config)
    rng = random.Random(seed)
    seen: set[tuple[tuple[str, str], ...]] = set()
    cases = []
    for _ in range(num_cases):
        # Random.shuffle is a Fisher-Yates shuffle; the orders it draws are part
        # of the output contract, pinned by tests/test_sweep.py. A repeated order
        # is redrawn up to 1000 times while unseen orders remain.
        for _ in range(1001):
            shuffled = list(slots)
            rng.shuffle(shuffled)
            order = tuple(shuffled)
            if order not in seen or len(seen) >= math.factorial(len(slots)):
                break
        seen.add(order)
        cases.append(sweep_case(weights, order, config))
    return tuple(cases)


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
