"""Variability metrics over an activity tree.

Each join-point activity carries a variability value VV (how many
advice attachments it has) and a variability degree VD = VV / R, where
the reference value R is the per-activity attachment maximum (default
3: before, around, after). Structured activities fold the degrees of
their members:

    switch, pick            VD = sum over branches of VD(branch) * (1/n),
                            n = number of branches (every branch counts:
                            a join-point-free branch still occupies its
                            1/n share of execution probability)
    sequence, flow, while   VD = mean of VD over eligible children,
                            n = number of eligible children (inert
                            scaffolding such as a bare assign does not
                            dilute the mean); n = 0 gives VD = 0

The process adaptability metric PAM is the VD of the root activity.

All arithmetic uses exact rationals (fractions.Fraction); nothing is
rounded before a report is rendered. The fold is linear in the
per-join-point degrees: PAM equals the weight of each join point (the
product of 1/n over its ancestors) times its VD, summed, and any node's
VD is the same sum over its subtree divided by the node's own weight.
So aggregation reads one integer weight table: every rank's weight,
scaled by the least common multiple of the ancestor products. A subtree
is a contiguous run of pre-order ranks in the process index, so one
prefix sum of weight * VV gives every node's numerator, and each node
builds one exact Fraction. `linear_weight_oracle` computes PAM as the
weighted sum, and sweeps use the weights to update PAM slot by slot.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import lcm
from typing import TYPE_CHECKING

from .errors import NotAJoinPoint, ReferenceTooSmall
from .model import BASIC_KINDS, BRANCHING_KINDS, ActivityPath, AnalysisConfig, ProcessIndex, ProcessModel, is_join_point
from .model import Record, _set

if TYPE_CHECKING:
    from .matching import VariabilityProfile


class NodeVD(Record):
    """Metric result of one activity.

    ``vv`` is set on join points only; ``n_used`` is the divisor a
    structured node applied (branch count, or eligible-child count).
    """

    __slots__ = ("path", "vd", "vv", "n_used")

    def __init__(self, path: ActivityPath, vd: Fraction, vv: int | None = None, n_used: int | None = None) -> None:
        _set(self, "path", path)
        _set(self, "vd", vd)
        _set(self, "vv", vv)
        _set(self, "n_used", n_used)

    @property
    def kind(self) -> str:
        return self.path.kind

    @property
    def join_point(self) -> bool:
        return self.vv is not None


class MetricsResult(Record):
    """The metric over one process: ``nodes[r]`` is the result of the
    process index's rank r, so the root comes first and the rest follow
    in pre-order.
    """

    __slots__ = ("process_name", "nodes", "config_used", "warnings")

    def __init__(
        self,
        process_name: str,
        nodes: tuple[NodeVD, ...],
        config_used: AnalysisConfig,
        warnings: tuple[str, ...] = (),
    ) -> None:
        _set(self, "process_name", process_name)
        _set(self, "nodes", nodes)
        _set(self, "config_used", config_used)
        _set(self, "warnings", warnings)

    @property
    def pam(self) -> Fraction:
        """PAM, the VD of the root activity."""
        return self.nodes[0].vd


def variability_value(profile: VariabilityProfile, path: ActivityPath, config: AnalysisConfig) -> int:
    """Number of variabilities at a join point, under the configured count mode.

    ``set`` counts distinct advice types; ``raw-clamped`` counts every
    binding but clamps at the reference value.
    """
    if path.kind not in config.join_point_kinds:
        raise NotAJoinPoint(f"{path} is a <{path.kind}>, which cannot carry advice under this config")
    counts = profile.raw_counts.get(path, {})
    if config.count_mode == "set":
        return len(counts)
    return min(sum(counts.values()), config.reference_value)


def variability_degree(vv: int, reference_value: int) -> Fraction:
    """Normalise a variability value into [0, 1]: VD = VV / R, exactly."""
    if vv > reference_value:
        raise ReferenceTooSmall(f"variability value {vv} exceeds reference value {reference_value}")
    return Fraction(vv, reference_value)


def _weights(index: ProcessIndex, config: AnalysisConfig) -> tuple[list[int], list[int], int]:
    """The divisor n and the integer weight of every rank, and the scale of the weights.

    Branching nodes count every child; other structured nodes count the
    eligible ones: join points, and structured children with a join
    point below them. Basic ranks get n = 0. A rank with a join point at
    or below it weighs ``scale`` over the product of its ancestors'
    divisors, where ``scale`` is the least common multiple of those
    ranks' products; every other rank weighs 0.
    """
    activities, parents = index.activities, index.parents
    live = [is_join_point(activity, config) for activity in activities]
    divisors = [0] * len(live)
    for rank in range(len(live) - 1, 0, -1):
        parent = parents[rank]
        live[parent] = live[parent] or live[rank]
        if live[rank] or activities[parent].kind in BRANCHING_KINDS:
            divisors[parent] += 1
    # The root's product is 1, or 0 when the tree has no join point. Every
    # ancestor of a live rank has n >= 1, so only dead ranks get product 0.
    products = [int(live[0])] * len(live)
    for rank in range(1, len(live)):
        parent = parents[rank]
        products[rank] = products[parent] * divisors[parent] if live[rank] else 0
    scale = lcm(*set(products) - {0})
    return divisors, [scale // product if product else 0 for product in products], scale


def process_adaptability(
    process: ProcessModel, profile: VariabilityProfile, config: AnalysisConfig
) -> MetricsResult:
    """Evaluate the whole process: PAM is the root activity's VD.

    A node's VD is the weighted sum of the VVs of the join points in its
    subtree, ranks r .. ends[r] - 1, over its own weight times R; one
    prefix sum over the ranks gives every such sum.
    """
    index = process.index
    reference = config.reference_value
    divisors, weights, _ = _weights(index, config)
    vvs = [variability_value(profile, path, config) if is_join_point(activity, config) else None
           for path, activity in zip(index.paths, index.activities)]
    # The VD of each VV that occurs (None: not a join point), built in
    # pre-order, so ReferenceTooSmall names the first offending VV in
    # document order.
    degrees = {None: Fraction(0)}
    for vv in vvs:
        if vv not in degrees:
            degrees[vv] = variability_degree(vv, reference)
    sums = [0, *accumulate((vv or 0) * weight for vv, weight in zip(vvs, weights))]
    nodes = []
    for rank, (path, activity, vv) in enumerate(zip(index.paths, index.activities, vvs)):
        if activity.kind in BASIC_KINDS:
            nodes.append(NodeVD(path, degrees[vv], vv))
        else:
            total = sums[index.ends[rank]] - sums[rank]
            vd = Fraction(total, weights[rank] * reference) if total else degrees[None]
            nodes.append(NodeVD(path, vd, None, divisors[rank]))
    return MetricsResult(process.name, tuple(nodes), config, profile.warnings)


def join_point_weights(process: ProcessModel, config: AnalysisConfig) -> dict[ActivityPath, Fraction]:
    """Weight of each join point, in pre-order: the product of 1/n over its ancestors.

    A join point's weight is how much one unit of its VD moves the
    process result: its entry in the weight table aggregation reads,
    over the table's scale.
    """
    index = process.index
    _, weights, scale = _weights(index, config)
    return {
        path: Fraction(weight, scale)
        for path, activity, weight in zip(index.paths, index.activities, weights)
        if is_join_point(activity, config)
    }


def linear_weight_oracle(
    process: ProcessModel, profile: VariabilityProfile, config: AnalysisConfig
) -> Fraction:
    """PAM as the sum of weight(p) * VD(p) over all join points.

    Must agree exactly with `process_adaptability`.
    """
    total = Fraction(0)
    for path, weight in join_point_weights(process, config).items():
        vv = variability_value(profile, path, config)
        total += weight * variability_degree(vv, config.reference_value)
    return total
