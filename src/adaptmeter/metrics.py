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
rounded before a report is rendered. Aggregation is one bottom-up pass
over the process index, and it is linear in the per-join-point degrees:
PAM equals the weight of each join point (the product of 1/n over its
ancestors) times its VD, summed. `linear_weight_oracle` computes PAM
that way, and sweeps use the weights to update PAM slot by slot.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NotAJoinPoint, ReferenceTooSmall
from .matching import VariabilityProfile
from .model import BRANCHING_KINDS, ActivityPath, AnalysisConfig, ProcessIndex, ProcessModel, is_join_point
from .model import Record, _set


class NodeVD(Record):
    """Per-node metric result.

    ``vv`` is set on join points only; ``n_used`` is the divisor a
    structured node applied (branch count, or eligible-child count).
    """

    __slots__ = ("path", "kind", "vd", "vv", "n_used", "children")

    def __init__(
        self,
        path: ActivityPath,
        kind: str,
        vd: Fraction,
        vv: int | None = None,
        n_used: int | None = None,
        children: tuple[NodeVD, ...] = (),
    ) -> None:
        _set(self, "path", path)
        _set(self, "kind", kind)
        _set(self, "vd", vd)
        _set(self, "vv", vv)
        _set(self, "n_used", n_used)
        _set(self, "children", children)

    @property
    def join_point(self) -> bool:
        return self.vv is not None

    def walk(self):
        """Yield this node and every descendant in pre-order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))


class MetricsResult(Record):
    __slots__ = ("process_name", "root", "pam", "config_used", "warnings")

    def __init__(
        self,
        process_name: str,
        root: NodeVD,
        pam: Fraction,
        config_used: AnalysisConfig,
        warnings: tuple[str, ...] = (),
    ) -> None:
        _set(self, "process_name", process_name)
        _set(self, "root", root)
        _set(self, "pam", pam)
        _set(self, "config_used", config_used)
        _set(self, "warnings", warnings)


def variability_value(profile: VariabilityProfile, path: ActivityPath, config: AnalysisConfig) -> int:
    """Number of variabilities at a join point, under the configured count mode.

    ``set`` counts distinct advice types; ``raw-clamped`` counts every
    binding but clamps at the reference value.
    """
    if path.kind not in config.join_point_kinds:
        raise NotAJoinPoint(f"{path} is a <{path.kind}>, which cannot carry advice under this config")
    if config.count_mode == "set":
        return len(profile.entries.get(path, frozenset()))
    total = sum(profile.raw_counts.get(path, {}).values())
    return min(total, config.reference_value)


def variability_degree(vv: int, reference_value: int) -> Fraction:
    """Normalise a variability value into [0, 1]: VD = VV / R, exactly."""
    if vv > reference_value:
        raise ReferenceTooSmall(f"variability value {vv} exceeds reference value {reference_value}")
    return Fraction(vv, reference_value)


def _divisors(index: ProcessIndex, config: AnalysisConfig) -> list[int]:
    """The divisor n of every rank, from one bottom-up pass.

    Branching nodes count every child; other structured nodes count the
    eligible ones: join points, and structured children with a join
    point below them. Basic ranks get n = 0.
    """
    eligible = [is_join_point(activity, config) for activity in index.activities]
    divisors = [0] * len(eligible)
    for rank in range(len(eligible) - 1, 0, -1):
        parent = index.parents[rank]
        eligible[parent] = eligible[parent] or eligible[rank]
        if eligible[rank] or index.activities[parent].kind in BRANCHING_KINDS:
            divisors[parent] += 1
    return divisors


def process_adaptability(
    process: ProcessModel, profile: VariabilityProfile, config: AnalysisConfig
) -> MetricsResult:
    """Evaluate the whole process: PAM is the root activity's VD."""
    index = process.index
    # Join points are scored in pre-order, so ReferenceTooSmall reports
    # the first offending one in document order.
    nodes: list[NodeVD | None] = [None] * len(index.paths)
    for rank, (path, activity) in enumerate(zip(index.paths, index.activities)):
        if is_join_point(activity, config):
            vv = variability_value(profile, path, config)
            nodes[rank] = NodeVD(path, activity.kind, variability_degree(vv, config.reference_value), vv=vv)
        elif activity.is_basic:
            nodes[rank] = NodeVD(path, activity.kind, Fraction(0))
    divisors = _divisors(index, config)
    for rank in range(len(nodes) - 1, -1, -1):
        if nodes[rank] is not None:
            continue
        children = tuple(nodes[child] for child in index.children(rank))
        n = divisors[rank]
        # Ineligible children score zero, so summing all of them equals
        # summing the eligible ones; only the divisor differs.
        total = sum((child.vd for child in children), Fraction(0))
        vd = total / n if n else Fraction(0)
        nodes[rank] = NodeVD(index.paths[rank], index.activities[rank].kind, vd, n_used=n, children=children)
    return MetricsResult(process.name, nodes[0], nodes[0].vd, config, profile.warnings)


def join_point_weights(process: ProcessModel, config: AnalysisConfig) -> dict[ActivityPath, Fraction]:
    """Weight of each join point, in pre-order: the product of 1/n over its ancestors.

    A join point's weight is how much one unit of its VD moves the
    process result. Weights use the same divisors as aggregation, and
    every ancestor of a join point has n >= 1 by construction.
    """
    index = process.index
    divisors = _divisors(index, config)
    node_weights = [Fraction(1)] * len(divisors)
    weights: dict[ActivityPath, Fraction] = {}
    for rank in range(1, len(divisors)):
        n = divisors[index.parents[rank]]
        node_weights[rank] = node_weights[index.parents[rank]] / n if n else Fraction(0)
        if is_join_point(index.activities[rank], config):
            weights[index.paths[rank]] = node_weights[rank]
    return weights


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
