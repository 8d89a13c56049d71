"""Report rendering: text, JSON, and the sweep CSVs.

Text shows four decimal places plus the exact rational when it is not
an integer, so display rounding never hides precision. JSON carries the
full-precision float and the exact rational string; both views come
from the same MetricsResult and cannot disagree.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING

from . import __version__
from .model import one_line, path_order

if TYPE_CHECKING:
    from .metrics import MetricsResult, NodeVD
    from .model import ProcessModel
    from .sweep import SweepCase

SCHEMA_VERSION = "1"

_BOLD = "\x1b[1m"
_RESET = "\x1b[0m"


def format_vd(value: Fraction, signed: bool = False) -> str:
    """``0.2917 (7/24)`` style: 4 decimals, rational appended when inexact."""
    text = f"{float(value):+.4f}" if signed else f"{float(value):.4f}"
    if value.denominator > 1:
        text += f" ({value})"
    return text


def _node_detail(node: NodeVD) -> str:
    detail = f"vd={format_vd(node.vd)}"
    if node.join_point:
        detail += f"  vv={node.vv} *"
    elif node.n_used is not None:
        detail += f"  n={node.n_used}"
    return detail


def render_text(result: MetricsResult, process: ProcessModel, color: bool = False) -> str:
    """Human-readable report of a result computed on ``process``; ends with the PAM line."""
    config = result.config_used
    lines = [
        one_line(f"process: {result.process_name}"),
        f"reference value (R): {config.reference_value}",
        f"join-point kinds: {', '.join(sorted(config.join_point_kinds))}",
        f"count mode: {config.count_mode}",
        "",
    ]
    # Few nodes differ in (vd, vv, n_used), so each detail is formatted once,
    # keyed by integers: hashing a Fraction costs more than formatting it.
    details: dict[tuple, str] = {}
    labels, rows = [], []
    # A result's nodes follow the ranks of the process index.
    for node, activity in zip(result.nodes, process.index.activities):
        key = (node.vd.numerator, node.vd.denominator, node.vv, node.n_used)
        detail = details.get(key)
        if detail is None:
            detail = details[key] = _node_detail(node)
        # The root's path holds two slashes; each level below it indents two spaces.
        label = "  " * (node.path.count("/") - 2) + node.path.rpartition("/")[2]
        name = activity.name
        if name:
            label += f" '{one_line(name)}'"
        labels.append(label)
        rows.append(detail)
    width = max(map(len, labels)) + 2
    lines += [f"{label:<{width}}{detail}" for label, detail in zip(labels, rows)]
    lines.append("(* join point)")
    lines.append("")
    pam_line = f"PAM = {format_vd(result.pam)}"
    if color:
        pam_line = f"{_BOLD}{pam_line}{_RESET}"
    lines.append(pam_line)
    return "\n".join(lines)


def _node_entry(node: NodeVD) -> dict:
    return {
        "path": node.path,
        "kind": node.kind,
        "join_point": node.join_point,
        "vv": node.vv,
        "vd": float(node.vd),
        "n_used": node.n_used,
    }


def _json(fields: dict) -> str:
    """A JSON document: the schema and tool versions, then ``fields``."""
    import json

    return json.dumps({"schema_version": SCHEMA_VERSION, "tool_version": __version__, **fields}, indent=2)


def render_json(result: MetricsResult) -> str:
    return _json({
        "process": result.process_name,
        "pam": float(result.pam),
        "pam_exact": str(result.pam),
        "reference_value": result.config_used.reference_value,
        "nodes": [_node_entry(node) for node in result.nodes],
        "warnings": list(result.warnings),
    })


def _compare_rows(left: MetricsResult, right: MetricsResult) -> list[dict]:
    """One JSON-ready row per join point of either side, in pre-order: its path,
    then the left and right VDs and their exact difference as floats, each
    None where a side lacks the join point."""
    left_vds, right_vds = ({node.path: node.vd for node in result.nodes if node.join_point}
                           for result in (left, right))
    rows = []
    for path in sorted(left_vds.keys() | right_vds.keys(), key=path_order):
        left_vd = left_vds.get(path)
        right_vd = right_vds.get(path)
        delta = right_vd - left_vd if left_vd is not None and right_vd is not None else None
        rows.append({"path": path, "left_vd": _float(left_vd), "right_vd": _float(right_vd),
                     "delta": _float(delta)})
    return rows


def _float(value: Fraction | None) -> float | None:
    return None if value is None else float(value)


def _cell(value: float | None, spec: str = ".4f") -> str:
    return "-" if value is None else format(value, spec)


def render_compare_text(
    left: MetricsResult, right: MetricsResult, left_source: str, right_source: str, color: bool = False
) -> str:
    delta = right.pam - left.pam
    lines = [
        one_line(f"left:  {left.process_name}  PAM = {format_vd(left.pam)}  [{left_source}]"),
        one_line(f"right: {right.process_name}  PAM = {format_vd(right.pam)}  [{right_source}]"),
    ]
    delta_line = f"delta (right - left) = {format_vd(delta, signed=True)}"
    if color:
        delta_line = f"{_BOLD}{delta_line}{_RESET}"
    lines.append(delta_line)
    rows = _compare_rows(left, right)
    if rows:
        lines.append("")
        width = max(len(row["path"]) for row in rows) + 2
        lines.append(f"{'join point':<{width}}{'left':<10}{'right':<10}delta")
        for row in rows:
            lines.append(f"{row['path']:<{width}}{_cell(row['left_vd']):<10}{_cell(row['right_vd']):<10}"
                         f"{_cell(row['delta'], '+.4f')}")
    return "\n".join(lines)


def render_compare_json(
    left: MetricsResult, right: MetricsResult, left_source: str, right_source: str
) -> str:
    def side(result: MetricsResult, source: str) -> dict:
        return {
            "process": result.process_name,
            "source": source,
            "pam": float(result.pam),
            "pam_exact": str(result.pam),
            "warnings": list(result.warnings),
        }

    delta = right.pam - left.pam
    return _json({
        "left": side(left, left_source),
        "right": side(right, right_source),
        "delta": float(delta),
        "delta_exact": str(delta),
        "join_points": _compare_rows(left, right),
    })


def sweep_csv(cases: tuple[SweepCase, ...]) -> str:
    """Plot-ready series: one row per (case, count), sorted; a case's id is its position."""
    lines = ["case_id,count,pam"]
    for case_id, case in enumerate(cases):
        for count, pam in enumerate(case.series):
            lines.append(f"{case_id},{count},{float(pam):.6f}")
    return "\n".join(lines) + "\n"


def exhaustive_csv(rows: list[tuple[Fraction, Fraction, Fraction]]) -> str:
    """One row per count: the min, mean and max PAM over that many slots."""
    lines = ["count,min_pam,mean_pam,max_pam"]
    for count, (low, mean, high) in enumerate(rows):
        lines.append(f"{count},{float(low):.6f},{float(mean):.6f},{float(high):.6f}")
    return "\n".join(lines) + "\n"
