"""Report rendering: text, JSON, and the sweep CSVs.

Text shows four decimal places plus the exact rational when it is not
an integer, so display rounding never hides precision. JSON carries the
full-precision float and the exact rational string; both views come
from the same MetricsResult and cannot disagree.
"""

from __future__ import annotations

import json
from fractions import Fraction

from . import __version__
from .metrics import MetricsResult, NodeVD
from .model import ProcessModel
from .sweep import SweepResult

SCHEMA_VERSION = "1"

_BOLD = "\x1b[1m"
_RESET = "\x1b[0m"


def format_vd(value: Fraction, signed: bool = False) -> str:
    """``0.2917 (7/24)`` style: 4 decimals, rational appended when inexact."""
    text = f"{float(value):+.4f}" if signed else f"{float(value):.4f}"
    if value.denominator > 1:
        text += f" ({value})"
    return text


def _node_label(node: NodeVD, name: str | None) -> str:
    indent = "  " * (node.path.depth - 1)
    kind, index = node.path.steps[-1]
    label = f"{indent}{kind}[{index}]"
    if name:
        label += f" '{name}'"
    return label


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
        f"process: {result.process_name}",
        f"reference value (R): {config.reference_value}",
        f"join-point kinds: {', '.join(sorted(config.join_point_kinds))}",
        f"count mode: {config.count_mode}",
        "",
    ]
    # The VD walk and the process index are both in pre-order.
    nodes = list(result.root.walk())
    labels = [_node_label(node, activity.name) for node, activity in zip(nodes, process.index.activities)]
    width = max(len(label) for label in labels) + 2
    for label, node in zip(labels, nodes):
        lines.append(f"{label:<{width}}{_node_detail(node)}")
    lines.append("(* join point)")
    lines.append("")
    pam_line = f"PAM = {format_vd(result.pam)}"
    if color:
        pam_line = f"{_BOLD}{pam_line}{_RESET}"
    lines.append(pam_line)
    return "\n".join(lines)


def _node_entry(node: NodeVD) -> dict:
    return {
        "path": str(node.path),
        "kind": node.kind,
        "join_point": node.join_point,
        "vv": node.vv,
        "vd": float(node.vd),
        "n_used": node.n_used,
    }


def render_json(result: MetricsResult) -> str:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "process": result.process_name,
        "pam": float(result.pam),
        "pam_exact": str(result.pam),
        "reference_value": result.config_used.reference_value,
        "nodes": [_node_entry(node) for node in result.root.walk()],
        "warnings": list(result.warnings),
    }
    return json.dumps(payload, indent=2)


def _join_point_vds(result: MetricsResult) -> dict[str, tuple[Fraction, tuple]]:
    return {
        str(node.path): (node.vd, node.path.order_key)
        for node in result.root.walk()
        if node.join_point
    }


def _compare_rows(left: MetricsResult, right: MetricsResult) -> list[dict]:
    left_vds = _join_point_vds(left)
    right_vds = _join_point_vds(right)
    keys = {**left_vds, **right_vds}
    rows = []
    for path in sorted(keys, key=lambda p: keys[p][1]):
        left_vd = left_vds.get(path, (None,))[0]
        right_vd = right_vds.get(path, (None,))[0]
        delta = right_vd - left_vd if left_vd is not None and right_vd is not None else None
        rows.append({"path": path, "left_vd": left_vd, "right_vd": right_vd, "delta": delta})
    return rows


def render_compare_text(
    left: MetricsResult, right: MetricsResult, left_source: str, right_source: str, color: bool = False
) -> str:
    delta = right.pam - left.pam
    lines = [
        f"left:  {left.process_name}  PAM = {format_vd(left.pam)}  [{left_source}]",
        f"right: {right.process_name}  PAM = {format_vd(right.pam)}  [{right_source}]",
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
            left_text = f"{float(row['left_vd']):.4f}" if row["left_vd"] is not None else "-"
            right_text = f"{float(row['right_vd']):.4f}" if row["right_vd"] is not None else "-"
            delta_text = f"{float(row['delta']):+.4f}" if row["delta"] is not None else "-"
            lines.append(f"{row['path']:<{width}}{left_text:<10}{right_text:<10}{delta_text}")
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
    payload = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "left": side(left, left_source),
        "right": side(right, right_source),
        "delta": float(delta),
        "delta_exact": str(delta),
        "join_points": [
            {
                "path": row["path"],
                "left_vd": float(row["left_vd"]) if row["left_vd"] is not None else None,
                "right_vd": float(row["right_vd"]) if row["right_vd"] is not None else None,
                "delta": float(row["delta"]) if row["delta"] is not None else None,
            }
            for row in _compare_rows(left, right)
        ],
    }
    return json.dumps(payload, indent=2)


def sweep_csv(result: SweepResult) -> str:
    """Plot-ready series: one row per (case, count), sorted."""
    lines = ["case_id,count,pam"]
    for case in result.cases:
        for count, pam in case.series:
            lines.append(f"{case.case_id},{count},{float(pam):.6f}")
    return "\n".join(lines) + "\n"


def exhaustive_csv(rows: list[tuple[int, Fraction, Fraction, Fraction]]) -> str:
    lines = ["count,min_pam,mean_pam,max_pam"]
    for count, low, mean, high in rows:
        lines.append(f"{count},{float(low):.6f},{float(mean):.6f},{float(high):.6f}")
    return "\n".join(lines) + "\n"
