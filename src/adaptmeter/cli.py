"""Command-line interface: analyze, sweep, and compare.

Exit codes: 0 success, 1 input or configuration error, 2 I/O error.
Warnings go to standard error; reports go to standard output. The
ADAPT_METER_NO_COLOR environment variable disables ANSI styling.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .errors import AdaptMeterError, ConfigError, MalformedXml
from .matching import bind_aspects
from .metrics import process_adaptability
from .model import AnalysisConfig
from .parsing import Aspect, _aspect_from_node, _load_xml, parse_aspect, parse_process
from .report import exhaustive_csv, render_compare_json, render_compare_text, render_json, render_text, sweep_csv
from .sweep import exhaustive_sweep, run_sweep


class _ArgumentError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; 2 is reserved for I/O
    # errors here, so raise and let main() return 1 instead.
    def error(self, message):
        raise _ArgumentError(f"{self.prog}: {message}")


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--reference-value", type=int, default=3, metavar="N",
                        help="per-activity advice maximum R (default 3)")
    parser.add_argument("--join-points", default="invoke,receive,reply", metavar="KINDS",
                        help="comma-separated basic kinds that accept advice")
    parser.add_argument("--count-mode", choices=["set", "raw-clamped"], default="set",
                        help="how repeated advice types at one join point count")
    parser.add_argument("--include-disabled", action="store_true",
                        help="bind aspects marked enabled=\"false\" too")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="adapt-meter",
                     description="Static adaptability analysis for aspect-oriented BPEL processes")
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="compute the adaptability of one process")
    analyze.add_argument("process", help="process file (.bpel or .xml)")
    analyze.add_argument("--aspects", action="append", default=[], metavar="PATH",
                         help="aspect file, or directory of *.xml aspect files (repeatable)")
    _add_config_flags(analyze)
    analyze.add_argument("--format", choices=["text", "json"], default="text")
    analyze.set_defaults(func=_cmd_analyze)

    sweep = sub.add_parser("sweep", help="chart PAM as variabilities are added one by one")
    sweep.add_argument("process", help="process file (.bpel or .xml)")
    sweep.add_argument("--cases", type=int, default=3, metavar="K",
                       help="number of random placement orders (default 3)")
    sweep.add_argument("--seed", type=int, default=42, metavar="S",
                       help="seed for the placement orders (default 42)")
    sweep.add_argument("--exhaustive", action="store_true",
                       help="emit min/mean/max over every slot subset (small processes only)")
    sweep.add_argument("--out", metavar="FILE", help="write CSV to FILE instead of standard output")
    _add_config_flags(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    compare = sub.add_parser("compare", help="compare the adaptability of two processes")
    compare.add_argument("process_a", help="left process file")
    compare.add_argument("process_b", help="right process file")
    compare.add_argument("--aspects", action="append", default=[], metavar="PATH",
                         help="aspects for the left process (and the right, unless --aspects2)")
    compare.add_argument("--aspects2", action="append", default=None, metavar="PATH",
                         help="aspects for the right process")
    _add_config_flags(compare)
    compare.add_argument("--format", choices=["text", "json"], default="text")
    compare.set_defaults(func=_cmd_compare)

    return parser


def _use_color() -> bool:
    return sys.stdout.isatty() and "ADAPT_METER_NO_COLOR" not in os.environ


def _build_config(args: argparse.Namespace) -> AnalysisConfig:
    kinds = frozenset(kind.strip() for kind in args.join_points.split(",") if kind.strip())
    return AnalysisConfig(
        reference_value=args.reference_value,
        join_point_kinds=kinds,
        count_mode=args.count_mode,
        include_disabled_aspects=args.include_disabled,
    )


def _read_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        error = MalformedXml(f"not UTF-8 text: {exc}")
        error.source = str(path)
        raise error from exc


def _load_process(path_text: str):
    path = Path(path_text)
    text = _read_text(path)
    try:
        return parse_process(text)
    except AdaptMeterError as exc:
        exc.source = str(path)
        raise


def _load_aspects(path_args: list[str]) -> tuple[list[Aspect], list[str]]:
    """Expand --aspects arguments; directories are scanned non-recursively.

    In a directory, *.xml files without an <aspect> root are skipped,
    and unreadable XML (malformed, or not UTF-8) is skipped with a note;
    a file named directly must parse.
    """
    aspects: list[Aspect] = []
    notes: list[str] = []
    for raw in path_args:
        path = Path(raw)
        if path.is_dir():
            for candidate in sorted(path.glob("*.xml")):
                try:
                    node = _load_xml(_read_text(candidate))
                except MalformedXml as exc:
                    notes.append(f"skipping {candidate}: {exc}")
                    continue
                if node.tag != "aspect":
                    continue
                try:
                    aspects.append(_aspect_from_node(node))
                except AdaptMeterError as exc:
                    exc.source = str(candidate)
                    raise
        else:
            text = _read_text(path)
            try:
                aspects.append(parse_aspect(text))
            except AdaptMeterError as exc:
                exc.source = str(path)
                raise
    return aspects, notes


def _emit_warnings(messages, prefix: str = "") -> None:
    for message in messages:
        print(f"warning: {prefix}{message}", file=sys.stderr)


def _cmd_analyze(args: argparse.Namespace) -> int:
    config = _build_config(args)
    process = _load_process(args.process)
    aspects, notes = _load_aspects(args.aspects)
    profile = bind_aspects(process, aspects, config)
    result = process_adaptability(process, profile, config)
    _emit_warnings(notes)
    _emit_warnings(result.warnings)
    if args.format == "json":
        print(render_json(result))
    else:
        print(render_text(result, process, color=_use_color()))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.cases < 1:
        raise ConfigError("--cases must be >= 1")
    config = _build_config(args)
    process = _load_process(args.process)
    if args.exhaustive:
        text = exhaustive_csv(exhaustive_sweep(process, config))
    else:
        text = sweep_csv(run_sweep(process, args.cases, args.seed, config))
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    config = _build_config(args)
    left_process = _load_process(args.process_a)
    right_process = _load_process(args.process_b)
    left_aspects, left_notes = _load_aspects(args.aspects)
    right_paths = args.aspects2 if args.aspects2 is not None else args.aspects
    right_aspects, right_notes = _load_aspects(right_paths)
    left = process_adaptability(left_process, bind_aspects(left_process, left_aspects, config), config)
    right = process_adaptability(right_process, bind_aspects(right_process, right_aspects, config), config)
    _emit_warnings(left_notes, "left: ")
    _emit_warnings(left.warnings, "left: ")
    _emit_warnings(right_notes, "right: ")
    _emit_warnings(right.warnings, "right: ")
    if args.format == "json":
        print(render_compare_json(left, right, args.process_a, args.process_b))
    else:
        print(render_compare_text(left, right, args.process_a, args.process_b, color=_use_color()))
    return 0


def _format_error(error: AdaptMeterError) -> str:
    message = str(error)
    if error.source and error.line:
        return f"{error.source}:{error.line}: {message}"
    if error.source:
        return f"{error.source}: {message}"
    return message


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except _ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except AdaptMeterError as exc:
        print(f"error: {_format_error(exc)}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
