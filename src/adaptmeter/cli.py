"""Command-line interface: analyze, sweep, and compare.

Exit codes: 0 success, 1 input or configuration error, 2 I/O error.
Warnings go to standard error; reports go to standard output; a closed
stream never changes the exit status. The ADAPT_METER_NO_COLOR
environment variable disables ANSI styling.
"""

from __future__ import annotations

import errno
import gc
import os
import sys
from pathlib import Path
from types import SimpleNamespace

from .errors import AdaptMeterError, ConfigError
from .model import _ONE_LINE, AnalysisConfig
from .parsing import _load, load_aspects, parse_process

# Each subcommand imports the layers it runs inside its own function, so
# a process loads only the modules its subcommand needs. argparse too is
# imported only when a command line needs it (see main()).


class _ArgumentError(Exception):
    pass


def _use_color() -> bool:
    return sys.stdout is not None and sys.stdout.isatty() and "ADAPT_METER_NO_COLOR" not in os.environ


def _build_config(args) -> AnalysisConfig:
    kinds = frozenset(kind.strip() for kind in args.join_points.split(",") if kind.strip())
    return AnalysisConfig(
        reference_value=args.reference_value,
        join_point_kinds=kinds,
        count_mode=args.count_mode,
        include_disabled_aspects=args.include_disabled,
    )


def _write(stream, text: str) -> None:
    """Write text to a standard stream in one write, so a closed stream never changes the exit status.

    A stream that was closed before the process started is None and is
    skipped. A reader may close the pipe before the text ends (``| head``);
    then the write or its flush fails with EPIPE. A descriptor open only
    for reading, as ``2>&-`` can leave it under a shell-script launcher,
    fails with EBADF. Either way the stream's file descriptor is pointed
    at os.devnull so the flush at exit stays silent, buffered or not.
    """
    if stream is None or not text:
        return
    try:
        stream.write(text)
        stream.flush()
    except OSError as exc:
        if not (isinstance(exc, BrokenPipeError) or exc.errno == errno.EBADF):
            raise
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)


def _diagnose(label: str, messages) -> None:
    """Write each message to standard error as one ``label: message`` line."""
    _write(sys.stderr, "".join(f"{label}: {message.translate(_ONE_LINE)}\n" for message in messages))


def _measure(process, aspects, config: AnalysisConfig):
    """The metric of ``process`` with ``aspects`` bound; the binding profile is freed on return."""
    from .matching import bind_aspects
    from .metrics import process_adaptability

    return process_adaptability(process, bind_aspects(process, aspects, config), config)


def _cmd_analyze(args) -> int:
    from .report import render_json, render_text

    config = _build_config(args)
    process = _load(Path(args.process), parse_process)
    aspects, notes = load_aspects(args.aspects)
    result = _measure(process, aspects, config)
    del aspects  # no report reads them
    _diagnose("warning", [*notes, *result.warnings])
    if args.format == "json":
        del process  # the JSON report reads only the result
        report = render_json(result)
    else:
        report = render_text(result, process, color=_use_color())
    _write(sys.stdout, report + "\n")
    return 0


def _cmd_sweep(args) -> int:
    if args.cases < 1:
        raise ConfigError("--cases must be >= 1")
    from .report import exhaustive_csv, sweep_csv
    from .sweep import exhaustive_sweep, run_sweep

    config = _build_config(args)
    process = _load(Path(args.process), parse_process)
    if args.exhaustive:
        text = exhaustive_csv(exhaustive_sweep(process, config))
    else:
        text = sweep_csv(run_sweep(process, args.cases, args.seed, config))
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        _write(sys.stdout, text)
    return 0


def _cmd_compare(args) -> int:
    from .report import render_compare_json, render_compare_text

    config = _build_config(args)
    left_process = _load(Path(args.process_a), parse_process)
    right_process = _load(Path(args.process_b), parse_process)
    left_aspects, left_notes = load_aspects(args.aspects)
    right_aspects, right_notes = (
        (left_aspects, left_notes) if args.aspects2 is None else load_aspects(args.aspects2)
    )
    left = _measure(left_process, left_aspects, config)
    right = _measure(right_process, right_aspects, config)
    # Neither report reads the inputs.
    del left_process, right_process, left_aspects, right_aspects
    _diagnose("warning", [f"left: {message}" for message in (*left_notes, *left.warnings)]
              + [f"right: {message}" for message in (*right_notes, *right.warnings)])
    if args.format == "json":
        report = render_compare_json(left, right, args.process_a, args.process_b)
    else:
        report = render_compare_text(left, right, args.process_a, args.process_b, color=_use_color())
    _write(sys.stdout, report + "\n")
    return 0


# Every subcommand's arguments, in the order its help lists them: a name
# and the keywords that argparse.add_argument takes for it. A name that
# does not start with "-" is a positional. Both build_parser() and
# _read_canonical() read this one table.
_CONFIG_OPTIONS = (
    ("--reference-value", dict(type=int, default=3, metavar="N",
                               help="per-activity advice maximum R (default 3)")),
    ("--join-points", dict(default="invoke,receive,reply", metavar="KINDS",
                           help="comma-separated basic kinds that accept advice")),
    ("--count-mode", dict(choices=("set", "raw-clamped"), default="set",
                          help="how repeated advice types at one join point count")),
    ("--include-disabled", dict(action="store_true", default=False,
                                help="bind aspects marked enabled=\"false\" too")),
)
_FORMAT_OPTION = ("--format", dict(choices=("text", "json"), default="text"))
_PROCESS = ("process", dict(help="process file (.bpel or .xml)"))

# subcommand: (help, handler, arguments)
_COMMANDS = {
    "analyze": ("compute the adaptability of one process", _cmd_analyze, (
        _PROCESS,
        ("--aspects", dict(action="append", default=[], metavar="PATH",
                           help="aspect file, or directory of *.xml aspect files (repeatable)")),
        *_CONFIG_OPTIONS,
        _FORMAT_OPTION,
    )),
    "sweep": ("chart PAM as variabilities are added one by one", _cmd_sweep, (
        _PROCESS,
        ("--cases", dict(type=int, default=3, metavar="K",
                         help="number of random placement orders (default 3)")),
        ("--seed", dict(type=int, default=42, metavar="S",
                        help="seed for the placement orders (default 42)")),
        ("--exhaustive", dict(action="store_true", default=False,
                              help="emit min/mean/max over every slot subset")),
        ("--out", dict(metavar="FILE", help="write CSV to FILE instead of standard output")),
        *_CONFIG_OPTIONS,
    )),
    "compare": ("compare the adaptability of two processes", _cmd_compare, (
        ("process_a", dict(help="left process file")),
        ("process_b", dict(help="right process file")),
        ("--aspects", dict(action="append", default=[], metavar="PATH",
                           help="aspects for the left process (and the right, unless --aspects2)")),
        ("--aspects2", dict(action="append", default=None, metavar="PATH",
                            help="aspects for the right process")),
        *_CONFIG_OPTIONS,
        _FORMAT_OPTION,
    )),
}


def build_parser():
    """The argparse parser for every command line, built from ``_COMMANDS``."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        # argparse exits with status 2 on bad usage; 2 is reserved for I/O
        # errors here, so raise and let main() return 1 instead.
        def error(self, message):
            raise _ArgumentError(f"{self.prog}: {message}")

        # Help and usage go through the same writer as reports.
        def _print_message(self, message, file=None):
            _write(file, message)

    parser = _Parser(prog="adapt-meter",
                     description="Static adaptability analysis for aspect-oriented BPEL processes")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, handler, arguments) in _COMMANDS.items():
        subparser = sub.add_parser(command, help=help_text)
        for name, keywords in arguments:
            subparser.add_argument(name, **keywords)
        subparser.set_defaults(func=handler)
    return parser


def _read_canonical(argv: list[str]) -> SimpleNamespace | None:
    """The namespace ``build_parser().parse_args(argv)`` returns, if argv is canonical; else None.

    Canonical means a subcommand, then its positionals and exact long
    options in any order, each option followed by its value if it takes
    one, where no value or positional starts with "-" and every value
    converts and is among its choices. Help, abbreviations, ``--opt=value``,
    ``--``, dash-leading values and every error are left to argparse.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, handler, arguments = _COMMANDS[argv[0]]
    options = {name: keywords for name, keywords in arguments if name.startswith("-")}
    positionals = [name for name, _ in arguments if not name.startswith("-")]
    values = {name[2:].replace("-", "_"): keywords.get("default") for name, keywords in options.items()}
    words = []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            words.append(token)
            continue
        keywords = options.get(token)
        if keywords is None:
            return None
        dest = token[2:].replace("-", "_")
        action = keywords.get("action")
        if action == "store_true":
            values[dest] = True
            continue
        value = next(tokens, "-")  # a missing value is left to argparse too
        if value.startswith("-"):
            return None
        if action == "append":
            values[dest] = [*(values[dest] or ()), value]
            continue
        if "type" in keywords:
            try:
                value = keywords["type"](value)
            except ValueError:
                return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        values[dest] = value
    if len(words) != len(positionals):
        return None
    values.update(zip(positionals, words))
    return SimpleNamespace(command=argv[0], func=handler, **values)


def _format_error(error: AdaptMeterError) -> str:
    message = str(error)
    if error.source and error.line:
        return f"{error.source}:{error.line}: {message}"
    if error.source:
        return f"{error.source}: {message}"
    return message


def main(argv: list[str] | None = None) -> int:
    """Run one command line (``sys.argv[1:]`` by default); return its exit code.

    A canonical command line is read without importing argparse or
    building its parser. argparse reads every other command line, so help,
    abbreviations and usage errors read exactly as before.
    """
    if argv is None:
        argv = sys.argv[1:]
    args = _read_canonical(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except _ArgumentError as exc:
            _diagnose("error", [str(exc)])
            return 1
    try:
        return args.func(args)
    except AdaptMeterError as exc:
        _diagnose("error", [_format_error(exc)])
        return 1
    except OSError as exc:
        _diagnose("error", [str(exc)])
        return 2


def run() -> int:
    """Process entry point: ``main()`` with the cyclic collector off, then freeze the heap.

    Standard output writes characters its encoding lacks as backslash
    escapes, as Python already does on standard error. A command makes no
    cycles that grow with its input, so the collector stays off while it
    runs. Freezing then moves every live object to the permanent
    generation, so the collections run at interpreter exit have nothing to
    traverse, and the collector is put back as it was; atexit handlers and
    the flushing of standard output and error still run. In-process
    callers use ``main()``, which leaves the streams and the collector alone.
    """
    if sys.stdout is not None:
        sys.stdout.reconfigure(errors="backslashreplace")
    enabled = gc.isenabled()
    gc.disable()
    try:
        status = main()
        gc.freeze()
    finally:
        if enabled:
            gc.enable()
    return status


if __name__ == "__main__":
    raise SystemExit(run())
