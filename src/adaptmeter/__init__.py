"""Static adaptability analysis for aspect-oriented BPEL service compositions.

Parses a process and its aspect files, binds pointcuts to join-point
activities, and computes the process adaptability metric (PAM) by
aggregating per-activity variability degrees through the structured
constructs of the process tree.

The public names below load on first use (PEP 562), so importing the
package, or one submodule of it, loads no other submodule.
"""

__version__ = "0.1.0"

# The documented API (README, "Library use"), by the submodule that
# defines each name. Every other name imports from its own submodule.
_EXPORTS = {
    "errors": (
        "AdaptMeterError",
        "BadAdviceType",
        "ConfigError",
        "MalformedXml",
        "MissingPointcut",
        "ReferenceTooSmall",
        "SelectorSyntax",
        "StructuralError",
        "UnsupportedElement",
    ),
    "parsing": ("parse_process", "parse_aspect", "load_aspects"),
    "model": ("AnalysisConfig", "ProcessModel", "Activity"),
    "matching": ("bind_aspects",),
    "metrics": ("process_adaptability", "MetricsResult", "NodeVD"),
    "sweep": ("run_sweep", "exhaustive_sweep"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _SOURCE.keys())
