"""Static adaptability analysis for aspect-oriented BPEL service compositions.

Parses a process and its aspect files, binds pointcuts to join-point
activities, and computes the process adaptability metric (PAM) by
aggregating per-activity variability degrees through the structured
constructs of the process tree.

The public names below load on first use (PEP 562), so importing the
package, or one submodule of it, loads no other submodule.
"""

__version__ = "0.1.0"

# Each submodule and the public names it defines.
_EXPORTS = {
    "errors": (
        "AdaptMeterError",
        "BadAdviceType",
        "ConfigError",
        "MalformedXml",
        "MissingPointcut",
        "NotAJoinPoint",
        "ReferenceTooSmall",
        "SelectorSyntax",
        "StructuralError",
        "UnsupportedElement",
    ),
    "matching": ("JoinPointBinding", "VariabilityProfile", "bind_aspects", "match_selector"),
    "metrics": (
        "MetricsResult",
        "NodeVD",
        "join_point_weights",
        "linear_weight_oracle",
        "process_adaptability",
        "variability_degree",
        "variability_value",
    ),
    "model": (
        "ADVICE_TYPES",
        "BASIC_KINDS",
        "STRUCTURED_KINDS",
        "Activity",
        "ActivityPath",
        "AnalysisConfig",
        "BranchLabel",
        "ProcessModel",
        "find_join_points",
        "is_join_point",
        "iter_activities",
        "resolve_path",
    ),
    "parsing": ("Aspect", "Pointcut", "load_aspects", "parse_aspect", "parse_process", "serialize_process"),
    "selectors": ("PointcutSelector", "SelectorStep", "parse_selector", "render_selector"),
    "sweep": (
        "SweepCase",
        "SweepResult",
        "VariabilitySlot",
        "enumerate_slots",
        "exhaustive_sweep",
        "run_sweep",
        "sweep_case",
    ),
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
