"""Static adaptability analysis for aspect-oriented BPEL service compositions.

Parses a process and its aspect files, binds pointcuts to join-point
activities, and computes the process adaptability metric (PAM) by
aggregating per-activity variability degrees through the structured
constructs of the process tree.
"""

__version__ = "0.1.0"

from .errors import (
    AdaptMeterError,
    BadAdviceType,
    ConfigError,
    MalformedXml,
    MissingPointcut,
    NotAJoinPoint,
    ReferenceTooSmall,
    SelectorSyntax,
    StructuralError,
    SweepLimitError,
    UnsupportedElement,
)
from .matching import JoinPointBinding, VariabilityProfile, bind_aspects, match_selector
from .metrics import (
    MetricsResult,
    NodeVD,
    join_point_weights,
    linear_weight_oracle,
    process_adaptability,
    variability_degree,
    variability_value,
)
from .model import (
    ADVICE_TYPES,
    BASIC_KINDS,
    STRUCTURED_KINDS,
    Activity,
    ActivityPath,
    AnalysisConfig,
    BranchLabel,
    ProcessModel,
    find_join_points,
    is_join_point,
    iter_activities,
    resolve_path,
)
from .parsing import Aspect, Pointcut, parse_aspect, parse_process, serialize_process
from .selectors import PointcutSelector, SelectorStep, parse_selector, render_selector
from .sweep import (
    SweepCase,
    SweepResult,
    VariabilitySlot,
    enumerate_slots,
    exhaustive_sweep,
    run_sweep,
    sweep_case,
)

__all__ = [
    "ADVICE_TYPES",
    "Activity",
    "ActivityPath",
    "AdaptMeterError",
    "AnalysisConfig",
    "Aspect",
    "BASIC_KINDS",
    "BadAdviceType",
    "BranchLabel",
    "ConfigError",
    "JoinPointBinding",
    "MalformedXml",
    "MetricsResult",
    "MissingPointcut",
    "NodeVD",
    "NotAJoinPoint",
    "Pointcut",
    "PointcutSelector",
    "ProcessModel",
    "ReferenceTooSmall",
    "STRUCTURED_KINDS",
    "SelectorStep",
    "SelectorSyntax",
    "StructuralError",
    "SweepCase",
    "SweepLimitError",
    "SweepResult",
    "UnsupportedElement",
    "VariabilityProfile",
    "VariabilitySlot",
    "bind_aspects",
    "enumerate_slots",
    "exhaustive_sweep",
    "find_join_points",
    "is_join_point",
    "iter_activities",
    "join_point_weights",
    "linear_weight_oracle",
    "match_selector",
    "parse_aspect",
    "parse_process",
    "parse_selector",
    "process_adaptability",
    "render_selector",
    "resolve_path",
    "run_sweep",
    "serialize_process",
    "sweep_case",
    "variability_degree",
    "variability_value",
]
