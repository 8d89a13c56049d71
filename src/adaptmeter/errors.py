"""Exception types used across the package."""

from __future__ import annotations


class AdaptMeterError(Exception):
    """Base class for all adapt-meter errors.

    ``line`` is the 1-based source line of the offending construct when
    it is known; ``source`` is filled in by whoever knows the file name
    (typically the CLI) so diagnostics can be rendered as
    ``file:line: message``.
    """

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line
        self.source: str | None = None


class MalformedXml(AdaptMeterError):
    """Input is not well-formed XML."""


class UnsupportedElement(AdaptMeterError):
    """An element outside the supported process/aspect grammar."""


class StructuralError(AdaptMeterError):
    """Well-formed XML that violates the process or aspect structure."""


class MissingPointcut(AdaptMeterError):
    """Aspect declares no pointcut."""


class BadAdviceType(AdaptMeterError):
    """Advice type outside before/around/after."""


class SelectorSyntax(AdaptMeterError):
    """Pointcut selector text outside the supported grammar."""


class ConfigError(AdaptMeterError):
    """Invalid analysis configuration value."""


class ReferenceTooSmall(AdaptMeterError):
    """Observed variability value exceeds the configured reference value."""
