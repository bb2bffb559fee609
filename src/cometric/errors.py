"""Exception hierarchy shared by every module.

All failures raised by this package derive from :class:`GeometryError`, so the
CLI (and embedding code) can distinguish "the computation rejected its input or
degraded" from a genuine bug.
"""

from __future__ import annotations


class GeometryError(Exception):
    """Base class for every error raised by this package."""


class ConfigurationError(GeometryError):
    """A spec object (kernel parameters, file contents, CLI input) is invalid."""


class ParseError(ConfigurationError):
    """An expression failed to parse.

    Carries the byte offset of the offending token in ``offset``.
    """

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class DomainEvaluationError(GeometryError):
    """An expression was evaluated outside its domain (log of a nonpositive
    number, division by zero, ...)."""


class MetricDegeneracyError(GeometryError):
    """A (co)metric matrix that must be symmetric positive definite is not."""


class DegenerateConfigurationError(GeometryError):
    """A point configuration violates a distinctness requirement
    (coincident landmarks/samples)."""


class ConditioningError(GeometryError):
    """A linear solve required by an operation is too ill-conditioned to
    trust."""


class DivergenceError(GeometryError):
    """A trajectory blew up (NaN/Inf or norm growth beyond bound).

    ``t_last`` is the time of the last state that passed the check, the one
    before the first failing state (0 when the first step already fails, and
    when the initial state itself is beyond the bound).  Every integration
    route reports it the same way.
    """

    def __init__(self, message: str, t_last: float) -> None:
        super().__init__(f"{message} (last finite t={t_last:.6g})")
        self.t_last = t_last
