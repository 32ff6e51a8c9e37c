"""Semantic exceptions shared across the package, and the integer rule."""

import numbers


class TotalCorrError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(TotalCorrError, ValueError):
    """An argument violates a documented precondition."""


def check_positive_int(name: str, value) -> int:
    """``value`` as an int if it is an integer >= 1: a Python or numpy integer,
    never a bool or a float. Anything else raises ParameterError by ``name``."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < 1:
        raise ParameterError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


class TrainingError(TotalCorrError, RuntimeError):
    """Training produced a non-finite or otherwise unusable state.

    Carries enough context (estimator kind, step, term) to locate the
    failing update in a long run. A layer that catches it sets the field it
    knows and re-raises it; the message is rendered from the fields.
    """

    def __init__(self, message, *, kind=None, step=None, term=None):
        super().__init__(message)
        self.kind = kind
        self.step = step
        self.term = term

    def __str__(self):
        tags = [
            f"{name}={value}"
            for name, value in (("estimator", self.kind), ("term", self.term), ("step", self.step))
            if value is not None
        ]
        return f"{self.args[0]} [{', '.join(tags)}]" if tags else self.args[0]


class TraceParseError(TotalCorrError, ValueError):
    """A trace or metrics CSV is malformed; names the offending line."""

    def __init__(self, path, line_number, message):
        super().__init__(f"{path}: line {line_number}: {message}")
        self.path = str(path)
        self.line_number = line_number


class ConfigError(TotalCorrError, ValueError):
    """An experiment config file is missing, unreadable, or invalid."""
