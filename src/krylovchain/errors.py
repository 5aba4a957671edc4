"""Exception types shared across the package, and the field rules that raise ParameterError.

A dataclass declares what each field accepts with `param(rule)`, and
`check_fields` applies the rules in field order.  The config schema is
read from the same fields.
"""

import numbers
import sys
from dataclasses import MISSING, field, fields
from typing import Any, Callable, NamedTuple


class KrylovChainError(Exception):
    """Base class for all package errors."""


class ParameterError(KrylovChainError, ValueError):
    """A constructor argument is invalid; `name` is its field, or None when no single field is at fault."""

    def __init__(self, name, detail):
        self.name = name
        self.detail = detail
        super().__init__(f"{name}: {detail}" if name else detail)


class Rule(NamedTuple):
    """The values a field accepts: `ok` tests one, `want` describes them."""

    want: str
    ok: Callable[[Any], bool]

    def check(self, name: str, value: Any) -> None:
        if not self.ok(value):
            raise ParameterError(name, f"expected {self.want}")


def _real(v) -> bool:
    """A real number that a float holds finitely; a bool is not a number."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


NUMBER = Rule("number", _real)
POSITIVE = Rule("positive number", lambda v: _real(v) and v > 0)
NON_NEGATIVE = Rule("number >= 0", lambda v: _real(v) and v >= 0)
UNIT = Rule("number in (0, 1)", lambda v: _real(v) and 0 < v < 1)


def at_least(lo: int) -> Rule:
    return Rule(f"integer >= {lo}", lambda v: _real(v) and isinstance(v, numbers.Integral) and v >= lo)


def one_of(*names: str) -> Rule:
    return Rule("one of " + ", ".join(map(repr, names)), lambda v: isinstance(v, str) and v in names)


def param(rule: Rule, default: Any = MISSING):
    """A dataclass field whose values must satisfy `rule`."""
    return field(default=default, metadata={"rule": rule})


def check_fields(obj) -> None:
    """Raise ParameterError for the first field of a dataclass that breaks its rule."""
    for f in fields(obj):
        if "rule" in f.metadata:
            f.metadata["rule"].check(f.name, getattr(obj, f.name))


class SupportExceededError(KrylovChainError):
    """Coefficient requested beyond the finite support of a sequence."""

    def __init__(self, n, support):
        self.n = n
        self.support = support
        super().__init__(f"b_{n} requested but the sequence ends at n = {support}")


class InvalidMomentSequenceError(KrylovChainError):
    """Moment sequence fails Hankel positivity; `order` names the moment mu_{2*order}."""

    def __init__(self, order, detail=""):
        self.order = order
        msg = f"not a valid moment sequence: positivity fails at order {order}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class PrecisionExhaustedError(KrylovChainError):
    """Floating-point arithmetic ran out of precision during a conversion."""

    def __init__(self, order, detail=""):
        self.order = order
        msg = f"precision exhausted at order {order}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class InsufficientDataError(KrylovChainError):
    """Not enough coefficients or moments for the requested count."""


class ConvergenceError(KrylovChainError):
    """Continued fraction failed to converge; carries both trial values."""

    def __init__(self, value_a, value_b, detail=""):
        self.value_a = value_a
        self.value_b = value_b
        msg = f"no convergence: {value_a} vs {value_b}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class ResourceLimitError(KrylovChainError):
    """Active window hit max_active_size; reports the time reached."""

    def __init__(self, t_reached, max_active_size):
        self.t_reached = t_reached
        self.max_active_size = max_active_size
        super().__init__(
            f"active window exceeded max_active_size={max_active_size} at t={t_reached:.6g}"
        )


class StiffnessError(KrylovChainError):
    """Step size underflowed during adaptive integration."""

    def __init__(self, t, dt, detail=""):
        self.t = t
        self.dt = dt
        msg = f"step size underflow at t={t:.6g} (dt={dt:.3g})"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class CouplingOverflowError(KrylovChainError):
    """A coupling b_n that an evolve or a continued fraction needs is not a finite float; `n` names the first such."""

    def __init__(self, n, value, detail=None):
        self.n = n
        self.value = value
        detail = detail or f"the window cannot grow past site {n - 1}"
        super().__init__(f"coupling b_{n} = {value} is not finite: {detail}")


class WindowError(KrylovChainError):
    """Fit window selects too few samples or none at all."""


class ArtifactError(KrylovChainError, ValueError):
    """A series artifact is missing or malformed; the message names the file."""

    def __init__(self, path, detail):
        super().__init__(f"series artifact {path}: {detail}")


class OrderingError(KrylovChainError):
    """Trajectory samples are not time ordered."""


class SchemaError(KrylovChainError):
    """Run configuration fails validation; `pointer` is a JSON pointer path."""

    def __init__(self, pointer, detail):
        self.pointer = pointer
        self.detail = detail
        super().__init__(f"config error at {pointer}: {detail}")


class UnsupportedFamilyError(KrylovChainError):
    """Reference asymptotics requested for an unknown family."""
