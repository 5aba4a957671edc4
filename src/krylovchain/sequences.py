"""Lanczos-coefficient sequences.

Every dynamics handled by this package is defined by a sequence of
positive hopping amplitudes b_1, b_2, ... (units of energy).  A sequence
is either one of the closed-form model families below or an explicit
finite list.  Finite-support sequences (Su2, Explicit) have b_n = 0
beyond their support; evaluating them there raises SupportExceededError
so silent zeros never leak into formulas that expect b_n > 0.

All sequence types are frozen dataclasses: immutable after construction
and safe to share across workers.  Each field declares the values it
accepts (see errors.param), and every family also requires b_1 to be
positive and finite; a violation raises ParameterError, a ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import (
    NUMBER,
    POSITIVE,
    UNIT,
    ParameterError,
    Rule,
    SupportExceededError,
    at_least,
    check_fields,
    param,
)

__all__ = [
    "LanczosSequence",
    "Linear",
    "SykLike",
    "SqrtGrowth",
    "Su2",
    "PowerLaw",
    "PowerLog",
    "LogCorrectedLinear",
    "LogGrowth",
    "Constant",
    "ConstantWithFirst",
    "Explicit",
    "StitchedSequence",
    "eval_bn",
]

_POSITIVE_LIST = Rule(
    "non-empty list of positive numbers",
    lambda v: isinstance(v, (list, tuple)) and len(v) >= 1 and all(map(POSITIVE.ok, v)),
)
HALF_INTEGER = Rule(
    "positive integer or half integer", lambda v: POSITIVE.ok(v) and float(2 * v).is_integer()
)


class LanczosSequence:
    """Base class; concrete families implement _b_bulk on float arrays."""

    def __post_init__(self):
        check_fields(self)
        v = float(self._bulk(np.asarray([1.0]))[0])
        if not (v > 0.0 and math.isfinite(v)):
            raise ParameterError(None, f"{type(self).__name__}: b_1 = {v} is not a positive finite value")

    @property
    def support(self) -> Optional[int]:
        """Largest n with b_n > 0, or None for semi-infinite sequences."""
        return None

    def _b_bulk(self, n: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def b(self, n: int) -> float:
        """Coefficient b_n for n >= 1; raises beyond finite support."""
        if n < 1:
            raise ValueError(f"coefficient index must be >= 1, got {n}")
        sup = self.support
        if sup is not None and n > sup:
            raise SupportExceededError(n, sup)
        return float(self._bulk(np.asarray([n], dtype=float))[0])

    def b_array(self, count: int, start: int = 1) -> np.ndarray:
        """b_start .. b_{start+count-1} as a float array, zero padded beyond finite support."""
        if count < 0:
            raise ValueError("count must be >= 0")
        if start < 1:
            raise ValueError(f"coefficient index must be >= 1, got {start}")
        sup = self.support
        hi = count if sup is None else min(count, max(sup - start + 1, 0))
        out = np.zeros(count)
        if hi > 0:
            out[:hi] = self._bulk(np.arange(float(start), start + hi))
        return out

    def _bulk(self, n: np.ndarray) -> np.ndarray:
        """_b_bulk without numpy's warnings: a b_n past the float range is inf or nan."""
        with np.errstate(all="ignore"):
            return self._b_bulk(n)


@dataclass(frozen=True)
class Linear(LanczosSequence):
    """b_n = alpha*n + gamma (asymptotically linear growth)."""

    alpha: float = param(POSITIVE)
    gamma: float = param(NUMBER, 0.0)

    def _b_bulk(self, n):
        return self.alpha * n + self.gamma


@dataclass(frozen=True)
class SykLike(LanczosSequence):
    """b_n = alpha*sqrt(n*(n - 1 + eta)), eta > 0."""

    alpha: float = param(POSITIVE)
    eta: float = param(POSITIVE)

    def _b_bulk(self, n):
        return self.alpha * np.sqrt(n * (n - 1.0 + self.eta))


@dataclass(frozen=True)
class SqrtGrowth(LanczosSequence):
    """b_n = alpha*sqrt(n)."""

    alpha: float = param(POSITIVE)

    def _b_bulk(self, n):
        return self.alpha * np.sqrt(n)


@dataclass(frozen=True)
class Su2(LanczosSequence):
    """b_n = alpha*sqrt(n*(2j - n + 1)) on the finite support 1 <= n <= 2j."""

    alpha: float = param(POSITIVE)
    j: float = param(HALF_INTEGER)

    @property
    def two_j(self) -> int:
        return int(round(2.0 * self.j))

    @property
    def support(self):
        return self.two_j

    def _b_bulk(self, n):
        return self.alpha * np.sqrt(n * (self.two_j - n + 1.0))


@dataclass(frozen=True)
class PowerLaw(LanczosSequence):
    """b_n = alpha*n**delta with 0 < delta < 1."""

    alpha: float = param(POSITIVE)
    delta: float = param(UNIT)

    def _b_bulk(self, n):
        return self.alpha * n ** self.delta


@dataclass(frozen=True)
class PowerLog(LanczosSequence):
    """b_n = alpha*n**delta * ln(n+1)**sign, sign = +1 or -1 (not a bool).

    The logarithm uses n+1 so that b_1 stays positive and finite.
    """

    alpha: float = param(POSITIVE)
    delta: float = param(UNIT)
    sign: int = param(Rule("+1 or -1", lambda v: NUMBER.ok(v) and v in (1, -1)))

    def _b_bulk(self, n):
        return self.alpha * n ** self.delta * np.log(n + 1.0) ** self.sign


@dataclass(frozen=True)
class LogCorrectedLinear(LanczosSequence):
    """b_n = alpha*n / ln(n + offset)**sigma, sigma > 0."""

    alpha: float = param(POSITIVE)
    sigma: float = param(POSITIVE, 1.0)
    offset: int = param(at_least(0), 1)

    def _b_bulk(self, n):
        return self.alpha * n / np.log(n + self.offset) ** self.sigma


@dataclass(frozen=True)
class LogGrowth(LanczosSequence):
    """b_n = alpha*ln(n + offset) + gamma0."""

    alpha: float = param(POSITIVE)
    gamma0: float = param(NUMBER, 0.0)
    offset: int = param(at_least(0), 1)

    def _b_bulk(self, n):
        return self.alpha * np.log(n + self.offset) + self.gamma0


@dataclass(frozen=True)
class Constant(LanczosSequence):
    """b_n = b for all n."""

    b_value: float = param(POSITIVE)

    def _b_bulk(self, n):
        return np.full(n.shape, self.b_value, dtype=float)


@dataclass(frozen=True)
class ConstantWithFirst(LanczosSequence):
    """b_1 = b_first, b_n = b for n >= 2."""

    b_first: float = param(POSITIVE)
    b_value: float = param(POSITIVE)

    def _b_bulk(self, n):
        return np.where(n < 1.5, float(self.b_first), float(self.b_value))


@dataclass(frozen=True)
class Explicit(LanczosSequence):
    """Finite chain defined by an explicit list b_1 .. b_K; b_n = 0 for n > K."""

    coefficients: Tuple[float, ...] = param(_POSITIVE_LIST)

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "coefficients", tuple(float(c) for c in self.coefficients))

    @property
    def support(self):
        return len(self.coefficients)

    def _b_bulk(self, n):
        idx = np.asarray(np.rint(n), dtype=int) - 1
        return np.asarray(self.coefficients, dtype=float)[idx]


@dataclass(frozen=True)
class StitchedSequence(LanczosSequence):
    """Explicit head continued by a parity-aware linear asymptote.

    b_n = head[n-1] for n <= len(head), and for n beyond the head

        b_n = alpha*n + gamma_parity + c_parity / n

    with separate (gamma, c) for even and odd n.  Used when only a finite
    number of coefficients is known exactly (e.g. from a moment problem)
    but the asymptotic slope is known.
    """

    head: Tuple[float, ...] = param(_POSITIVE_LIST)
    alpha: float = param(POSITIVE)
    gamma_even: float = param(NUMBER, 0.0)
    gamma_odd: float = param(NUMBER, 0.0)
    c_even: float = param(NUMBER, 0.0)
    c_odd: float = param(NUMBER, 0.0)

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "head", tuple(float(c) for c in self.head))

    def _b_bulk(self, n):
        k = np.asarray(np.rint(n), dtype=int)
        out = np.empty(k.shape, dtype=float)
        nh = len(self.head)
        head_mask = k <= nh
        if head_mask.any():
            out[head_mask] = np.asarray(self.head)[k[head_mask] - 1]
        tail = ~head_mask
        if tail.any():
            kt = k[tail].astype(float)
            even = (k[tail] % 2 == 0)
            gamma = np.where(even, self.gamma_even, self.gamma_odd)
            c = np.where(even, self.c_even, self.c_odd)
            out[tail] = self.alpha * kt + gamma + c / kt
        return out


def eval_bn(seq: LanczosSequence, n: int) -> float:
    """Coefficient b_n of a sequence; raises SupportExceededError past finite support."""
    return seq.b(n)
