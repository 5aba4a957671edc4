"""Transformations between moments and Lanczos coefficients.

The even moments mu_0, mu_2, ... and the coefficients b_1, b_2, ... carry
the same information, but the map between them is nonlinear and
notoriously ill conditioned in floating point: roughly one decimal digit
is lost per coefficient.  Two arithmetic paths are provided:

* exact rationals (fractions.Fraction) whenever the inputs are rational;
  this path is authoritative and loses nothing;
* an mpmath path whose working precision scales with the requested count
  (the default), or plain float64 on request, which raises
  PrecisionExhaustedError when cancellation destroys positivity.

The production conversion runs the quotient-difference (Chebyshev)
recurrence on the even moments in O(K^2) operations; the
Hankel-determinant formula

    b_n^2 = D_{n-2} D_n / D_{n-1}^2,   D_{-1} = 1,

over the zero-interleaved moment sequence is kept alongside as the
independent oracle, and the two are required to agree.  The aerated
Hankel matrix is a checkerboard, so D_n = det H0 * det H1 factors into
leading minors of the Hankel matrices H0 = (mu_{2(i+j)}) and
H1 = (mu_{2(i+j+1)}), and one fraction-free (Bareiss) elimination of
each gives every D_n.  The reverse map sums weighted Dyck paths on the
sites that can still return to site 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Sequence, Tuple, Union

import mpmath as mp

from .errors import (
    InsufficientDataError,
    InvalidMomentSequenceError,
    PrecisionExhaustedError,
)

__all__ = [
    "MomentSequence",
    "LanczosConversion",
    "moments_to_lanczos",
    "lanczos_to_moments",
    "hankel_determinants",
    "lanczos_from_hankel",
]

Number = Union[Fraction, float]


@dataclass(frozen=True)
class MomentSequence:
    """Even moments mu_0, mu_2, ..., mu_{2K}; entries[k] is mu_{2k}.

    The entries are all Fractions when every value given is rational, and
    all floats otherwise; `exact` tells which.  mu_0 must equal 1
    (normalized initial operator).
    """

    entries: Tuple[Number, ...]

    def __post_init__(self):
        entries = tuple(self.entries)
        if len(entries) == 0:
            raise ValueError("a moment sequence needs at least mu_0")
        exact = all(isinstance(v, Rational) for v in entries)
        entries = tuple(Fraction(v) if exact else float(v) for v in entries)
        object.__setattr__(self, "entries", entries)
        if entries[0] != 1:
            raise ValueError(f"mu_0 must be 1, got {entries[0]}")

    @classmethod
    def from_values(cls, values: Sequence) -> "MomentSequence":
        return cls(entries=tuple(values))

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def exact(self) -> bool:
        return isinstance(self.entries[0], Fraction)


@dataclass(frozen=True)
class LanczosConversion:
    """Result of a moments -> coefficients conversion.

    b_squared holds b_n^2 (exact rationals in exact mode; square roots are
    only taken when reading `coefficients`).
    """

    b_squared: Tuple[Number, ...]
    mode: str  # "exact", "mp<digits>", or "double"

    @property
    def exact(self) -> bool:
        return self.mode == "exact"

    @property
    def coefficients(self) -> Tuple[float, ...]:
        return tuple(math.sqrt(float(v)) for v in self.b_squared)

    def __len__(self) -> int:
        return len(self.b_squared)


def _aerated(entries: Sequence[Number]) -> list:
    """Interleave zeros for the odd moments: (mu_0, 0, mu_2, 0, ...)."""
    m = [entries[0] * 0] * (2 * len(entries) - 1)
    for j, v in enumerate(entries):
        m[2 * j] = v
    return m


def _qd_recurrence(mu, count, is_bad):
    """Chebyshev (qd) recurrence on the even moments (Gautschi 2004, 2.1).

    r_0 = mu_0..mu_{2*count}, r_n[j] = r_{n-1}[j+1] - b_{n-1}^2 r_{n-2}[j+1]
    and b_n^2 = r_n[0] / r_{n-1}[0].  Returns ([b_1^2 .. b_count^2], None),
    or the values so far and the order n at which `is_bad(x)` flags a
    non-positive pivot (invalid sequence or precision loss).
    """
    prev, cur = None, list(mu[: count + 1])
    b2 = []
    for n in range(1, count + 1):
        row = cur[1:] if prev is None else [c - b2[-1] * p for c, p in zip(cur[1:], prev[1:])]
        num, den = row[0], cur[0]
        if is_bad(num) or is_bad(den):
            return b2, n
        b2.append(num / den)
        prev, cur = cur, row
    return b2, None


def moments_to_lanczos(
    moments: MomentSequence,
    count: int,
    precision: str = "auto",
) -> LanczosConversion:
    """First `count` coefficients b_1..b_count from mu_0..mu_{2*count}.

    Needs count+1 moment entries.  precision: "auto" picks exact
    arithmetic for rational input and a count-scaled mpmath precision
    for float input; "double" forces float64 (which raises
    PrecisionExhaustedError once cancellation wins).
    """
    if precision not in ("auto", "double"):
        raise ValueError(f"precision must be 'auto' or 'double', got {precision!r}")
    if count < 0:
        raise ValueError("count must be >= 0")
    if len(moments) < count + 1:
        raise InsufficientDataError(
            f"{count} coefficients need {count + 1} moment entries, got {len(moments)}"
        )
    if count == 0:
        return LanczosConversion(b_squared=(), mode="exact" if moments.exact else "double")

    use_exact = moments.exact and precision == "auto"
    if use_exact:
        b2, fail = _qd_recurrence(moments.entries, count, lambda x: x <= 0)
        if fail is not None:
            raise InvalidMomentSequenceError(fail)
        return LanczosConversion(b_squared=tuple(b2), mode="exact")

    if precision == "double":
        b2, fail = _qd_recurrence(
            [float(v) for v in moments.entries],
            count,
            lambda x: not (x > 0.0 and math.isfinite(x)),
        )
        if fail is not None:
            if moments.exact:
                # exact arithmetic can still decide validity: this raises
                # InvalidMomentSequenceError for an invalid sequence
                moments_to_lanczos(moments, count, precision="auto")
            raise PrecisionExhaustedError(fail, "float64 cancellation")
        return LanczosConversion(b_squared=tuple(b2), mode="double")

    # mpmath path for float entries; one digit is lost per order, so scale
    # the precision
    digits = max(30, 20 + 3 * count)
    with mp.workdps(digits):
        vals = [mp.mpf(v) for v in moments.entries]
        b2, fail = _qd_recurrence(
            vals, count, lambda x: not (x > 0 and mp.isfinite(x))
        )
        if fail is not None:
            raise InvalidMomentSequenceError(fail, f"at {digits} digits")
        b2f = tuple(float(v) for v in b2)
    if any(not (v > 0.0 and math.isfinite(v)) for v in b2f):
        raise PrecisionExhaustedError(count, f"{digits} digits insufficient")
    return LanczosConversion(b_squared=b2f, mode=f"mp{digits}")


def lanczos_to_moments(
    b: Sequence = None,
    count: int = None,
    *,
    b_squared: Sequence = None,
) -> MomentSequence:
    """Moments mu_0..mu_{2*count} of the tridiagonal operator built from b.

    Pass either coefficients `b` or their squares `b_squared`; missing
    coefficients past the end of the input count as zero.  mu_{2n} is the
    (0,0) entry of the 2n-th operator power, the weighted sum over Dyck
    paths of length 2n (Flajolet 1980).  Only the sites a path can occupy
    are visited: at power p, site i is reachable when i <= p and
    i = p (mod 2), and it still counts when i <= 2*count - p, so that the
    path can return to site 0 by step 2*count.  All inputs are transported
    exactly (binary floats are exact rationals), and the result is exact
    in b^2: this direction is benign, and keeping it lossless is what
    lets the ill-conditioned inverse direction round trip.
    """
    if (b is None) == (b_squared is None):
        raise ValueError("pass exactly one of b or b_squared")
    if count is None:
        raise ValueError("count is required")
    if count < 0:
        raise ValueError("count must be >= 0")
    if b_squared is not None:
        sq = [Fraction(v) for v in b_squared]
    else:
        sq = [Fraction(v) * Fraction(v) for v in b]
    if count > 0 and len(sq) == 0:
        raise InsufficientDataError("no coefficients supplied for count > 0")
    zero = Fraction(0)

    # similarity-transformed operator: sub-diagonal 1, super-diagonal b^2,
    # so powers stay rational in b^2; v[i] is the (i, 0) entry of the p-th
    # power, updated in place because power p writes only sites i = p mod 2
    sq = sq[:count] + [zero] * (count - len(sq))
    v = [zero] * (count + 1)
    v[0] = Fraction(1)
    entries = [v[0]]
    for p in range(1, 2 * count + 1):
        for i in range(p % 2, min(p, 2 * count - p) + 1, 2):
            if i == p:  # first visit: the right neighbour is still zero
                v[i] = v[i - 1]
            elif i == 0:
                v[i] = sq[0] * v[1]
            else:
                v[i] = v[i - 1] + sq[i] * v[i + 1]
        if p % 2 == 0:
            entries.append(v[0])
    return MomentSequence(entries=tuple(entries))


def hankel_determinants(moments: MomentSequence, count: int) -> list:
    """Determinants D_0..D_count of the zero-interleaved Hankel matrices.

    D_n = det(m_{i+j})_{0<=i,j<=n} with m the aerated sequence
    (mu_0, 0, mu_2, 0, ...).  That matrix is a checkerboard: ordering its
    even indices before its odd ones splits it into two Hankel blocks of
    the even moments, H0 = (mu_{2(i+j)}) and H1 = (mu_{2(i+j+1)}), so

        D_n = det H0_{floor(n/2)+1} * det H1_{ceil(n/2)},

    with H_k the leading k x k block and det H_0 = 1.  For rational input
    one fraction-free elimination per block gives all its leading minors;
    float input keeps one pivoted elimination per order.
    """
    if len(moments) < count + 1:
        raise InsufficientDataError(
            f"D_{count} needs mu_{2 * count}, got {len(moments)} entries"
        )
    mu = moments.entries
    if not moments.exact:
        m = _aerated(mu)
        return [
            _det([[m[i + j] for j in range(n + 1)] for i in range(n + 1)], False)
            for n in range(count + 1)
        ]
    even = _hankel_minors(mu, count // 2 + 1, 0)
    odd = [Fraction(1)] + _hankel_minors(mu, (count + 1) // 2, 1)
    return [even[n // 2] * odd[(n + 1) // 2] for n in range(count + 1)]


def _hankel_minors(mu, n, shift) -> list:
    """Leading principal minors, orders 1..n, of the Hankel matrix (mu[i+j+shift]).

    Bareiss's fraction-free elimination without pivoting: after step k
    every remaining entry is a minor bordering the leading (k+1) x (k+1)
    block, so the pivot at (k, k) is the minor of order k+1 (Bareiss,
    Math. Comp. 22, 1968).  A zero pivot ends the elimination; the minors
    of higher order then come from `_det` on the leading blocks.
    """
    a = [[mu[i + j + shift] for j in range(n)] for i in range(n)]
    work = [row[:] for row in a]
    minors = []
    prev = 1
    for k in range(n):
        piv = work[k][k]
        minors.append(piv)
        if piv == 0:
            minors += [_det([row[:size] for row in a[:size]], True) for size in range(k + 2, n + 1)]
            break
        top = work[k]
        for row in work[k + 1:]:
            lead = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * piv - lead * top[j]) / prev
        prev = piv
    return minors


def _det(a, exact):
    """Determinant by Gaussian elimination with row pivoting; overwrites a."""
    n = len(a)
    det = Fraction(1) if exact else 1.0
    for col in range(n):
        piv = None
        for r in range(col, n):
            if a[r][col] != 0:
                piv = r
                break
        if piv is None:
            return det * 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] / inv
            if f == 0:
                continue
            for c in range(col, n):
                a[r][c] -= f * a[col][c]
    return det


def lanczos_from_hankel(moments: MomentSequence, count: int) -> list:
    """Oracle path: b_n^2 = D_{n-2} D_n / D_{n-1}^2 over aerated Hankels."""
    dets = hankel_determinants(moments, count)
    for order, d in enumerate(dets):
        if d <= 0:
            # aerated D_n closes with mu_{2n}; report that moment order
            raise InvalidMomentSequenceError(order, f"D_{order} = {d}")
    one = Fraction(1) if moments.exact else 1.0
    full = [one] + dets
    return [full[n - 1] * full[n + 1] / full[n] ** 2 for n in range(1, count + 1)]
