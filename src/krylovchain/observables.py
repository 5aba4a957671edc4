"""Observables over chain states: complexity, entropy, relaxation function.

Complexity is the mean chain position sum n |phi_n|^2 and entropy the
Shannon entropy of the occupation probabilities, with the 0*ln(0) = 0
convention guarded against underflow.  The relaxation function phi_0(z)
is evaluated from the continued fraction

    phi_0(z) = 1 / (z + b_1^2 / (z + b_2^2 / (z + ...)))

as psi_{-1} = phi_0 and psi_{k-1} = b_k / (z + b_{k+1} psi_k), b_0 = 1,
psi_k being b_{k+1} times the fraction 1 / (z + b_{k+2}^2 / ...): the
product of the 2x2 matrices [[0, b_k], [b_{k+1}, z]] (Wallis /
Euler-Minding form), which squares no coupling and which numpy
multiplies pairwise, level by level.  Truncating a semi-infinite
fraction at depth D leaves an error that alternates in sign between
consecutive depths, so the evaluation averages depths D and D+1; the
tail is the attracting fixed point of the last level, 2 / (z + s) with
s = +-b sqrt((z/b)^2 + 4) signed so that |z + s| is largest, which also
reproduces the 1/z asymptote at large |z|.  Finite chains end exactly at
their support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import reduce
from typing import Iterable, Optional, Tuple

import numpy as np

from .errors import ConvergenceError, CouplingOverflowError, OrderingError
from .evolve import WaveState
from .sequences import LanczosSequence

__all__ = [
    "ObservableSeries",
    "complexity",
    "entropy",
    "series_from_trajectory",
    "relaxation_phi0",
    "ImpulseSpectrum",
    "spectral_density_finite",
]

_UNDERFLOW_GUARD = 1e-300
# Python multiplies the last this-many matrices of a product: for so few, a
# level of numpy calls costs more than Python's 2x2 products
_PYTHON_BELOW = 64


@dataclass(frozen=True)
class ObservableSeries:
    """Sampled trajectory of scalar observables."""

    times: Tuple[float, ...]
    c_k: Tuple[float, ...]
    s_k: Tuple[float, ...]
    phi0: Tuple[float, ...]
    norm_error: Tuple[float, ...]
    active_size: Tuple[int, ...]

    def __post_init__(self):
        n = len(self.times)
        for f in fields(self)[1:]:
            if len(getattr(self, f.name)) != n:
                raise ValueError(f"{f.name} length does not match times")
        if any(t2 <= t1 for t1, t2 in zip(self.times, self.times[1:])):
            raise OrderingError("sample times must be strictly increasing")

    def __len__(self) -> int:
        return len(self.times)


def _probabilities(state: WaveState) -> np.ndarray:
    """|phi_n|^2 for n >= state.lo, the occupied window: the sites below are zero."""
    return state.amplitudes[state.lo :] ** 2


def complexity(state: WaveState, p: Optional[np.ndarray] = None) -> float:
    """Mean position sum n |phi_n|^2 over the occupied window.

    p, when given, is the state's probabilities from site lo on, as
    _row squares them once for both reductions.
    """
    if p is None:
        p = _probabilities(state)
    weighted = np.arange(state.lo, state.lo + len(p), dtype=float)
    weighted *= p  # in place: a sample holds no further window-sized array
    return float(np.sum(weighted))


def entropy(state: WaveState, p: Optional[np.ndarray] = None) -> float:
    """Shannon entropy -sum p ln p in nats, with 0 ln 0 = 0; p as in complexity."""
    return entropy_of_probabilities(_probabilities(state) if p is None else p)


def entropy_of_probabilities(p: np.ndarray) -> float:
    """-sum p ln p over p > 1e-300, the rest counting 0, with no copy of p."""
    p = np.asarray(p, dtype=float)
    terms = np.zeros(len(p))
    np.log(p, out=terms, where=p > _UNDERFLOW_GUARD)
    terms *= p
    return float(-np.sum(terms)) + 0.0


def _row(st: WaveState) -> tuple:
    """One row of the series, in field order; the amplitudes are squared once."""
    p = _probabilities(st)
    return (st.t, complexity(st, p), entropy(st, p), float(st.amplitudes[0]), st.norm_error, st.active_size)


def series_from_trajectory(states: Iterable[WaveState]) -> ObservableSeries:
    """Reduce a (possibly streaming) trajectory to its observable series.

    map holds no sample while the trajectory makes the next one, so each
    state is released as soon as its row is taken.
    """
    rows = list(map(_row, states))
    return ObservableSeries(*(list(zip(*rows)) or [()] * len(fields(ObservableSeries))))


def _tail(b: float, z: complex) -> complex:
    """Attracting fixed point of x -> 1 / (z + b^2 x): the value of a constant tail.

    The fixed points are 2 / (z + s) with s = +-b sqrt((z / b)^2 + 4); the one
    with the larger |z + s| has |b x| < 1.  b <= 2^-500 |z| ends it at 1/z.
    """
    if abs(z) > 2.0 ** 500 * b:
        return 1.0 / z
    x = z / b
    s = b * (x * x + 4.0) ** 0.5
    if abs(z - s) > abs(z + s):
        s = -s
    return 2.0 / (z + s)


def _mul(l: tuple, r: tuple) -> tuple:
    """2x2 product of row-major 4-tuples, in Python arithmetic."""
    a, b, c, d = l
    e, f, g, h = r
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _rescaled(x: np.ndarray) -> np.ndarray:
    """Scale each matrix x[:, :, k] by the power of two that puts its largest entry in [1/2, 1).

    A power of two scales exactly, which keeps a float z and the same z as a
    complex number on the same bits (a division by the maximum would not:
    numpy's complex division multiplies by a reciprocal).
    """
    _, e = np.frexp(np.abs(x).max(axis=(0, 1)))
    x *= np.ldexp(1.0, -e)
    return x


def _factors(b: np.ndarray, z: complex, lo: int, hi: int) -> np.ndarray:
    """N_k = [[0, b[k]], [b[k + 1], z]] for lo <= k < hi, as x[:, :, k - lo].

    Each N_k is scaled by the power of two that puts its largest entry in
    [1/2, 1), taken from the three entries without a pass over x.
    """
    s = np.ldexp(1.0, -np.frexp(np.maximum(np.maximum(b[lo:hi], b[lo + 1:hi + 1]), abs(z)))[1])
    x = np.empty((2, 2, hi - lo), dtype=complex if isinstance(z, complex) else float)
    x[0, 0] = 0.0
    x[0, 1] = b[lo:hi] * s
    x[1, 0] = b[lo + 1:hi + 1] * s
    x[1, 1] = z * s
    return x


def _product(b: np.ndarray, z: complex, lo: int, hi: int) -> tuple:
    """N_lo ... N_{hi-1} of `_factors`, up to a scalar factor, as a row-major 4-tuple.

    numpy multiplies neighbouring pairs level by level down to _PYTHON_BELOW
    matrices; Python multiplies those, then the factors that odd levels left
    over.
    """
    x = _factors(b, z, lo, hi)
    left_over = []
    while (n := x.shape[2]) > _PYTHON_BELOW:
        if n % 2:
            left_over.append(tuple(x[:, :, n - 1].ravel().tolist()))
        l, r = x[:, :, 0:n - 1:2], x[:, :, 1:n:2]
        y = l[:, 0, None] * r[None, 0]
        y += l[:, 1, None] * r[None, 1]
        x = _rescaled(y)
    return reduce(_mul, reversed(left_over), reduce(_mul, zip(*x.reshape(4, -1).tolist())))


def _cf_values(b: np.ndarray, z: complex, depths) -> dict:
    """The fraction truncated at each of the increasing `depths`, ending in the tail at that depth.

    b holds b_0 = 1, b_1, b_2, ... .  To depth n the fraction is the Moebius
    map of N_0 ... N_{n-1}, N_k = [[0, b_k], [b_{k+1}, z]], applied to
    (psi_{n-1}, 1) with psi_{n-1} = b_n tail(b_{n+1}).  Every entry is a
    coupling or z, so nothing is squared and every factor is exact.  A float
    z runs in float arithmetic, bit-identical to complex arithmetic with
    zero imaginary parts as long as every intermediate stays finite.
    """
    values = {}
    m = (1.0, 0.0, 0.0, 1.0)
    start = 0
    for n in depths:
        m = _mul(m, _product(b, z, start, n))
        start = n
        u = float(b[n]) * _tail(float(b[n + 1]), z)
        values[n] = (m[0] * u + m[1]) / (m[2] * u + m[3])
    return values


def relaxation_phi0(
    seq: LanczosSequence,
    z: complex,
    depth: int = 20000,
    tol: float = 1e-10,
) -> complex:
    """Relaxation function phi_0(z) from the continued fraction.

    The fraction is the product of the 2x2 matrices [[0, b_n], [b_{n+1}, z]],
    b_0 = 1, taken as a numpy tree of pairwise products, applied to its tail.
    Finite chains are evaluated exactly (the fraction ends at the support
    with the tail 1/z).  Semi-infinite chains end in the attracting fixed
    point of the last level, average depths D and D+1, and raise
    ConvergenceError when halving the depth moves the value by more than
    `tol` relatively.  A real z (zero imaginary part) runs in float
    arithmetic, bit-identical to the complex evaluation.

    The fraction is evaluated in the units of b_1: phi_0(z) of the chain b
    is phi_0(z / sigma) of the chain b / sigma, divided by sigma, with
    sigma the power of two in (b_1 / 2, b_1].  Scaling by a power of two
    is exact, so the value does not depend on the units of b, and the
    factors of subnormal couplings stay in range.  A coupling the fraction
    needs that is not finite raises CouplingOverflowError naming the first.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    z = complex(z)
    if z == 0:
        raise ValueError("phi_0(z) is evaluated off z = 0; use w_number for the limit")
    if z.imag == 0.0:
        z = z.real
    sup = seq.support
    b = seq.b_array(depth + 2 if sup is None else sup + 1)
    finite = np.isfinite(b)
    if not finite.all():
        n = int(finite.argmin()) + 1
        raise CouplingOverflowError(n, float(b[n - 1]), f"the continued fraction needs b_1..b_{len(b)}")
    sigma = math.ldexp(1.0, math.frexp(b[0])[1] - 1)
    b, z = np.insert(b / sigma, 0, 1.0), z / sigma
    if sup is not None:
        return _as_scalar(_cf_values(b, z, (sup,))[sup] / sigma)

    d_lo = max(depth // 2, 1)
    v = _cf_values(b, z, sorted({d_lo, d_lo + 1, depth, depth + 1}))
    val_hi = 0.5 * (v[depth] + v[depth + 1]) / sigma
    val_lo = 0.5 * (v[d_lo] + v[d_lo + 1]) / sigma
    if abs(val_hi - val_lo) > tol * max(abs(val_hi), 1e-300):
        raise ConvergenceError(
            _as_scalar(val_lo), _as_scalar(val_hi), f"depths {d_lo} vs {depth}"
        )
    return _as_scalar(val_hi)


def _as_scalar(v) -> complex:
    v = complex(v)
    return v.real if v.imag == 0.0 else v


@dataclass(frozen=True)
class ImpulseSpectrum:
    """Spectral density of a finite chain: weighted delta impulses.

    impulses holds (omega, weight) pairs over positive and negative
    frequencies plus an optional zero-frequency impulse; weights are the
    delta prefactors, normalized so sum(weights)/(2 pi) = 1.
    """

    impulses: Tuple[Tuple[float, float], ...]

    def broadened(self, omegas: np.ndarray, width: float) -> np.ndarray:
        """Lorentzian-broadened curve for display only."""
        if width <= 0:
            raise ValueError("width must be positive")
        omegas = np.asarray(omegas, dtype=float)
        out = np.zeros_like(omegas)
        for w0, a in self.impulses:
            out += a * (width / math.pi) / ((omegas - w0) ** 2 + width ** 2)
        return out


def spectral_density_finite(modes) -> ImpulseSpectrum:
    """Delta-impulse spectrum of a finite-chain mode decomposition.

    Each positive-frequency mode (omega_l, a_l) contributes pi*a_l at
    +/- omega_l; a zero mode contributes 2*pi*a_0 at omega = 0.
    """
    impulses = []
    if modes.zero_mode_weight > 0.0:
        impulses.append((0.0, 2.0 * math.pi * modes.zero_mode_weight))
    for omega, a in modes.modes:
        impulses.append((-omega, math.pi * a))
        impulses.append((omega, math.pi * a))
    impulses.sort(key=lambda p: p[0])
    return ImpulseSpectrum(impulses=tuple(impulses))
