"""Observables over chain states: complexity, entropy, relaxation function.

Complexity is the mean chain position sum n |phi_n|^2 and entropy the
Shannon entropy of the occupation probabilities, with the 0*ln(0) = 0
convention guarded against underflow.  The relaxation function phi_0(z)
is evaluated from the continued fraction

    phi_0(z) = 1 / (z + b_1^2 / (z + b_2^2 / (z + ...)))

as a composition of Moebius maps x -> 1 / (z + b_k^2 x), that is, the
product of the 2x2 matrices [[0, 1], [b_k^2, z]] (Wallis / Euler-Minding
form), which numpy multiplies pairwise, level by level.  Truncating a
semi-infinite fraction at depth D leaves an error that alternates in
sign between consecutive depths, so the evaluation averages depths D
and D+1; the tail is the attracting fixed point of the last map,
2 / (z + s) with s = +-sqrt(z^2 + 4 b^2) signed so that |z + s| is
largest, which also reproduces the 1/z asymptote at large |z|.  Finite
chains terminate exactly at their support, with the tail value 1/z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import reduce
from typing import Iterable, Tuple

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
    return state.amplitudes ** 2


def complexity(state: WaveState) -> float:
    """Mean position sum n |phi_n|^2 over the active window."""
    p = _probabilities(state)
    return float(np.sum(np.arange(len(p)) * p))


def entropy(state: WaveState) -> float:
    """Shannon entropy -sum p ln p in nats, with 0 ln 0 = 0."""
    return entropy_of_probabilities(_probabilities(state))


def entropy_of_probabilities(p: np.ndarray) -> float:
    p = np.asarray(p, dtype=float)
    p = p[p > _UNDERFLOW_GUARD]
    if len(p) == 0:
        return 0.0
    return float(-np.sum(p * np.log(p))) + 0.0


def _row(st: WaveState) -> tuple:
    """One row of the series, in field order."""
    return (st.t, complexity(st), entropy(st), float(st.amplitudes[0]), st.norm_error, st.active_size)


def series_from_trajectory(states: Iterable[WaveState]) -> ObservableSeries:
    """Reduce a (possibly streaming) trajectory to its observable series.

    map holds no sample while the trajectory makes the next one, so each
    state is released as soon as its row is taken.
    """
    rows = list(map(_row, states))
    return ObservableSeries(*(list(zip(*rows)) or [()] * len(fields(ObservableSeries))))


def _tail(b2: float, z: complex) -> complex:
    """Attracting fixed point of x -> 1 / (z + b2 x): the value of a constant tail.

    The fixed points are 2 / (z + s) with s = +-sqrt(z^2 + 4 b2); the one with
    the larger |z + s| has |b x| < 1.  b2 = 0 ends the fraction at 1/z.
    """
    if b2 == 0.0:
        return 1.0 / z
    s = (z * z + 4.0 * b2) ** 0.5
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


def _factors(b_sq: np.ndarray, beta: np.ndarray, z: complex, lo: int, hi: int) -> np.ndarray:
    """N_k = [[0, beta_k], [b_sq[k] / beta_{k+1}, z]] for lo <= k < hi, as x[:, :, k - lo].

    Each N_k is scaled by the power of two that puts its largest entry in
    [1/2, 1), taken from the three entries without a pass over x.
    """
    c = b_sq[lo:hi] / beta[lo + 1:hi + 1]
    s = np.ldexp(1.0, -np.frexp(np.maximum(np.maximum(beta[lo:hi], c), abs(z)))[1])
    x = np.empty((2, 2, hi - lo), dtype=complex if isinstance(z, complex) else float)
    x[0, 0] = 0.0
    x[0, 1] = beta[lo:hi] * s
    x[1, 0] = c * s
    x[1, 1] = z * s
    return x


def _product(b_sq: np.ndarray, beta: np.ndarray, z: complex, lo: int, hi: int) -> tuple:
    """N_lo ... N_{hi-1} of `_factors`, up to a scalar factor, as a row-major 4-tuple.

    numpy multiplies neighbouring pairs level by level down to _PYTHON_BELOW
    matrices; Python multiplies those, then the factors that odd levels left
    over.
    """
    x = _factors(b_sq, beta, z, lo, hi)
    left_over = []
    while (n := x.shape[2]) > _PYTHON_BELOW:
        if n % 2:
            left_over.append(tuple(x[:, :, n - 1].ravel().tolist()))
        l, r = x[:, :, 0:n - 1:2], x[:, :, 1:n:2]
        y = l[:, 0, None] * r[None, 0]
        y += l[:, 1, None] * r[None, 1]
        x = _rescaled(y)
    return reduce(_mul, reversed(left_over), reduce(_mul, zip(*x.reshape(4, -1).tolist())))


def _cf_values(b_sq: np.ndarray, z: complex, depths) -> dict:
    """The fraction truncated at each of the increasing `depths`, ending in the tail at that depth.

    To depth n it is the Moebius map of M_0 ... M_{n-1}, M_k = [[0, 1], [b_sq[k], z]],
    applied to (tail, 1).  With beta_k a power of two near b_k = sqrt(b_sq[k]),
    M_k = diag(1/beta_k, 1) N_k diag(beta_{k+1}, 1), whose N_k has entries of
    the size of b_k and z, so that no product of b^2 overflows.  A float z
    runs in float arithmetic, bit-identical to complex arithmetic with zero
    imaginary parts as long as every intermediate stays finite.
    """
    beta = np.ldexp(1.0, np.frexp(b_sq)[1] // 2)
    values = {}
    m = (1.0, 0.0, 0.0, 1.0)
    start = 0
    for n in depths:
        m = _mul(m, _product(b_sq, beta, z, start, n))
        start = n
        u = float(beta[n]) * _tail(float(b_sq[n]), z)
        values[n] = (m[0] * u + m[1]) / (float(beta[0]) * (m[2] * u + m[3]))
    return values


def relaxation_phi0(
    seq: LanczosSequence,
    z: complex,
    depth: int = 20000,
    tol: float = 1e-10,
) -> complex:
    """Relaxation function phi_0(z) from the continued fraction.

    The fraction is the product of the 2x2 matrices [[0, 1], [b_n^2, z]],
    taken as a numpy tree of pairwise products, applied to its tail.
    Finite chains are evaluated exactly (the fraction ends at the support
    with the tail 1/z).  Semi-infinite chains end in the attracting fixed
    point of the last level, average depths D and D+1, and raise
    ConvergenceError when halving the depth moves the value by more than
    `tol` relatively.  A real z (zero imaginary part) runs in float
    arithmetic, bit-identical to the complex evaluation.

    The fraction is evaluated in the units of b_1: phi_0(z) of the chain b
    is phi_0(z / sigma) of the chain b / sigma, divided by sigma, with
    sigma the power of two in (b_1 / 2, b_1].  Scaling by a power of two
    is exact, so the value does not depend on the units of b, and no b^2
    leaves the float range unless (b_n / b_1)^2 does.  A coupling the
    fraction needs that is not finite raises CouplingOverflowError naming
    the first.
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
    b /= sigma
    b_sq, z = np.square(b, out=b), z / sigma
    if sup is not None:
        return _as_scalar(_cf_values(b_sq, z, (sup,))[sup] / sigma)

    d_lo = max(depth // 2, 1)
    v = _cf_values(b_sq, z, sorted({d_lo, d_lo + 1, depth, depth + 1}))
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
