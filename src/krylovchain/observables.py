"""Observables over chain states: complexity, entropy, relaxation function.

Complexity is the mean chain position sum n |phi_n|^2 and entropy the
Shannon entropy of the occupation probabilities, with the 0*ln(0) = 0
convention guarded against underflow.  The relaxation function phi_0(z)
is evaluated from the continued fraction

    phi_0(z) = 1 / (z + b_1^2 / (z + b_2^2 / (z + ...)))

bottom-up.  Truncating a semi-infinite fraction at depth D leaves an
error that alternates in sign between consecutive depths, so the
evaluation averages depths D and D+1; the tail is seeded with the
constant-coefficient fixed point (-z + sqrt(z^2 + 4 b^2)) / (2 b^2),
which also reproduces the 1/z asymptote at large |z|.  Finite chains
terminate exactly at their support, with the tail value 1/z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterable, Tuple

import numpy as np

from .errors import ConvergenceError, OrderingError
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


def series_from_trajectory(states: Iterable[WaveState]) -> ObservableSeries:
    """Reduce a (possibly streaming) trajectory to its observable series."""
    rows = [  # one row per state, in field order
        (st.t, complexity(st), entropy(st), float(st.amplitudes[0]), st.norm_error, st.active_size)
        for st in states
    ]
    return ObservableSeries(*(list(zip(*rows)) or [()] * len(fields(ObservableSeries))))


def _cf_eval(b_sq: list, z: complex, depth: int, f: complex = None) -> complex:
    """Bottom-up continued fraction truncated at `depth`; the tail f defaults to the fixed point.

    A float z runs in float arithmetic, bit-identical to complex arithmetic
    with zero imaginary parts as long as every intermediate stays finite.
    """
    if f is None:
        b2_tail = b_sq[depth]
        f = (-z + (z * z + 4.0 * b2_tail) ** 0.5) / (2.0 * b2_tail)
    for b2 in reversed(b_sq[:depth]):
        f = 1.0 / (z + b2 * f)
    return f


def relaxation_phi0(
    seq: LanczosSequence,
    z: complex,
    depth: int = 20000,
    tol: float = 1e-10,
) -> complex:
    """Relaxation function phi_0(z) from the continued fraction.

    Finite chains are evaluated exactly (the fraction ends at the support
    with the tail 1/z).  Semi-infinite chains use depth-averaged truncation
    and raise ConvergenceError when halving the depth moves the value by
    more than `tol` relatively.  A real z (zero imaginary part) runs in
    float arithmetic, bit-identical to the complex evaluation.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    z = complex(z)
    if z == 0:
        raise ValueError("phi_0(z) is evaluated off z = 0; use w_number for the limit")
    if z.imag == 0.0:
        z = z.real
    sup = seq.support
    if sup is not None:
        return _as_scalar(_cf_eval((seq.b_array(sup) ** 2).tolist(), z, sup, 1.0 / z))

    b_sq = (seq.b_array(depth + 2) ** 2).tolist()
    val_hi = 0.5 * (_cf_eval(b_sq, z, depth) + _cf_eval(b_sq, z, depth + 1))
    d_lo = max(depth // 2, 1)
    val_lo = 0.5 * (_cf_eval(b_sq, z, d_lo) + _cf_eval(b_sq, z, d_lo + 1))
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
