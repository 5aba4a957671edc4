"""Special functions needed by the closed-form solutions.

Thin wrappers over the standard implementations: Bessel functions of the
first kind at integer order come from scipy.special.jv, and log-gamma
from the C library (math.lgamma).  Both comfortably beat the 1e-12
accuracy this package requires.  scipy.special is imported on first use
so that importing the package stays cheap.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["log_gamma", "bessel_j", "bessel_j_array"]


def log_gamma(x: float) -> float:
    """Natural log of Gamma(x) for x > 0."""
    if x <= 0.0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def bessel_j(n, x: float):
    """J_n(x) for an integer order n >= 0 or an array of them."""
    from scipy.special import jv

    if np.any(np.asarray(n) < 0):
        raise ValueError("order must be >= 0")
    out = jv(n, x)
    return float(out) if np.ndim(out) == 0 else out


def bessel_j_array(n_max: int, x: float) -> np.ndarray:
    """J_0(x) .. J_{n_max}(x)."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    return bessel_j(np.arange(n_max + 1), x)
