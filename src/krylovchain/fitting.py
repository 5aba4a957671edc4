"""Least-squares analysis of the long-time entropy/complexity relation.

The central fit is ordinary least squares of S_K against
{1, ln C_K} or {1, ln C_K, ln ln C_K}.  By default samples are resampled
uniformly in ln C_K before fitting so that exponentially growing
trajectories do not overweight late times; plain per-sample weighting is
available as an option and is used automatically when C_K is not
monotone over the window (finite chains).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import WindowError
from .observables import ObservableSeries

__all__ = [
    "Selection",
    "FitResult",
    "BoundVerdict",
    "default_window",
    "select_window",
    "fit_log_relation",
    "initial_regime_report",
    "InitialRegimeReport",
    "eta_bound_check",
]

MIN_WINDOW_SAMPLES = 8
# the defaults of default_window and fit_log_relation, which config.FitSection reads
C_MIN = 50.0
WEIGHTINGS = ("logc", "time")
WEIGHTING = "logc"


@dataclass(frozen=True)
class Selection:
    """Index set into an ObservableSeries plus the window bounds it spans."""

    indices: Tuple[int, ...]
    t_min: float
    t_max: float
    c_min: float
    c_max: float

    def __len__(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class FitResult:
    eta_tilde: float
    intercept: float
    lnln_coefficient: Optional[float]
    window: Tuple[float, float, float, float]  # (t_min, t_max, c_min, c_max)
    rms_residual: float
    sample_count: int

    def __post_init__(self):
        if not math.isfinite(self.eta_tilde):
            raise ValueError("fitted slope is not finite")
        if self.rms_residual < 0:
            raise ValueError("rms_residual must be >= 0")


@dataclass(frozen=True)
class BoundVerdict:
    kind: str  # "within_bound" | "violates_bound"
    excess: Optional[float] = None


def select_window(
    series: ObservableSeries,
    c_min: float = None,
    c_max: float = None,
    t_min: float = None,
    t_max: float = None,
    norm_guard: float = 1e-8,
) -> Selection:
    """Samples satisfying the given bounds, cut at the last trusted norm.

    The selection ends at the last sample whose norm error stays below
    norm_guard; raises WindowError when fewer than MIN_WINDOW_SAMPLES
    qualify.
    """
    t = np.asarray(series.times)
    c = np.asarray(series.c_k)
    nerr = np.asarray(series.norm_error)
    ok = nerr < norm_guard
    last_good = int(np.nonzero(ok)[0][-1]) if ok.any() else -1
    mask = np.ones(len(t), dtype=bool)
    mask[last_good + 1 :] = False
    if c_min is not None:
        mask &= c >= c_min
    if c_max is not None:
        mask &= c <= c_max
    if t_min is not None:
        mask &= t >= t_min
    if t_max is not None:
        mask &= t <= t_max
    idx = np.nonzero(mask)[0]
    if len(idx) < MIN_WINDOW_SAMPLES:
        raise WindowError(
            f"window selects {len(idx)} samples, need >= {MIN_WINDOW_SAMPLES}"
        )
    return Selection(
        indices=tuple(int(i) for i in idx),
        t_min=float(t[idx].min()),
        t_max=float(t[idx].max()),
        c_min=float(c[idx].min()),
        c_max=float(c[idx].max()),
    )


def default_window(series: ObservableSeries, c_min: float = C_MIN) -> Selection:
    """All samples with C_K >= c_min up to the last trusted-norm sample."""
    return select_window(series, c_min=c_min)


def fit_log_relation(
    series: ObservableSeries,
    window: Selection,
    include_lnln: bool = False,
    weighting: str = WEIGHTING,
) -> FitResult:
    """OLS of S_K against ln C_K (optionally plus ln ln C_K) over a window.

    weighting "logc" resamples the windowed data uniformly in ln C_K by
    linear interpolation (requires monotone C_K; falls back to "time"
    otherwise); "time" fits the raw samples.
    """
    if weighting not in WEIGHTINGS:
        raise ValueError("weighting must be 'logc' or 'time'")
    idx = np.asarray(window.indices, dtype=int)
    c = np.asarray(series.c_k)[idx]
    s = np.asarray(series.s_k)[idx]
    if np.any(c <= 0):
        raise WindowError("C_K must be positive inside the fit window")
    if include_lnln and np.any(c <= 1.0):
        raise WindowError("ln ln C_K requires C_K > 1 throughout the window")
    ln_c = np.log(c)
    if weighting == "logc" and len(ln_c) >= 2 and np.all(np.diff(ln_c) > 0):
        grid = np.linspace(ln_c[0], ln_c[-1], len(ln_c))
        s = np.interp(grid, ln_c, s)
        ln_c = grid
    cols = [np.ones_like(ln_c), ln_c]
    if include_lnln:
        cols.append(np.log(ln_c))
    design = np.stack(cols, axis=1)
    coef, *_ = np.linalg.lstsq(design, s, rcond=None)
    resid = s - design @ coef
    return FitResult(
        eta_tilde=float(coef[1]),
        intercept=float(coef[0]),
        lnln_coefficient=float(coef[2]) if include_lnln else None,
        window=(window.t_min, window.t_max, window.c_min, window.c_max),
        rms_residual=float(np.sqrt(np.mean(resid ** 2))),
        sample_count=len(ln_c),
    )


@dataclass(frozen=True)
class InitialRegimeReport:
    """Worst-case deviations from the small-time laws over the early window."""

    max_quadratic_deviation: float
    max_product_log_deviation: float
    sample_count: int
    t_window: Tuple[float, float]


def initial_regime_report(series: ObservableSeries, mu2: float) -> InitialRegimeReport:
    """Deviation of C_K/(mu2 t^2) and S_K/(-C_K ln C_K) from 1 at small t.

    The early window is 0 < t <= 0.1/sqrt(mu2); raises WindowError when
    the series has no samples there.
    """
    if mu2 <= 0:
        raise ValueError("mu2 must be positive")
    t = np.asarray(series.times)
    c = np.asarray(series.c_k)
    s = np.asarray(series.s_k)
    cutoff = 0.1 / math.sqrt(mu2)
    mask = (t > 0) & (t <= cutoff)
    if not mask.any():
        raise WindowError(f"no samples in the early window (0, {cutoff:.3g}]")
    tq = c[mask] / (mu2 * t[mask] ** 2)
    cw = c[mask]
    with np.errstate(divide="ignore", invalid="ignore"):
        sw = s[mask] / (-cw * np.log(cw))
    quad = float(np.max(np.abs(tq - 1.0)))
    prod = float(np.max(np.abs(sw - 1.0)))
    return InitialRegimeReport(
        max_quadratic_deviation=quad,
        max_product_log_deviation=prod,
        sample_count=int(mask.sum()),
        t_window=(float(t[mask].min()), float(t[mask].max())),
    )


def eta_bound_check(fit: FitResult, tol: float = 0.0) -> BoundVerdict:
    """Check the fitted slope against the upper bound eta <= 1 (+ tol).

    The excess reported on violation is measured from the tolerant bound
    1 + tol.
    """
    if fit.eta_tilde <= 1.0 + tol:
        return BoundVerdict(kind="within_bound")
    return BoundVerdict(kind="violates_bound", excess=fit.eta_tilde - (1.0 + tol))
