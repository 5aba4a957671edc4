"""Time evolution of the discrete operator wave function.

The amplitudes phi_0..phi_{N-1} obey the hopping system

    d phi_n / dt = b_n phi_{n-1} - b_{n+1} phi_{n+1},
    phi_n(0) = delta_{n0},  b_0 = 0,

whose generator is antisymmetric, so the exact flow conserves
sum phi_n^2.  The active window [0, N) is finite and grows on demand by
one rule, to ceil(1.12 N) + guard_band sites: before a step when the
trailing guard band holds more than 1 % of the truncation tolerance, and
after a step whose guard band holds more than the tolerance, which is
then redone on the grown window.

Two stepper families are provided (METHODS names them):

* Cayley compositions, "cayley6" (default), "cayley4" and "trapezoidal":
  the update is a product of Cayley stages (I - c A) phi' = (I + c A) phi,
  with c = w h / 2 for the stage weights w of a symmetric composition.
  "trapezoidal" is the single stage w = 1 (order 2), "cayley4" Suzuki's
  five-stage composition (order 4) and "cayley6" a seven-stage
  composition of order 6.  The step rule's error constant C (see
  _CayleyStepper) is 1/12, 9.3e-4 and 2.6e-4.  A has no diagonal, so it
  couples even sites only to odd ones, and each stage is solved on the
  even sites alone: a symmetric positive-definite tridiagonal system of
  ceil(N/2) sites (the Schur complement of the odd sites), solved for the
  increment of the even sites.
  Because A is antisymmetric every stage is exactly orthogonal, so the
  norm is conserved to rounding regardless of step size, and the step is
  not limited by the largest hopping in the window (the fast frontier
  modes are unpopulated).  The step size follows the solution's measured
  timescale (see _CayleyStepper).
* "rk45": explicit Dormand-Prince 5(4), run by scipy.integrate.RK45 with
  its per-component error test and the step bounded by dt <= 0.5/b_max
  for stability.  Kept as the cross-check route; on rapidly growing
  windows it costs O(b_max) steps per unit time and is orders of
  magnitude slower than the Cayley form.

`evolve` is a generator: states stream out at sample times and large
windows are never accumulated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator, Optional, Tuple

import numpy as np
from scipy.linalg import lapack

from .errors import (
    NON_NEGATIVE,
    POSITIVE,
    UNIT,
    ParameterError,
    ResourceLimitError,
    Rule,
    StiffnessError,
    at_least,
    check_fields,
    one_of,
    param,
)
from .sequences import LanczosSequence

__all__ = ["WaveState", "EvolveConfig", "rhs", "active_window_policy", "evolve", "METHODS"]

# Symmetric compositions of Cayley stages: name -> (stage weights, order).
# "cayley4" is Suzuki's fourth-order five-stage composition, Phys. Lett. A
# 146 (1990).  Every stage is a rational function of the same A, so the
# stages commute and the composition conditions (Hairer, Lubich & Wanner,
# Geometric Numerical Integration, II.4; Yoshida, Phys. Lett. A 150
# (1990)) reduce to sum w = 1 and sum w^(2j+1) = 0 for 1 <= j < order / 2.
# "cayley6" solves them for order 6 with the weights (b, a, b, c, b, a, b),
# 2a + 4b + c = 1, 2a^3 + 4b^3 + c^3 = 0, 2a^5 + 4b^5 + c^5 = 0 (the only
# real root with |a|, |b| < 3; sum w^7 = 0.11519).
_SUZUKI = 1.0 / (4.0 - 4.0 ** (1.0 / 3.0))
_A6, _B6, _C6 = -0.83416055508086498, 0.43117553188395998, 0.94361898262589003
_COMPOSITIONS = {
    "cayley6": ((_B6, _A6, _B6, _C6, _B6, _A6, _B6), 6),
    "cayley4": ((_SUZUKI, _SUZUKI, 1.0 - 4.0 * _SUZUKI, _SUZUKI, _SUZUKI), 4),
    "trapezoidal": ((1.0,), 2),
}
METHODS = tuple(_COMPOSITIONS) + ("rk45",)
_TIMES = Rule(
    "non-empty increasing list of numbers >= 0",
    lambda v: v is None
    or (
        isinstance(v, (list, tuple))
        and len(v) > 0
        and all(map(NON_NEGATIVE.ok, v))
        and all(b > a for a, b in zip(v, v[1:]))
    ),
)


@dataclass(frozen=True)
class WaveState:
    """Snapshot of the wave function at one time.

    amplitudes is read only; norm_error = |sum phi^2 - 1|; tail_mass is
    the squared mass in the trailing guard band (0 when no coupling leaves
    the window, as at the end of a finite chain: nothing is truncated).
    """

    t: float
    amplitudes: np.ndarray
    active_size: int
    norm_error: float
    tail_mass: float

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=float)
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "active_size", int(self.active_size))


@dataclass(frozen=True)
class EvolveConfig:
    """Evolution settings; all tolerances are dimensionless."""

    t_max: float = param(POSITIVE)
    samples: int = param(at_least(1), 100)
    grid: str = param(one_of("uniform", "log"), "uniform")
    sample_times: Optional[Tuple[float, ...]] = param(_TIMES, None)
    rel_tol: float = param(UNIT, 1e-9)
    abs_tol: float = param(UNIT, 1e-12)
    truncation_tol: float = param(UNIT, 1e-12)
    guard_band: int = param(at_least(4), 8)
    max_active_size: int = param(at_least(16), 4_000_000)
    method: str = param(one_of(*METHODS), "cayley6")
    log_decades: float = param(POSITIVE, 3.0)

    def __post_init__(self):
        check_fields(self)
        if self.sample_times is not None:
            object.__setattr__(self, "sample_times", tuple(float(t) for t in self.sample_times))
            if self.sample_times[-1] > self.t_max:
                raise ParameterError("sample_times", f"expected times <= t_max = {self.t_max!r}")
        elif self.grid == "log" and self.samples < 2:  # geomspace(lo, t_max, 1) is [lo]
            raise ParameterError("samples", "the log grid needs samples >= 2")
        elif self.grid == "log" and self.t_max * 10.0 ** -self.log_decades <= 1e-12:
            raise ParameterError("log_decades", "expected t_max 10^-log_decades > 1e-12")
        # a sample interval shorter than the clock's tolerance takes no step
        times = self.resolve_sample_times()
        if any(b - a <= 1e-12 * max(1.0, b) for a, b in zip(times, times[1:])):
            raise ParameterError(
                "sample_times" if self.sample_times is not None else None,
                "expected sample times more than 1e-12 max(1, t) apart",
            )

    def resolve_sample_times(self) -> Tuple[float, ...]:
        if self.sample_times is not None:
            return self.sample_times
        if self.grid == "uniform":
            return tuple(np.linspace(0.0, self.t_max, self.samples + 1))
        lo = self.t_max * 10.0 ** (-self.log_decades)
        return (0.0,) + tuple(np.geomspace(lo, self.t_max, self.samples))


def rhs(state: WaveState, seq: LanczosSequence) -> np.ndarray:
    """Right-hand side b_n phi_{n-1} - b_{n+1} phi_{n+1} with phi_N = 0."""
    y = state.amplitudes
    n = len(y)
    b = seq.b_array(n)  # b_1..b_n; only b_1..b_{n-1} couple inside the window
    return _hop(b[: n - 1], y)


def _hop(off: np.ndarray, y: np.ndarray) -> np.ndarray:
    """A y for the hopping generator whose couplings off = b_1..b_{N-1}."""
    out = np.zeros(len(y))
    out[1:] = off * y[:-1]
    out[:-1] -= off * y[1:]
    return out


def _odd_from_even(cp: np.ndarray, cq: np.ndarray, e: np.ndarray, o: np.ndarray) -> np.ndarray:
    """o + c A_oe e, with (c A_oe e)_j = cp_j e_j - cq_j e_{j+1} on the odd sites."""
    out = cp * e[: len(cp)]
    out += o
    out[: len(cq)] -= cq * e[1:]
    return out


def _even_from_odd(cp: np.ndarray, cq: np.ndarray, o: np.ndarray, size: int) -> np.ndarray:
    """c A_eo o = -c A_oe^T o on the even sites, cq_{j-1} o_{j-1} - cp_j o_j; zero up to `size`."""
    out = np.empty(size)
    out[0] = 0.0
    np.multiply(cq, o[: len(cq)], out=out[1 : len(cq) + 1])
    out[len(cq) + 1 :] = 0.0
    out[: len(cp)] -= cp * o
    return out


def _grown(n: int, cfg: EvolveConfig) -> int:
    """The window growth rule: the size that follows n sites."""
    return min(math.ceil(1.12 * n) + cfg.guard_band, cfg.max_active_size)


def _check_step(t: float, h: float, t_target: float) -> None:
    """The step floor of both steppers: StiffnessError at t unless h >= 1e-13 max(1, |t_target|)."""
    if not h >= 1e-13 * max(1.0, abs(t_target)):
        raise StiffnessError(t, h)


def active_window_policy(state: WaveState, cfg: EvolveConfig) -> int:
    """Next window size: unchanged unless the guard band carries too much mass."""
    n = state.active_size
    return n if state.tail_mass <= cfg.truncation_tol else _grown(n, cfg)


class _Window:
    """Active window bookkeeping shared by both steppers."""

    def __init__(self, seq: LanczosSequence, cfg: EvolveConfig, initial: Optional[np.ndarray]):
        self.seq = seq
        self.cfg = cfg
        sup = seq.support
        self.cap = cfg.max_active_size if sup is None else min(sup + 1, cfg.max_active_size)
        if initial is None:
            n0 = min(max(2 * cfg.guard_band, 16), self.cap)
            self.y = np.zeros(n0)
            self.y[0] = 1.0
        else:
            self.y = np.array(initial, dtype=float)
            if len(self.y) > self.cap:
                raise ValueError("initial state longer than the window cap")
        self.b = seq.b_array(len(self.y))

    @property
    def n(self) -> int:
        return len(self.y)

    def tail_mass(self) -> float:
        if self.b[-1] == 0.0:
            return 0.0  # no coupling leaves the window: nothing is truncated
        g = min(self.cfg.guard_band, self.n)
        return float(np.sum(self.y[-g:] ** 2))

    def resize(self, new_n: int) -> None:
        new_n = min(new_n, self.cap)
        if new_n <= self.n:
            return
        y = np.zeros(new_n)
        y[: self.n] = self.y
        # b_1..b_n are kept; only the new tail is evaluated
        self.b = np.concatenate((self.b, self.seq.b_array(new_n - self.n, start=self.n + 1)))
        self.y = y

    def ensure_headroom(self) -> None:
        """Grow ahead of the front so steps rarely need redoing."""
        if self.tail_mass() > 0.01 * self.cfg.truncation_tol:
            self.resize(_grown(self.n, self.cfg))

    def accept(self, y: np.ndarray, y0: np.ndarray, t: float) -> bool:
        """Take the step y from y0 at t unless its guard band holds more than truncation_tol.

        A refused step grows the window and puts back y0, zero-padded, so
        the caller redoes it; at the cap it raises ResourceLimitError
        reporting t.
        """
        self.y = y
        if self.tail_mass() <= self.cfg.truncation_tol:
            return True
        if self.n >= self.cap:
            raise ResourceLimitError(t, self.cfg.max_active_size)
        self.y = y0
        self.resize(_grown(self.n, self.cfg))
        return False

    def state(self, t: float) -> WaveState:
        norm_err = abs(float(np.sum(self.y ** 2)) - 1.0)
        return WaveState(
            t=t,
            amplitudes=self.y.copy(),
            active_size=self.n,
            norm_error=norm_err,
            tail_mass=self.tail_mass(),
        )


class _CayleyStepper:
    """Adaptive stepping by a symmetric composition of Cayley stages.

    A stage of weight w over step h is the Cayley factor
    (I - cA)^-1 (I + cA) with c = w h / 2; the update is the product of
    the stages of cfg.method (see _COMPOSITIONS).  Every factor is exactly
    orthogonal because A is antisymmetric, so the norm is conserved to
    rounding and the step is not limited by the largest hopping in the
    window (the fast frontier modes are unpopulated).

    A stage runs on the even sites e and odd sites o of phi.  With
    p_j = b_{2j+1} and q_j = b_{2j+2}, A maps even to odd sites by
    (A_oe e)_j = p_j e_j - q_j e_{j+1}, and A_eo = -A_oe^T.  Eliminating
    the odd sites leaves S = I + c^2 A_oe^T A_oe, symmetric positive
    definite and tridiagonal on ceil(N/2) sites (Golub & Van Loan, Matrix
    Computations, 4.3).  The stage solves S for the increment of e:

        u = o + c A_oe e,   S delta = 2 c A_eo u,
        e' = e + delta,     o' = u + c A_oe e'.

    The increment form keeps the stage orthogonal to rounding; the form
    2 (I - cA)^-1 y - y carried over to S does not (norm error 1e-12
    against 1e-15 after 2,000 steps on a 40-site chain).  S is built from
    the same rounded c p and c q as the products.  Its diagonal
    1 + (cp)^2 + (cq)^2 is summed in long double and rounded once:
    rounding each square in double made the norm drift by ~2e-15 a step
    on windows where c b reaches ~1e3.  phi is split once per step and
    interleaved once at its end.  Windows of at most 4 sites take the same
    path: S, short of the 3 rows LAPACK's gttrf wrapper needs, is padded
    with identity rows and the right-hand side with zeros.

    The stages share A, so the update of order p equals exp(hA) up to
    h^(p+1) A^(p+1) C with C = |sum w^(p+1)| / ((p+1) 2^p), from
    log R_11(x) = 2 artanh(x/2).  Step size comes from the solution's
    measured timescale: with R = ||d phi/dt|| / ||phi|| over the
    populated sites, the local error per step is ~ C (h R)^(p+1) ||phi||,
    so

        h = (tol / C)^(1/(p+1)) / (SAFETY * R)

    keeps the per-step error near tol = abs_tol + rel_tol: C = 1/12 for
    "trapezoidal" (p = 2), C ~ 9.3e-4 for "cayley4" (p = 4) and
    C ~ 2.6e-4 for "cayley6" (p = 6).  A
    feedback controller (step doubling) is deliberately not used: the
    update is exactly orthogonal, so unresolved high-frequency content
    only accumulates bounded phase mismatch, which a doubling estimator
    misreads as error and answers by collapsing the step to the inverse
    of the largest hopping in the window.  Every step cuts what remains
    of the sample interval into the fewest equal steps no longer than h,
    so steps keep one length and share their LU factorizations.  A
    factorization is reused while its c matches the stage's to 1e-12
    relative, and the stage then runs with the cached c, so every stage
    stays an exact Cayley factor and the clock is off by at most 1e-12 h
    per step.  Within an interval the clock is start + k h rather than a
    running sum, so the steps of one plan keep one bit-identical length
    however far t is from 0.  The cache holds the current window size
    only, one factorization per distinct stage weight.
    """

    _SAFETY = 3.0

    def __init__(self, window: _Window, cfg: EvolveConfig):
        self.w = window
        self.cfg = cfg
        self.weights, order = _COMPOSITIONS[cfg.method]
        self._factors = {}  # stage weight -> (c, bands) at window size _factors_n
        self._factors_n = None
        tol = cfg.abs_tol + cfg.rel_tol
        inv_const = (order + 1) * 2 ** order / abs(sum(w ** (order + 1) for w in self.weights))
        self._dt_acc_base = (inv_const * tol) ** (1.0 / (order + 1)) / self._SAFETY

    def _factor(self, weight: float, c: float):
        """(c', bands) for the even-site system S = I + c'^2 A_oe^T A_oe.

        bands = (dl, d, du, du2, ipiv): dgttrf's LU bands of S / 2 (padded
        with identity rows up to 3 rows), that is its sub-, main and
        super-diagonal, its second superdiagonal and its pivots.  S is
        built from cp_j = c' b_{2j+1} and cq_j = c' b_{2j+2}, which the
        stage forms again from c' for its products: a cached pair per
        weight would add N floats of peak memory per weight.  Halving S is
        exact and folds the stage's factor 2 into the solve.  c' is the
        cached c when it matches c to rounding.
        """
        n = self.w.n
        if n != self._factors_n:
            self._factors.clear()
            self._factors_n = n
        hit = self._factors.get(weight)
        if hit is not None and abs(c - hit[0]) <= 1e-12 * abs(c):
            return hit
        off = self.w.b[: n - 1]
        cp, cq = c * off[0::2], c * off[1::2]
        d = np.ones(max((n + 1) // 2, 3), dtype=np.longdouble)
        d[: len(cp)] += np.square(cp, dtype=np.longdouble)
        d[1 : len(cq) + 1] += np.square(cq, dtype=np.longdouble)
        d = 0.5 * d.astype(float)
        s = np.zeros(len(d) - 1)
        np.multiply(-0.5 * cp[: len(cq)], cq, out=s[: len(cq)])
        dl, d, du, du2, ipiv, info = lapack.dgttrf(s, d, s)
        if info != 0:
            raise RuntimeError(f"dgttrf failed with info={info}")
        hit = self._factors[weight] = (c, (dl, d, du, du2, ipiv))
        return hit

    def _apply(self, h: float, y: np.ndarray, dy: Optional[np.ndarray] = None) -> np.ndarray:
        """One composed update over step h; dy = A y when the caller has it.

        Returns a new array and leaves y untouched.
        """
        e, o = y[0::2], y[1::2]
        off = self.w.b[: self.w.n - 1]
        for weight in self.weights:
            c, (dl, d, du, du2, ipiv) = self._factor(weight, 0.5 * weight * h)
            cp, cq = c * off[0::2], c * off[1::2]  # the values S was built from
            # u = o + c A_oe e; the first stage reads A_oe e off dy = A y
            if dy is None:
                u = _odd_from_even(cp, cq, e, o)
            else:
                u = c * dy[1::2]
                u += o
                dy = None
            # (S / 2) delta = c A_eo u, then e' = e + delta, o' = u + c A_oe e'
            r = _even_from_odd(cp, cq, u, len(d))
            delta, info = lapack.dgttrs(dl, d, du, du2, ipiv, r, overwrite_b=True)
            if info != 0:
                raise RuntimeError(f"dgttrs failed with info={info}")
            delta[: len(e)] += e
            e = delta[: len(e)]
            o = _odd_from_even(cp, cq, e, u)
        out = np.empty(len(y))
        out[0::2] = e
        out[1::2] = o
        return out

    def _rate(self, y: np.ndarray, dy: np.ndarray) -> float:
        """||d phi/dt|| / ||phi|| restricted to the populated sites; dy = A y.

        The populated sites are the range from the first to the last site
        above 1e-3 of the peak, widened by two sites each way so the first
        step away from a point-localized state still sees the outgoing
        derivative.
        """
        mag = np.abs(y)
        peak = float(mag.max())
        if peak == 0.0:
            return 1.0
        big = mag > 1e-3 * peak
        lo = max(int(big.argmax()) - 2, 0)
        hi = len(y) - int(big[::-1].argmax()) + 2
        num = float(np.sqrt(np.sum(dy[lo:hi] ** 2)))
        den = float(np.sqrt(np.sum(y[lo:hi] ** 2)))
        return max(num / max(den, 1e-300), 1e-300)

    def _pick_dt(self, remaining: float, y: np.ndarray, dy: np.ndarray) -> float:
        """Length of the fewest equal steps over `remaining` that the step rule allows.

        A rule's step under remaining / 1e13, below the step floor, is returned as it is.
        """
        dt_acc = self._dt_acc_base / self._rate(y, dy)
        return remaining / math.ceil(remaining / dt_acc) if remaining < 1e13 * dt_acc else dt_acc

    def advance(self, t: float, t_target: float) -> float:
        """Advance to t_target; returns the time reached."""
        eps = 1e-12 * max(1.0, abs(t_target))
        # the clock is start + k h while the step rule keeps a plan of m equal
        # steps, so rounding does not gather in t and h stays bit-identical
        start, k, m, h = t, 0, 0, 0.0
        while t < t_target - eps:
            self.w.ensure_headroom()
            # one A phi per step serves both the step rule and the update;
            # _apply leaves y0 intact for a redo
            y0 = self.w.y
            dy = _hop(self.w.b[: self.w.n - 1], y0)
            h_rule = self._pick_dt(t_target - t, y0, dy)
            _check_step(t, h_rule, t_target)
            steps = round((t_target - t) / h_rule)
            if steps != m - k:
                start, k, m, h = t, 0, steps, h_rule
            y = self._apply(h, y0, dy)
            del dy  # free it before a window growth allocates
            if self.w.accept(y, y0, t):
                k += 1
                t = start + k * h
        return t


class _TrapezoidalStepper(_CayleyStepper):
    """The one-stage Cayley stepper (order 2), whatever cfg.method names."""

    def __init__(self, window: _Window, cfg: EvolveConfig):
        super().__init__(window, replace(cfg, method="trapezoidal"))


class _RK45Stepper:
    """Explicit Dormand-Prince 5(4) by scipy.integrate.RK45 over the active window.

    The error test is scipy's per component, with scale
    abs_tol + rel_tol |phi_i|, and max_step = 0.5 / b_max over the window
    keeps the explicit step stable.  Every step still goes through
    _Window.accept; when the window grows, before a step or after a
    refused one, the solver is rebuilt from the window's state.  The step
    size carries over to the next sample interval as first_step.
    """

    def __init__(self, window: _Window, cfg: EvolveConfig):
        self.w = window
        self.cfg = cfg
        self.h = None  # scipy's step size, carried from one sample interval to the next

    def advance(self, t: float, t_target: float) -> float:
        """Advance to t_target; returns the time reached."""
        from scipy.integrate import RK45  # lazy: at module level it slows `import krylovchain`

        w, solver = self.w, None
        while t < t_target:
            n = w.n
            w.ensure_headroom()
            if solver is None or w.n != n:
                max_step = 0.5 / max(np.max(w.b, initial=0.0), 1e-300)
                _check_step(t, max_step, t_target)
                first = None if self.h is None else min(self.h, t_target - t)
                solver = RK45(
                    lambda _t, y, off=w.b[: w.n - 1]: _hop(off, y),
                    t, w.y, t_target, first_step=first, max_step=max_step,
                    rtol=self.cfg.rel_tol, atol=self.cfg.abs_tol,
                )
            y0 = w.y
            message = solver.step()
            if solver.status == "failed":
                raise StiffnessError(t, solver.h_abs, f"rk45: {message}")
            self.h = solver.h_abs
            if w.accept(solver.y, y0, t):
                t = solver.t
            else:
                solver = None
        return t


def evolve(
    seq: LanczosSequence,
    cfg: EvolveConfig,
    initial: Optional[np.ndarray] = None,
) -> Iterator[WaveState]:
    """Yield WaveState snapshots at the configured sample times.

    The initial condition is phi_n(0) = delta_{n0} unless `initial`
    supplies an amplitude vector (used e.g. for reversal checks).  Raises
    ResourceLimitError when the window would exceed max_active_size and
    StiffnessError when a step would be shorter than the step floor
    1e-13 max(1, t) at the next sample time t (see _check_step).
    """
    times = cfg.resolve_sample_times()
    window = _Window(seq, cfg, initial)
    stepper = (_RK45Stepper if cfg.method == "rk45" else _CayleyStepper)(window, cfg)
    t = 0.0
    for t_s in times:
        if t_s > t:
            t = stepper.advance(t, t_s)
        yield window.state(t_s if abs(t - t_s) < 1e-12 else t)
