"""Time evolution of the discrete operator wave function.

The amplitudes phi_0..phi_{N-1} obey the hopping system

    d phi_n / dt = b_n phi_{n-1} - b_{n+1} phi_{n+1},
    phi_n(0) = delta_{n0},  b_0 = 0,

whose generator A is antisymmetric, so the exact flow conserves
sum phi_n^2.  The active window [lo, N) is finite: its front grows ahead
of the packet, and its back follows a packet that leaves the origin (see
_Window).  Sites below lo are zero in every WaveState, and the dropped
mass shows in its norm_error.

Two stepper families are provided (METHODS names them):

* Cayley compositions, "cayley6" (default), "cayley4" and "trapezoidal":
  the update is a product of Cayley stages (I - c A) phi' = (I + c A) phi,
  with c = w h / 2 for the stage weights w of a symmetric composition of
  order 6, 4 or 2 (see _COMPOSITIONS).  A stage solves one tridiagonal
  system on the even sites, and the odd sites are carried from stage to
  stage by two bidiagonal products.  Every stage is exactly orthogonal,
  so the norm is conserved to rounding whatever the step, and the step
  follows the solution's timescale rather than the largest hopping in
  the window (see _CayleyStepper).
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
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np
from scipy.linalg import lapack

from .errors import (
    CouplingOverflowError,
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

__all__ = [
    "WaveState", "EvolveConfig", "rhs", "active_window_policy", "evolve", "planned_solves", "METHODS",
]

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
_EPS = float(np.finfo(float).eps)
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
        if self.abs_tol + self.rel_tol < _EPS:  # the step rule cannot ask for less
            raise ParameterError(None, f"expected abs_tol + rel_tol >= {_EPS!r}, the float64 epsilon")
        if self.sample_times is not None:
            object.__setattr__(self, "sample_times", tuple(float(t) for t in self.sample_times))
            if self.sample_times[-1] > self.t_max:
                raise ParameterError("sample_times", f"expected times <= t_max = {self.t_max!r}")
        elif self.grid == "log" and self.samples < 2:  # geomspace(lo, t_max, 1) is [lo]
            raise ParameterError("samples", "the log grid needs samples >= 2")
        elif self.grid == "log" and self.t_max * 10.0 ** -self.log_decades == 0.0:
            raise ParameterError("log_decades", "expected t_max 10^-log_decades > 0")
        # each sample interval spans more than ten step floors (see
        # _check_step), so the grid alone puts no step below the floor
        times = self.resolve_sample_times()
        if any(b - a <= 1e-12 * b for a, b in zip(times, times[1:])):
            raise ParameterError(
                "sample_times" if self.sample_times is not None else None,
                "expected sample times more than 1e-12 t apart",
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


def _norm(v: np.ndarray) -> float:
    """sqrt(sum v^2); where the squares overflow, v is first scaled by a power of two."""
    with np.errstate(over="ignore"):
        sq = float(np.sum(v ** 2))
    if sq < math.inf:
        return math.sqrt(sq)
    e = math.frexp(float(np.max(np.abs(v))))[1] - 1
    return math.sqrt(float(np.sum(np.ldexp(v, -e) ** 2))) * 2.0 ** e


def _mass(v: np.ndarray) -> float:
    """sum v^2 of a guard band."""
    return float((v * v).sum())


def _grown(n: int, cfg: EvolveConfig) -> int:
    """The window growth rule: the size that follows n sites, before any cap."""
    return math.ceil(1.12 * n) + cfg.guard_band


def _finite_prefix(b: np.ndarray) -> int:
    """Length of b up to and including its first non-finite entry."""
    bad = ~np.isfinite(b)
    return int(bad.argmax()) + 1 if bad.any() else len(b)


def _equal_steps(a: float, b: float, dt: float) -> Tuple[float, int]:
    """(h, k): the fewest k equal steps h no longer than dt from a to b > a.

    Raises StiffnessError at a where (b - a) / dt reaches 1e13 or dt is not
    a number, and where h is below the step floor (see _check_step).
    """
    if not b - a < 1e13 * dt:
        raise StiffnessError(a, dt)
    k = max(math.ceil((b - a) / dt), 1)
    h = (b - a) / k
    _check_step(a, h, b)
    return h, k


def _check_step(t: float, h: float, t_target: float) -> None:
    """The step floor of both steppers: StiffnessError at t unless h >= 1e-13 |t_target|.

    The floor is relative, as is EvolveConfig's rule that sample times lie
    more than 1e-12 t apart, so the chain b -> s b run to t / s meets both
    where the unscaled one does.
    """
    if not h >= 1e-13 * abs(t_target):
        raise StiffnessError(t, h)


def active_window_policy(state: WaveState, cfg: EvolveConfig) -> int:
    """Next window size: unchanged unless the guard band carries too much mass."""
    n = state.active_size
    return n if state.tail_mass <= cfg.truncation_tol else min(_grown(n, cfg), cfg.max_active_size)


class _Window:
    """Active window [lo, n) bookkeeping shared by both steppers.

    y holds phi_lo..phi_{n-1}; b holds b_1..b_n from site 0 on, so the
    back edge moves without evaluating couplings again, and `off` is the
    couplings b_{lo+1}..b_{n-1} inside the window.  The front grows ahead
    of the packet and the back follows it, by two rules, each in one
    place: accept refuses a step that leaves more than truncation_tol in
    either guard band, and ensure_headroom, run before every attempt,
    grows an edge whose band holds more than keep, 1 % of truncation_tol
    (the front: 0.1 % once lo > 0).  keep is also the mass the trim may
    drop.  _masses holds the (tail, head) sums of the step accept last
    tried, for the next ensure_headroom; a trim drops them.
    """

    def __init__(self, seq: LanczosSequence, cfg: EvolveConfig, initial: Optional[np.ndarray]):
        self.seq = seq
        self.cfg = cfg
        self.keep = 0.01 * cfg.truncation_tol
        self.lo = 0
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
        m = _finite_prefix(self.b)
        if m < self.n:
            if initial is not None:
                raise CouplingOverflowError(m, float(self.b[m - 1]))
            self.y, self.b = self.y[:m], self.b[:m]
        self._masses = None

    @property
    def n(self) -> int:
        return self.lo + len(self.y)

    @property
    def off(self) -> np.ndarray:
        return self.b[self.lo : self.n - 1]

    def tail_mass(self) -> float:
        if self.b[-1] == 0.0:
            return 0.0  # no coupling leaves the window: nothing is truncated
        return _mass(self.y[-self.cfg.guard_band :])

    def head_mass(self) -> float:
        """The squared mass in the leading guard band; 0 at lo = 0, where b_0 = 0 holds it in."""
        return _mass(self.y[: self.cfg.guard_band]) if self.lo else 0.0

    def resize(self, new_n: int) -> None:
        """Grow to new_n sites, or to fewer where a coupling is not finite.

        The window never holds a non-finite coupling: it stops at the site
        that the first one, b_m, would join to it, and growing past that
        raises CouplingOverflowError naming b_m.
        """
        new_n = min(new_n, self.cap)
        if new_n <= self.n:
            return
        if not math.isfinite(self.b[-1]):
            raise CouplingOverflowError(self.n, float(self.b[-1]))
        # b_1..b_n are kept; only the new tail is evaluated
        tail = self.seq.b_array(new_n - self.n, start=self.n + 1)
        tail = tail[: _finite_prefix(tail)]
        y = np.zeros(len(self.y) + len(tail))
        y[: len(self.y)] = self.y
        self.b = np.concatenate((self.b, tail))
        self.y = y

    def grow_back(self) -> None:
        """Move lo back by the growth rule's step for the window's size, but not past 0."""
        m = len(self.y)
        lo = max(self.lo - (_grown(m, self.cfg) - m), 0)
        self.y = np.concatenate((np.zeros(self.lo - lo), self.y))
        self.lo = lo

    def trim(self, band: float) -> None:
        """Drop the leading sites the packet has left behind.

        band is the mass of the first guard_band sites.  Nothing happens
        unless it is at most keep, so a packet that still covers the first
        sites costs no further sum.  Otherwise the longest leading run of at most that mass goes,
        but for guard_band sites of it, provided at least a quarter of the
        window goes and 64 sites or more stay: each change of lo refactors
        every stage.
        """
        g, keep, m = self.cfg.guard_band, self.keep, len(self.y)
        quarter = -(-m // 4)
        if m - quarter < 64:
            return
        if band > keep or _mass(self.y[: quarter + g]) > keep:
            return
        run = int(np.searchsorted(np.cumsum(self.y ** 2), keep, side="right"))
        cut = min(run - g, m - 64)
        self.y = self.y[cut:]
        self.lo += cut
        self._masses = None

    def ensure_headroom(self) -> None:
        """Grow ahead of the front, and behind the back, so steps rarely need redoing.

        Every growth happens here, before a step and before the redo of a
        refused one.  The guard-band sums are those of the step accept last
        tried, taken or refused, or of y when there are none (the first
        step, or after a trim).  The back grows when its leading band holds
        more than keep.  The front grows when its trailing band holds more
        than keep while lo = 0, and more than a tenth of keep once the back
        has moved.  Each implicit stage spreads the truncation at the front
        over the whole window in one step; at keep, the leading quarter of
        a trimmed window fills to keep too (1.9e-14 on b_n = sqrt(n) at
        t = 93, where the closed form holds 6.7e-56), and the trim stops
        following the packet.  While lo = 0 nothing is trimmed yet, and
        growing sooner would only widen the window: the nu = 2 point of
        docs/examples/evolve_spectral_sweep.json would end on 534,160
        sites instead of 476,921.
        """
        tail, head = self._masses or (self.tail_mass(), self.head_mass())
        self._masses = None
        if tail > (0.1 * self.keep if self.lo else self.keep):
            self.resize(_grown(self.n, self.cfg))
        if head > self.keep:
            self.grow_back()

    def accept(self, y: np.ndarray, y0: np.ndarray, t: float) -> bool:
        """Take the step y from y0 at t unless a guard band holds more than truncation_tol.

        An accepted step may trim the back (see trim).  A refused step puts
        back y0 and leaves the window as it was: the sums it leaves make the
        next ensure_headroom grow the overfull edge before the caller redoes
        the step.  A front at the cap raises ResourceLimitError reporting t.
        """
        self.y = y
        tail, band = self.tail_mass(), _mass(y[: self.cfg.guard_band])
        head = band if self.lo else 0.0
        self._masses = (tail, head)
        front, back = tail > self.cfg.truncation_tol, head > self.cfg.truncation_tol
        if not (front or back):
            self.trim(band)
            return True
        if front and self.n >= self.cap:
            raise ResourceLimitError(t, self.cfg.max_active_size)
        self.y = y0
        return False

    def state(self, t: float) -> WaveState:
        amplitudes = np.zeros(self.n)
        amplitudes[self.lo :] = self.y
        return WaveState(
            t=t,
            amplitudes=amplitudes,
            active_size=self.n,
            norm_error=abs(float(np.sum(self.y ** 2)) - 1.0),
            tail_mass=self.tail_mass(),
        )


class _CayleyStepper:
    """Adaptive stepping by a symmetric composition of Cayley stages.

    A stage of weight w over step h is the Cayley factor
    (I - cA)^-1 (I + cA) with c = w h / 2; the update is the product of
    the stages of cfg.method (see _COMPOSITIONS).

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
    against 1e-15 after 2,000 steps on a 40-site chain).  The odd sites
    are carried from stage to stage as u: the next stage, of c_next,
    starts from o' + c_next A_oe e' = u + (c + c_next) A_oe e', so each
    stage forms A_oe e and A_eo u once, and o' = u + c A_oe e' is formed
    after the last stage only.

    The stages share A, so the update of order p equals exp(hA) up to
    h^(p+1) A^(p+1) C with C = |sum w^(p+1)| / ((p+1) 2^p), from
    log R_11(x) = 2 artanh(x/2).  Step size comes from the solution's
    timescale: with R = ||d phi/dt|| / ||phi||, the local error per step
    is ~ C (h R)^(p+1) ||phi||, so

        h = (tol / C)^(1/(p+1)) / (SAFETY * R)

    keeps the per-step error near tol = abs_tol + rel_tol: C = 1/12 for
    "trapezoidal" (p = 2), C ~ 9.3e-4 for "cayley4" (p = 4) and
    C ~ 2.6e-4 for "cayley6" (p = 6).  R is taken once per run, over the
    whole window of the state the run starts in (b_1 from phi = delta_n0):
    A is antisymmetric, so the exact flow e^(tA) is orthogonal and
    commutes with A, and ||A phi|| / ||phi|| is constant along it
    (Hairer, Lubich & Wanner, IV.2).  A feedback controller (step
    doubling) is deliberately not used: the update is exactly orthogonal,
    so unresolved high-frequency content only accumulates bounded phase
    mismatch, which a doubling estimator misreads as error and answers by
    collapsing the step to the inverse of the largest hopping in the
    window.  Each sample interval is cut into the fewest k equal steps no
    longer than h, so its steps keep one bit-identical length and share
    their LU factorizations, and it ends after exactly k accepted steps:
    steps are counted, not summed into a clock, so none is lost to
    rounding and no tolerance in t sets the unit of time.

    _factors maps each distinct stage weight to one record
    (c, bands, (lo, n)), which carries the window (lo, n) it was built on
    and is checked against it where it is used: _factor reuses, extends
    or replaces it.
    """

    _SAFETY = 3.0

    def __init__(self, window: _Window, cfg: EvolveConfig):
        self.w = window
        self.cfg = cfg
        self.weights, order = _COMPOSITIONS[cfg.method]
        self._factors = {}
        tol = cfg.abs_tol + cfg.rel_tol
        inv_const = (order + 1) * 2 ** order / abs(sum(w ** (order + 1) for w in self.weights))
        self._dt_acc_base = (inv_const * tol) ** (1.0 / (order + 1)) / self._SAFETY
        self._dt_acc = self._dt_acc_base / self._rate(window.y, _hop(window.off, window.y))

    def _factor(self, weight: float, c: float):
        """(c', bands) for the even-site system S = I + c'^2 A_oe^T A_oe.

        bands = (dl, d, du, du2, ipiv): dgttrf's LU bands of S / 2 (padded
        with identity rows up to 3 rows), that is its sub-, main and
        super-diagonal, its second superdiagonal and its pivots.

        The weight's record is reused on its own window when its c
        matches c to 1e-12 relative, and c' is then the cached c: the
        stage stays an exact Cayley factor, of a step within 1e-12 h of h.
        Otherwise c' = c and the record is replaced, so the cache holds
        one set per weight.

        After a growth of the front from k rows of S to more, with lo
        unchanged, a set whose c is the stage's own, bit for bit, is
        extended rather than rebuilt.  The LU of a tridiagonal matrix runs
        top down, and of the old rows only row k-1 changes (its coupling to
        row k appears, and after an odd window size a term of its
        diagonal).  So rows 0..k-3 of the old bands are kept and dgttrf
        runs on rows k-2.., with row k-2 as the elimination left it: dgttrf
        redoes the one step that reaches row k-1 itself, and the spliced
        bands equal those of a fresh factorization.  This needs that step
        to have made no row interchange and the tail to have at least 3
        rows; otherwise, for padded S and after any move of lo, S is
        factored from row 0.
        """
        at = (self.w.lo, self.w.n)
        old = self._factors.get(weight)
        row = 0
        if old is not None:
            c_old, bands_old, (lo, n) = old
            if (lo, n) == at and abs(c - c_old) <= 1e-12 * abs(c):
                return c_old, bands_old
            k = (n - lo + 1) // 2  # the rows of the record's S
            grown = lo == at[0] and (at[1] - lo + 1) // 2 > k >= 3
            if grown and c_old == c and bands_old[4][k - 2] == k - 1:  # ipiv is 1-based
                row = k - 2
        d, s = self._half_s(c, row)
        du = s
        if row:
            # the row as the elimination left it, before its own step
            d[0] = bands_old[1][row]
            du = s.copy()
            du[0] = bands_old[2][row]
        *bands, info = lapack.dgttrf(s, d, du)
        if info != 0:
            raise RuntimeError(f"dgttrf failed with info={info}")
        if row:
            bands[4] += row
            bands = [np.concatenate((head[:row], tail)) for head, tail in zip(bands_old, bands)]
        bands = tuple(bands)
        self._factors[weight] = (c, bands, at)
        return c, bands

    def _half_s(self, c: float, row: int):
        """Rows row.. of S / 2 as (d, s): its diagonal and its off-diagonal.

        S is built from cp_j = c b_{2j+1} and cq_j = c b_{2j+2}, rounded
        once each; the stage takes its products with b and scales its
        right-hand side by c, so no c b is kept.  The diagonal
        1 + cp_j^2 + cq_{j-1}^2 is summed in long double and rounded once:
        rounding each square in double made the norm drift by ~2e-15 a
        step on windows where c b reaches ~1e3.  Halving S is exact and
        folds the stage's factor 2 into the solve.  From row 0, S has at
        least 3 rows, LAPACK's gttrf wrapper's least, padded with identity
        rows.
        """
        off = self.w.off
        cp, cq = c * off[2 * row :: 2], c * off[2 * row + 1 :: 2]
        d = np.ones(max((len(off) + 2) // 2, 3) - row, dtype=np.longdouble)
        d[: len(cp)] += np.square(cp, dtype=np.longdouble)
        if row:
            d[0] += np.square(c * off[2 * row - 1], dtype=np.longdouble)
        d[1 : len(cq) + 1] += np.square(cq, dtype=np.longdouble)
        s = np.zeros(len(d) - 1)
        with np.errstate(over="raise"):  # FloatingPointError where (c b)^2 leaves the float range
            d = 0.5 * d.astype(float)
            np.multiply(-0.5 * cp[: len(cq)], cq, out=s[: len(cq)])
        return d, s

    def _apply(self, h: float, y: np.ndarray) -> np.ndarray:
        """One composed update over step h.

        Returns a new array and leaves y untouched.  The odd sites are
        carried across the stages as u (see _CayleyStepper).  The work
        arrays are made after every stage is factored, so that no
        factorization meets them: the peak memory stays that of one
        stage's temporaries.
        """
        factors = [self._factor(weight, 0.5 * weight * h) for weight in self.weights]
        p, q = self.w.off[0::2], self.w.off[1::2]
        odd, nq = len(p), len(q)
        e, u, t = y[0::2].copy(), y[1::2].copy(), np.empty(odd)
        # S's rows, the length of its diagonal band; the rows past the sites
        # start at zero and stay so, as S's padding rows are coupled to none
        r = np.zeros(len(factors[0][1][1]))
        e_lo, e_hi, u_q, t_q = e[:odd], e[1:], u[:nq], t[:nq]
        r_sites, r_lo, r_hi, r_q = r[: nq + 1], r[:odd], r[1 : nq + 1], r[:nq]
        c_prev = 0.0
        for c, bands in factors + [(0.0, None)]:
            # u += (c_prev + c) A_oe e, with A_oe e = p e_lo - q e_hi and q e_hi in r
            np.multiply(p, e_lo, t)
            np.multiply(q, e_hi, r_q)
            t_q -= r_q
            t *= c_prev + c
            u += t
            if bands is None:
                break  # past the last stage u holds the odd sites
            # (S / 2) delta = c A_eo u, whose row j is c (q_{j-1} u_{j-1} - p_j u_j)
            r[0] = 0.0
            np.multiply(q, u_q, r_hi)
            np.multiply(p, u, t)
            r_lo -= t
            r *= c
            # the solve overwrites r: a contiguous float64 array is not copied
            dl, d, du, du2, ipiv = bands
            info = lapack.dgttrs(dl, d, du, du2, ipiv, r, overwrite_b=True)[1]
            if info != 0:
                raise RuntimeError(f"dgttrs failed with info={info}")
            e += r_sites
            c_prev = c
        out = np.empty(len(y))
        out[0::2] = e
        out[1::2] = u
        return out

    def _rate(self, y: np.ndarray, dy: np.ndarray) -> float:
        """||d phi/dt|| / ||phi|| over the whole window; dy = A y."""
        if not y.any():
            return 1.0
        return max(_norm(dy) / max(_norm(y), 1e-300), 1e-300)

    def advance(self, t: float, t_target: float) -> float:
        """Advance from t to t_target > t in k equal steps h (see _equal_steps); returns t_target."""
        j, k, h = 0, 1, None  # (h, k) is planned at the first attempt
        while j < k:
            self.w.ensure_headroom()
            if h is None:
                # planned after the interval's first growth, so that a
                # coupling that overflows there is named first
                h, k = _equal_steps(t, t_target, self._dt_acc)
            # _apply leaves y0 intact for a redo
            y0 = self.w.y
            try:
                y = self._apply(h, y0)
            except FloatingPointError:
                raise StiffnessError(t + j * h, h, "the stage system overflows float64") from None
            if self.w.accept(y, y0, t + j * h):
                j += 1
        return t_target


class _RK45Stepper:
    """Explicit Dormand-Prince 5(4) by scipy.integrate.RK45 over the active window.

    The error test is scipy's per component, with scale
    abs_tol + rel_tol |phi_i|, and max_step = 0.5 / b_max over the window
    keeps the explicit step stable.  Every step still goes through
    _Window.accept.  The solver carries the window (lo, n) it was built
    on, and is rebuilt from the window's state when either edge has moved:
    by a trim, or by the headroom check before a step, which always moves
    an edge (or raises) before the redo of a refused one.  The step size carries over to the next sample
    interval as first_step.
    """

    def __init__(self, window: _Window, cfg: EvolveConfig):
        self.w = window
        self.cfg = cfg
        self.h = None  # scipy's step size, carried from one sample interval to the next

    def advance(self, t: float, t_target: float) -> float:
        """Advance to t_target; returns the time reached."""
        from scipy.integrate import RK45  # lazy: at module level it slows `import krylovchain`

        w, built = self.w, None
        while t < t_target:
            w.ensure_headroom()
            if (w.lo, w.n) != built:
                max_step = 0.5 / max(np.max(w.b, initial=0.0), 1e-300)
                _check_step(t, max_step, t_target)
                first = None if self.h is None else min(self.h, t_target - t)
                # scipy's first-step guess divides by abs_tol + rel_tol |y|: for a tiny
                # abs_tol that overflows, then takes 0/0, and the guess comes out 0
                with np.errstate(over="ignore", invalid="ignore"):
                    solver = RK45(
                        lambda _t, y, off=w.off: _hop(off, y),
                        t, w.y, t_target, first_step=first, max_step=max_step,
                        rtol=self.cfg.rel_tol, atol=self.cfg.abs_tol,
                    )
                built = (w.lo, w.n)
            y0 = w.y
            message = solver.step()
            if solver.status == "failed":
                raise StiffnessError(t, solver.h_abs, f"rk45: {message}")
            self.h = solver.h_abs
            if w.accept(solver.y, y0, t):
                t = solver.t
        return t


def evolve(
    seq: LanczosSequence,
    cfg: EvolveConfig,
    initial: Optional[np.ndarray] = None,
) -> Iterator[WaveState]:
    """Yield WaveState snapshots at the configured sample times.

    The initial condition is phi_n(0) = delta_{n0} unless `initial`
    supplies an amplitude vector (used e.g. for reversal checks).  Raises
    ResourceLimitError when the window would exceed max_active_size,
    CouplingOverflowError when it would need a coupling b_n that is not
    a finite float, and StiffnessError when a Cayley stage system
    overflows or a step would be shorter than the step floor
    1e-13 t at the next sample time t (see _check_step); sample times
    lie more than 1e-12 t apart.
    """
    times = cfg.resolve_sample_times()
    window = _Window(seq, cfg, initial)
    stepper = (_RK45Stepper if cfg.method == "rk45" else _CayleyStepper)(window, cfg)
    for a, b in zip((0.0,) + times, times):
        if b > a:
            stepper.advance(a, b)
        yield window.state(b)


def planned_solves(seq: LanczosSequence, cfg: EvolveConfig) -> int:
    """The stage solves that the Cayley step rule plans for evolve(seq, cfg).

    The step rate is the one _CayleyStepper takes from the window the run
    starts on, and each sample interval, from 0 to the first sample time
    on, is cut into the steps that advance takes (see _equal_steps); each
    step solves one system per stage.  A refused step is redone, so a run
    with r of them makes r * stages more solves.  The plan ends at the
    first interval whose step is below the step floor, where the run ends
    too.  rk45 solves no stage system: its plan is 0.
    """
    if cfg.method == "rk45":
        return 0
    stepper = _CayleyStepper(_Window(seq, cfg, None), cfg)
    times = cfg.resolve_sample_times()
    steps = 0
    for a, b in zip((0.0,) + times, times):
        if b > a:
            try:
                steps += _equal_steps(a, b, stepper._dt_acc)[1]
            except StiffnessError:
                break
    return steps * len(stepper.weights)
