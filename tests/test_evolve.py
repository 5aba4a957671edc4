"""Chain evolution: invariants, closed-form agreement, window policy."""

import importlib
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import krylovchain
from krylovchain import (
    Constant,
    ConstantWithFirst,
    CouplingOverflowError,
    EvolveConfig,
    Explicit,
    Linear,
    ParameterError,
    PowerLaw,
    ResourceLimitError,
    SqrtGrowth,
    StiffnessError,
    Su2,
    SykLike,
    WaveState,
    active_window_policy,
    evolve,
    rhs,
)
from krylovchain.closedforms import (
    bessel_chain_wavefunction,
    coherent_wavefunction,
    finite_chain_modes,
    su2_wavefunction,
    syk_wavefunction,
)
from krylovchain.evolve import METHODS, _split


def _interleaved(e, o):
    """The sites whose even ones are e and odd ones o, as one new array."""
    y = np.empty(len(e) + len(o))
    y[0::2], y[1::2] = e, o
    return y


def _sites(w):
    """The window's phi_lo..phi_{n-1}, interleaved."""
    return _interleaved(w.e, w.o)


def _apply(stp, h, y):
    """stp's composed update over h of the window sites y, interleaved.

    The window takes y as its state first; the update is not accepted.
    """
    stp.w.e, stp.w.o = _split(y)
    return _interleaved(*stp._apply(h))


def make_state(amps, t=0.0, tail=0.0):
    amps = np.asarray(amps, dtype=float)
    return WaveState(
        t=t,
        amplitudes=amps,
        active_size=len(amps),
        norm_error=abs(float(np.sum(amps ** 2)) - 1.0),
        tail_mass=tail,
    )


class TestRhs:
    def test_initial_kick(self):
        st = make_state([1.0, 0.0, 0.0, 0.0])
        d = rhs(st, SykLike(1.0, 1.0))
        assert d[0] == 0.0
        assert d[1] == pytest.approx(1.0)  # b_1 * phi_0
        assert np.all(d[2:] == 0.0)

    def test_linearity_zero_state(self):
        st = make_state([0.0, 0.0, 0.0])
        assert np.all(rhs(st, Constant(2.0)) == 0.0)

    def test_single_frequency_rotation(self):
        w = 1.3
        t = 0.4
        st = make_state([math.cos(w * t), math.sin(w * t)], t=t)
        d = rhs(st, Explicit((w,)))
        assert d[0] == pytest.approx(-w * math.sin(w * t), abs=1e-14)
        assert d[1] == pytest.approx(w * math.cos(w * t), abs=1e-14)

    def test_antisymmetry_conserves_norm_rate(self):
        rng = np.random.default_rng(3)
        y = rng.normal(size=24)
        y /= np.linalg.norm(y)
        st = make_state(y)
        d = rhs(st, SqrtGrowth(1.0))
        assert abs(float(y @ d)) < 1e-13


class TestEvolveBasics:
    def test_initial_condition(self):
        cfg = EvolveConfig(t_max=1.0, samples=4)
        first = next(iter(evolve(SykLike(1.0, 1.0), cfg)))
        assert first.t == 0.0
        assert first.amplitudes[0] == 1.0
        assert np.all(first.amplitudes[1:] == 0.0)

    def test_single_site_rotation_tight(self):
        # phi_0 = cos(wt), phi_1 = sin(wt); at t = pi/2 the state sits on site 1
        cfg = EvolveConfig(
            t_max=math.pi / 2, samples=10, method="rk45", rel_tol=1e-12, abs_tol=1e-14
        )
        st = list(evolve(Explicit((1.0,)), cfg))[-1]
        assert abs(st.amplitudes[0]) < 1e-9
        assert abs(st.amplitudes[1] - 1.0) < 1e-9

    def test_syk_phi0_value(self):
        cfg = EvolveConfig(t_max=1.0, samples=4)
        st = list(evolve(SykLike(1.0, 1.0), cfg))[-1]
        assert st.amplitudes[0] == pytest.approx(1.0 / math.cosh(1.0), abs=1e-7)

    def test_log_sample_grid(self):
        cfg = EvolveConfig(t_max=10.0, samples=12, grid="log", log_decades=2.0)
        ts = cfg.resolve_sample_times()
        assert ts[0] == 0.0 and ts[1] == pytest.approx(0.1) and ts[-1] == 10.0

    @pytest.mark.parametrize("method", ["cayley6", "rk45"])
    def test_explicit_sample_times(self, method):
        # each state carries its sample time bit for bit, on a grid that
        # starts at 0 and on one that starts after it
        for times in ((0.0, 0.5, 2.0), (0.25, 0.5, 2.0)):
            cfg = EvolveConfig(t_max=2.0, sample_times=times, method=method)
            states = list(evolve(Constant(1.0), cfg))
            assert [s.t for s in states] == list(times)


CLOSED_FORMS = [
    ("syk_eta1", SykLike(1.0, 1.0), lambda n, t: syk_wavefunction(1.0, 1.0, n, t)),
    ("syk_eta2", SykLike(1.0, 2.0), lambda n, t: syk_wavefunction(1.0, 2.0, n, t)),
    ("coherent", SqrtGrowth(1.0), lambda n, t: coherent_wavefunction(1.0, n, t)),
    ("su2_j2", Su2(1.0, 2.0), lambda n, t: su2_wavefunction(1.0, 2.0, n, t)),
    (
        "bessel_a",
        Constant(0.5),
        lambda n, t: bessel_chain_wavefunction("A", 1.0, n, t),
    ),
    (
        "bessel_b",
        ConstantWithFirst(1.0 / math.sqrt(2.0), 0.5),
        lambda n, t: bessel_chain_wavefunction("B", 1.0, n, t),
    ),
    ("explicit_k1", Explicit((1.0,)), lambda n, t: [math.cos(t), math.sin(t)][n]),
]


# every closed form under the default method, and all but SYK (minutes per
# run on its exponentially growing window) under rk45
ORACLE_RUNS = [pytest.param(*c, "cayley4", id=c[0]) for c in CLOSED_FORMS] + [
    pytest.param(*c, "rk45", id=f"{c[0]}-rk45")
    for c in CLOSED_FORMS
    if not c[0].startswith("syk")
]


@pytest.mark.parametrize("name,seq,exact,method", ORACLE_RUNS)
def test_oracle_agreement_small_horizon(name, seq, exact, method):
    # |phi_n(numeric) - phi_n(closed form)| <= 1e-6 for t <= 5, n <= 50
    cfg = EvolveConfig(t_max=5.0, samples=10, method=method)
    worst = 0.0
    for st in evolve(seq, cfg):
        hi = min(50, st.active_size)
        ref = np.array([exact(n, st.t) for n in range(hi)])
        worst = max(worst, float(np.max(np.abs(st.amplitudes[:hi] - ref))))
    assert worst < 1e-6, f"{name}: {worst:.2e}"


@pytest.mark.parametrize(
    "seq,t_max",
    [
        (SykLike(1.0, 1.0), 5.0),
        (SqrtGrowth(1.0), 20.0),
        (Su2(1.0, 2.0), 20.0),
        (Constant(1.0), 20.0),
        (Explicit((1.0, 0.7)), 20.0),
    ],
)
def test_norm_conservation(seq, t_max):
    cfg = EvolveConfig(t_max=t_max, samples=25)
    for st in evolve(seq, cfg):
        assert st.norm_error <= 1e-9
        assert st.tail_mass <= cfg.truncation_tol


def test_rk45_cross_check():
    cfg_t = EvolveConfig(t_max=2.0, samples=5)
    cfg_r = EvolveConfig(t_max=2.0, samples=5, method="rk45")
    for st_t, st_r in zip(evolve(SykLike(1.0, 1.0), cfg_t), evolve(SykLike(1.0, 1.0), cfg_r)):
        hi = min(st_t.active_size, st_r.active_size)
        assert np.max(np.abs(st_t.amplitudes[:hi] - st_r.amplitudes[:hi])) < 1e-6


def test_import_leaves_scipy_integrate_and_special_unloaded():
    # both load on first use (rk45, closed forms); importing them eagerly
    # would slow every `import krylovchain`.  The top-level scipy and mpmath
    # do load: the benchmark's set-up probe reads their versions from
    # sys.modules right after `import krylovchain`
    lazy = "{'scipy.integrate', 'scipy.special'}"
    code = (
        f"import sys, krylovchain; print(sorted({lazy} & set(sys.modules)),"
        " [m for m in ('scipy', 'mpmath') if m in sys.modules])"
    )
    path = (str(Path(krylovchain.__file__).parents[1]), os.environ.get("PYTHONPATH"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[] ['scipy', 'mpmath']"


def test_time_reversal():
    # flipping the sign of odd sites conjugates the generator to its negative,
    # so evolve -> flip -> evolve -> flip must return to the initial state
    cfg = EvolveConfig(t_max=2.0, samples=2)
    final = list(evolve(SykLike(1.0, 1.0), cfg))[-1]
    flipped = final.amplitudes.copy()
    flipped[1::2] *= -1.0
    back = list(evolve(SykLike(1.0, 1.0), cfg, initial=flipped))[-1].amplitudes.copy()
    back[1::2] *= -1.0
    assert abs(back[0] - 1.0) < 1e-6
    assert np.max(np.abs(back[1:])) < 1e-6


def test_phi0_parity():
    # phi_0(t) is even in t; checked by a genuine small negative-time
    # integration with the low-level Cayley update of each composition
    from krylovchain.evolve import _CayleyStepper, _Window

    for method in ("trapezoidal", "cayley4"):
        cfg = EvolveConfig(t_max=1.0, samples=2, method=method)
        runs = {}
        for sign in (+1.0, -1.0):
            w = _Window(SqrtGrowth(1.0), cfg, None)
            w.resize(80)
            stp = _CayleyStepper(w, cfg)
            for _ in range(500):
                w.e, w.o = stp._apply(sign * 1e-3)
            runs[sign] = _sites(w)
        pos, neg = runs[1.0], runs[-1.0]
        assert neg[0] == pytest.approx(pos[0], abs=1e-12), method
        # and site parity phi_n(-t) = (-1)^n phi_n(t)
        signs = (-1.0) ** np.arange(len(pos))
        assert np.max(np.abs(neg - signs * pos)) < 1e-12, method
        # quadratic small-t law: 1 - phi_0(t) -> mu_2 t^2 / 2
        small = EvolveConfig(t_max=1e-3, samples=2, method=method)
        st = list(evolve(SqrtGrowth(1.0), small))[-1]
        assert 1.0 - st.amplitudes[0] == pytest.approx(0.5 * 1e-6, rel=1e-3), method


@pytest.mark.parametrize(
    "method,ratio", [("trapezoidal", 4.0), ("cayley4", 16.0), ("cayley6", 64.0)]
)
def test_fixed_step_order(method, ratio):
    # global error at fixed step h scales as h^order against the su(2) closed form
    from krylovchain.evolve import _CayleyStepper, _Window

    t_end = 2.0
    cfg = EvolveConfig(t_max=t_end, method=method)
    ref = np.array([su2_wavefunction(1.0, 2.0, n, t_end) for n in range(5)])
    errs = []
    for steps in (20, 40):
        w = _Window(Su2(1.0, 2.0), cfg, None)
        stp = _CayleyStepper(w, cfg)
        y = _sites(w)
        for _ in range(steps):
            y = _apply(stp, t_end / steps, y)
        errs.append(float(np.max(np.abs(y - ref))))
    assert errs[0] / errs[1] == pytest.approx(ratio, rel=0.25)


def test_compositions_meet_their_order_conditions():
    # the stages commute, so order p needs only sum w = 1 and
    # sum w^(2j+1) = 0 for 1 <= j < p / 2
    from krylovchain.evolve import _COMPOSITIONS

    for method, (weights, order) in _COMPOSITIONS.items():
        assert abs(math.fsum(weights) - 1.0) <= 1e-15, method
        for j in range(1, order // 2):
            assert abs(math.fsum(w ** (2 * j + 1) for w in weights)) <= 1e-15, (method, j)


def test_cayley4_forward_back_round_trip():
    # each stage is orthogonal and the composition is symmetric, so h then -h
    # undoes a step up to rounding
    from krylovchain.evolve import _CayleyStepper, _Window

    seq = Explicit(tuple(1.0 + 0.5 * np.sin(np.arange(1, 40))))
    cfg = EvolveConfig(t_max=1.0, method="cayley4")
    w = _Window(seq, cfg, None)
    w.resize(40)
    assert w.n == 40
    stp = _CayleyStepper(w, cfg)
    y = _sites(w)
    for h in (1e-2, -1e-2):
        for _ in range(1000):
            y = _apply(stp, h, y)
        assert abs(float(np.sum(y ** 2)) - 1.0) <= 1e-12
    start = np.zeros(40)
    start[0] = 1.0
    assert np.max(np.abs(y - start)) <= 1e-12


def _expression_stages(stp, h, y):
    # the even-site stages of _CayleyStepper._apply, with the odd sites carried
    # across them as u, written as plain numpy expressions, each evaluated left
    # to right, on the stepper's own factors; S is symmetric, and each solve
    # takes its LU transposed
    from scipy.linalg import lapack

    e, u, off = y[0::2], y[1::2], stp.w.off
    p, q = off[0::2], off[1::2]
    c_prev = 0.0
    for weight in stp.weights:
        c, (dl, d, du, du2, ipiv) = stp._factor(weight, 0.5 * weight * h)
        a_oe_e = p * e[: len(p)]
        a_oe_e[: len(q)] -= q * e[1:]
        u = u + a_oe_e * (c_prev + c)
        r = np.zeros(len(d))
        r[1 : len(q) + 1] = q * u[: len(q)]
        r[: len(p)] -= p * u
        delta = lapack.dgttrs(dl, d, du, du2, ipiv, r * c, trans="T")[0]
        e = e + delta[: len(e)]
        c_prev = c
    a_oe_e = p * e[: len(p)]
    a_oe_e[: len(q)] -= q * e[1:]
    out = np.empty(len(y))
    out[0::2], out[1::2] = e, u + a_oe_e * c_prev
    return out


@pytest.mark.parametrize("method", ["cayley6", "cayley4", "trapezoidal"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 9, 40, 41])
def test_stage_matches_dense_cayley(method, n):
    # the half-size even-site solve is the Cayley factor (I - cA)^-1 (I + cA),
    # here applied stage by stage with dense solves on the full window
    from krylovchain.evolve import _COMPOSITIONS, _CayleyStepper, _Window

    cfg = EvolveConfig(t_max=1.0, method=method)
    y = np.random.default_rng(n).standard_normal(n)
    y /= np.linalg.norm(y)
    w = _Window(SykLike(1.0, 1.5), cfg, y)
    stp = _CayleyStepper(w, cfg)
    off = w.b[: n - 1]
    a = np.diag(off, -1) - np.diag(off, 1)
    for h in (0.3, -0.05):
        ref = y
        for weight in _COMPOSITIONS[method][0]:
            c = 0.5 * weight * h
            ref = np.linalg.solve(np.eye(n) - c * a, ref + c * (a @ ref))
        assert np.max(np.abs(_apply(stp, h, y) - ref)) <= 1e-14


@pytest.mark.parametrize("method", ["cayley6", "cayley4", "trapezoidal"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 40, 41])
def test_stages_in_buffers_keep_the_bits_of_the_expressions(method, n):
    # the stages run in place in a few work arrays, and products go to
    # whichever array is free; every value keeps its bits
    from krylovchain.evolve import _CayleyStepper, _Window

    cfg = EvolveConfig(t_max=1.0, method=method)
    y = np.random.default_rng(n).standard_normal(n)
    y /= np.linalg.norm(y)
    w = _Window(SykLike(1.0, 1.5), cfg, y)
    stp = _CayleyStepper(w, cfg)
    for h in (0.3, 0.3, -0.05):
        assert np.array_equal(_apply(stp, h, y), _expression_stages(stp, h, y))


@pytest.mark.parametrize("method", ["cayley4", "trapezoidal"])
def test_round_trip_norm_to_rounding(method):
    # solving for the increment of the even sites keeps every stage orthogonal
    # to rounding: 2,000 steps leave the norm within 1e-14
    from krylovchain.evolve import _CayleyStepper, _Window

    seq = Explicit(tuple(1.0 + 0.5 * np.sin(np.arange(1, 40))))
    cfg = EvolveConfig(t_max=1.0, method=method)
    w = _Window(seq, cfg, None)
    w.resize(40)
    stp = _CayleyStepper(w, cfg)
    y = _sites(w)
    worst = 0.0
    for h in (1e-2, -1e-2):
        for _ in range(1000):
            y = _apply(stp, h, y)
            worst = max(worst, abs(float(np.sum(y ** 2)) - 1.0))
    assert worst <= 1e-14


def test_factor_cache_bounded_to_current_window():
    from krylovchain.evolve import _CayleyStepper, _Window

    cfg = EvolveConfig(t_max=1.0, method="cayley4")
    w = _Window(SykLike(1.0, 1.0), cfg, None)
    stp = _CayleyStepper(w, cfg)
    for n, h in ((w.n, 0.1), (w.n, 0.05), (3 * w.n, 0.05), (3 * w.n, 0.025)):
        w.resize(n)
        w.e, w.o = stp._apply(h)
        assert len(stp._factors) <= len(set(stp.weights))
        for weight, (c, bands, at) in stp._factors.items():
            assert c == 0.5 * weight * h
            assert len(bands[1]) == (w.n + 1) // 2
            assert at == (w.lo, w.n)


def test_plan_serves_one_step_length_on_one_window(monkeypatch):
    # the steps of one h on one window share a plan: they look up no factors
    # and write one of the plan's two pairs, never the window's own.  A new h,
    # a trim, a grown front and a moved back each build the next plan, on the
    # window as it is then
    from krylovchain.evolve import _CayleyStepper, _Window

    cfg = EvolveConfig(t_max=1.0, truncation_tol=1e-12)
    y = np.zeros(1000)
    y[600] = 1.0
    w = _Window(SykLike(1.0, 1.0), cfg, y)
    stp = _CayleyStepper(w, cfg)
    factor, looked_up = stp._factor, []
    monkeypatch.setattr(stp, "_factor", lambda weight, c: looked_up.append(weight) or factor(weight, c))
    plans, h = [], 0.01
    for move in ("none", "h", "trim", "front", "back"):
        if move == "h":
            h = 0.02
        elif move == "trim":
            w.trim(0.0)
            assert w.lo > 0
        elif move == "front":
            w.resize(w.n + 9)
        elif move == "back":
            w.grow_back()
        before = len(looked_up)
        for _ in range(3):
            e0 = w.e
            w.e, w.o = stp._apply(h)
            plan = stp.plan
            assert plan.at == (h, w.lo, w.n)
            assert w.e is not e0 and any(w.e is pair[0] and w.o is pair[1] for pair in plan.pairs)
            assert len(w.e) + len(w.o) == w.n - w.lo
        assert len(looked_up) - before == len(stp.weights), move
        plans.append(plan)
    assert len({id(plan) for plan in plans}) == len(plans)
    # advance drops the plan with the interval
    stp.advance(0.0, 0.05)
    assert stp.plan is None


def test_split_window_state_is_the_interleaved_vector():
    # the window holds the even and odd sites from lo on; trims, moves of the
    # back and growths of the front by odd and even site counts keep each
    # site's value, and state() interleaves them into one vector, zero below lo
    from krylovchain.evolve import _Window

    cuts = set()
    for n, start in ((300, 200), (300, 201), (301, 200), (301, 201)):
        y = np.zeros(n)
        y[start:260] = np.random.default_rng(n + start).standard_normal(260 - start)
        y /= np.linalg.norm(y)
        w = _Window(SqrtGrowth(1.0), EvolveConfig(t_max=1.0), y)
        for move in ("none", "trim", "back", "back", "front", "front"):
            lo, m = w.lo, w.n - w.lo
            if move == "trim":
                w.trim(0.0)
            elif move == "back":
                w.grow_back()
            elif move == "front":
                w.resize(w.n + 1)
            cuts.add((move, abs(w.lo - lo) % 2, m % 2))
            st = w.state(0.5)
            want = np.zeros(w.n)
            want[:n] = y
            assert np.array_equal(st.amplitudes, want), (n, start, move)
            assert (st.lo, st.active_size) == (w.lo, w.n)
            assert st.norm_error == abs(float(np.sum(want[w.lo :] ** 2)) - 1.0)
            assert (len(w.e), len(w.o)) == ((w.n - w.lo + 1) // 2, (w.n - w.lo) // 2)
    # each move of the back by an odd and an even count, and the front grown from each parity
    assert {(move, d) for move, d, _ in cuts if move in ("trim", "back")} == {
        (move, d) for move in ("trim", "back") for d in (0, 1)}
    assert {m for move, _, m in cuts if move == "front"} == {0, 1}


def test_refused_step_leaves_the_window_pair_as_it_was():
    # the stages run in the plan's other pair, so a refused step leaves the
    # window's e and o as they were, bit for bit, for the redo
    from krylovchain.evolve import _CayleyStepper, _Window

    w = _Window(SykLike(1.0, 1.0), EvolveConfig(t_max=1.0, truncation_tol=1e-12), None)
    stp = _CayleyStepper(w, w.cfg)
    e0, o0 = w.e, w.o
    kept = e0.copy(), o0.copy()
    e, o = stp._apply(2.0)  # fills the trailing band of the 16 sites past truncation_tol
    assert e is not e0 and o is not o0
    assert not w.accept(e, o, 0.0)
    assert w.e is e0 and w.o is o0
    assert np.array_equal(w.e, kept[0]) and np.array_equal(w.o, kept[1])


def test_caches_are_stamped_with_the_window_across_back_moves(monkeypatch):
    # b_n = sqrt(n) to t = 40 trims the back to site 1,254 and grows both
    # edges on the way: after every update the cache holds one factor set per
    # distinct weight, each on the window it was used on, and the step ran on
    # the plan of its own h and window
    from krylovchain.evolve import _CayleyStepper

    apply, windows = _CayleyStepper._apply, []

    def checked(self, h):
        out = apply(self, h)
        at = (self.w.lo, self.w.n)
        assert self._factors.keys() == set(self.weights)
        assert all(record[2] == at for record in self._factors.values())
        assert self.plan.at == (h,) + at
        assert [c for c, _ in self.plan.stages[:-1]] == [self._factors[w][0] for w in self.weights]
        windows.append(at)
        return out

    monkeypatch.setattr(_CayleyStepper, "_apply", checked)
    for _ in evolve(SqrtGrowth(1.0), EvolveConfig(t_max=40.0)):
        pass
    los = [lo for lo, _ in windows]
    assert max(los) == los[-1] == 1254
    assert len(set(los)) > 2 and len(set(windows)) > len(set(los))


class _CountingLapack:
    """scipy's lapack module with dgttrf and dgttrs calls counted."""

    def __init__(self, module):
        self._module = module
        self.calls = {"dgttrf": 0, "dgttrs": 0}

    def __getattr__(self, name):
        fn = getattr(self._module, name)
        if name not in self.calls:
            return fn

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return counted


@pytest.fixture
def lapack_calls(monkeypatch):
    module = importlib.import_module("krylovchain.evolve")
    counter = _CountingLapack(module.lapack)
    monkeypatch.setattr(module, "lapack", counter)
    return counter.calls


# dgttrf pivots (swaps two rows) in no elimination step of the first case; in
# the second, for two of cayley6's weights, in every step, so those sets are
# factored from row 0; in the third in the first 6 and 9 steps of two
# weights, so some extended sets start on a row whose step did not pivot
# right after one that did
@pytest.mark.parametrize(
    "seq,h,pivots",
    [(PowerLaw(1.0, 0.5), 0.1, False), (SykLike(1.0, 1.0), 3.0, True), (PowerLaw(1.0, 0.5), 6.0, True)],
)
def test_factors_extend_across_window_growth(monkeypatch, seq, h, pivots):
    # after a growth from n0 to n sites, a cached set whose c is the stage's
    # own is extended: dgttrf runs on rows k - 2.. of the k = ceil(n0 / 2)
    # old rows, and the bands equal a fresh factorization of the grown S
    from krylovchain.evolve import _CayleyStepper, _Window

    module = importlib.import_module("krylovchain.evolve")
    lapack, rows = module.lapack, []

    class RowsFactored:
        dgttrs = staticmethod(lapack.dgttrs)

        @staticmethod
        def dgttrf(dl, d, du):
            rows.append(len(d))
            return lapack.dgttrf(dl, d, du)

    monkeypatch.setattr(module, "lapack", RowsFactored())
    cfg = EvolveConfig(t_max=1.0)
    w = _Window(seq, cfg, None)
    stp = _CayleyStepper(w, cfg)
    w.e, w.o = stp._apply(h)
    seen, swapped = set(), False
    # growths to odd and even sizes, one by a single site that adds no row
    # (247 -> 248), and one with a new step length (h / 2, 392 -> 395)
    for grow, hk in zip((1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 1, 144, 3, 2), (h,) * 12 + (h / 2,) * 2):
        n0, old = w.n, dict(stp._factors)
        w.resize(n0 + grow)
        del rows[:]
        w.e, w.o = stp._apply(hk)
        k, big = (n0 + 1) // 2, (w.n + 1) // 2
        want = []
        for weight in dict.fromkeys(stp.weights):
            c, bands, _ = old[weight]
            swapped |= bands[4][k - 2] != k - 1  # ipiv is 1-based
            extends = big > k and c == 0.5 * weight * hk and bands[4][k - 2] == k - 1
            want.append(big - (k - 2) if extends else big)
        assert rows == want
        seen.update((w.n % 2, r < big) for r in rows)
        for weight, (c, bands, _) in stp._factors.items():
            assert c == 0.5 * weight * hk
            fresh = _CayleyStepper(w, cfg)._factor(weight, c)[1]
            assert all(np.array_equal(a, b) and a.dtype == b.dtype for a, b in zip(bands, fresh))
    assert seen == {(0, True), (1, True), (0, False), (1, False)}
    assert swapped == pivots


def test_extended_factors_evolve_as_fresh_ones(monkeypatch):
    # an evolve across many window growths ends on the same bits as one that
    # factors every stage from scratch; the dyadic sample grid keeps each
    # interval's step length bit-identical between the two runs
    from krylovchain.evolve import _CayleyStepper

    cfg = EvolveConfig(t_max=4.0, samples=16, rel_tol=1e-10)
    seq = SykLike(1.0, 1.5)
    kept = list(evolve(seq, cfg))
    apply, sizes = _CayleyStepper._apply, set()

    def uncached(self, h):
        self._factors.clear()
        self.plan = None
        sizes.add(self.w.n - self.w.lo)
        return apply(self, h)

    monkeypatch.setattr(_CayleyStepper, "_apply", uncached)
    fresh = list(evolve(seq, cfg))
    assert len(sizes) >= 21  # 20 growths or more
    for a, b in zip(kept, fresh):
        assert np.array_equal(a.amplitudes, b.amplitudes)


@pytest.mark.parametrize("method,count", [("cayley4", 23), ("cayley6", 10)])
def test_fewest_equal_steps_per_interval(lapack_calls, method, count):
    # a sample interval takes ceil(interval / dt_acc) steps of one Cayley
    # stage per weight, none longer than the step rule's dt_acc (snapping
    # to interval / 2^k would take 32 cayley4 steps here, not 23)
    from krylovchain.evolve import _CayleyStepper, _Window

    cfg = EvolveConfig(t_max=1.35e4 ** 0.5, samples=150, rel_tol=1e-8, method=method)
    w = _Window(PowerLaw(1.0, 0.5), cfg, None)
    w.resize(4000)  # room enough that no step is redone after a window growth
    stp = _CayleyStepper(w, cfg)
    times = cfg.resolve_sample_times()
    t = stp.advance(0.0, times[1])
    apply, steps = stp._apply, []

    def spy(h):
        steps.append(h)
        return apply(h)

    stp._apply = spy
    before = lapack_calls["dgttrs"]
    interval = times[2] - t
    stp.advance(t, times[2])
    assert w.n == 4000
    assert math.ceil(interval / stp._dt_acc) == count == len(steps)
    assert lapack_calls["dgttrs"] - before == len(stp.weights) * count
    assert all(h <= stp._dt_acc for h in steps)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(
    st.lists(st.floats(0.25, 2.0), min_size=1, max_size=39),
    st.integers(0, 2 ** 32 - 1),
    st.floats(0.0, 2.0, exclude_min=True),
)
def test_step_conserves_the_rate(b, seed, h):
    # every Cayley stage commutes with A and is orthogonal, so ||A y|| is a
    # quadratic invariant of a step over the whole chain, as of the exact flow:
    # the step rule's rate needs taking once per run (worst relative change
    # over 400 random draws: 1.1e-15)
    from krylovchain.evolve import _CayleyStepper, _Window, _hop

    y = np.random.default_rng(seed).standard_normal(len(b) + 1)
    y /= np.linalg.norm(y)
    for method in ("cayley6", "cayley4", "trapezoidal"):
        cfg = EvolveConfig(t_max=1.0, method=method)
        w = _Window(Explicit(tuple(b)), cfg, y)
        before = np.linalg.norm(_hop(w.off, y))
        after = np.linalg.norm(_hop(w.off, _apply(_CayleyStepper(w, cfg), h, y)))
        assert abs(after - before) <= 1e-12 * before, method


def test_step_rule_measures_once_per_plan(monkeypatch, lapack_calls):
    # the power-law benchmark's evolve takes its rate once, from the state it
    # starts in, not at each of its 150 sample intervals or 1,500 steps
    module = importlib.import_module("krylovchain.evolve")
    hop, hops = module._hop, []

    def counted(off, y):
        hops.append(len(y))
        return hop(off, y)

    monkeypatch.setattr(module, "_hop", counted)
    cfg = EvolveConfig(t_max=1.35e4 ** 0.5, samples=150, rel_tol=1e-8)
    for _ in evolve(PowerLaw(1.0, 0.5), cfg):
        pass
    assert lapack_calls["dgttrs"] == 10_500
    assert len(hops) == 1


@pytest.mark.parametrize(
    "seq,t_max",
    [(SqrtGrowth(1.0), 40.0), (SykLike(1.0, 1.0), 5.0), (SykLike(1.0, 2.0), 5.0)],
)
def test_measured_rate_stays_at_its_start(monkeypatch, lapack_calls, seq, t_max):
    # the exact flow conserves ||A phi|| / ||phi||, which is b_1 at
    # phi = delta_n0, so the rule takes it once, from the run's first state,
    # and cuts every sample interval into the fewest steps no longer than
    # its dt_acc; a refused step is redone at the same length
    from krylovchain.evolve import _CayleyStepper, _Window

    rate, steppers = _CayleyStepper._rate, []
    accept, refused = _Window.accept, []

    def recorded(self, y, dy):
        steppers.append(self)
        return rate(self, y, dy)

    def counted(self, y, y0, t):
        ok = accept(self, y, y0, t)
        if not ok:
            refused.append(t)
        return ok

    monkeypatch.setattr(_CayleyStepper, "_rate", recorded)
    monkeypatch.setattr(_Window, "accept", counted)
    cfg = EvolveConfig(t_max=t_max)
    for _ in evolve(seq, cfg):
        pass
    (stp,) = steppers
    assert stp._dt_acc == stp._dt_acc_base / seq.b(1)
    times = cfg.resolve_sample_times()
    steps = sum(math.ceil((b - a) / stp._dt_acc) for a, b in zip(times, times[1:]))
    assert lapack_calls["dgttrs"] == len(stp.weights) * (steps + len(refused))


def _spectral_point(nu):
    """The nu point of docs/examples/evolve_spectral_sweep.json: (sequence, config)."""
    from krylovchain.closedforms import SpectralModel, spectral_model_sequence

    seq = spectral_model_sequence(SpectralModel.with_rate(nu, 1.0), exact_count=96)
    return seq, EvolveConfig(t_max=5.57, samples=140, rel_tol=1e-8)


@pytest.mark.parametrize(
    "case,planned,refusals",
    [
        ("power_law", 10_500, 0),
        ("spectral_nu2", 1_960, 0),
        ("spectral_nu0", 980, 28),
        # grids that start after 0: the interval from 0 to the first time is planned too
        pytest.param((1.0, 2.0), 252, 3, id="syk_from_1"),
        pytest.param((1.5,), 189, 1, id="syk_at_1.5"),
    ],
)
def test_planned_solves_match_the_run(monkeypatch, lapack_calls, case, planned, refusals):
    # the plan cuts every sample interval as advance does, from the same
    # rate; each refused step redoes one solve per stage on top of it
    from krylovchain.evolve import _Window, planned_solves

    if case == "power_law":
        seq, cfg = PowerLaw(1.0, 0.5), EvolveConfig(t_max=1.35e4 ** 0.5, samples=150, rel_tol=1e-8)
    elif isinstance(case, tuple):
        seq, cfg = SykLike(1.0, 1.0), EvolveConfig(t_max=2.0, sample_times=case)
    else:
        seq, cfg = _spectral_point(int(case[-1]))
    accept, refused = _Window.accept, []

    def counted(self, y, y0, t):
        ok = accept(self, y, y0, t)
        if not ok:
            refused.append(t)
        return ok

    monkeypatch.setattr(_Window, "accept", counted)
    assert planned_solves(seq, cfg) == planned
    for _ in evolve(seq, cfg):
        pass
    assert len(refused) == refusals
    assert lapack_calls["dgttrs"] - 7 * len(refused) == planned


@pytest.mark.parametrize("method,solves", [("cayley6", 1_260), ("cayley4", 2_360)])
def test_runs_do_not_depend_on_the_unit_of_time(lapack_calls, method, solves):
    # b_n -> lam b_n, t -> t / lam is the same chain: at b = 1e11 every step
    # is shorter than 1e-12, and each interval still takes all of its steps
    runs = []
    for b, t_max in ((1e11, 1e-10), (1.0, 10.0)):
        before = lapack_calls["dgttrs"]
        runs.append(list(evolve(Constant(b), EvolveConfig(t_max=t_max, samples=4, method=method))))
        assert lapack_calls["dgttrs"] - before == solves
    scaled, unit = runs
    assert [s.active_size for s in scaled] == [s.active_size for s in unit]
    for a, b in zip(scaled, unit):
        assert np.max(np.abs(a.amplitudes - b.amplitudes)) <= 1e-13


@pytest.mark.parametrize(
    "seq,cfg",
    [
        # b_2 = inf: the rate is b_1 = 1e308, the step subnormal
        (Linear(1e308, 1.0), EvolveConfig(t_max=1.0, samples=2)),
        # every step below the floor, and a rate whose squares overflow
        (Constant(1e20), EvolveConfig(t_max=1.0, samples=2)),
        (Constant(1e300), EvolveConfig(t_max=1.0, samples=2)),
        (SykLike(1.0, 1.0), EvolveConfig(t_max=1.0, method="rk45")),
        # the first interval takes over 1e13 steps, each below the floor 1e-13 t_1
        (Constant(1e20), EvolveConfig(t_max=1.0, sample_times=(1e-6, 1.0))),
    ],
    ids=["overflowing_coupling", "step_floor", "overflowing_rate", "rk45", "first_interval_below_floor"],
)
def test_planned_solves_are_zero_where_the_run_takes_no_stage(seq, cfg):
    from krylovchain.evolve import planned_solves

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert planned_solves(seq, cfg) == 0


@pytest.mark.parametrize("t1", [1e-14, 5e-324])
def test_scaled_first_interval_is_stepped(t1):
    # the step floor 1e-13 t is relative, so a first interval far shorter
    # than 1e-13 is stepped like any other: b = 1e11 at t1 is b = 1 at 1e11 t1
    first = next(evolve(Constant(1e11), EvolveConfig(t_max=1e-10, sample_times=(t1, 1e-10))))
    want = bessel_chain_wavefunction("A", 2e11, 0, t1)
    assert first.t == t1 and abs(first.amplitudes[0] - want) <= 1e-15


def test_factor_reused_across_rounding_level_steps(lapack_calls):
    from krylovchain.evolve import _CayleyStepper, _Window

    times = np.linspace(0.0, 1.0, 4)
    h1, h2 = times[1] - times[0], times[3] - times[2]
    assert h1 != h2 and abs(h1 - h2) <= 1e-15  # equal up to rounding
    cfg = EvolveConfig(t_max=1.0, method="cayley4")
    w = _Window(SykLike(1.0, 1.0), cfg, None)
    w.resize(64)
    stp = _CayleyStepper(w, cfg)
    y0 = _sites(w)
    y1 = _apply(stp, h1, y0)
    assert lapack_calls["dgttrf"] == len(set(stp.weights))
    # the second length, and any within 1e-12 relative, runs on the first
    # one's factors and c, so every stage is the same exact Cayley factor
    for h in (h2, h1 * (1.0 + 5e-13)):
        assert np.array_equal(_apply(stp, h, y0), y1)
    assert lapack_calls["dgttrf"] == len(set(stp.weights))
    # a step that really differs factors again
    h3 = h1 * (1.0 + 1e-9)
    _apply(stp, h3, y0)
    assert lapack_calls["dgttrf"] == 2 * len(set(stp.weights))
    for weight, (c, _, _) in stp._factors.items():
        assert c == 0.5 * weight * h3


def test_clock_keeps_factors_far_from_t0(lapack_calls):
    # at t ~ 1e4 step lengths taken from a running sum of steps would gather
    # rounding that misses the 1e-12 factor reuse; each interval is k steps
    # of one length h, counted rather than summed, and ends on its sample time
    from krylovchain.evolve import _CayleyStepper, _Window

    cfg = EvolveConfig(t_max=1.0, rel_tol=1e-10)
    y = np.random.default_rng(0).standard_normal(31)
    w = _Window(Explicit((1.0,) * 30), cfg, y / np.linalg.norm(y))
    stp = _CayleyStepper(w, cfg)
    t = 1e4
    for k in range(1, 6):
        t = stp.advance(t, 1e4 + k)
        assert abs(t - (1e4 + k)) <= 1e-12 * t
    assert lapack_calls["dgttrs"] > 1000
    assert lapack_calls["dgttrf"] == len(set(stp.weights))


def test_truncation_insensitivity():
    base = EvolveConfig(t_max=3.0, samples=6)
    wide = EvolveConfig(t_max=3.0, samples=6, guard_band=16)
    c_base = [float(np.sum(np.arange(s.active_size) * s.amplitudes ** 2)) for s in evolve(SykLike(1.0, 1.0), base)]
    c_wide = [float(np.sum(np.arange(s.active_size) * s.amplitudes ** 2)) for s in evolve(SykLike(1.0, 1.0), wide)]
    for a, b in zip(c_base[1:], c_wide[1:]):
        assert abs(a - b) / abs(b) < 1e-8


def test_finite_chain_window_never_exceeds_support():
    cfg = EvolveConfig(t_max=30.0, samples=10)
    for st in evolve(Su2(1.0, 2.0), cfg):
        assert st.active_size <= 5
        assert st.tail_mass == 0.0


def _first_site(state):
    """The window's first site: sites below it are exactly zero."""
    return int(np.flatnonzero(state.amplitudes)[0])


# measured: cayley6 ends on lo = 1,252 of 2,000 sites, every site within
# 1.5e-8 of the closed form, norm error at most 2.7e-15 and C_K / t^2
# 1 - 1.7e-9; rk45 ends on lo = 173 of 596, within 6.6e-9, norm error 1.0e-9
@pytest.mark.parametrize("method,t_max,norm_gate", [("cayley6", 40.0, 1e-12), ("rk45", 20.0, 1e-8)])
def test_coherent_packet_leaves_the_trimmed_back_exact(method, t_max, norm_gate):
    # b_n = sqrt(n) carries a Poisson packet to C_K = t^2 with width t; the
    # window's back follows it, and every site stays on the closed form
    from krylovchain.observables import complexity

    cfg = EvolveConfig(t_max=t_max, samples=8, method=method)
    states = list(evolve(SqrtGrowth(1.0), cfg))
    for s in states:
        ref = coherent_wavefunction(1.0, np.arange(s.active_size), s.t)
        assert np.max(np.abs(s.amplitudes - ref)) <= 1e-6, s.t
        assert s.norm_error <= norm_gate
    last = states[-1]
    assert abs(complexity(last) / last.t ** 2 - 1.0) <= 1e-8
    assert _first_site(last) > last.active_size // 4


def test_back_follows_the_packet_to_the_end():
    # the power-law benchmark's evolve: the Poisson packet has no mass below
    # about t^2 - 7.4 t at the end, and the back keeps following it (lo ends
    # at 12,319; with the front grown only at 1 % of truncation_tol the
    # leading quarter fills to the trim's threshold and lo stalls at 6,269)
    cfg = EvolveConfig(t_max=1.35e4 ** 0.5, samples=150, rel_tol=1e-8)
    states = list(evolve(PowerLaw(1.0, 0.5), cfg))
    for s in states:
        ref = coherent_wavefunction(1.0, np.arange(s.active_size), s.t)
        assert np.max(np.abs(s.amplitudes - ref)) <= 1e-6, s.t
    last = states[-1]
    assert _first_site(last) >= last.t ** 2 - 12.0 * last.t


@pytest.mark.parametrize("lo", [0, 100])
def test_front_grows_sooner_once_the_back_has_moved(lo):
    # a trailing band of 5e-15 at truncation_tol 1e-12: under the 1e-14 the
    # trim may drop, over a tenth of it
    from krylovchain.evolve import _Window

    cfg = EvolveConfig(t_max=1.0, truncation_tol=1e-12)
    y = np.zeros(400)
    y[lo + 150] = 1.0
    y[-1] = 5e-15 ** 0.5
    w = _Window(SqrtGrowth(1.0), cfg, y)
    if lo:
        (w.e, w.o), w.lo = _split(y[lo:]), lo
    w.ensure_headroom()
    assert w.lo == lo
    assert w.n == (400 if lo == 0 else math.ceil(1.12 * 400) + cfg.guard_band)


def test_su2_packet_that_comes_back_regrows_the_back():
    # the su(2) packet with j = 200 runs to site 400 by t = pi/2 and back to
    # site 0 by t = pi; the window's back follows it out and the leading
    # guard band grows it again on the way back.  Without that band the
    # returning packet reflects off site lo and errs by 1.0, at a norm
    # error of 6e-15: nothing else shows the fault.
    cfg = EvolveConfig(t_max=math.pi, samples=8)
    states = list(evolve(Su2(1.0, 200.0), cfg))
    for s in states:
        ref = su2_wavefunction(1.0, 200.0, np.arange(s.active_size), s.t)
        assert np.max(np.abs(s.amplitudes - ref)) <= 1e-6, s.t
    assert states[-1].active_size == 401
    assert max(_first_site(s) for s in states) > 200 and _first_site(states[-1]) == 0


@pytest.fixture
def window_starts(monkeypatch):
    """Every lo that _Window.accept leaves behind."""
    from krylovchain.evolve import _Window

    accept, starts = _Window.accept, []

    def recording(self, y, y0, t):
        ok = accept(self, y, y0, t)
        starts.append(self.lo)
        return ok

    monkeypatch.setattr(_Window, "accept", recording)
    return starts


@pytest.mark.parametrize(
    "family,cfg",
    [
        ({"kind": "syk_like", "alpha": 1.0, "eta": 1.0}, EvolveConfig(t_max=5.0, samples=100)),
        # the nu = 2 point of docs/examples/evolve_spectral_sweep.json
        ({"kind": "spectral_model", "nu": 2, "alpha": 1.0}, EvolveConfig(t_max=5.57, samples=140, rel_tol=1e-8)),
    ],
    ids=["syk_eta1", "spectral_nu2"],
)
def test_spreading_packets_keep_the_whole_window(window_starts, family, cfg):
    # packets that still cover site 0 are never trimmed
    from krylovchain.config import build_sequence

    last = list(evolve(build_sequence(family), cfg))[-1]
    assert len(window_starts) > 100 and set(window_starts) == {0}
    assert last.amplitudes[0] != 0.0


def test_trim_drops_the_empty_back_but_a_guard_band():
    from krylovchain.evolve import _Window

    cfg = EvolveConfig(t_max=1.0, truncation_tol=1e-12)
    y = np.zeros(400)
    y[:150] = 1e-9  # 1.5e-16 in all: at most 1e-14, 1 % of truncation_tol
    y[150] = 2e-7  # takes the leading run past 1e-14
    y[300] = 1.0
    w = _Window(SykLike(1.0, 1.0), cfg, y)
    assert w.accept(*_split(y), 0.0)
    assert w.lo == 150 - cfg.guard_band and w.n == 400
    state = w.state(0.0)
    assert not state.amplitudes[: w.lo].any()
    assert np.array_equal(state.amplitudes[w.lo :], y[w.lo :])
    assert state.norm_error == pytest.approx(float(np.sum(y[w.lo :] ** 2)) - 1.0, abs=1e-15)
    # no trim of less than a quarter of the window, none that leaves under 64 sites
    w2 = _Window(SykLike(1.0, 1.0), cfg, y[w.lo - 40 :])
    assert w2.accept(w2.e, w2.o, 0.0) and w2.lo == 0
    for size, lo in ((80, 0), (100, 36)):
        short = np.zeros(size)
        short[-10] = 1.0
        w3 = _Window(SykLike(1.0, 1.0), cfg, short)
        assert w3.accept(*_split(short), 0.0) and w3.lo == lo


def _trimmed_window(cfg):
    """A window whose accepted first step trimmed it to [592, 1000): the packet sits at site 600."""
    from krylovchain.evolve import _Window

    y = np.zeros(1000)
    y[600] = 1.0
    w = _Window(SykLike(1.0, 1.0), cfg, y)
    assert w.accept(w.e, w.o, 0.0) and (w.lo, w.n) == (592, 1000)
    return w


def test_leading_guard_band_grows_the_back():
    # before a step past 1 % of truncation_tol, and before the redo of one
    # past truncation_tol (the step is refused and y0 put back); each time
    # by the growth rule's step for the window's size,
    # ceil(1.12 m) + guard_band - m, down to 0
    cfg = EvolveConfig(t_max=1.0, truncation_tol=1e-12)
    w = _trimmed_window(cfg)

    def step(m):
        return math.ceil(1.12 * m) + cfg.guard_band - m

    w.e[0] = 0.9e-7  # 8.1e-15: no growth yet
    w.ensure_headroom()
    assert w.lo == 592
    w.e[0] = 2e-7
    w.ensure_headroom()
    assert w.lo == 592 - step(408) == 535
    y0, e0, o0 = _sites(w), w.e, w.o
    leak = y0.copy()
    leak[0] = 2e-6  # 4e-12 > truncation_tol
    assert not w.accept(*_split(leak), 0.5)
    assert w.e is e0 and w.o is o0 and (w.lo, w.n) == (535, 1000)
    w.ensure_headroom()  # the check before the redo grows the back
    assert w.lo == 535 - step(465) == 471
    assert w.n == 1000 and w.state(0.5).amplitudes[592] == 2e-7
    while w.lo:
        w.grow_back()
    assert np.array_equal(w.state(0.5).amplitudes[535:], y0)


def test_refused_step_grows_each_edge_its_sums_fill():
    # a step refused at the back whose trailing band holds 1e-14: under
    # truncation_tol, over the 1e-15 that the front grows at once lo > 0.
    # The check before the redo reads the refused step's sums, so it grows
    # the front too, not only the back
    cfg = EvolveConfig(t_max=1.0, truncation_tol=1e-12)
    w = _trimmed_window(cfg)
    y0, e0, o0 = _sites(w), w.e, w.o
    leak = y0.copy()
    leak[0] = 2e-6  # 4e-12 > truncation_tol
    leak[-1] = 1e-7
    assert not w.accept(*_split(leak), 0.5)
    assert w.e is e0 and w.o is o0 and (w.lo, w.n) == (592, 1000)
    w.ensure_headroom()
    n = math.ceil(1.12 * 1000) + cfg.guard_band
    m = n - 592
    assert w.n == n and w.lo == 592 - (math.ceil(1.12 * m) + cfg.guard_band - m)
    assert np.array_equal(w.state(0.5).amplitudes[592:1000], y0)


def test_headroom_measures_the_window_after_a_trim(monkeypatch):
    # accept's sums serve the next check, unless a trim has dropped sites
    # since: then the check measures the trimmed y itself
    from krylovchain.evolve import _Window

    head_mass, calls = _Window.head_mass, []

    def counted(self):
        calls.append((self.lo, self.n))
        return head_mass(self)

    monkeypatch.setattr(_Window, "head_mass", counted)
    w = _trimmed_window(EvolveConfig(t_max=1.0, truncation_tol=1e-12))
    w.ensure_headroom()
    assert calls == [(592, 1000)]
    # a step that trims nothing leaves its sums, and the check takes them
    assert w.accept(w.e.copy(), w.o.copy(), 0.1) and w.lo == 592
    w.ensure_headroom()
    assert calls == [(592, 1000)]


def test_moved_back_steps_as_its_dense_cayley_factor(lapack_calls):
    # after a trim, a growth of the back, or both edges at once, the stage
    # runs on b_{lo+1}..b_{n-1} and factors S from row 0 on the new window:
    # the update is the dense Cayley product there
    from krylovchain.evolve import _COMPOSITIONS, _CayleyStepper, _Window

    cfg = EvolveConfig(t_max=1.0)
    seq = SqrtGrowth(1.0)
    y = np.zeros(300)
    y[200:260] = np.random.default_rng(5).standard_normal(60)
    y /= np.linalg.norm(y)
    w = _Window(seq, cfg, y)
    stp = _CayleyStepper(w, cfg)
    h = 0.01
    assert w.accept(*stp._apply(h), 0.0) and w.lo > 0
    windows = []
    for move in ("trim", "back and front", "back"):
        if move != "trim":
            w.grow_back()
        if move == "back and front":
            w.resize(w.n + 40)
        windows.append((w.lo, w.n))
        before = lapack_calls["dgttrf"]
        ref = _sites(w)
        got = _interleaved(*stp._apply(h))
        assert lapack_calls["dgttrf"] - before == len(set(stp.weights)), move
        m = w.n - w.lo
        off = seq.b_array(w.n)[w.lo : w.n - 1]
        a = np.diag(off, -1) - np.diag(off, 1)
        for weight in _COMPOSITIONS[cfg.method][0]:
            c = 0.5 * weight * h
            ref = np.linalg.solve(np.eye(m) - c * a, ref + c * (a @ ref))
        assert np.max(np.abs(got - ref)) <= 1e-14, move
    assert windows[0][0] > windows[1][0] > windows[2][0] and windows[1][1] == 340


SHORT_CHAINS = [
    pytest.param(Explicit((1.3,)), None, id="explicit_k1"),
    pytest.param(Explicit((0.8, 1.7)), None, id="explicit_k2"),
    pytest.param(Explicit((1.58, 0.95, 1.26)), None, id="explicit_k3"),
    pytest.param(Su2(1.0, 0.5), 0.5, id="su2_j1/2"),
    pytest.param(Su2(1.0, 1.0), 1.0, id="su2_j1"),
    pytest.param(Su2(1.0, 1.5), 1.5, id="su2_j3/2"),
]


# worst errors over these chains: 1.4e-10 (cayley6), 1.1e-9 (cayley4) and
# 1.8e-7 (trapezoidal)
@pytest.mark.parametrize(
    "method,gate", [("cayley6", 1e-9), ("cayley4", 1e-8), ("trapezoidal", 1e-6)]
)
@pytest.mark.parametrize("seq,j", SHORT_CHAINS)
def test_short_finite_chains_match_closed_forms(seq, j, method, gate):
    # windows of 2 to 4 sites run the padded half-size Cayley stage; phi_0
    # against the mode decomposition, or every site against the su(2) form
    cfg = EvolveConfig(t_max=20.0, samples=40, method=method, rel_tol=1e-11)
    modes = finite_chain_modes(seq.b_array(seq.support))
    worst = 0.0
    for st in evolve(seq, cfg):
        if j is None:
            err = abs(st.amplitudes[0] - float(modes.phi0(st.t)))
        else:
            ref = [su2_wavefunction(1.0, j, n, st.t) for n in range(st.active_size)]
            err = float(np.max(np.abs(st.amplitudes - ref)))
        worst = max(worst, err)
    assert worst <= gate


# worst errors over 300 derandomized examples of the strategy below: phi_0
# 1.2e-8 (cayley6), 7.5e-9 (cayley4), 5.6e-8 (trapezoidal), 6.1e-11 (rk45)
# against the modes, and 2.2e-15 for the round trip under the default
# method; the phi_0 gates leave 5x to 7x headroom, the round-trip gate about
# 45x.  cayley6's worst chains start on a weak b_1 ~ 0.25 next to a strong
# b_2 ~ 1.4 to 2, whose fast modes the step rule's rate does not see.
STEPPER_GATES = {"cayley6": 7e-8, "cayley4": 5e-8, "trapezoidal": 3e-7, "rk45": 3e-10}


@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(st.lists(st.floats(0.25, 2.0), min_size=1, max_size=11), st.floats(0.5, 3.0))
def test_steppers_match_modes_on_random_finite_chains(b, t_max):
    # chains of 2 to 12 sites: phi_0 of every stepper against the mode
    # decomposition, and cayley4 forward then back (odd sites flipped, which
    # negates the generator) returns to delta_n0
    seq = Explicit(tuple(b))
    modes = finite_chain_modes(seq.b_array(seq.support))
    for method, gate in STEPPER_GATES.items():
        cfg = EvolveConfig(t_max=t_max, samples=6, method=method, rel_tol=1e-10)
        for state in evolve(seq, cfg):
            assert abs(state.amplitudes[0] - float(modes.phi0(state.t))) <= gate, method
    cfg = EvolveConfig(t_max=t_max, samples=1, rel_tol=1e-10)
    final = list(evolve(seq, cfg))[-1].amplitudes.copy()
    final[1::2] *= -1.0
    back = list(evolve(seq, cfg, initial=final))[-1].amplitudes.copy()
    back[1::2] *= -1.0
    start = np.zeros(len(back))
    start[0] = 1.0
    assert np.max(np.abs(back - start)) <= 1e-13


def test_tail_mass_zero_where_no_coupling_leaves_the_window():
    from krylovchain.evolve import _Window

    cfg = EvolveConfig(t_max=1.0)
    # all of the mass sits in the guard band, but b_5 = 0 holds it in
    w = _Window(Su2(1.0, 2.0), cfg, np.full(5, 5 ** -0.5))
    assert w.n == 5 and w.b[-1] == 0.0 and w.tail_mass() == 0.0
    # a cap below the support truncates the chain: its window is not exact
    seq = Explicit(tuple(1.0 + 0.1 * np.arange(20)))
    with pytest.raises(ResourceLimitError):
        list(evolve(seq, EvolveConfig(t_max=20.0, samples=4, max_active_size=16)))


def test_rk45_with_the_least_abs_tol_ends_at_the_window_cap():
    # abs_tol = 5e-324 overflows scipy's first-step guess: the run ends at
    # the window cap, with no RuntimeWarning
    cfg = EvolveConfig(t_max=1.0, samples=1, method="rk45", abs_tol=5e-324,
                       truncation_tol=5e-324, guard_band=4, max_active_size=16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ResourceLimitError) as info:
            list(evolve(Constant(1.0), cfg))
    assert 0.0 < info.value.t_reached < 1.0


@pytest.mark.parametrize("method", METHODS)
def test_resource_limit_reports_time(method):
    cfg = EvolveConfig(t_max=6.0, samples=12, max_active_size=64, method=method)
    with pytest.raises(ResourceLimitError) as info:
        list(evolve(SykLike(1.0, 1.0), cfg))
    assert 0.0 < info.value.t_reached < 6.0
    assert info.value.max_active_size == 64


def test_rk45_redoes_refused_steps(monkeypatch):
    # with truncation_tol at 1e-90 the SYK front fills the guard band past
    # it within one rk45 step; each refused step rebuilds the solver
    from krylovchain.evolve import _Window

    accept, refused = _Window.accept, []

    def counting(self, y, y0, t):
        ok = accept(self, y, y0, t)
        refused.append(not ok)
        return ok

    monkeypatch.setattr(_Window, "accept", counting)
    cfg = EvolveConfig(t_max=1.0, samples=5, method="rk45", truncation_tol=1e-90, guard_band=4)
    states = list(evolve(SykLike(1.0, 1.0), cfg))
    assert sum(refused) >= 3  # 6 measured
    assert max(abs(s.amplitudes[0] - 1.0 / math.cosh(s.t)) for s in states) < 1e-6


@pytest.mark.parametrize("method", ["cayley6", "rk45"])
@pytest.mark.parametrize("b", [1e20, 1e300])
def test_step_floor_raises_stiffness_error(b, method):
    # the rule's step (cayley6) or the stability bound 0.5 / b (rk45) is below
    # 1e-13; at b = 1e300 cayley6's rate overflows and its step is 0
    start = time.perf_counter()
    with pytest.raises(StiffnessError) as info:
        list(evolve(Constant(b), EvolveConfig(t_max=1.0, samples=2, method=method)))
    assert time.perf_counter() - start < 1.0
    assert info.value.t == 0.0 and info.value.dt < 1e-13
    assert str(info.value).count("underflow") == 1


def test_window_stops_before_a_coupling_that_overflows():
    # b_n = 1e306 n leaves the float range at b_180: the window grows to the
    # 180 sites that b_1..b_179 join, and growing past them names b_180
    from krylovchain.evolve import _Window

    w = _Window(Linear(1e306, 0.0), EvolveConfig(t_max=1.0), None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w.resize(1000)
        assert w.n == len(w.b) == 180 and np.isfinite(w.b[:-1]).all() and w.b[-1] == math.inf
        with pytest.raises(CouplingOverflowError) as info:
            w.resize(2000)
    assert info.value.n == 180 and w.n == 180
    assert str(info.value) == "coupling b_180 = inf is not finite: the window cannot grow past site 179"


def test_overflowing_coupling_ends_evolve_after_t0():
    # b_2 = 2e308 is inf: the first window holds sites 0 and 1, the t = 0
    # state comes out, and the first growth names b_2, with no numpy warning
    states = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CouplingOverflowError) as info:
            for s in evolve(Linear(1e308, 1.0), EvolveConfig(t_max=1.0, samples=2)):
                states.append(s)
    assert info.value.n == 2
    assert [(s.t, s.active_size) for s in states] == [(0.0, 2)]


def test_rate_scales_squares_past_the_float_range():
    # R = ||A y|| / ||y|| over the whole window is the plain formula, bit
    # for bit, while the squares stay finite, and scales by a power of two
    # where they would overflow
    from krylovchain.evolve import _CayleyStepper, _Window

    cfg = EvolveConfig(t_max=1.0)
    y = np.random.default_rng(3).standard_normal(40)
    y /= np.linalg.norm(y)
    for seq in (SykLike(1.0, 1.0), Constant(1e100), Constant(1e300)):
        w = _Window(seq, cfg, y)
        dy = rhs(w.state(0.0), seq)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = _CayleyStepper(w, cfg)._rate(y, dy)
        if seq.b(1) < 1e150:
            assert r == float(np.sqrt(np.sum(dy ** 2))) / float(np.sqrt(np.sum(y ** 2)))
        else:
            assert r == pytest.approx(1e200 * float(np.linalg.norm(dy / 1e200)), rel=1e-15)


def test_stage_system_overflow_is_a_stiffness_error():
    # b_1 = 1 sets the first step, whose S holds (c b_2)^2 ~ 1e594
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StiffnessError) as info:
            list(evolve(ConstantWithFirst(1.0, 1e300), EvolveConfig(t_max=1.0, samples=2)))
    assert info.value.t == 0.0 and "overflows float64" in str(info.value)


def test_window_refuses_step_that_fills_guard_band():
    # both steppers hand each step to _Window.accept, which refuses it and
    # puts back the start; the headroom check before the redo grows the
    # window by its own rule, zero-padded
    from krylovchain.evolve import _Window

    cfg = EvolveConfig(t_max=1.0, truncation_tol=1e-12, max_active_size=1000)
    w = _Window(SykLike(1.0, 1.0), cfg, None)
    n0 = w.n
    ok = _sites(w)
    ok[-1] = 1e-7  # guard-band mass 1e-14 <= truncation_tol
    ok_e, ok_o = _split(ok)
    assert w.accept(ok_e, ok_o, 0.5)
    assert w.e is ok_e and w.o is ok_o and w.n == n0
    leak = ok.copy()
    leak[-1] = 1e-5  # guard-band mass 1e-10 > truncation_tol
    assert not w.accept(*_split(leak), 0.5)
    assert w.e is ok_e and w.o is ok_o and w.n == n0 and len(w.b) == n0
    w.ensure_headroom()
    grown = active_window_policy(make_state(leak, t=0.5, tail=1e-10), cfg)
    assert grown > n0 and w.n == grown
    y = _sites(w)
    assert np.array_equal(y[:n0], ok) and not y[n0:].any()
    assert len(w.b) == grown
    headroom = _Window(SykLike(1.0, 1.0), cfg, leak)
    headroom.ensure_headroom()
    assert headroom.n == grown


class TestWindowPolicy:
    CFG = EvolveConfig(t_max=1.0, truncation_tol=1e-12, max_active_size=1000)

    def test_no_growth_below_tolerance(self):
        st = make_state(np.ones(100) / 10.0, tail=0.0)
        assert active_window_policy(st, self.CFG) == 100

    def test_multiplicative_growth(self):
        st = make_state(np.ones(100) / 10.0, tail=1e-6)
        # ceil(1.12 * 100) is 113 in floating point, plus the guard band of 8
        assert active_window_policy(st, self.CFG) == 121

    def test_clamped_at_max(self):
        cfg = EvolveConfig(t_max=1.0, truncation_tol=1e-12, max_active_size=120)
        st = make_state(np.ones(100) / 10.0, tail=1e-6)
        assert active_window_policy(st, cfg) == 120

    def test_never_shrinks_below_occupied(self):
        amps = np.zeros(100)
        amps[0] = 1.0
        amps[90] = 1e-3
        cfg = EvolveConfig(t_max=1.0, truncation_tol=1e-12, max_active_size=105)
        st = make_state(amps, tail=1e-6)
        assert active_window_policy(st, cfg) >= 91


def test_config_validation():
    with pytest.raises(ValueError):
        EvolveConfig(t_max=0.0)
    with pytest.raises(ValueError):
        EvolveConfig(t_max=1.0, guard_band=2)
    with pytest.raises(ValueError):
        EvolveConfig(t_max=1.0, rel_tol=2.0)
    with pytest.raises(ValueError):
        EvolveConfig(t_max=1.0, method="verlet")
    assert EvolveConfig(t_max=1.0).method == "cayley6"
    # below float64 epsilon the step rule's steps shrink without bound
    eps = np.finfo(float).eps
    with pytest.raises(ParameterError) as info:
        EvolveConfig(t_max=1.0, rel_tol=0.5 * eps, abs_tol=0.49 * eps)
    assert info.value.name is None and "float64 epsilon" in str(info.value)
    EvolveConfig(t_max=1.0, rel_tol=0.5 * eps, abs_tol=0.5 * eps)
    with pytest.raises(ValueError):
        EvolveConfig(t_max=1.0, sample_times=(0.5, 0.2)).resolve_sample_times()


def test_log_grid_needs_two_samples():
    # np.geomspace(lo, t_max, 1) is [lo]: one log sample would never reach t_max
    with pytest.raises(ParameterError) as info:
        EvolveConfig(t_max=5.0, samples=1, grid="log")
    assert info.value.name == "samples"
    assert EvolveConfig(t_max=5.0, samples=2, grid="log").resolve_sample_times()[-1] == 5.0
    assert EvolveConfig(t_max=5.0, samples=1).resolve_sample_times() == (0.0, 5.0)
    explicit = EvolveConfig(t_max=5.0, samples=1, grid="log", sample_times=(0.0, 1.0))
    assert explicit.resolve_sample_times() == (0.0, 1.0)


def test_states_are_read_only():
    cfg = EvolveConfig(t_max=0.5, samples=2)
    st = list(evolve(Constant(1.0), cfg))[-1]
    with pytest.raises(ValueError):
        st.amplitudes[0] = 5.0
