"""Chain evolution: invariants, closed-form agreement, window policy."""

import importlib
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import krylovchain
from krylovchain import (
    Constant,
    ConstantWithFirst,
    EvolveConfig,
    Explicit,
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
from krylovchain.evolve import METHODS


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

    def test_explicit_sample_times(self):
        cfg = EvolveConfig(t_max=2.0, sample_times=(0.0, 0.5, 2.0))
        states = list(evolve(Constant(1.0), cfg))
        assert [s.t for s in states] == [0.0, 0.5, 2.0]


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
    # would slow every `import krylovchain`
    lazy = "{'scipy.integrate', 'scipy.special'}"
    code = f"import sys, krylovchain; print(sorted({lazy} & set(sys.modules)))"
    path = (str(Path(krylovchain.__file__).parents[1]), os.environ.get("PYTHONPATH"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


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
    from krylovchain.evolve import _CayleyStepper, _TrapezoidalStepper, _Window

    for method in ("trapezoidal", "cayley4"):
        cfg = EvolveConfig(t_max=1.0, samples=2, method=method)
        stepper = _TrapezoidalStepper if method == "trapezoidal" else _CayleyStepper
        runs = {}
        for sign in (+1.0, -1.0):
            w = _Window(SqrtGrowth(1.0), cfg, None)
            w.resize(80)
            stp = stepper(w, cfg)
            for _ in range(500):
                w.y = stp._apply(sign * 1e-3, w.y)
            runs[sign] = w.y.copy()
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
        y = w.y
        for _ in range(steps):
            y = stp._apply(t_end / steps, y)
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
    y = w.y
    for h in (1e-2, -1e-2):
        for _ in range(1000):
            y = stp._apply(h, y)
        assert abs(float(np.sum(y ** 2)) - 1.0) <= 1e-12
    start = np.zeros(40)
    start[0] = 1.0
    assert np.max(np.abs(y - start)) <= 1e-12


@pytest.mark.parametrize("method", ["cayley4", "trapezoidal"])
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
        for dy in (None, a @ y):
            assert np.max(np.abs(stp._apply(h, y, dy) - ref)) <= 1e-14


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
    y = w.y
    worst = 0.0
    for h in (1e-2, -1e-2):
        for _ in range(1000):
            y = stp._apply(h, y)
            worst = max(worst, abs(float(np.sum(y ** 2)) - 1.0))
    assert worst <= 1e-14


def test_factor_cache_bounded_to_current_window():
    from krylovchain.evolve import _CayleyStepper, _Window

    cfg = EvolveConfig(t_max=1.0, method="cayley4")
    w = _Window(SykLike(1.0, 1.0), cfg, None)
    stp = _CayleyStepper(w, cfg)
    for n, h in ((w.n, 0.1), (w.n, 0.05), (3 * w.n, 0.05), (3 * w.n, 0.025)):
        w.resize(n)
        w.y = stp._apply(h, w.y)
        assert len(stp._factors) <= len(set(stp.weights))
        for weight, (c, bands) in stp._factors.items():
            assert c == 0.5 * weight * h
            assert len(bands[1]) == (w.n + 1) // 2


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
    rule, steps = [], []
    pick = stp._pick_dt

    def spy(remaining, y, dy):
        rule.append(stp._dt_acc_base / stp._rate(y, dy))
        steps.append(pick(remaining, y, dy))
        return steps[-1]

    stp._pick_dt = spy
    before = lapack_calls["dgttrs"]
    interval = times[2] - t
    stp.advance(t, times[2])
    assert w.n == 4000
    assert math.ceil(interval / rule[0]) == count
    assert lapack_calls["dgttrs"] - before == len(stp.weights) * math.ceil(interval / rule[0])
    assert all(h <= dt for h, dt in zip(steps, rule))


def test_factor_reused_across_rounding_level_steps(lapack_calls):
    from krylovchain.evolve import _CayleyStepper, _Window

    times = np.linspace(0.0, 1.0, 4)
    h1, h2 = times[1] - times[0], times[3] - times[2]
    assert h1 != h2 and abs(h1 - h2) <= 1e-15  # equal up to rounding
    cfg = EvolveConfig(t_max=1.0, method="cayley4")
    w = _Window(SykLike(1.0, 1.0), cfg, None)
    w.resize(64)
    stp = _CayleyStepper(w, cfg)
    dy = rhs(w.state(0.0), SykLike(1.0, 1.0))
    y1 = stp._apply(h1, w.y, dy)
    assert lapack_calls["dgttrf"] == len(set(stp.weights))
    # the second length, and any within 1e-12 relative, runs on the first
    # one's factors and c, so every stage is the same exact Cayley factor
    for h in (h2, h1 * (1.0 + 5e-13)):
        assert np.array_equal(stp._apply(h, w.y, dy), y1)
    assert lapack_calls["dgttrf"] == len(set(stp.weights))
    # a step that really differs factors again
    h3 = h1 * (1.0 + 1e-9)
    stp._apply(h3, w.y, dy)
    assert lapack_calls["dgttrf"] == 2 * len(set(stp.weights))
    for weight, (c, _) in stp._factors.items():
        assert c == 0.5 * weight * h3


def test_clock_keeps_factors_far_from_t0(lapack_calls):
    # at t ~ 1e4 a clock summed step by step gathers rounding that misses the
    # 1e-12 factor reuse; start + k h keeps one step length per interval
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


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
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


def test_window_refuses_step_that_fills_guard_band():
    # both steppers hand each step to _Window.accept, which grows by the
    # same rule as the headroom check and puts back the zero-padded start
    from krylovchain.evolve import _Window

    cfg = EvolveConfig(t_max=1.0, truncation_tol=1e-12, max_active_size=1000)
    w = _Window(SykLike(1.0, 1.0), cfg, None)
    y0 = w.y
    n0 = w.n
    ok = y0.copy()
    ok[-1] = 1e-7  # guard-band mass 1e-14 <= truncation_tol
    assert w.accept(ok, y0, 0.5)
    assert w.y is ok and w.n == n0
    leak = ok.copy()
    leak[-1] = 1e-5  # guard-band mass 1e-10 > truncation_tol
    assert not w.accept(leak, ok, 0.5)
    grown = active_window_policy(make_state(leak, t=0.5, tail=1e-10), cfg)
    assert grown > n0 and w.n == grown
    assert np.array_equal(w.y[:n0], ok) and not w.y[n0:].any()
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
