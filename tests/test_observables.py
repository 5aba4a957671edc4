"""Complexity, entropy, relaxation function, finite-chain spectra."""

import math
import warnings
import weakref

import numpy as np
import pytest

from krylovchain import (
    Constant,
    ConvergenceError,
    EvolveConfig,
    Explicit,
    LogGrowth,
    ObservableSeries,
    OrderingError,
    PowerLaw,
    SqrtGrowth,
    StitchedSequence,
    SykLike,
    complexity,
    entropy,
    evolve,
    finite_chain_modes,
    relaxation_phi0,
    series_from_trajectory,
    spectral_density_finite,
    w_number,
)
from krylovchain.evolve import WaveState
from krylovchain.observables import _cf_values, _tail, entropy_of_probabilities


def make_state(amps, t=0.0):
    amps = np.asarray(amps, dtype=float)
    return WaveState(
        t=t,
        amplitudes=amps,
        active_size=len(amps),
        norm_error=abs(float(np.sum(amps ** 2)) - 1.0),
        tail_mass=0.0,
    )


class TestComplexityEntropy:
    def test_delta_state(self):
        st = make_state([1.0, 0.0, 0.0])
        assert complexity(st) == 0.0
        assert entropy(st) == 0.0

    def test_uniform_state(self):
        n = 16
        st = make_state(np.full(n, 1.0 / math.sqrt(n)))
        assert complexity(st) == pytest.approx((n - 1) / 2.0)
        assert entropy(st) == pytest.approx(math.log(n), rel=1e-12)

    def test_syk_values_at_t1(self):
        # C_K = sinh^2(1); S_K from the exact eta = 1 formula
        # cosh^2 ln cosh^2 - sinh^2 ln sinh^2 = 1.6198... (frozen from the
        # closed form, cross-checked against the direct sum below)
        s2 = math.sinh(1.0) ** 2
        c2 = math.cosh(1.0) ** 2
        s_exact = c2 * math.log(c2) - s2 * math.log(s2)
        assert s_exact == pytest.approx(1.6198221, abs=1e-6)
        q = math.tanh(1.0) ** 2
        p = (1 - q) * q ** np.arange(4000)
        p = p[p > 1e-300]
        s_direct = float(-np.sum(p * np.log(p)))
        assert s_direct == pytest.approx(s_exact, abs=1e-12)

        cfg = EvolveConfig(t_max=1.0, samples=4)
        st = list(evolve(SykLike(1.0, 1.0), cfg))[-1]
        assert complexity(st) == pytest.approx(s2, abs=1e-6)
        assert entropy(st) == pytest.approx(s_exact, abs=1e-6)

    def test_entropy_matches_exactly_rounded_sum(self):
        # numpy's pairwise sum, in array order, against math.fsum of the same
        # terms: the gap stays within log2(n) roundings of the total
        rng = np.random.default_rng(7)
        p = rng.random(200_000) * np.exp(-rng.random(200_000) * 600.0)
        p /= np.sum(p)
        terms = -p * np.log(p)
        exact = math.fsum(terms.tolist())
        tol = math.log2(len(p)) * np.finfo(float).eps
        assert entropy_of_probabilities(p) == pytest.approx(exact, rel=tol)

    def test_reductions_over_the_occupied_window_match_the_full_array(self):
        # amplitudes[:lo] is zero, so reducing amplitudes[lo:] alone gives the
        # full-array complexity and entropy to 1e-15 relative: on a packet far
        # from site 0, and on a trimmed state of a run (lo = 1,252 at t = 40)
        amps = np.zeros(5000)
        amps[3000:3600] = np.random.default_rng(4).standard_normal(600)
        amps /= np.linalg.norm(amps)
        run = list(evolve(SqrtGrowth(1.0), EvolveConfig(t_max=40.0, samples=2)))[-1]
        assert run.lo == 1252 and not run.amplitudes[: run.lo].any()
        for state in (make_state(amps), run):
            occupied = WaveState(state.t, state.amplitudes, state.active_size, 0.0, 0.0, lo=int(np.flatnonzero(state.amplitudes)[0]))
            p = state.amplitudes ** 2
            full_c = float(np.sum(np.arange(len(p)) * p))
            full_s = float(-np.sum(p[p > 1e-300] * np.log(p[p > 1e-300])))
            for st in (occupied, WaveState(state.t, state.amplitudes, state.active_size, 0.0, 0.0)):
                assert complexity(st) == pytest.approx(full_c, rel=1e-15, abs=0.0)
                assert entropy(st) == pytest.approx(full_s, rel=1e-15, abs=0.0)

    def test_a_row_squares_the_amplitudes_once(self, monkeypatch):
        from krylovchain import observables

        squares, calls = observables._probabilities, []

        def counted(state):
            calls.append(state.t)
            return squares(state)

        monkeypatch.setattr(observables, "_probabilities", counted)
        series = series_from_trajectory(evolve(SykLike(1.0, 1.0), EvolveConfig(t_max=1.0, samples=4)))
        assert calls == list(series.times)
        assert series.c_k[-1] == pytest.approx(math.sinh(1.0) ** 2, abs=1e-6)

    def test_entropy_bound(self):
        cfg = EvolveConfig(t_max=3.0, samples=12)
        for st in evolve(SykLike(1.0, 1.0), cfg):
            s = entropy(st)
            assert 0.0 <= s <= math.log(max(st.active_size, 2))


class TestSeries:
    def test_single_state(self):
        series = series_from_trajectory([make_state([1.0, 0.0])])
        assert series.c_k == (0.0,) and series.s_k == (0.0,) and series.phi0 == (1.0,)

    def test_order_preserved(self):
        sts = [make_state([1.0, 0.0], t=0.0), make_state([0.0, 1.0], t=1.0)]
        series = series_from_trajectory(sts)
        assert series.times == (0.0, 1.0)
        assert series.c_k == (0.0, 1.0)

    def test_non_monotone_rejected(self):
        sts = [make_state([1.0, 0.0], t=1.0), make_state([0.0, 1.0], t=0.5)]
        with pytest.raises(OrderingError):
            series_from_trajectory(sts)
        with pytest.raises(OrderingError):
            ObservableSeries(
                times=(0.0, 0.0),
                c_k=(0.0, 0.0),
                s_k=(0.0, 0.0),
                phi0=(1.0, 1.0),
                norm_error=(0.0, 0.0),
                active_size=(1, 1),
            )

    def test_each_state_is_released_before_the_next_is_made(self):
        refs = []

        def made(k):
            st = make_state([1.0, 0.0], t=float(k))
            refs.append(weakref.ref(st.amplitudes))
            return st

        def states():
            for k in range(3):
                assert all(ref() is None for ref in refs), "an earlier sample is still held"
                yield made(k)

        assert series_from_trajectory(states()).times == (0.0, 1.0, 2.0)

    def test_syk_trajectory_matches_closed_form(self):
        cfg = EvolveConfig(t_max=3.0, samples=30)
        series = series_from_trajectory(evolve(SykLike(1.0, 1.0), cfg))
        for t, ck in zip(series.times, series.c_k):
            assert ck == pytest.approx(math.sinh(t) ** 2, abs=1e-7 + 1e-6 * math.sinh(t) ** 2)


class TestRelaxation:
    def test_single_coefficient_exact(self):
        # terminated fraction: z / (z^2 + w^2), the transform of cos(wt)
        w = 1.7
        for z in (0.3, 2.0, 1.0 + 0.5j):
            got = relaxation_phi0(Explicit((w,)), z)
            assert got == pytest.approx(z / (z * z + w * w), abs=1e-14)

    def test_large_z_asymptote(self):
        for seq in (SykLike(1.0, 1.0), Constant(1.0)):
            z = 1e6
            assert relaxation_phi0(seq, z, depth=200) == pytest.approx(1.0 / z, rel=1e-9)

    def test_constant_fixed_point_near_zero(self):
        # phi = 1/(z + phi) -> phi(0) = 1 for b = 1
        val = relaxation_phi0(Constant(1.0), 1e-8, depth=4000)
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_laplace_quadrature_consistency(self):
        # numerical Laplace transform of the closed-form phi_0(t) at z = 1
        # against the continued fraction, for syk (sech) and the constant
        # chain (2 J_1(2t) / (2t))
        from scipy.integrate import simpson

        from krylovchain.special import bessel_j

        z = 1.0
        ts = np.linspace(0.0, 30.0, 12001)

        sech = 1.0 / np.cosh(ts)
        quad = float(simpson(np.exp(-z * ts) * sech, x=ts))
        cf = relaxation_phi0(SykLike(1.0, 1.0), z, depth=40000)
        assert abs(cf - quad) < 1e-6

        phi0 = np.array([1.0 if t == 0 else bessel_j(1, 2.0 * t) / t for t in ts])
        quad = float(simpson(np.exp(-z * ts) * phi0, x=ts))
        cf = relaxation_phi0(Constant(1.0), z, depth=40000)
        assert abs(cf - quad) < 1e-6

    def test_convergence_error_carries_both_values(self):
        with pytest.raises(ConvergenceError) as info:
            relaxation_phi0(SykLike(1.0, 1.0), 1e-3, depth=40, tol=1e-12)
        assert info.value.value_a != info.value.value_b

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            relaxation_phi0(Constant(1.0), 0.0)


def complex_scalar(v):
    return v.real if v.imag == 0.0 else v


def complex_phi0(seq, z, depth=20000, tol=1e-10):
    """relaxation_phi0 with every z complex, as an outcome tuple.

    The same tree product in complex arithmetic: the reference that the float
    evaluation of a real z must match bit for bit.
    """
    z = complex(z)
    if seq.support is not None:
        b = np.insert(seq.b_array(seq.support + 1), 0, 1.0)
        return ("value", complex_scalar(_cf_values(b, z, (seq.support,))[seq.support]))
    d_lo = max(depth // 2, 1)
    b = np.insert(seq.b_array(depth + 2), 0, 1.0)
    v = _cf_values(b, z, sorted({d_lo, d_lo + 1, depth, depth + 1}))
    hi = 0.5 * (v[depth] + v[depth + 1])
    lo = 0.5 * (v[d_lo] + v[d_lo + 1])
    if abs(hi - lo) > tol * max(abs(hi), 1e-300):
        return ("not converged", complex_scalar(lo), complex_scalar(hi))
    return ("value", complex_scalar(hi))


def loop_cf(b_sq, z, depth, f):
    # the bottom-up loop f <- 1 / (z + b_k^2 f), kept as the accuracy oracle
    for b2 in reversed(b_sq[:depth]):
        f = 1.0 / (z + b2 * f)
    return f


def loop_phi0(seq, z, depth):
    """phi_0(z) from the bottom-up loop: exact for finite chains, else the D, D+1 average."""
    if seq.support is not None:
        return loop_cf((seq.b_array(seq.support) ** 2).tolist(), z, seq.support, 1.0 / z)
    b_sq = (seq.b_array(depth + 2) ** 2).tolist()

    def fixed_point(b2):
        # the root of b2 x^2 + z x - 1 = 0 of smaller modulus attracts
        s = (z * z + 4.0 * b2) ** 0.5
        return min((-z + s) / (2.0 * b2), (-z - s) / (2.0 * b2), key=abs)

    return 0.5 * sum(loop_cf(b_sq, z, n, fixed_point(b_sq[n])) for n in (depth, depth + 1))


def phi0_outcome(seq, z, depth=20000, tol=1e-10):
    """relaxation_phi0's value, or both trial values of its ConvergenceError."""
    try:
        return ("value", relaxation_phi0(seq, z, depth=depth, tol=tol))
    except ConvergenceError as exc:
        return ("not converged", exc.value_a, exc.value_b)


REAL_AXIS_CHAINS = [
    pytest.param(SykLike(1.0, 1.0), id="syk_1_1"),
    pytest.param(Constant(1.0), id="constant_1"),
    pytest.param(SqrtGrowth(1.0), id="sqrt_growth_1"),
    pytest.param(Explicit((1.0, 2.0, 0.5)), id="explicit_3"),
]


class TestTreeProduct:
    @pytest.mark.parametrize("seq", REAL_AXIS_CHAINS + [
        pytest.param(SykLike(1.0, 2.0), id="syk_1_2"),
        pytest.param(PowerLaw(1.0, 0.5), id="power_law_1_0.5"),
        pytest.param(LogGrowth(1.0, 0.0, 1), id="log_growth_1_0_1"),
    ])
    @pytest.mark.parametrize("z", [1e-8, 1e-4, 1e-2, 2.0, -3.0, 0.3 + 0.2j, 1.0 + 0.5j, 1e6])
    def test_matches_bottom_up_loop(self, seq, z):
        # the tree rounds in another order than the loop: 1e-12 relative
        for depth in (4000, 20000, 40000):
            got = relaxation_phi0(seq, z, depth=depth, tol=math.inf)
            want = loop_phi0(seq, z, depth)
            assert abs(got - want) <= 1e-12 * abs(want), (depth, got, want)

    @pytest.mark.parametrize("b2", [1e-2, 1.0, 1e8])
    @pytest.mark.parametrize("z", [1e-4, 2.0, -3.0, 0.3 + 0.2j, 1e6])
    def test_tail_is_the_attracting_fixed_point(self, b2, z):
        x = _tail(math.sqrt(b2), z)
        assert abs(x * (z + b2 * x) - 1.0) <= 1e-13
        assert abs(math.sqrt(b2) * x) < 1.0

    def test_negative_z_converges_to_the_attracting_fixed_point(self):
        # the repelling fixed point as a tail, (3 + sqrt(13)) / 2, only reaches
        # this value through rounding error that grows about 11x per level
        for depth in (40, 4000):
            val = relaxation_phi0(Constant(1.0), -3.0, depth=depth)
            assert abs(val - (3.0 - math.sqrt(13.0)) / 2.0) <= 1e-15

    def test_large_coefficients_do_not_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = relaxation_phi0(Constant(1e150), 1e140, depth=4000)
        want = loop_phi0(Constant(1e150), 1e140, 4000)
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_couplings_past_1e154_of_b_1_do_not_overflow(self):
        # b_1^2 phi_1 is below the rounding of z = 0.5: phi_0 = 1/z
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert relaxation_phi0(StitchedSequence(head=(1e-160,), alpha=1.0), 0.5) == 2.0

    @pytest.mark.parametrize("z", [0.5, 0.3 + 0.2j])
    def test_vanishing_tail_couplings_end_in_1_over_z(self, z):
        # b_n = 1e-200 n past b_1 = 1: (z / b)^2 leaves the float range in
        # the tail, whose value is 1/z, so phi_0 = 1 / (z + 1/z)
        got = relaxation_phi0(StitchedSequence(head=(1.0,), alpha=1e-200), z)
        assert abs(got - z / (z * z + 1.0)) <= 1e-15 * abs(got)


class TestRealAxisArithmetic:
    @pytest.mark.parametrize("seq", REAL_AXIS_CHAINS)
    @pytest.mark.parametrize("z", [1e-4, 1e-2, 2.0, -3.0, 0.3 + 0.2j])
    def test_matches_complex_evaluation_exactly(self, seq, z):
        # at depth 4000 several semi-infinite cases miss tol = 1e-10, so their
        # ConvergenceError values are compared as well
        got, want = phi0_outcome(seq, z, depth=4000), complex_phi0(seq, z, depth=4000)
        assert got == want
        assert [type(v) for v in got] == [type(v) for v in want]
        want_type = complex if isinstance(z, complex) else float
        assert all(type(v) is want_type for v in got[1:])

    @pytest.mark.parametrize("seq", REAL_AXIS_CHAINS)
    def test_real_z_of_any_type_gives_one_float(self, seq):
        values = [relaxation_phi0(seq, z, depth=4000) for z in (2, 2.0, np.float64(2.0), 2 + 0j)]
        assert all(type(v) is float for v in values)
        assert [("value", v) for v in values] == [complex_phi0(seq, 2.0, depth=4000)] * 4

    def test_w_trace_matches_complex_evaluation_exactly(self):
        seq = SykLike(1.0, 1.0)
        want = [(z, complex_phi0(seq, z, tol=1e-7)[1]) for z in (1e-2, 1e-3, 1e-4)]
        assert list(w_number(seq).cf_trace) == want


class TestImpulseSpectrum:
    def test_single_mode_pair(self):
        md = finite_chain_modes([1.3])
        spec = spectral_density_finite(md)
        # phi_0 = cos(wt): impulses pi at +/- w; total weight 2 pi
        assert len(spec.impulses) == 2
        for (w, wgt), w_want in zip(spec.impulses, (-1.3, 1.3)):
            assert w == pytest.approx(w_want, abs=1e-12)
            assert wgt == pytest.approx(math.pi, rel=1e-12)
        assert sum(wgt for _, wgt in spec.impulses) == pytest.approx(2 * math.pi)

    def test_zero_mode_impulse(self):
        md = finite_chain_modes([1.0, 1.0])  # K = 2 has a zero mode of weight 1/2
        spec = spectral_density_finite(md)
        zero = [wgt for w, wgt in spec.impulses if w == 0.0]
        assert zero == [pytest.approx(math.pi)]

    def test_weights_normalized(self):
        md = finite_chain_modes([0.8, 1.7, 0.4, 2.0])
        spec = spectral_density_finite(md)
        assert sum(w for _, w in spec.impulses) == pytest.approx(2 * math.pi, rel=1e-12)

    def test_broadened_curve_positive(self):
        md = finite_chain_modes([1.0])
        spec = spectral_density_finite(md)
        omegas = np.linspace(-3, 3, 101)
        curve = spec.broadened(omegas, width=0.05)
        assert np.all(curve > 0)
        with pytest.raises(ValueError):
            spec.broadened(omegas, width=0.0)
