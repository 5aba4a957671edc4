"""Closed-form solutions, mode decompositions, the model spectral density."""

import math
from fractions import Fraction

import numpy as np
import pytest

from krylovchain import (
    EvolveConfig,
    SpectralModel,
    SupportExceededError,
    UnsupportedFamilyError,
    bessel_chain_wavefunction,
    coherent_wavefunction,
    evolve,
    finite_chain_modes,
    spectral_model_autocorrelation,
    spectral_model_density,
    spectral_model_moments,
    spectral_model_sequence,
    su2_wavefunction,
    syk_eta1_observables,
    syk_wavefunction,
    table1_reference,
)
from krylovchain.closedforms import (
    bessel_chain_profile,
    coherent_profile,
    series_from_profile,
    su2_profile,
    syk_profile,
)


class TestWavefunctions:
    def test_syk_eta1_is_sech(self):
        for t in (0.3, 1.0, 2.5):
            assert syk_wavefunction(1.0, 1.0, 0, t) == pytest.approx(1 / math.cosh(t), rel=1e-14)

    def test_syk_zero_time(self):
        assert syk_wavefunction(2.0, 0.7, 0, 0.0) == 1.0
        assert syk_wavefunction(2.0, 0.7, 5, 0.0) == 0.0

    def test_syk_eta2_value(self):
        # direct evaluation: sqrt(2) tanh(1) / cosh^2(1) = 0.4523362...
        want = math.sqrt(2) * math.tanh(1.0) / math.cosh(1.0) ** 2
        assert want == pytest.approx(0.4523362, abs=1e-7)
        assert syk_wavefunction(1.0, 2.0, 1, 1.0) == pytest.approx(want, rel=1e-13)
        # cross-check against the numeric evolution
        cfg = EvolveConfig(t_max=1.0, samples=2)
        from krylovchain import SykLike

        st = list(evolve(SykLike(1.0, 2.0), cfg))[-1]
        assert st.amplitudes[1] == pytest.approx(want, abs=1e-7)

    def test_coherent_values(self):
        assert coherent_wavefunction(1.0, 0, 1.0) == pytest.approx(math.exp(-0.5), rel=1e-14)
        assert coherent_wavefunction(1.5, 3, 0.0) == 0.0
        # C_K = (alpha t)^2 exactly
        p = coherent_profile(1.0, 2.0, 400)
        ck = float(np.sum(np.arange(400) * p))
        assert ck == pytest.approx(4.0, rel=1e-12)

    def test_su2_values(self):
        assert su2_wavefunction(1.0, 0.5, 1, 0.8) == pytest.approx(math.sin(0.8), rel=1e-14)
        assert su2_wavefunction(1.0, 3.0, 0, 0.0) == 1.0
        with pytest.raises(SupportExceededError):
            su2_wavefunction(1.0, 1.0, 3, 0.5)
        # C_K = 2j sin^2(alpha t): j = 1 at t = pi/2 gives 2
        p = su2_profile(1.0, 1.0, math.pi / 2)
        assert float(np.sum(np.arange(3) * p)) == pytest.approx(2.0, abs=1e-12)

    def test_syk_eta1_observables(self):
        assert syk_eta1_observables(1.0, 0.0) == (0.0, 0.0)
        ck, sk = syk_eta1_observables(1.0, 1.0)
        assert ck == pytest.approx(math.sinh(1.0) ** 2, rel=1e-14)
        # exact asymptotics: S_K = ln C_K + 1 + O(1/C_K), so the slope of
        # S_K against ln C_K is exactly unity at long times; the ratio itself
        # approaches 1 like 1/ln C_K
        ck, sk = syk_eta1_observables(1.0, 12.0)
        assert sk / math.log(ck) == pytest.approx(1.0, abs=0.05)
        # t = 8 keeps the high-precision residual checks clear of float
        # cancellation in the sinh^2/cosh^2 formula
        ck, sk = syk_eta1_observables(1.0, 8.0)
        assert sk - math.log(ck) == pytest.approx(1.0, abs=1e-6)
        assert sk - 2.0 * 8.0 == pytest.approx(1.0 - math.log(4.0), abs=1e-6)

    def test_bessel_chain_values(self):
        # frozen from the series oracle: J_0(1) and J_1(1) + J_3(1)
        assert bessel_chain_wavefunction("B", 1.0, 0, 1.0) == pytest.approx(0.7651976866, abs=1e-10)
        assert bessel_chain_wavefunction("A", 1.0, 1, 1.0) == pytest.approx(0.4596139397, abs=1e-10)
        assert bessel_chain_wavefunction("A", 2.0, 0, 0.0) == 1.0
        with pytest.raises(ValueError):
            bessel_chain_wavefunction("C", 1.0, 0, 1.0)

    @pytest.mark.parametrize(
        "profile",
        [
            lambda t, n: syk_profile(1.0, 1.0, t, n),
            lambda t, n: syk_profile(1.0, 2.0, t, n),
            lambda t, n: coherent_profile(1.0, t, n),
            lambda t, n: bessel_chain_profile("A", 1.0, t, n),
            lambda t, n: bessel_chain_profile("B", 1.0, t, n),
        ],
        ids=["syk1", "syk2", "coherent", "bessel_a", "bessel_b"],
    )
    def test_profiles_normalized(self, profile):
        for t in np.linspace(0.1, 5.0, 50):
            n = 64
            while True:
                p = profile(t, n)
                if np.sum(p[-8:]) < 1e-14 or n > 500_000:
                    break
                n = int(n * 1.7) + 8
            assert float(np.sum(p)) == pytest.approx(1.0, abs=1e-10)


VECTOR_CASES = [
    ("syk_eta1", lambda n, t: syk_wavefunction(1.0, 1.0, n, t), 400),
    ("syk_eta07", lambda n, t: syk_wavefunction(1.3, 0.7, n, t), 400),
    ("coherent", lambda n, t: coherent_wavefunction(1.2, n, t), 200),
    ("su2_j52", lambda n, t: su2_wavefunction(0.8, 2.5, n, t), 6),
    ("bessel_a", lambda n, t: bessel_chain_wavefunction("A", 1.0, n, t), 120),
    ("bessel_b", lambda n, t: bessel_chain_wavefunction("B", 0.7, n, t), 120),
]


@pytest.mark.parametrize("name,phi,n_sites", VECTOR_CASES, ids=[c[0] for c in VECTOR_CASES])
def test_closed_forms_vectorized_match_scalar(name, phi, n_sites):
    for t in (-1.7, 0.0, 0.4, 3.0, 25.0):
        vec = phi(np.arange(n_sites), t)
        assert vec.shape == (n_sites,)
        for n in range(n_sites):
            one = phi(n, t)
            assert isinstance(one, float)
            assert vec[n] == pytest.approx(one, rel=1e-14, abs=0.0)


def test_profiles_square_the_wavefunctions():
    t, n = 1.3, np.arange(50)
    assert np.array_equal(syk_profile(1.0, 2.0, t, 50), syk_wavefunction(1.0, 2.0, n, t) ** 2)
    assert np.array_equal(coherent_profile(1.0, t, 50), coherent_wavefunction(1.0, n, t) ** 2)
    assert np.array_equal(
        bessel_chain_profile("A", 1.0, t, 50), bessel_chain_wavefunction("A", 1.0, n, t) ** 2
    )
    assert len(su2_profile(1.0, 1.5, t)) == 4
    with pytest.raises(SupportExceededError):
        su2_wavefunction(1.0, 1.0, np.arange(4), t)
    with pytest.raises(ValueError):
        syk_wavefunction(1.0, 1.0, np.array([0, -1]), t)


def test_bessel_j_takes_integer_arrays():
    from krylovchain.special import bessel_j, bessel_j_array

    orders = np.array([0, 3, 7])
    assert np.array_equal(bessel_j(orders, 4.5), bessel_j_array(7, 4.5)[orders])
    with pytest.raises(ValueError):
        bessel_j(np.array([1, -1]), 1.0)


class TestModeDecomposition:
    def test_single_coefficient(self):
        md = finite_chain_modes([1.4])
        assert md.zero_mode_weight == 0.0
        assert len(md.modes) == 1
        assert md.modes[0][0] == pytest.approx(1.4, rel=1e-12)
        assert md.modes[0][1] == pytest.approx(1.0, rel=1e-12)

    def test_k3_two_frequency_chain(self):
        # coefficients tuned so phi_0 = (cos w1 t + cos w2 t) / 2
        w1, w2 = 1.0, 2.0
        b1 = math.sqrt((w1 ** 2 + w2 ** 2) / 2)
        b2 = math.sqrt((w1 ** 2 - w2 ** 2) ** 2 / (2 * (w1 ** 2 + w2 ** 2)))
        b3 = math.sqrt(2 * w1 ** 2 * w2 ** 2 / (w1 ** 2 + w2 ** 2))
        md = finite_chain_modes([b1, b2, b3])
        assert md.zero_mode_weight == pytest.approx(0.0, abs=1e-12)
        freqs = [m[0] for m in md.modes]
        weights = [m[1] for m in md.modes]
        assert freqs == pytest.approx([w1, w2], rel=1e-10)
        assert weights == pytest.approx([0.5, 0.5], abs=1e-10)

    def test_k2_zero_mode(self):
        md = finite_chain_modes([1.0, 1.0])
        assert md.zero_mode_weight == pytest.approx(0.5, abs=1e-12)
        assert md.modes[0][0] == pytest.approx(math.sqrt(2), rel=1e-12)
        assert md.modes[0][1] == pytest.approx(0.5, abs=1e-12)

    def test_weight_sum_invariant(self):
        rng = np.random.default_rng(17)
        for k in range(1, 9):
            b = rng.uniform(0.5, 2.0, size=k)
            md = finite_chain_modes(b)
            total = md.zero_mode_weight + sum(a for _, a in md.modes)
            assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("k", [*range(1, 13), 40])
    def test_matches_dense_eigendecomposition(self, k):
        b = np.random.default_rng(100 + k).uniform(0.5, 2.0, size=k)
        md = finite_chain_modes(b)
        evals, evecs = np.linalg.eigh(np.diag(b, 1) + np.diag(b, -1))
        weights = evecs[0] ** 2
        zero = np.abs(evals) <= 1e-9 * np.max(np.abs(evals))
        pos = (evals > 0) & ~zero
        assert md.zero_mode_weight == pytest.approx(float(np.sum(weights[zero])), abs=1e-12)
        assert np.allclose([w for w, _ in md.modes], evals[pos], rtol=0.0, atol=1e-12)
        assert np.allclose([a for _, a in md.modes], 2.0 * weights[pos], rtol=0.0, atol=1e-12)

    def test_reconstruction_matches_evolution(self):
        rng = np.random.default_rng(29)
        for k in (2, 5, 8):
            b = tuple(rng.uniform(0.5, 2.0, size=k))
            md = finite_chain_modes(b)
            from krylovchain import Explicit

            # small oscillatory chains over long horizons are rk45 territory
            cfg = EvolveConfig(
                t_max=20.0, samples=40, method="rk45", rel_tol=1e-11, abs_tol=1e-13
            )
            for st in evolve(Explicit(b), cfg):
                want = float(md.phi0(st.t))
                assert st.amplitudes[0] == pytest.approx(want, abs=1e-8)


class TestSpectralModel:
    def test_moment_examples(self):
        m = SpectralModel(nu=0.0, omega0=0.7)
        assert spectral_model_moments(m, 0) == pytest.approx(1.0)
        assert spectral_model_moments(m, 1) == pytest.approx(2 * 0.7 ** 2, rel=1e-13)
        m1 = SpectralModel(nu=1.0, omega0=0.7)
        assert spectral_model_moments(m1, 1) == pytest.approx(6 * 0.7 ** 2, rel=1e-13)

    def test_moments_exact_rational(self):
        m = SpectralModel(nu=2.0, omega0=1.0)
        v = spectral_model_moments(m, 3, exact=True)
        assert v == Fraction(math.factorial(8), math.factorial(2))
        with pytest.raises(ValueError):
            spectral_model_moments(SpectralModel(nu=0.5, omega0=1.0), 1, exact=True)

    def test_autocorrelation_values(self):
        m = SpectralModel(nu=0.0, omega0=1.0)
        assert spectral_model_autocorrelation(m, 0.0) == 1.0
        assert spectral_model_autocorrelation(m, 1.0) == pytest.approx(0.5, rel=1e-14)
        m1 = SpectralModel(nu=1.0, omega0=1.0)
        assert spectral_model_autocorrelation(m1, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_density_values(self):
        m = SpectralModel(nu=0.0, omega0=1.0)
        assert spectral_model_density(m, 0.0) == pytest.approx(math.pi, rel=1e-14)
        assert spectral_model_density(m, 1.0) == pytest.approx(math.pi / math.e, rel=1e-14)
        m1 = SpectralModel(nu=1.0, omega0=1.0)
        assert spectral_model_density(m1, 0.0) == 0.0

    def test_moments_match_density_quadrature(self):
        # integral of w^{2n} Phi(w) dw / (2 pi) against the closed form
        from scipy.integrate import quad

        for nu in (0.0, 1.0, 2.0):
            m = SpectralModel(nu=nu, omega0=0.9)
            for n in range(6):
                val, _ = quad(
                    lambda w: w ** (2 * n) * spectral_model_density(m, w),
                    -80.0 * m.omega0,
                    80.0 * m.omega0,
                    limit=400,
                )
                want = spectral_model_moments(m, n)
                assert val / (2 * math.pi) == pytest.approx(want, rel=1e-8)

    def test_mu2_from_autocorrelation_derivative(self):
        # d^2 C(-it)/dt^2 at 0 equals mu_2; centered finite differences on
        # the imaginary-time autocorrelation C(-it) = (1 - w0 t)^{-(1+nu)}...
        # realized through the moment series of C itself
        for nu in (0.0, 1.5):
            m = SpectralModel(nu=nu, omega0=0.8)
            h = 1e-4
            # C(-it) expanded through real evaluation: C(t) has series
            # sum mu_2n (it)^{2n} / (2n)! so C(-it) = sum mu_2n t^{2n}/(2n)!
            def c_imag(t, m=m):
                return float((1.0 - m.omega0 * t) ** (-(1.0 + m.nu)) / 2.0
                             + (1.0 + m.omega0 * t) ** (-(1.0 + m.nu)) / 2.0)

            d2 = (c_imag(h) - 2.0 * c_imag(0.0) + c_imag(-h)) / h ** 2
            assert d2 == pytest.approx(spectral_model_moments(m, 1), rel=1e-6)

    def test_with_rate_convention(self):
        m = SpectralModel.with_rate(nu=0.0, alpha=1.0)
        assert m.omega0 == pytest.approx(2.0 / math.pi)
        assert m.alpha == pytest.approx(1.0)

    def test_sequence_head_matches_moment_problem(self):
        seq = spectral_model_sequence(SpectralModel(nu=0.0, omega0=1.0), exact_count=24)
        # b_1 = sqrt(mu_2) = sqrt(2)
        assert seq.b(1) == pytest.approx(math.sqrt(2.0), rel=1e-12)
        # asymptotic slope pi/2
        assert seq.b(1000) / 1000 == pytest.approx(math.pi / 2, rel=1e-3)

    def test_sequence_autocorrelation_consistency(self):
        # evolving the stitched sequence must reproduce the closed-form C(t)
        model = SpectralModel(nu=1.0, omega0=1.0)
        seq = spectral_model_sequence(model, exact_count=64)
        cfg = EvolveConfig(t_max=2.0, samples=20)
        for st in evolve(seq, cfg):
            want = spectral_model_autocorrelation(model, st.t)
            assert st.amplitudes[0] == pytest.approx(want, abs=2e-4)


class TestTable1:
    def test_reference_pairs(self):
        ck, sk = table1_reference("linear", {"alpha": 1.0}, 2.0)
        assert (ck, sk) == (pytest.approx(math.exp(4.0)), pytest.approx(4.0))
        ck, sk = table1_reference("constant", {"b": 1.5}, 2.0)
        assert (ck, sk) == (pytest.approx(6.0), pytest.approx(math.log(6.0)))
        ck, sk = table1_reference("power_law", {"alpha": 1.0, "delta": 0.5}, 2.0)
        assert ck == pytest.approx(16.0)
        assert sk == pytest.approx(math.log(4.0))
        ck, _ = table1_reference("log_corrected_linear", {"alpha": 1.0}, 4.0)
        assert ck == pytest.approx(math.exp(4.0))

    @pytest.mark.parametrize(
        "family,params,eta,times",
        [
            ("linear", {"alpha": 1.0}, 1.0, (1.0, 10.0, 300.0)),
            ("log_corrected_linear", {"alpha": 1.0}, 1.0, (1.0, 1e2, 1e5)),
            ("log_growth", {"alpha": 1.0}, 1.0, (1e2, 1e10, 1e50, 1e150)),
            ("constant", {"b": 1.5}, 1.0, (1e2, 1e10, 1e50, 1e150)),
            ("power_law", {"alpha": 1.0, "delta": 0.5}, 0.5, (1e2, 1e10, 1e50, 1e150)),
            ("power_log", {"alpha": 1.0, "delta": 0.5, "sign": 1}, 0.5, (1e2, 1e10, 1e50, 1e150)),
            ("power_log", {"alpha": 1.0, "delta": 0.25, "sign": -1}, 0.75, (1e2, 1e10, 1e50, 1e150)),
        ],
    )
    def test_entropy_slope_tends_to_eta(self, family, params, eta, times):
        # S_K / ln C_K -> eta at large t: 1, or 1 - delta for the power laws.
        # It is eta at every t but for log growth and power-log, whose
        # ln ln t term closes the gap only as 1 / ln t (1.7e-2 and 8e-3 at
        # t = 1e150); the times stay where C_K is a finite float
        gaps = []
        for t in times:
            ck, sk = table1_reference(family, params, t)
            gaps.append(abs(sk / math.log(ck) - eta))
        assert all(b <= a + 1e-15 for a, b in zip(gaps, gaps[1:])), gaps
        assert gaps[-1] <= 0.02, gaps

    def test_unknown_family(self):
        with pytest.raises(UnsupportedFamilyError):
            table1_reference("quadratic", {}, 1.0)


def test_series_from_profile_matches_observables():
    # the eta = 1 closed forms of C_K and S_K against the sums over the
    # profile sech^2 tanh^2n; the sums' rounding grows with the sites they
    # span, to 1e-14 relative at t = 3 and 4e-12 at t = 6
    times = np.linspace(0.0, 3.0, 13)
    series = series_from_profile(lambda t, n: syk_profile(1.0, 1.0, t, n), times)
    assert (series.c_k[0], series.s_k[0]) == syk_eta1_observables(1.0, 0.0) == (0.0, 0.0)
    for t, ck, sk in zip(times[1:], series.c_k[1:], series.s_k[1:]):
        want_c, want_s = syk_eta1_observables(1.0, t)
        assert ck == pytest.approx(want_c, rel=1e-12, abs=0.0), t
        assert sk == pytest.approx(want_s, rel=1e-12, abs=0.0), t
    assert max(series.norm_error) < 1e-10


def test_series_from_profile_reduces_through_trajectory(monkeypatch):
    import krylovchain.closedforms as cf

    seen = []
    reduce = cf.series_from_trajectory

    def spy(states):
        states = list(states)
        seen.extend(states)
        return reduce(states)

    monkeypatch.setattr(cf, "series_from_trajectory", spy)
    series = series_from_profile(lambda t, n: coherent_profile(1.0, t, n), [0.0, 0.5, 1.5])
    assert [st.t for st in seen] == [0.0, 0.5, 1.5]
    assert series.phi0[1] == pytest.approx(math.exp(-0.125), rel=1e-14)
    assert series.active_size == tuple(st.active_size for st in seen)
