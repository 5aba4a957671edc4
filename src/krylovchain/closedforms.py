"""Exact reference solutions for the solvable chains.

Each wave-function closed form is written once and takes the site index
n as an int or an integer array; the probability profiles are its square
over np.arange(n_sites).  Factorial-type prefactors are evaluated in log
space (scipy.special.gammaln), so large site indices stay finite, and the
Bessel chains use scipy.special.jv.  scipy.special is imported inside the
functions, which keeps it out of the package import.  The finite-chain
mode decomposition diagonalizes the (K+1) x (K+1) tridiagonal operator
(scipy.linalg.eigh_tridiagonal) and folds the +/- frequency pairs into
cosine weights; the model spectral density family carries closed-form
moments, autocorrelation and density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Sequence, Tuple

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import (
    NON_NEGATIVE,
    POSITIVE,
    ParameterError,
    SupportExceededError,
    UnsupportedFamilyError,
    check_fields,
    param,
)
from .evolve import WaveState
from .moments import MomentSequence, moments_to_lanczos
from .observables import ObservableSeries, series_from_trajectory
from .sequences import HALF_INTEGER, StitchedSequence
from .special import log_gamma

__all__ = [
    "syk_wavefunction",
    "coherent_wavefunction",
    "su2_wavefunction",
    "syk_eta1_observables",
    "bessel_chain_wavefunction",
    "ModeDecomposition",
    "finite_chain_modes",
    "SpectralModel",
    "spectral_model_moments",
    "spectral_model_autocorrelation",
    "spectral_model_density",
    "spectral_model_sequence",
    "table1_reference",
    "syk_profile",
    "coherent_profile",
    "su2_profile",
    "bessel_chain_profile",
    "series_from_profile",
]

# the default head length of spectral_model_sequence, which config reads
EXACT_COUNT = 96


def _orders(n) -> np.ndarray:
    """Site index n as an integer array (0-d for an int), checked >= 0."""
    n = np.asarray(n)
    if np.any(n < 0):
        raise ValueError("n must be >= 0")
    return n


def _like(n: np.ndarray, values):
    """A float for a scalar site index, the array otherwise."""
    return float(values) if n.ndim == 0 else values


def syk_wavefunction(alpha: float, eta: float, n, t: float):
    """phi_n(t) = sqrt(Gamma(n+eta)/(n! Gamma(eta))) tanh^n(at)/cosh^eta(at)."""
    from scipy.special import gammaln, xlogy

    POSITIVE.check("eta", eta)
    n = _orders(n)
    x = alpha * t
    mag = (
        0.5 * (gammaln(n + eta) - gammaln(n + 1.0) - gammaln(eta))
        + xlogy(n, abs(math.tanh(x)))  # 0 ln 0 = 0 gives phi_n(0) = delta_n0
        - eta * math.log(math.cosh(x))
    )
    sign = (-1.0) ** n if x < 0 else 1.0
    return _like(n, sign * np.exp(mag))


def coherent_wavefunction(alpha: float, n, t: float):
    """phi_n(t) = exp(-a^2 t^2 / 2) (a t)^n / sqrt(n!)."""
    from scipy.special import gammaln, xlogy

    n = _orders(n)
    x = alpha * t
    mag = -0.5 * x * x + xlogy(n, abs(x)) - 0.5 * gammaln(n + 1.0)
    sign = (-1.0) ** n if x < 0 else 1.0
    return _like(n, sign * np.exp(mag))


def su2_wavefunction(alpha: float, j: float, n, t: float):
    """phi_n(t) = sqrt(C(2j, n)) sin^n(at) cos^(2j-n)(at) on 0 <= n <= 2j."""
    from scipy.special import gammaln

    HALF_INTEGER.check("j", j)
    two_j = int(round(2 * j))
    n = np.asarray(n)
    outside = np.flatnonzero((n < 0) | (n > two_j))
    if outside.size:
        raise SupportExceededError(int(n.flat[outside[0]]), two_j)
    x = alpha * t
    binom = np.exp(gammaln(two_j + 1.0) - gammaln(n + 1.0) - gammaln(two_j - n + 1.0))
    return _like(n, np.sqrt(binom) * math.sin(x) ** n * math.cos(x) ** (two_j - n))


def syk_eta1_observables(alpha: float, t: float) -> Tuple[float, float]:
    """(C_K, S_K) = (sinh^2, cosh^2 ln cosh^2 - sinh^2 ln sinh^2) at eta = 1."""
    x = alpha * t
    s2 = math.sinh(x) ** 2
    c2 = 1.0 + s2
    if s2 == 0.0:
        return 0.0, 0.0
    return s2, c2 * math.log(c2) - s2 * math.log(s2)


def bessel_chain_wavefunction(variant: str, omega0: float, n, t: float):
    """Closed forms for the two constant-hopping chains.

    variant "A" (b_n = w0/2):          phi_n = J_n(w0 t) + J_{n+2}(w0 t)
    variant "B" (b_1 = w0/sqrt2, rest): phi_n = c_n J_n(w0 t), c_0 = 1, c_n = sqrt2
    """
    from scipy.special import jv

    n = _orders(n)
    x = omega0 * t
    if variant == "A":
        return _like(n, jv(n, x) + jv(n + 2, x))
    if variant == "B":
        return _like(n, np.where(n == 0, 1.0, math.sqrt(2.0)) * jv(n, x))
    raise ValueError("variant must be 'A' or 'B'")


# ---------------------------------------------------------------------------
# probability profiles p_n = phi_n^2 on sites 0..n_sites-1, and series from them


def syk_profile(alpha: float, eta: float, t: float, n_sites: int) -> np.ndarray:
    return syk_wavefunction(alpha, eta, np.arange(n_sites), t) ** 2


def coherent_profile(alpha: float, t: float, n_sites: int) -> np.ndarray:
    return coherent_wavefunction(alpha, np.arange(n_sites), t) ** 2


def su2_profile(alpha: float, j: float, t: float) -> np.ndarray:
    return su2_wavefunction(alpha, j, np.arange(int(round(2 * j)) + 1), t) ** 2


def bessel_chain_profile(variant: str, omega0: float, t: float, n_sites: int) -> np.ndarray:
    return bessel_chain_wavefunction(variant, omega0, np.arange(n_sites), t) ** 2


def series_from_profile(profile_fn, times: Sequence[float]) -> ObservableSeries:
    """ObservableSeries from a closed-form probability profile.

    profile_fn(t, n_sites) must return occupation probabilities; the site
    count is grown until the last 8 sites hold at most 1e-16 of the mass,
    so truncation never biases the sums.  Each profile becomes
    the state sqrt(p) and is reduced by series_from_trajectory.
    """

    def states():
        n_sites = 64
        for t in times:
            t = float(t)
            while True:
                p = profile_fn(t, n_sites)
                if len(p) < n_sites:
                    break  # finite chain: the profile ignores the requested size
                if np.sum(p[-8:]) <= 1e-16 or n_sites >= 50_000_000:
                    break
                n_sites = int(math.ceil(n_sites * 1.6)) + 8
            yield WaveState(t, np.sqrt(p), len(p), abs(float(np.sum(p)) - 1.0), 0.0)

    return series_from_trajectory(states())


# ---------------------------------------------------------------------------
# finite chains


@dataclass(frozen=True)
class ModeDecomposition:
    """Cosine decomposition phi_0(t) = a_0 + sum a_l cos(omega_l t)."""

    zero_mode_weight: float
    modes: Tuple[Tuple[float, float], ...]  # (omega_l > 0, a_l), omega increasing
    provenance: Dict[str, float]

    def __post_init__(self):
        total = self.zero_mode_weight + sum(a for _, a in self.modes)
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"mode weights sum to {total}, expected 1")
        omegas = [w for w, _ in self.modes]
        if any(w2 <= w1 for w1, w2 in zip(omegas, omegas[1:])):
            raise ValueError("mode frequencies must be strictly increasing")

    def phi0(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        out = np.full(t.shape, self.zero_mode_weight)
        for w, a in self.modes:
            out += a * np.cos(w * t)
        return out


def finite_chain_modes(b: Sequence[float]) -> ModeDecomposition:
    """Eigen-decomposition of the finite chain with coefficients b_1..b_K.

    The (K+1) x (K+1) operator is tridiagonal with zero diagonal and
    off-diagonal b; scipy.linalg.eigh_tridiagonal diagonalizes it.  Each
    +/- pair of eigenvalues is folded into one cosine mode with weight
    a_l = 2 |v_l(0)|^2, and a zero eigenvalue contributes a_0 = |v_0(0)|^2.
    """
    b = np.asarray([float(x) for x in b], dtype=float)
    if len(b) < 1:
        raise ValueError("a finite chain needs at least one coefficient")
    if np.any(b <= 0):
        raise ValueError("coefficients must be positive")
    evals, evecs = eigh_tridiagonal(np.zeros(len(b) + 1), b)
    scale = float(np.max(np.abs(evals))) or 1.0
    zero_tol = 1e-9 * scale
    a0 = 0.0
    pos = []
    for lam, v0 in zip(evals, evecs[0, :]):
        if abs(lam) <= zero_tol:
            a0 += float(v0 * v0)
        elif lam > 0:
            pos.append((float(lam), 2.0 * float(v0 * v0)))
    pos.sort(key=lambda p: p[0])
    recon = a0 + sum(a for _, a in pos)
    return ModeDecomposition(
        zero_mode_weight=a0,
        modes=tuple(pos),
        provenance={
            "dimension": float(len(b) + 1),
            "weight_residual": abs(recon - 1.0),
            "zero_tolerance": zero_tol,
        },
    )


# ---------------------------------------------------------------------------
# model spectral density family


@dataclass(frozen=True)
class SpectralModel:
    """Density Phi(w) = pi/(w0 Gamma(nu+1)) |w/w0|^nu exp(-|w/w0|).

    Exponential decay at large frequency corresponds to asymptotically
    linear hopping growth with rate alpha = pi w0 / 2.
    """

    nu: float = param(NON_NEGATIVE)
    omega0: float = param(POSITIVE)

    def __post_init__(self):
        check_fields(self)

    @classmethod
    def with_rate(cls, nu: float, alpha: float = 1.0) -> "SpectralModel":
        POSITIVE.check("alpha", alpha)
        omega0 = 2.0 * alpha / math.pi
        if not POSITIVE.ok(omega0):
            raise ParameterError("alpha", f"alpha = {alpha} gives omega0 = {omega0}")
        return cls(nu=nu, omega0=omega0)

    @property
    def alpha(self) -> float:
        return math.pi * self.omega0 / 2.0


def spectral_model_moments(model: SpectralModel, n: int, exact: bool = False):
    """mu_{2n} = w0^(2n) Gamma(1+nu+2n)/Gamma(1+nu).

    With exact=True (integer nu and rational w0) the value is returned as
    an exact Fraction.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if exact:
        nu = model.nu
        if abs(nu - round(nu)) > 0:
            raise ValueError("exact moments need integer nu")
        w0 = Fraction(model.omega0)  # binary floats are exact rationals
        nu = int(round(nu))
        return w0 ** (2 * n) * math.prod(range(nu + 1, nu + 2 * n + 1))
    ln = 2 * n * math.log(model.omega0) + log_gamma(1 + model.nu + 2 * n) - log_gamma(1 + model.nu)
    return math.exp(ln)


def spectral_model_autocorrelation(model: SpectralModel, t: float) -> float:
    """C(t) = Re (1 - i w0 t)^(-(1+nu)); real by conjugate symmetry."""
    z = (1.0 - 1j * model.omega0 * t) ** (-(1.0 + model.nu))
    return float(z.real)


def spectral_model_density(model: SpectralModel, omega: float) -> float:
    """Phi(omega); the |w|^nu factor uses the 0^0 = 1 convention at nu = 0."""
    u = abs(omega) / model.omega0
    pref = math.pi / (model.omega0 * math.exp(log_gamma(model.nu + 1.0)))
    power = 1.0 if (u == 0.0 and model.nu == 0.0) else u ** model.nu
    return pref * power * math.exp(-u)


def spectral_model_sequence(model: SpectralModel, exact_count: int = EXACT_COUNT) -> StitchedSequence:
    """Hopping sequence of the model density: exact head, fitted linear tail.

    The first `exact_count` coefficients come from the exact rational
    moment problem in omega0 = 1 units (then scaled); beyond the head the
    sequence continues as alpha*n + gamma_parity + c_parity/n with the
    parity constants fitted on the last 48 exact coefficients.
    The even/odd split matters: the coefficients of this family approach
    their linear asymptote on two interleaved branches.
    """
    if exact_count < 8:
        raise ValueError("exact_count must be >= 8")
    unit = SpectralModel(nu=model.nu, omega0=1.0)
    mu = MomentSequence.from_values(
        [spectral_model_moments(unit, k, exact=True) for k in range(exact_count + 1)]
    )
    conv = moments_to_lanczos(mu, exact_count)
    b_unit = np.asarray(conv.coefficients, dtype=float)
    alpha_unit = math.pi / 2.0
    n = np.arange(1.0, exact_count + 1)
    resid = b_unit - alpha_unit * n
    gammas = {}
    for parity in (0, 1):
        mask = (n % 2 == parity) & (n > exact_count - 48)
        design = np.stack([np.ones(int(mask.sum())), 1.0 / n[mask]], axis=1)
        coef, *_ = np.linalg.lstsq(design, resid[mask], rcond=None)
        gammas[parity] = coef
    w0 = model.omega0
    return StitchedSequence(
        head=tuple(w0 * b_unit),
        alpha=alpha_unit * w0,
        gamma_even=w0 * float(gammas[0][0]),
        gamma_odd=w0 * float(gammas[1][0]),
        c_even=w0 * float(gammas[0][1]),
        c_odd=w0 * float(gammas[1][1]),
    )


# ---------------------------------------------------------------------------
# long-time reference asymptotics (qualitative: overall constants undetermined)

_TABLE1 = {
    "linear": lambda p, t: (math.exp(2.0 * p["alpha"] * t), 2.0 * p["alpha"] * t),
    "log_corrected_linear": lambda p, t: (
        math.exp(math.sqrt(4.0 * p["alpha"] * t)),
        math.sqrt(4.0 * p["alpha"] * t),
    ),
    "power_law": lambda p, t: (
        (2.0 * p["alpha"] * t) ** (1.0 / (1.0 - p["delta"])),
        math.log(2.0 * p["alpha"] * t),
    ),
    "power_log": lambda p, t: (
        (2.0 * p["alpha"] * t) ** (1.0 / (1.0 - p["delta"]))
        * math.log(2.0 * p["alpha"] * t) ** (p["sign"] / (1.0 - p["delta"])),
        math.log(2.0 * p["alpha"] * t),
    ),
    "log_growth": lambda p, t: (
        2.0 * p["alpha"] * t * math.log(2.0 * p["alpha"] * t),
        math.log(2.0 * p["alpha"] * t),
    ),
    "constant": lambda p, t: (2.0 * p["b"] * t, math.log(2.0 * p["b"] * t)),
}


def table1_reference(family: str, params: Dict[str, float], t: float) -> Tuple[float, float]:
    """Leading long-time (C_K, S_K) asymptote for one of the six families.

    Qualitative reference curves: the overall constants are undetermined,
    only the functional time dependence is meaningful.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    try:
        fn = _TABLE1[family]
    except KeyError:
        raise UnsupportedFamilyError(
            f"unknown family {family!r}; known: {sorted(_TABLE1)}"
        ) from None
    return fn(params, t)
