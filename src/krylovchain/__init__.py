"""Operator growth on Krylov chains.

A dynamics is defined by its Lanczos coefficients b_n.  This package
converts between moments and coefficients, integrates the discrete
operator wave function, computes K-complexity / K-entropy and the
ergodicity indicator W, evaluates the closed-form reference solutions,
and fits the long-time relation S_K = eta * ln C_K + c.
"""

from .closedforms import (
    ModeDecomposition,
    SpectralModel,
    bessel_chain_wavefunction,
    coherent_wavefunction,
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
from .errors import (
    ArtifactError,
    ConvergenceError,
    CouplingOverflowError,
    InsufficientDataError,
    InvalidMomentSequenceError,
    KrylovChainError,
    OrderingError,
    ParameterError,
    PrecisionExhaustedError,
    ResourceLimitError,
    SchemaError,
    StiffnessError,
    SupportExceededError,
    UnsupportedFamilyError,
    WindowError,
)
from .evolve import EvolveConfig, WaveState, active_window_policy, evolve, rhs
from .fitting import (
    BoundVerdict,
    FitResult,
    InitialRegimeReport,
    Selection,
    default_window,
    eta_bound_check,
    fit_log_relation,
    initial_regime_report,
    select_window,
)
from .moments import (
    LanczosConversion,
    MomentSequence,
    hankel_determinants,
    lanczos_from_hankel,
    lanczos_to_moments,
    moments_to_lanczos,
)
from .observables import (
    ImpulseSpectrum,
    ObservableSeries,
    complexity,
    entropy,
    relaxation_phi0,
    series_from_trajectory,
    spectral_density_finite,
)
from .sequences import (
    Constant,
    ConstantWithFirst,
    Explicit,
    LanczosSequence,
    Linear,
    LogCorrectedLinear,
    LogGrowth,
    PowerLaw,
    PowerLog,
    SqrtGrowth,
    StitchedSequence,
    Su2,
    SykLike,
    eval_bn,
)
from .special import bessel_j, bessel_j_array, log_gamma
from .wnumber import WClassification, partial_products, w_number

__version__ = "0.1.0"
