"""memwave: damped wave equations with a weakly singular memory nonlinearity.

Simulates u_tt - Laplace(u) + u_t = int_0^t (t-s)^(-gamma) |u(s)|^p ds on a
periodic box via exact Fourier-mode propagation plus product-integration
quadrature of the memory kernel, and exposes the critical-exponent algebra
and decay/blow-up diagnostics that go with it.
"""

from .criticality import (
    DataTraits,
    ExponentSet,
    RegimeVerdict,
    blow_up_scaling_exponents,
    classify,
    compute_exponents,
)
from .diagnostics import (
    DecayFit,
    TestFunctionParams,
    WeakPairing,
    cui_bound_check,
    energy_W_from_norm,
    exterior_energy,
    fit_decay_samples,
    gagliardo_ratio,
    psi_radial,
    weak_residual,
)
from .frac_ops import (
    CutoffProfile,
    FracOrder,
    TimeGrid,
    TimeSeries,
    adjointness_sides,
    cutoff_deriv_closed_form,
    inversion_residual,
    rl_deriv_left,
    rl_deriv_right,
    rl_integral,
)
from .spectral import (
    FieldState,
    SpatialGrid,
    duhamel_step,
    k0_hat,
    k1_hat,
    linear_evolve,
)
from .stepper import (
    Phase,
    RunStatus,
    ScenarioConfig,
    SolutionHistory,
    StepRecord,
    default_dt,
    detect_blowup,
    make_initial_data,
    memory_estimate,
    run,
    suggested_half_length,
)

__version__ = "0.1.0"

__all__ = [
    "FracOrder",
    "TimeGrid",
    "TimeSeries",
    "CutoffProfile",
    "rl_integral",
    "rl_deriv_left",
    "rl_deriv_right",
    "cutoff_deriv_closed_form",
    "adjointness_sides",
    "inversion_residual",
    "SpatialGrid",
    "FieldState",
    "k0_hat",
    "k1_hat",
    "linear_evolve",
    "duhamel_step",
    "ScenarioConfig",
    "SolutionHistory",
    "StepRecord",
    "RunStatus",
    "Phase",
    "default_dt",
    "suggested_half_length",
    "make_initial_data",
    "memory_estimate",
    "detect_blowup",
    "run",
    "ExponentSet",
    "DataTraits",
    "RegimeVerdict",
    "compute_exponents",
    "classify",
    "blow_up_scaling_exponents",
    "DecayFit",
    "TestFunctionParams",
    "psi_radial",
    "energy_W_from_norm",
    "exterior_energy",
    "fit_decay_samples",
    "cui_bound_check",
    "gagliardo_ratio",
    "WeakPairing",
    "weak_residual",
    "__version__",
]
