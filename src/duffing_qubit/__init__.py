"""Qubit relaxation mediated by a resonantly driven, damped Duffing oscillator.

The library computes, for a qubit coupled to a bifurcation-amplifier-style
nonlinear oscillator latched in one of its forced-vibration states:

- the steady states (attractors) and their bistability window,
- the quadrature fluctuation spectra around an attractor, with the
  quasienergy resonance structure,
- golden-rule qubit decay/excitation rates, Bloch-Redfield times, and the
  effective qubit temperature, in the resonant, two-quantum, nonresonant,
  and linear-coupling regimes.
"""

from .attractors import (
    BifurcationInfo,
    Branch,
    Branches,
    MarginalAttractorError,
    bifurcation_betas,
    drift_matrix,
    solve_branches,
)
from .fluctuations import (
    spectra,
    spectra_from_matrix,
    stationary_covariance,
    two_quantum_spectrum,
)
from .model import (
    PhysicalParams,
    ScaledParams,
    bath_j,
    physical_from_scaled,
    planck,
    scale_params,
)
from .rates import (
    NearResonanceError,
    QubitParams,
    RateResult,
    bloch_redfield,
    c_gamma,
    dephasing_g_zero,
    effective_temperature,
    gamma_linear_nonresonant,
    gamma_linear_resonant,
    gamma_nonresonant,
    gamma_nonresonant_2q,
    gamma_resonant_1q,
    gamma_resonant_2q,
    gamma_total_resonant,
    log_rate_ratio,
    resonant_1q_scaled,
    validity_flags,
)

__version__ = "0.1.0"

__all__ = [
    "BifurcationInfo",
    "Branch",
    "Branches",
    "MarginalAttractorError",
    "NearResonanceError",
    "PhysicalParams",
    "QubitParams",
    "RateResult",
    "ScaledParams",
    "bath_j",
    "bifurcation_betas",
    "bloch_redfield",
    "c_gamma",
    "dephasing_g_zero",
    "drift_matrix",
    "effective_temperature",
    "gamma_linear_nonresonant",
    "gamma_linear_resonant",
    "gamma_nonresonant",
    "gamma_nonresonant_2q",
    "gamma_resonant_1q",
    "gamma_resonant_2q",
    "gamma_total_resonant",
    "log_rate_ratio",
    "physical_from_scaled",
    "planck",
    "resonant_1q_scaled",
    "scale_params",
    "solve_branches",
    "spectra",
    "spectra_from_matrix",
    "stationary_covariance",
    "two_quantum_spectrum",
    "validity_flags",
]
