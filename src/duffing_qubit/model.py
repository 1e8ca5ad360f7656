"""Lab-frame oscillator/bath parameters and rotating-frame scaling.

Conventions
-----------
- Soft Duffing oscillator (positive quartic coefficient ``gamma_s``) driven
  below resonance: ``delta_omega = omega_f - omega_0 < 0``.  Bistability of
  the forced vibrations requires this sign combination.
- All frequencies in rad/s, temperature in K, SI units throughout this
  module.  The attractor and fluctuation modules work in dimensionless
  rotating-frame units where frequencies are measured in units of
  ``|delta_omega|``; this module produces those dimensionless parameters.
- ``lambda_s`` acts as the effective Planck constant of the scaled rotating
  frame; the semiclassical description assumes ``lambda_s * (2*n_bar + 1)``
  is small.
- The domain rules of the scaled parameters ``beta``, ``kappa_scaled``,
  ``lambda_s`` and ``n_bar`` live here, once, for every module that takes
  them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PhysicalParams",
    "ScaledParams",
    "planck",
    "scale_params",
    "physical_from_scaled",
    "bath_j",
]

# exact SI-2019 values (the Planck constant h and the Boltzmann constant)
hbar = 6.62607015e-34 / (2.0 * math.pi)  # J s
k_B = 1.380649e-23                       # J/K


def _check_lambda_s(lambda_s: float) -> None:
    if not 0.0 < lambda_s < math.inf:
        raise ValueError(f"lambda_s must be finite and positive, got {lambda_s}")


def _check_kappa_scaled(kappa_scaled: float) -> None:
    if not 0.0 < kappa_scaled < math.inf:
        raise ValueError(f"kappa_scaled must be finite and positive, got {kappa_scaled}")


def _check_n_bar(n_bar: float) -> None:
    if not 0.0 <= n_bar < math.inf:
        raise ValueError(f"n_bar must be finite and non-negative, got {n_bar}")


def _check_beta(beta: float | np.ndarray) -> np.ndarray:
    """``beta`` as a flat float array; ValueError for a negative or
    non-finite value."""
    flat = np.asarray(beta, dtype=float).reshape(-1)
    ok = (flat >= 0.0) & (flat < math.inf)
    if np.count_nonzero(ok) < flat.size:
        raise ValueError(f"beta must be finite and non-negative, got {flat[~ok][0]}")
    return flat


def planck(omega: float | np.ndarray, temperature: float) -> float | np.ndarray:
    """Bose occupation number 1/(exp(hbar*omega/kB*T) - 1).

    ``omega: float | ndarray``; a scalar gives a float, an array an array of
    its shape.  Returns exactly 0.0 at T = 0, and where hbar*omega/kB*T is
    too large for the exponential to be represented.  Each value is
    ``1.0 / np.expm1`` of its argument, so a sweep has the bits of one call
    per point: inf where the argument is subnormal, and FloatingPointError
    where it underflows to 0.
    """
    w = np.asarray(omega, dtype=float)
    if not np.all(w > 0.0):
        raise ValueError(f"planck requires omega > 0, got {w[~(w > 0.0)].flat[0]}")
    if not 0.0 <= temperature < math.inf:
        raise ValueError(f"temperature must be finite and non-negative, got {temperature}")
    if temperature == 0.0:
        return 0.0 if w.ndim == 0 else np.zeros(w.shape)
    x = hbar * w / (k_B * temperature)
    # 1 / expm1(x) is 0 where expm1 overflows and inf at a subnormal x, and
    # has no value at 0
    with np.errstate(over="ignore", divide="raise"):
        n = 1.0 / np.expm1(x)
    return float(n) if w.ndim == 0 else n


@dataclass(frozen=True)
class PhysicalParams:
    """Lab-frame constants of the driven oscillator and its bath."""

    m: float            # oscillator mass (kg)
    omega_0: float      # eigenfrequency (rad/s)
    omega_f: float      # drive frequency (rad/s)
    gamma_s: float      # quartic (Duffing) coefficient (J/m^4), soft case > 0
    f_0: float          # drive amplitude (N)
    kappa: float        # energy damping rate (rad/s)
    temperature: float  # bath temperature (K)
    omega_c: float      # Ohmic cutoff (rad/s)

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.m <= 0:
            raise ValueError("mass must be positive")
        if self.omega_0 <= 0 or self.omega_f <= 0:
            raise ValueError("frequencies must be positive")
        if self.gamma_s <= 0:
            raise ValueError("gamma_s must be positive (soft oscillator)")
        if self.f_0 < 0:
            raise ValueError("drive amplitude must be non-negative")
        if self.kappa <= 0:
            raise ValueError("damping must be positive")
        if self.temperature < 0:
            raise ValueError("temperature must be non-negative")
        if self.omega_c <= self.omega_0:
            raise ValueError("bath cutoff must exceed omega_0")
        if self.delta_omega >= 0:
            raise ValueError(
                "drive must be below resonance (omega_f < omega_0) for the "
                "soft oscillator to be bistable"
            )

    @property
    def delta_omega(self) -> float:
        """Signed detuning omega_f - omega_0 (negative here)."""
        return self.omega_f - self.omega_0

    @property
    def detuning(self) -> float:
        """|delta_omega|, the frequency scale of the rotating frame."""
        return abs(self.delta_omega)


@dataclass(frozen=True)
class ScaledParams:
    """Dimensionless rotating-frame parameters derived from PhysicalParams.

    Refuses (ValueError) a ``beta`` or ``n_bar`` that is negative or not
    finite, and a ``kappa_scaled``, ``lambda_s``, ``scale`` or ``c_res`` that
    is not finite and positive, with the messages of this module's domain
    checks.
    """

    beta: float          # dimensionless drive intensity (squared field amplitude)
    kappa_scaled: float  # kappa / |delta_omega|
    lambda_s: float      # effective Planck constant of the scaled dynamics
    n_bar: float         # Planck occupation at the drive frequency
    scale: float         # |delta_omega| (rad/s), converts scaled frequencies to SI
    c_res: float         # resonant amplitude scale (m): x = c_res * r

    def __post_init__(self) -> None:
        _check_beta(self.beta)
        _check_kappa_scaled(self.kappa_scaled)
        _check_lambda_s(self.lambda_s)
        _check_n_bar(self.n_bar)
        for name in ("scale", "c_res"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {value}")

    @property
    def fluctuation_area(self) -> float:
        """lambda_s*(2*n_bar + 1): squared width of the fluctuation cloud."""
        return self.lambda_s * (2.0 * self.n_bar + 1.0)


@functools.lru_cache(maxsize=1)
def scale_params(p: PhysicalParams) -> ScaledParams:
    """Convert lab-frame parameters to the dimensionless rotating frame.

    beta     = 3 gamma_s f_0^2 / [2 (m omega_f |delta_omega|)^3]
    lambda_s = 3 hbar gamma_s / (2 m^2 omega_f^2 |delta_omega|)
    c_res    = sqrt(2 m omega_f |delta_omega| / (3 gamma_s))

    Raises ValueError, naming the scale and the SI inputs, when lambda_s or
    c_res underflows to 0 or any of the three overflows.  beta = 0 is kept:
    it is the f_0 -> 0 limit, also when f_0**2 underflows.  The last result
    is kept, so that a command and the rate functions it calls with one
    frozen ``p`` form it once.
    """
    d = p.detuning
    scales = {}
    try:  # a denominator that underflows to 0 or a power that overflows raises
        scales["beta"] = 3.0 * p.gamma_s * p.f_0**2 / (2.0 * (p.m * p.omega_f * d) ** 3)
        scales["lambda_s"] = 3.0 * hbar * p.gamma_s / (2.0 * p.m**2 * p.omega_f**2 * d)
        scales["c_res"] = math.sqrt(2.0 * p.m * p.omega_f * d / (3.0 * p.gamma_s))
    except ArithmeticError:  # the scale being computed is out of range
        scales[("beta", "lambda_s", "c_res")[len(scales)]] = math.inf
    for name, value in scales.items():
        if not (0.0 < value < math.inf or name == "beta" and value == 0.0):
            raise ValueError(f"arithmetic fault: {name} underflows to 0 or overflows for "
                             f"m={p.m!r}, omega_f={p.omega_f!r}, omega_0={p.omega_0!r}, "
                             f"gamma_s={p.gamma_s!r}, f_0={p.f_0!r}")
    return ScaledParams(kappa_scaled=p.kappa / d, n_bar=planck(p.omega_f, p.temperature),
                        scale=d, **scales)


def physical_from_scaled(
    beta: float,
    kappa_scaled: float,
    lambda_s: float,
    n_bar: float,
    detuning: float = 1.0,
    omega_f_ratio: float = 100.0,
    m: float = 1.0,
) -> PhysicalParams:
    """Lab-frame parameters realizing the given dimensionless targets.

    Inverse of :func:`scale_params` up to the free choices of the detuning
    scale, mass and the drive-to-detuning ratio ``omega_f = omega_f_ratio *
    detuning``; the bath cutoff is ``omega_c = 1e3 * omega_f``.
    The bath temperature is fixed by requiring the Planck occupation at the
    drive frequency to equal ``n_bar``.  Raises ValueError for a negative or
    non-finite ``beta``, a ``kappa_scaled`` or ``lambda_s`` that is not
    finite and positive, and an ``n_bar`` that is not finite and positive.
    """
    _check_beta(beta)
    _check_kappa_scaled(kappa_scaled)
    _check_lambda_s(lambda_s)
    if not 0.0 < n_bar < math.inf:
        raise ValueError(f"n_bar must be finite and positive to fix a finite temperature, "
                         f"got {n_bar}")
    omega_f = omega_f_ratio * detuning
    omega_0 = omega_f + detuning
    gamma_s = 2.0 * lambda_s * m**2 * omega_f**2 * detuning / (3.0 * hbar)
    f_0 = math.sqrt(2.0 * beta * (m * omega_f * detuning) ** 3 / (3.0 * gamma_s))
    temperature = hbar * omega_f / (k_B * math.log(1.0 + 1.0 / n_bar))
    return PhysicalParams(
        m=m,
        omega_0=omega_0,
        omega_f=omega_f,
        gamma_s=gamma_s,
        f_0=f_0,
        kappa=kappa_scaled * detuning,
        temperature=temperature,
        omega_c=1e3 * omega_f,
    )


def bath_j(p: PhysicalParams, omega: float | np.ndarray) -> float | np.ndarray:
    """Ohmic spectral density of the oscillator's bath, weighted with its
    coupling: J(omega) = 2 hbar m kappa omega for 0 < omega < omega_c, zero
    otherwise (hard cutoff).  A float for a scalar ``omega``, otherwise an
    array of its shape.
    """
    w = np.asarray(omega, dtype=float)
    out = np.where((w > 0.0) & (w < p.omega_c), 2.0 * hbar * p.m * p.kappa * w, 0.0)
    if w.ndim == 0:
        return float(out)
    return out
