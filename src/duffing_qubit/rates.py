"""Golden-rule qubit relaxation and excitation rates in all regimes.

The qubit couples to the driven oscillator quadratically (frequency-shift
coupling, rate prefactor ``C_gamma``) or linearly (Jaynes-Cummings-like,
prefactor from the coupling energies ``v_x``/``v_z``).  Each channel yields
the pair (gamma_e, gamma_g): decay of the excited state and excitation out
of the ground state.  In every channel gamma_g follows from gamma_e by
interchanging the thermal weights n_bar + 1 <-> n_bar of the bath factors;
detailed balance holds at the open bath frequency, not at the qubit
frequency, so the stationary qubit population defines an effective
temperature that can exceed the bath temperature, diverge, or turn negative
(population inversion).

Regimes (selected explicitly by the caller; validity conditions are
reported as flags, never auto-switched):

- resonant one-quantum: |omega_q - 2 omega_f| << omega_f, rate carries the
  squared vibration amplitude u and the quasienergy resonance structure;
- resonant two-quantum: |omega_q - 2 omega_0| << omega_0, amplitude
  independent;
- nonresonant (one- and two-quantum): bath density of states probed at the
  combination frequencies; matches the resonant forms in the overlap range;
- linear coupling, resonant and nonresonant.

Every rate function takes the qubit splitting ``QubitParams.w`` as a float
or an array: a sweep over the qubit frequency is one call, whose results
have the shape of ``omega_q``.  A rate function takes only the qubit, the
oscillator ``PhysicalParams`` and, in a regime that needs it, the latched
steady state as two numbers, ``u`` and ``nu_scaled``: one branch of
:func:`duffing_qubit.attractors.solve_branches` at the ``beta`` of
``scale_params(p)``.  The scaled parameters, n_bar and the Ohmic bath all
follow from ``p``.  A marginal (``nu_scaled`` = 0) or absent (NaN) steady
state raises MarginalAttractorError.  The terms that depend only on the
steady state and the oscillator (the dephasing weight, the scaled
parameters, the Bose factors at omega_f and omega_0) are computed once per
call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .attractors import Branch, MarginalAttractorError, _drift, _pick_required, _quadratures
from .fluctuations import (
    spectra,
    stationary_covariance,
    two_quantum_spectrum,
)
from .model import (
    PhysicalParams,
    ScaledParams,
    bath_j,
    hbar,
    k_B,
    physical_from_scaled,
    planck,
    scale_params,
)

__all__ = [
    "QubitParams",
    "RateResult",
    "NearResonanceError",
    "c_gamma",
    "resonant_1q_scaled",
    "gamma_resonant_1q",
    "gamma_resonant_2q",
    "gamma_total_resonant",
    "gamma_nonresonant",
    "gamma_nonresonant_2q",
    "gamma_linear_resonant",
    "gamma_linear_nonresonant",
    "effective_temperature",
    "log_rate_ratio",
    "bloch_redfield",
    "dephasing_g_zero",
    "validity_flags",
    "match_report",
]


class NearResonanceError(Exception):
    """A combination frequency sits too close to the oscillator resonance.

    The perturbative nonresonant formulas have (omega_0^2 - omega_i^2)^-2
    denominators; within ~kappa of resonance they are invalid and the
    resonant routines must be used instead.
    """


FLAG_RESONANT_PUMPING = "ResonantPumping"
FLAG_SEMICLASSICAL = "SemiclassicalBreakdown"
FLAG_WEAK_DAMPING = "WeakDampingViolated"
FLAG_RWA = "RWAViolated"
FLAG_QUBIT_FASTER = "QubitFasterThanOscillator"
FLAG_MODERATE_T = "ModerateTemperatureViolated"
FLAG_TWO_QUANTUM = "TwoQuantumComparable"

# a flag is raised when its ratio meets or exceeds the threshold
FLAG_THRESHOLDS = {
    FLAG_RESONANT_PUMPING: 0.1,
    FLAG_SEMICLASSICAL: 0.1,
    FLAG_WEAK_DAMPING: 1.0,
    FLAG_RWA: 0.1,
    FLAG_QUBIT_FASTER: 1.0,
    FLAG_MODERATE_T: 0.1,
    FLAG_TWO_QUANTUM: 1.0,
}


@dataclass(frozen=True)
class QubitParams:
    """Qubit constants; energies hbar*w/2 along z and hbar*delta/2 along x.

    ``w: float | ndarray``; an array of splittings is a sweep, which every
    rate function evaluates in one call.  The other fields are scalars.
    ``omega_q``, the transition frequency sqrt(w^2 + delta^2), is computed
    once per instance with ``np.hypot``: a float for a scalar ``w``,
    otherwise an array of its shape, whose values have the bits of a qubit
    built on each ``w`` alone.
    """

    w: float | np.ndarray  # dominant splitting (rad/s)
    delta: float           # transverse term (rad/s); |delta| << w in practice
    delta_q: float = 0.0   # oscillator frequency shift from the quadratic coupling (rad/s)
    v_x: float = 0.0       # linear coupling energy on sigma_x (J/m)
    v_z: float = 0.0       # linear coupling energy on sigma_z (J/m)
    omega_q: float | np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if np.ndim(self.w):
            object.__setattr__(self, "w", np.asarray(self.w, dtype=float))
        if not np.all(np.greater(self.w, 0.0) & np.isfinite(self.w)):
            raise ValueError("qubit splitting w must be positive and finite")
        for name in ("delta", "delta_q", "v_x", "v_z"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"qubit {name} must be finite")
        with np.errstate(over="ignore"):  # inf past the largest float, as math.hypot
            object.__setattr__(self, "omega_q",
                               _scalar_or_array(np.hypot(self.w, self.delta)))


@dataclass(frozen=True)
class RateResult:
    """Rates for one channel, with per-channel Bloch-Redfield times.

    The numeric fields and the ``ratios`` values have the shape of
    ``omega_q``: floats for a scalar qubit frequency.  ``flags`` follows
    from ``ratios`` on first use.
    """

    gamma_e: float | np.ndarray    # excited-state decay rate (1/s)
    gamma_g: float | np.ndarray    # ground-state excitation rate (1/s)
    regime: str
    t1: float | np.ndarray         # 1/(gamma_e + gamma_g) (s)
    t_eff: float | np.ndarray      # effective temperature (K, signed, may be inf)
    t2: float | np.ndarray | None = None  # dephasing time when the dc channel is available
    gamma_0: float | np.ndarray | None = None  # rate scale hbar*C_gamma*u/(6*gamma_s)
    gamma_e_scaled: float | np.ndarray | None = None  # gamma_e / gamma_0
    gamma_g_scaled: float | np.ndarray | None = None
    ratios: dict[str, float | np.ndarray] = field(default_factory=dict)

    @cached_property
    def flags(self) -> frozenset[str] | tuple[frozenset[str], ...]:
        """Names of the flags whose ratio is finite and meets its threshold.

        A frozenset when every ratio is a scalar, otherwise a tuple of
        frozensets, one per point of their broadcast shape in C order.
        """
        codes, sets = _flag_codes(self.ratios)
        if not codes.ndim:
            return sets[codes]
        return tuple(map(sets.__getitem__, codes.ravel().tolist()))


def _scalar_or_array(x):
    # a 0-d value as a Python float, an array as it is
    return float(x) if np.ndim(x) == 0 else x


def c_gamma(q: QubitParams, m: float, omega_0: float) -> float | np.ndarray:
    """Golden-rule prefactor of the quadratic coupling, (m w0 Dq d / hbar wq)^2 / 2.

    Has the shape of ``q.omega_q``.
    """
    return 0.5 * (m * omega_0 * q.delta_q * q.delta / (hbar * q.omega_q)) ** 2


def _lifetime(rate):
    """1/rate, the one inverse of a total rate into a time: inf where the
    rate is 0, and where it is so small that the inverse overflows."""
    with np.errstate(divide="ignore", over="ignore"):
        return np.where(rate == 0.0, math.inf, np.divide(1.0, rate))[()]


def log_rate_ratio(
    gamma_e: float | np.ndarray, gamma_g: float | np.ndarray
) -> float | np.ndarray:
    """ln(gamma_e/gamma_g), NaN where either rate is <= 0 or NaN.

    ``hbar*omega_q / (kB * log_rate_ratio)`` is the effective temperature,
    and its reciprocal the scaled one, kB*T_eff/(hbar*omega_q).  Each value
    is ``np.log`` of the ratio, so a sweep gives the same bits as one call
    per point; where the ratio under- or overflows, ln(gamma_e) - ln(gamma_g).
    Floats or arrays; the result has their broadcast shape, a float when
    both are scalars.
    """
    ge, gg = np.asarray(gamma_e, dtype=float), np.asarray(gamma_g, dtype=float)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ratio = np.where((ge > 0.0) & (gg > 0.0), ge / gg, math.nan)
    split = (ratio == 0.0) | (ratio == math.inf)
    if not split.any():
        return _scalar_or_array(np.log(ratio))
    ln_e, ln_g = (np.log(np.where(split, x, 1.0)) for x in (ge, gg))
    ratio = np.log(np.where(split, 1.0, ratio))
    return _scalar_or_array(np.where(split, ln_e - ln_g, ratio))


def effective_temperature(
    gamma_e: float | np.ndarray,
    gamma_g: float | np.ndarray,
    omega_q: float | np.ndarray,
) -> float | np.ndarray:
    """T_eff = hbar*omega_q / [kB * ln(gamma_e/gamma_g)] (K, signed).

    Infinite when the rates balance; +0 in the ground-state-only limit
    gamma_g = 0; negative under population inversion gamma_g > gamma_e.
    The arguments are floats or arrays; the result has their broadcast
    shape, a float when all are scalars.  The log is
    :func:`log_rate_ratio`.  The special cases, in order of precedence:
    NaN where both rates are 0, +0 where only gamma_g is, -0 where only
    gamma_e is, and inf where they are equal.
    """
    ge, gg, wq = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (gamma_e, gamma_g, omega_q))
    )
    if np.any(ge < 0.0) or np.any(gg < 0.0):
        raise ValueError("rates must be non-negative")
    with np.errstate(divide="ignore", invalid="ignore"):
        t_eff = hbar * wq / (k_B * np.asarray(log_rate_ratio(ge, gg)))
    return _scalar_or_array(_teff_limits(ge, gg, t_eff))


def _teff_limits(ge: np.ndarray, gg: np.ndarray, t_eff: np.ndarray) -> np.ndarray:
    """``t_eff``, an effective temperature formed from ln(ge/gg), with the
    special cases of :func:`effective_temperature` put in: NaN where both
    rates are 0, +0 where only ``gg`` is, -0 where only ``ge`` is, and inf
    where they are equal.  The scaled ``teff_star`` of the resonant-1q
    tables takes the same cases."""
    no_e = ge == 0.0
    out = np.where(ge == gg, math.inf, t_eff)
    out = np.where(no_e, -0.0, out)
    return np.where(gg == 0.0, np.where(no_e, math.nan, 0.0), out)


def bloch_redfield(
    gamma_e: float | np.ndarray,
    gamma_g: float | np.ndarray,
    q: QubitParams,
    p: PhysicalParams,
    dephasing_g0: float,
) -> tuple[float | np.ndarray, float | np.ndarray]:
    """(T1, T2) from the channel rates and the zero-frequency noise weight.

    T1^-1 = gamma_e + gamma_g;
    T2^-1 = T1^-1 / 2 + 2 C_gamma (w/delta)^2 * dephasing_g0.

    The rates are floats or arrays of the shape of ``q.omega_q``, and so
    are T1 and T2.
    """
    if np.any(np.less(gamma_e, 0.0)) or np.any(np.less(gamma_g, 0.0)) or dephasing_g0 < 0.0:
        raise ValueError("rates and dephasing weight must be non-negative")
    if q.delta == 0.0 and dephasing_g0 != 0.0:
        raise ValueError("delta = 0 makes the dephasing prefactor divergent")
    rate2 = 0.5 * (gamma_e + gamma_g)
    if dephasing_g0 != 0.0:
        rate2 = rate2 + 2.0 * c_gamma(q, p.m, p.omega_0) * (q.w / q.delta) ** 2 * dephasing_g0
    t1, t2 = _lifetime(np.add(gamma_e, gamma_g)), _lifetime(rate2)
    return _scalar_or_array(t1), _scalar_or_array(t2)


def dephasing_g_zero(u: float, s: ScaledParams) -> float:
    """Zero-frequency weight of the squared-displacement noise (m^4 s).

    Leading (one-quantum) dc channel of the steady state ``u`` at the drive
    ``s.beta``: the slow part of 2*x_a*dx projects the quadrature noise onto
    v = (Q_a, P_a), so the weight is c_res^4 * v.Re N(0).v / |delta_omega|.
    K and C are real, so Re N(0) = -K^-1 C = -adj K C / det K and no solve
    is made.  Two-quantum dc contributions are smaller by a factor lambda_s
    and neglected.  It does not depend on the qubit, so a sweep over the
    qubit frequency computes it once.  Raises MarginalAttractorError where
    ``u`` has no strictly stable drift (a marginal or absent steady state).
    """
    v = np.array(_quadratures(u, s.beta, s.kappa_scaled))
    k = _drift(u, *v, s.kappa_scaled)
    cov = stationary_covariance(k, s.lambda_s, s.kappa_scaled, s.n_bar)
    (a, b), (c, d) = k
    adj = np.array([[d, -b], [-c, a]])
    weight = -float(v @ adj @ cov @ v) / (a * d - b * c)
    return s.c_res**4 * max(weight, 0.0) / s.scale


def validity_flags(
    q: QubitParams,
    p: PhysicalParams,
    s: ScaledParams,
    u: float | None,
    nu_scaled: float | None,
    t1: float | np.ndarray,
    t2: float | np.ndarray | None,
) -> dict[str, float | np.ndarray]:
    """Dimensionless validity ratios; see FLAG_THRESHOLDS for the limits.

    - ResonantPumping: saturation parameter of the coherent drive at the
      qubit, Omega^2 T1 T2 / (1 + detuning^2 T2^2) with the Rabi frequency
      Omega = m omega_0 Dq delta c_res^2 u / (hbar omega_q);
    - SemiclassicalBreakdown: fluctuation area lambda_s (2 n_bar + 1);
    - WeakDampingViolated: kappa_scaled / nu_scaled;
    - RWAViolated: max(|delta_omega|, kappa) / omega_0;
    - QubitFasterThanOscillator: (1/T1) / kappa.

    ``u`` and ``nu_scaled`` are the steady state, None in a regime that has
    none; ``t1`` and ``t2`` are floats or arrays of the shape of
    ``q.omega_q``.  ResonantPumping is NaN where T1 or T2 is infinite, and
    QubitFasterThanOscillator where T1 is infinite or zero.
    """
    ratios: dict[str, float | np.ndarray] = {}
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if u is not None and t2 is not None:
            omega_rabi = (
                p.m * p.omega_0 * q.delta_q * q.delta * s.c_res**2 * u
                / (hbar * q.omega_q)
            )
            det = q.omega_q - 2.0 * p.omega_f
            pumping = omega_rabi**2 * t1 * t2 / (1.0 + det**2 * t2**2)
            ratios[FLAG_RESONANT_PUMPING] = np.where(
                np.isfinite(t1) & np.isfinite(t2), pumping, math.nan)
        ratios[FLAG_SEMICLASSICAL] = s.fluctuation_area
        if nu_scaled is not None and nu_scaled > 0.0:
            ratios[FLAG_WEAK_DAMPING] = s.kappa_scaled / nu_scaled
        ratios[FLAG_RWA] = max(s.scale, p.kappa) / p.omega_0
        faster = np.divide(1.0, np.multiply(t1, p.kappa))
        ratios[FLAG_QUBIT_FASTER] = np.where(
            np.isfinite(t1) & np.greater(t1, 0.0), faster, math.nan)
    return {name: _scalar_or_array(value) for name, value in ratios.items()}


def _raised(name: str, ratio: float | np.ndarray) -> np.ndarray:
    """Where the validity ratio of the flag ``name`` is finite and meets its
    threshold: the one rule by which a flag is raised."""
    return np.isfinite(ratio) & np.greater_equal(ratio, FLAG_THRESHOLDS[name])


def _flag_codes(ratios: dict[str, float | np.ndarray]) -> tuple[np.ndarray, list[frozenset[str]]]:
    """The distinct sets of raised flags (``RateResult.flags``) and, per
    point of the ratios' broadcast shape, the index of its set."""
    names = list(ratios)
    shape = np.broadcast_shapes(*(np.shape(v) for v in ratios.values()))
    code = np.zeros(shape, dtype=np.int64)
    for bit, name in enumerate(names):
        code |= _raised(name, ratios[name]).astype(np.int64) << bit
    found = np.unique(code)
    return np.searchsorted(found, code), [
        frozenset(name for bit, name in enumerate(names) if c >> bit & 1) for c in found.tolist()]


def _rate_result(regime, q, p, s, u, nu, gamma_e, gamma_g, dephasing=False, ratios=None,
                 **extra) -> RateResult:
    """The one assembly of a channel's (gamma_e, gamma_g) into a RateResult.

    T1; T2 when ``dephasing`` is set and delta != 0, from the zero-frequency
    weight of the steady state ``u``; the ``validity_flags`` ratios followed by
    the regime's own ``ratios``; T_eff and the raised flags.  Every numeric
    field takes the shape of ``q.omega_q``.
    """
    if dephasing and q.delta != 0.0:
        t1, t2 = bloch_redfield(gamma_e, gamma_g, q, p, dephasing_g_zero(u, s))
    else:
        t1, t2 = _lifetime(np.add(gamma_e, gamma_g)), None
    shape = np.shape(q.omega_q)

    def shaped(x):
        if x is None:
            return None
        if not shape:
            return float(x)
        return x if np.shape(x) == shape else np.full(shape, x)

    ratios = {**validity_flags(q, p, s, u, nu, t1, t2), **(ratios or {})}
    ratios = {name: shaped(value) for name, value in ratios.items()}
    t_eff = effective_temperature(gamma_e, gamma_g, q.omega_q)
    fields = dict(gamma_e=gamma_e, gamma_g=gamma_g, t1=t1, t2=t2, t_eff=t_eff, **extra)
    return RateResult(
        regime=regime,
        ratios=ratios,
        **{name: shaped(value) for name, value in fields.items()},
    )


def _require_stable(nu_scaled: float) -> None:
    # nu = 0 is a marginal steady state, by the rule of solve_branches and
    # stationary_covariance, and NaN an absent one
    if not nu_scaled > 0.0:
        raise MarginalAttractorError(
            f"steady state with nu_scaled={nu_scaled!r} is outside the linearized theory")


def resonant_1q_scaled(
    omega_rel: float | np.ndarray,
    u: float | np.ndarray,
    nu_scaled: float | np.ndarray,
    kappa_scaled: float,
    n_bar: float,
) -> tuple[float | np.ndarray, float | np.ndarray]:
    """(gamma_e, gamma_g)/gamma_0 for the resonant one-quantum channel.

    omega_rel is the scaled detuning (omega_q - 2*omega_f)/|delta_omega|.
    It may be an array over a detuning sweep, or ``u`` and ``nu_scaled``
    arrays over a drive-intensity sweep; floats come back for scalars.
    Equal to the closed-form :func:`spectra` with the lambda_s factor
    stripped:

        gamma_e/gamma_0 = 2 k [(n+1)((w-(2u-1))^2 + k^2) + n u^2] / D(w).
    """
    return spectra(omega_rel, u, nu_scaled, kappa_scaled, 1.0, n_bar)


def _resonant_1q_columns(omega_rel, u, nu, kappa: float, n_bar: float) -> dict:
    """The u, nu, gamma_e_scaled, gamma_g_scaled, ln_ratio, teff_star and
    flags columns of the resonant one-quantum channel, by name in that
    order, as the ``teff`` table prints them (``rates`` leaves out ln_ratio).

    ``u`` and ``nu`` are one branch of ``solve_branches``: arrays over a
    drive sweep, or the scalars of a stable or absent branch over a detuning
    sweep ``omega_rel``.  A row without a stable attractor has NaN cells and
    the flag "absent" (NaN) or "marginal" (nu = 0, the rule of
    ``solve_branches``).  teff_star is kB*T_eff/(hbar*omega_q) = 1/ln_ratio,
    with the special cases of :func:`effective_temperature`, and the
    weak-damping flag is raised by the rule of ``RateResult.flags``.  The
    flags are a pair (codes, labels), with a 0-d codes array for a scalar
    branch.
    """
    absent, marginal = np.isnan(u), np.equal(nu, 0.0)
    if np.ndim(u):
        u, nu = np.where(marginal, np.nan, u), np.where(marginal, np.nan, nu)
    # one call on every row: a NaN row stays NaN, and a bad n_bar is refused
    # even when no row is stable
    ge, gg = resonant_1q_scaled(omega_rel, u, nu, kappa, n_bar)
    ln_ratio = log_rate_ratio(ge, gg)
    with np.errstate(divide="ignore", invalid="ignore"):
        teff_star = _teff_limits(ge, gg, np.divide(1.0, ln_ratio))
        weak = _raised(FLAG_WEAK_DAMPING, kappa / np.asarray(nu))
    # a scalar u, nu or flag is one cell of every row (emit_table)
    flags = np.where(absent, 3, np.where(marginal, 2, weak)), _FLAG_LABELS
    return {"u": u, "nu": nu, "gamma_e_scaled": ge, "gamma_g_scaled": gg,
            "ln_ratio": ln_ratio, "teff_star": teff_star, "flags": flags}


_FLAG_LABELS = ("", FLAG_WEAK_DAMPING, "marginal", "absent")  # by flag code


def _resonant_1q_rates(q: QubitParams, p: PhysicalParams, u, nu_scaled, s: ScaledParams):
    # (gamma_e, gamma_g, gamma_0, f_e, f_g) of the one-quantum channel, with
    # f_e, f_g the spectra at the detuning from 2 omega_f
    f_e, f_g = spectra((q.omega_q - 2.0 * p.omega_f) / s.scale, u, nu_scaled,
                       s.kappa_scaled, s.lambda_s, s.n_bar)
    pref = (p.m * p.omega_f) ** 2 * s.scale / (9.0 * p.gamma_s**2) * u
    cg = c_gamma(q, p.m, p.omega_0)
    return cg * pref * f_e, cg * pref * f_g, hbar * cg * u / (6.0 * p.gamma_s), f_e, f_g


def gamma_resonant_1q(
    q: QubitParams, p: PhysicalParams, u: float, nu_scaled: float
) -> RateResult:
    """One-quantum rates near resonance, |omega_q - 2 omega_f| << omega_f.

    The squared-displacement noise reduces to the quadrature spectrum scaled
    by the forced-vibration amplitude:

        Re G(omega_q) = (m^2 omega_f^2 dw^2 / 9 gamma_s^2) * u * ReN(omega_rel)

    evaluated at omega_rel = (omega_q - 2 omega_f)/|dw|, with the emission /
    absorption spectra supplying gamma_e / gamma_g.  ``omega_q`` (through
    ``q.w``) is a float or an array.
    """
    _require_stable(nu_scaled)
    s = scale_params(p)
    gamma_e, gamma_g, gamma_0, f_e, f_g = _resonant_1q_rates(q, p, u, nu_scaled, s)
    return _rate_result(
        "resonant-1q", q, p, s, u, nu_scaled, gamma_e, gamma_g, dephasing=True,
        gamma_0=gamma_0, gamma_e_scaled=f_e / s.lambda_s, gamma_g_scaled=f_g / s.lambda_s,
    )


def _resonant_2q_rates(q: QubitParams, p: PhysicalParams, n_bar: float):
    # (gamma_e, gamma_g) of the two-quantum channel
    cg = c_gamma(q, p.m, p.omega_0)
    decay, excitation = two_quantum_spectrum(q.omega_q, p.omega_0, p.kappa, n_bar, p.m)
    return cg * decay, cg * excitation


def _moderate_t(p: PhysicalParams, n_bar: float) -> dict[str, float]:
    return {FLAG_MODERATE_T: hbar * n_bar * p.gamma_s / (p.m**2 * p.omega_0**2 * p.kappa)}


def gamma_resonant_2q(q: QubitParams, p: PhysicalParams) -> RateResult:
    """Two-quantum rates near omega_q = 2*omega_0, amplitude independent.

    ``omega_q`` (through ``q.w``) is a float or an array.
    """
    s = scale_params(p)
    gamma_e, gamma_g = _resonant_2q_rates(q, p, s.n_bar)
    return _rate_result("resonant-2q", q, p, s, None, None, gamma_e, gamma_g,
                        ratios=_moderate_t(p, s.n_bar))


def gamma_total_resonant(
    q: QubitParams, p: PhysicalParams, u: float, nu_scaled: float
) -> RateResult:
    """Sum of the one- and two-quantum resonant channels.

    Raises the crossover flag when the forced-vibration amplitude is
    comparable to the fluctuation cloud, u <~ lambda_s (2 n_bar + 1), where
    the two-quantum channel stops being negligible.  The T1- and T2-based
    ratios are those of the total rates.  ``omega_q`` (through ``q.w``) is a
    float or an array.
    """
    _require_stable(nu_scaled)
    s = scale_params(p)
    one_e, one_g, gamma_0, _, _ = _resonant_1q_rates(q, p, u, nu_scaled, s)
    two_e, two_g = _resonant_2q_rates(q, p, s.n_bar)
    gamma_e, gamma_g = one_e + two_e, one_g + two_g
    ratios = _moderate_t(p, s.n_bar)
    if u > 0.0:
        ratios[FLAG_TWO_QUANTUM] = s.fluctuation_area / u
    scaled = {}
    if np.any(gamma_0 != 0.0):
        with np.errstate(divide="ignore", invalid="ignore"):
            scaled = dict(gamma_e_scaled=gamma_e / gamma_0, gamma_g_scaled=gamma_g / gamma_0)
    return _rate_result(
        "resonant-total", q, p, s, u, nu_scaled, gamma_e, gamma_g, dephasing=True,
        ratios=ratios, gamma_0=gamma_0, **scaled,
    )


def _guard_denominator(p: PhysicalParams, w: np.ndarray) -> None:
    """Refuse channel frequencies within the oscillator resonance.

    ``w`` holds the channel frequencies stacked on its first axis, each
    channel a value or an array over the sweep; closed channels (omega_i
    <= 0) are exempt.  The whole sweep is checked before anything is
    computed, and the error names the first offending frequency in grid
    order, then in channel order.
    """
    w = np.moveaxis(w, 0, -1).reshape(-1)
    with np.errstate(over="ignore"):
        bad = (w > 0.0) & (np.abs(p.omega_0**2 - w**2) < 10.0 * p.kappa * p.omega_0)
    if bad.any():
        omega_i = float(w[np.argmax(bad)])
        raise NearResonanceError(
            f"combination frequency {omega_i:g} rad/s lies within the "
            "oscillator resonance; use the resonant routines"
        )


def _channel_sums(p: PhysicalParams, omegas, offsets, factors=None):
    """Sums of J(w_i) * Phi_i / (w0^2 - w_i^2)^2 over the open channels,
    with the Ohmic bath of ``p``.

    ``omegas`` holds the channel frequencies (floats or arrays over the
    sweep).  Two sums are returned, for gamma_e and for gamma_g; per
    channel, ``offsets`` and ``factors`` hold one (gamma_e, gamma_g) pair
    each, and Phi_i = (planck(w_i) + offset) * factor, the factor 1 by
    default.  Channels with w_i <= 0 carry no bath states (J = 0) and add
    nothing.  The channels are stacked once, and one ``bath_j``, one
    ``planck`` and one denominator serve the open frequencies of all of
    them; the terms are then added in channel order, from 0, so that each
    sum has the bits of adding one channel at a time.
    """
    w = np.stack(np.broadcast_arrays(*omegas))
    _guard_denominator(p, w)
    open_ = w > 0.0
    wo = w[open_]
    channel = np.nonzero(open_)[0]  # the channel of each open frequency
    off = np.asarray(offsets)[channel].T  # (gamma_e, gamma_g) rows
    fac = 1.0 if factors is None else np.asarray(factors)[channel].T
    terms = np.zeros((2, *w.shape))
    terms[:, open_] = bath_j(p, wo) * (planck(wo, p.temperature) + off) * fac / (
        (p.omega_0**2 - wo**2) ** 2)
    sums = np.zeros((2, *w.shape[1:]))
    for term in terms.swapaxes(0, 1):
        sums += term
    return sums[0][()], sums[1][()]


def _nonresonant_rates(q: QubitParams, p: PhysicalParams, u, s: ScaledParams):
    # (gamma_e, gamma_g) of the one-quantum channels at the combination
    # frequencies omega_q + omega_f, omega_q - omega_f and omega_f - omega_q
    wq, wf = q.omega_q, p.omega_f
    sum_e, sum_g = _channel_sums(
        p, (wq + wf, wq - wf, wf - wq), offsets=((1.0, 0.0), (1.0, 0.0), (0.0, 1.0))
    )
    pref = 2.0 * wf * s.scale / (3.0 * p.m * p.gamma_s) * u
    cg = c_gamma(q, p.m, p.omega_0)
    return cg * pref * sum_e, cg * pref * sum_g


def gamma_nonresonant(
    q: QubitParams, p: PhysicalParams, u: float, nu_scaled: float
) -> RateResult:
    """One-quantum rates far from resonance (|omega_q - 2 omega_0| not small).

    The qubit quantum decays into bath excitations at the combination
    frequencies omega_q +/- omega_f and omega_f - omega_q; emission channels
    carry n_bar + 1 and the absorption-assisted channel n_bar.  Since J
    vanishes at negative argument, at most one of the last two contributes.

        Re G = (2 omega_f |dw| / 3 m gamma_s) * u * sum_i J(w_i) Phi_i / (w0^2-w_i^2)^2

    Raises NearResonanceError when a channel falls within ~kappa of the
    oscillator resonance.  ``omega_q`` (through ``q.w``) is a float or an
    array.  The rates are those of ``_nonresonant_rates``, which
    :func:`match_report` reads alone.
    """
    _require_stable(nu_scaled)
    s = scale_params(p)
    gamma_e, gamma_g = _nonresonant_rates(q, p, u, s)
    return _rate_result("nonresonant", q, p, s, u, nu_scaled, gamma_e, gamma_g, dephasing=True)


def gamma_nonresonant_2q(q: QubitParams, p: PhysicalParams) -> RateResult:
    """Two-quantum rates far from resonance, for weak driving.

    The oscillator hops between neighboring levels (thermal factor at
    omega_0) while a bath quantum is created or annihilated at
    omega_i in {omega_q - omega_0, omega_0 - omega_q, omega_q + omega_0}:

        Re G = (2 hbar / m^3 omega_0) sum_i J(w_i) Phi(w_i) Phi_i / (w0^2-w_i^2)^2.

    Matches the resonant two-quantum Lorentzian for
    omega_0 >> |omega_q - 2 omega_0| >> kappa.  ``omega_q`` (through
    ``q.w``) is a float or an array.
    """
    wq, w0 = q.omega_q, p.omega_0
    n0 = planck(w0, p.temperature)
    pref = 2.0 * hbar / (p.m**3 * w0)
    cg = c_gamma(q, p.m, w0)
    sum_e, sum_g = _channel_sums(
        p, (wq - w0, w0 - wq, wq + w0),
        offsets=((1.0, 0.0), (0.0, 1.0), (1.0, 0.0)),
        factors=((n0 + 1.0, n0), (n0 + 1.0, n0), (n0, n0 + 1.0)),
    )
    return _rate_result(
        "nonresonant-2q", q, p, scale_params(p), None, None, cg * pref * sum_e, cg * pref * sum_g
    )


def _linear_coupling_sq(q: QubitParams) -> float | np.ndarray:
    # sigma_x and sigma_z couplings enter through w and delta respectively;
    # combined incoherently (the cross term depends on an eigenbasis phase
    # the rate formulas do not fix)
    return (q.v_x * q.w) ** 2 + (q.v_z * q.delta) ** 2


def gamma_linear_resonant(
    q: QubitParams, p: PhysicalParams, u: float, nu_scaled: float
) -> RateResult:
    """Linear-coupling rates near omega_q = omega_f.

    gamma_e = (V_x w / hbar omega_q)^2 (m omega_f |dw| / 3 gamma_s)
              * ReN_emission((omega_q - omega_f)/|dw|) / |dw|

    (V_x w -> V_z delta for sigma_z coupling).  No forced-amplitude
    prefactor, but the spectra still distinguish the attractors through u
    and the quasienergy gap.  ``omega_q`` (through ``q.w``) is a float or an
    array.
    """
    _require_stable(nu_scaled)
    s = scale_params(p)
    d = s.scale
    f_e, f_g = spectra((q.omega_q - p.omega_f) / d, u, nu_scaled, s.kappa_scaled,
                       s.lambda_s, s.n_bar)
    pref = (
        _linear_coupling_sq(q)
        / (hbar * q.omega_q) ** 2
        * (p.m * p.omega_f * d / (3.0 * p.gamma_s))
        / d
    )
    return _rate_result("linear-resonant", q, p, s, u, nu_scaled, pref * f_e, pref * f_g)


def gamma_linear_nonresonant(q: QubitParams, p: PhysicalParams) -> RateResult:
    """Linear-coupling rates far from the oscillator resonance.

    A single bath frequency omega_q is probed, so detailed balance holds
    and T_eff = T exactly:

        gamma_e = 2 (V_x w / hbar m omega_q)^2 J(omega_q) [n(omega_q)+1]
                  / (omega_q^2 - omega_0^2)^2

    with n(omega_q) in place of n(omega_q)+1 for gamma_g.  Independent of
    the occupied attractor.  ``omega_q`` (through ``q.w``) is a float or an
    array.
    """
    wq = q.omega_q
    _guard_denominator(p, np.stack([wq]))
    pref = (
        2.0
        * _linear_coupling_sq(q)
        / (hbar * p.m * wq) ** 2
        / (wq**2 - p.omega_0**2) ** 2
        * bath_j(p, wq)
    )
    n_q = planck(wq, p.temperature)
    return _rate_result(
        "linear-nonresonant", q, p, scale_params(p), None, None, pref * (n_q + 1.0), pref * n_q
    )


# the SI regimes: regime -> (the name of its rate function, whether that
# reads a steady state); the function is looked up when called, so a
# rebinding of this module's attribute takes effect
_SI_REGIMES = {
    "resonant-2q": ("gamma_resonant_2q", False),
    "resonant-total": ("gamma_total_resonant", True),
    "nonresonant": ("gamma_nonresonant", True),
    "nonresonant-2q": ("gamma_nonresonant_2q", False),
    "linear-resonant": ("gamma_linear_resonant", True),
    "linear-nonresonant": ("gamma_linear_nonresonant", False),
}


def _si_columns(regime: str, p: PhysicalParams, omega_q: np.ndarray, branch: Branch,
                delta: float, delta_q: float, v_x: float, v_z: float) -> tuple[dict, dict]:
    """The header values and the columns of the SI rate table of
    ``regime`` (a key of ``_SI_REGIMES``) over the qubit frequencies
    ``omega_q``, as the ``rates`` command prints them.

    The header holds beta, kappa_scaled, lambda_s and nbar of
    ``scale_params(p)``, and the attractor: ``branch``'s name in a regime
    that reads a steady state, "" in one that does not.  That steady state
    is the branch of ``solve_branches`` at the beta of ``scale_params(p)``;
    an absent or marginal one raises MarginalAttractorError.  The qubit has
    the splittings w = sqrt(omega_q^2 - delta^2), so every omega_q must
    exceed |delta| (ValueError).  The columns are gamma_e, gamma_g, t1,
    t_eff and flags, by name in that order, with the flags a pair (codes,
    labels) of the distinct sets of ``RateResult.flags``, each labelled by
    its sorted names joined with "|".
    """
    name, steady = _SI_REGIMES[regime]
    s = scale_params(p)
    state = _pick_required(s.beta, s.kappa_scaled, branch) if steady else ()
    if np.any(omega_q <= abs(delta)):
        raise ValueError("swept omega_q must exceed |qubit-delta|")
    qubit = QubitParams(w=np.sqrt(omega_q**2 - delta**2), delta=delta, delta_q=delta_q,
                        v_x=v_x, v_z=v_z)
    res = globals()[name](qubit, p, *state)
    codes, sets = _flag_codes(res.ratios)
    head = {"beta": s.beta, "kappa_scaled": s.kappa_scaled, "lambda_s": s.lambda_s,
            "nbar": s.n_bar, "attractor": branch.value if steady else ""}
    return head, {"gamma_e": res.gamma_e, "gamma_g": res.gamma_g, "t1": res.t1,
                  "t_eff": res.t_eff, "flags": (codes, ["|".join(sorted(f)) for f in sets])}


def match_report(
    hierarchies: list[float],
    beta: float,
    kappa_scaled: float,
    n_bar: float,
    lambda_s: float,
) -> list[tuple[float, float, float]]:
    """Resonant-1q / nonresonant rate ratios across a frequency hierarchy.

    For each factor h a parameter set is built with
    |omega_rel| = h * max(nu, kappa_scaled, 1) and omega_f/|delta_omega| =
    h * |omega_rel|, so the overlap condition nu, kappa << |omega_q - 2
    omega_f| << omega_f deepens with h.  The large attractor at ``beta`` is
    the latched state.  Returns (h, ratio_e, ratio_g) rows; both ratios
    approach 1.  Each ratio is formed from the channel rates alone, with the
    bits of ``gamma_resonant_1q(...).gamma_e / gamma_nonresonant(...).gamma_e``
    (and the same for gamma_g); no T1, T2, T_eff or validity ratio is built.
    Raises ValueError for an empty ``hierarchies``, for a factor that is not
    finite and positive or that gives a parameter set beyond float
    arithmetic (a rate or ratio that overflows included), and where a
    nonresonant rate underflows to 0.
    """
    for h in hierarchies:  # |omega_rel| = h * max(nu, kappa, 1) needs h > 0
        if not (math.isfinite(h) and h > 0):
            raise ValueError(f"bad --hierarchies: each factor must be finite and positive, "
                             f"got {h!r}")
    if not hierarchies:
        raise ValueError("at least one hierarchy factor is required")
    rows = []
    u_beta, nu_beta = _pick_required(beta, kappa_scaled, Branch.LARGE)
    width = max(nu_beta, kappa_scaled, 1.0)
    physical_from_scaled(beta, kappa_scaled, lambda_s, n_bar)  # a bad input is not a bad factor
    for h in hierarchies:
        omega_rel = h * width
        beyond = (f"bad --hierarchies: factor {h!r} gives omega_f/|delta_omega| = "
                  f"{h * omega_rel!r}, beyond float arithmetic")
        try:  # detuning scale 1 rad/s; the ratio is invariant under the overall scale
            phys = physical_from_scaled(beta, kappa_scaled, lambda_s, n_bar,
                                        detuning=1.0, omega_f_ratio=h * omega_rel)
            scaled = scale_params(phys)
            omega_q = 2.0 * phys.omega_f + omega_rel
            delta = 1e-3 * omega_q
            qubit = QubitParams(w=math.sqrt(omega_q**2 - delta**2), delta=delta, delta_q=1.0)
        except (ValueError, ArithmeticError) as exc:
            raise ValueError(f"{beyond} ({exc})") from None
        # outside the guards: the rescaled beta may differ from beta by an ulp,
        # and a branch absent or marginal there is refused as at beta, not as
        # a bad factor.  Where neither moved, the solve at beta is the one it
        # would make: both are positive, so equal values have equal bits
        u, nu = u_beta, nu_beta
        if (scaled.beta, scaled.kappa_scaled) != (beta, kappa_scaled):
            u, nu = _pick_required(scaled.beta, scaled.kappa_scaled, Branch.LARGE)
        try:
            res_e, res_g = _resonant_1q_rates(qubit, phys, u, nu, scaled)[:2]
            non_e, non_g = _nonresonant_rates(qubit, phys, u, scaled)
        except (ValueError, ArithmeticError) as exc:
            raise ValueError(f"{beyond} ({exc})") from None
        if not (non_e > 0.0 and non_g > 0.0):
            raise ValueError(f"arithmetic fault: at --hierarchies factor {h!r} the nonresonant "
                             f"rate underflows to 0, so the rate ratio is undefined")
        ratio_e, ratio_g = float(res_e / non_e), float(res_g / non_g)
        if not all(map(math.isfinite, (non_e, non_g, ratio_e, ratio_g))):
            raise ValueError(f"{beyond} (a rate or the rate ratio overflows)")
        rows.append((h, ratio_e, ratio_g))
    return rows
