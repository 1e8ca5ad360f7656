"""Quadrature fluctuation spectra about a stable attractor.

The linearized rotating-frame dynamics of the quadrature deviations
``Z = (Q - Q_a, P - P_a)`` is an Ornstein-Uhlenbeck process: drift matrix
``K`` (see :func:`duffing_qubit.attractors.drift_matrix`) and isotropic
diffusion ``lambda_s * kappa_scaled * (n_bar + 1/2)``.  Drifts come as
``(..., 2, 2)`` stacks, one per steady state of the branch columns, and
:func:`stationary_covariance` turns a stack into covariances of the same
shape by the closed solution of the 2x2 Lyapunov equation,

    C = s (det K I + adj K adj K^T) / (-2 tr K det K),
    s = lambda_s * kappa_scaled * (2 n_bar + 1)

(C. W. Gardiner, *Handbook of Stochastic Methods*, the two-variable
Ornstein-Uhlenbeck process), with no linear solve.  Two independent routes
to the one-sided power spectra are implemented:

- the closed form :func:`spectra`, rational functions of frequency with
  poles at the quasienergy gap;
- the matrix (resolvent) route :func:`spectra_from_matrix`, from the
  drift's resolvent acting on the stationary covariance (quantum regression
  with ``exp(K t)``), the one-sided spectrum matrix

      N(omega) = -(i omega I + K)^{-1} (C + i lambda_s eps / 2),

  taken through the 2x2 adjugate from K and C alone.

Each returns the pair (emission, absorption).  The qubit's decay rate comes
from the emission spectrum and its excitation rate from the absorption
spectrum, taken at the same frequency offset with the thermal weights
n_bar + 1 and n_bar interchanged.

Their agreement over parameter space is the central correctness check of
this module.  Sign conventions: the stored covariance is the physical
(positive definite) one, the equal-time commutator contributes
``+i*lambda_s/2`` times the antisymmetric unit tensor with ``eps_12 = +1``,
and one-sided (t >= 0) Fourier transforms are used throughout:
N_nm(omega) = int_0^inf dt exp(i omega t) <Z_n(t) Z_m(0)>.

All quantities are dimensionless; spectra carry one factor of ``lambda_s``
and convert to SI seconds after division by ``|delta_omega|``.
"""

from __future__ import annotations

import math

import numpy as np

from .attractors import MarginalAttractorError
from .model import _check_kappa_scaled, _check_lambda_s, hbar

__all__ = [
    "stationary_covariance",
    "spectra",
    "spectra_from_matrix",
    "two_quantum_spectrum",
]

# smallest det(K) / |K|_F^2 of a drift that counts as strictly stable
STABILITY_TOL = 1e-8


def _check_n_bar(n_bar: float) -> None:
    if not 0.0 <= n_bar < math.inf:
        raise ValueError(f"n_bar must be finite and non-negative, got {n_bar}")


def stationary_covariance(
    drift: np.ndarray, lambda_s: float, kappa_scaled: float, n_bar: float
) -> np.ndarray:
    """Stationary second moments of the linearized fluctuations.

    The covariance C solves the 2x2 continuous-time Lyapunov equation

        K C + C K^T + s I = 0,    s = lambda_s * kappa_scaled * (2 n_bar + 1),

    which for a strictly stable 2x2 drift K has the closed solution

        C = s (det K I + adj K adj K^T) / (-2 tr K det K)

    (C. W. Gardiner, *Handbook of Stochastic Methods*, the two-variable
    Ornstein-Uhlenbeck process).  No linear solve is made, and positive
    definiteness is checked before the source scales C, so that a tiny
    source cannot underflow the check.  ``drift`` is one 2x2 K or a
    ``(..., 2, 2)`` stack of them, such as
    :func:`duffing_qubit.attractors.drift_matrix` returns; the covariances
    have the shape of ``drift``.

    Raises
    ------
    ValueError
        If ``lambda_s`` or ``kappa_scaled`` is not finite and positive,
        ``n_bar`` is negative or not finite, or ``s`` is not finite.
    MarginalAttractorError
        If a drift is not strictly stable (an eigenvalue with non-negative
        real part makes the stationary state ill-defined), or if a solution
        fails to be positive definite.  The message names the first such
        row of the flattened stack.
    """
    _check_lambda_s(lambda_s)
    _check_kappa_scaled(kappa_scaled)
    _check_n_bar(n_bar)
    k = np.asarray(drift, dtype=float)
    if k.shape[-2:] != (2, 2):
        raise ValueError("drift must be a 2x2 matrix or a stack of them")
    flat = k.reshape(-1, 4)
    a, b, c, d = flat.T
    source = lambda_s * kappa_scaled * (2.0 * n_bar + 1.0)
    if not math.isfinite(source):
        raise ValueError(f"lambda_s * kappa_scaled * (2 n_bar + 1) must be finite, got {source}")
    # a real 2x2 matrix is stable iff trace < 0 and det > 0; the determinant
    # is held to a margin relative to |K|^2, its own scale, so marginal
    # attractors (det at rounding level) are refused at any drive strength
    trace, det = a + d, a * d - b * c
    _refuse_rows((trace < 0.0) & (det > STABILITY_TOL * (flat * flat).sum(axis=1)),
                 "drift matrix is not strictly stable; no stationary covariance")
    # C = (s / -tr K) N: N = (det K I + adj K adj K^T) / (2 det K) is C in
    # units of the variance of an isotropic drift (N = I for K = -kappa I),
    # with adj K adj K^T = [[b^2 + d^2, -(ab + cd)], [., a^2 + c^2]].  N is
    # positive definite iff C is, and is checked before s / -tr K scales it:
    # det C underflows at a tiny lambda_s, and 1 / -tr K alone overflows at
    # a subnormal kappa_scaled
    off = -(a * b + c * d)
    cloud = np.array([det + b * b + d * d, off, off, det + a * a + c * c]) / (2.0 * det)
    n11, n12, _, n22 = cloud
    _refuse_rows((n11 > 0.0) & (n11 * n22 - n12 * n12 > 0.0),
                 "covariance is not positive definite")
    return (cloud * (source / -trace)).T.reshape(k.shape)


def _refuse_rows(ok: np.ndarray, message: str) -> None:
    """MarginalAttractorError with ``message`` and the first row not ``ok``."""
    if not ok.all():
        raise MarginalAttractorError(f"{message} (row {np.flatnonzero(~ok)[0]})")


def spectra_from_matrix(
    drift: np.ndarray,
    covariance: np.ndarray,
    lambda_s: float,
    omega: float | np.ndarray,
) -> tuple[float | np.ndarray, float | np.ndarray]:
    """(emission, absorption) via the matrix route, Z+- = Z1 +/- i Z2.

    Emission is Re[tr N + i (N21 - N12)], the Z+Z- spectrum, at ``omega``;
    absorption is Re[tr N - i (N21 - N12)], the Z-Z+ spectrum, at ``-omega``
    (the convention of :func:`spectra`, so both routes are compared at the
    same ``omega``); N is the resolvent of the module docstring.  No solve is
    made: (i omega I + K)^{-1} = (i omega I + adj K) / [(det K - omega^2) +
    i omega tr K], and both combinations are formed from K and the symmetric
    C before the division, so each real part is a quadratic in omega over
    |det|^2 with no term that cancels at |omega| >> nu.  ``omega: float |
    ndarray``; a scalar gives floats, an array arrays of its shape.
    """
    w = np.asarray(omega, dtype=float)
    flat, k = w.reshape(-1), np.asarray(drift, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        *pair, den = _resolvent_spectra(k, covariance, lambda_s, flat)
        # where a square overflows (|omega| or a drift entry above ~1e77),
        # divide omega and K by a power of two 2^e: the spectra scale as 2^-e
        big = ~(np.isfinite(pair[0]) & np.isfinite(pair[1]) & np.isfinite(den))
        if big.any():
            e = np.frexp(np.maximum(np.abs(flat[big]), np.abs(k).max()))[1]
            low = _resolvent_spectra(np.ldexp(k, -e[:, None, None]), covariance,
                                     lambda_s, np.ldexp(flat[big], -e))
            for out, part in zip(pair, low[:2]):
                out[big] = np.ldexp(part, -e)
    pair = [out.reshape(w.shape) for out in pair]
    return tuple(map(float, pair)) if w.ndim == 0 else tuple(pair)


def _resolvent_spectra(k, covariance, lambda_s, w):
    # Re[-(tr X +/- i (X21 - X12)) / det] with X = adj(i w I + K) (C + i
    # lambda_s eps / 2) and det = (det K - w^2) + i w tr K, at +w for emission
    # and -w for absorption: c0 - w^2 m2 -/+ beta w tr K over |det|^2
    a, b, c, d = k[..., 0, 0], k[..., 0, 1], k[..., 1, 0], k[..., 1, 1]
    (p, r), (_, q) = covariance
    tr_k, det_k = a + d, a * d - b * c
    tr_kc = a * p + (b + c) * r + d * q
    tr_adj_kc = tr_k * (p + q) - tr_kc  # adj K = tr K I - K
    cross = b * q + (a - d) * r - c * p  # (adj K C)_21 - (adj K C)_12
    half = 0.5 * lambda_s
    gap, wt = det_k - w * w, w * tr_k
    den = gap * gap + wt * wt
    pair = []
    for sign in (1.0, -1.0):
        c0 = -(tr_adj_kc + sign * half * tr_k) * det_k
        m2 = tr_kc + sign * half * tr_k
        beta = half * (b - c) + sign * cross
        pair.append((c0 - w * w * m2 - sign * beta * wt) / den)
    return *pair, den


def spectra(
    omega: float | np.ndarray,
    u: float | np.ndarray,
    nu_scaled: float | np.ndarray,
    kappa_scaled: float,
    lambda_s: float,
    n_bar: float,
) -> tuple[float | np.ndarray, float | np.ndarray]:
    """Closed-form (emission, absorption): Re of the Z+Z- spectrum, which
    drives qubit decay, and of the Z-Z+ spectrum, which drives excitation.

    emission = 2 lambda_s kappa { (n+1)[(w - (2u-1))^2 + kappa^2] + n u^2 }
               / [ (w^2 - nu^2)^2 + 4 kappa^2 w^2 ]

    and absorption the same with the thermal weights n+1 and n interchanged;
    the argument-negation of its one-sided transform is folded in, so both
    are taken at the same ``omega``.  For weak damping they have Lorentzian
    peaks of halfwidth kappa_scaled at omega = +/- nu_scaled.  ``omega``,
    ``u`` and ``nu_scaled`` may be floats or arrays that broadcast; floats
    come back only when all are scalars.  Raises ValueError for a
    non-finite ``omega``, a ``lambda_s`` that is not finite and positive, or
    a negative or non-finite ``n_bar``.
    """
    _check_lambda_s(lambda_s)
    _check_n_bar(n_bar)
    w = np.asarray(omega, dtype=float)
    if not np.isfinite(w).all():
        raise ValueError("omega must be finite")
    weights = ((n_bar + 1.0, n_bar), (n_bar, n_bar + 1.0))
    # nu * nu, not nu**2: a float's ** 2 goes through libm pow, which can be
    # an ulp off the exact square an array gets, and a detuning sweep (scalar
    # nu) must give the bits of a drive sweep (array nu)
    with np.errstate(over="ignore", invalid="ignore"):
        bracket = (w - (2.0 * u - 1.0)) ** 2 + kappa_scaled**2
        den = (w * w - nu_scaled * nu_scaled) ** 2 + 4.0 * kappa_scaled**2 * w * w
        nums = [wb * bracket + wq * u * u for wb, wq in weights]
        pair = [2.0 * lambda_s * kappa_scaled * num / den for num in nums]
    # where a square overflows (nu or |omega| above ~1e77), evaluate with
    # every frequency divided by the largest, c: num scales as c^2, den as c^4.
    # Each spectrum is rescaled only where its own numerator or den overflows
    overs = [np.asarray(~(np.isfinite(num) & np.isfinite(den))) for num in nums]
    big = overs[0] | overs[1]
    if big.any():  # a NaN input (an absent branch) stays NaN as it is
        big &= ~(np.isnan(u) | np.isnan(nu_scaled))
    if big.any():
        pair = [np.array(out) for out in pair]
        w, u, nu = (np.broadcast_to(x, big.shape)[big] for x in (w, u, nu_scaled))
        c = np.maximum(np.maximum(np.abs(w), np.abs(u)),
                       np.maximum(np.abs(nu), max(1.0, abs(kappa_scaled))))
        w, u, nu, k = w / c, u / c, nu / c, kappa_scaled / c
        bracket = (w - (2.0 * u - 1.0 / c)) ** 2 + k * k
        den = (w * w - nu * nu) ** 2 + 4.0 * k * k * w * w
        for out, over, (wb, wq) in zip(pair, overs, weights):
            num = wb * bracket + wq * u * u
            out[big & over] = (2.0 * lambda_s * kappa_scaled * num / den / c / c)[over[big]]
    return tuple(float(out) if np.ndim(out) == 0 else out for out in pair)


def two_quantum_spectrum(
    omega_q: float | np.ndarray,
    omega_0: float,
    kappa: float,
    n_bar: float,
    m: float,
) -> tuple[float | np.ndarray, float | np.ndarray]:
    """Squared-displacement spectra for two-quantum transitions (SI, m^4 s),
    (decay, excitation) of the qubit.

    Lorentzian around omega_q = 2*omega_0 with halfwidth 2*kappa:

        (hbar / m omega_0)^2 * kappa * W / [(omega_q - 2 omega_0)^2 + 4 kappa^2]

    with W = (n_bar + 1)^2 for decay of the qubit excited state and
    W = n_bar^2 for excitation out of the ground state; the thermal swap
    applies once per emitted or absorbed quantum.  ``omega_q: float |
    ndarray``; both results have its shape.  Raises ValueError for a
    negative or non-finite ``n_bar``.
    """
    _check_n_bar(n_bar)
    pref = (hbar / (m * omega_0)) ** 2 * kappa
    det = omega_q - 2.0 * omega_0
    den = det * det + 4.0 * kappa**2
    return pref * (n_bar + 1.0) ** 2 / den, pref * n_bar**2 / den
