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
this module: :func:`dual_route` gives both routes and their worst relative
deviation, which the self-checks hold to ``DUAL_ROUTE_LIMIT``.
:func:`self_checks` runs the toolkit's self-checks at one parameter set, on
the root solve, the bistability window, the covariance and the two routes.

Sign conventions: the stored covariance is the physical (positive definite)
one, the equal-time commutator contributes ``+i*lambda_s/2`` times the
antisymmetric unit tensor with ``eps_12 = +1``, and one-sided (t >= 0)
Fourier transforms are used throughout:
N_nm(omega) = int_0^inf dt exp(i omega t) <Z_n(t) Z_m(0)>.

All quantities are dimensionless; spectra carry one factor of ``lambda_s``
and convert to SI seconds after division by ``|delta_omega|``.
"""

from __future__ import annotations

import math

import numpy as np

from .attractors import (
    MarginalAttractorError,
    _strictly_stable,
    bifurcation_betas,
    drift_matrix,
    solve_branches,
)
from .model import _check_kappa_scaled, _check_lambda_s, _check_n_bar, hbar

__all__ = [
    "stationary_covariance",
    "spectra",
    "spectra_from_matrix",
    "two_quantum_spectrum",
    "dual_route",
    "self_checks",
]

# largest relative closed-form vs matrix-route deviation the self-checks pass
DUAL_ROUTE_LIMIT = 1e-6
# the steady-state equation residual and the relative Lyapunov residual that
# validate's checks stay below
ATTRACTOR_RESIDUAL_LIMIT = 1e-10
LYAPUNOV_RESIDUAL_LIMIT = 1e-12


def _limit_text(limit: float) -> str:
    """A limit as the reports print it: ``g`` format with no padded exponent
    digit (1e-6, not 1e-06)."""
    return f"{limit:g}".replace("e-0", "e-")


def stationary_covariance(
    drift: np.ndarray, lambda_s: float, kappa_scaled: float, n_bar: float
) -> np.ndarray:
    """Stationary second moments of the linearized fluctuations.

    The covariance C solves the 2x2 continuous-time Lyapunov equation

        K C + C K^T + s I = 0,    s = lambda_s * kappa_scaled * (2 n_bar + 1),

    which for a strictly stable 2x2 drift K has the closed solution

        C = s (det K I + adj K adj K^T) / (-2 tr K det K)

    (C. W. Gardiner, *Handbook of Stochastic Methods*, the two-variable
    Ornstein-Uhlenbeck process).  No linear solve is made.  ``drift`` is one
    2x2 K or a ``(..., 2, 2)`` stack of them, such as
    :func:`duffing_qubit.attractors.drift_matrix` returns; the covariances
    have the shape of ``drift``.

    Raises
    ------
    ValueError
        If ``lambda_s`` or ``kappa_scaled`` is not finite and positive,
        ``n_bar`` is negative or not finite, or ``s`` or a covariance is not
        finite (lambda_s ~ 1e308 overflows C).
    MarginalAttractorError
        If a drift fails :func:`duffing_qubit.attractors._strictly_stable`,
        the rule by which :func:`duffing_qubit.attractors.solve_branches`
        marks a steady state marginal.  The message names the first such row
        of the flattened stack.
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
    trace, det = a + d, a * d - b * c
    ok = _strictly_stable(trace, det, (flat * flat).sum(axis=1))
    if not ok.all():
        raise MarginalAttractorError("drift matrix is not strictly stable; no stationary "
                                     f"covariance (row {np.flatnonzero(~ok)[0]})")
    # C = (s / -tr K) N: N = (det K I + adj K adj K^T) / (2 det K) is C in
    # units of the variance of an isotropic drift (N = I for K = -kappa I),
    # with adj K adj K^T = [[b^2 + d^2, -(ab + cd)], [., a^2 + c^2]]; s / -tr K
    # is formed first, as 1 / -tr K alone overflows at a subnormal
    # kappa_scaled.  N needs no positive-definiteness check where K passes the
    # rule: N11 is a sum of positive terms over 2 det K > 0, and det N = 1/2 +
    # |K|_F^2 / (4 det K) > 0 by Lagrange's identity
    off = -(a * b + c * d)
    cloud = np.array([det + b * b + d * d, off, off, det + a * a + c * c]) / (2.0 * det)
    with np.errstate(over="ignore"):
        cov = cloud * (source / -trace)
    if not np.isfinite(cov).all():
        raise ValueError(f"arithmetic fault: the stationary covariance overflows, s = {source!r}")
    return cov.T.reshape(k.shape)


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
    ndarray``; a scalar gives floats, an array arrays of its shape.  Raises
    ValueError for a non-finite ``omega`` or a ``lambda_s`` that is not
    finite and positive.
    """
    _check_lambda_s(lambda_s)
    w = _finite_omega(omega)
    flat, k = w.reshape(-1), np.asarray(drift, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        *pair, den = _resolvent_spectra(k, covariance, lambda_s, flat)
        # where a square overflows (|omega| or a drift entry above ~1e77) or
        # lambda_s ~ 1e308 does, divide omega and K by a power of two 2^e, and
        # C and lambda_s by 2^f from lambda_s >= 1: the spectra scale as 2^(f-e)
        big = ~(np.isfinite(pair[0]) & np.isfinite(pair[1]) & np.isfinite(den))
        if big.any():
            e = np.frexp(np.maximum(np.abs(flat[big]), np.abs(k).max()))[1]
            f = max(math.frexp(lambda_s)[1], 0)
            low = _resolvent_spectra(np.ldexp(k, -e[:, None, None]), np.ldexp(covariance, -f),
                                     math.ldexp(lambda_s, -f), np.ldexp(flat[big], -e))
            for out, part in zip(pair, low[:2]):
                out[big] = np.ldexp(part, f - e)
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
    non-finite ``omega``, a ``lambda_s`` or ``kappa_scaled`` that is not
    finite and positive, a negative or non-finite ``n_bar``, or a
    ``kappa_scaled`` so small that the denominator is 0 at omega = +-nu_scaled
    (kappa_scaled * omega underflows).
    """
    _check_lambda_s(lambda_s)
    _check_kappa_scaled(kappa_scaled)
    _check_n_bar(n_bar)
    w = _finite_omega(omega)
    weights = ((n_bar + 1.0, n_bar), (n_bar, n_bar + 1.0))
    # each spectrum is formed with lambda_s / 2^f < 2 and scaled by 2^f last,
    # f > 0 only for lambda_s >= 2, so that 2 lambda_s (lambda_s ~ 1e308)
    # overflows no product that den and c then divide
    f = max(math.frexp(lambda_s)[1] - 1, 0)
    pref = 2.0 * math.ldexp(lambda_s, -f) * kappa_scaled
    # nu * nu, not nu**2: a float's ** 2 goes through libm pow, which can be
    # an ulp off the exact square an array gets, and a detuning sweep (scalar
    # nu) must give the bits of a drive sweep (array nu)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        bracket = (w - (2.0 * u - 1.0)) ** 2 + kappa_scaled**2
        den = (w * w - nu_scaled * nu_scaled) ** 2 + 4.0 * kappa_scaled**2 * w * w
        nums = [wb * bracket + wq * u * u for wb, wq in weights]
        pair = [np.ldexp(pref * num / den, f) for num in nums]
    if (den == 0.0).any():  # only at omega = +-nu, where kappa_scaled * omega underflows
        raise ValueError("arithmetic fault: kappa_scaled * omega underflows to 0 at +-nu_scaled")
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
            out[big & over] = (np.ldexp(pref * num / den / c, f) / c)[over[big]]
    return tuple(float(out) if np.ndim(out) == 0 else out for out in pair)


def dual_route(u: float, nu: float, drift: np.ndarray, cov: np.ndarray, kappa_scaled: float,
               lambda_s: float, n_bar: float, omega: np.ndarray) -> tuple[tuple, float]:
    """Both routes to both spectra over ``omega`` about the steady state ``u``
    with gap ``nu``, drift ``drift`` and covariance ``cov``, and their worst
    deviation.

    Returns (emission_closed, absorption_closed, emission_matrix,
    absorption_matrix) and the largest relative closed-vs-matrix deviation,
    which the self-checks hold to ``DUAL_ROUTE_LIMIT``; NaN if any cell of
    either route is NaN or infinite, so that the check fails closed.
    """
    ec, ac = spectra(omega, u, nu, kappa_scaled, lambda_s, n_bar)
    em, am = spectra_from_matrix(drift, cov, lambda_s, omega)
    closed, matrix = np.array([ec, ac]), np.array([em, am])
    scale = np.maximum(np.maximum(np.abs(closed), np.abs(matrix)), 1e-300)
    with np.errstate(invalid="ignore"):  # inf - inf and inf / inf are NaN
        return (ec, ac, em, am), float(np.max(np.abs(closed - matrix) / scale))


def self_checks(beta: float, kappa_scaled: float, lambda_s: float,
                n_bar: float) -> list[tuple[str, bool, str]]:
    """The toolkit's self-checks at one parameter set, as (name, ok, metric)
    rows, in this order:

    - ``attractor_residual``: the steady-state equation holds to
      ``ATTRACTOR_RESIDUAL_LIMIT`` over a drive sweep;
    - ``attractor_count``: 1 steady state outside the bistable window and 3
      inside, or 2 on an edge with a marginal entry;
    - ``bifurcation_gap`` (bistable ``kappa_scaled`` only): at each window
      edge a merging pair whose drift fails the stability rule;
    - ``lyapunov_residual`` and ``covariance_positive``: the covariances of
      the stable steady states at drives 0, 0.05, ``beta`` and 0.2 solve the
      Lyapunov equation to ``LYAPUNOV_RESIDUAL_LIMIT`` relative and are
      positive definite;
    - ``dual_route``: the two spectrum routes agree to ``DUAL_ROUTE_LIMIT``
      at ``beta`` (:func:`dual_route`).

    ``metric`` is the text the ``validate`` report prints; a NaN metric fails
    its check.  The checks share one root solve and one covariance stack.
    A bad parameter is refused by the first call that reads it, before any
    row is returned.
    """
    checks: list[tuple[str, bool, str]] = []

    def report(name: str, ok: bool, metric: str) -> None:
        checks.append((name, bool(ok), metric))

    # one root solve over the residual sweep, the count sweep, the window
    # edges and the four drives; it works per element, so each part is what
    # a solve of its own gives
    info = bifurcation_betas(kappa_scaled)
    grid, counted = np.linspace(0.0, 0.25, 101), np.linspace(1e-3, 0.25, 97)
    # an edge that underflows to 0 (beta_low ~ kappa^2 below kappa ~ 1.6e-162)
    # is left out: at beta = 0 the only steady state is u = 0, with no pair
    edges = [b for b in (info.beta_low, info.beta_high) if info.bistable and b > 0.0]
    drives = [0.0, 0.05, beta, 0.2]
    betas = np.concatenate([grid, counted, edges, drives])
    s = solve_branches(betas, kappa_scaled)
    us = np.stack([s.u_small, s.u_unstable, s.u_large])

    # steady-state equation residuals across the sweep, of all three branches
    u = us[:, :grid.size]
    res = np.abs(u * ((u - 1.0) ** 2 + kappa_scaled**2) - grid) / np.maximum(grid, 1.0)
    worst = float(np.nanmax(res, initial=0.0))
    report("attractor_residual", worst < ATTRACTOR_RESIDUAL_LIMIT,
           f"max={worst:.3e} (limit {_limit_text(ATTRACTOR_RESIDUAL_LIMIT)})")

    # attractor count matches the bistability window: 3 inside, 1 outside,
    # or 2 on an edge with a marginal entry, where the merging pair may be one
    # entry (the solver merges a pair only where beta is within ~1e-14 of an
    # edge, and marks a wider pair marginal by its drift alone)
    rows = slice(grid.size, grid.size + counted.size)
    n = sum(~np.isnan(u[rows]) for u in us)
    inside = info.bistable & (info.beta_low < counted) & (counted < info.beta_high)
    off_edge = np.minimum(abs(counted - info.beta_low), abs(counted - info.beta_high))
    on_edge = ((s.nu_small[rows] == 0.0) | (s.nu_large[rows] == 0.0)) & (off_edge < 1e-14)
    ok = bool(np.all((n == np.where(inside, 3, 1)) | (on_edge & (n == 2))))
    report("attractor_count", ok, "1 outside / 3 inside the bistable window")

    # the small and large columns of the edges and drives as (2, n) stacks,
    # with one drift per steady state
    tail = slice(grid.size + counted.size, None)
    u = np.stack([s.u_small[tail], s.u_large[tail]])
    nu = np.stack([s.nu_small[tail], s.nu_large[tail]])
    k = drift_matrix(u, betas[tail], kappa_scaled)

    # quasienergy gap closes at the boundaries, each with its merging pair,
    # whose drift fails the stability rule
    if info.bistable:
        at_edge = nu[:, :len(edges)] == 0.0
        missing = int(np.count_nonzero(~at_edge.any(axis=0)))
        k_edge = k[:, :len(edges)][at_edge]
        det = np.linalg.det(k_edge)
        gap = float(np.max(np.abs(det), initial=0.0))
        metric = f"|det K|={gap:.3e} at boundaries"
        if len(edges) < 2:
            metric += ", beta_low underflows to 0"
        if missing:
            metric += f", no marginal pair at {missing} of {len(edges)}"
        closed = ~_strictly_stable(np.trace(k_edge, axis1=-2, axis2=-1), det,
                                   (k_edge * k_edge).sum(axis=(-2, -1)))
        report("bifurcation_gap", not missing and closed.all(), metric)

    # Lyapunov residual and positive definiteness from one covariance stack
    # over the stable attractors of the four drives, and the dual-route
    # spectrum agreement at beta
    stable = nu > 0.0
    stable[:, :len(edges)] = False
    k, u, nu = k[stable], u[stable], nu[stable]
    cov = stationary_covariance(k, lambda_s, kappa_scaled, n_bar)
    # the residual K C + C K^T + s I on its own rounding scale, 2 |K| |C| + s
    # with |.| the largest entry of a row; K and C are divided by theirs first,
    # so that no product overflows (a C that underflows to 0 gives NaN)
    k_max, c_max = (np.abs(x).max(axis=(-2, -1), keepdims=True) for x in (k, cov))
    with np.errstate(divide="ignore", invalid="ignore"):
        kn, cn = k / k_max, cov / c_max
        src = lambda_s * kappa_scaled * (2.0 * n_bar + 1.0) / k_max / c_max
        lyapunov = kn @ cn + cn @ kn.swapaxes(-1, -2) + src * np.eye(2)
        rel = np.abs(lyapunov).max(axis=(-2, -1)) / (2.0 + src[..., 0, 0])
    worst = float(np.max(rel, initial=0.0))
    report("lyapunov_residual", worst < LYAPUNOV_RESIDUAL_LIMIT,
           f"max rel={worst:.3e} (limit {_limit_text(LYAPUNOV_RESIDUAL_LIMIT)})")
    report("covariance_positive", np.all(np.linalg.eigvalsh(cov) > 0.0), "eigenvalues > 0")
    omega = np.linspace(-5, 5, 201)
    at_beta = np.nonzero(stable)[1] == len(edges) + 2  # beta is drives[2]
    deviations = [0.0] + [dual_route(*row, kappa_scaled, lambda_s, n_bar, omega)[1]
                          for row in zip(u[at_beta], nu[at_beta], k[at_beta], cov[at_beta])]
    worst = float(np.max(deviations))
    report("dual_route", worst <= DUAL_ROUTE_LIMIT,
           f"max rel dev={worst:.3e} (limit {_limit_text(DUAL_ROUTE_LIMIT)})")
    return checks


def _finite_omega(omega) -> np.ndarray:
    """``omega`` as a float array; ValueError where a value is not finite."""
    w = np.asarray(omega, dtype=float)
    if not np.isfinite(w).all():
        raise ValueError("omega must be finite")
    return w


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
