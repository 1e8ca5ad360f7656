"""Forced-vibration steady states of the driven oscillator.

Everything here is dimensionless: frequencies are in units of the detuning
``|delta_omega|`` and the state of a steady vibration is its squared scaled
radius ``u = r^2 = Q^2 + P^2``, which satisfies the cubic

    u * [(u - 1)^2 + kappa_scaled^2] = beta.

One or three non-negative roots exist.  With three roots the middle one is a
saddle of the rotating-frame dynamics; the outer two are the small- and
large-amplitude attractors.  The linearized drift about a root has trace
``-2*kappa_scaled`` and determinant ``nu^2 = kappa_scaled^2 + 3u^2 - 4u + 1``;
``nu`` is the quasienergy gap frequency, vanishing at bifurcations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "Branch",
    "Attractor",
    "BifurcationInfo",
    "MarginalAttractorError",
    "solve_attractors",
    "bifurcation_betas",
    "drift_matrix",
]

# roots closer than this (relative) are treated as a degenerate pair at a
# bifurcation; the linearized theory breaks down there
_MERGE_TOL = 1e-7


class MarginalAttractorError(Exception):
    """Raised when an operation needs a strictly stable attractor."""


class Branch(str, Enum):
    SMALL = "small"
    LARGE = "large"
    UNSTABLE = "unstable"


@dataclass(frozen=True)
class Attractor:
    """One steady state of forced vibration (dimensionless units)."""

    u: float                          # squared scaled radius r^2
    q: float                          # rotating-frame quadrature Q
    p: float                          # rotating-frame quadrature P
    nu_scaled: float                  # quasienergy gap / |delta_omega| (nan if unstable)
    branch: Branch
    eigenvalues: tuple[complex, complex]  # drift eigenvalues in units of |delta_omega|
    marginal: bool = False            # True for a degenerate pair at a bifurcation

    @property
    def stable(self) -> bool:
        return self.branch is not Branch.UNSTABLE and not self.marginal


@dataclass(frozen=True)
class BifurcationInfo:
    """Boundaries of the bistable drive-intensity window at fixed damping."""

    bistable: bool
    beta_low: float       # large-amplitude branch disappears below this
    beta_high: float      # small-amplitude branch disappears above this
    u_at_beta_low: float  # merging radius at beta_low (d beta/d u = 0)
    u_at_beta_high: float


def _beta_of_u(u: float, kappa_scaled: float) -> float:
    return u * ((u - 1.0) ** 2 + kappa_scaled**2)


def _cubic_real_roots(kappa_scaled: float, beta: float) -> list[float]:
    """Non-negative real roots of u^3 - 2u^2 + (1 + k^2)u - beta = 0.

    Closed-form discriminant classification (trigonometric form for three
    real roots, cancellation-safe Cardano for one) followed by Newton
    polishing on the original cubic; near bifurcations the closed forms
    alone lose digits as roots collide.
    """
    k2 = kappa_scaled * kappa_scaled
    c1 = 1.0 + k2

    if beta == 0.0:
        return [0.0]  # the quadratic factor u^2 - 2u + 1 + k^2 has no real roots

    # depressed cubic t^3 + p t + q with u = t + 2/3
    p = k2 - 1.0 / 3.0
    q = (2.0 + 18.0 * k2) / 27.0 - beta

    disc = -4.0 * p**3 - 27.0 * q * q
    if disc > 0.0:
        # three distinct real roots
        m = 2.0 * math.sqrt(-p / 3.0)
        arg = 3.0 * q / (p * m)
        arg = min(1.0, max(-1.0, arg))
        theta = math.acos(arg) / 3.0
        ts = [m * math.cos(theta - 2.0 * math.pi * kk / 3.0) for kk in range(3)]
        roots = [t + 2.0 / 3.0 for t in ts]
    else:
        # single real root; avoid cancellation between the two cube roots.
        # The radicand is -disc/108, which rounds below 0 when disc ~ 0; for
        # a huge beta it is factored as (q/2)^2 (1 + ...), as q*q overflows
        h = abs(q) / 2.0
        if h < 1e150:
            rad = math.sqrt(max(q * q / 4.0 + p**3 / 27.0, 0.0))
        else:
            rad = h * math.sqrt(max(1.0 + p**3 / 27.0 / h / h, 0.0))
        a = -math.copysign(h + rad, q)
        a = math.copysign(abs(a) ** (1.0 / 3.0), a)
        b = 0.0 if a == 0.0 else -p / (3.0 * a)
        roots = [a + b + 2.0 / 3.0]

    polished = []
    for u in roots:
        u = max(u, 0.0)
        for _ in range(50):
            f = ((u - 2.0) * u + c1) * u - beta
            df = (3.0 * u - 4.0) * u + c1
            if df == 0.0:
                break
            step = f / df
            u -= step
            if abs(step) <= 1e-15 * max(1.0, abs(u)):
                break
        polished.append(max(u, 0.0))

    if len(polished) == 1 and polished[0] > 0.0:
        # a bifurcation value rounded to the one-root side of the
        # discriminant leaves a grazing complex pair; surface it as the
        # degenerate real double root it represents
        r = polished[0]
        center = 0.5 * (2.0 - r)
        disc2 = (2.0 - r) ** 2 - 4.0 * beta / r
        if disc2 < 0.0 and 0.5 * math.sqrt(-disc2) < _MERGE_TOL * max(1.0, center):
            polished += [center, center]
    return sorted(polished)


def solve_attractors(beta: float, kappa_scaled: float) -> list[Attractor]:
    """All steady states at drive intensity ``beta``, sorted by ``u``.

    Returns one attractor outside the bistable window and three (small,
    unstable, large) inside it.  Exactly at a bifurcation the merging pair
    is reported as a single entry with ``marginal=True`` and ``nu_scaled=0``;
    downstream spectral formulas refuse such entries.

    Raises ValueError for a negative or non-finite ``beta``, a non-positive
    or non-finite ``kappa_scaled``, and where the steady state is too large
    to represent.
    """
    if not 0.0 <= beta < math.inf:
        raise ValueError(f"beta must be finite and non-negative, got {beta}")
    if not 0.0 < kappa_scaled < math.inf:
        raise ValueError(f"kappa_scaled must be finite and positive, got {kappa_scaled}")

    try:
        roots = _cubic_real_roots(kappa_scaled, beta)
    except OverflowError:  # a power of the cubic's coefficients
        roots = [math.inf]
    if not all(map(math.isfinite, roots)):
        raise ValueError(
            f"no finite steady state at beta={beta:g}, kappa_scaled={kappa_scaled:g}"
        )

    # collapse a numerically degenerate pair (bifurcation point)
    merged: list[tuple[float, bool]] = []
    i = 0
    while i < len(roots):
        if (
            i + 1 < len(roots)
            and roots[i + 1] - roots[i] < _MERGE_TOL * max(1.0, roots[i + 1])
        ):
            # near a double root the polished pair is only good to
            # ~sqrt(eps) (Newton converges there linearly), enough to leave
            # |det K| above 1e-8; the analytic turning radius is exact
            u_minus, u_plus = _turning_radii(kappa_scaled)
            merged.append((u_minus if roots[i] < 2.0 / 3.0 else u_plus, True))
            i += 2
        else:
            merged.append((roots[i], False))
            i += 1

    if len(merged) == 3:
        branches = [Branch.SMALL, Branch.UNSTABLE, Branch.LARGE]
    elif len(merged) == 2:
        # one simple root plus the degenerate pair; whichever side the pair
        # sits on, the lower-u entry is the small branch
        branches = [Branch.SMALL, Branch.LARGE]
    else:
        branches = [Branch.SMALL if merged[0][0] <= 2.0 / 3.0 else Branch.LARGE]

    sqrt_beta = math.sqrt(beta) if beta > 0.0 else 0.0
    out = []
    for (u, marginal), branch in zip(merged, branches):
        if beta > 0.0:
            q = u * (u - 1.0) / sqrt_beta
            p = -kappa_scaled * u / sqrt_beta
        else:
            q = p = 0.0
        det = kappa_scaled**2 + (3.0 * u - 4.0) * u + 1.0
        if marginal:
            nu = 0.0
        elif branch is Branch.UNSTABLE:
            nu = float("nan")
        else:
            nu = math.sqrt(max(det, 0.0))
        root = complex(kappa_scaled**2 - det) ** 0.5
        eigs = (-kappa_scaled + root, -kappa_scaled - root)
        out.append(
            Attractor(
                u=u, q=q, p=p, nu_scaled=nu, branch=branch,
                eigenvalues=eigs, marginal=marginal,
            )
        )
    return out


def _turning_radii(kappa_scaled: float) -> tuple[float, float]:
    """Radii where d beta/d u = 0: u = [2 -/+ sqrt(1 - 3 kappa_scaled^2)] / 3."""
    root = math.sqrt(max(1.0 - 3.0 * kappa_scaled**2, 0.0))
    return (2.0 - root) / 3.0, (2.0 + root) / 3.0


def bifurcation_betas(kappa_scaled: float) -> BifurcationInfo:
    """Bistability window boundaries: extrema of beta(u) at d beta/d u = 0.

    Bistable iff kappa_scaled^2 < 1/3; the turning radii are
    u = [2 -/+ sqrt(1 - 3 kappa_scaled^2)] / 3.
    """
    if not 0.0 < kappa_scaled < math.inf:
        raise ValueError(f"kappa_scaled must be finite and positive, got {kappa_scaled}")
    # the first test keeps the square of a huge kappa_scaled from overflowing
    if kappa_scaled > 1.0 or 3.0 * kappa_scaled**2 >= 1.0:
        nan = float("nan")
        return BifurcationInfo(False, nan, nan, nan, nan)
    # u_minus: local maximum of beta(u), upper boundary;
    # u_plus: local minimum of beta(u), lower boundary
    u_minus, u_plus = _turning_radii(kappa_scaled)
    return BifurcationInfo(
        bistable=True,
        beta_low=_beta_of_u(u_plus, kappa_scaled),
        beta_high=_beta_of_u(u_minus, kappa_scaled),
        u_at_beta_low=u_plus,
        u_at_beta_high=u_minus,
    )


def drift_matrix(a: Attractor, kappa_scaled: float) -> np.ndarray:
    """Jacobian of the rotating-frame drift at the attractor (units of |dw|).

    Rows/columns 1 and 2 correspond to the Q and P quadratures.  The trace is
    exactly -2*kappa_scaled and the determinant equals nu_scaled^2 on stable
    branches.
    """
    u, q, p = a.u, a.q, a.p
    return np.array(
        [
            [-2.0 * p * q - kappa_scaled, -(u - 1.0 + 2.0 * p * p)],
            [u - 1.0 + 2.0 * q * q, 2.0 * q * p - kappa_scaled],
        ]
    )
