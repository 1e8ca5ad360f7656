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

The module is array-first.  :func:`solve_branches` solves a whole
drive-intensity grid in one call, one column per branch, and
:func:`drift_matrix` takes such columns (``u`` and ``beta``, any shapes that
broadcast) and returns a stack of 2x2 drifts, one per steady state.  A
steady state is the pair (u, nu) that :meth:`Branches.pick` gives for a
branch; a scalar ``beta`` gives float columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import _check_beta, _check_kappa_scaled

__all__ = [
    "Branch",
    "BifurcationInfo",
    "MarginalAttractorError",
    "Branches",
    "solve_branches",
    "bifurcation_betas",
    "drift_matrix",
]

# roots closer than this (relative) are treated as a degenerate pair at a
# bifurcation, one steady state
_MERGE_TOL = 1e-7

# smallest det K / |K|_F^2 of a drift that counts as strictly stable
STABILITY_TOL = 1e-8

_EPS = np.finfo(float).eps


class MarginalAttractorError(Exception):
    """Raised when an operation needs a strictly stable attractor."""


class Branch(str, Enum):
    SMALL = "small"
    LARGE = "large"
    UNSTABLE = "unstable"


@dataclass(frozen=True)
class BifurcationInfo:
    """Boundaries of the bistable drive-intensity window at fixed damping."""

    bistable: bool
    beta_low: float       # large-amplitude branch disappears below this
    beta_high: float      # small-amplitude branch disappears above this
    u_at_beta_low: float  # merging radius at beta_low (d beta/d u = 0)
    u_at_beta_high: float


@dataclass(frozen=True)
class Branches:
    """Steady states over a drive-intensity grid, one column per branch.

    Each field has the shape of ``beta`` (a float for a scalar ``beta``).
    ``u_*`` and ``nu_*`` are NaN where the branch is absent.  ``nu_*`` is 0
    where the branch is present but marginal: its drift fails
    :func:`_strictly_stable`, as does the entry that stands for a degenerate
    pair at a bifurcation.  The unstable branch has no ``nu`` column.
    """

    u_small: float | np.ndarray
    nu_small: float | np.ndarray
    u_unstable: float | np.ndarray
    u_large: float | np.ndarray
    nu_large: float | np.ndarray

    def pick(self, branch: Branch) -> tuple:
        """(u, nu) of the small or large branch."""
        if branch == Branch.SMALL:
            return self.u_small, self.nu_small
        if branch == Branch.LARGE:
            return self.u_large, self.nu_large
        raise ValueError("only the small and large branches carry (u, nu)")


def _beta_of_u(u: float, kappa_scaled: float) -> float:
    return u * ((u - 1.0) ** 2 + kappa_scaled**2)


# phase of the smallest trigonometric root (that of the largest is 0)
_SMALLEST = 4.0 * math.pi / 3.0


def _anchor(beta: np.ndarray, kappa_scaled: float) -> np.ndarray:
    """One closed-form real root of u^3 - 2u^2 + (1 + k^2)u - beta = 0 per beta.

    Where the discriminant says three real roots, the trigonometric root
    that stands apart from the other two: the largest where cos 3theta > 0
    (the lower pair merges as cos 3theta -> 1), the smallest otherwise.
    Elsewhere the one real root, by cancellation-safe Cardano, which near a
    double root is the same root that stands apart; beta = 0 gives u = 0.
    ``np.arccos``, ``np.cos`` and ``np.cbrt`` are each one call over the
    betas of their form, and each value has the bits of a call on that beta
    alone.
    """
    k2 = kappa_scaled * kappa_scaled
    # depressed cubic t^3 + p t + q with u = t + 2/3
    p = k2 - 1.0 / 3.0
    try:
        p3 = p**3
    except OverflowError:  # a power of the cubic's coefficients
        return np.where(beta == 0.0, 0.0, math.inf)
    q = (2.0 + 18.0 * k2) / 27.0 - beta
    three = -4.0 * p3 - 27.0 * q * q > 0.0
    root = np.empty(beta.size)

    n_three = np.count_nonzero(three)
    # the betas of each form, as a slice where every beta has it: no copy
    if n_three:
        rows = three if n_three < beta.size else slice(None)
        m = 2.0 * math.sqrt(-p / 3.0)
        cos3 = np.minimum(np.maximum(3.0 * q[rows] / (p * m), -1.0), 1.0)
        theta = np.arccos(cos3) / 3.0
        root[rows] = m * np.cos(np.where(cos3 > 0.0, theta, theta - _SMALLEST)) + 2.0 / 3.0
    if n_three < beta.size:
        # single real root; avoid cancellation between the two cube roots.
        # The radicand is -disc/108, which rounds below 0 when disc ~ 0; for
        # a huge beta it is factored as (q/2)^2 (1 + ...), as q*q overflows
        one = ~three if n_three else slice(None)
        q1 = q[one]
        h = np.abs(q1) / 2.0
        rad = np.sqrt(np.maximum(q1 * q1 / 4.0 + p3 / 27.0, 0.0))
        huge = h >= 1e150
        if np.count_nonzero(huge):
            hh = h[huge]
            rad[huge] = hh * np.sqrt(np.maximum(1.0 + p3 / 27.0 / hh / hh, 0.0))
        a = np.cbrt(-np.copysign(h + rad, q1))
        b = np.where(a == 0.0, 0.0, -p / (3.0 * a))
        root[one] = a + b + 2.0 / 3.0
    return np.where(beta == 0.0, 0.0, root)


def _polish(roots: np.ndarray, beta: np.ndarray, k2: float) -> None:
    """Newton on the factored cubic x((x - 1)^2 + k2) - beta, in place on
    the (3, n) roots, with slope (3x - 1)(x - 1) + k2.

    The factored form keeps k2 = kappa_scaled^2 apart from 1, and x - 1 is
    exact near x = 1, where the expanded cubic cancels.  Each value stops on
    its own rule: a step at or below the larger of 1e-15 relative and the
    rounding floor of the step, a step above 1e-6 relative, or 50
    iterations.  The floor is the residual's rounding,
    4 eps (|x| ((x - 1)^2 + k2) + beta), over the slope: below it a step is
    rounding noise, and where the slope is small the value would otherwise
    wander by a few ulp until the cap.  The seeds are good to ~1e-8 even
    next to a double root, so a longer step divides by a slope at rounding
    level and could carry the value to another root: the value ends where
    it is.  NaN padding is left alone.
    """
    u = roots.reshape(-1)
    np.maximum(u, 0.0, out=u)
    idx = (u == u).nonzero()[0]  # the values that are not NaN padding
    x, b = u[idx], beta[idx % beta.size]
    for _ in range(50):
        xm1 = x - 1.0
        df = (3.0 * x - 1.0) * xm1 + k2
        g = x * (xm1 * xm1 + k2)
        step = (g - b) / df
        new = x - step
        size = np.abs(step)
        floor = 4.0 * _EPS * (np.abs(g) + b) / np.abs(df)
        go = ~(size <= np.maximum(1e-15 * np.maximum(1.0, np.abs(new)), floor))
        stuck = ~(size <= 1e-6 * np.maximum(1.0, np.abs(x)))
        if np.count_nonzero(stuck):
            new[stuck] = x[stuck]
            go &= ~stuck
        u[idx] = new
        if not np.count_nonzero(go):
            break
        idx, x, b = idx[go], new[go], b[go]
    np.maximum(u, 0.0, out=u)


def solve_branches(beta: float | np.ndarray, kappa_scaled: float) -> Branches:
    """Small, unstable and large steady states at each drive intensity.

    ``beta: float | ndarray``; every field of the result has its shape, and
    for an array ``beta`` each is C-contiguous: the roots are solved as a
    (3, n) array, one row per branch.  One closed-form root r per beta
    (:func:`_anchor`) is the root that stands apart; the other pair is that
    of the quadratic factor u^2 + (r - 2)u + 1 + k^2 + r(r - 2), at
    (2 - r)/2 +/- sqrt(disc)/2 with disc = (4 - 3r)r - 4k^2.  The pair lies
    below r exactly where r > 2/3: r is then the large branch, and the
    small branch otherwise.  A complex pair is absent.  Newton on the
    cubic then polishes every root in one call.

    One merge rule holds on both sides of each window edge: where the
    pair's two roots, real or complex, lie closer than ``_MERGE_TOL``
    (|disc| < _MERGE_TOL^2; both lie below 4/3), or where a positive beta
    lies within ``edge_tol`` of a window edge, the pair is one marginal
    entry at the analytic turning radius, on r's side of the pair.  Near a
    double root Newton converges only linearly, and where the slope of the
    cubic is at rounding level its steps are rounding noise, so the pair is
    judged before Newton.  ``edge_tol`` is how close to the edge beta(u_t)
    a pair ``_MERGE_TOL`` apart lies:
    |beta''(u_t)| / 2 * (_MERGE_TOL / 2)^2, with
    |beta''(u_t)| = 2 sqrt(1 - 3 kappa_scaled^2) at both turning radii u_t.

    A small or large entry whose drift fails :func:`_strictly_stable`, the
    rule that :func:`duffing_qubit.fluctuations.stationary_covariance`
    applies, is marginal, with nu = 0; at a turning radius det K = 0.  The
    rule is evaluated on the cubic, with no drift built:
    det K = nu^2 = kappa_scaled^2 + (3u - 1)(u - 1) and
    |K|_F^2 = 2 (kappa_scaled^2 + (2u - 1)^2 + u^2).

    Raises ValueError for a negative or non-finite ``beta``, a non-positive
    or non-finite ``kappa_scaled``, and where the steady state is too large
    to represent.
    """
    b = np.asarray(beta, dtype=float)
    flat = _check_beta(b)
    _check_kappa_scaled(kappa_scaled)
    ks2 = kappa_scaled**2  # OverflowError for a kappa_scaled past ~1e154

    with np.errstate(all="ignore"):
        r = _anchor(flat, kappa_scaled)
        bad = ~np.isfinite(r)
        if np.count_nonzero(bad):
            raise ValueError(
                f"no finite steady state at beta={flat[bad][0]:g}, "
                f"kappa_scaled={kappa_scaled:g}"
            )
        disc = (4.0 - 3.0 * r) * r - 4.0 * ks2
        below = r > 2.0 / 3.0  # the pair lies below r
        merge = np.abs(disc) < _MERGE_TOL * _MERGE_TOL
        u_minus, u_plus = _turning_radii(kappa_scaled)
        if 3.0 * ks2 < 1.0:
            edge_tol = (u_plus - u_minus) * 1.5 * (0.5 * _MERGE_TOL) ** 2
            for edge in (_beta_of_u(u_minus, kappa_scaled), _beta_of_u(u_plus, kappa_scaled)):
                merge |= np.abs(flat - edge) <= edge_tol
        half = 0.5 * np.sqrt(disc)  # NaN where the pair is complex
        n_merge = np.count_nonzero(merge)
        if n_merge:
            half[merge] = math.nan
        center = 1.0 - 0.5 * r
        lo, hi = center - half, center + half
        roots = np.empty((3, flat.size))
        roots[0] = np.where(below, lo, r)
        roots[1] = np.where(below, hi, lo)
        roots[2] = np.where(below, r, hi)
        _polish(roots, flat, ks2)
        if n_merge:
            # beta = 0 has u = 0 alone, whatever its pair's disc rounds to
            merge &= flat > 0.0
            roots[0, merge & below] = u_minus
            roots[2, merge & ~below] = u_plus

        # det K = nu^2 and |K|_F^2 of each stable root's drift (Q^2 + P^2 = u),
        # on a copy of rows 0 and 2: a ufunc call on the strided pair costs more
        ends = roots[::2].copy()
        det = ks2 + (3.0 * ends - 1.0) * (ends - 1.0)
        frob2 = 2.0 * (ks2 + (2.0 * ends - 1.0) ** 2 + ends * ends)
        marginal = ~_strictly_stable(-2.0 * kappa_scaled, det, frob2) & ~np.isnan(ends)
        nu = np.where(marginal, 0.0, np.sqrt(det))

    cols = (roots[0], nu[0], roots[1], roots[2], nu[1])
    if b.ndim == 0:
        return Branches(*(float(col[0]) for col in cols))
    return Branches(*(col.reshape(b.shape) for col in cols))


def _pick_stable(solved: Branches, branch: Branch) -> tuple[float, float]:
    """(u, nu) of ``branch`` in a scalar solve, NaN where it is absent:
    MarginalAttractorError where it is marginal."""
    u, nu = solved.pick(branch)
    if nu == 0.0:
        raise MarginalAttractorError(f"{branch.value} attractor is marginal")
    return u, nu


def _pick_required(beta: float, kappa_scaled: float, branch: Branch) -> tuple[float, float]:
    """(u, nu) of ``branch`` at the scalar ``beta``: ValueError where the
    branch is absent, MarginalAttractorError where it is marginal."""
    u, nu = _pick_stable(solve_branches(beta, kappa_scaled), branch)
    if math.isnan(u):
        raise ValueError(
            f"no {branch.value}-amplitude attractor exists at beta={beta:g}, "
            f"kappa_scaled={kappa_scaled:g}"
        )
    return u, nu


def _turning_radii(kappa_scaled: float) -> tuple[float, float]:
    """Radii where d beta/d u = 0: u = [2 -/+ sqrt(1 - 3 kappa_scaled^2)] / 3."""
    root = math.sqrt(max(1.0 - 3.0 * kappa_scaled**2, 0.0))
    return (2.0 - root) / 3.0, (2.0 + root) / 3.0


def bifurcation_betas(kappa_scaled: float) -> BifurcationInfo:
    """Bistability window boundaries: extrema of beta(u) at d beta/d u = 0.

    Bistable iff kappa_scaled^2 < 1/3; the turning radii are
    u = [2 -/+ sqrt(1 - 3 kappa_scaled^2)] / 3.
    """
    _check_kappa_scaled(kappa_scaled)
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


def _quadratures(u, beta, kappa_scaled: float) -> tuple[np.ndarray, np.ndarray]:
    """Rotating-frame quadratures (Q, P) of steady states ``u`` at drive ``beta``.

    Q = u (u - 1) / sqrt(beta) and P = -kappa_scaled u / sqrt(beta), so that
    Q^2 + P^2 = u on the cubic; both are zero at beta = 0.  Of the broadcast
    shape of ``u`` and ``beta``.
    """
    # beta = 0 has the one root u = 0; a divisor of 1 there keeps 0/0 out
    root = np.sqrt(beta)
    safe = np.where(root > 0.0, root, 1.0)
    return u * (u - 1.0) / safe, -kappa_scaled * u / safe


def drift_matrix(u, beta, kappa_scaled: float) -> np.ndarray:
    """Jacobians of the rotating-frame drift at steady states (units of |dw|).

    ``u`` and ``beta`` are floats or arrays that broadcast, for instance the
    columns of :func:`solve_branches` and its grid; the result has shape
    ``broadcast(u, beta).shape + (2, 2)``, NaN where ``u`` is.  Rows/columns
    1 and 2 of each matrix correspond to the Q and P quadratures.  The trace
    is exactly -2*kappa_scaled and the determinant equals nu_scaled^2, so the
    eigenvalues are -kappa_scaled +/- sqrt(kappa_scaled^2 - nu_scaled^2).
    """
    return _drift(u, *_quadratures(u, beta, kappa_scaled), kappa_scaled)


def _strictly_stable(trace, det, frob2):
    """The one stability rule of a 2x2 drift K, from its trace, det K and
    |K|_F^2: tr K < 0 and det K > STABILITY_TOL |K|_F^2.

    A real 2x2 matrix is stable iff tr K < 0 and det K > 0; the determinant
    is held to a margin relative to |K|_F^2, its own scale, so a marginal
    steady state (det K at rounding level) is refused at any drive strength.
    """
    return (trace < 0.0) & (det > STABILITY_TOL * frob2)


def _drift(u, q, p, kappa_scaled: float) -> np.ndarray:
    # drift_matrix from the quadratures (q, p) of the steady states u
    k = np.empty(np.shape(q) + (2, 2))
    k[..., 0, 0] = -2.0 * p * q - kappa_scaled
    k[..., 0, 1] = -(u - 1.0 + 2.0 * p * p)
    k[..., 1, 0] = u - 1.0 + 2.0 * q * q
    k[..., 1, 1] = 2.0 * q * p - kappa_scaled
    return k
