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


# phases of the three trigonometric roots, in ascending order of the root
_SHIFTS = np.array([2.0 * math.pi * kk / 3.0 for kk in (2, 1, 0)])


def _seeds(beta: np.ndarray, kappa_scaled: float) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form roots of u^3 - 2u^2 + (1 + k^2)u - beta = 0 per beta.

    Returns a (3, n) array, one row per root in ascending order, NaN-padded
    in rows 1 and 2, and the mask of the betas with three real roots:
    trigonometric form where the discriminant is positive, cancellation-safe
    Cardano for the one real root otherwise.  ``np.arccos``, ``np.cos`` and
    ``np.cbrt`` are each one call over the betas of their form, and each
    value has the bits of a call on that beta alone.
    """
    k2 = kappa_scaled * kappa_scaled
    roots = np.full((3, beta.size), np.nan)
    # depressed cubic t^3 + p t + q with u = t + 2/3
    p = k2 - 1.0 / 3.0
    try:
        p3 = p**3
    except OverflowError:  # a power of the cubic's coefficients
        roots[0] = np.where(beta == 0.0, 0.0, math.inf)
        return roots, np.zeros(beta.size, dtype=bool)
    q = (2.0 + 18.0 * k2) / 27.0 - beta
    # beta = 0 gives u = 0 alone: the quadratic factor u^2 - 2u + 1 + k^2
    # has no real roots there, whatever the discriminant rounds to
    three = (-4.0 * p3 - 27.0 * q * q > 0.0) & (beta != 0.0)

    n_three = np.count_nonzero(three)
    # the betas of each form, as a slice where every beta has it: no copy
    if n_three:
        rows = three if n_three < beta.size else slice(None)
        m = 2.0 * math.sqrt(-p / 3.0)
        cos3 = np.minimum(np.maximum(3.0 * q[rows] / (p * m), -1.0), 1.0)
        theta = np.arccos(cos3) / 3.0
        roots[:, rows] = m * np.cos(theta - _SHIFTS[:, None]) + 2.0 / 3.0
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
        roots[0, one] = np.where(beta[one] == 0.0, 0.0, a + b + 2.0 / 3.0)
    return roots, three


def _polish(roots: np.ndarray, beta: np.ndarray, c1: float) -> None:
    """Newton on the original cubic, in place on the (3, n) roots.

    Near bifurcations the closed forms alone lose digits as roots collide.
    Each value stops on its own rule: a step at or below the larger of
    1e-15 relative and the rounding floor of the step, a step above 1e-6
    relative, or 50 iterations.  The floor is the residual's rounding,
    4 eps (|x|^3 + 2x^2 + c1 |x| + beta), over the slope: below it a step is
    rounding noise, and where the slope is small the value would otherwise
    wander by a few ulp until the cap.  The seeds are good to ~1e-8 even
    at a double root, so a longer step divides by a slope at rounding level
    (a seed on a turning radius) and could carry the value to another root:
    the value ends where it is.  NaN padding is left alone.
    """
    u = roots.reshape(-1)
    np.maximum(u, 0.0, out=u)
    idx = (u == u).nonzero()[0]  # the values that are not NaN padding
    x, b = u[idx], beta[idx % beta.size]
    for _ in range(50):
        df = (3.0 * x - 4.0) * x + c1
        step = (((x - 2.0) * x + c1) * x - b) / df
        new = x - step
        size = np.abs(step)
        ax = np.abs(x)
        floor = 4.0 * _EPS * (((ax + 2.0) * ax + c1) * ax + b) / np.abs(df)
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


def _graze(roots: np.ndarray, three: np.ndarray, kappa_scaled: float) -> np.ndarray:
    """Surface a grazing pair next to one polished root; the new three-root mask.

    A bifurcation value rounded to the one-root side of the cubic's
    discriminant leaves the pair of the quadratic factor complex or real,
    as that factor's own discriminant rounds; where the pair is closer
    than ``_MERGE_TOL`` it is the degenerate real double root it represents.
    With u = r a root, the factor is u^2 + (r - 2)u + 1 + k^2 + r(r - 2),
    whose discriminant needs no division by a possibly subnormal r.
    """
    r = roots[0]
    center = 0.5 * (2.0 - r)
    disc2 = (4.0 - 3.0 * r) * r - 4.0 * kappa_scaled * kappa_scaled
    graze = 0.5 * np.sqrt(np.abs(disc2)) < _MERGE_TOL * np.maximum(1.0, center)
    if not np.count_nonzero(graze):  # the usual case: no pair that near
        return three
    graze &= ~three & (r > 0.0)
    roots[1:, graze] = center[graze]
    return three | graze


def _sort_rows(roots: np.ndarray) -> None:
    """Sort each column of the (3, n) roots in place, with the bits of
    ``np.sort(roots, axis=0)``: a compare-exchange network on whole rows.

    NaN padding sits only in rows 1 and 2 and compares false, so it stays
    last, where ``np.sort`` puts it.
    """
    for i, j in ((0, 1), (1, 2), (0, 1)):
        lo, hi = roots[i], roots[j]
        swap = hi < lo
        if np.count_nonzero(swap):
            lo[swap], hi[swap] = hi[swap], lo[swap]


def _merge(roots: np.ndarray, beta: np.ndarray, kappa_scaled: float) -> None:
    """Collapse a numerically degenerate pair (bifurcation point) in place.

    On the sorted, NaN-padded (3, n) roots, a pair closer than
    ``_MERGE_TOL`` becomes one entry at the analytic turning radius: the
    lower pair in row 0, the upper pair in row 2, with row 1 emptied, so
    that whichever side the pair sits on, the lower-u entry is the small
    branch.  NaN padding makes both tests false where a beta has one root.  Near a double root the polished pair is only good to ~sqrt(eps)
    (Newton converges there linearly), which could leave det K of either
    root above the :func:`_strictly_stable` margin; at the turning radius
    det K = 0, so the entry is marginal by that rule.

    Where the slope of the cubic is at rounding level, Newton's steps are
    rounding noise over that slope, and the polished pair can end up to
    ~1e-6 apart.  So a pair also merges where ``beta`` lies as close to the
    edge beta(u_t) as a pair ``_MERGE_TOL`` apart would:
    |beta - beta(u_t)| <= |beta''(u_t)| / 2 * (_MERGE_TOL / 2)^2, with
    |beta''(u_t)| = 2 sqrt(1 - 3 kappa_scaled^2) at both turning radii u_t.
    """
    # (r1 - r0, r2 - r1) against the tolerance at the upper root of each pair
    close = roots[1:] - roots[:-1] < _MERGE_TOL * np.maximum(1.0, roots[1:])
    u_minus, u_plus = _turning_radii(kappa_scaled)
    edge_tol = (u_plus - u_minus) * 1.5 * (0.5 * _MERGE_TOL) ** 2
    # the lower pair merges at beta_high = beta(u_minus), the upper at beta_low
    edges = np.array([[_beta_of_u(u_minus, kappa_scaled)], [_beta_of_u(u_plus, kappa_scaled)]])
    three = roots[1] == roots[1]  # not NaN: the beta has three roots
    close |= three & (abs(beta - edges) <= edge_tol)
    if np.count_nonzero(close):
        low = close[0]
        high = close[1] & ~low
        roots[0, low] = np.where(roots[0, low] < 2.0 / 3.0, u_minus, u_plus)
        roots[2, high] = np.where(roots[1, high] < 2.0 / 3.0, u_minus, u_plus)
        roots[1, low | high] = math.nan


def solve_branches(beta: float | np.ndarray, kappa_scaled: float) -> Branches:
    """Small, unstable and large steady states at each drive intensity.

    ``beta: float | ndarray``; every field of the result has its shape, and
    for an array ``beta`` each is C-contiguous: the roots are solved as a
    (3, n) array, one row per branch.  The roots of the cubic come from
    closed forms polished by Newton.  A pair closer than a relative
    ``_MERGE_TOL`` (a bifurcation) is one entry at the analytic turning
    radius; so is a grazing pair that the cubic's discriminant rounds away.
    Outside the bistable window the one root is the small branch for
    u <= 2/3 and the large branch above.  A small or
    large entry whose drift fails :func:`_strictly_stable`, the rule that
    :func:`duffing_qubit.fluctuations.stationary_covariance` applies, is
    marginal, with nu = 0.  The rule is evaluated on the cubic, with no drift
    built: det K = nu^2 and |K|_F^2 = 2 (kappa_scaled^2 + (2u - 1)^2 + u^2).

    Raises ValueError for a negative or non-finite ``beta``, a non-positive
    or non-finite ``kappa_scaled``, and where the steady state is too large
    to represent.
    """
    b = np.asarray(beta, dtype=float)
    flat = _check_beta(b)
    _check_kappa_scaled(kappa_scaled)
    ks2 = kappa_scaled**2  # OverflowError for a kappa_scaled past ~1e154

    with np.errstate(all="ignore"):
        roots, three = _seeds(flat, kappa_scaled)
        _polish(roots, flat, 1.0 + kappa_scaled * kappa_scaled)

        n_three = np.count_nonzero(three)
        if n_three < flat.size:
            three = _graze(roots, three, kappa_scaled)
            n_three = np.count_nonzero(three)
        # the seeds are ascending, and Newton seldom reorders them
        if n_three and np.count_nonzero(roots[1:] < roots[:-1]):
            _sort_rows(roots)

        if np.count_nonzero(np.isfinite(roots)) < flat.size + 2 * n_three:
            bad = ~np.isfinite(np.where(three, roots[2], roots[0]))
            raise ValueError(
                f"no finite steady state at beta={flat[bad][0]:g}, "
                f"kappa_scaled={kappa_scaled:g}"
            )
        if n_three:
            _merge(roots, flat, kappa_scaled)
        if n_three < flat.size:
            # one root is the large branch above u = 2/3: [r, nan, nan] -> [nan, nan, r]
            large = ~three & (roots[0] > 2.0 / 3.0)
            if np.count_nonzero(large):
                roots[:, large] = roots[::-1, large]

        # det K = nu^2 and |K|_F^2 of each stable root's drift (Q^2 + P^2 = u),
        # on a copy of rows 0 and 2: a ufunc call on the strided pair costs more
        ends = roots[::2].copy()
        det = ks2 + (3.0 * ends - 4.0) * ends + 1.0
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
