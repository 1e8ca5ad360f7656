"""Accuracy budgets of the printed columns against a 50-digit reference.

Each column is held to c * (cond + 1) ulps of the exact value for its float
inputs, where cond is the column's condition number with respect to those
inputs: the error the problem itself allows, plus the rounding of the last
operation.  The reference is mpmath at 50 digits.  The constants c are the
measured worst case on these draws, doubled.

The steady state: u solves u((u - 1)^2 + kappa^2) = beta, and
nu^2 = kappa^2 + (3u - 1)(u - 1), so

    cond(u) = beta / (u nu^2),    cond(nu) = beta |6u - 4| / (2 nu^4).
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest

from duffing_qubit import Branch, solve_branches

# worst error / (cond + 1) over both draws below: 1.95 ulps for u and
# 11.6 for nu
C_U = 4.0
C_NU = 24.0


def steady_state_reference(beta: float, kappa: float, u: float) -> tuple:
    """(u, nu) of the root next to ``u`` at 50 digits, as mpmath numbers,
    and (cond(u), cond(nu)) as floats."""
    with mpmath.workdps(50):
        k2, b = mpmath.mpf(kappa) ** 2, mpmath.mpf(beta)
        root = mpmath.findroot(lambda x: x * ((x - 1) ** 2 + k2) - b, mpmath.mpf(u))
        gap = mpmath.sqrt(k2 + (3 * root - 1) * (root - 1))
    ref_u, ref_nu = float(root), float(gap)
    return root, gap, beta / (ref_u * ref_nu**2), beta * abs(6.0 * ref_u - 4.0) / (2.0 * ref_nu**4)


def ulps(got: float, ref) -> float:
    """|got - ref| in units of the spacing of doubles at ``ref``."""
    with mpmath.workdps(50):
        return float(abs(mpmath.mpf(got) - ref)) / float(np.spacing(float(ref)))


def _log_uniform(rng, lo: float, hi: float, n: int | None = None):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), n))


def _draws(order: str) -> list[tuple[float, float]]:
    """1500 (kappa, beta) draws, kappa log-uniform in [0.01, 0.57] and beta
    in [1e-3, 3.2], from numpy seed 7: all kappas first, or pair by pair."""
    rng = np.random.default_rng(7)
    if order == "kappa_first":
        kappas = _log_uniform(rng, 0.01, 0.57, 1500)
        return list(zip(kappas.tolist(), _log_uniform(rng, 1e-3, 3.2, 1500).tolist()))
    return [(float(_log_uniform(rng, 0.01, 0.57)), float(_log_uniform(rng, 1e-3, 3.2)))
            for _ in range(1500)]


@pytest.mark.parametrize("order", ["kappa_first", "pairs"])
def test_stable_roots_within_their_budget(order):
    worst_u = worst_nu = 0.0
    for kappa, beta in _draws(order):
        solved = solve_branches(beta, kappa)
        for branch in (Branch.SMALL, Branch.LARGE):
            u, nu = solved.pick(branch)
            if math.isnan(u) or nu == 0.0:
                continue
            ref_u, ref_nu, cond_u, cond_nu = steady_state_reference(beta, kappa, u)
            worst_u = max(worst_u, ulps(u, ref_u) / (cond_u + 1.0))
            worst_nu = max(worst_nu, ulps(nu, ref_nu) / (cond_nu + 1.0))
    assert worst_u <= C_U and worst_nu <= C_NU, (worst_u, worst_nu)
