import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from duffing_qubit import (
    Branch,
    bifurcation_betas,
    drift_matrix,
    solve_attractors,
)


def beta_of_u(u, kappa):
    return u * ((u - 1.0) ** 2 + kappa**2)


def bisect_cubic_root(beta, kappa, lo=0.0, hi=2.0):
    """Brute-force oracle for the unique root on a monotone bracket."""
    f = lambda u: beta_of_u(u, kappa) - beta
    assert f(lo) <= 0 <= f(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def extremization_oracle(kappa):
    """Bistability boundaries by direct numeric extremization of beta(u)."""
    top = minimize_scalar(
        lambda u: -beta_of_u(u, kappa), bounds=(1e-9, 2.0 / 3.0),
        method="bounded", options={"xatol": 1e-14},
    )
    bottom = minimize_scalar(
        lambda u: beta_of_u(u, kappa), bounds=(2.0 / 3.0, 4.0 / 3.0),
        method="bounded", options={"xatol": 1e-14},
    )
    return bottom.fun, -top.fun  # (beta_low, beta_high)


class TestSolveAttractors:
    def test_undriven_fixed_point(self):
        (a,) = solve_attractors(0.0, 0.3)
        assert a.u == 0.0 and a.q == 0.0 and a.p == 0.0
        assert math.isclose(a.nu_scaled**2, 0.3**2 + 1.0, rel_tol=1e-12)
        assert a.branch is Branch.SMALL

    def test_bistable_point_has_three_roots(self):
        ats = solve_attractors(0.12, 0.3)
        assert [a.branch for a in ats] == [Branch.SMALL, Branch.UNSTABLE, Branch.LARGE]
        assert ats[0].u < ats[1].u < ats[2].u

    def test_single_root_against_bisection_oracle(self):
        kappa, beta = 0.3, 0.05
        ats = solve_attractors(beta, kappa)
        assert len(ats) == 1
        oracle = bisect_cubic_root(beta, kappa)
        assert math.isclose(ats[0].u, oracle, rel_tol=1e-11)
        # weak drive: u ~ beta/(1 + kappa^2) with an O(beta^2) correction
        assert abs(ats[0].u - beta / (1 + kappa**2)) < 3.0 * beta**2

    @pytest.mark.parametrize("kappa", [0.05, 0.3, 0.5, 1.0])
    def test_residual_and_coordinates(self, kappa):
        for beta in np.linspace(0.0, 0.5, 81):
            for a in solve_attractors(float(beta), kappa):
                if a.marginal:
                    continue
                res = abs(beta_of_u(a.u, kappa) - beta)
                assert res <= 1e-10 * max(beta, 1.0)
                assert math.isclose(a.q**2 + a.p**2, a.u, rel_tol=1e-9, abs_tol=1e-12)

    @pytest.mark.parametrize("kappa", [0.1, 0.3, 0.57])
    def test_count_matches_window(self, kappa):
        info = bifurcation_betas(kappa)
        for beta in np.linspace(1e-4, 0.4, 173):
            n = len(solve_attractors(float(beta), kappa))
            if info.bistable and info.beta_low < beta < info.beta_high:
                assert n == 3
            else:
                assert n == 1

    def test_single_root_branch_label_continuity(self):
        info = bifurcation_betas(0.3)
        (low,) = solve_attractors(0.99 * info.beta_low, 0.3)
        assert low.branch is Branch.SMALL
        (high,) = solve_attractors(1.01 * info.beta_high, 0.3)
        assert high.branch is Branch.LARGE

    def test_marginal_pair_at_exact_boundary(self):
        info = bifurcation_betas(0.3)
        ats = solve_attractors(info.beta_high, 0.3)
        assert len(ats) == 2
        marginal = [a for a in ats if a.marginal]
        assert len(marginal) == 1
        assert marginal[0].nu_scaled == 0.0
        assert marginal[0].branch is Branch.SMALL
        assert not marginal[0].stable
        ats = solve_attractors(info.beta_low, 0.3)
        marginal = [a for a in ats if a.marginal]
        assert len(marginal) == 1 and marginal[0].branch is Branch.LARGE

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            solve_attractors(-0.1, 0.3)
        with pytest.raises(ValueError):
            solve_attractors(0.1, 0.0)


class TestBifurcation:
    def test_against_extremization_oracle(self):
        for kappa in (0.1, 0.3, 0.5):
            info = bifurcation_betas(kappa)
            lo, hi = extremization_oracle(kappa)
            assert abs(info.beta_low - lo) < 1e-10
            assert abs(info.beta_high - hi) < 1e-10

    def test_small_damping_limit(self):
        info = bifurcation_betas(1e-9)
        assert math.isclose(info.beta_high, 4.0 / 27.0, rel_tol=1e-8)

    def test_strong_damping_is_monostable(self):
        assert not bifurcation_betas(1.0).bistable
        assert bifurcation_betas(0.5).bistable  # 3*0.25 < 1

    def test_gap_closes_at_boundaries(self):
        info = bifurcation_betas(0.3)
        for beta_edge in (info.beta_low, info.beta_high):
            for a in solve_attractors(beta_edge, 0.3):
                if a.marginal:
                    det = float(np.linalg.det(drift_matrix(a, 0.3)))
                    assert abs(det) < 1e-8

    @pytest.mark.parametrize("kappa", [0.02, 0.053166, 0.06, 0.1, 0.105678,
                                       0.3, 0.321752, 0.45, 0.57])
    def test_exact_edges_solve_and_marginal_gap_closes(self, kappa):
        # 0.06 once hit a negative Cardano radicand (math domain error) and
        # the others left a merged pair ~1e-8 off the turning radius
        info = bifurcation_betas(kappa)
        turning = (info.u_at_beta_low, info.u_at_beta_high)
        for beta_edge in (info.beta_low, info.beta_high):
            for a in solve_attractors(beta_edge, kappa):
                assert abs(a.u * ((a.u - 1) ** 2 + kappa**2) - beta_edge) < 1e-10
                if a.marginal:
                    assert a.u in turning
                    det = float(np.linalg.det(drift_matrix(a, kappa)))
                    assert abs(det) < 1e-8

    def test_gap_continuous_to_zero(self):
        info = bifurcation_betas(0.3)
        nus = []
        for eps in np.geomspace(1e-2, 1e-10, 9):
            beta = info.beta_high * (1.0 - float(eps))
            small = solve_attractors(beta, 0.3)[0]
            assert small.branch is Branch.SMALL
            nus.append(small.nu_scaled)
        assert all(a > b for a, b in zip(nus, nus[1:]))
        assert nus[-1] < 1e-2


class TestDriftMatrix:
    def test_undriven_rotating_frame(self):
        (a,) = solve_attractors(0.0, 0.3)
        k = drift_matrix(a, 0.3)
        assert np.allclose(k, [[-0.3, 1.0], [-1.0, -0.3]], atol=1e-15)

    @pytest.mark.parametrize("kappa", [0.1, 0.3, 0.5])
    def test_trace_and_determinant_identities(self, kappa):
        for beta in np.linspace(0.0, 0.4, 41):
            for a in solve_attractors(float(beta), kappa):
                if a.marginal:
                    continue
                k = drift_matrix(a, kappa)
                assert math.isclose(np.trace(k), -2.0 * kappa, rel_tol=1e-13)
                det = float(np.linalg.det(k))
                expected = kappa**2 + 3.0 * a.u**2 - 4.0 * a.u + 1.0
                assert math.isclose(det, expected, rel_tol=1e-9, abs_tol=1e-12)
                if a.branch is Branch.UNSTABLE:
                    assert det < 0.0
                else:
                    assert math.isclose(det, a.nu_scaled**2, rel_tol=1e-9,
                                        abs_tol=1e-12)

    def test_eigenvalue_structure(self):
        for a in solve_attractors(0.12, 0.3):
            eigs = np.linalg.eigvals(drift_matrix(a, 0.3))
            if a.branch is Branch.UNSTABLE:
                assert max(e.real for e in eigs) > 0.0
            else:
                # underdamped here: real parts exactly -kappa
                assert np.allclose([e.real for e in eigs], -0.3, atol=1e-12)
                expected = math.sqrt(a.nu_scaled**2 - 0.09)
                assert math.isclose(max(e.imag for e in eigs), expected, rel_tol=1e-9)
            assert np.allclose(sorted(e.real for e in eigs),
                               sorted(e.real for e in a.eigenvalues), atol=1e-9)

    def test_weak_drive_is_stable(self):
        # pins the global sign convention of the drift field
        for beta in (1e-6, 1e-3, 0.01):
            (a,) = solve_attractors(beta, 0.3)
            eigs = np.linalg.eigvals(drift_matrix(a, 0.3))
            assert max(e.real for e in eigs) < 0.0


class TestGapScaling:
    def test_square_root_in_amplitude_distance(self):
        info = bifurcation_betas(0.3)
        eps = np.geomspace(1e-7, 1e-3, 9)
        dus, nus = [], []
        for e in eps:
            small = solve_attractors(info.beta_high * (1.0 - float(e)), 0.3)[0]
            dus.append(info.u_at_beta_high - small.u)
            nus.append(small.nu_scaled)
        slope = np.polyfit(np.log(dus), np.log(nus), 1)[0]
        assert abs(slope - 0.5) <= 0.05

    def test_squared_gap_square_root_in_beta_distance(self):
        for edge, branch_idx in (("beta_high", 0), ("beta_low", -1)):
            info = bifurcation_betas(0.3)
            beta_edge = getattr(info, edge)
            eps = np.geomspace(1e-7, 1e-3, 9)
            dbs, nus = [], []
            for e in eps:
                beta = beta_edge * (1.0 - float(e)) if edge == "beta_high" \
                    else beta_edge * (1.0 + float(e))
                a = solve_attractors(beta, 0.3)[branch_idx]
                dbs.append(abs(beta - beta_edge))
                nus.append(a.nu_scaled)
            slope = np.polyfit(np.log(dbs), np.log(np.array(nus) ** 2), 1)[0]
            assert abs(slope - 0.5) <= 0.05

    def test_quarter_power_of_gap_in_beta_distance(self):
        # nu^2 = d beta/d u vanishes linearly in u - u_bif while beta is
        # quadratic there, so nu itself goes as |beta - beta_bif|^(1/4)
        info = bifurcation_betas(0.3)
        eps = np.geomspace(1e-7, 1e-3, 9)
        dbs, nus = [], []
        for e in eps:
            small = solve_attractors(info.beta_high * (1.0 - float(e)), 0.3)[0]
            dbs.append(info.beta_high * float(e))
            nus.append(small.nu_scaled)
        slope = np.polyfit(np.log(dbs), np.log(nus), 1)[0]
        assert abs(slope - 0.25) <= 0.03


class TestInputDomain:
    @pytest.mark.parametrize("beta, kappa", [
        (math.nan, 0.3), (math.inf, 0.3), (-math.inf, 0.3),
        (0.1, math.nan), (0.1, math.inf),
    ])
    def test_nonfinite_inputs_are_refused(self, beta, kappa):
        with pytest.raises(ValueError, match="finite"):
            solve_attractors(beta, kappa)

    @pytest.mark.parametrize("beta", [1e150, 1e200, 1e300, 1e308, 1.7e308])
    def test_huge_beta_solves_the_cubic(self, beta):
        (a,) = solve_attractors(beta, 0.3)
        assert math.isfinite(a.u) and math.isfinite(a.nu_scaled)
        assert math.isclose(a.u * ((a.u - 1.0) ** 2 + 0.09), beta, rel_tol=1e-12)
        assert math.isclose(a.u, beta ** (1.0 / 3.0), rel_tol=1e-10)

    def test_window_of_nonfinite_or_huge_damping(self):
        for kappa in (math.nan, math.inf, -1.0):
            with pytest.raises(ValueError, match="finite"):
                bifurcation_betas(kappa)
        assert not bifurcation_betas(1e300).bistable
