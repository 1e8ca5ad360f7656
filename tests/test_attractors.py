import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from duffing_qubit import (
    Branch,
    Branches,
    bifurcation_betas,
    drift_matrix,
    solve_branches,
)
from duffing_qubit import attractors
from duffing_qubit.attractors import _quadratures


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


def steady_states(beta, kappa):
    """(branch, u, nu) of each steady state of a scalar solve, by u; nu is 0
    on a marginal entry, and the unstable branch has no nu (NaN)."""
    s = solve_branches(beta, kappa)
    rows = [(Branch.SMALL, *s.pick(Branch.SMALL)),
            (Branch.UNSTABLE, s.u_unstable, math.nan),
            (Branch.LARGE, *s.pick(Branch.LARGE))]
    return [row for row in rows if not math.isnan(row[1])]


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
    """A scalar beta: each branch's steady state as Python floats."""

    def test_undriven_fixed_point(self):
        ((branch, u, nu),) = steady_states(0.0, 0.3)
        assert branch is Branch.SMALL and u == 0.0 and nu != 0.0
        assert _quadratures(u, 0.0, 0.3) == (0.0, 0.0)
        assert math.isclose(nu**2, 0.3**2 + 1.0, rel_tol=1e-12)

    def test_bistable_point_has_three_roots(self):
        states = steady_states(0.12, 0.3)
        assert [row[0] for row in states] == [Branch.SMALL, Branch.UNSTABLE, Branch.LARGE]
        assert states[0][1] < states[1][1] < states[2][1]
        assert not any(row[2] == 0.0 for row in states)

    def test_single_root_against_bisection_oracle(self):
        kappa, beta = 0.3, 0.05
        ((branch, u, _),) = steady_states(beta, kappa)
        assert branch is Branch.SMALL
        oracle = bisect_cubic_root(beta, kappa)
        assert math.isclose(u, oracle, rel_tol=1e-11)
        # weak drive: u ~ beta/(1 + kappa^2) with an O(beta^2) correction
        assert abs(u - beta / (1 + kappa**2)) < 3.0 * beta**2

    @pytest.mark.parametrize("kappa", [0.05, 0.3, 0.5, 1.0])
    def test_residual_and_coordinates(self, kappa):
        for beta in np.linspace(0.0, 0.5, 81).tolist():
            for _, u, nu in steady_states(beta, kappa):
                if nu == 0.0:
                    continue
                res = abs(beta_of_u(u, kappa) - beta)
                assert res <= 1e-10 * max(beta, 1.0)
                q, p = _quadratures(u, beta, kappa)
                assert math.isclose(q**2 + p**2, u, rel_tol=1e-9, abs_tol=1e-12)

    @pytest.mark.parametrize("kappa", [0.1, 0.3, 0.57])
    def test_count_matches_window(self, kappa):
        info = bifurcation_betas(kappa)
        for beta in np.linspace(1e-4, 0.4, 173):
            n = len(steady_states(float(beta), kappa))
            if info.bistable and info.beta_low < beta < info.beta_high:
                assert n == 3
            else:
                assert n == 1

    def test_single_root_branch_label_continuity(self):
        info = bifurcation_betas(0.3)
        ((low, *_),) = steady_states(0.99 * info.beta_low, 0.3)
        assert low is Branch.SMALL
        ((high, *_),) = steady_states(1.01 * info.beta_high, 0.3)
        assert high is Branch.LARGE

    def test_marginal_pair_at_exact_boundary(self):
        info = bifurcation_betas(0.3)
        states = steady_states(info.beta_high, 0.3)
        assert len(states) == 2
        marginal = [row for row in states if row[2] == 0.0]
        assert len(marginal) == 1
        branch, _, nu = marginal[0]
        assert nu == 0.0 and branch is Branch.SMALL
        states = steady_states(info.beta_low, 0.3)
        marginal = [row for row in states if row[2] == 0.0]
        assert len(marginal) == 1 and marginal[0][0] is Branch.LARGE

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            solve_branches(-0.1, 0.3)
        with pytest.raises(ValueError):
            solve_branches(0.1, 0.0)


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
            for _, u, nu in steady_states(beta_edge, 0.3):
                if nu == 0.0:
                    det = float(np.linalg.det(drift_matrix(u, beta_edge, 0.3)))
                    assert abs(det) < 1e-8

    @pytest.mark.parametrize("kappa", [0.02, 0.053166, 0.06, 0.1, 0.105678,
                                       0.3, 0.321752, 0.45, 0.57])
    def test_exact_edges_solve_and_marginal_gap_closes(self, kappa):
        # 0.06 once hit a negative Cardano radicand (math domain error) and
        # the others left a merged pair ~1e-8 off the turning radius
        info = bifurcation_betas(kappa)
        turning = (info.u_at_beta_low, info.u_at_beta_high)
        for beta_edge in (info.beta_low, info.beta_high):
            for _, u, nu in steady_states(beta_edge, kappa):
                assert abs(u * ((u - 1) ** 2 + kappa**2) - beta_edge) < 1e-10
                if nu == 0.0:
                    assert u in turning
                    det = float(np.linalg.det(drift_matrix(u, beta_edge, kappa)))
                    assert abs(det) < 1e-8

    def test_gap_continuous_to_zero(self):
        info = bifurcation_betas(0.3)
        nus = []
        for eps in np.geomspace(1e-2, 1e-10, 9):
            beta = info.beta_high * (1.0 - float(eps))
            _, nu = solve_branches(beta, 0.3).pick(Branch.SMALL)
            assert nu > 0.0
            nus.append(nu)
        assert all(a > b for a, b in zip(nus, nus[1:]))
        assert nus[-1] < 1e-2


class TestDriftMatrix:
    def test_undriven_rotating_frame(self):
        k = drift_matrix(solve_branches(0.0, 0.3).u_small, 0.0, 0.3)
        assert np.allclose(k, [[-0.3, 1.0], [-1.0, -0.3]], atol=1e-15)

    @pytest.mark.parametrize("kappa", [0.1, 0.3, 0.5])
    def test_trace_and_determinant_identities(self, kappa):
        for beta in np.linspace(0.0, 0.4, 41).tolist():
            for branch, u, nu in steady_states(beta, kappa):
                if nu == 0.0:
                    continue
                k = drift_matrix(u, beta, kappa)
                assert math.isclose(np.trace(k), -2.0 * kappa, rel_tol=1e-13)
                det = float(np.linalg.det(k))
                expected = kappa**2 + 3.0 * u**2 - 4.0 * u + 1.0
                assert math.isclose(det, expected, rel_tol=1e-9, abs_tol=1e-12)
                if branch is Branch.UNSTABLE:
                    assert det < 0.0
                else:
                    assert math.isclose(det, nu**2, rel_tol=1e-9, abs_tol=1e-12)

    def test_eigenvalue_structure(self):
        for branch, u, nu in steady_states(0.12, 0.3):
            eigs = np.linalg.eigvals(drift_matrix(u, 0.12, 0.3))
            if branch is Branch.UNSTABLE:
                assert max(e.real for e in eigs) > 0.0
            else:
                # underdamped here: real parts exactly -kappa
                assert np.allclose([e.real for e in eigs], -0.3, atol=1e-12)
                expected = math.sqrt(nu**2 - 0.09)
                assert math.isclose(max(e.imag for e in eigs), expected, rel_tol=1e-9)

    @pytest.mark.parametrize("kappa", [0.1, 0.3, 0.5])
    def test_eigenvalues_of_the_drift_stack(self, kappa):
        # -kappa +/- sqrt(kappa^2 - nu^2), with nu^2 the determinant
        # kappa^2 + 3u^2 - 4u + 1 on the unstable branch
        beta = np.linspace(0.0, 0.3, 61)
        s = solve_branches(beta, kappa)
        u = np.stack([s.u_small, s.u_unstable, s.u_large])
        det = kappa**2 + (3.0 * s.u_unstable - 4.0) * s.u_unstable + 1.0
        nu2 = np.stack([s.nu_small**2, det, s.nu_large**2])
        k = drift_matrix(u, beta, kappa)
        assert k.shape == (3, beta.size, 2, 2)
        rows = ~np.isnan(u) & np.stack([s.nu_small != 0.0, np.ones(beta.size, bool),
                                        s.nu_large != 0.0])
        eigs = np.linalg.eigvals(k[rows])
        root = np.sqrt((kappa**2 - nu2[rows]).astype(complex))
        expected = np.stack([-kappa + root, -kappa - root], axis=1)
        # each eigenvalue against the nearer of the pair, and the pair's sum
        gap = np.abs(eigs[:, :, None] - expected[:, None, :]).min(axis=2)
        assert np.all(gap <= 1e-9 * np.maximum(1.0, np.abs(expected)))
        assert np.allclose(eigs.sum(axis=1), -2.0 * kappa, atol=1e-12)

    def test_weak_drive_is_stable(self):
        # pins the global sign convention of the drift field
        for beta in (1e-6, 1e-3, 0.01):
            ((_, u, _),) = steady_states(beta, 0.3)
            eigs = np.linalg.eigvals(drift_matrix(u, beta, 0.3))
            assert max(e.real for e in eigs) < 0.0


class TestGapScaling:
    def test_square_root_in_amplitude_distance(self):
        info = bifurcation_betas(0.3)
        eps = np.geomspace(1e-7, 1e-3, 9)
        dus, nus = [], []
        for e in eps:
            u, nu = solve_branches(info.beta_high * (1.0 - float(e)), 0.3).pick(Branch.SMALL)
            dus.append(info.u_at_beta_high - u)
            nus.append(nu)
        slope = np.polyfit(np.log(dus), np.log(nus), 1)[0]
        assert abs(slope - 0.5) <= 0.05

    def test_squared_gap_square_root_in_beta_distance(self):
        for edge, branch in (("beta_high", Branch.SMALL), ("beta_low", Branch.LARGE)):
            info = bifurcation_betas(0.3)
            beta_edge = getattr(info, edge)
            eps = np.geomspace(1e-7, 1e-3, 9)
            dbs, nus = [], []
            for e in eps:
                beta = beta_edge * (1.0 - float(e)) if edge == "beta_high" \
                    else beta_edge * (1.0 + float(e))
                _, nu = solve_branches(beta, 0.3).pick(branch)
                dbs.append(abs(beta - beta_edge))
                nus.append(nu)
            slope = np.polyfit(np.log(dbs), np.log(np.array(nus) ** 2), 1)[0]
            assert abs(slope - 0.5) <= 0.05

    def test_quarter_power_of_gap_in_beta_distance(self):
        # nu^2 = d beta/d u vanishes linearly in u - u_bif while beta is
        # quadratic there, so nu itself goes as |beta - beta_bif|^(1/4)
        info = bifurcation_betas(0.3)
        eps = np.geomspace(1e-7, 1e-3, 9)
        dbs, nus = [], []
        for e in eps:
            _, nu = solve_branches(info.beta_high * (1.0 - float(e)), 0.3).pick(Branch.SMALL)
            dbs.append(info.beta_high * float(e))
            nus.append(nu)
        slope = np.polyfit(np.log(dbs), np.log(nus), 1)[0]
        assert abs(slope - 0.25) <= 0.03


class TestInputDomain:
    @pytest.mark.parametrize("beta, kappa", [
        (math.nan, 0.3), (math.inf, 0.3), (-math.inf, 0.3),
        (0.1, math.nan), (0.1, math.inf),
    ])
    def test_nonfinite_inputs_are_refused(self, beta, kappa):
        with pytest.raises(ValueError, match="finite"):
            solve_branches(beta, kappa)

    @pytest.mark.parametrize("beta", [1e150, 1e200, 1e300, 1e308, 1.7e308])
    def test_huge_beta_solves_the_cubic(self, beta):
        ((branch, u, nu),) = steady_states(beta, 0.3)
        assert branch is Branch.LARGE
        assert math.isfinite(u) and math.isfinite(nu)
        assert math.isclose(u * ((u - 1.0) ** 2 + 0.09), beta, rel_tol=1e-12)
        assert math.isclose(u, beta ** (1.0 / 3.0), rel_tol=1e-10)

    def test_window_of_nonfinite_or_huge_damping(self):
        for kappa in (math.nan, math.inf, -1.0):
            with pytest.raises(ValueError, match="finite"):
                bifurcation_betas(kappa)
        assert not bifurcation_betas(1e300).bistable


def _per_beta_columns(betas, kappa):
    """The five solve_branches columns, built from one scalar solve per beta."""
    solves = [solve_branches(beta, kappa) for beta in np.asarray(betas, dtype=float).tolist()]
    return {field.name: np.array([getattr(s, field.name) for s in solves])
            for field in dataclasses.fields(Branches)}


def _grid_through_window(kappa, n=401):
    info = bifurcation_betas(kappa)
    grid = np.linspace(0.0, 0.4, n)
    if info.bistable:
        edges = [info.beta_low, info.beta_high]
        near = [e * (1.0 + d) for e in edges for d in (-1e-9, -1e-13, 1e-13, 1e-9)]
        grid = np.concatenate([grid, edges, near])
    return grid


class TestSolveBranches:
    """One array call over a beta grid against one scalar solve per beta."""

    @pytest.mark.parametrize("kappa", [0.02, 0.1, 0.3, 0.321752, 0.5, 0.57])
    def test_array_equals_per_beta_through_the_window(self, kappa):
        self.assert_equal_per_beta(_grid_through_window(kappa), kappa)

    @pytest.mark.parametrize("kappa", [0.6, 1.0, 3.0])
    def test_array_equals_per_beta_monostable(self, kappa):
        self.assert_equal_per_beta(np.linspace(0.0, 2.0, 301), kappa)

    def test_array_equals_per_beta_zero_and_huge(self):
        grid = np.array([0.0, 0.0, 5e-324, 1e-310, 1e-300, 1e-12, 0.12, 1e150, 1e200,
                         1e308, 1.7e308])
        self.assert_equal_per_beta(grid, 0.3)
        s = solve_branches(grid, 0.3)
        assert s.u_small[0] == 0.0 and s.u_small[1] == 0.0
        # at a subnormal beta the root r is subnormal too and 4 beta / r rounds
        # to 4, so a pair test through beta / r would see a grazing pair there
        assert np.isnan(s.u_large[:6]).all() and not (s.nu_large == 0.0).any()

    @staticmethod
    def assert_equal_per_beta(grid, kappa):
        s = solve_branches(grid, kappa)
        for name, expected in _per_beta_columns(grid, kappa).items():
            got = getattr(s, name)
            assert got.shape == grid.shape, name
            assert np.array_equal(got, expected, equal_nan=True), name

    def test_scalar_beta_gives_python_scalars(self):
        s = solve_branches(0.12, 0.3)
        for name in ("u_small", "nu_small", "u_unstable", "u_large", "nu_large"):
            assert type(getattr(s, name)) is float
        assert math.isnan(solve_branches(0.05, 0.3).u_large)

    def test_shape_is_kept(self):
        grid = np.linspace(0.0, 0.3, 12).reshape(3, 4)
        s = solve_branches(grid, 0.3)
        flat = solve_branches(grid.ravel(), 0.3)
        assert s.u_large.shape == (3, 4) and s.nu_small.shape == (3, 4)
        assert np.array_equal(s.u_large.ravel(), flat.u_large, equal_nan=True)

    @pytest.mark.parametrize("shape", [(1,), (12,), (3, 4)])
    def test_columns_are_contiguous(self, shape):
        s = solve_branches(np.linspace(0.0, 0.3, math.prod(shape)).reshape(shape), 0.3)
        for field in dataclasses.fields(s):
            assert getattr(s, field.name).flags.c_contiguous, field.name

    def test_pick(self):
        s = solve_branches(np.array([0.05, 0.12]), 0.3)
        u, nu = s.pick(Branch.LARGE)
        assert u is s.u_large and nu is s.nu_large
        for unstable in (Branch.UNSTABLE, "unstable"):
            with pytest.raises(ValueError, match=r"carry \(u, nu\)"):
                s.pick(unstable)

    @pytest.mark.parametrize("name", ["small", "large"])
    def test_pick_by_value(self, name):
        # Branch is a str enum: its plain value names the same branch
        s = solve_branches(0.12, 0.3)
        assert s.pick(name) == s.pick(Branch(name))

    @pytest.mark.parametrize("bad", [-1e-3, math.nan, math.inf])
    def test_first_bad_beta_is_named(self, bad):
        with pytest.raises(ValueError, match=f"got {bad}"):
            solve_branches(np.array([0.1, bad, -5.0]), 0.3)


class TestBifurcationEdges:
    KAPPAS = np.linspace(0.02, 0.57, 200)

    def test_merging_pair_is_marginal_at_all_400_edges(self):
        # at 155 of these edges the cubic's discriminant once rounded to the
        # one-root side while the pair stayed real, and the pair was dropped
        for kappa in self.KAPPAS.tolist():
            info = bifurcation_betas(kappa)
            for beta, branch, u_edge in (
                (info.beta_low, Branch.LARGE, info.u_at_beta_low),
                (info.beta_high, Branch.SMALL, info.u_at_beta_high),
            ):
                states = steady_states(beta, kappa)
                marginal = [row for row in states if row[2] == 0.0]
                assert len(states) == 2 and len(marginal) == 1, (kappa, beta)
                assert marginal[0] == (branch, u_edge, 0.0)

    @settings(max_examples=300, deadline=None)
    @given(kappa=st.floats(0.02, 0.57))
    # the polished pair once ended 1.2e-7 and 4.2e-6 apart at beta_low here,
    # above _MERGE_TOL, and was reported as two steady states
    @example(kappa=0.16253562355777557)
    @example(kappa=0.1461085727743926)
    def test_merging_pair_is_marginal_at_every_edge(self, kappa):
        info = bifurcation_betas(kappa)
        s = solve_branches(np.array([info.beta_low, info.beta_high]), kappa)
        assert (s.nu_large == 0.0).tolist() == [True, False]
        assert (s.nu_small == 0.0).tolist() == [False, True]
        assert np.isnan(s.u_unstable).all()
        assert s.u_large[0] == info.u_at_beta_low and s.u_small[1] == info.u_at_beta_high

    def test_edges_in_one_array_call(self):
        for kappa in self.KAPPAS[::20].tolist():
            info = bifurcation_betas(kappa)
            s = solve_branches(np.array([info.beta_low, info.beta_high]), kappa)
            assert (s.nu_large == 0.0).tolist() == [True, False]
            assert (s.nu_small == 0.0).tolist() == [False, True]
            assert np.isnan(s.u_unstable).all()


def _mp_real_roots(beta, kappa):
    """Real roots of u^3 - 2u^2 + (1 + k^2)u - beta at 60 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        k2 = mpmath.mpf(kappa) ** 2
        roots = mpmath.polyroots([1, -2, 1 + k2, -mpmath.mpf(beta)],
                                 maxsteps=200, extraprec=200)
        return sorted(float(r.real) for r in roots if abs(r.imag) < mpmath.mpf(10) ** -30)


class TestHighPrecisionOracle:
    @pytest.mark.parametrize("kappa", [0.02, 0.1, 0.3, 0.5])
    @pytest.mark.parametrize("rel", [-1e-6, -1e-8, 1e-8, 1e-6])
    def test_roots_within_1e6_of_each_edge(self, kappa, rel):
        info = bifurcation_betas(kappa)
        grid = np.array([info.beta_low * (1.0 + rel), info.beta_high * (1.0 + rel)])
        s = solve_branches(grid, kappa)
        for i, beta in enumerate(grid.tolist()):
            oracle = _mp_real_roots(beta, kappa)
            got = [u for u in (s.u_small[i], s.u_unstable[i], s.u_large[i])
                   if not math.isnan(u)]
            assert len(got) == len(oracle), (beta, got, oracle)
            inside = info.beta_low < beta < info.beta_high
            assert len(got) == (3 if inside else 1)
            for u, ref in zip(got, oracle):
                assert abs(u - ref) <= 1e-10 * max(1.0, ref), (beta, u, ref)
            assert s.nu_small[i] != 0.0 and s.nu_large[i] != 0.0


class TestSolveBranchesProperties:
    # kappa near 1/sqrt(3) is left out: there the whole window is narrower
    # than the merge tolerance allows a count to be told
    kappas = st.one_of(st.floats(0.01, 0.56), st.floats(0.6, 5.0))
    betas = st.one_of(st.floats(0.0, 0.6), st.floats(0.0, 1e12))

    @settings(max_examples=150, deadline=None)
    @given(st.lists(betas, min_size=1, max_size=20), kappas)
    def test_residual_order_and_count(self, betas, kappa):
        grid = np.array(betas)
        s = solve_branches(grid, kappa)
        info = bifurcation_betas(kappa)
        cols = np.stack([s.u_small, s.u_unstable, s.u_large], axis=1)
        for beta, row in zip(betas, cols.tolist()):
            present = [u for u in row if not math.isnan(u)]
            for u in present:
                assert abs(u * ((u - 1.0) ** 2 + kappa**2) - beta) <= 1e-10 * max(beta, 1.0)
            assert present == sorted(present) and len(set(present)) == len(present)
            if info.bistable and (info.beta_low * (1 + 1e-9) < beta
                                  < info.beta_high * (1 - 1e-9)):
                assert len(present) == 3
            elif not info.bistable or not (info.beta_low * (1 - 1e-9) <= beta
                                           <= info.beta_high * (1 + 1e-9)):
                assert len(present) == 1
        for name, expected in _per_beta_columns(grid, kappa).items():
            assert np.array_equal(getattr(s, name), expected, equal_nan=True), name

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.02, 0.57), st.floats(0.0, 0.3), st.floats(0.0, 0.3))
    # the steps once wandered between 2e-15 and 1.6e-14 at the first and
    # alternated +/-1.44e-15 at the second, above 1e-15 relative, to the cap
    @example(0.1, 0.01, 0.01)
    @example(0.5, 0.235, 0.235)
    def test_polish_ends_before_its_pass_cap(self, kappa, b0, b1):
        passes = []  # the passes of each _polish call

        def counting_range(n):
            passes.append(0)
            for i in range(n):
                passes[-1] += 1
                yield i

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(attractors, "range", counting_range, raising=False)
            solve_branches(np.linspace(min(b0, b1), max(b0, b1), 1000), kappa)
        assert len(passes) == 1 and passes[0] < 50, passes


def reference_anchor(beta: float, kappa: float) -> float:
    """The closed-form anchor root of one beta, one Python float operation
    at a time, with ``np.arccos``, ``np.cos`` and ``np.cbrt`` called on one
    value each: of three real roots the one apart from the other two."""
    if beta == 0.0:
        return 0.0
    k2 = kappa * kappa
    p = k2 - 1.0 / 3.0
    p3 = p**3
    q = (2.0 + 18.0 * k2) / 27.0 - beta
    if -4.0 * p3 - 27.0 * q * q > 0.0:
        m = 2.0 * math.sqrt(-p / 3.0)
        cos3 = min(1.0, max(-1.0, 3.0 * q / (p * m)))
        theta = float(np.arccos(cos3)) / 3.0
        shift = 0.0 if cos3 > 0.0 else 4.0 * math.pi / 3.0
        return m * float(np.cos(theta - shift)) + 2.0 / 3.0
    h = abs(q) / 2.0
    if h >= 1e150:
        rad = h * math.sqrt(max(1.0 + p3 / 27.0 / h / h, 0.0))
    else:
        rad = math.sqrt(max(q * q / 4.0 + p3 / 27.0, 0.0))
    a = float(np.cbrt(-math.copysign(h + rad, q)))
    b = 0.0 if a == 0.0 else -p / (3.0 * a)
    return a + b + 2.0 / 3.0


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.floats(0.0, 0.6), st.floats(0.0, 1e300),
                          st.sampled_from([0.0, 5e-324, 1.0, 1e150, 1.7e308])),
                min_size=1, max_size=10),
       st.lists(st.floats(0.0, 1.0), max_size=20),
       st.one_of(st.floats(0.01, 0.56), st.floats(0.56, 0.6), st.floats(0.6, 1e3)))
def test_anchor_has_the_bits_of_a_one_beta_call(betas, shares, kappa):
    # shares of the bistability window give rows with three real roots
    info = bifurcation_betas(kappa)
    if info.bistable:
        betas += [info.beta_low + t * (info.beta_high - info.beta_low) for t in shares]
    with np.errstate(all="ignore"):
        roots = attractors._anchor(np.array(betas), kappa)
        alone = [attractors._anchor(np.array([beta]), kappa).tolist()[0] for beta in betas]
    for beta, got, one in zip(betas, roots.tolist(), alone):
        assert repr(got) == repr(one) == repr(reference_anchor(beta, kappa)), beta
