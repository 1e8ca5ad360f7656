import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.constants import hbar
from scipy.integrate import quad, simpson
from scipy.linalg import expm, solve_continuous_lyapunov

from duffing_qubit import (
    Branch,
    MarginalAttractorError,
    bifurcation_betas,
    drift_matrix,
    solve_branches,
    spectra,
    spectra_from_matrix,
    stationary_covariance,
    two_quantum_spectrum,
)

LAMBDA_S = 0.01
NBAR = 0.5

# the antisymmetric unit tensor of the equal-time commutator, eps_12 = +1
LEVI_CIVITA = np.array([[0.0, 1.0], [-1.0, 0.0]])


def spectrum_matrix(drift, covariance, lambda_s, omega):
    """The one-sided spectrum matrix N(omega) = -(i omega I + K)^{-1} (C + i
    lambda_s eps / 2) by one batched LAPACK solve, of shape omega.shape +
    (2, 2): the reference for the adjugate route and the dc weight."""
    m = covariance + 0.5j * lambda_s * LEVI_CIVITA
    return -np.linalg.solve(1j * np.multiply.outer(omega, np.eye(2)) + drift, m)


def stable_states(beta, kappa):
    """(u, nu) of each strictly stable steady state at a scalar ``beta``,
    small branch first; a marginal one has nu = 0 and an absent one NaN."""
    s = solve_branches(beta, kappa)
    return [(u, nu) for u, nu, _ in (s.pick(Branch.SMALL), s.pick(Branch.LARGE))
            if nu > 0.0]


def covariance_for(u, beta, kappa, lambda_s=LAMBDA_S, n_bar=NBAR):
    k = drift_matrix(u, beta, kappa)
    return k, stationary_covariance(k, lambda_s, kappa, n_bar)


def assert_matches_lapack_lyapunov(k, kappa, n_bar):
    """stationary_covariance agrees with scipy's Bartels-Stewart solution of
    K C + C K^T = -s I to within 1e-12 of max |C|."""
    cov = stationary_covariance(k, LAMBDA_S, kappa, n_bar)
    source = LAMBDA_S * kappa * (2 * n_bar + 1)
    reference = solve_continuous_lyapunov(k, -source * np.eye(2))
    assert np.max(np.abs(cov - reference)) <= 1e-12 * np.max(np.abs(reference))


def lyapunov_relative_residual(k, cov, source):
    """max |K C + C K^T + s I| over its rounding scale 2 max|K| max|C| + s,
    the rule of ``validate``'s lyapunov_residual, for one K and C."""
    residual = k @ cov + cov @ k.T + source * np.eye(2)
    return np.max(np.abs(residual)) / (2.0 * np.max(np.abs(k)) * np.max(np.abs(cov)) + source)


class TestStationaryCovariance:
    def test_undriven_isotropic_cloud(self):
        ((u, _),) = stable_states(0.0, 0.3)
        _, cov = covariance_for(u, 0.0, 0.3)
        expected = 0.5 * LAMBDA_S * (2 * NBAR + 1) * np.eye(2)
        assert np.allclose(cov, expected, rtol=1e-12)

    @pytest.mark.parametrize("kappa", [0.1, 0.3, 0.5])
    @pytest.mark.parametrize("n_bar", [0.0, 0.5, 4.0])
    def test_lyapunov_residual(self, kappa, n_bar):
        for beta in (0.0, 0.05, 0.12, 0.2):
            for u, _ in stable_states(beta, kappa):
                k = drift_matrix(u, beta, kappa)
                cov = stationary_covariance(k, LAMBDA_S, kappa, n_bar)
                source = LAMBDA_S * kappa * (2 * n_bar + 1)
                assert lyapunov_relative_residual(k, cov, source) < 1e-12
                assert np.all(np.linalg.eigvalsh(cov) > 0.0)

    @settings(max_examples=200, deadline=None)
    @given(beta=st.floats(0.0, 0.3), kappa=st.floats(0.02, 0.57),
           n_bar=st.floats(0.0, 5.0))
    def test_branch_drifts_match_the_lapack_lyapunov_solver(self, beta, kappa, n_bar):
        for u, _ in stable_states(beta, kappa):
            k = drift_matrix(u, beta, kappa)
            assert_matches_lapack_lyapunov(k, kappa, n_bar)

    @settings(max_examples=300, deadline=None)
    @given(entries=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
           margin=st.floats(1e-2, 1.0), scale=st.floats(-3.0, 3.0).map(lambda x: 10.0**x),
           kappa=st.floats(0.02, 0.57), n_bar=st.floats(0.0, 5.0))
    def test_random_stable_drifts_match_the_lapack_lyapunov_solver(self, entries, margin, scale,
                                                                    kappa, n_bar):
        # any strictly stable K is some B shifted left of its spectrum; a
        # shift of at least 1e-2 keeps every sum of two eigenvalues of K (the
        # Lyapunov operator's) that far from 0, so neither solution loses
        # more than a few digits to conditioning
        b = np.reshape(entries, (2, 2))
        k = scale * (b - (np.linalg.eigvals(b).real.max() + margin) * np.eye(2))
        assert_matches_lapack_lyapunov(k, kappa, n_bar)

    def test_covariance_is_linear_in_the_source_down_to_tiny_lambda_s(self):
        # C / s comes from K alone and is checked before the source scales
        # it, so a tiny lambda_s neither underflows the positive-definiteness
        # check nor changes C / s
        for u, _ in stable_states(0.12, 0.3):
            k = drift_matrix(u, 0.12, 0.3)
            tiny, usual = (stationary_covariance(k, lam, 0.3, NBAR) / (lam * 0.3 * (2 * NBAR + 1))
                           for lam in (1e-300, 1e-3))
            np.testing.assert_allclose(tiny, usual, rtol=1e-15, atol=0.0)

    def test_rejects_unstable_and_marginal(self):
        saddle = solve_branches(0.12, 0.3).u_unstable
        with pytest.raises(MarginalAttractorError):
            covariance_for(saddle, 0.12, 0.3)
        info = bifurcation_betas(0.3)
        marginal, _, is_marginal = solve_branches(info.beta_high, 0.3).pick(Branch.SMALL)
        assert is_marginal
        with pytest.raises(MarginalAttractorError):
            covariance_for(marginal, info.beta_high, 0.3)

    @pytest.mark.parametrize("beta", [1e12, 3e22, 1e30, 1e100, 1e300])
    def test_huge_stable_drift_is_accepted(self, beta):
        # eigenvalues -kappa +- i nu with nu ~ beta^(1/3) >> kappa; a margin
        # of 1e-8 |K| on their real parts once refused these from beta ~ 1e27.
        # Any rounded C leaves a residual of about eps |K| |C|, above 1e-10
        # absolute from beta ~ 3e22 on, so the bound is relative to that scale
        ((u, _),) = stable_states(beta, 0.3)
        k, cov = covariance_for(u, beta, 0.3)
        assert np.all(np.linalg.eigvals(k).real < 0.0)
        assert lyapunov_relative_residual(k, cov, LAMBDA_S * 0.3 * (2 * NBAR + 1)) < 1e-12
        assert np.all(np.linalg.eigvalsh(cov) > 0.0)

    def test_every_exact_bifurcation_edge_is_refused(self):
        # 200 kappa, both edges: each marginal pair stays refused at any scale
        refused = 0
        for kappa in np.linspace(0.02, 0.57, 200):
            info = bifurcation_betas(kappa)
            for edge, branch in ((info.beta_low, Branch.LARGE), (info.beta_high, Branch.SMALL)):
                marginal, _, is_marginal = solve_branches(edge, kappa).pick(branch)
                assert is_marginal
                with pytest.raises(MarginalAttractorError):
                    covariance_for(marginal, edge, kappa)
                refused += 1
        assert refused == 400

    @pytest.mark.parametrize("k", [
        [[0.1, 1.0], [-1.0, -0.05]],   # trace > 0, det > 0: growing spiral
        [[-0.1, 1.0], [1.0, -0.1]],    # trace < 0, det < 0: saddle
        [[0.0, 1.0], [-1.0, 0.0]],     # centre
        [[-0.3, 1e10], [-1e-9, -0.3]],  # det 10.09 against |K|^2 1e20
    ])
    def test_unstable_or_marginal_drift_is_refused(self, k):
        with pytest.raises(MarginalAttractorError, match="not strictly stable"):
            stationary_covariance(np.array(k), LAMBDA_S, 0.3, NBAR)

    def test_exact_step_oracle_compact_matches_lyapunov_covariance(self):
        # small copy of the stochastic cross-check; the acceptance suite runs
        # the full-budget version
        u, _ = stable_states(0.12, 0.3)[-1]
        k, cov = covariance_for(u, 0.12, 0.3)
        diffusion = LAMBDA_S * 0.3 * (2 * NBAR + 1) * np.eye(2)
        estimate, expected = exact_step_oracle(k, diffusion, dt=0.5, n_traj=1024, n_burn=120,
                                               n_keep=400, rng=np.random.default_rng(7))
        assert expected <= 0.03 / 3
        assert np.linalg.norm(estimate - cov) / np.linalg.norm(cov) < 0.03


def exact_step_oracle(k, diffusion, dt, n_traj, n_burn, n_keep, rng):
    """The stationary covariance of dz = K z dt + dW, <dW dW^T> = D dt,
    sampled from ``n_traj`` paths that start at 0, run ``n_burn`` steps of
    ``dt`` and are then averaged over ``n_keep`` steps; and the estimate's
    expected relative sampling error.  It never calls ``stationary_covariance``.

    The step is exact: z -> F z + noise with F = exp(K dt) and noise
    covariance Q = int_0^dt exp(K s) D exp(K^T s) ds.  Van Loan's block
    exponential gives both (C. F. Van Loan, IEEE Trans. Autom. Control 23:395,
    1978): exp([[-K, D], [0, K^T]] dt) = [[., G], [0, F^T]] and Q = F G.
    The expected error comes from the estimate's own lag covariances
    R(l) = F^l S: E|S - C|^2 = sum_l (N - |l|) [(tr R)^2 + tr(R R)] / (N^2 paths).
    """
    block = expm(np.block([[-k, diffusion], [np.zeros((2, 2)), k.T]]) * dt)
    step = block[2:, 2:].T
    noise = np.linalg.cholesky(step @ block[:2, 2:])
    z = np.zeros((n_traj, 2))
    acc = np.zeros((2, 2))
    for i in range(n_burn + n_keep):
        z = z @ step.T + rng.standard_normal((n_traj, 2)) @ noise.T
        if i >= n_burn:
            acc += z.T @ z
    estimate = acc / (n_keep * n_traj)

    lag, spread = estimate.copy(), 0.0
    for lag_steps in range(n_keep):
        weight = (n_keep - lag_steps) * (1 if lag_steps == 0 else 2)
        spread += weight * (np.trace(lag) ** 2 + np.trace(lag @ lag))
        lag = step @ lag
    return estimate, math.sqrt(spread / (n_traj * n_keep**2)) / np.linalg.norm(estimate)


def reference_drift(u, beta, kappa):
    """The drift of one steady state in Python floats, term by term."""
    root = math.sqrt(beta)
    q, p = (u * (u - 1.0) / root, -kappa * u / root) if beta > 0.0 else (0.0, 0.0)
    return [[-2.0 * p * q - kappa, -(u - 1.0 + 2.0 * p * p)],
            [u - 1.0 + 2.0 * q * q, 2.0 * q * p - kappa]]


def bits(x):
    return np.ascontiguousarray(x, dtype=float).view(np.int64)


class TestSteadyStateStacks:
    """Drifts and covariances over branch columns are the one-row results."""

    @settings(max_examples=200, deadline=None)
    @given(
        betas=st.lists(st.one_of(st.floats(0.0, 0.3), st.just(1e300)),
                       min_size=1, max_size=12),
        kappa=st.floats(0.02, 0.57),
        lambda_s=st.floats(-4.0, -1.0).map(lambda x: 10.0**x),
        n_bar=st.floats(0.0, 5.0),
    )
    def test_stacks_equal_one_row_calls_bit_for_bit(self, betas, kappa, lambda_s, n_bar):
        beta = np.array(betas)
        s = solve_branches(beta, kappa)
        u = np.stack([s.u_small, s.u_large])
        k = drift_matrix(u, beta, kappa)
        assert k.shape == (2, beta.size, 2, 2)
        present = ~np.isnan(u)
        rows = list(zip(u[present].tolist(), np.broadcast_to(beta, u.shape)[present].tolist()))
        one = np.array([drift_matrix(ur, br, kappa) for ur, br in rows])
        np.testing.assert_array_equal(bits(k[present]), bits(one))
        np.testing.assert_array_equal(bits(one), bits([reference_drift(*r, kappa) for r in rows]))
        assert np.isnan(k[~present]).all()

        stable = present & ~np.stack([s.marginal_small, s.marginal_large])
        cov = stationary_covariance(k[stable], lambda_s, kappa, n_bar)
        one = [stationary_covariance(x, lambda_s, kappa, n_bar) for x in k[stable]]
        assert cov.shape == (np.count_nonzero(stable), 2, 2)
        np.testing.assert_array_equal(bits(cov), bits(np.reshape(one, cov.shape)))

    @settings(max_examples=100, deadline=None)
    @given(
        kappa=st.floats(0.02, 0.57),
        n_rows=st.integers(0, 8),
        at=st.floats(0.0, 1.0),
        high=st.booleans(),
    )
    def test_a_marginal_row_is_refused_by_its_index(self, kappa, n_rows, at, high):
        info = bifurcation_betas(kappa)
        # small-branch drifts below the upper edge, all strictly stable
        beta = np.linspace(0.0, 0.9, n_rows) * info.beta_high
        stack = drift_matrix(solve_branches(beta, kappa).u_small, beta, kappa)
        edge = info.beta_high if high else info.beta_low
        u_edge = info.u_at_beta_high if high else info.u_at_beta_low
        marginal = drift_matrix(u_edge, edge, kappa)
        row = round(at * n_rows)
        stack = np.insert(stack, row, marginal, axis=0)
        with pytest.raises(MarginalAttractorError, match=rf"not strictly stable.*\(row {row}\)"):
            stationary_covariance(stack, LAMBDA_S, kappa, NBAR)
        # a second bad row after it leaves the first named
        with pytest.raises(MarginalAttractorError, match=rf"\(row {row}\)"):
            stationary_covariance(np.vstack([stack, marginal[None]]), LAMBDA_S, kappa, NBAR)
        stationary_covariance(np.delete(stack, row, axis=0), LAMBDA_S, kappa, NBAR)


class TestSpectrumMatrix:
    def test_zero_frequency_direct_inverse(self):
        u, nu = stable_states(0.12, 0.3)[-1]
        k, cov = covariance_for(u, 0.12, 0.3)
        n0 = spectrum_matrix(k, cov, LAMBDA_S, 0.0)
        direct = -np.linalg.inv(k) @ (cov + 0.5j * LAMBDA_S * LEVI_CIVITA)
        assert np.allclose(n0, direct, rtol=1e-12)

    def test_resolvent_decay(self):
        u, nu = stable_states(0.12, 0.3)[-1]
        k, cov = covariance_for(u, 0.12, 0.3)
        m = cov + 0.5j * LAMBDA_S * LEVI_CIVITA
        omega = 1000.0
        n = spectrum_matrix(k, cov, LAMBDA_S, omega)
        assert abs(np.linalg.norm(n) * omega / np.linalg.norm(m) - 1.0) < 0.01

    @pytest.mark.parametrize("omega", [-5.0, -2.0, -0.5, 0.0, 0.5, 2.0, 5.0])
    def test_time_domain_regression_oracle(self, omega):
        # quadrature of exp(i w t) exp(K t) M over t >= 0, using the closed
        # 2x2 form of exp(K t) for the underdamped drift
        kappa = 0.3
        u, nu = stable_states(0.12, kappa)[-1]
        k, cov = covariance_for(u, 0.12, kappa)
        m = cov + 0.5j * LAMBDA_S * LEVI_CIVITA
        nu_rot = math.sqrt(nu**2 - kappa**2)
        b = k + kappa * np.eye(2)  # traceless part, b @ b = -nu_rot^2 I

        t = np.linspace(0.0, 50.0 / kappa, 200_001)
        envelope = np.exp((1j * omega - kappa) * t)
        cos_part = np.cos(nu_rot * t) * envelope
        sin_part = np.sin(nu_rot * t) / nu_rot * envelope
        integrand = (
            cos_part[:, None, None] * np.eye(2)[None, :, :]
            + sin_part[:, None, None] * b[None, :, :]
        ) @ m
        oracle = simpson(integrand, x=t, axis=0)
        result = spectrum_matrix(k, cov, LAMBDA_S, omega)
        assert np.max(np.abs(result - oracle)) < 1e-6


class TestDualRoute:
    def test_closed_form_matches_matrix_route(self):
        worst = 0.0
        count = 0
        for kappa in (0.1, 0.3):
            for beta in (0.05, 0.12, 0.14, 0.2):
                for n_bar in (0.0, 0.5, 3.0):
                    for u, nu in stable_states(beta, kappa):
                        k = drift_matrix(u, beta, kappa)
                        cov = stationary_covariance(k, LAMBDA_S, kappa, n_bar)
                        for w in np.linspace(-5.0, 5.0, 11):
                            w = float(w)
                            pairs = (
                                (spectra(w, u, nu, kappa,
                                         LAMBDA_S, n_bar)[0],
                                 spectra_from_matrix(k, cov, LAMBDA_S, w)[0]),
                                (spectra(w, u, nu, kappa,
                                         LAMBDA_S, n_bar)[1],
                                 spectra_from_matrix(k, cov, LAMBDA_S, w)[1]),
                            )
                            for closed, matrix in pairs:
                                scale = max(abs(closed), abs(matrix), 1e-300)
                                worst = max(worst, abs(closed - matrix) / scale)
                                count += 1
        assert count >= 400
        assert worst < 1e-8


def per_point_reference(k, cov, lambda_s, omega):
    """Emission/absorption by one spectrum_matrix (LAPACK) solve per point,
    as shape (2, len(omega))."""
    pair = []
    for w in omega:
        n = spectrum_matrix(k, cov, lambda_s, w)
        emission = (n[0, 0] + n[1, 1] + 1j * (n[1, 0] - n[0, 1])).real
        n = spectrum_matrix(k, cov, lambda_s, -w)
        pair.append((emission, (n[0, 0] + n[1, 1] - 1j * (n[1, 0] - n[0, 1])).real))
    return np.array(pair).T


def mp_resolvent_spectra(k, cov, lambda_s, w):
    """(emission, absorption) of the resolvent -(i w I + K)^{-1} (C + i
    lambda_s eps / 2) at 50 digits, from the float entries of K and C."""
    import mpmath as mp
    with mp.workdps(50):
        kk = mp.matrix([[mp.mpf(float(x)) for x in row] for row in k])
        m = mp.matrix([[mp.mpf(float(x)) for x in row] for row in cov])
        m[0, 1] += 1j * mp.mpf(lambda_s) / 2
        m[1, 0] -= 1j * mp.mpf(lambda_s) / 2
        pair = []
        for sign in (1, -1):
            n = -(mp.inverse(1j * sign * mp.mpf(float(w)) * mp.eye(2) + kk) * m)
            pair.append(float(mp.re(n[0, 0] + n[1, 1] + sign * 1j * (n[1, 0] - n[0, 1]))))
        return pair


# the closed form's arithmetic is the same per point and on an array, except
# that numpy squares a 0-d operand through pow and an array through x*x
CLOSED_FORM_RTOL = 4 * np.finfo(np.float64).eps


class TestBatchedOmega:
    GRID = np.concatenate([np.linspace(-6.0, 6.0, 301), [0.0, -0.0, 1e3, -1e3]])
    CASES = [(0.12, 0.3, 0.5), (0.14, 0.3, 0.0), (0.05, 0.1, 3.0), (0.2, 0.5, 0.5)]

    @pytest.mark.parametrize("beta,kappa,n_bar", CASES)
    def test_matrix_route_equals_per_point_solve(self, beta, kappa, n_bar):
        # an array call has the bits of one scalar call per point.  Against a
        # per-point LAPACK solve of spectrum_matrix it agrees to 1e-13 of the
        # row's larger spectrum for |omega| <= 6; at |omega| = 1e3 that solve
        # loses ~|omega| eps to cancellation, so a 50-digit resolvent is used
        near = np.abs(self.GRID) <= 6.0
        for u, nu in stable_states(beta, kappa):
            k, cov = covariance_for(u, beta, kappa, n_bar=n_bar)
            batched = np.array(spectra_from_matrix(k, cov, LAMBDA_S, self.GRID))
            scalar = [spectra_from_matrix(k, cov, LAMBDA_S, float(w)) for w in self.GRID]
            assert np.array_equal(batched, np.transpose(scalar))
            reference = np.empty_like(batched)
            reference[:, near] = per_point_reference(k, cov, LAMBDA_S, self.GRID[near])
            reference[:, ~near] = np.transpose(
                [mp_resolvent_spectra(k, cov, LAMBDA_S, w) for w in self.GRID[~near]])
            scale = np.max(np.abs(reference), axis=0)
            assert np.all(np.abs(batched - reference) <= 1e-13 * scale)

    def test_spectrum_matrix_stack(self):
        u, nu = stable_states(0.12, 0.3)[-1]
        k, cov = covariance_for(u, 0.12, 0.3)
        grid = self.GRID.reshape(5, -1)
        stack = spectrum_matrix(k, cov, LAMBDA_S, grid)
        assert stack.shape == grid.shape + (2, 2)
        for index in np.ndindex(grid.shape):
            assert np.array_equal(
                stack[index], spectrum_matrix(k, cov, LAMBDA_S, float(grid[index])))

    @pytest.mark.parametrize("beta,kappa,n_bar", CASES)
    def test_closed_form_array_matches_scalar_calls(self, beta, kappa, n_bar):
        for u, nu in stable_states(beta, kappa):
            for half in (0, 1):
                batched = spectra(self.GRID, u, nu, kappa, LAMBDA_S, n_bar)[half]
                scalar = [spectra(float(w), u, nu, kappa, LAMBDA_S, n_bar)[half]
                          for w in self.GRID]
                np.testing.assert_allclose(batched, scalar, rtol=CLOSED_FORM_RTOL, atol=0)

    def test_scalar_inputs_return_float(self):
        u, nu = stable_states(0.12, 0.3)[-1]
        k, cov = covariance_for(u, 0.12, 0.3)
        for w in (0.3, np.float64(-1.5)):
            for value in (spectra_from_matrix(k, cov, LAMBDA_S, w)[0],
                          spectra_from_matrix(k, cov, LAMBDA_S, w)[1],
                          spectra(w, u, nu, 0.3, LAMBDA_S, NBAR)[0],
                          spectra(w, u, nu, 0.3, LAMBDA_S, NBAR)[1]):
                assert type(value) is float
        assert spectrum_matrix(k, cov, LAMBDA_S, 0.3).shape == (2, 2)


class TestBatchedAttractor:
    """A scalar omega with u and nu_scaled over a drive-intensity sweep."""

    def test_array_attractor_matches_scalar_calls(self):
        from duffing_qubit import solve_branches
        s = solve_branches(np.linspace(0.01, 0.3, 59), 0.3)
        u, nu = s.u_large[~np.isnan(s.u_large)], s.nu_large[~np.isnan(s.u_large)]
        for half in (0, 1):
            batched = spectra(0.4, u, nu, 0.3, LAMBDA_S, NBAR)[half]
            assert isinstance(batched, np.ndarray) and batched.shape == u.shape
            scalar = [spectra(0.4, a, b, 0.3, LAMBDA_S, NBAR)[half]
                      for a, b in zip(u.tolist(), nu.tolist())]
            np.testing.assert_allclose(batched, scalar, rtol=CLOSED_FORM_RTOL, atol=0)
            one = spectra(0.4, u[:1], nu[:1], 0.3, LAMBDA_S, NBAR)[half]
            assert isinstance(one, np.ndarray) and one.shape == (1,)


class TestClosedForms:
    def test_positive_everywhere(self):
        grid = np.linspace(-6.0, 6.0, 401)
        for beta, kappa, n_bar in [(0.12, 0.3, 0.0), (0.14, 0.3, 0.5),
                                   (0.05, 0.1, 2.0), (0.2, 0.5, 0.5)]:
            for u, nu in stable_states(beta, kappa):
                assert np.all(
                    spectra(grid, u, nu, kappa, LAMBDA_S, n_bar)[0]
                    >= 0.0
                )
                assert np.all(
                    spectra(grid, u, nu, kappa, LAMBDA_S, n_bar)[1]
                    >= 0.0
                )

    def test_vacuum_absorption_keeps_only_amplitude_term(self):
        u, nu = stable_states(0.12, 0.3)[-1]
        w = np.linspace(-4.0, 4.0, 101)
        got = spectra(w, u, nu, 0.3, LAMBDA_S, 0.0)[1]
        den = (w**2 - nu**2) ** 2 + 4 * 0.3**2 * w**2
        expected = 2 * LAMBDA_S * 0.3 * u**2 / den
        assert np.allclose(got, expected, rtol=1e-13)

    def test_zero_amplitude_ratio(self):
        ((u, nu),) = stable_states(0.0, 0.3)
        w = np.linspace(-4.0, 4.0, 101)
        up = spectra(w, u, nu, 0.3, LAMBDA_S, NBAR)[0]
        down = spectra(w, u, nu, 0.3, LAMBDA_S, NBAR)[1]
        assert np.allclose(up / down, (NBAR + 1) / NBAR, rtol=1e-13)

    def test_difference_carries_unit_thermal_weight(self):
        u, nu = stable_states(0.14, 0.3)[0]
        w = np.linspace(-4.0, 4.0, 101)
        diff = spectra(w, u, nu, 0.3, LAMBDA_S, NBAR)[0] \
            - spectra(w, u, nu, 0.3, LAMBDA_S, NBAR)[1]
        bracket = (w - (2 * u - 1)) ** 2 + 0.3**2 - u**2
        den = (w**2 - nu**2) ** 2 + 4 * 0.3**2 * w**2
        assert np.allclose(diff, 2 * LAMBDA_S * 0.3 * bracket / den, rtol=1e-11)

    def test_classical_limit_spectra_coincide(self):
        n_bar = 1e3
        u, nu = stable_states(0.12, 0.3)[-1]
        w = np.linspace(-5.0, 5.0, 201)
        up = spectra(w, u, nu, 0.3, LAMBDA_S, n_bar)[0]
        down = spectra(w, u, nu, 0.3, LAMBDA_S, n_bar)[1]
        assert np.max(np.abs(up - down) / up) < 2.0 / n_bar

    def test_weak_damping_peaks_at_gap_frequency(self):
        kappa = 0.03
        for u, nu in stable_states(0.12, kappa):
            w = np.linspace(-2.0, 2.0, 8001)
            f = spectra(w, u, nu, kappa, LAMBDA_S, NBAR)[0]
            for sign in (-1.0, 1.0):
                window = (sign * w > 0.2)
                peak = w[window][np.argmax(f[window])]
                assert abs(abs(peak) - nu) < kappa

    def test_lorentzian_halfwidth(self):
        kappa = 0.01
        u, nu = stable_states(0.12, kappa)[-1]
        assert kappa <= 0.05 * nu

        def f(w):
            return spectra(w, u, nu, kappa, LAMBDA_S, NBAR)[0]

        w = np.linspace(nu - 10 * kappa, nu + 10 * kappa, 20001)
        values = f(w)
        peak_idx = int(np.argmax(values))
        w_peak, f_peak = w[peak_idx], values[peak_idx]
        half = f_peak / 2.0
        left = w[:peak_idx][np.argmin(np.abs(values[:peak_idx] - half))]
        right = w[peak_idx:][np.argmin(np.abs(values[peak_idx:] - half))]
        halfwidth = 0.5 * (right - left)
        assert abs(halfwidth - kappa) < 0.05 * kappa
        assert abs(w_peak - nu) < kappa

    def test_sum_rule(self):
        for beta, kappa, n_bar in [(0.12, 0.3, 0.5), (0.05, 0.2, 1.5)]:
            for u, nu in stable_states(beta, kappa):
                k, cov = covariance_for(u, beta, kappa, n_bar=n_bar)

                def both(w, u=u, nu=nu):
                    return (
                        spectra(w, u, nu, kappa, LAMBDA_S, n_bar)[0]
                        + spectra(w, u, nu, kappa,
                                  LAMBDA_S, n_bar)[1]
                    )

                inner = quad(both, -8, 8,
                             points=[-nu, nu], limit=300)[0]
                tails = quad(both, 8, np.inf, limit=300)[0] \
                    + quad(both, -np.inf, -8, limit=300)[0]
                total = (inner + tails) / (2 * np.pi)
                trace = float(np.trace(cov))
                assert abs(total - trace) < 1e-6 * trace


class TestTwoQuantum:
    M, OMEGA_0, KAPPA = 1e-12, 2 * math.pi * 1.5e9, 2 * math.pi * 1e5

    def test_peak_value(self):
        got = two_quantum_spectrum(2 * self.OMEGA_0, self.OMEGA_0, self.KAPPA,
                                   NBAR, self.M)[0]
        expected = (hbar / (self.M * self.OMEGA_0)) ** 2 * (NBAR + 1) ** 2 \
            / (4 * self.KAPPA)
        assert math.isclose(got, expected, rel_tol=1e-13)

    def test_vacuum_cannot_excite(self):
        assert two_quantum_spectrum(2 * self.OMEGA_0, self.OMEGA_0, self.KAPPA,
                                    0.0, self.M)[1] == 0.0

    def test_half_maximum_at_twice_kappa(self):
        peak = two_quantum_spectrum(2 * self.OMEGA_0, self.OMEGA_0, self.KAPPA,
                                    NBAR, self.M)[0]
        at_half = two_quantum_spectrum(2 * self.OMEGA_0 + 2 * self.KAPPA,
                                       self.OMEGA_0, self.KAPPA, NBAR, self.M)[0]
        assert math.isclose(at_half, peak / 2.0, rel_tol=1e-12)


class TestOccupationDomain:
    @pytest.mark.parametrize("n_bar", [-3.0, -1e-12, math.nan, math.inf])
    def test_negative_or_nonfinite_occupation_is_refused(self, n_bar):
        u, nu = stable_states(0.12, 0.3)[0]
        k = drift_matrix(u, 0.12, 0.3)
        with pytest.raises(ValueError, match="n_bar"):
            stationary_covariance(k, LAMBDA_S, 0.3, n_bar)
        with pytest.raises(ValueError, match="n_bar"):
            spectra(0.1, u, nu, 0.3, LAMBDA_S, n_bar)
        with pytest.raises(ValueError, match="n_bar"):
            two_quantum_spectrum(3e10, 1.5e10, 1e6, n_bar, 1e-12)

    def test_two_quantum_array(self):
        omega_q = np.linspace(2.9e10, 3.1e10, 21)
        swept = two_quantum_spectrum(omega_q, 1.5e10, 1e6, NBAR, 1e-12)[0]
        for w, value in zip(omega_q.tolist(), swept.tolist()):
            assert math.isclose(two_quantum_spectrum(w, 1.5e10, 1e6, NBAR, 1e-12)[0],
                                value, rel_tol=1e-14)


def plain_closed_form(w, u, nu, kappa, lambda_s, weight_bracket, weight_quanta):
    # the closed form exactly as written, for the rows that do not overflow
    num = weight_bracket * ((w - (2.0 * u - 1.0)) ** 2 + kappa**2) + weight_quanta * u * u
    den = (w * w - nu * nu) ** 2 + 4.0 * kappa**2 * w * w
    return 2.0 * lambda_s * kappa * num / den


def mp_emission(w, u, nu, kappa, lambda_s, n_bar):
    # the emission closed form at 50 digits, where no square overflows
    import mpmath as mp
    with mp.workdps(50):
        w, u, nu, k = (mp.mpf(float(x)) for x in (w, u, nu, kappa))
        num = (n_bar + 1) * ((w - (2 * u - 1)) ** 2 + k**2) + n_bar * u * u
        den = (w * w - nu * nu) ** 2 + 4 * k * k * w * w
        return float(2 * mp.mpf(lambda_s) * k * num / den)


class TestClosedFormOverflow:
    """Squares overflow once nu or |omega| exceeds ~1e77; the closed form is
    then evaluated rescaled and stays finite wherever the matrix route is."""

    @pytest.mark.parametrize("beta", [1e240, 1e300, 1.7e308])
    def test_huge_drive(self, beta):
        ((u, nu),) = stable_states(beta, 0.3)
        assert nu > 1e77
        k = drift_matrix(u, beta, 0.3)
        cov = stationary_covariance(k, LAMBDA_S, 0.3, NBAR)
        w = np.array([-1.0, 0.0, 1.0, 1e90, -1e300])
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            closed = spectra(w, u, nu, 0.3, LAMBDA_S, NBAR)[0]
            matrix = spectra_from_matrix(k, cov, LAMBDA_S, w)[0]
            absorption = spectra(w, u, nu, 0.3, LAMBDA_S, NBAR)[1]
        oracle = [mp_emission(x, u, nu, 0.3, LAMBDA_S, NBAR) for x in w]
        np.testing.assert_allclose(closed, oracle, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(closed, matrix, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(
            absorption, spectra_from_matrix(k, cov, LAMBDA_S, w)[1], rtol=1e-12, atol=0.0)
        assert np.all(closed[:3] > 0.0) and np.all(absorption[:3] > 0.0)

    def test_huge_frequency_with_a_small_drive(self):
        u, nu = stable_states(0.12, 0.3)[-1]
        k, cov = covariance_for(u, 0.12, 0.3)
        w = np.array([-1e200, -1e100, 1e80, 1e153, 1e200])
        pair = np.array(spectra(w, u, nu, 0.3, LAMBDA_S, NBAR))
        closed = pair[0]
        oracle = [mp_emission(x, u, nu, 0.3, LAMBDA_S, NBAR) for x in w]
        np.testing.assert_allclose(closed, oracle, rtol=1e-14, atol=0.0)
        assert closed[1] > 0.0 and closed[2] > 0.0 and closed[0] == closed[-1] == 0.0
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            matrix = np.array(spectra_from_matrix(k, cov, LAMBDA_S, w))
        np.testing.assert_allclose(matrix, pair, rtol=1e-12, atol=0.0)

    def test_scalar_call(self):
        ((u, nu),) = stable_states(1e300, 0.3)
        got = spectra(0.5, u, nu, 0.3, LAMBDA_S, NBAR)[0]
        assert isinstance(got, float) and got > 0.0

    def test_rows_that_do_not_overflow_keep_their_bits(self):
        u, nu = stable_states(0.12, 0.3)[-1]
        w = np.concatenate([np.linspace(-6.0, 6.0, 241), [1e200]])
        got = spectra(w, u, nu, 0.3, LAMBDA_S, NBAR)[0]
        expected = plain_closed_form(w[:-1], u, nu, 0.3, LAMBDA_S, NBAR + 1.0, NBAR)
        assert np.array_equal(got[:-1], expected)

    def test_each_spectrum_rescales_only_its_own_overflowing_rows(self):
        # omega = nu = 1.3e154 with u = 0: the emission numerator (weight
        # n+1) overflows while the absorption numerator (weight n) and the
        # denominator stay finite, so absorption keeps its direct bits
        w = np.array([1.3e154])
        n_bar = 0.1
        emission, absorption = spectra(w, 0.0, 1.3e154, 0.3, LAMBDA_S, n_bar)
        expected = plain_closed_form(w, 0.0, 1.3e154, 0.3, LAMBDA_S, n_bar, n_bar + 1.0)
        assert np.isfinite(expected).all() and np.array_equal(absorption, expected)
        oracle = mp_emission(w[0], 0.0, 1.3e154, 0.3, LAMBDA_S, n_bar)
        assert math.isclose(emission[0], oracle, rel_tol=1e-14)


class TestMatrixRouteCancellation:
    """The matrix route at |omega| >> nu, where a complex solve's real part
    is a difference of O(1/omega) terms."""

    def test_spectrum_check_passes_at_huge_frequency(self, capsys):
        from duffing_qubit.cli import main
        assert main(["spectrum", "--beta", "0.12", "--kappa-scaled", "0.3", "--nbar", "0.5",
                     "--lambda-s", "1e-3", "--attractor", "large", "--check",
                     "--grid=1e6:1e20:3"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("branch", [Branch.SMALL, Branch.LARGE])
    def test_matches_a_50_digit_resolvent(self, branch):
        u, _, _ = solve_branches(0.12, 0.3).pick(branch)
        k, cov = covariance_for(u, 0.12, 0.3, lambda_s=1e-3)
        w = np.array([1e3, -1e3, 1e6, -1e6, 1e20, -1e20])
        matrix = np.array(spectra_from_matrix(k, cov, 1e-3, w))
        oracle = np.transpose([mp_resolvent_spectra(k, cov, 1e-3, x) for x in w])
        np.testing.assert_allclose(matrix, oracle, rtol=1e-12, atol=0.0)

    @settings(max_examples=150, deadline=None)
    @given(
        beta=st.floats(0.01, 0.3),
        kappa=st.floats(0.05, 0.55),
        lambda_s=st.floats(-4.0, -1.0).map(lambda x: 10.0**x),
        # at n_bar = 0 the absorption falls as omega^-4 at |omega| >> nu, below
        # its omega^-2 coefficient 2 lambda_s kappa n_bar, which the matrix
        # route forms as tr(K C) + lambda_s kappa from a rounded C
        n_bar=st.floats(-3.0, math.log10(5.0)).map(lambda x: 10.0**x),
        log_omega=st.lists(st.floats(-3.0, 150.0), min_size=1, max_size=8),
        negate=st.booleans(),
    )
    def test_routes_agree_over_log_frequency(self, beta, kappa, lambda_s, n_bar,
                                             log_omega, negate):
        w = (-1.0 if negate else 1.0) * 10.0 ** np.array(log_omega)
        states = [(u, nu) for u, nu in stable_states(beta, kappa) if nu > 0.05]
        assume(states)
        for u, nu in states:
            k, cov = covariance_for(u, beta, kappa, lambda_s=lambda_s, n_bar=n_bar)
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                closed = np.array(spectra(w, u, nu, kappa, lambda_s, n_bar))
                matrix = np.array(spectra_from_matrix(k, cov, lambda_s, w))
            assert np.all(closed > 0.0) and np.all(matrix > 0.0)
            assert np.all(np.abs(closed - matrix) <= 1e-10 * np.maximum(closed, matrix))


class TestSpectraPair:
    """One call gives (emission, absorption) on each route."""

    def test_public_api_is_pinned(self):
        import duffing_qubit
        assert sorted(duffing_qubit.__all__) == [
            "BathSpec", "BifurcationInfo", "Branch", "Branches",
            "MarginalAttractorError", "NearResonanceError", "PhysicalParams",
            "QubitParams", "RateResult", "ScaledParams", "bath_j", "bifurcation_betas",
            "bloch_redfield", "c_gamma", "dephasing_g_zero", "drift_matrix",
            "effective_temperature", "gamma_linear_nonresonant", "gamma_linear_resonant",
            "gamma_nonresonant", "gamma_nonresonant_2q", "gamma_resonant_1q",
            "gamma_resonant_2q", "gamma_total_resonant", "log_rate_ratio",
            "physical_from_scaled", "planck", "resonant_1q_scaled", "scale_params",
            "solve_branches", "spectra", "spectra_from_matrix", "stationary_covariance",
            "two_quantum_spectrum", "validity_flags",
        ]
        assert all(hasattr(duffing_qubit, name) for name in duffing_qubit.__all__)

    def test_two_quantum_pair_swaps_the_thermal_weight(self):
        import inspect
        assert "ground" not in inspect.signature(two_quantum_spectrum).parameters
        omega_q = np.linspace(2.9e10, 3.1e10, 21)
        decay, excitation = two_quantum_spectrum(omega_q, 1.5e10, 1e6, NBAR, 1e-12)
        assert decay.shape == excitation.shape == omega_q.shape
        np.testing.assert_allclose(decay / excitation, ((NBAR + 1) / NBAR) ** 2, rtol=1e-14)
        assert all(type(x) is float
                   for x in two_quantum_spectrum(3e10, 1.5e10, 1e6, NBAR, 1e-12))

    def test_spectrum_check_makes_no_linear_solve(self, monkeypatch, capsys):
        # the matrix route takes the adjugate and the covariance its closed
        # form: spectrum --check makes no solve at all
        from duffing_qubit.cli import main
        calls = []
        solve = np.linalg.solve

        def counted(a, b):
            calls.append(np.shape(a))
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", counted)
        assert main(["spectrum", "--beta", "0.12", "--kappa-scaled", "0.3",
                     "--grid=-2:2:101", "--check"]) == 0
        capsys.readouterr()
        assert calls == []

    @settings(max_examples=120, deadline=None)
    @given(
        beta=st.floats(0.01, 0.3),
        kappa=st.floats(0.05, 0.55),
        lambda_s=st.floats(-4.0, -1.0).map(lambda x: 10.0**x),
        n_bars=st.tuples(st.floats(0.0, 5.0), st.floats(0.0, 5.0)),
        omega=st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=8),
    )
    def test_routes_agree_are_positive_and_differ_by_the_commutator(
            self, beta, kappa, lambda_s, n_bars, omega):
        w = np.array(omega)
        # away from bifurcations, where the gap nu closes
        states = [(u, nu) for u, nu in stable_states(beta, kappa) if nu > 0.05]
        assume(states)
        for u, nu in states:
            k = drift_matrix(u, beta, kappa)
            diffs = []
            for n_bar in n_bars:
                cov = stationary_covariance(k, lambda_s, kappa, n_bar)
                closed = np.array(spectra(w, u, nu, kappa, lambda_s, n_bar))
                matrix = np.array(spectra_from_matrix(k, cov, lambda_s, w))
                assert np.all(closed > 0.0) and np.all(matrix > 0.0)
                assert np.all(np.abs(closed - matrix) <= 1e-6 * np.maximum(closed, matrix))
                diffs.append((closed[0] - closed[1], matrix[0] - matrix[1],
                              closed.sum(axis=0), matrix.sum(axis=0)))
            # emission - absorption is the commutator term alone: no n_bar in it
            for route in (0, 1):
                scale = diffs[0][route + 2] + diffs[1][route + 2]
                assert np.all(np.abs(diffs[0][route] - diffs[1][route]) <= 1e-10 * scale)

    @settings(max_examples=120, deadline=None)
    @given(
        beta=st.floats(0.01, 0.3),
        kappa=st.floats(0.05, 0.55),
        lambda_s=st.floats(-4.0, -1.0).map(lambda x: 10.0**x),
        omega=st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=8),
    )
    def test_zero_temperature_keeps_absorption_and_a_finite_teff(
            self, beta, kappa, lambda_s, omega):
        # at n_bar = 0 the fluctuations about the attractor still excite the
        # qubit: the matrix-route gamma_g/gamma_e is the closed-form
        # u^2/((omega - (2u - 1))^2 + kappa^2), so T_eff stays finite
        w = np.array(omega)
        states = [(u, nu) for u, nu in stable_states(beta, kappa) if nu > 0.05]
        assume(states)
        for u, nu in states:
            k = drift_matrix(u, beta, kappa)
            cov = stationary_covariance(k, lambda_s, kappa, 0.0)
            emission, absorption = spectra_from_matrix(k, cov, lambda_s, w)
            expected = u**2 / ((w - (2.0 * u - 1.0)) ** 2 + kappa**2)
            assert np.all(absorption > 0.0) and np.all(emission > 0.0)
            np.testing.assert_allclose(absorption / emission, expected, rtol=1e-6)
            assert np.all(np.isfinite(1.0 / np.log(emission / absorption)))

    def test_emission_peaks_within_kappa_of_the_gap(self):
        # the paper's resonant enhancement: on each stable branch inside the
        # bistability window the matrix-route emission peaks at +sqrt(det K)
        # (small branch) or -sqrt(det K) (large branch), within the halfwidth
        # kappa, and closer in units of kappa as kappa -> 0
        def peak(k, cov):
            w = np.linspace(-3.0, 3.0, 6001)
            for _ in range(4):  # each pass spans 8 steps of the last around its peak
                w0 = w[np.argmax(spectra_from_matrix(k, cov, 1e-3, w)[0])]
                step = w[1] - w[0]
                w = np.linspace(w0 - 4.0 * step, w0 + 4.0 * step, 801)
            return w0

        worst = []
        for kappa in (0.3, 0.2, 0.1, 0.05, 0.02):
            info = bifurcation_betas(kappa)
            beta = info.beta_low + np.linspace(0.1, 0.9, 9) * (info.beta_high - info.beta_low)
            s = solve_branches(beta, kappa)
            offsets = []
            for u, sign in ((s.u_small, 1.0), (s.u_large, -1.0)):
                k = drift_matrix(u, beta, kappa)
                gap = sign * np.sqrt(np.linalg.det(k))
                for n_bar in (0.0, 0.5, 3.0):
                    cov = stationary_covariance(k, 1e-3, kappa, n_bar)
                    offsets += [abs(peak(*row) - g) for *row, g in zip(k, cov, gap)]
            worst.append(max(offsets) / kappa)
        assert all(w < 1.0 for w in worst), worst
        assert all(b < a for a, b in zip(worst, worst[1:])), worst
        assert worst[-1] < 0.05, worst
