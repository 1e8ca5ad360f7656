"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import math
import time

import numpy as np
from scipy.optimize import minimize_scalar

from duffing_qubit import (
    Branch,
    QubitParams,
    bifurcation_betas,
    drift_matrix,
    gamma_linear_nonresonant,
    gamma_nonresonant,
    gamma_nonresonant_2q,
    gamma_resonant_1q,
    gamma_resonant_2q,
    gamma_total_resonant,
    match_report,
    physical_from_scaled,
    planck,
    resonant_1q_scaled,
    scale_params,
    solve_branches,
    spectra,
    spectra_from_matrix,
    stationary_covariance,
    two_quantum_spectrum,
)
from test_fluctuations import exact_step_oracle, stable_states

KAPPA = 0.3
NBAR = 0.5


def report(number: int, detail: str, elapsed: float | None = None) -> None:
    timing = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"criterion {number}: PASS - {detail}{timing}")


def stable(beta, kappa, branch):
    """(u, nu) of the strictly stable steady state on ``branch``."""
    u, nu = solve_branches(beta, kappa).pick(branch)
    assert nu > 0.0  # 0 where marginal, NaN where absent
    return u, nu


def test_criterion_1_bifurcation_diagram():
    start = time.perf_counter()

    # independent oracle: extremize beta(u) numerically
    def beta_of_u(u):
        return u * ((u - 1.0) ** 2 + KAPPA**2)

    top = minimize_scalar(lambda u: -beta_of_u(u), bounds=(1e-9, 2 / 3),
                          method="bounded", options={"xatol": 1e-14})
    bottom = minimize_scalar(beta_of_u, bounds=(2 / 3, 4 / 3),
                             method="bounded", options={"xatol": 1e-14})
    oracle_low, oracle_high = bottom.fun, -top.fun

    # boundaries located from solve_branches alone by bisecting root count
    def count(beta):
        s = solve_branches(beta, KAPPA)
        return sum(not math.isnan(u) for u in (s.u_small, s.u_unstable, s.u_large))

    def bisect_transition(lo, hi):
        # root count differs at lo and hi
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if count(mid) == count(lo):
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    assert count(0.12) == 3 and count(0.01) == 1 and count(0.25) == 1
    found_low = bisect_transition(0.01, 0.12)
    found_high = bisect_transition(0.25, 0.12)
    assert abs(found_low - oracle_low) < 1e-10
    assert abs(found_high - oracle_high) < 1e-10

    info = bifurcation_betas(KAPPA)
    assert abs(info.beta_low - oracle_low) < 1e-10
    assert abs(info.beta_high - oracle_high) < 1e-10

    # gap frequency closes at both boundaries
    for edge in (info.beta_low, info.beta_high):
        s = solve_branches(edge, KAPPA)
        marginal = [nu for nu in (s.nu_small, s.nu_large) if nu == 0.0]
        assert marginal == [0.0]
    for eps, branch in ((1e-10, Branch.SMALL), (-1e-10, Branch.LARGE)):
        near = solve_branches(info.beta_high * (1 - eps) if eps > 0
                              else info.beta_low * (1 - eps), KAPPA)
        assert near.pick(branch)[1] < 1e-2  # gap opens as the quarter power

    # Fig. 1 branch shapes over beta in [0, 0.25], one scalar solve per beta
    betas = np.linspace(0.0, 0.25, 201)
    solves = [solve_branches(float(b), KAPPA) for b in betas]
    for b, s in zip(betas, solves):
        bistable_here = not (math.isnan(s.u_small) or math.isnan(s.u_large))
        assert bistable_here == (info.beta_low < b < info.beta_high)
    small_seq = [s.u_small for s in solves if not math.isnan(s.u_small)]
    large_seq = [s.u_large for s in solves if not math.isnan(s.u_large)]
    unstable_seq = [s.u_unstable for s in solves if not math.isnan(s.u_unstable)]
    assert small_seq[0] == 0.0
    assert all(a <= b for a, b in zip(small_seq, small_seq[1:]))   # rises from 0
    assert all(a <= b for a, b in zip(large_seq, large_seq[1:]))   # shrinks toward window
    assert all(a >= b for a, b in zip(unstable_seq, unstable_seq[1:]))

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"window=({info.beta_low:.6f},{info.beta_high:.6f}) matches "
              f"extremization oracle to 1e-10; gap closes at both edges", elapsed)


def test_criterion_2_dual_route_equivalence():
    start = time.perf_counter()
    lambda_s = 0.01
    worst, count = 0.0, 0
    for kappa in (0.1, 0.3, 0.5):
        for beta in (0.02, 0.05, 0.12, 0.14, 0.2):
            for n_bar in (0.0, 0.5, 2.0):
                for u, nu in stable_states(beta, kappa):
                    k = drift_matrix(u, beta, kappa)
                    cov = stationary_covariance(k, lambda_s, kappa, n_bar)
                    for w in np.linspace(-5.0, 5.0, 9):
                        w = float(w)
                        pairs = (
                            (spectra(w, u, nu, kappa,
                                     lambda_s, n_bar)[0],
                             spectra_from_matrix(k, cov, lambda_s, w)[0]),
                            (spectra(w, u, nu, kappa,
                                     lambda_s, n_bar)[1],
                             spectra_from_matrix(k, cov, lambda_s, w)[1]),
                        )
                        for closed, matrix in pairs:
                            scale = max(abs(closed), abs(matrix))
                            worst = max(worst, abs(closed - matrix) / scale)
                            count += 1
    elapsed = time.perf_counter() - start
    assert count >= 200
    assert worst < 1e-8
    assert elapsed < 5.0
    report(2, f"{count} points, worst relative deviation {worst:.2e}", elapsed)


def test_criterion_3_stochastic_oracle():
    start = time.perf_counter()
    lambda_s = 0.01
    u, _ = stable(0.12, KAPPA, Branch.LARGE)
    k = drift_matrix(u, 0.12, KAPPA)
    cov = stationary_covariance(k, lambda_s, KAPPA, NBAR)

    # exact Ornstein-Uhlenbeck steps (Van Loan's block exponential) over
    # 4096 paths; the step count keeps the expected sampling error below a
    # third of the bound
    dt, n_traj = 0.25, 4096
    n_burn, n_keep = 240, 1600
    diffusion = lambda_s * KAPPA * (2.0 * NBAR + 1.0) * np.eye(2)
    estimate, expected = exact_step_oracle(k, diffusion, dt, n_traj, n_burn, n_keep,
                                           np.random.default_rng(20260809))

    error = np.linalg.norm(estimate - cov) / np.linalg.norm(cov)
    elapsed = time.perf_counter() - start
    assert expected <= 0.01 / 3
    assert error < 0.01
    assert elapsed < 60.0
    report(3, f"exact-step (Van Loan) covariance error {error:.3%}, expected "
              f"{expected:.3%} ({n_traj} paths x {n_burn + n_keep} steps)", elapsed)


def test_criterion_4_quasienergy_resonances():
    start = time.perf_counter()
    grid = np.linspace(-5.0, 5.0, 2001)
    curves = {}
    for beta, branch in ((0.14, Branch.SMALL), (0.12, Branch.LARGE)):
        u, nu = stable(beta, KAPPA, branch)
        ge, gg = resonant_1q_scaled(grid, u, nu, KAPPA, NBAR)
        curves[(beta, branch)] = (ge, gg)
        # dominant maximum of each curve sits on a quasienergy resonance
        for curve in (ge, gg):
            peak = grid[int(np.argmax(curve))]
            assert abs(abs(peak) - nu) <= KAPPA / 2.0

    # excited-state decay exceeds ground-state excitation: globally for the
    # small-amplitude curve; on the negative-detuning side (including both
    # dominant peaks) for the large-amplitude one, whose positive side
    # carries the population-inversion window of the effective-temperature
    # analysis
    ge, gg = curves[(0.14, Branch.SMALL)]
    assert np.all(ge > gg)
    ge, gg = curves[(0.12, Branch.LARGE)]
    negative = grid <= 0.0
    assert np.all(ge[negative] > gg[negative])
    for curve in (ge, gg):
        assert grid[int(np.argmax(curve))] < 0.0
    assert not np.all(ge > gg)  # the inversion window is real

    elapsed = time.perf_counter() - start
    peaks = {
        f"{branch.value}@{beta}": round(float(grid[int(np.argmax(ge))]), 3)
        for (beta, branch), (ge, gg) in curves.items()
    }
    report(4, f"dominant peaks {peaks} within kappa/2 of +/-nu", elapsed)


def test_criterion_5_effective_temperature():
    start = time.perf_counter()
    info = bifurcation_betas(KAPPA)

    # Fig. 3 sweep, small-amplitude attractor at scaled detuning -0.2:
    # T* rises, diverges at a pole, then turns negative
    omega_rel = -0.2
    betas = np.linspace(0.01, 0.9995 * info.beta_high, 400)
    log_ratio = []
    for b in betas:
        u, nu = stable(float(b), KAPPA, Branch.SMALL)
        ge, gg = resonant_1q_scaled(omega_rel, u, nu, KAPPA, NBAR)
        log_ratio.append(math.log(ge / gg))
    log_ratio = np.array(log_ratio)
    signs = np.sign(log_ratio)
    crossings = np.nonzero(np.diff(signs))[0]
    assert len(crossings) == 1            # a single pole, found by sign change
    pole = crossings[0]
    t_star_before = 1.0 / log_ratio[: pole + 1]
    assert np.all(t_star_before > 0.0)
    assert np.all(np.diff(t_star_before) > 0.0)   # increases to the pole
    assert np.all(log_ratio[pole + 1:] < 0.0)     # negative past it

    # dominance-regime asymptotes: T_eff -> +/- 2T for omega_q = 2 omega_f
    t_star_bath = 1.0 / math.log(1.0 + 1.0 / NBAR)  # kB*T/(hbar*omega_f)

    u, nu = stable(0.01, KAPPA, Branch.SMALL)
    bracket = (omega_rel - (2 * u - 1)) ** 2 + KAPPA**2
    assert bracket / u**2 >= 100.0
    ge, gg = resonant_1q_scaled(omega_rel, u, nu, KAPPA, NBAR)
    hot = 1.0 / math.log(ge / gg)
    assert abs(hot / t_star_bath - 1.0) <= 0.05

    u_inv = 3.0
    beta_inv = u_inv * ((u_inv - 1.0) ** 2 + KAPPA**2)
    u, nu = stable(beta_inv, KAPPA, Branch.LARGE)
    w_inv = 2.0 * u - 1.0  # bracket minimal: amplitude term dominates
    assert u**2 / KAPPA**2 >= 100.0
    ge, gg = resonant_1q_scaled(w_inv, u, nu, KAPPA, NBAR)
    cold = 1.0 / math.log(ge / gg)
    assert abs(cold / (-t_star_bath) - 1.0) <= 0.05

    # nonresonant single-channel constructions reproduce the exact ratios
    m = 3.0e-13
    omega_0 = 2 * math.pi * 1.5e9
    base = dict(m=m, gamma_s=m * omega_0**2 / 24.0, f_0=1e-8,
                kappa=0.006 * omega_0, temperature=0.04)
    from duffing_qubit import PhysicalParams

    phys = PhysicalParams(omega_0=omega_0, omega_f=0.98 * omega_0,
                          omega_c=2 * math.pi * 6.5e9, **base)
    omega_q = 2 * math.pi * 6.0e9  # only omega_q - omega_f below the cutoff
    delta = 0.02 * omega_q
    qubit = QubitParams(w=math.sqrt(omega_q**2 - delta**2), delta=delta,
                        delta_q=1e6)
    s = scale_params(phys)
    res = gamma_nonresonant(qubit, phys, *stable(s.beta, s.kappa_scaled, Branch.SMALL))
    expected = phys.temperature * omega_q / (omega_q - phys.omega_f)
    assert abs(res.t_eff / expected - 1.0) < 1e-3

    omega_0 = 2 * math.pi * 8.0e9
    base["gamma_s"] = m * omega_0**2 / 24.0
    base["kappa"] = 0.006 * omega_0
    phys = PhysicalParams(omega_0=omega_0, omega_f=0.98 * omega_0,
                          omega_c=2 * math.pi * 9.0e9, **base)
    omega_q = 2 * math.pi * 3.0e9  # drive above the qubit, inverted channel
    delta = 0.02 * omega_q
    qubit = QubitParams(w=math.sqrt(omega_q**2 - delta**2), delta=delta,
                        delta_q=1e6)
    s = scale_params(phys)
    res = gamma_nonresonant(qubit, phys, *stable(s.beta, s.kappa_scaled, Branch.SMALL))
    expected = -phys.temperature * omega_q / (phys.omega_f - omega_q)
    assert abs(res.t_eff / expected - 1.0) < 1e-3
    assert res.t_eff < 0.0

    elapsed = time.perf_counter() - start
    report(5, f"pole at beta~{betas[pole]:.4f}; asymptotes {hot:.3f}/{cold:.3f} "
              f"vs +/-{t_star_bath:.3f}; single-channel ratios exact", elapsed)


def test_criterion_6_asymptotic_matching():
    start = time.perf_counter()
    rows = match_report([10.0, 30.0, 100.0], 0.12, 0.3, 0.5, 1e-3)
    devs_e = [abs(re - 1.0) for _, re, _ in rows]
    devs_g = [abs(rg - 1.0) for _, _, rg in rows]
    assert devs_e[0] > devs_e[1] > devs_e[2]
    assert devs_g[0] > devs_g[1] > devs_g[2]
    assert devs_e[-1] < 0.05 and devs_g[-1] < 0.05
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(6, "ratio deviations e:" +
           "/".join(f"{d:.3f}" for d in devs_e) + " g:" +
           "/".join(f"{d:.3f}" for d in devs_g) + " (h=10/30/100)", elapsed)


def test_criterion_7_two_quantum_consistency():
    start = time.perf_counter()
    m = 3.0e-13
    omega_0 = 2 * math.pi * 5.0e9
    kappa = 2e-7 * omega_0
    temperature = 1.0546e-34 * omega_0 / (1.381e-23 * math.log(3.0))  # nbar ~ 0.5
    from duffing_qubit import PhysicalParams

    phys = PhysicalParams(
        m=m, omega_0=omega_0, omega_f=0.999 * omega_0,
        gamma_s=m * omega_0**2 / 24.0, f_0=1e-9, kappa=kappa,
        temperature=temperature, omega_c=5.0 * omega_0,
    )
    worst = 0.0
    for frac in np.geomspace(1e-4, 1e-2, 9):  # two decades of detuning
        det = frac * omega_0
        assert det > 100.0 * kappa
        omega_q = 2.0 * omega_0 + det
        delta = 0.02 * omega_q
        qubit = QubitParams(w=math.sqrt(omega_q**2 - delta**2), delta=delta,
                            delta_q=1e6)
        res = gamma_resonant_2q(qubit, phys)
        non = gamma_nonresonant_2q(qubit, phys)
        worst = max(worst, abs(non.gamma_e / res.gamma_e - 1.0),
                    abs(non.gamma_g / res.gamma_g - 1.0))
    elapsed = time.perf_counter() - start
    assert worst < 0.05
    report(7, f"nonresonant two-quantum matches the resonant Lorentzian "
              f"to {worst:.2%} over two decades", elapsed)


def test_criterion_8_property_suite():
    start = time.perf_counter()
    lambda_s = 0.01

    # positivity of spectra and scaled rates
    grid = np.linspace(-6.0, 6.0, 241)
    for kappa in (0.1, 0.3, 0.5):
        for beta in (0.0, 0.05, 0.12, 0.2):
            for n_bar in (0.0, 0.5, 2.0):
                for u, nu in stable_states(beta, kappa):
                    ge, gg = resonant_1q_scaled(grid, u, nu, kappa, n_bar)
                    assert np.all(ge > 0.0) and np.all(gg >= 0.0)
                    assert np.all(spectra(grid, u, nu, kappa, lambda_s, n_bar)[0] > 0.0)
                    assert np.all(spectra(grid, u, nu, kappa, lambda_s, n_bar)[1] >= 0.0)

    # thermal swap symmetry in every channel
    phys = physical_from_scaled(0.12, KAPPA, 1e-4, NBAR, detuning=1.0,
                                omega_f_ratio=50.0)
    s = scale_params(phys)
    u, nu = stable(s.beta, s.kappa_scaled, Branch.LARGE)
    omega_q = 2.0 * phys.omega_f + 0.7
    delta = 0.02 * omega_q
    qubit = QubitParams(w=math.sqrt(omega_q**2 - delta**2), delta=delta,
                        delta_q=0.01, v_x=1e-30)

    w = (omega_q - 2.0 * phys.omega_f) / s.scale
    res = gamma_resonant_1q(qubit, phys, u, nu)
    bracket = (w - (2 * u - 1)) ** 2 + s.kappa_scaled**2
    swap = res.gamma_e * (NBAR * bracket + (NBAR + 1) * u**2) \
        / ((NBAR + 1) * bracket + NBAR * u**2)
    assert math.isclose(res.gamma_g, swap, rel_tol=1e-12)

    two = gamma_resonant_2q(qubit, phys)
    assert math.isclose(two.gamma_g / two.gamma_e, (NBAR / (NBAR + 1)) ** 2,
                        rel_tol=1e-12)

    tot = gamma_total_resonant(qubit, phys, u, nu)
    assert tot.gamma_g == res.gamma_g + two.gamma_g

    # detailed balance at the open bath frequency, not at omega_q
    from duffing_qubit import PhysicalParams

    m = 3.0e-13
    omega_0 = 2 * math.pi * 1.5e9
    phys_cut = PhysicalParams(
        m=m, omega_0=omega_0, omega_f=0.98 * omega_0,
        gamma_s=m * omega_0**2 / 24.0, f_0=1e-8, kappa=0.006 * omega_0,
        temperature=0.04, omega_c=2 * math.pi * 6.5e9,
    )
    omega_q = 2 * math.pi * 6.0e9
    delta = 0.02 * omega_q
    q_cut = QubitParams(w=math.sqrt(omega_q**2 - delta**2), delta=delta,
                        delta_q=1e6, v_x=1e-30)
    s_cut = scale_params(phys_cut)
    res1 = gamma_nonresonant(q_cut, phys_cut, *stable(s_cut.beta, s_cut.kappa_scaled,
                                                      Branch.SMALL))
    channel = omega_q - phys_cut.omega_f
    n_ch = planck(channel, phys_cut.temperature)
    assert math.isclose(res1.gamma_e / res1.gamma_g, (n_ch + 1) / n_ch,
                        rel_tol=1e-12)

    # the cutoff closes omega_q + omega_0, leaving a single channel whose
    # thermal factors swap exactly (one per quantum)
    non2 = gamma_nonresonant_2q(q_cut, phys_cut)
    n_main = planck(q_cut.omega_q - phys_cut.omega_0, phys_cut.temperature)
    n_osc = planck(phys_cut.omega_0, phys_cut.temperature)
    assert math.isclose(non2.gamma_e / non2.gamma_g,
                        ((n_main + 1) * (n_osc + 1)) / (n_main * n_osc),
                        rel_tol=1e-12)

    lin = gamma_linear_nonresonant(q_cut, phys_cut)
    n_q = planck(q_cut.omega_q, phys_cut.temperature)
    assert math.isclose(lin.gamma_e / lin.gamma_g, (n_q + 1) / n_q,
                        rel_tol=1e-12)
    assert math.isclose(lin.t_eff, phys_cut.temperature, rel_tol=1e-12)

    # exact quadratic/linear coupling scaling
    import dataclasses

    r1 = gamma_resonant_1q(qubit, phys, u, nu)
    r4 = gamma_resonant_1q(dataclasses.replace(qubit, delta_q=0.02), phys, u, nu)
    assert r4.gamma_e == 4.0 * r1.gamma_e and r4.gamma_g == 4.0 * r1.gamma_g
    l1 = gamma_linear_nonresonant(q_cut, phys_cut)
    l4 = gamma_linear_nonresonant(
        dataclasses.replace(q_cut, v_x=2 * q_cut.v_x), phys_cut
    )
    assert l4.gamma_e == 4.0 * l1.gamma_e

    # square-root scaling of the quasienergy gap near both bifurcations:
    # nu^2 (= d beta/d u) opens as |beta - beta_bif|^(1/2), equivalently nu
    # itself as the square root of the amplitude distance |u - u_bif|
    info = bifurcation_betas(KAPPA)
    eps = np.geomspace(1e-7, 1e-3, 9)
    for edge, u_edge, branch, side in (
        (info.beta_high, info.u_at_beta_high, Branch.SMALL, -1.0),
        (info.beta_low, info.u_at_beta_low, Branch.LARGE, +1.0),
    ):
        dbs, dus, nus = [], [], []
        for e in eps:
            beta = edge * (1.0 + side * float(e))
            u_edge_side, nu_edge_side = stable(beta, KAPPA, branch)
            dbs.append(abs(beta - edge))
            dus.append(abs(u_edge_side - u_edge))
            nus.append(nu_edge_side)
        slope_b = np.polyfit(np.log(dbs), np.log(np.array(nus) ** 2), 1)[0]
        slope_u = np.polyfit(np.log(dus), np.log(nus), 1)[0]
        assert abs(slope_b - 0.5) <= 0.05
        assert abs(slope_u - 0.5) <= 0.05

    # Lyapunov residual everywhere
    worst = 0.0
    for kappa in (0.1, 0.3, 0.5):
        for beta in (0.0, 0.05, 0.12, 0.2):
            for n_bar in (0.0, 0.5, 2.0):
                for lam in (1e-4, 0.01):
                    for u_res, _ in stable_states(beta, kappa):
                        k = drift_matrix(u_res, beta, kappa)
                        cov = stationary_covariance(k, lam, kappa, n_bar)
                        src = lam * kappa * (2 * n_bar + 1) * np.eye(2)
                        worst = max(worst, float(np.linalg.norm(
                            k @ cov + cov @ k.T + src)))
    assert worst < 1e-10

    elapsed = time.perf_counter() - start
    report(8, f"positivity, thermal swaps, exact coupling scaling, detailed "
              f"balance, sqrt gap scaling, Lyapunov residual {worst:.1e}", elapsed)
