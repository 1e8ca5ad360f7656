import dataclasses
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.constants import hbar, k as k_B

from duffing_qubit import (
    Branch,
    MarginalAttractorError,
    NearResonanceError,
    PhysicalParams,
    QubitParams,
    ScaledParams,
    bath_j,
    bifurcation_betas,
    bloch_redfield,
    c_gamma,
    dephasing_g_zero,
    drift_matrix,
    effective_temperature,
    gamma_linear_nonresonant,
    gamma_linear_resonant,
    gamma_nonresonant,
    gamma_nonresonant_2q,
    gamma_resonant_1q,
    gamma_resonant_2q,
    gamma_total_resonant,
    log_rate_ratio,
    match_report,
    physical_from_scaled,
    planck,
    resonant_1q_scaled,
    scale_params,
    solve_branches,
    stationary_covariance,
)
from duffing_qubit import rates as rate_layer
from duffing_qubit.attractors import _quadratures
from duffing_qubit.rates import (
    FLAG_QUBIT_FASTER,
    FLAG_RESONANT_PUMPING,
    FLAG_SEMICLASSICAL,
    FLAG_TWO_QUANTUM,
    FLAG_WEAK_DAMPING,
    _channel_sums,
    _nonresonant_rates,
    _resonant_1q_columns,
)
from test_fluctuations import spectrum_matrix


def make_setup(beta=0.12, kappa=0.3, lambda_s=1e-4, n_bar=0.5, omega_rel=0.5,
               branch=Branch.LARGE, delta_q=0.01, delta_frac=0.02):
    """Dimensionless-first resonant construction with detuning scale 1 rad/s."""
    phys = physical_from_scaled(beta, kappa, lambda_s, n_bar,
                                detuning=1.0, omega_f_ratio=50.0)
    scaled = scale_params(phys)
    u, nu = solve_branches(scaled.beta, scaled.kappa_scaled).pick(branch)
    omega_q = 2.0 * phys.omega_f + omega_rel
    delta = delta_frac * omega_q
    qubit = QubitParams(w=math.sqrt(omega_q**2 - delta**2), delta=delta,
                        delta_q=delta_q)
    return qubit, phys, u, nu, scaled


def squid_params(omega_0=2 * math.pi * 1.5e9, drive_frac=0.98,
                 kappa_frac=0.006, temperature=0.04, omega_c=None):
    m = 3.0e-13
    return PhysicalParams(
        m=m,
        omega_0=omega_0,
        omega_f=drive_frac * omega_0,
        gamma_s=m * omega_0**2 / 24.0,
        f_0=1e-8,
        kappa=kappa_frac * omega_0,
        temperature=temperature,
        omega_c=omega_c if omega_c is not None else 20.0 * omega_0,
    )


class TestResonantOneQuantum:
    def test_zero_amplitude_rate_ratio(self):
        # the SI rate itself carries the factor u and vanishes; the scaled
        # spectra keep the pure thermal-weight ratio at every detuning
        qubit, phys, u, nu, s = make_setup(beta=0.0, omega_rel=0.7,
                                           branch=Branch.SMALL)
        res = gamma_resonant_1q(qubit, phys, u, nu)
        assert res.gamma_e == 0.0 and res.gamma_g == 0.0
        for w in (-2.3, -0.7, 0.1, 0.7, 4.0):
            ge, gg = resonant_1q_scaled(w, 0.0, nu, s.kappa_scaled,
                                        s.n_bar)
            assert math.isclose(ge / gg, (s.n_bar + 1) / s.n_bar, rel_tol=1e-12)

    @pytest.mark.parametrize("kappa", [-0.3, 0.0, math.nan, math.inf])
    def test_scaled_rates_refuse_a_kappa_scaled_out_of_domain(self, kappa):
        # unchecked, -0.3 gives the negative rates (-6.09, -9.84)
        with pytest.raises(ValueError, match="kappa_scaled must be finite and positive"):
            resonant_1q_scaled(0.0, 0.5, 0.4, kappa, 0.5)

    def test_scaled_and_si_forms_consistent(self):
        qubit, phys, u, nu, s = make_setup()
        res = gamma_resonant_1q(qubit, phys, u, nu)
        assert math.isclose(res.gamma_e / res.gamma_0, res.gamma_e_scaled,
                            rel_tol=1e-12)
        assert math.isclose(res.gamma_g / res.gamma_0, res.gamma_g_scaled,
                            rel_tol=1e-12)
        assert math.isclose(res.gamma_0,
                            hbar * c_gamma(qubit, phys.m, phys.omega_0) * u
                            / (6.0 * phys.gamma_s), rel_tol=1e-14)

    def test_scaled_form_closed_expression(self):
        # gamma/gamma_0 must equal the bare bracket form with no lambda_s
        u, nu, kappa, n_bar = 1.1, 0.6, 0.3, 0.5
        w = 0.37
        ge, gg = resonant_1q_scaled(w, u, nu, kappa, n_bar)
        den = (w**2 - nu**2) ** 2 + 4 * kappa**2 * w**2
        bracket = (w - (2 * u - 1)) ** 2 + kappa**2
        assert math.isclose(ge, 2 * kappa * ((n_bar + 1) * bracket + n_bar * u**2)
                            / den, rel_tol=1e-14)
        assert math.isclose(gg, 2 * kappa * (n_bar * bracket + (n_bar + 1) * u**2)
                            / den, rel_tol=1e-14)

    def test_quadratic_coupling_scaling_exact(self):
        qubit, phys, u, nu, s = make_setup(delta_q=0.01)
        doubled = dataclasses.replace(qubit, delta_q=0.02)
        r1 = gamma_resonant_1q(qubit, phys, u, nu)
        r2 = gamma_resonant_1q(doubled, phys, u, nu)
        assert r2.gamma_e == 4.0 * r1.gamma_e
        assert r2.gamma_g == 4.0 * r1.gamma_g

    def test_rejects_marginal_attractor(self):
        info = bifurcation_betas(0.3)
        qubit, phys, _, _, s = make_setup()
        u, nu = solve_branches(info.beta_high, 0.3).pick(Branch.SMALL)
        assert nu == 0.0
        with pytest.raises(MarginalAttractorError):
            gamma_resonant_1q(qubit, phys, u, nu)

    def test_peak_ordinate_ratio(self):
        # the denominator is even in the detuning, so the ratio of the two
        # quasienergy peaks is fixed by the numerator brackets alone
        _, _, u, nu, s = make_setup(beta=0.12, branch=Branch.LARGE)
        k, n_bar = s.kappa_scaled, s.n_bar
        plus, _ = resonant_1q_scaled(nu, u, nu, k, n_bar)
        minus, _ = resonant_1q_scaled(-nu, u, nu, k, n_bar)

        def bracket(w):
            return (n_bar + 1) * ((w - (2 * u - 1)) ** 2 + k**2) \
                + n_bar * u**2

        assert math.isclose(plus / minus,
                            bracket(nu) / bracket(-nu),
                            rel_tol=1e-12)

    def test_peaks_track_quasienergy_gap_at_weak_damping(self):
        kappa = 0.03
        for branch in (Branch.SMALL, Branch.LARGE):
            _, phys, u, nu, s = make_setup(beta=0.12, kappa=kappa,
                                           branch=branch, omega_rel=0.0)
            grid = np.linspace(-2.0, 2.0, 2001)
            ge, _ = resonant_1q_scaled(grid, u, nu, kappa, s.n_bar)
            for sign in (-1.0, 1.0):
                window = sign * grid > 0.2
                peak = grid[window][np.argmax(ge[window])]
                assert abs(abs(peak) - nu) < kappa / 2.0

    def test_thermal_swap_oracle(self):
        qubit, phys, u, nu, s = make_setup(n_bar=0.8)
        res = gamma_resonant_1q(qubit, phys, u, nu)
        w = (qubit.omega_q - 2 * phys.omega_f) / s.scale
        den = (w**2 - nu**2) ** 2 + 4 * s.kappa_scaled**2 * w**2
        bracket = (w - (2 * u - 1)) ** 2 + s.kappa_scaled**2
        pref = (
            c_gamma(qubit, phys.m, phys.omega_0)
            * (phys.m * phys.omega_f) ** 2 * s.scale / (9 * phys.gamma_s**2) * u
            * 2 * s.lambda_s * s.kappa_scaled / den
        )
        assert math.isclose(res.gamma_e,
                            pref * ((s.n_bar + 1) * bracket + s.n_bar * u**2),
                            rel_tol=1e-12)
        assert math.isclose(res.gamma_g,
                            pref * (s.n_bar * bracket + (s.n_bar + 1) * u**2),
                            rel_tol=1e-12)


class TestResonantTwoQuantum:
    def test_wiring_and_swap(self):
        qubit, phys, _, _, s = make_setup()
        res = gamma_resonant_2q(qubit, phys)
        cg = c_gamma(qubit, phys.m, phys.omega_0)
        det = qubit.omega_q - 2 * phys.omega_0
        lorentz = phys.kappa / (det**2 + 4 * phys.kappa**2)
        base = cg * (hbar / (phys.m * phys.omega_0)) ** 2 * lorentz
        assert math.isclose(res.gamma_e, base * (s.n_bar + 1) ** 2, rel_tol=1e-12)
        assert math.isclose(res.gamma_g, base * s.n_bar**2, rel_tol=1e-12)

    def test_vacuum_ground_rate_vanishes(self):
        qubit, phys, _, _, _ = make_setup()
        res = gamma_resonant_2q(qubit, dataclasses.replace(phys, temperature=0.0))
        assert res.gamma_g == 0.0 and res.gamma_e > 0.0


class TestTotalResonant:
    def test_additivity_exact(self):
        qubit, phys, u, nu, s = make_setup()
        one = gamma_resonant_1q(qubit, phys, u, nu)
        two = gamma_resonant_2q(qubit, phys)
        tot = gamma_total_resonant(qubit, phys, u, nu)
        assert tot.gamma_e == one.gamma_e + two.gamma_e
        assert tot.gamma_g == one.gamma_g + two.gamma_g

    def test_one_quantum_dominates_at_large_amplitude(self):
        # kappa * r_a >> nu * sqrt(lambda_s (2 nbar + 1)) here
        qubit, phys, u, nu, s = make_setup(lambda_s=1e-4, omega_rel=0.5)
        assert s.kappa_scaled * math.sqrt(u) > \
            10 * nu * math.sqrt(s.fluctuation_area)
        one = gamma_resonant_1q(qubit, phys, u, nu)
        tot = gamma_total_resonant(qubit, phys, u, nu)
        assert abs(tot.gamma_e / one.gamma_e - 1.0) < 0.01
        assert FLAG_TWO_QUANTUM not in tot.flags

    def test_two_quantum_dominates_at_weak_driving(self):
        phys = physical_from_scaled(1e-6, 0.3, 0.05, 0.5,
                                    detuning=1.0, omega_f_ratio=50.0)
        s = scale_params(phys)
        u, nu = solve_branches(s.beta, s.kappa_scaled).pick(Branch.SMALL)
        omega_q = 2.0 * phys.omega_0  # two-quantum resonance
        delta = 0.02 * omega_q
        qubit = QubitParams(w=math.sqrt(omega_q**2 - delta**2), delta=delta,
                            delta_q=0.01)
        one = gamma_resonant_1q(qubit, phys, u, nu)
        two = gamma_resonant_2q(qubit, phys)
        tot = gamma_total_resonant(qubit, phys, u, nu)
        assert two.gamma_e > 100 * one.gamma_e
        assert FLAG_TWO_QUANTUM in tot.flags


class TestNonresonant:
    def test_zero_temperature_channels(self):
        # omega_f > omega_q: only the omega_f - omega_q channel can excite
        phys = dataclasses.replace(
            physical_from_scaled(0.12, 0.3, 1e-4, 0.5, detuning=1.0,
                                 omega_f_ratio=50.0),
            temperature=0.0,
        )
        s = scale_params(phys)
        u, nu = solve_branches(s.beta, s.kappa_scaled).pick(Branch.LARGE)
        omega_q = 0.6 * phys.omega_f
        delta = 0.02 * omega_q
        qubit = QubitParams(w=math.sqrt(omega_q**2 - delta**2), delta=delta,
                            delta_q=0.01)
        res = gamma_nonresonant(qubit, phys, u, nu)
        assert res.gamma_g > 0.0
        # oracle: single open channel at omega_f - omega_q with weight n+1=1
        wi = phys.omega_f - omega_q
        expected = (
            c_gamma(qubit, phys.m, phys.omega_0)
            * 2 * phys.omega_f * s.scale / (3 * phys.m * phys.gamma_s) * u
            * bath_j(phys, wi) / (phys.omega_0**2 - wi**2) ** 2
        )
        assert math.isclose(res.gamma_g, expected, rel_tol=1e-12)

        # omega_f < omega_q: nothing can excite at T = 0
        omega_q = 3.1 * phys.omega_f
        delta = 0.02 * omega_q
        qubit = QubitParams(w=math.sqrt(omega_q**2 - delta**2), delta=delta,
                            delta_q=0.01)
        res = gamma_nonresonant(qubit, phys, u, nu)
        assert res.gamma_g == 0.0 and res.gamma_e > 0.0

    def test_rate_proportional_to_amplitude(self):
        qubit, phys, u1, nu1, s = make_setup(beta=0.05, omega_rel=20.0,
                                             branch=Branch.SMALL)
        u2, nu2 = solve_branches(0.02, s.kappa_scaled).pick(Branch.SMALL)
        r1 = gamma_nonresonant(qubit, phys, u1, nu1)
        r2 = gamma_nonresonant(qubit, phys, u2, nu2)
        assert math.isclose(r1.gamma_e / r2.gamma_e, u1 / u2, rel_tol=1e-12)
        assert math.isclose(r1.gamma_g / r2.gamma_g, u1 / u2, rel_tol=1e-12)

    def test_denominator_guard(self):
        qubit, phys, u, nu, s = make_setup()
        # place omega_q - omega_f exactly at the oscillator resonance
        omega_q = phys.omega_f + phys.omega_0
        bad = QubitParams(w=omega_q, delta=0.0, delta_q=0.01)
        with pytest.raises(NearResonanceError):
            gamma_nonresonant(bad, phys, u, nu)

    def test_thermal_swap(self):
        qubit, phys, u, nu, s = make_setup(omega_rel=25.0)
        res = gamma_nonresonant(qubit, phys, u, nu)
        pref = (
            c_gamma(qubit, phys.m, phys.omega_0)
            * 2 * phys.omega_f * s.scale / (3 * phys.m * phys.gamma_s) * u
        )
        wq, wf = qubit.omega_q, phys.omega_f
        t = phys.temperature

        def term(wi, off):
            if wi <= 0:
                return 0.0
            return bath_j(phys, wi) * (planck(wi, t) + off) \
                / (phys.omega_0**2 - wi**2) ** 2

        expected_e = term(wq + wf, 1) + term(wq - wf, 1) + term(wf - wq, 0)
        expected_g = term(wq + wf, 0) + term(wq - wf, 0) + term(wf - wq, 1)
        assert math.isclose(res.gamma_e, pref * expected_e, rel_tol=1e-12)
        assert math.isclose(res.gamma_g, pref * expected_g, rel_tol=1e-12)


class TestNonresonantTwoQuantum:
    def test_zero_temperature_keeps_only_emission(self):
        phys = dataclasses.replace(squid_params(), temperature=0.0)
        omega_q = 2 * math.pi * 4.5e9  # far from 2*omega_0 = 3 GHz
        qubit = QubitParams(w=omega_q, delta=0.02 * omega_q, delta_q=1e6)
        res = gamma_nonresonant_2q(qubit, phys)
        assert res.gamma_e > 0.0 and res.gamma_g == 0.0

    def test_monotone_decrease_with_detuning(self):
        phys = squid_params(kappa_frac=1e-5)
        rates = []
        for det_frac in np.geomspace(1e-4, 1e-2, 7):
            omega_q = 2 * phys.omega_0 * (1 + det_frac)
            qubit = QubitParams(w=omega_q, delta=0.02 * omega_q, delta_q=1e6)
            rates.append(gamma_nonresonant_2q(qubit, phys).gamma_e)
        assert all(a > b for a, b in zip(rates, rates[1:]))


class TestLinearCoupling:
    def test_zero_coupling_zero_rate(self):
        qubit, phys, u, nu, s = make_setup()
        res = gamma_linear_resonant(qubit, phys, u, nu)
        assert res.gamma_e == 0.0 and res.gamma_g == 0.0

    def test_prefactor_amplitude_independent(self):
        _, phys, _, _, s = make_setup(omega_rel=0.0)
        omega_q = phys.omega_f + 0.4 * s.scale
        delta = 0.02 * omega_q
        qubit = QubitParams(w=math.sqrt(omega_q**2 - delta**2), delta=delta,
                            v_x=1e-30)
        branches = solve_branches(s.beta, s.kappa_scaled)
        small, large = (branches.pick(b) for b in (Branch.SMALL, Branch.LARGE))
        w = (omega_q - phys.omega_f) / s.scale
        results = []
        for u, nu in (small, large):
            res = gamma_linear_resonant(qubit, phys, u, nu)
            from duffing_qubit import spectra
            f = spectra(w, u, nu, s.kappa_scaled,
                        s.lambda_s, s.n_bar)[0]
            results.append(res.gamma_e / f)
        assert math.isclose(results[0], results[1], rel_tol=1e-12)
        # still attractor-dependent through the spectrum itself
        r_small = gamma_linear_resonant(qubit, phys, *small)
        r_large = gamma_linear_resonant(qubit, phys, *large)
        assert abs(r_small.gamma_e / r_large.gamma_e - 1.0) > 0.05

    def test_sigma_z_route_equivalent_weight(self):
        qubit, phys, u, nu, s = make_setup(omega_rel=0.6)
        v = 1e-30
        with_x = dataclasses.replace(qubit, v_x=v, v_z=0.0)
        with_z = dataclasses.replace(qubit, v_x=0.0,
                                     v_z=v * qubit.w / qubit.delta)
        rx = gamma_linear_resonant(with_x, phys, u, nu)
        rz = gamma_linear_resonant(with_z, phys, u, nu)
        assert math.isclose(rx.gamma_e, rz.gamma_e, rel_tol=1e-12)

    def test_quasienergy_resonance_position(self):
        kappa = 0.03
        _, phys, u, nu, s = make_setup(beta=0.12, kappa=kappa, branch=Branch.LARGE,
                                       omega_rel=0.0)
        detunings = np.linspace(0.2, 1.5, 1301)
        rates = []
        for wrel in detunings:
            omega_q = phys.omega_f + wrel * s.scale
            delta = 0.02 * omega_q
            qubit = QubitParams(w=math.sqrt(omega_q**2 - delta**2),
                                delta=delta, v_x=1e-30)
            rates.append(gamma_linear_resonant(qubit, phys, u, nu).gamma_e)
        peak = detunings[int(np.argmax(rates))]
        assert abs(peak - nu) < kappa

    def test_linear_nonresonant_detailed_balance(self):
        phys = squid_params()
        omega_q = 2 * math.pi * 6.0e9
        qubit = QubitParams(w=omega_q, delta=0.0, v_x=1e-30)
        res = gamma_linear_nonresonant(qubit, phys)
        assert math.isclose(res.t_eff, phys.temperature, rel_tol=1e-12)
        ratio = res.gamma_e / res.gamma_g
        n_q = planck(omega_q, phys.temperature)
        assert math.isclose(ratio, (n_q + 1) / n_q, rel_tol=1e-12)

    def test_linear_nonresonant_cutoff(self):
        phys = squid_params(omega_c=2 * math.pi * 4.0e9)
        omega_q = 2 * math.pi * 6.0e9  # beyond the bath cutoff
        qubit = QubitParams(w=omega_q, delta=0.0, v_x=1e-30)
        res = gamma_linear_nonresonant(qubit, phys)
        assert res.gamma_e == 0.0 and res.gamma_g == 0.0

    def test_linear_scaling_exact(self):
        phys = squid_params()
        omega_q = 2 * math.pi * 6.0e9
        q1 = QubitParams(w=omega_q, delta=0.0, v_x=1e-30)
        q2 = QubitParams(w=omega_q, delta=0.0, v_x=2e-30)
        r1 = gamma_linear_nonresonant(q1, phys)
        r2 = gamma_linear_nonresonant(q2, phys)
        assert r2.gamma_e == 4.0 * r1.gamma_e


class TestEffectiveTemperature:
    def test_doubled_bath_temperature_at_twice_drive(self):
        # omega_q = 2 omega_f with the curly-bracket term dominating
        # (vanishing amplitude: the u^2 term is negligible)
        qubit, phys, u, nu, s = make_setup(beta=1e-8, omega_rel=0.0,
                                           branch=Branch.SMALL)
        omega_q = 2.0 * phys.omega_f
        delta = 0.02 * omega_q
        qubit = QubitParams(w=math.sqrt(omega_q**2 - delta**2), delta=delta,
                            delta_q=0.01)
        res = gamma_resonant_1q(qubit, phys, u, nu)
        assert math.isclose(res.t_eff, 2.0 * phys.temperature, rel_tol=1e-10)

    def test_single_open_channel_scalings(self):
        # cutoff strangles omega_q + omega_f: T_eff = T * omega_q/(omega_q - omega_f)
        omega_0 = 2 * math.pi * 1.5e9
        phys = squid_params(omega_0=omega_0, omega_c=2 * math.pi * 6.5e9)
        omega_q = 2 * math.pi * 6.0e9
        delta = 0.02 * omega_q
        qubit = QubitParams(w=math.sqrt(omega_q**2 - delta**2), delta=delta,
                            delta_q=1e6)
        s = scale_params(phys)
        u, nu = solve_branches(s.beta, s.kappa_scaled).pick(Branch.SMALL)
        res = gamma_nonresonant(qubit, phys, u, nu)
        expected = phys.temperature * omega_q / (omega_q - phys.omega_f)
        assert abs(res.t_eff / expected - 1.0) < 1e-3
        assert math.isclose(res.t_eff, expected, rel_tol=1e-12)

        # omega_f > omega_q with omega_q + omega_f beyond the cutoff:
        # negative effective temperature -T * omega_q/(omega_f - omega_q)
        omega_0 = 2 * math.pi * 8.0e9
        phys = squid_params(omega_0=omega_0, omega_c=2 * math.pi * 9.0e9)
        omega_q = 2 * math.pi * 3.0e9
        delta = 0.02 * omega_q
        qubit = QubitParams(w=math.sqrt(omega_q**2 - delta**2), delta=delta,
                            delta_q=1e6)
        s = scale_params(phys)
        u, nu = solve_branches(s.beta, s.kappa_scaled).pick(Branch.SMALL)
        res = gamma_nonresonant(qubit, phys, u, nu)
        expected = -phys.temperature * omega_q / (phys.omega_f - omega_q)
        assert math.isclose(res.t_eff, expected, rel_tol=1e-12)
        assert res.t_eff < 0.0

    def test_limits(self):
        assert effective_temperature(1.0, 1.0, 1e9) == math.inf
        assert effective_temperature(1.0, 0.0, 1e9) == 0.0
        assert math.copysign(1.0, effective_temperature(0.0, 1.0, 1e9)) == -1.0
        assert math.isnan(effective_temperature(0.0, 0.0, 1e9))
        assert effective_temperature(2.0, 1.0, 1e9) > 0.0
        assert effective_temperature(1.0, 2.0, 1e9) < 0.0
        with pytest.raises(ValueError):
            effective_temperature(-1.0, 1.0, 1e9)


class TestBlochRedfield:
    def test_pure_relaxation_limit(self):
        phys = squid_params()
        qubit = QubitParams(w=2 * math.pi * 3e9, delta=2 * math.pi * 1e8,
                            delta_q=1e6)
        t1, t2 = bloch_redfield(100.0, 50.0, qubit, phys, 0.0)
        assert math.isclose(t1, 1.0 / 150.0, rel_tol=1e-15)
        assert math.isclose(t2, 2.0 * t1, rel_tol=1e-15)

    def test_subnormal_rates_give_infinite_times(self):
        # the inverses of the total rates 1e-309 and 4e-309, and of half of
        # them, overflow: T1 and T2 are inf, and no overflow warning is raised
        phys = squid_params()
        qubit = QubitParams(w=2 * math.pi * 3e9, delta=2 * math.pi * 1e8)
        assert bloch_redfield(1e-309, 0.0, qubit, phys, 0.0) == (math.inf, math.inf)
        t1, t2 = bloch_redfield(np.array([2e-309, 1.0]), np.array([2e-309, 1.0]),
                                sweep_qubit(np.array([3e10, 4e10])), phys, 0.0)
        assert t1.tolist() == [math.inf, 0.5] and t2.tolist() == [math.inf, 1.0]

    def test_t1_is_rate_sum(self):
        qubit, phys, u, nu, s = make_setup()
        res = gamma_resonant_1q(qubit, phys, u, nu)
        assert math.isclose(res.t1, 1.0 / (res.gamma_e + res.gamma_g),
                            rel_tol=1e-15)

    def test_dephasing_dominates_at_small_transverse_term(self):
        qubit, phys, u, nu, s = make_setup(delta_frac=1e-3)
        res = gamma_resonant_1q(qubit, phys, u, nu)
        g0 = dephasing_g_zero(u, s)
        assert g0 > 0.0
        dephasing = 2 * c_gamma(qubit, phys.m, phys.omega_0) \
            * (qubit.w / qubit.delta) ** 2 * g0
        assert dephasing > 100.0 * (0.5 / res.t1)
        assert res.t2 < 0.02 * res.t1

    @settings(max_examples=200, deadline=None)
    @given(
        kappa=st.floats(0.02, 0.57),
        beta=st.one_of(st.just(0.0), st.floats(1e-200, 0.3), st.floats(0.3, 1e30),
                   st.just(1e300)),
        lambda_s=st.floats(-4.0, -1.0).map(lambda x: 10.0**x),
        n_bar=st.floats(0.0, 5.0),
    )
    def test_dc_weight_matches_the_lapack_resolvent(self, kappa, beta, lambda_s, n_bar):
        # the closed form -v.adj K.C.v / det K against v.Re N(0).v from one
        # LAPACK solve, with c_res = 1 and scale 1 so the weight is the bare
        # product; on both stable branches.  The weight is ~ beta lambda_s, so
        # a drive far below 1e-200 would leave it in the subnormal range
        s = ScaledParams(beta=beta, kappa_scaled=kappa, lambda_s=lambda_s, n_bar=n_bar,
                         scale=1.0, c_res=1.0)
        solved = solve_branches(beta, kappa)
        for branch in (Branch.SMALL, Branch.LARGE):
            u, nu = solved.pick(branch)
            if not nu > 0.0:
                continue
            k = drift_matrix(u, beta, kappa)
            cov = stationary_covariance(k, lambda_s, kappa, n_bar)
            v = np.array(_quadratures(u, beta, kappa))
            reference = float(v @ spectrum_matrix(k, cov, lambda_s, 0.0).real @ v)
            assert math.isclose(dephasing_g_zero(u, s), reference, rel_tol=1e-12)

    def test_rejects_zero_delta_with_dephasing(self):
        phys = squid_params()
        qubit = QubitParams(w=2 * math.pi * 3e9, delta=0.0, delta_q=1e6)
        with pytest.raises(ValueError):
            bloch_redfield(1.0, 1.0, qubit, phys, 1e-30)


class TestMarginalOrAbsentSteadyState:
    """A rate needs a strictly stable steady state: the gap nu is 0 at a
    marginal one and NaN where the branch is absent."""

    @pytest.mark.parametrize("rate", [gamma_resonant_1q, gamma_total_resonant,
                                      gamma_nonresonant, gamma_linear_resonant])
    @pytest.mark.parametrize("nu", [0.0, math.nan])
    def test_every_rate_refuses(self, rate, nu):
        qubit, phys, u, _, s = make_setup()
        with pytest.raises(MarginalAttractorError, match="nu_scaled"):
            rate(qubit, phys, u, nu)

    def test_dephasing_weight_refuses(self):
        info = bifurcation_betas(0.3)
        s = ScaledParams(beta=info.beta_high, kappa_scaled=0.3, lambda_s=1e-4, n_bar=0.5,
                         scale=1.0, c_res=1.0)
        solved = solve_branches(info.beta_high, 0.3)
        u, nu = solved.pick(Branch.SMALL)
        assert nu == 0.0
        for bad in (u, solved.u_unstable):  # marginal, then absent (NaN)
            with pytest.raises(MarginalAttractorError):
                dephasing_g_zero(bad, s)
        assert dephasing_g_zero(solved.u_large, s) > 0.0


class TestValidityFlags:
    def test_semiclassical_quiet_at_small_lambda(self):
        qubit, phys, u, nu, s = make_setup(lambda_s=1e-4)
        res = gamma_resonant_1q(qubit, phys, u, nu)
        assert FLAG_SEMICLASSICAL not in res.flags
        assert res.ratios[FLAG_SEMICLASSICAL] == s.fluctuation_area

    def test_semiclassical_raised_at_large_cloud(self):
        qubit, phys, u, nu, s = make_setup(lambda_s=0.2)
        res = gamma_resonant_1q(qubit, phys, u, nu)
        assert FLAG_SEMICLASSICAL in res.flags

    def test_weak_damping_raised_near_bifurcation(self):
        qubit, phys, u, nu, s = make_setup(beta=0.1802, branch=Branch.SMALL)
        assert nu < s.kappa_scaled
        res = gamma_resonant_1q(qubit, phys, u, nu)
        assert FLAG_WEAK_DAMPING in res.flags

    def test_pumping_flag_absent_without_coupling(self):
        qubit, phys, u, nu, s = make_setup(delta_q=0.0)
        res = gamma_resonant_1q(qubit, phys, u, nu)
        assert FLAG_RESONANT_PUMPING not in res.flags


def sweep_params():
    """GHz oscillator driven 2e8 rad/s below resonance, its scaled
    parameters and the large-amplitude steady state (u, nu)."""
    phys = physical_from_scaled(0.12, 0.3, 1e-4, 0.5, detuning=2e8,
                                omega_f_ratio=46.0, m=3e-13)
    scaled = scale_params(phys)
    u, nu = solve_branches(scaled.beta, scaled.kappa_scaled).pick(Branch.LARGE)
    return phys, scaled, u, nu


# regime -> (rate call, omega_q grid clear of the resonance guard band)
SWEEPS = {
    "resonant-2q": (
        lambda q, p, u, nu: gamma_resonant_2q(q, p),
        lambda p, s: np.linspace(2 * p.omega_0 - 50 * p.kappa, 2 * p.omega_0 + 50 * p.kappa, 41)),
    "resonant-total": (
        gamma_total_resonant,
        lambda p, s: np.linspace(2 * p.omega_f - 4 * s.scale, 2 * p.omega_f + 4 * s.scale, 41)),
    "nonresonant": (
        gamma_nonresonant,
        lambda p, s: np.linspace(3.2 * p.omega_f, 5.0 * p.omega_f, 41)),
    "nonresonant-2q": (
        lambda q, p, u, nu: gamma_nonresonant_2q(q, p),
        lambda p, s: np.linspace(2.5 * p.omega_0, 4.0 * p.omega_0, 41)),
    "linear-resonant": (
        gamma_linear_resonant,
        lambda p, s: np.linspace(p.omega_f - 4 * s.scale, p.omega_f + 4 * s.scale, 41)),
    "linear-nonresonant": (
        lambda q, p, u, nu: gamma_linear_nonresonant(q, p),
        lambda p, s: np.geomspace(1.5 * p.omega_0, 3.0 * p.omega_0, 41)),
}

NUMERIC_FIELDS = ("gamma_e", "gamma_g", "t1", "t_eff", "t2", "gamma_0",
                  "gamma_e_scaled", "gamma_g_scaled")


def sweep_qubit(omega_q, delta=5e8):
    return QubitParams(w=np.sqrt(omega_q**2 - delta**2), delta=delta, delta_q=1e8,
                       v_x=1e-15, v_z=1e-15)


class TestArraySweeps:
    """One call over an omega_q array against one scalar call per point."""

    RTOL = 1e-13

    @pytest.mark.parametrize("regime", sorted(SWEEPS))
    def test_array_matches_per_point_calls(self, regime):
        rate, grid = SWEEPS[regime]
        phys, scaled, u, nu = sweep_params()
        q = sweep_qubit(grid(phys, scaled))
        swept = rate(q, phys, u, nu)
        assert len(swept.flags) == q.w.size
        for i, w in enumerate(q.w.tolist()):
            point = rate(dataclasses.replace(q, w=w), phys, u, nu)
            assert point.regime == swept.regime == regime
            assert point.flags == swept.flags[i]
            for name in NUMERIC_FIELDS:
                got, want = getattr(swept, name), getattr(point, name)
                assert (got is None) == (want is None), name
                if want is not None:
                    assert math.isclose(got[i], want, rel_tol=self.RTOL), name
            assert swept.ratios.keys() == point.ratios.keys()
            for name, value in point.ratios.items():
                got = swept.ratios[name][i]
                assert (math.isnan(got) and math.isnan(value)) or \
                    math.isclose(got, value, rel_tol=self.RTOL), name

    @pytest.mark.parametrize("regime", sorted(SWEEPS))
    def test_scalar_gives_floats_and_a_frozenset(self, regime):
        rate, grid = SWEEPS[regime]
        phys, scaled, u, nu = sweep_params()
        omega_q = grid(phys, scaled)
        res = rate(sweep_qubit(float(omega_q[7])), phys, u, nu)
        assert isinstance(res.flags, frozenset)
        for name in NUMERIC_FIELDS:
            value = getattr(res, name)
            assert value is None or type(value) is float, name
        assert all(type(v) is float for v in res.ratios.values())
        swept = rate(sweep_qubit(omega_q), phys, u, nu)
        assert isinstance(swept.flags, tuple)
        assert all(isinstance(f, frozenset) for f in swept.flags)
        assert swept.gamma_e.shape == swept.t_eff.shape == omega_q.shape
        assert all(np.shape(v) == omega_q.shape for v in swept.ratios.values())

    @pytest.mark.parametrize("regime, crossing", [
        ("nonresonant", lambda p: p.omega_f + p.omega_0),
        ("nonresonant-2q", lambda p: 2 * p.omega_0),
        ("linear-nonresonant", lambda p: p.omega_0),
    ])
    def test_guard_band_names_first_failing_point(self, regime, crossing):
        rate, _ = SWEEPS[regime]
        phys, scaled, u, nu = sweep_params()
        centre = crossing(phys)
        omega_q = np.linspace(centre - 20 * phys.kappa, centre + 20 * phys.kappa, 81)
        omega_q = omega_q[omega_q > 5e8]
        q = sweep_qubit(omega_q)
        first = None
        for w in q.w.tolist():
            try:
                rate(dataclasses.replace(q, w=w), phys, u, nu)
            except NearResonanceError as exc:
                first = str(exc)
                break
        assert first is not None
        with pytest.raises(NearResonanceError) as info:
            rate(q, phys, u, nu)
        assert str(info.value) == first

    def test_guard_band_reports_channel_order_within_a_point(self):
        # at kappa = 0.3 omega_0 the band holds both open channels,
        # omega_q + omega_f and omega_f - omega_q; the first listed is named
        phys = squid_params(kappa_frac=0.3)
        s = scale_params(phys)
        u, nu = solve_branches(s.beta, s.kappa_scaled).pick(Branch.SMALL)
        omega_q = np.array([0.5, 0.6]) * phys.omega_0
        q = QubitParams(w=omega_q, delta=0.0, delta_q=1e6)
        named = re.escape(f"frequency {omega_q[0] + phys.omega_f:g} rad/s")
        with pytest.raises(NearResonanceError, match=named):
            gamma_nonresonant(q, phys, u, nu)
        with pytest.raises(NearResonanceError, match=named):
            gamma_nonresonant(dataclasses.replace(q, w=float(omega_q[0])), phys, u, nu)


class TestThermalSwapProperties:
    """The thermal swap n_bar + 1 <-> n_bar and detailed balance in each SI
    regime, over kappa_scaled, lambda_s, n_bar and a drive with a stable
    branch, on an omega_q sweep in one call."""

    RTOL = 1e-12

    @staticmethod
    @st.composite
    def setups(draw):
        kappa = draw(st.floats(0.02, 0.57))
        lambda_s = draw(st.floats(-5.0, -2.0).map(lambda x: 10.0**x))
        n_bar = draw(st.floats(0.05, 5.0))
        beta = draw(st.floats(1e-3, 0.3))
        phys = physical_from_scaled(beta, kappa, lambda_s, n_bar,
                                    detuning=1.0, omega_f_ratio=50.0)
        s = scale_params(phys)
        branches = solve_branches(s.beta, s.kappa_scaled)
        branch = draw(st.sampled_from([Branch.SMALL, Branch.LARGE]))
        u, nu = branches.pick(branch)
        assume(nu > 0.0)
        return phys, s, u, nu

    @staticmethod
    def assert_swapped(res, qubit, centre, s, u):
        # gamma_g ((n+1) B + n u^2) = gamma_e (n B + (n+1) u^2), with B the
        # bracket at the scaled detuning w of omega_q from centre
        n = s.n_bar
        w = (qubit.omega_q - centre) / s.scale
        bracket = (w - (2.0 * u - 1.0)) ** 2 + s.kappa_scaled**2
        np.testing.assert_allclose(res.gamma_g * ((n + 1.0) * bracket + n * u * u),
                                   res.gamma_e * (n * bracket + (n + 1.0) * u * u),
                                   rtol=TestThermalSwapProperties.RTOL)

    @settings(max_examples=60, deadline=None)
    @given(setup=setups(), omega_rel=st.floats(-4.0, 4.0))
    def test_resonant_channels(self, setup, omega_rel):
        phys, s, u, nu = setup
        w = omega_rel + np.linspace(-0.5, 0.5, 5)
        qubit = sweep_qubit(2.0 * phys.omega_f + w * s.scale, delta=0.02 * phys.omega_f)
        one = gamma_resonant_1q(qubit, phys, u, nu)
        self.assert_swapped(one, qubit, 2.0 * phys.omega_f, s, u)
        two = gamma_resonant_2q(qubit, phys)
        np.testing.assert_allclose(two.gamma_g / two.gamma_e,
                                   (s.n_bar / (s.n_bar + 1.0)) ** 2, rtol=self.RTOL)
        total = gamma_total_resonant(qubit, phys, u, nu)
        np.testing.assert_array_equal(total.gamma_e, one.gamma_e + two.gamma_e)
        np.testing.assert_array_equal(total.gamma_g, one.gamma_g + two.gamma_g)

    @settings(max_examples=60, deadline=None)
    @given(setup=setups(), omega_rel=st.floats(-4.0, 4.0))
    def test_linear_resonant_swaps_at_the_drive(self, setup, omega_rel):
        phys, s, u, nu = setup
        w = omega_rel + np.linspace(-0.5, 0.5, 5)
        qubit = sweep_qubit(phys.omega_f + w * s.scale, delta=0.02 * phys.omega_f)
        res = gamma_linear_resonant(qubit, phys, u, nu)
        self.assert_swapped(res, qubit, phys.omega_f, s, u)

    @settings(max_examples=60, deadline=None)
    @given(setup=setups(), low=st.floats(1.5, 2.5))
    def test_linear_nonresonant_is_at_the_bath_temperature(self, setup, low):
        phys, _, _, _ = setup
        omega_q = np.geomspace(low, low + 0.5, 5) * phys.omega_0
        res = gamma_linear_nonresonant(sweep_qubit(omega_q, delta=0.02 * phys.omega_f), phys)
        np.testing.assert_allclose(res.t_eff, phys.temperature, rtol=self.RTOL)


class TestTotalResonantQubitFaster:
    def test_ratio_uses_the_total_t1(self):
        phys, scaled, u, nu = sweep_params()
        omega_q = 2 * phys.omega_f
        delta = 5e8
        q = QubitParams(w=math.sqrt(omega_q**2 - delta**2), delta=delta, delta_q=1e8)
        total = gamma_total_resonant(q, phys, u, nu)
        one = gamma_resonant_1q(q, phys, u, nu)
        assert total.ratios[FLAG_QUBIT_FASTER] == 1.0 / (total.t1 * phys.kappa)
        assert total.ratios[FLAG_QUBIT_FASTER] > 1.0
        assert FLAG_QUBIT_FASTER in total.flags
        assert FLAG_QUBIT_FASTER in one.flags


class TestPlanckOverflow:
    def test_occupation_is_zero_past_the_exponential_range(self):
        assert planck(1e10, 1e-9) == 0.0
        omega = np.geomspace(1e8, 1e12, 41)
        swept = planck(omega, 1e-3)
        assert swept[-1] == 0.0 and swept[0] > 0.0
        assert [planck(w, 1e-3) for w in omega.tolist()] == swept.tolist()

    def test_linear_nonresonant_at_low_temperature(self):
        phys = dataclasses.replace(squid_params(), temperature=1e-9)
        omega_q = np.linspace(2.0, 3.0, 11) * phys.omega_0
        res = gamma_linear_nonresonant(
            QubitParams(w=omega_q, delta=0.0, v_x=1e-30), phys)
        assert np.all(np.isfinite(res.gamma_e)) and np.all(res.gamma_e > 0.0)
        assert np.all(res.gamma_g == 0.0)


class TestQubitParamsDomain:
    @pytest.mark.parametrize("field", ["w", "delta", "delta_q", "v_x", "v_z"])
    def test_rejects_nonfinite(self, field):
        values = dict(w=1e10, delta=1e8, delta_q=1e6, v_x=0.0, v_z=0.0)
        for bad in (math.nan, math.inf):
            values[field] = bad
            with pytest.raises(ValueError, match="finite"):
                QubitParams(**values)

    def test_rejects_a_bad_point_of_an_array(self):
        with pytest.raises(ValueError):
            QubitParams(w=np.array([1e10, -1.0]), delta=1e8)
        with pytest.raises(ValueError):
            QubitParams(w=np.array([1e10, math.nan]), delta=1e8)


class TestLogRateRatio:
    def test_scalar_and_array(self):
        assert log_rate_ratio(math.e, 1.0) == math.log(math.e)
        assert type(log_rate_ratio(2.0, 1.0)) is float
        ge = np.array([[2.0, 1.0], [3.0, 0.5]])
        got = log_rate_ratio(ge, 1.5)
        assert got.shape == (2, 2)
        assert got.tolist() == [[float(np.log(e / 1.5)) for e in row] for row in ge.tolist()]

    def test_nan_where_a_rate_is_not_positive(self):
        got = log_rate_ratio(np.array([0.0, -1.0, 1.0, math.nan, 1.0, 2.0]),
                             np.array([1.0, 1.0, 0.0, 1.0, math.nan, 2.0]))
        assert np.isnan(got[:5]).all() and got[5] == 0.0
        assert math.isnan(log_rate_ratio(0.0, 0.0))

    def test_effective_temperature_is_built_on_it(self):
        # with log-uniform rates and ratios near 1, where numpy's SIMD log
        # rounds differently from libm on some values: a sweep has the bits of
        # np.log called on each ratio alone
        rng = np.random.default_rng(0)
        gg = np.concatenate([[1.0, 2.0, 0.2, 1e-300], np.exp(rng.uniform(-300.0, 300.0, 4000))])
        ge = np.concatenate([[2.0, 1.0, 0.3, 5e-300],
                             gg[4:] * np.exp(rng.uniform(-0.1, 0.1, 4000))])
        wq = 1e10
        ln = [float(np.log(e / g)) for e, g in zip(ge.tolist(), gg.tolist())]
        assert log_rate_ratio(ge, gg).tolist() == ln
        assert [log_rate_ratio(e, g) for e, g in zip(ge.tolist(), gg.tolist())] == ln
        expected = [hbar * wq / (k_B * x) for x in ln]
        assert effective_temperature(ge, gg, wq).tolist() == expected


class TestQubitOmegaQ:
    def test_computed_once_with_the_bits_of_per_point_qubits(self):
        # over SI splittings, on which np.hypot and math.hypot round
        # differently on some values
        w = np.exp(np.random.default_rng(31).uniform(math.log(1e8), math.log(1e12), 2000))
        q = QubitParams(w=w, delta=5e8)
        assert q.omega_q is q.omega_q
        assert q.omega_q.tolist() == [QubitParams(w=x, delta=5e8).omega_q for x in w.tolist()]
        assert type(QubitParams(w=3.0, delta=4.0).omega_q) is float
        assert QubitParams(w=3.0, delta=4.0).omega_q == 5.0
        assert QubitParams(w=1.7e308, delta=1.7e308).omega_q == math.inf

    def test_si_table_rates_are_taken_at_the_printed_omega_q(self, monkeypatch):
        # hypot(sqrt(omega_q^2 - delta^2), delta) is 1 ulp off 17 118 of these
        # 10^5 omega_q, and off 2 of the 7 of si_nonresonant_csv's grid
        grid = np.concatenate([np.linspace(2.944e10, 4.6e10, 7),
                               np.random.default_rng(0).uniform(1e10, 5e10, 10**5)])
        phys = sweep_params()[0]
        seen = []

        def spy(q, p):
            seen.append(q.omega_q)
            return gamma_linear_nonresonant(q, p)

        monkeypatch.setattr(rate_layer, "gamma_linear_nonresonant", spy)
        rate_layer._si_columns("linear-nonresonant", phys, grid, Branch.LARGE, 5e8, 1e8,
                               1e-15, 1e-15)
        assert seen[0].tobytes() == grid.tobytes()

    def test_match_rates_are_taken_at_its_omega_q(self, monkeypatch):
        # at the defaults omega_rel = h (nu, kappa < 1), so the qubit of each
        # factor is at 2 omega_f + h; hypot was 1 ulp off that at 26 of these
        factors = np.geomspace(3.0, 3000.0, 200).tolist()
        seen = []

        def spy(q, p, u, s):
            seen.append((q.omega_q, 2.0 * p.omega_f))
            return _nonresonant_rates(q, p, u, s)

        monkeypatch.setattr(rate_layer, "_nonresonant_rates", spy)
        match_report(factors, 0.12, 0.3, 0.5, 1e-3)
        assert [wq for wq, _ in seen] == [f2 + h for h, (_, f2) in zip(factors, seen)]

    def test_not_an_init_field_and_recomputed_by_replace(self):
        q = QubitParams(w=3.0, delta=4.0)
        assert "omega_q" not in repr(q)
        assert dataclasses.replace(q, delta=0.0).omega_q == 3.0
        with pytest.raises(TypeError):
            QubitParams(w=3.0, delta=4.0, omega_q=1.0)


class TestOneAssemblyPerResult:
    """Each rate call builds exactly one result: one validity and one T_eff pass."""

    @pytest.fixture
    def counts(self, monkeypatch):
        import duffing_qubit.rates as rates
        calls = {"validity_flags": 0, "effective_temperature": 0}

        def counted(name):
            fn = getattr(rates, name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(rates, name, counted(name))
        return calls

    def test_every_regime(self, counts):
        phys, s, u, nu = sweep_params()
        regimes = dict(SWEEPS)
        regimes["resonant-1q"] = (gamma_resonant_1q, SWEEPS["resonant-total"][1])
        for n, (rate, grid) in enumerate(regimes.values(), 1):
            rate(sweep_qubit(grid(phys, s)), phys, u, nu)
            assert counts == {"validity_flags": n, "effective_temperature": n}


@pytest.mark.parametrize("rate", [gamma_nonresonant, gamma_nonresonant_2q,
                                  gamma_linear_nonresonant])
def test_nonresonant_rates_take_the_ohmic_bath_of_the_parameters(rate):
    import inspect
    assert "b" not in inspect.signature(rate).parameters


def test_rate_functions_take_only_the_qubit_the_oscillator_and_the_steady_state():
    import inspect
    params = {rate: list(inspect.signature(rate).parameters) for rate in (
        gamma_resonant_1q, gamma_resonant_2q, gamma_total_resonant, gamma_nonresonant,
        gamma_nonresonant_2q, gamma_linear_resonant, gamma_linear_nonresonant, bath_j)}
    latched = ["q", "p", "u", "nu_scaled"]
    assert params == {
        gamma_resonant_1q: latched, gamma_total_resonant: latched,
        gamma_nonresonant: latched, gamma_linear_resonant: latched,
        gamma_resonant_2q: ["q", "p"], gamma_nonresonant_2q: ["q", "p"],
        gamma_linear_nonresonant: ["q", "p"], bath_j: ["p", "omega"],
    }


def channel_sums_per_channel(p, omegas, offsets, factors=None):
    """The per-channel loop that ``rates._channel_sums`` replaced, kept as the
    reference for its bits (the guard is left out)."""
    if factors is None:
        factors = [(1.0, 1.0)] * len(omegas)
    shape = np.broadcast_shapes(*(np.shape(w) for w in omegas))
    sum_e, sum_g = np.zeros(shape), np.zeros(shape)
    for omega_i, (off_e, off_g), (fac_e, fac_g) in zip(omegas, offsets, factors):
        omega_i = np.broadcast_to(omega_i, shape)
        open_ = omega_i > 0.0
        w = omega_i[open_]
        j = bath_j(p, w)
        n = planck(w, p.temperature)
        den = (p.omega_0**2 - w**2) ** 2
        sum_e[open_] += j * (n + off_e) * fac_e / den
        sum_g[open_] += j * (n + off_g) * fac_g / den
    return sum_e[()], sum_g[()]


def effective_temperature_select(gamma_e, gamma_g, omega_q=None):
    """``effective_temperature`` as it was with ``np.select``, kept as the
    reference for the bits of its ``np.where`` chain; with no ``omega_q``,
    the scaled teff_star = 1/ln(gamma_e/gamma_g) of the resonant-1q tables
    with the same special cases."""
    from duffing_qubit.model import hbar, k_B  # the constants of the code, not scipy's
    ge, gg, wq = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (
        gamma_e, gamma_g, 0.0 if omega_q is None else omega_q)))
    with np.errstate(divide="ignore", invalid="ignore"):
        ln = np.asarray(log_rate_ratio(ge, gg))
        t_eff = np.divide(1.0, ln) if omega_q is None else hbar * wq / (k_B * ln)
    out = np.select([(ge == 0.0) & (gg == 0.0), gg == 0.0, ge == 0.0, ge == gg],
                    [math.nan, 0.0, -0.0, math.inf], t_eff)
    return float(out) if out.ndim == 0 else out


def table_teff_star(gamma_e, gamma_g):
    """The teff_star column that the resonant-1q table builder makes from
    the rate columns ``gamma_e`` and ``gamma_g`` (arrays over the rows), on
    a stable branch with no weak-damping flag."""
    rows = np.shape(gamma_e)
    with mock.patch("duffing_qubit.rates.resonant_1q_scaled", lambda *_: (gamma_e, gamma_g)):
        table = _resonant_1q_columns(0.0, np.full(rows, 1.0), np.full(rows, 1.0), 0.3, 0.5)
    return table["teff_star"]


def assert_same_bits(got, expected):
    # the type, the shape and every bit, the sign of zero included
    assert type(got) is type(expected)
    assert np.shape(got) == np.shape(expected)
    assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()


class TestStackedChannelsKeepTheBits:
    """One stacked pass over a rate's bath channels, and T_eff's ``np.where``
    chain, against the per-channel loop and the ``np.select`` they replaced."""

    @staticmethod
    def channels(name, p, wq):
        """The (omegas, offsets, factors) of a rate's channel set at omega_q."""
        if name == "nonresonant":
            return ((wq + p.omega_f, wq - p.omega_f, p.omega_f - wq),
                    ((1.0, 0.0), (1.0, 0.0), (0.0, 1.0)), None)
        if name == "nonresonant-2q":
            n0 = planck(p.omega_0, p.temperature)
            return ((wq - p.omega_0, p.omega_0 - wq, wq + p.omega_0),
                    ((1.0, 0.0), (0.0, 1.0), (1.0, 0.0)),
                    ((n0 + 1.0, n0), (n0 + 1.0, n0), (n0, n0 + 1.0)))
        if name == "linear":  # one channel, as in linear-nonresonant
            return (wq,), ((1.0, 0.0),), None
        # no rate has three open channels at once; here their order shows
        return ((wq, wq + p.omega_f, wq + p.omega_0), ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0)),
                ((3.0, 0.5), (1.0, 7.0), (0.1, 1.0)))

    @settings(max_examples=150, deadline=None)
    @given(
        name=st.sampled_from(["nonresonant", "nonresonant-2q", "linear", "three open"]),
        omega_0=st.floats(1e8, 1e11),
        drive_frac=st.floats(0.5, 0.99),
        temperature=st.just(0.0) | st.floats(1e-3, 10.0),
        cutoff=st.floats(1.01, 100.0),
        # omega_q in units of omega_0: across omega_f and omega_0, where
        # channels open and close, and past the cutoff
        span=st.tuples(st.floats(0.05, 12.0), st.floats(0.0, 6.0)),
        n=st.sampled_from([0, 1, 2, 7, 40]),
    )
    @example(name="three open", omega_0=1e9, drive_frac=0.9, temperature=0.05, cutoff=10.0,
             span=(0.3, 4.7), n=40)
    def test_channel_sums_match_the_per_channel_loop(self, name, omega_0, drive_frac,
                                                      temperature, cutoff, span, n):
        phys = PhysicalParams(m=3e-13, omega_0=omega_0, omega_f=drive_frac * omega_0,
                              gamma_s=1e30, f_0=1e-9, kappa=1e-3 * omega_0,
                              temperature=temperature, omega_c=cutoff * omega_0)
        low, width = span
        # n = 0 is a scalar omega_q, otherwise a grid of n points
        wq = low * omega_0 if n == 0 else np.linspace(low, low + width, n) * omega_0
        omegas, offsets, factors = self.channels(name, phys, wq)
        try:
            got = _channel_sums(phys, omegas, offsets, factors)
        except NearResonanceError:
            assume(False)
        for got_sum, expected in zip(got, channel_sums_per_channel(phys, omegas, offsets,
                                                                   factors)):
            assert_same_bits(got_sum, expected)

    rate_values = st.sampled_from([0.0, 5e-324, 1.0, 3.0, 1e308]) | st.floats(0.0, 1e300)

    @settings(max_examples=200, deadline=None)
    @given(
        pairs=st.lists(st.tuples(rate_values, rate_values, st.booleans()), min_size=1,
                       max_size=6),
        omega_q=st.floats(1e-3, 1e12),
        shape=st.sampled_from(["scalar", "rates", "omega_q", "all"]),
    )
    def test_effective_temperature_matches_np_select(self, pairs, omega_q, shape):
        # a pair whose flag is set has equal rates
        ge = [e for e, _, _ in pairs]
        gg = [e if equal else g for e, g, equal in pairs]
        if shape == "scalar":
            ge, gg = ge[0], gg[0]
        elif shape == "omega_q":
            ge, gg, omega_q = ge[0], gg[0], omega_q * np.arange(1.0, len(pairs) + 1.0)
        elif shape == "all":
            omega_q = omega_q * np.arange(1.0, len(pairs) + 1.0)
        assert_same_bits(effective_temperature(ge, gg, omega_q),
                         effective_temperature_select(ge, gg, omega_q))
        # the table's teff_star: columns over the rows, the same special cases
        ge, gg = np.broadcast_arrays(np.atleast_1d(ge), np.atleast_1d(gg))
        assert_same_bits(table_teff_star(ge, gg), effective_temperature_select(ge, gg))


class TestMatchReport:
    """``match_report`` refuses a factor list the ``match`` command refuses,
    with the command's messages, before it solves for the attractor."""

    def test_an_empty_list_is_refused(self):
        with pytest.raises(ValueError, match="^at least one hierarchy factor is required$"):
            match_report([], 0.12, 0.3, 0.5, 1e-3)

    @pytest.mark.parametrize("h", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_a_factor_that_is_not_finite_and_positive_is_refused(self, h):
        # unchecked, -1.0 puts a combination frequency within the oscillator
        # resonance (NearResonanceError) and 0.0 divides by zero
        message = f"bad --hierarchies: each factor must be finite and positive, got {h!r}"
        for factors in ([h], [10.0, h]):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                match_report(factors, 0.12, 0.3, 0.5, 1e-3)

    def test_the_factors_are_checked_before_the_parameters(self):
        with pytest.raises(ValueError, match="each factor must be finite and positive"):
            match_report([0.0], -1.0, 0.3, 0.5, 1e-3)
        with pytest.raises(ValueError, match="beta must be finite"):
            match_report([10.0], -1.0, 0.3, 0.5, 1e-3)

    @settings(max_examples=100, deadline=None)
    @given(
        kappa=st.floats(0.02, 0.57),
        beta=st.floats(1e-3, 3.0),
        n_bar=st.floats(0.05, 5.0),
        lambda_s=st.floats(-5.0, -1.0).map(lambda x: 10.0**x),
        factors=st.lists(st.floats(3.0, 1e3), min_size=1, max_size=3),
    )
    def test_each_ratio_has_the_bits_of_the_public_rates(self, kappa, beta, n_bar, lambda_s,
                                                          factors):
        # the rows are formed from the channel rates alone; the public rate
        # functions, called on the qubit and oscillator of each factor, are
        # the reference
        u, nu = solve_branches(beta, kappa).pick(Branch.LARGE)
        assume(nu > 0.0)
        with mock.patch("duffing_qubit.rates._nonresonant_rates",
                        wraps=_nonresonant_rates) as spy:
            try:
                rows = match_report(factors, beta, kappa, n_bar, lambda_s)
            except NearResonanceError:
                assume(False)
        assert [row[0] for row in rows] == factors
        assert spy.call_count == len(factors)
        for (_, ratio_e, ratio_g), call in zip(rows, spy.call_args_list):
            qubit, phys, u, scaled = call.args
            _, nu = solve_branches(scaled.beta, scaled.kappa_scaled).pick(Branch.LARGE)
            res = gamma_resonant_1q(qubit, phys, u, nu)
            non = gamma_nonresonant(qubit, phys, u, nu)
            assert ratio_e == res.gamma_e / non.gamma_e
            assert ratio_g == res.gamma_g / non.gamma_g
