"""A finite input so extreme that float arithmetic underflows or overflows is
refused with one error line that names the quantity it breaks, or runs to
its exit code without a numpy warning."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from duffing_qubit import (
    Branch,
    MarginalAttractorError,
    PhysicalParams,
    drift_matrix,
    scale_params,
    solve_branches,
    spectra,
    stationary_covariance,
)
from duffing_qubit.cli import EXIT_INPUT, EXIT_OK, EXIT_VALIDITY, main

SI = ["--omega0", "1.05e10", "--gamma-s", "1e5", "--f0", "1e-10", "--kappa", "1e7",
      "--temperature", "0.05", "--omega-c", "1e13", "--qubit-delta", "1e7",
      "--delta-q", "1e6", "--grid", "3e10:4e10:3"]
BASE = PhysicalParams(m=1.0, omega_0=1.05e10, omega_f=1e10, gamma_s=1e5, f_0=1e-10,
                      kappa=1e7, temperature=0.05, omega_c=1e13)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("mass, omega_f, shown", [
    ("1e-300", "1e10", "m=1e-300, omega_f=10000000000.0"),
    ("3e-13", "1e-300", "m=3e-13, omega_f=1e-300"),
])
def test_si_rates_name_the_scale_that_underflows(capsys, mass, omega_f, shown):
    code, out, err = run(capsys, "rates", "--regime", "nonresonant-2q", "--mass", mass,
                         "--omega-f", omega_f, *SI)
    assert code == EXIT_INPUT and out == ""
    assert err == ("error: arithmetic fault: beta underflows to 0 or overflows for "
                   f"{shown}, omega_0=10500000000.0, gamma_s=100000.0, f_0=1e-10\n")


def test_scale_params_names_lambda_s():
    # beta about 1e-36 and c_res about 2e149 are fine; 3 hbar gamma_s underflows
    p = dataclasses.replace(BASE, gamma_s=1e-280, f_0=1e150)
    with pytest.raises(ValueError, match=r"^arithmetic fault: lambda_s underflows to 0 or "
                                         r"overflows for m=1\.0, .*, gamma_s=1e-280, "):
        scale_params(p)


@pytest.mark.parametrize("f_0", [0.0, 1e-200])  # 1e-200**2 underflows: the f_0 -> 0 limit
def test_scale_params_takes_a_vanishing_drive(f_0):
    assert scale_params(dataclasses.replace(BASE, f_0=f_0)).beta == 0.0


@pytest.mark.parametrize("factor, ratio, cause", [
    ("1e200", "inf", "omega_0 must be finite, got inf"),
    ("1e-320", "0.0", "float division by zero"),
    ("1e100", "1e+200", "(34, 'Numerical result out of range')"),
])
def test_match_names_an_extreme_factor(capsys, factor, ratio, cause):
    code, out, err = run(capsys, "match", "--hierarchies", factor)
    assert code == EXIT_INPUT and out == ""
    assert err == (f"error: bad --hierarchies: factor {float(factor)!r} gives "
                   f"omega_f/|delta_omega| = {ratio}, beyond float arithmetic ({cause})\n")


@pytest.mark.parametrize("argv, ratio", [
    (("--beta", "1e30", "--kappa-scaled", "1e8", "--nbar", "2", "--lambda-s", "1e-200",
      "--hierarchies", "10"), "1732021940777.135"),
    (("--beta", "0.05", "--kappa-scaled", "1e-30", "--lambda-s", "1e-200",
      "--hierarchies", "30"), "900.0"),
])
def test_match_refuses_a_rate_ratio_that_overflows(capsys, argv, ratio):
    # the resonant rate overflows to inf against a finite nonresonant one:
    # a row of inf ratios would pass as a result
    code, out, err = run(capsys, "match", *argv)
    factor = float(argv[-1])
    assert (code, out) == (EXIT_INPUT, "")
    assert err == (f"error: bad --hierarchies: factor {factor!r} gives omega_f/|delta_omega| = "
                   f"{ratio}, beyond float arithmetic (a rate or the rate ratio overflows)\n")


def test_match_names_a_nonresonant_rate_that_underflows(capsys):
    code, out, err = run(capsys, "match", "--kappa-scaled", "5e-324")
    assert code == EXIT_INPUT and out == ""
    assert err == ("error: arithmetic fault: at --hierarchies factor 10.0 the nonresonant "
                   "rate underflows to 0, so the rate ratio is undefined\n")


@pytest.mark.parametrize("argv, message", [
    # the covariance of lambda_s ~ 1e308 is beyond float range
    (("validate", "--lambda-s", "1.7e308"),
     "arithmetic fault: the stationary covariance overflows, s = 1.0199999999999999e+308"),
    # kappa_scaled omega underflows, so the denominator is 0 at omega = +-nu = +-1
    (("rates", "--regime", "resonant-1q", "--beta", "0", "--kappa-scaled", "5e-324",
      "--attractor", "small", "--grid=-5:5:11"),
     "arithmetic fault: kappa_scaled * omega underflows to 0 at +-nu_scaled"),
], ids=["validate-lambda-s", "rates-kappa-scaled"])
def test_an_input_beyond_float_arithmetic_is_refused(capsys, argv, message):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = run(capsys, *argv)
    assert [str(w.message) for w in caught] == []
    assert got == (EXIT_INPUT, "", f"error: {message}\n")


def test_the_library_refuses_a_covariance_or_a_denominator_beyond_float_range():
    k = drift_matrix(solve_branches(0.12, 0.3).pick(Branch.LARGE)[0], 0.12, 0.3)
    with pytest.raises(ValueError, match="the stationary covariance overflows"):
        stationary_covariance(k, 1.7e308, 0.3, 0.5)
    # u = 0 and nu = 1 (beta = 0): at omega = 1 the denominator is 4 kappa^2 = 0
    with pytest.raises(ValueError, match="kappa_scaled \\* omega underflows to 0"):
        spectra(np.array([0.5, 1.0]), 0.0, 1.0, 5e-324, 1e-3, 0.5)


def test_a_lambda_s_near_the_float_range_gives_both_spectra(capsys):
    # 2 lambda_s overflows, but the spectra, about 1e302 and below, do not:
    # both routes give 2^600 times the spectra of a lambda_s 2^600 smaller,
    # also past |omega| ~ 1e77, where the closed form is rescaled
    for grid, n in (("--grid=1e3:1e20:5:log", 5), ("--grid=1e80:1e200:3:log", 3)):
        argv = ("spectrum", "--beta", "0.12", "--kappa-scaled", "0.3", "--nbar", "0.12",
                "--attractor", "small", grid, "--check")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, *argv, "--lambda-s", "1.7e308")
        assert [str(w.message) for w in caught] == [] and (code, err) == (EXIT_OK, "")
        (deviation,) = [float(line.split("=")[1]) for line in out.splitlines()
                        if line.startswith("# max_route_deviation=")]
        assert deviation <= 1e-6
        _, low, _ = run(capsys, *argv, "--lambda-s", repr(1.7e308 / 2.0**600))
        rows, low_rows = ([list(map(float, line.split(","))) for line in text.splitlines()
                           if line[0].isdigit()] for text in (out, low))
        assert len(rows) == len(low_rows) == n
        for row, low_row in zip(rows, low_rows):
            assert row[0] == low_row[0] and all(map(math.isfinite, row))
            assert row[1:] == pytest.approx([math.ldexp(x, 600) for x in low_row[1:]],
                                            rel=1e-13)


# near the cusp: the cubic gives the large branch nu = 4.45e-5, but det K =
# nu^2 = 2.0e-9 is below STABILITY_TOL |K|_F^2 = 1.8e-8
CUSP_BETA, CUSP_KAPPA = 0.2962815407805162, 0.577331152748872


def test_match_refuses_a_large_attractor_the_covariance_finds_marginal(capsys):
    # the root solve marks the branch marginal, with nu = 0, by the rule the
    # covariance applies to its drift; match refuses it at beta, before any
    # factor's rescaled beta
    u, nu = solve_branches(CUSP_BETA, CUSP_KAPPA).pick(Branch.LARGE)
    assert nu == 0.0 and not math.isnan(u)
    with pytest.raises(MarginalAttractorError, match="drift matrix is not strictly stable"):
        stationary_covariance(drift_matrix(u, CUSP_BETA, CUSP_KAPPA), 1e-3, CUSP_KAPPA, 0.5)
    code, out, err = run(capsys, "match", "--beta", repr(CUSP_BETA),
                         "--kappa-scaled", repr(CUSP_KAPPA), "--hierarchies", "100")
    assert (code, out, err) == (EXIT_VALIDITY, "", "error: large attractor is marginal\n")


@pytest.mark.parametrize("argv", [
    ("rates", "--regime", "resonant-1q", "--attractor", "large", "--grid=-1:1:3"),
    ("spectrum", "--attractor", "large"),
    ("match", "--hierarchies", "10"),
], ids=["rates", "spectrum", "match"])
def test_the_cusp_large_attractor_is_marginal_to_every_command(capsys, argv):
    # each command refuses the branch as the root solve marks it, with one
    # message, before any rate, spectrum or factor is formed
    code, out, err = run(capsys, *argv, "--beta", repr(CUSP_BETA),
                         "--kappa-scaled", repr(CUSP_KAPPA))
    assert (code, out, err) == (EXIT_VALIDITY, "", "error: large attractor is marginal\n")


# the golden SI parameters (beta 0.12, kappa_scaled 0.3, lambda_s 1e-4, n_bar 0.5)
GOLDEN_SI = ["--mass", "3e-13", "--omega0", "9.4e9", "--omega-f", "9.2e9",
             "--gamma-s", "9.631207500566774e+32", "--f0", "3.737775734334028e-09",
             "--kappa", "6e7", "--temperature", "0.06396409404992578", "--omega-c", "9.2e12",
             "--qubit-delta", "5e8"]


@pytest.mark.parametrize("argv, t1", [
    (("nonresonant-2q", "--mass", "1.0", "--omega-f", "1e10", *SI), ["inf"] * 3),
    (("nonresonant", *GOLDEN_SI, "--grid", "2.944e10:4.6e10:3"), ["inf"] * 3),
    # the finite T1 inverts a rate near 1e-307, whose last bit follows the
    # last bit of n_bar = 1 / expm1(hbar omega_f / kB T)
    (("resonant-total", *GOLDEN_SI, "--grid", "1.76e10:1.92e10:3"),
     ["inf", "8.143732019184322e+306", "inf"]),
], ids=["rate-result", "bloch-redfield", "bloch-redfield-total"])
def test_a_subnormal_total_rate_gives_an_infinite_t1(capsys, argv, t1):
    # delta_q = 1e-150 squares to rates near 1e-310, whose inverse overflows:
    # T1 is inf there, with no overflow warning, by _rate_result's own T1
    # and by bloch_redfield's
    code, out, err = run(capsys, "rates", "--regime", *argv, "--delta-q", "1e-150")
    assert (code, err) == (EXIT_OK, "")
    lines = out.splitlines()
    header = lines.index("omega_q,gamma_e,gamma_g,t1,t_eff,flags")
    assert [line.split(",")[3] for line in lines[header + 1:]] == t1
