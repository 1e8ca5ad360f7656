"""A finite input so extreme that float arithmetic underflows or overflows is
refused with one error line that names the quantity it breaks."""

import dataclasses

import pytest

from duffing_qubit import PhysicalParams, scale_params
from duffing_qubit.cli import EXIT_INPUT, main

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


def test_match_names_a_nonresonant_rate_that_underflows(capsys):
    code, out, err = run(capsys, "match", "--kappa-scaled", "5e-324")
    assert code == EXIT_INPUT and out == ""
    assert err == ("error: arithmetic fault: at --hierarchies factor 10.0 the nonresonant "
                   "rate underflows to 0, so the rate ratio is undefined\n")
