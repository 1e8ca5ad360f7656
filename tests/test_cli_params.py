"""CLI parameters: flags, config keys and defaults, and the input checks
that sit in the library behind them."""

import argparse
import math

import numpy as np
import pytest

from duffing_qubit import (
    Branch,
    drift_matrix,
    effective_temperature,
    log_rate_ratio,
    physical_from_scaled,
    solve_branches,
    spectra,
    stationary_covariance,
)
from duffing_qubit.cli import EXIT_INPUT, EXIT_OK, build_parser, main

_SI = {
    "mass": "3e-13", "omega0": "9400000000.0", "omega_f": "9200000000.0",
    "gamma_s": "9.631207500566774e+32", "f0": "3.737775734334028e-09",
    "kappa": "60000000.0", "temperature": "0.06396409404992578",
    "omega_c": "9200000000000.0", "qubit_delta": "5e8", "delta_q": "1e8",
    "v_x": "1e-15", "v_z": "1e-15",
}

# (subcommand, parameters, one of them to override and its other value)
CASES = {
    "attractors": ("attractors", {"kappa_scaled": "0.3", "grid": "0:0.2:5"}, ("grid", "0:0.2:7")),
    "spectrum": ("spectrum", {"beta": "0.12", "kappa_scaled": "0.3", "lambda_s": "0.02",
                              "nbar": "0.7", "attractor": "small", "grid": "-1:1:5"},
                 ("nbar", "1.5")),
    "rates-1q": ("rates", {"regime": "resonant-1q", "beta": "0.12", "kappa_scaled": "0.3",
                           "nbar": "0.6", "attractor": "both", "grid": "-2:2:5"},
                 ("attractor", "large")),
    "rates-si": ("rates", {"regime": "nonresonant", **_SI, "attractor": "large",
                           "grid": "2.944e10:4.6e10:5"}, ("temperature", "0.1")),
    "teff": ("teff", {"kappa_scaled": "0.3", "nbar": "0.4", "omega_rel": "0.5",
                      "attractor": "large", "grid": "0.01:0.3:6"}, ("omega_rel", "-0.5")),
    "match": ("match", {"beta": "0.11", "kappa_scaled": "0.3", "nbar": "0.4",
                        "lambda_s": "0.002", "hierarchies": "10,30"}, ("beta", "0.13")),
    "validate": ("validate", {"beta": "0.13", "kappa_scaled": "0.3", "lambda_s": "0.02",
                              "nbar": "0.6"}, ("beta", "0.11")),
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def flags(params):
    return [f"--{k.replace('_', '-')}={v}" for k, v in params.items()]


def write_config(path, params):
    # alternate "_" and "-" in the keys: both spell the same parameter
    lines = [f"{k if i % 2 else k.replace('_', '-')} = {v}"
             for i, (k, v) in enumerate(params.items())]
    path.write_text("# generated\n" + "\n".join(lines) + "\n")
    return str(path)


@pytest.mark.parametrize("case", CASES)
class TestFlagsAndConfigAgree:
    def test_config_gives_the_output_of_flags(self, capsys, tmp_path, case):
        command, params, _ = CASES[case]
        by_flag = run(capsys, command, *flags(params))
        assert by_flag[0] == EXIT_OK and by_flag[1]
        by_config = run(capsys, command, "--config", write_config(tmp_path / "c.conf", params))
        assert by_config == by_flag

    def test_a_flag_beats_its_config_key(self, capsys, tmp_path, case):
        command, params, (name, value) = CASES[case]
        expected = run(capsys, command, *flags({**params, name: value}))
        assert expected[0] == EXIT_OK
        assert expected != run(capsys, command, *flags(params))
        cfg = write_config(tmp_path / "c.conf", params)
        assert run(capsys, command, "--config", cfg, *flags({name: value})) == expected


_FLOAT_SCALED = {"--beta", "--kappa-scaled", "--nbar", "--lambda-s"}
_FLOAT_SI = {"--mass", "--omega0", "--omega-f", "--gamma-s", "--f0", "--kappa",
             "--temperature", "--omega-c", "--qubit-delta", "--delta-q", "--v-x", "--v-z"}
_COMMON = {"-h", "--help", "--format", "--out", "--config"}
_BRANCH = ("small", "large")
_REGIMES = ("resonant-1q", "resonant-2q", "resonant-total", "nonresonant",
            "nonresonant-2q", "linear-resonant", "linear-nonresonant")

# subcommand -> (float flags, text flags with their choices or None)
OPTIONS = {
    "attractors": ({"--kappa-scaled"}, {"--grid": None}),
    "spectrum": (_FLOAT_SCALED, {"--attractor": _BRANCH, "--grid": None}),
    "rates": (_FLOAT_SCALED | _FLOAT_SI, {"--regime": _REGIMES,
                                          "--attractor": (*_BRANCH, "both"), "--grid": None}),
    "teff": (_FLOAT_SCALED | {"--omega-rel"}, {"--attractor": _BRANCH, "--grid": None}),
    "match": (_FLOAT_SCALED, {"--hierarchies": None}),
    "validate": (_FLOAT_SCALED, {}),
}


def subparsers():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def test_subcommands_are_pinned():
    assert list(subparsers()) == list(OPTIONS)


@pytest.mark.parametrize("command", OPTIONS)
def test_flags_and_choices_are_pinned(command):
    floats, texts = OPTIONS[command]
    actions = {opt: a for a in subparsers()[command]._actions for opt in a.option_strings}
    extra = {"--check"} if command == "spectrum" else set()
    assert set(actions) == floats | set(texts) | _COMMON | extra
    for opt in floats:
        assert actions[opt].type is float and actions[opt].choices is None
        assert actions[opt].default is None
    for opt, choices in texts.items():
        assert actions[opt].type is None and actions[opt].default is None
        assert actions[opt].choices == choices
    assert actions["--format"].choices == ("csv", "json")
    assert actions["--format"].default == "csv"
    if extra:
        assert isinstance(actions["--check"], argparse._StoreTrueAction)


class TestResonant1qAbsentBranch:
    def test_a_bad_nbar_is_refused_when_the_branch_is_absent(self, capsys):
        code, out, err = run(capsys, "rates", "--beta", "0.05", "--kappa-scaled", "0.3",
                             "--attractor", "large", "--nbar", "-3", "--grid=-1:1:3")
        assert code == EXIT_INPUT and out == ""
        assert err.startswith("error: n_bar must be finite and non-negative")


class TestLambdaS:
    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
    def test_spectrum_refuses(self, capsys, value):
        code, out, err = run(capsys, "spectrum", "--beta", "0.12", "--kappa-scaled", "0.3",
                             "--lambda-s", value, "--grid=-1:1:3")
        assert code == EXIT_INPUT and out == ""
        assert err == f"error: lambda_s must be finite and positive, got {float(value)}\n"

    def test_one_source_of_the_rule(self):
        import duffing_qubit.fluctuations as fluctuations
        import duffing_qubit.model as model
        assert fluctuations._check_lambda_s is model._check_lambda_s

    @pytest.mark.parametrize("value", [-1.0, 0.0, math.nan, math.inf])
    def test_library_refuses(self, value):
        u, nu, _ = solve_branches(0.12, 0.3).pick(Branch.SMALL)
        k = drift_matrix(u, 0.12, 0.3)
        with pytest.raises(ValueError, match="lambda_s must be finite and positive"):
            stationary_covariance(k, value, 0.3, 0.5)
        with pytest.raises(ValueError, match="lambda_s must be finite and positive"):
            spectra(np.linspace(-1, 1, 3), u, nu, 0.3, value, 0.5)

    def test_covariance_takes_the_one_kappa_scaled_rule(self):
        import duffing_qubit.fluctuations as fluctuations
        import duffing_qubit.model as model
        assert fluctuations._check_kappa_scaled is model._check_kappa_scaled

    @pytest.mark.parametrize("value", [-0.3, 0.0, math.nan, math.inf])
    def test_covariance_refuses_a_bad_kappa_scaled(self, value):
        k = drift_matrix(solve_branches(0.12, 0.3).pick(Branch.SMALL)[0], 0.12, 0.3)
        with pytest.raises(ValueError, match="kappa_scaled must be finite and positive"):
            stationary_covariance(k, 1e-3, value, 0.5)

    @pytest.mark.parametrize("lambda_s, kappa, n_bar", [(1e-3, 0.3, 1e308), (1e300, 1e10, 0.5)])
    def test_covariance_refuses_a_source_that_overflows(self, lambda_s, kappa, n_bar):
        k = drift_matrix(solve_branches(0.12, 0.3).pick(Branch.SMALL)[0], 0.12, 0.3)
        with pytest.raises(ValueError, match=r"lambda_s \* kappa_scaled \* \(2 n_bar \+ 1\) "
                                             r"must be finite, got inf"):
            stationary_covariance(k, lambda_s, kappa, n_bar)

    def test_spectrum_refuses_a_source_that_overflows(self, capsys):
        code, out, err = run(capsys, "spectrum", "--beta", "0.12", "--kappa-scaled", "0.3",
                             "--nbar", "1e308", "--grid=-1:1:3")
        assert code == EXIT_INPUT and out == ""
        assert err == ("error: lambda_s * kappa_scaled * (2 n_bar + 1) must be finite, "
                       "got inf\n")

    def test_a_tiny_lambda_s_passes_the_covariance_check(self, capsys):
        # the positive-definiteness check is made before the source scales
        # C, so it no longer underflows
        code, out, err = run(capsys, "spectrum", "--beta", "0.12", "--kappa-scaled", "0.3",
                             "--lambda-s", "1e-200", "--check", "--grid=-1:1:3")
        assert (code, err) == (EXIT_OK, "") and out


class TestNonFiniteOmega:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_teff_refuses(self, capsys, value):
        code, out, err = run(capsys, "teff", "--kappa-scaled", "0.3", f"--omega-rel={value}",
                             "--attractor", "large", "--grid", "0.1:0.2:3")
        assert code == EXIT_INPUT and out == ""
        assert err == "error: omega must be finite\n"

    # spectra returns (emission, absorption); each half must be refused
    @pytest.mark.parametrize("half", [1, 0], ids=["absorption_spectrum", "emission_spectrum"])
    def test_closed_forms_refuse(self, half):
        with pytest.raises(ValueError, match="omega must be finite"):
            spectra(math.nan, 1.1, 0.6, 0.3, 0.01, 0.5)[half]
        with pytest.raises(ValueError, match="omega must be finite"):
            spectra(np.array([0.0, math.inf]), 1.1, 0.6, 0.3, 0.01, 0.5)[half]


class TestLogRateRatioRange:
    def test_underflowing_ratio(self):
        assert log_rate_ratio(1e-300, 1e100) == math.log(1e-300) - math.log(1e100)
        t = effective_temperature(1e-300, 1e100, 1.0)
        assert math.isfinite(t) and t < 0.0

    def test_overflowing_ratio(self):
        assert log_rate_ratio(1e300, 1e-300) == math.log(1e300) - math.log(1e-300)
        assert log_rate_ratio(1e300, 1e-300) == pytest.approx(1381.5510557964274)

    def test_other_values_keep_their_bits(self):
        ge = np.array([1e300, 2.0, 0.0, math.inf, 1.0, 3.0, math.nan, 1e-300, 5e-324])
        gg = np.array([1e-300, 1.0, 1.0, 1.0, math.inf, 0.0, 1.0, 1e100, 1.0])
        got = log_rate_ratio(ge, gg)
        for g_e, g_g, value in zip(ge.tolist(), gg.tolist(), got):
            if g_e > 0 and g_g > 0 and 0.0 < g_e / g_g < math.inf:
                assert value == math.log(g_e / g_g)
            elif g_e > 0 and g_g > 0:
                assert value == math.log(g_e) - math.log(g_g)
            else:
                assert math.isnan(value)
        assert got[4] == -math.inf and got[3] == math.inf
        assert type(log_rate_ratio(2.0, 1.0)) is float


class TestScaledInputsOfMatch:
    """physical_from_scaled refuses a bad scaled input before any arithmetic."""

    @pytest.mark.parametrize("argv,message", [
        (("--hierarchies", "10", "--lambda-s", "0"), "lambda_s must be finite and positive, got 0.0"),
        (("--lambda-s", "-1"), "lambda_s must be finite and positive, got -1.0"),
        (("--lambda-s", "inf"), "lambda_s must be finite and positive, got inf"),
        (("--nbar", "inf"),
         "n_bar must be finite and positive to fix a finite temperature, got inf"),
        (("--nbar", "0"),
         "n_bar must be finite and positive to fix a finite temperature, got 0.0"),
    ])
    def test_match_refuses(self, capsys, argv, message):
        code, out, err = run(capsys, "match", *argv)
        assert code == EXIT_INPUT and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("name,value,message", [
        ("beta", -1.0, "beta must be finite and non-negative"),
        ("beta", math.inf, "beta must be finite and non-negative"),
        ("beta", math.nan, "beta must be finite and non-negative"),
        ("kappa_scaled", 0.0, "kappa_scaled must be finite and positive"),
        ("kappa_scaled", math.nan, "kappa_scaled must be finite and positive"),
        ("lambda_s", 0.0, "lambda_s must be finite and positive"),
        ("lambda_s", math.inf, "lambda_s must be finite and positive"),
        ("n_bar", math.inf, "n_bar must be finite and positive"),
        ("n_bar", math.nan, "n_bar must be finite and positive"),
    ])
    def test_library_refuses(self, name, value, message):
        scaled = {"beta": 0.12, "kappa_scaled": 0.3, "lambda_s": 1e-3, "n_bar": 0.5}
        with pytest.raises(ValueError, match=message):
            physical_from_scaled(**{**scaled, name: value})


class TestArithmeticFault:
    """An arithmetic fault on an extreme input is one error line, exit 1."""

    @pytest.mark.parametrize("regime", ["resonant-2q", "resonant-total", "nonresonant",
                                        "nonresonant-2q", "linear-resonant",
                                        "linear-nonresonant"])
    @pytest.mark.parametrize("name", ["mass", "omega_f"])
    def test_si_scale_underflows_to_zero(self, capsys, regime, name):
        params = {**_SI, name: "1e-300", "grid": "2.944e10:4.6e10:3"}
        code, out, err = run(capsys, "rates", "--regime", regime, *flags(params))
        assert code == EXIT_INPUT and out == ""
        assert err.startswith("error: arithmetic fault") and err.count("\n") == 1

    def test_match_with_a_subnormal_damping(self, capsys):
        code, out, err = run(capsys, "match", "--kappa-scaled", "5e-324")
        assert code == EXIT_INPUT and out == ""
        assert err.startswith("error: arithmetic fault") and err.count("\n") == 1


class TestTextChoices:
    """A regime or attractor is held to its choices from a flag or a config key."""

    def test_config_attractor_of_spectrum(self, capsys, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("attractor = middle\n")
        code, out, err = run(capsys, "spectrum", "--beta", "0.12", "--kappa-scaled", "0.3",
                             "--config", str(path))
        assert code == EXIT_INPUT and out == ""
        assert err == "error: invalid --attractor 'middle': choose from small, large\n"

    def test_config_attractor_of_teff(self, capsys, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("attractor = both\n")
        code, out, err = run(capsys, "teff", "--kappa-scaled", "0.3", "--omega-rel", "0.5",
                             "--config", str(path))
        assert code == EXIT_INPUT and out == ""
        assert err == "error: invalid --attractor 'both': choose from small, large\n"

    def test_config_regime(self, capsys, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("regime = bogus\n")
        code, out, err = run(capsys, "rates", "--config", str(path))
        assert code == EXIT_INPUT and out == ""
        assert err.startswith("error: invalid --regime 'bogus': choose from resonant-1q, ")

    def test_si_rates_take_one_branch(self, capsys):
        params = {**_SI, "grid": "2.944e10:4.6e10:3", "attractor": "both"}
        code, out, err = run(capsys, "rates", "--regime", "nonresonant", *flags(params))
        assert code == EXIT_INPUT and out == ""
        assert err == "error: invalid --attractor 'both': choose from small, large\n"


class TestHierarchyFactors:
    """match holds each --hierarchies factor h to |omega_rel| = h * max(nu, kappa, 1)."""

    @pytest.mark.parametrize("spec,factor", [
        ("-10,10", "-10.0"), ("10,nan", "nan"), ("0", "0.0"), ("10,inf", "inf"),
        ("-inf", "-inf"), ("30,-0", "-0.0"),
    ])
    def test_factor_must_be_finite_and_positive(self, capsys, spec, factor):
        code, out, err = run(capsys, "match", f"--hierarchies={spec}")
        assert code == EXIT_INPUT and out == ""
        assert err == ("error: bad --hierarchies: each factor must be finite and positive, "
                       f"got {factor}\n")

    def test_config_factor_is_refused(self, capsys, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("hierarchies = 10,-30\n")
        code, out, err = run(capsys, "match", "--config", str(path))
        assert code == EXIT_INPUT and out == ""
        assert err.startswith("error: bad --hierarchies: ") and "got -30.0" in err
