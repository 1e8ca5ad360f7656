import contextlib
import dataclasses
import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duffing_qubit import Branch, bifurcation_betas, drift_matrix, solve_branches
from duffing_qubit.cli import (
    EXIT_INPUT,
    EXIT_OK,
    EXIT_SELFCHECK,
    EXIT_VALIDITY,
    main,
    parse_grid,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def clear_marginal_flags(monkeypatch):
    """Make ``cli.solve_branches`` report no marginal entry, as if no merging
    pair were found at a window edge."""
    import duffing_qubit.cli as cli
    solve = cli.solve_branches

    def cleared(beta, kappa):
        s = solve(beta, kappa)
        none = np.zeros(np.shape(beta), dtype=bool)
        return dataclasses.replace(s, marginal_small=none, marginal_large=none)

    monkeypatch.setattr(cli, "solve_branches", cleared)


def parse_csv(text):
    header = {}
    columns, rows = None, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            header[key] = value
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    return header, columns, rows


class TestGridAndConfig:
    def test_parse_grid_linear_and_log(self):
        np.testing.assert_allclose(parse_grid("0:1:3"), [0.0, 0.5, 1.0])
        np.testing.assert_allclose(parse_grid("1:100:3:log"), [1.0, 10.0, 100.0])

    @pytest.mark.parametrize("bad", ["1:2", "2:1:5", "0:1:1", "-1:1:5:log",
                                     "0:1:3:exp", "a:b:c"])
    def test_parse_grid_rejects(self, bad):
        from duffing_qubit.cli import CliInputError
        with pytest.raises(CliInputError):
            parse_grid(bad)

    @pytest.mark.parametrize("spec", ["0:inf:3", "-inf:0:3", "nan:1:3", "0:nan:3",
                                      "-1e308:1e308:3", "1:inf:3:log"])
    def test_nonfinite_grid_is_input_error(self, capsys, spec):
        from duffing_qubit.cli import CliInputError
        with pytest.raises(CliInputError, match="finite"):
            parse_grid(spec)
        code, out, err = run_cli(capsys, "attractors", "--kappa-scaled", "0.3",
                                 f"--grid={spec}")
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("error:") and "Warning" not in err

    def test_config_file_and_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kappa-scaled = 0.3\ngrid = 0:0.2:3  # sweep\n")
        code, out, _ = run_cli(capsys, "attractors", "--config", str(cfg))
        assert code == EXIT_OK
        header, _, rows = parse_csv(out)
        assert header["kappa_scaled"] == "0.3"
        assert len(rows) == 3
        # explicit flag wins over the file value
        code, out, _ = run_cli(capsys, "attractors", "--config", str(cfg),
                               "--grid", "0:0.2:5")
        assert code == EXIT_OK
        _, _, rows = parse_csv(out)
        assert len(rows) == 5


class TestAttractorsCommand:
    def test_round_trip_residual(self, capsys):
        code, out, _ = run_cli(capsys, "attractors", "--kappa-scaled", "0.3",
                               "--grid", "0:0.25:101")
        assert code == EXIT_OK
        header, columns, rows = parse_csv(out)
        assert header["bistable"] == "true"
        i_beta = columns.index("beta")
        kappa = 0.3
        for row in rows:
            beta = float(row[i_beta])
            for name in ("u_small", "u_unstable", "u_large"):
                value = float(row[columns.index(name)])
                if math.isnan(value):
                    continue
                residual = abs(value * ((value - 1) ** 2 + kappa**2) - beta)
                assert residual < 1e-10

    def test_gap_closes_at_tabulated_boundaries(self, capsys):
        info = bifurcation_betas(0.3)
        code, out, _ = run_cli(
            capsys, "attractors", "--kappa-scaled", "0.3",
            "--grid", f"{info.beta_low!r}:{info.beta_high!r}:2",
        )
        assert code == EXIT_OK
        _, columns, rows = parse_csv(out)
        # merging branch shows nu = 0 at its boundary
        assert float(rows[0][columns.index("nu_large")]) == 0.0
        assert float(rows[1][columns.index("nu_small")]) == 0.0

    def test_deterministic_output(self, capsys):
        args = ("attractors", "--kappa-scaled", "0.3", "--grid", "0:0.25:41")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_missing_kappa_is_input_error(self, capsys):
        code, _, err = run_cli(capsys, "attractors")
        assert code == EXIT_INPUT
        assert "kappa" in err


class TestSpectrumCommand:
    def test_check_passes_on_defaults(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--beta", "0.12",
                               "--kappa-scaled", "0.3", "--check")
        assert code == EXIT_OK
        header, _, rows = parse_csv(out)
        assert float(header["max_route_deviation"]) < 1e-6
        assert len(rows) == 2001

    def test_zero_frequency_row_matches_direct_inverse(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--beta", "0.12",
                               "--kappa-scaled", "0.3", "--lambda-s", "0.01",
                               "--nbar", "0.5", "--grid=-1:1:3")
        assert code == EXIT_OK
        _, columns, rows = parse_csv(out)
        row = rows[1]
        assert float(row[columns.index("omega")]) == 0.0
        from duffing_qubit import stationary_covariance
        from test_fluctuations import LEVI_CIVITA
        k = drift_matrix(solve_branches(0.12, 0.3).u_large, 0.12, 0.3)
        cov = stationary_covariance(k, 0.01, 0.3, 0.5)
        n0 = -np.linalg.inv(k) @ (cov + 0.5j * 0.01 * LEVI_CIVITA)
        expected = (n0[0, 0] + n0[1, 1] + 1j * (n0[1, 0] - n0[0, 1])).real
        assert math.isclose(float(row[columns.index("emission_matrix")]),
                            expected, rel_tol=1e-12)

    def test_two_peak_structure(self, capsys):
        # at this damping the double peak is resolved in the absorption
        # column; emission keeps a single dominant quasienergy peak because
        # its numerator nearly vanishes at the opposite resonance
        code, out, _ = run_cli(capsys, "spectrum", "--beta", "0.12",
                               "--kappa-scaled", "0.3", "--attractor", "large")
        assert code == EXIT_OK
        _, columns, rows = parse_csv(out)
        omega = np.array([float(r[columns.index("omega")]) for r in rows])
        absorption = np.array(
            [float(r[columns.index("absorption_closed")]) for r in rows]
        )
        interior = (np.diff(np.sign(np.diff(absorption))) < 0).nonzero()[0] + 1
        assert len(interior) >= 2  # double-peak structure
        assert min(omega[i] for i in interior) < 0.0 < max(omega[i] for i in interior)
        emission = np.array(
            [float(r[columns.index("emission_closed")]) for r in rows]
        )
        nu = solve_branches(0.12, 0.3).nu_large
        assert abs(abs(omega[int(np.argmax(emission))]) - nu) < 0.15

    def test_marginal_attractor_is_validity_fatal(self, capsys):
        info = bifurcation_betas(0.3)
        code, _, err = run_cli(capsys, "spectrum", "--beta",
                               repr(info.beta_high), "--kappa-scaled", "0.3",
                               "--attractor", "small")
        assert code == EXIT_VALIDITY
        assert "marginal" in err.lower() or "stable" in err.lower()

    def test_huge_drive_is_not_refused(self, capsys):
        # drift eigenvalues -0.3 +- 1.7e10 i: stable, once refused with exit 2
        code, out, err = run_cli(capsys, "spectrum", "--beta", "1e30", "--kappa-scaled",
                                 "0.3", "--check", "--grid=-1:1:3")
        assert code == EXIT_OK and err == ""
        header, _, rows = parse_csv(out)
        assert len(rows) == 3 and float(header["max_route_deviation"]) < 1e-6

    def test_missing_branch_is_input_error(self, capsys):
        code, _, _ = run_cli(capsys, "spectrum", "--beta", "0.05",
                             "--kappa-scaled", "0.3", "--attractor", "large")
        assert code == EXIT_INPUT


class TestBatchedSweepsAgainstPerPoint:
    """The whole-grid CLI sweeps against one library call per grid point."""

    RTOL = 1e-13

    def test_spectrum_columns(self, capsys):
        from duffing_qubit import spectra, spectra_from_matrix, stationary_covariance
        beta, kappa, lam, n_bar = 0.12, 0.3, 0.01, 0.5
        code, out, _ = run_cli(capsys, "spectrum", "--beta", "0.12", "--kappa-scaled",
                               "0.3", "--lambda-s", "0.01", "--nbar", "0.5",
                               "--attractor", "small", "--grid=-4:4:161", "--check")
        assert code == EXIT_OK
        _, columns, rows = parse_csv(out)
        u, nu, _ = solve_branches(beta, kappa).pick(Branch.SMALL)
        k = drift_matrix(u, beta, kappa)
        cov = stationary_covariance(k, lam, kappa, n_bar)
        reference = {
            "emission_closed": lambda w: spectra(w, u, nu, kappa, lam, n_bar)[0],
            "absorption_closed": lambda w: spectra(w, u, nu, kappa, lam, n_bar)[1],
            "emission_matrix": lambda w: spectra_from_matrix(k, cov, lam, w)[0],
            "absorption_matrix": lambda w: spectra_from_matrix(k, cov, lam, w)[1],
        }
        assert len(rows) == 161
        for row in rows:
            w = float(row[columns.index("omega")])
            for name, f in reference.items():
                assert math.isclose(float(row[columns.index(name)]), f(w),
                                    rel_tol=self.RTOL)

    def test_resonant_1q_both_branches(self, capsys):
        from duffing_qubit import resonant_1q_scaled
        beta, kappa, n_bar = 0.12, 0.3, 0.5
        code, out, _ = run_cli(capsys, "rates", "--beta", "0.12", "--kappa-scaled",
                               "0.3", "--nbar", "0.5", "--attractor", "both",
                               "--grid=-3:3:121")
        assert code == EXIT_OK
        _, columns, rows = parse_csv(out)
        solved = solve_branches(beta, kappa)
        assert len(rows) == 121
        for row in rows:
            w = float(row[columns.index("omega")])
            for tag in ("small", "large"):
                u, nu, _ = solved.pick(Branch(tag))
                ge, gg = resonant_1q_scaled(w, u, nu, kappa, n_bar)
                got_e = float(row[columns.index(f"gamma_e_scaled_{tag}")])
                got_g = float(row[columns.index(f"gamma_g_scaled_{tag}")])
                assert math.isclose(got_e, ge, rel_tol=self.RTOL)
                assert math.isclose(got_g, gg, rel_tol=self.RTOL)
                # 1/ln(ge/gg) amplifies a last-ulp rate difference near its
                # pole, so the column is held to the printed rates exactly
                teff = float(row[columns.index(f"teff_star_{tag}")])
                assert teff == 1.0 / math.log(got_e / got_g)
                assert float(row[columns.index(f"u_{tag}")]) == u


class TestRatesCommand:
    def test_resonant_scaled_sweep(self, capsys):
        code, out, _ = run_cli(
            capsys, "rates", "--beta", "0.12", "--kappa-scaled", "0.3",
            "--nbar", "0.5", "--attractor", "both", "--grid=-2:2:201",
        )
        assert code == EXIT_OK
        _, columns, rows = parse_csv(out)
        for tag in ("small", "large"):
            assert f"gamma_e_scaled_{tag}" in columns
        ge = np.array(
            [float(r[columns.index("gamma_e_scaled_large")]) for r in rows]
        )
        assert np.all(ge > 0.0)

    def test_swap_symmetry_columnwise(self, capsys):
        code, out, _ = run_cli(
            capsys, "rates", "--beta", "0.14", "--kappa-scaled", "0.3",
            "--nbar", "0.5", "--attractor", "small", "--grid=-2:2:81",
        )
        assert code == EXIT_OK
        _, columns, rows = parse_csv(out)
        u, nu, _ = solve_branches(0.14, 0.3).pick(Branch.SMALL)
        for row in rows:
            w = float(row[columns.index("omega")])
            gg = float(row[columns.index("gamma_g_scaled_small")])
            den = (w**2 - nu**2) ** 2 + 4 * 0.09 * w**2
            bracket = (w - (2 * u - 1)) ** 2 + 0.09
            oracle = 2 * 0.3 * (0.5 * bracket + 1.5 * u**2) / den
            assert math.isclose(gg, oracle, rel_tol=1e-10)

    @staticmethod
    def si_flags():
        from duffing_qubit import physical_from_scaled
        p = physical_from_scaled(0.12, 0.3, 1e-4, 0.5, detuning=2e8,
                                 omega_f_ratio=46.0, m=3e-13)
        return [
            "--mass", repr(p.m), "--omega0", repr(p.omega_0),
            "--omega-f", repr(p.omega_f), "--gamma-s", repr(p.gamma_s),
            "--f0", repr(p.f_0), "--kappa", repr(p.kappa),
            "--temperature", repr(p.temperature), "--omega-c", repr(p.omega_c),
        ], p

    def test_nonresonant_si_sweep(self, capsys):
        # GHz oscillator driven below resonance, qubit swept far above
        flags, _ = self.si_flags()
        args = [
            "rates", "--regime", "nonresonant", "--attractor", "large",
            *flags, "--qubit-delta", "5e8", "--delta-q", "1e6",
            "--grid", "3e10:5e10:11",
        ]
        code, out, _ = run_cli(capsys, *args)
        assert code == EXIT_OK
        _, columns, rows = parse_csv(out)
        ge = [float(r[columns.index("gamma_e")]) for r in rows]
        gg = [float(r[columns.index("gamma_g")]) for r in rows]
        assert all(v > 0 for v in ge)
        assert all(e > g for e, g in zip(ge, gg))

    def test_near_resonance_is_validity_fatal(self, capsys):
        flags, p = self.si_flags()
        crossing = p.omega_f + p.omega_0  # omega_q - omega_f hits omega_0
        args = [
            "rates", "--regime", "nonresonant", "--attractor", "large",
            *flags, "--qubit-delta", "1e6", "--delta-q", "1e6",
            "--grid", f"{0.999 * crossing!r}:{1.001 * crossing!r}:5",
        ]
        code, _, err = run_cli(capsys, *args)
        assert code == EXIT_VALIDITY
        assert "resonance" in err


class TestTeffCommand:
    def test_pole_and_sign_structure(self, capsys):
        code, out, _ = run_cli(
            capsys, "teff", "--kappa-scaled", "0.3", "--nbar", "0.5",
            "--omega-rel", "-0.2", "--attractor", "small",
            "--grid", "0.01:0.179:120",
        )
        assert code == EXIT_OK
        _, columns, rows = parse_csv(out)
        lnr = np.array([float(r[columns.index("ln_ratio")]) for r in rows])
        assert lnr[0] > 0 > lnr[-1]
        signs = np.sign(lnr)
        assert np.count_nonzero(np.diff(signs)) == 1  # single pole crossing

    def test_absent_branch_rows_are_nan(self, capsys):
        code, out, _ = run_cli(
            capsys, "teff", "--kappa-scaled", "0.3", "--nbar", "0.5",
            "--omega-rel", "0.1", "--attractor", "large",
            "--grid", "0.01:0.25:25",
        )
        assert code == EXIT_OK
        _, columns, rows = parse_csv(out)
        info = bifurcation_betas(0.3)
        for row in rows:
            beta = float(row[columns.index("beta")])
            u = float(row[columns.index("u")])
            assert math.isnan(u) == (beta < info.beta_low)

    def test_nonfinite_serialization(self):
        from duffing_qubit.cli import _fmt, _json_safe
        assert _fmt(math.inf) == "inf"
        assert _fmt(-math.inf) == "-inf"
        assert _fmt(float("nan")) == "nan"
        assert _json_safe(math.inf) == "inf"
        assert _json_safe(-math.inf) == "-inf"


class TestMatchCommand:
    def test_convergence_report(self, capsys):
        code, out, _ = run_cli(capsys, "match")
        assert code == EXIT_OK
        _, columns, rows = parse_csv(out)
        dev_e = [float(r[columns.index("dev_e")]) for r in rows]
        dev_g = [float(r[columns.index("dev_g")]) for r in rows]
        assert dev_e[0] > dev_e[1] > dev_e[2]
        assert dev_g[0] > dev_g[1] > dev_g[2]
        assert dev_e[-1] < 0.05 and dev_g[-1] < 0.05


class TestValidateCommand:
    def test_all_checks_green(self, capsys):
        code, out, _ = run_cli(capsys, "validate")
        assert code == EXIT_OK
        lines = [ln for ln in out.splitlines() if ln]
        assert lines and all(ln.startswith("ok  ") for ln in lines)

    @staticmethod
    def text_and_json(capsys, *argv):
        code, out, _ = run_cli(capsys, "validate", *argv)
        json_code, json_out, _ = run_cli(capsys, "validate", *argv, "--format", "json")
        assert json_code == code
        report = [(ln[5:].split(": ", 1)[0], ln.startswith("ok  "), ln.split(": ", 1)[1])
                  for ln in out.splitlines()]
        return code, report, json.loads(json_out)

    def test_json_holds_the_text_report(self, capsys):
        code, report, doc = self.text_and_json(capsys, "--kappa-scaled", "0.2")
        assert code == EXIT_OK
        assert doc["columns"] == ["check", "ok", "metric"]
        assert doc["params"] == {"command": "validate", "beta": 0.12, "kappa_scaled": 0.2,
                                 "lambda_s": 0.01, "nbar": 0.5}
        assert [tuple(row) for row in doc["rows"]] == report
        assert len(report) == 6 and all(ok for _, ok, _ in report)

    def test_json_reports_a_failed_check(self, capsys, monkeypatch):
        clear_marginal_flags(monkeypatch)
        code, report, doc = self.text_and_json(capsys)
        assert code == EXIT_SELFCHECK
        assert [tuple(row) for row in doc["rows"]] == report
        assert [name for name, ok, _ in report if not ok] == ["bifurcation_gap"]


class TestValidateAcrossKappa:
    # 0.06 once ended in a math domain error and 0.321752 failed
    # bifurcation_gap (|det K| = 2.3e-8) at an exact window edge
    @pytest.mark.parametrize("kappa", ["0.02", "0.06", "0.1", "0.2", "0.3",
                                       "0.321752", "0.45", "0.57"])
    def test_all_checks_green(self, capsys, kappa):
        code, out, err = run_cli(capsys, "validate", "--kappa-scaled", kappa)
        assert code == EXIT_OK, out + err
        lines = [ln for ln in out.splitlines() if ln]
        assert len(lines) == 6 and all(ln.startswith("ok  ") for ln in lines)

    @settings(max_examples=300, deadline=None)
    @given(kappa=st.floats(0.02, 0.57), beta=st.floats(0.0, 0.3))
    def test_all_checks_green_over_kappa_and_beta(self, kappa, beta):
        # the edges, the drives and both sweeps share one root solve
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["validate", "--kappa-scaled", repr(kappa), "--beta", repr(beta)])
        assert (code, err.getvalue()) == (EXIT_OK, ""), out.getvalue()
        assert [ln[:4] for ln in out.getvalue().splitlines()].count("ok  ") >= 5


class TestOutputModes:
    def test_json_schema(self, capsys):
        code, out, _ = run_cli(capsys, "attractors", "--kappa-scaled", "0.3",
                               "--grid", "0:0.25:5", "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["schema"] == "duffing-qubit/1"
        assert doc["columns"][0] == "beta"
        assert len(doc["rows"]) == 5
        # non-finite values serialized as strings in JSON mode
        flat = [v for row in doc["rows"] for v in row]
        assert "nan" in flat

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "table.csv"
        code, out, _ = run_cli(capsys, "attractors", "--kappa-scaled", "0.3",
                               "--grid", "0:0.25:5", "--out", str(target))
        assert code == EXIT_OK
        assert out == ""
        text = target.read_text()
        assert text.startswith("# schema=duffing-qubit/1")

    def test_unknown_flag_is_input_error(self, capsys):
        code, _, _ = run_cli(capsys, "attractors", "--kappa-scaled", "0.3",
                             "--frobnicate")
        assert code == EXIT_INPUT


class TestSiSweepAgainstPerPoint:
    """SI rate sweeps, one array call per grid, against one library call per
    grid point built as the CLI builds it."""

    RTOL = 1e-13
    DELTA = 5e8

    @staticmethod
    def grids(p):
        det = p.omega_0 - p.omega_f
        return {
            "resonant-2q": (2 * p.omega_0 - 50 * p.kappa, 2 * p.omega_0 + 50 * p.kappa),
            "resonant-total": (2 * p.omega_f - 4 * det, 2 * p.omega_f + 4 * det),
            "nonresonant": (3.2 * p.omega_f, 5.0 * p.omega_f),
            "nonresonant-2q": (2.5 * p.omega_0, 4.0 * p.omega_0),
            "linear-resonant": (p.omega_f - 4 * det, p.omega_f + 4 * det),
            "linear-nonresonant": (1.5 * p.omega_0, 3.0 * p.omega_0),
        }

    @staticmethod
    def reference(regime, q, p, u, nu, s):
        from duffing_qubit import (gamma_linear_nonresonant, gamma_linear_resonant,
                                   gamma_nonresonant, gamma_nonresonant_2q,
                                   gamma_resonant_2q, gamma_total_resonant)
        return {
            "resonant-2q": lambda: gamma_resonant_2q(q, p),
            "resonant-total": lambda: gamma_total_resonant(q, p, u, nu, s),
            "nonresonant": lambda: gamma_nonresonant(q, p, u, nu, s=s),
            "nonresonant-2q": lambda: gamma_nonresonant_2q(q, p),
            "linear-resonant": lambda: gamma_linear_resonant(q, p, u, nu, s),
            "linear-nonresonant": lambda: gamma_linear_nonresonant(q, p),
        }[regime]()

    @pytest.mark.parametrize("regime", ["resonant-2q", "resonant-total", "nonresonant",
                                        "nonresonant-2q", "linear-resonant",
                                        "linear-nonresonant"])
    def test_columns_and_flags(self, capsys, regime):
        from duffing_qubit import QubitParams, scale_params
        flags, p = TestRatesCommand.si_flags()
        start, stop = self.grids(p)[regime]
        code, out, _ = run_cli(
            capsys, "rates", "--regime", regime, *flags, "--attractor", "large",
            "--qubit-delta", repr(self.DELTA), "--delta-q", "1e8", "--v-x", "1e-15",
            "--v-z", "1e-15", "--grid", f"{start!r}:{stop!r}:31")
        assert code == EXIT_OK
        _, columns, rows = parse_csv(out)
        assert len(rows) == 31
        s = scale_params(p)
        u, nu, _ = solve_branches(s.beta, s.kappa_scaled).pick(Branch.LARGE)
        for row in rows:
            omega_q = float(row[0])
            q = QubitParams(w=math.sqrt(omega_q**2 - self.DELTA**2), delta=self.DELTA,
                            delta_q=1e8, v_x=1e-15, v_z=1e-15)
            res = self.reference(regime, q, p, u, nu, s)
            for name in ("gamma_e", "gamma_g", "t1", "t_eff"):
                assert math.isclose(float(row[columns.index(name)]), getattr(res, name),
                                    rel_tol=self.RTOL), name
            assert row[columns.index("flags")] == "|".join(sorted(res.flags))

    def test_swept_frequency_below_delta_is_input_error(self, capsys):
        flags, _ = TestRatesCommand.si_flags()
        code, out, err = run_cli(
            capsys, "rates", "--regime", "resonant-2q", *flags, "--qubit-delta", "5e8",
            "--delta-q", "1e6", "--grid", "1e8:4e10:11")
        assert code == EXIT_INPUT and out == ""
        assert err == "error: swept omega_q must exceed |qubit-delta|\n"


class TestInputDomainAtTheCli:
    def test_low_temperature_linear_nonresonant(self, capsys):
        flags, p = TestRatesCommand.si_flags()
        flags[flags.index("--temperature") + 1] = "1e-9"
        code, out, err = run_cli(
            capsys, "rates", "--regime", "linear-nonresonant", *flags,
            "--qubit-delta", "5e8", "--v-x", "1e-15",
            "--grid", f"{1.5 * p.omega_0!r}:{3 * p.omega_0!r}:11")
        assert code == EXIT_OK, err
        _, columns, rows = parse_csv(out)
        for name in ("gamma_e", "gamma_g", "t1"):
            values = [float(r[columns.index(name)]) for r in rows]
            assert all(math.isfinite(v) for v in values), name

    def test_negative_occupation_is_input_error(self, capsys):
        code, out, err = run_cli(capsys, "rates", "--beta", "0.12", "--kappa-scaled",
                                 "0.3", "--nbar", "-3", "--grid=-2:2:11")
        assert code == EXIT_INPUT and out == ""
        assert "n_bar" in err

    def test_huge_beta_rows_are_finite(self, capsys):
        code, out, _ = run_cli(capsys, "attractors", "--kappa-scaled", "0.3",
                               "--grid", "1e-300:1e308:3:log")
        assert code == EXIT_OK
        _, columns, rows = parse_csv(out)
        for row in rows:
            beta = float(row[0])
            present = [float(row[columns.index(f"u_{tag}")]) for tag in ("small", "large")]
            present = [u for u in present if not math.isnan(u)]
            assert present and all(math.isfinite(u) for u in present)
            for u in present:
                assert math.isclose(u * ((u - 1.0) ** 2 + 0.09), beta, rel_tol=1e-12)

    @pytest.mark.parametrize("flag", ["--mass", "--f0", "--temperature"])
    def test_nonfinite_si_parameter_is_input_error(self, capsys, flag):
        flags, p = TestRatesCommand.si_flags()
        flags[flags.index(flag) + 1] = "nan"
        code, out, err = run_cli(
            capsys, "rates", "--regime", "resonant-2q", *flags, "--qubit-delta", "5e8",
            "--delta-q", "1e6", "--grid", f"{2 * p.omega_0 - 1e8!r}:{2 * p.omega_0 + 1e8!r}:5")
        assert code == EXIT_INPUT and out == ""
        assert "finite" in err


class TestBetaSweepsAgainstPerPoint:
    """attractors and teff make one array solve per grid; per-point reference."""

    @pytest.mark.parametrize("kappa, grid", [("0.3", "0:0.25:301"), ("0.02", "0:0.01:201"),
                                             ("0.8", "0:1:51"), ("0.3", "1e-300:1e308:9:log")])
    def test_attractors_rows_are_per_point_solves(self, capsys, kappa, grid):
        code, out, _ = run_cli(capsys, "attractors", "--kappa-scaled", kappa, "--grid", grid)
        assert code == EXIT_OK
        _, columns, rows = parse_csv(out)
        for row in rows:
            beta = float(row[0])
            one = solve_branches(beta, float(kappa))
            expected = [beta, one.u_small, one.nu_small, one.u_unstable, one.u_large,
                        one.nu_large]
            assert row == [repr(v) for v in expected]

    @pytest.mark.parametrize("branch, omega_rel", [("small", "-0.2"), ("large", "0.1"),
                                                   ("large", "1.5")])
    def test_teff_rows_match_per_point_library_calls(self, capsys, branch, omega_rel):
        from duffing_qubit import resonant_1q_scaled
        kappa, n_bar, w = 0.3, 0.5, float(omega_rel)
        info = bifurcation_betas(kappa)
        # the grid passes through both window edges exactly
        grid = f"{info.beta_low!r}:{info.beta_high!r}:41"
        code, out, _ = run_cli(capsys, "teff", "--kappa-scaled", "0.3", "--nbar", "0.5",
                               "--omega-rel", omega_rel, "--attractor", branch,
                               "--grid", "0.01:0.25:97")
        code2, out2, _ = run_cli(capsys, "teff", "--kappa-scaled", "0.3", "--nbar", "0.5",
                                 "--omega-rel", omega_rel, "--attractor", branch,
                                 "--grid", grid)
        assert code == code2 == EXIT_OK
        _, columns, rows = parse_csv(out)
        rows += parse_csv(out2)[2]
        tags = set()
        for row in rows:
            beta = float(row[0])
            cell = dict(zip(columns, row))
            u, nu, marginal = solve_branches(beta, kappa).pick(Branch(branch))
            if math.isnan(u) or marginal:
                tags.add(cell["flags"])
                assert cell["flags"] == ("marginal" if marginal else "absent")
                assert all(math.isnan(float(cell[c])) for c in columns[1:-1])
                continue
            ge, gg = resonant_1q_scaled(w, u, nu, kappa, n_bar)
            assert float(cell["u"]) == u and float(cell["nu"]) == nu
            got_e, got_g = float(cell["gamma_e_scaled"]), float(cell["gamma_g_scaled"])
            assert math.isclose(got_e, ge, rel_tol=1e-13)
            assert math.isclose(got_g, gg, rel_tol=1e-13)
            assert float(cell["ln_ratio"]) == math.log(got_e / got_g)
            assert float(cell["teff_star"]) == 1.0 / math.log(got_e / got_g)
            assert cell["flags"] == ("WeakDampingViolated" if kappa >= nu else "")
        assert "marginal" in tags


class TestRefusalsLeaveStdoutEmpty:
    def test_teff_checks_nbar_with_no_stable_row(self, capsys):
        # every row is absent here, so no rate is ever evaluated
        code, out, err = run_cli(capsys, "teff", "--kappa-scaled", "0.3", "--nbar", "-3",
                                 "--omega-rel", "0.1", "--attractor", "large",
                                 "--grid", "0.01:0.05:3")
        assert code == EXIT_INPUT and out == ""
        assert "n_bar" in err

    @pytest.mark.parametrize("flag, value, name", [
        ("--nbar", "-3", "n_bar"), ("--nbar", "nan", "n_bar"),
        ("--beta", "-1", "beta"), ("--beta", "inf", "beta"),
        ("--kappa-scaled", "0", "kappa_scaled"), ("--lambda-s", "0", "lambda_s"),
        ("--lambda-s", "nan", "lambda_s"),
    ])
    def test_validate_refuses_before_the_first_report_line(self, capsys, flag, value, name):
        code, out, err = run_cli(capsys, "validate", flag, value)
        assert code == EXIT_INPUT and out == ""
        assert err.startswith(f"error: {name} must be finite")

    @pytest.mark.parametrize("kappa", ["0.02", "0.2", "0.4"])
    def test_validate_finds_both_merging_pairs(self, capsys, kappa):
        code, out, _ = run_cli(capsys, "validate", "--kappa-scaled", kappa)
        assert code == EXIT_OK
        (gap,) = [ln for ln in out.splitlines() if "bifurcation_gap" in ln]
        assert gap.startswith("ok  ") and "no marginal pair" not in gap

    def test_validate_fails_when_a_merging_pair_is_missing(self, capsys, monkeypatch):
        clear_marginal_flags(monkeypatch)
        code, out, _ = run_cli(capsys, "validate")
        assert code == EXIT_SELFCHECK
        (gap,) = [ln for ln in out.splitlines() if "bifurcation_gap" in ln]
        assert gap.startswith("FAIL") and "no marginal pair at 2 of 2" in gap

    @staticmethod
    def refuse_covariance(monkeypatch):
        import duffing_qubit.cli as cli
        from duffing_qubit import MarginalAttractorError

        def refuse(*args):
            raise MarginalAttractorError("drift matrix is not strictly stable")

        monkeypatch.setattr(cli, "stationary_covariance", refuse)

    def test_validate_writes_no_partial_report_on_a_validity_error(self, capsys, monkeypatch):
        # the three attractor checks pass; the covariance is then refused (no
        # real input does this since a huge drive no longer trips the stability test)
        self.refuse_covariance(monkeypatch)
        code, out, err = run_cli(capsys, "validate")
        assert code == EXIT_VALIDITY and out == ""
        assert err.startswith("error:")

    def test_validate_json_writes_no_partial_report_on_a_validity_error(self, capsys,
                                                                         monkeypatch):
        self.refuse_covariance(monkeypatch)
        code, out, err = run_cli(capsys, "validate", "--format", "json")
        assert code == EXIT_VALIDITY and out == ""
        assert err.startswith("error:")

    # 1e30: |K| ~ 1e10 once refused the stable attractor (eigenvalues
    # -0.3 +- 1.7e10 i); the middle four once failed an absolute Lyapunov
    # residual, which rounding sets at about eps |K| |C|
    @pytest.mark.parametrize("beta", ["1e30", "3e22", "1.0692137854286123e24",
                                      "9.046209424616384e33", "2.3867215955463037e125",
                                      "1e300"])
    def test_validate_accepts_a_huge_stable_drift(self, capsys, beta):
        code, out, err = run_cli(capsys, "validate", "--beta", beta)
        assert code == EXIT_OK, out + err
        assert [ln[:4] for ln in out.splitlines()] == ["ok  "] * 6

    def test_validate_fails_an_underflowed_covariance_without_a_warning(self, capsys):
        # at kappa_scaled 5e-324 the source underflows to 0 and so does C on
        # some rows: the relative residual reads NaN and fails the check
        code, out, err = run_cli(capsys, "validate", "--kappa-scaled", "5e-324")
        assert (code, err) == (EXIT_SELFCHECK, "")
        assert "FAIL lyapunov_residual: max rel=nan (limit 1e-12)" in out.splitlines()


class TestBranchRefusals:
    """Every command that needs one branch refuses an absent one as an input
    error and a marginal one as validity-fatal, naming the branch and
    writing nothing to stdout."""

    # spectrum, the three SI regimes that need a steady state, and match,
    # which reads the large branch
    COMMANDS = ["spectrum", "resonant-total", "nonresonant", "linear-resonant", "match"]
    CASES = [(c, b) for c in COMMANDS for b in ("small", "large") if (c, b) != ("match", "small")]

    @staticmethod
    def argv(command, beta, branch):
        """``command`` on ``branch`` at the scaled drive ``beta``, kappa_scaled 0.3."""
        from duffing_qubit import physical_from_scaled
        if command == "spectrum":
            return ["spectrum", "--beta", repr(beta), "--kappa-scaled", "0.3",
                    "--attractor", branch, "--grid=-1:1:3"]
        if command == "match":
            return ["match", "--beta", repr(beta)]
        # the SI flags of TestRatesCommand.si_flags with beta in place of 0.12
        p = physical_from_scaled(beta, 0.3, 1e-4, 0.5, detuning=2e8, omega_f_ratio=46.0,
                                 m=3e-13)
        flags = ["--mass", repr(p.m), "--omega0", repr(p.omega_0), "--omega-f",
                 repr(p.omega_f), "--gamma-s", repr(p.gamma_s), "--f0", repr(p.f_0),
                 "--kappa", repr(p.kappa), "--temperature", repr(p.temperature),
                 "--omega-c", repr(p.omega_c)]
        centre = {"resonant-total": 2 * p.omega_f, "nonresonant": 4 * p.omega_f,
                  "linear-resonant": p.omega_f}[command]
        return ["rates", "--regime", command, *flags, "--attractor", branch,
                "--qubit-delta", "5e8", "--delta-q", "1e8", "--v-x", "1e-15",
                "--grid", f"{centre - 1e8!r}:{centre + 1e8!r}:5"]

    @pytest.mark.parametrize("command, branch", CASES)
    def test_absent_branch_is_an_input_error(self, capsys, command, branch):
        # the large branch exists only above beta_low (0.088), the small one
        # only below beta_high (0.180)
        beta = 0.05 if branch == "large" else 0.2
        code, out, err = run_cli(capsys, *self.argv(command, beta, branch))
        assert code == EXIT_INPUT and out == ""
        assert f"no {branch}-amplitude attractor" in err

    def test_absent_branch_of_the_golden_si_flags(self, capsys):
        # f0 = 1e-9 puts beta near 0.0086, below the window
        flags, _ = TestRatesCommand.si_flags()
        flags[flags.index("--f0") + 1] = "1e-9"
        code, out, err = run_cli(capsys, "rates", "--regime", "nonresonant", *flags,
                                 "--attractor", "large", "--qubit-delta", "5e8",
                                 "--delta-q", "1e8", "--grid", "3e10:5e10:5")
        assert code == EXIT_INPUT and out == ""
        assert "no large-amplitude attractor" in err

    @pytest.mark.parametrize("command, branch", CASES)
    def test_marginal_branch_is_validity_fatal(self, capsys, command, branch):
        # each branch ends in a marginal entry at its window edge
        info = bifurcation_betas(0.3)
        beta = info.beta_low if branch == "large" else info.beta_high
        code, out, err = run_cli(capsys, *self.argv(command, beta, branch))
        assert code == EXIT_VALIDITY and out == ""
        assert f"{branch} attractor is marginal" in err


class TestNoTraceback:
    # each of these once escaped main with a traceback
    def test_out_is_a_directory(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "attractors", "--kappa-scaled", "0.3",
                                 "--out", str(tmp_path))
        assert code == EXIT_INPUT and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_out_in_a_missing_directory(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "attractors", "--kappa-scaled", "0.3",
                                 "--out", str(tmp_path / "missing" / "x.csv"))
        assert code == EXIT_INPUT and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_grid_too_large_to_allocate(self, capsys):
        # 8 PB of float64, refused by numpy before anything is allocated
        code, out, err = run_cli(capsys, "attractors", "--kappa-scaled", "0.3",
                                 "--grid", "0:1:1000000000000000")
        assert code == EXIT_INPUT and out == ""
        assert err.startswith("error:") and err.count("\n") == 1


class TestDualRouteFailsClosed:
    @staticmethod
    def nan_closed_form(monkeypatch):
        import duffing_qubit.cli as cli
        spectra = cli.spectra
        monkeypatch.setattr(cli, "spectra", lambda omega, *args: (
            np.full(np.shape(omega), np.nan), spectra(omega, *args)[1]))

    def test_spectrum_check_exits_3_on_a_nan_deviation(self, capsys, monkeypatch):
        self.nan_closed_form(monkeypatch)
        code, out, err = run_cli(capsys, "spectrum", "--beta", "0.12", "--kappa-scaled",
                                 "0.3", "--grid=-1:1:3", "--check")
        assert code == EXIT_SELFCHECK
        header, _, _ = parse_csv(out)
        assert header["max_route_deviation"] == "nan"
        assert err.startswith("self-check failed")

    def test_validate_fails_dual_route_on_a_nan_deviation(self, capsys, monkeypatch):
        self.nan_closed_form(monkeypatch)
        code, out, _ = run_cli(capsys, "validate")
        assert code == EXIT_SELFCHECK
        failed = [ln for ln in out.splitlines() if ln.startswith("FAIL")]
        assert failed == ["FAIL dual_route: max rel dev=nan (limit 1e-6)"]


class TestSelfChecksSolveOnce:
    @staticmethod
    def count(monkeypatch, name):
        import duffing_qubit.cli as cli
        calls = []
        fn = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *args: calls.append(args) or fn(*args))
        return calls

    def test_match_solves_the_unscaled_attractor_once(self, capsys, monkeypatch):
        calls = self.count(monkeypatch, "solve_branches")
        code, _, _ = run_cli(capsys, "match", "--hierarchies", "10,30,100")
        assert code == EXIT_OK
        # once unscaled, then once per hierarchy at its own scaled beta
        assert len(calls) == 1 + 3

    def test_validate_builds_each_covariance_once(self, capsys, monkeypatch):
        solves = self.count(monkeypatch, "solve_branches")
        covariances = self.count(monkeypatch, "stationary_covariance")
        code, _, _ = run_cli(capsys, "validate")
        assert code == EXIT_OK
        # one root solve for the sweeps, the two window edges and the four
        # drives, and one covariance stack: one stable attractor at beta 0,
        # 0.05 and 0.2 and two at the bistable beta 0.12
        assert len(solves) == 1
        (betas, _), = solves
        assert betas.shape == (101 + 97 + 2 + 4,)
        (drift, *_), = covariances
        assert drift.shape == (1 + 1 + 2 + 1, 2, 2)


class TestRatesAndTeffAgree:
    """``rates`` (a detuning sweep) and ``teff`` (a drive sweep) share a point.

    Each grid starts at the shared value, which ``linspace`` returns exactly.
    """

    @staticmethod
    def cells(capsys, kappa, nbar, beta, omega_rel, branch):
        code, out, err = run_cli(capsys, "rates", "--beta", repr(beta), "--kappa-scaled",
                                 kappa, "--nbar", nbar, "--attractor", branch,
                                 f"--grid={omega_rel!r}:{omega_rel + 1.0!r}:3")
        assert (code, err) == (EXIT_OK, "")
        _, columns, rows = parse_csv(out)
        rates = {c.removesuffix(f"_{branch}"): v for c, v in zip(columns, rows[0])}
        code, out, err = run_cli(capsys, "teff", "--kappa-scaled", kappa, "--nbar", nbar,
                                 "--omega-rel", repr(omega_rel), "--attractor", branch,
                                 "--grid", f"{beta!r}:{beta + 0.01!r}:3")
        assert (code, err) == (EXIT_OK, "")
        _, columns, rows = parse_csv(out)
        teff = dict(zip(columns, rows[0]))
        names = ("u", "nu", "gamma_e_scaled", "gamma_g_scaled", "teff_star", "flags")
        return [rates[n] for n in names], [teff[n] for n in names]

    @pytest.mark.parametrize("kappa,nbar,beta,omega_rel", [
        ("0.3", "0.5", 0.12, 0.5),
        ("0.3", "0.5", 0.15, -0.2),
        ("0.2", "0.0", 0.1, 2.0),
        ("0.318436", "0.881956", 0.11143, -4.34116),
        ("0.318436", "0.881956", 0.11143, 0.3),
        ("0.3", "0.5", 0.05, 0.5),  # large branch absent
    ])
    @pytest.mark.parametrize("branch", ["small", "large"])
    def test_cells_are_identical(self, capsys, kappa, nbar, beta, omega_rel, branch):
        from_rates, from_teff = self.cells(capsys, kappa, nbar, beta, omega_rel, branch)
        assert from_rates == from_teff

    def test_weak_damping_flag_is_shared(self, capsys):
        # just above the lower window edge the large branch has nu < kappa
        beta = bifurcation_betas(0.3).beta_low * (1.0 + 1e-3)
        from_rates, from_teff = self.cells(capsys, "0.3", "0.5", beta, 0.5, "large")
        assert from_rates == from_teff
        assert from_rates[-1] == "WeakDampingViolated"
