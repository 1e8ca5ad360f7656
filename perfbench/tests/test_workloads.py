import math
import subprocess
import sys
from pathlib import Path

import pytest

import workloads
from workloads import WORKLOADS, generate, guard_clear, window

BENCH = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_same_argv(name):
    a, b = generate(name, 7), generate(name, 7)
    assert [c.argv for c in a.calls] == [c.argv for c in b.calls]
    assert a.files == b.files
    assert [c.argv for c in generate(name, 8).calls] != [c.argv for c in a.calls]


def test_generator_and_checks_never_import_the_package():
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(BENCH)!r})\n"
        "import workloads, checks\n"
        "for name in workloads.WORKLOADS:\n"
        "    workloads.generate(name, 3)\n"
        "print(sorted(m for m in sys.modules if m.startswith('duffing_qubit')))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=BENCH)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("name", WORKLOADS)
def test_negative_values_are_attached_to_their_flag(name):
    # a separate token "-2.5" would be read as an option
    for call in generate(name, 5).calls:
        assert not any(tok[:1] == "-" and tok[1:2] != "-" for tok in call.argv)


def test_short_calls_hold_refusals_and_config_files():
    wl = generate("short-calls", 2)
    exits = [c.exit for c in wl.calls]
    assert exits.count(1) >= 1 and exits.count(2) >= 1
    assert {c.argv[0] for c in wl.calls} >= {"attractors", "spectrum", "rates", "teff",
                                             "match", "validate"}
    configs = [c for c in wl.calls if "--config" in c.argv]
    assert configs and all(c.argv[c.argv.index("--config") + 1] in wl.files for c in configs)


def test_window_matches_turning_radii():
    low, high = window(0.3)
    for beta in (low, high):
        # beta(u) has a double root at the edge: the cubic's discriminant vanishes
        p = 0.09 - 1.0 / 3.0
        q = (2.0 + 18.0 * 0.09) / 27.0 - beta
        assert abs(-4.0 * p**3 - 27.0 * q * q) < 1e-12
    assert window(1.0 / math.sqrt(3.0) + 1e-9) is None


def test_guard_band_is_detected():
    p = {"omega_f": 1.0e10, "omega0": 1.02e10, "kappa": 4e7}
    crossing = p["omega_f"] + p["omega0"]
    assert not guard_clear("nonresonant", 0.999 * crossing, 1.001 * crossing, p)
    assert guard_clear("nonresonant", 3.0 * p["omega_f"], 5.0 * p["omega_f"], p)
    assert not guard_clear("linear-nonresonant", 0.5 * p["omega0"], 1.5 * p["omega0"], p)


@pytest.mark.parametrize("name", WORKLOADS)
def test_pass_size_does_not_depend_on_the_seed(name):
    rows = [sum(c.rows for c in generate(name, s).calls) for s in range(8)]
    assert max(rows) < 1.15 * min(rows)
    assert len({len(generate(name, s).calls) for s in range(8)}) == 1


def test_si_regimes_all_present():
    regimes = {c.info["regime"] for c in generate("si-rates", 4).calls}
    assert regimes == set(workloads.SI_REGIMES)
