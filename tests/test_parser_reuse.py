"""One argparse parser per process: ``main`` builds it at its first call and
reuses it, and no call leaves state behind that a later call can see."""

from __future__ import annotations

import contextlib
import io

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import duffing_qubit.cli as cli
from duffing_qubit import bifurcation_betas

ATTRACTORS = ["attractors", "--kappa-scaled", "0.3", "--grid", "0:0.2:5"]
_SI = ("mass=3e-13\nomega0=9400000000.0\nomega_f=9200000000.0\n"
       "gamma_s=9.631207500566774e+32\nf0=3.737775734334028e-09\nkappa=60000000.0\n"
       "temperature=0.06396409404992578\nomega_c=9200000000000.0\nqubit_delta=5e8\n"
       "delta_q=1e8\nv_x=1e-15\nv_z=1e-15\n")
# each config sets keys that the flag-only call of the same subcommand below
# leaves unset, so a value kept from an earlier call would show in its output
CONFIGS = {
    "spectrum.cfg": "beta=0.1\nkappa-scaled=0.3\nlambda_s=0.05\nnbar=2\nattractor=small\n"
                    "grid=-1:1:5\n",
    "rates.cfg": f"regime=nonresonant-2q\n{_SI}grid=2.35e10:3.76e10:5\n",
    "match.cfg": "hierarchies=30,10\n",  # rows in the given order, converging
}
_EDGE = repr(bifurcation_betas(0.3).beta_high)

# {dir} is the directory of the config files and of the --out file
POOL = [
    ATTRACTORS,
    [*ATTRACTORS, "--format", "json"],
    [*ATTRACTORS, "--out", "{dir}/out.txt"],
    ["spectrum", "--beta", "0.12", "--kappa-scaled", "0.3", "--grid=-1:1:5", "--check"],
    ["spectrum", "--beta", "0.12", "--kappa-scaled", "0.3", "--grid=-1:1:5"],
    ["spectrum", "--config", "{dir}/spectrum.cfg", "--format", "json"],
    ["rates", "--beta", "0.12", "--kappa-scaled", "0.3", "--grid=-1:1:5"],
    ["rates", "--config", "{dir}/rates.cfg"],
    ["rates", "--config", "{dir}/rates.cfg", "--format", "json", "--out", "{dir}/out.txt"],
    ["teff", "--kappa-scaled", "0.3", "--omega-rel", "0.5", "--attractor", "large",
     "--grid", "0.05:0.2:5", "--format", "json"],
    ["match", "--hierarchies", "10,30"],
    ["match", "--config", "{dir}/match.cfg"],
    ["validate"],
    ["validate", "--format", "json"],
    ["--version"],
    ["spectrum", "--help"],
    # refused by argparse
    [*ATTRACTORS, "--bogus", "1"],
    [*ATTRACTORS, "--format", "xml"],
    [],
    ["--format", "json"],
    # refused by the library: an input error, then a marginal attractor
    ["spectrum", "--beta", "0.12", "--kappa-scaled", "0.3", "--lambda-s", "0",
     "--grid=-1:1:3"],
    ["spectrum", "--beta", _EDGE, "--kappa-scaled", "0.3", "--attractor", "small",
     "--grid=-1:1:3"],
    # the dual-route check far above the attractor's frequencies
    ["spectrum", "--beta", "0.12", "--kappa-scaled", "0.3", "--check", "--grid=1e6:1e20:3"],
    # a self-check failure: the covariance underflows to 0 on some rows
    ["validate", "--kappa-scaled", "5e-324"],
]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("reuse")
    for name, text in CONFIGS.items():
        (path / name).write_text(text, encoding="utf-8")
    return path


@pytest.fixture
def fresh_cache():
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


def run(argv: list[str], workdir) -> tuple:
    """(exit code, stdout, stderr, the --out file's text) of one ``main`` call."""
    argv = [arg.format(dir=workdir) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = f"SystemExit({exc.code})"
    written = workdir / "out.txt"
    text = written.read_text(encoding="utf-8") if written.exists() else None
    written.unlink(missing_ok=True)
    return code, out.getvalue(), err.getvalue(), text


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.sampled_from(range(len(POOL))), min_size=2, max_size=8))
def test_reused_parser_matches_a_fresh_parser_per_call(workdir, fresh_cache, picks):
    calls = [POOL[k] for k in picks]
    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(run(argv, workdir))
    cli._parser.cache_clear()
    reused = [run(argv, workdir) for argv in calls]
    assert reused == fresh


def test_pool_reaches_every_subcommand_and_exit_code(workdir, fresh_cache):
    codes = {run(argv, workdir)[0] for argv in POOL}
    assert codes == {0, 1, 2, 3, "SystemExit(0)"}
    assert {argv[0] for argv in POOL if argv} >= set(cli._COMMANDS)


def test_twenty_calls_build_one_parser(monkeypatch, capsys, fresh_cache):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    for _ in range(20):
        assert cli.main(ATTRACTORS) == cli.EXIT_OK
    assert len(built) == 1


def test_build_parser_returns_a_new_parser_each_call():
    assert cli.build_parser() is not cli.build_parser()


def test_a_rebound_subcommand_runs_on_the_cached_parser(monkeypatch, capsys, fresh_cache):
    assert cli.main(ATTRACTORS) == cli.EXIT_OK
    seen = []
    monkeypatch.setattr(cli, "cmd_attractors",
                        lambda args, config: seen.append(args.kappa_scaled) or 7)
    assert cli.main(ATTRACTORS) == 7
    assert seen == [0.3]


def test_version_twice(capsys, fresh_cache):
    texts = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1] == f"{cli.__version__}\n"


# argv for the one-parse property: a valid call of each subcommand (the
# --grid value in the --grid= form), of which each flag is kept or dropped and
# each value kept or drawn from a fixed pool, with up to three more flags and
# words of the pool put anywhere after the subcommand
_VALID = {
    "attractors": [("--kappa-scaled", "0.3"), ("--grid", "0:0.2:5")],
    "spectrum": [("--beta", "0.12"), ("--kappa-scaled", "0.3"), ("--lambda-s", "1e-3"),
                 ("--attractor", "small"), ("--grid", "-1:1:5")],
    "rates": [("--beta", "0.12"), ("--kappa-scaled", "0.3"), ("--nbar", "0"),
              ("--grid", "-1:1:5")],
    "teff": [("--kappa-scaled", "0.3"), ("--omega-rel", "0.5"), ("--attractor", "large"),
             ("--grid", "0.05:0.2:5")],
    "match": [("--hierarchies", "10,30")],
    "validate": [("--beta", "0.12")],
}
_FLAGS = sorted({"--" + name.replace("_", "-") for _, _, params in cli._COMMANDS.values()
                 for name in params} | {"--check", "--format", "--out", "--config", "-h",
                                        "--version"})
_VALUES = ["0.12", "0.3", "1e-3", "2", "0", "-0.0", "-1", "-4.5", "nan", "inf", "-inf",
           "1e308", "-1e308", "5e-324", "junk", "x=y", "1..2", "csv", "json", "small",
           "large", "both", "nonresonant", "linear-nonresonant", "-1:1:5", "0:0.2:5",
           "1:100:3:log", "0:1:1", "1:0:3", "a:b:c", "10,30", "30,nan", "",
           "{dir}/rates.cfg", "out.txt"]


def _word(flag: str, value: str) -> list[str]:
    return [f"{flag}={value}"] if flag == "--grid" else [flag, value]


@st.composite
def argvs(draw) -> list[str]:
    command = draw(st.sampled_from(sorted(_VALID)))
    words = [command]
    for flag, value in _VALID[command]:
        if draw(st.integers(0, 5)):  # keep the flag, and mostly its value
            words += _word(flag, value if draw(st.integers(0, 5)) else
                           draw(st.sampled_from(_VALUES)))
    for _ in range(draw(st.integers(0, 3))):
        word = draw(st.sampled_from(_FLAGS) | st.sampled_from(_VALUES))
        extra = [word]
        if word in _FLAGS and draw(st.booleans()):  # a flag with a value
            extra = _word(word, draw(st.sampled_from(_VALUES)))
        at = draw(st.integers(1, len(words)))
        words[at:at] = extra
    return words


def parsed(parse, argv: list[str]) -> tuple:
    """What ``parse(argv)`` gives: the repr of each value of its namespace
    (NaN is not equal to itself), its ValueError's message, or the code and
    stdout of its SystemExit (help and version)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            return "namespace", {k: repr(v) for k, v in vars(parse(argv)).items()}
    except ValueError as exc:
        return "error", str(exc)
    except SystemExit as exc:
        return "exit", exc.code, out.getvalue()


def direct(argv: list[str]):
    args = cli._parser().subcommands[argv[0]].parse_args(argv[1:])
    args.command = argv[0]
    return args


@settings(max_examples=150, deadline=None)
@given(argvs())
def test_the_subcommand_parser_alone_parses_as_the_top_level_one(argv):
    assert parsed(direct, argv) == parsed(cli._parser().parse_args, argv)


@pytest.fixture(scope="module")
def drawdir(tmp_path_factory):
    # a directory of its own: a drawn --out may overwrite a config file
    path = tmp_path_factory.mktemp("draws")
    for name, text in CONFIGS.items():
        (path / name).write_text(text, encoding="utf-8")
    return path


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=argvs())
def test_no_argv_ends_in_a_traceback(drawdir, argv):
    # an --out path is a file in the draws' directory; help exits 0
    with contextlib.chdir(drawdir):
        code = run(argv, drawdir)[0]
    assert code in (0, 1, 2, 3, "SystemExit(0)")
    if code == "SystemExit(0)":
        assert {"-h", "--version"} & set(argv)


@pytest.mark.parametrize("argv, expected", [
    (["spectrum", "--version"], (1, "", "error: unrecognized arguments: --version\n")),
    (["rates"], (1, "", "error: missing required parameter --beta\n")),
    (["spectrum", "-h"], ("SystemExit(0)", "usage: duffing-qubit spectrum [-h]", "")),
])
def test_help_version_and_a_bare_subcommand_behave_as_before(workdir, argv, expected):
    code, out, err, _ = run(argv, workdir)
    assert (code, out[:len(expected[1])], err) == expected
    if argv[-1] == "-h":  # the subcommand's whole help, as the top-level parser prints it
        assert parsed(cli._parser().parse_args, argv) == ("exit", 0, out)
