"""Each public name is declared once, in the ``__all__`` of its module, and
the package exports exactly those lists."""

import dataclasses
import inspect

import duffing_qubit
from duffing_qubit import attractors, fluctuations, model, rates

MODULES = (attractors, fluctuations, model, rates)


def test_package_all_is_the_union_of_the_module_lists():
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names)), "a name is listed by two modules"
    assert sorted(duffing_qubit.__all__) == sorted(names)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(duffing_qubit, name) is getattr(module, name), name


def test_listed_classes_and_functions_are_defined_in_their_module():
    for module in MODULES:
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__module__ == module.__name__, (module.__name__, name)


def test_the_cli_wires_the_library_self_checks():
    """validate's checks, the dual route, match_report and the resonant-1q
    and SI table columns are library functions; the CLI calls them and holds
    none of the physics or validity rules they use: no regime table, qubit
    construction or flag labelling."""
    from duffing_qubit import cli
    for name in ("_strictly_stable", "spectra", "spectra_from_matrix", "physical_from_scaled",
                 "gamma_resonant_1q", "gamma_nonresonant", "_dual_route",
                 "FLAG_THRESHOLDS", "FLAG_WEAK_DAMPING", "log_rate_ratio", "resonant_1q_scaled",
                 "_resonant_1q_columns", "_FLAG_LABELS", "_SI_RATES", "QubitParams",
                 "_flag_codes"):
        assert not hasattr(cli, name), name
    assert cli.self_checks is fluctuations.self_checks
    assert cli.dual_route is fluctuations.dual_route
    assert cli.match_report is rates.match_report


def test_a_steady_state_is_u_and_nu():
    """nu = 0 is the one marginal mark: the branch columns hold no second
    one, and a branch's steady state is the pair (u, nu)."""
    names = [field.name for field in dataclasses.fields(attractors.Branches)]
    assert names == ["u_small", "nu_small", "u_unstable", "u_large", "nu_large"]
    for branch in (attractors.Branch.SMALL, attractors.Branch.LARGE):
        state = attractors.solve_branches(0.12, 0.3).pick(branch)
        assert type(state) is tuple and len(state) == 2
