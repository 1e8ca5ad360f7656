"""Each public name is declared once, in the ``__all__`` of its module, and
the package exports exactly those lists."""

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
