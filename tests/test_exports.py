"""The package's public names are exactly what its library modules declare in ``__all__``."""

import importlib
from inspect import ismodule

import schubertcalc

MODULES = ["errors", "rootsys", "polyring", "gkm", "billey", "recurrence", "oracle"]


def test_package_exports_the_disjoint_union_of_the_module_lists():
    owner, declared = {}, {}
    for name in MODULES:
        module = importlib.import_module(f"schubertcalc.{name}")
        for export in module.__all__:
            # a name listed twice would be shadowed by the later wildcard import
            assert export not in owner, f"{export} is listed by {owner.get(export)} and {name}"
            owner[export] = name
            declared[export] = getattr(module, export)
            assert declared[export].__module__ == module.__name__, export
    exported = {
        name for name, value in vars(schubertcalc).items()
        if not name.startswith("_") and not ismodule(value)
    }
    assert exported == declared.keys()
    for name, value in declared.items():
        assert getattr(schubertcalc, name) is value, name
