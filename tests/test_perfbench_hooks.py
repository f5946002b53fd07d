"""The benchmark's tracer hooks still name real parts of the package.

``perfbench/tracing.py`` wraps the functions and methods listed in its
``TARGETS`` and patches ``cli._result_cache_path``; a rename in the package
would otherwise show only when a traced benchmark run fails.  The file is
read with ``ast``, not imported, so nothing under ``perfbench/`` runs here.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no TARGETS")


def test_every_traced_target_resolves():
    targets = _targets()
    assert targets
    for mod_name, cls_name, attr, span in targets:
        mod = importlib.import_module(f"schubertcalc.{mod_name}")
        if cls_name:
            # the tracer reads the class's own __dict__, so an inherited name is not enough
            assert callable(vars(getattr(mod, cls_name)).get(attr)), span
        else:
            assert callable(getattr(mod, attr, None)), span


def test_patched_hooks_exist():
    cli = importlib.import_module("schubertcalc.cli")
    rootsys = importlib.import_module("schubertcalc.rootsys")
    assert callable(getattr(cli, "_result_cache_path", None))
    assert "__init__" in vars(rootsys.RootSystem)
