"""No dead private helpers: each is named somewhere in the package besides its ``def``."""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "schubertcalc"


def test_every_private_module_function_is_named_outside_its_def():
    files = sorted(SRC.glob("*.py"))
    assert any(path.name == "cli.py" for path in files)
    lines = [(path, n, line) for path in files for n, line in enumerate(path.read_text().splitlines(), 1)]
    for path in files:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_"):
                name = re.compile(rf"\b{re.escape(node.name)}\b")
                assert any(
                    name.search(line) and (p, n) != (path, node.lineno) for p, n, line in lines
                ), f"{path.name}:{node.lineno}: {node.name} is never named"
