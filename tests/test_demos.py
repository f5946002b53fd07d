"""Every script under ``demos/``, and the README's library example, runs to
completion against the package; the README's command lines print what they
say they print."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import schubertcalc
from schubertcalc.cli import main


def test_demos_run():
    demos = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
    assert [d.name for d in demos] == [
        "demo_engine_vs_oracle.py",
        "demo_gkm_model.py",
        "demo_worked_examples.py",
    ]
    src = os.path.dirname(os.path.dirname(schubertcalc.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for demo in demos:
        done = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, (demo.name, done.stderr)
        assert done.stdout.strip(), demo.name


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (code,) = re.findall(r"^```python\n(.*?)^```", readme, re.DOTALL | re.MULTILINE)
    src = os.path.dirname(os.path.dirname(schubertcalc.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[:3] == ["1", "True", "True"]


def test_readme_command_lines_print_their_stated_values(capsys, monkeypatch):
    """Each line of the "Command line" block with a ``# ->`` comment, run through
    ``cli.main``, prints the comment's value."""
    monkeypatch.delenv("SCHUBERTCALC_CACHE_DIR", raising=False)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"^## Command line\n\n```\n(.*?)^```", readme, re.DOTALL | re.MULTILINE)
    claims = [line.split("# ->") for line in block.splitlines() if "# ->" in line]
    assert len(claims) == 4
    for command, value in claims:
        program, *argv = shlex.split(command)
        assert program == "schubertcalc"
        assert main(argv) == 0, command
        out = capsys.readouterr()
        assert (out.out, out.err) == (value.strip() + "\n", ""), command
