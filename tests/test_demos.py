"""Every script under ``demos/`` runs to completion against the package."""

import os
import subprocess
import sys
from pathlib import Path

import schubertcalc


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
