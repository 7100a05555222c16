"""Fresh-interpreter runs of the demos and of the CLI: each demo exits 0,
and importing the CLI leaves scipy unloaded until the lattice check needs
it."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}


def python(*args):
    return subprocess.run([sys.executable, *args], env=ENV, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.stem)
def test_demo_runs(demo):
    proc = python(str(demo))
    assert proc.returncode == 0, proc.stderr


def test_cli_import_leaves_scipy_unloaded():
    proc = python("-c", (
        "import sys\n"
        "import loopstar.cli\n"
        "print('scipy' in sys.modules)\n"
        "sys.exit(loopstar.cli.main(['check', 'lattice']))\n"
    ))
    assert proc.returncode == 0, proc.stderr
    first, verdict = proc.stdout.splitlines()
    assert first == "False"
    assert verdict.startswith("[PASS] lattice-derivative")
