"""Fresh-interpreter runs of the demos and of the CLI: each demo exits 0,
and the CLI never loads scipy, which only the tests and one demo use."""

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
        "code = loopstar.cli.main(['check', 'all', '--seed', '42'])\n"
        "print('scipy' in sys.modules)\n"
        "sys.exit(code)\n"
    ))
    assert proc.returncode == 0, proc.stderr
    first, *verdicts, last = proc.stdout.splitlines()
    assert first == "False" and last == "False"
    assert len(verdicts) == 12 and all(v.startswith("[PASS]") for v in verdicts)
