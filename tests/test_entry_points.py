"""Fresh-interpreter runs of the demos and of the CLI: each demo exits 0
with its recorded stdout, the CLI never loads scipy, which only the tests
and one demo use, and the exact verbs never load numpy, which only the
holonomy oracle uses; plus the package's lazy holonomy names."""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}


def python(*args):
    return subprocess.run([sys.executable, *args], env=ENV, capture_output=True, text=True, timeout=300)


# sha256 of each demo's stdout.  The demos print exact series and seeded
# numeric values, so a refactor that keeps the outputs keeps these digests.
DEMO_STDOUT_SHA256 = {
    "demo_crossing_coefficients": "ed2fc9df0302cb5e5fbbf50715581219e36b559c577bb4277c8ed64c5417723b",
    "demo_goldman_bracket": "a8a545234cec2e4804dbd6f67cbbea0f659ef8ac3773ad6b50d749cae3d9a2d2",
    "demo_holonomy_oracle": "d9a958acae46a1a6ba83e4719dfad067d751825bdf44f85c8c88e05e1c317418",
    "demo_star_product": "ccb7262180d3810bff5f83a81f91c3c6585ad374faa0fb4d7e5f18eba9a4ac9c",
    "demo_unoriented_and_r2": "fdb985f80a21d260a6c085348c0b4be1fc4d1ed1d635fbe9fd829147eec3da6f",
}


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.stem)
def test_demo_runs(demo):
    proc = python(str(demo))
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == DEMO_STDOUT_SHA256.get(demo.stem)


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


NUMERIC = ("numpy", "loopstar.holonomy", "loopstar.checks")


def test_exact_verbs_leave_numpy_unloaded():
    """import loopstar, import loopstar.cli and every star/expect/bracket/
    coeffs call load none of NUMERIC; --eval-beta and check do."""
    proc = python("-c", (
        "import contextlib, io, json, pathlib, sys\n"
        f"numeric = {NUMERIC!r}\n"
        "loaded = lambda: [m for m in numeric if m in sys.modules]\n"
        "report = {}\n"
        "import loopstar\n"
        "report['import loopstar'] = (0, loaded())\n"
        "import loopstar.cli\n"
        "report['import loopstar.cli'] = (0, loaded())\n"
        "def run(*argv):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = loopstar.cli.main(list(argv))\n"
        "    report[' '.join(argv)] = (code, loaded())\n"
        f"files = sorted(pathlib.Path({str(ROOT / 'diagrams')!r}).glob('*.ls'))\n"
        "for g in (['--group', 'su2'], ['--group', 'gln', '--n', '3']):\n"
        "    for f in files:\n"
        "        for verb in ('star', 'expect', 'bracket'):\n"
        "            run(verb, *g, str(f))\n"
        "    run('coeffs', *g)\n"
        "exact = len(report)\n"
        "run('star', '--eval-beta', '0.01', str(files[0]))\n"
        "run('check', 'series')\n"
        "print(json.dumps([exact, list(report.items())]))\n"
    ))
    assert proc.returncode == 0, proc.stderr
    exact, report = json.loads(proc.stdout)
    n_files = len(list((ROOT / "diagrams").glob("*.ls")))
    assert n_files > 0 and exact == 2 + 2 * (3 * n_files + 1)
    for what, (code, loaded) in report[:exact]:
        assert code == 0 and loaded == [], what
    (eval_what, (eval_code, eval_loaded)), (check_what, (check_code, check_loaded)) = report[exact:]
    assert eval_code == 0 and eval_loaded == ["numpy", "loopstar.holonomy"], eval_what
    assert check_code == 0 and check_loaded == list(NUMERIC), check_what


HOLONOMY_NAMES = (
    "HolonomyAssignment",
    "eval_formal",
    "eval_monomial",
    "eval_wilson",
    "lattice_derivative_check",
    "lie_basis",
    "projection_pi",
    "random_assignment",
    "sample",
    "verify_gram_identity",
)


def test_holonomy_names_are_served_lazily():
    import loopstar
    import loopstar.coeff
    import loopstar.holonomy

    for name in HOLONOMY_NAMES:
        assert getattr(loopstar, name) is getattr(loopstar.holonomy, name), name
        assert name not in vars(loopstar), name
    assert set(HOLONOMY_NAMES) <= set(dir(loopstar))
    from loopstar import eval_formal

    assert eval_formal is loopstar.holonomy.eval_formal
    with pytest.raises(AttributeError, match=r"^module 'loopstar' has no attribute 'no_such_name'$"):
        loopstar.no_such_name
    assert loopstar.holonomy.HolonomyError is loopstar.coeff.HolonomyError


def test_every_domain_error_is_exported_without_numpy():
    """loopstar exports each domain error a public entry point raises, and
    importing them loads no numpy: HolonomyError lives in loopstar.coeff."""
    proc = python("-c", (
        "import sys\n"
        "import loopstar\n"
        "from loopstar import CoeffError, DiagramError, HolonomyError, StarError, TransversalityError\n"
        "import loopstar.coeff, loopstar.diagram\n"
        "star = sys.modules['loopstar.star']\n"
        "assert CoeffError is loopstar.coeff.CoeffError and HolonomyError is loopstar.coeff.HolonomyError\n"
        "assert DiagramError is loopstar.diagram.DiagramError and StarError is star.StarError\n"
        "assert TransversalityError is loopstar.diagram.TransversalityError\n"
        "assert all(issubclass(e, ValueError) for e in (CoeffError, DiagramError, HolonomyError, StarError))\n"
        "print('numpy' in sys.modules)\n"
    ))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
