"""Every function that the benchmark's tracer names must exist in loopstar.

bench/tracer.py wraps the functions listed in its LAYERS table and counts
states through the state sums in STATE_SUMS, each named as
"<module>.<attribute path>" inside the package.  A rename in loopstar would
otherwise only show up when the benchmark runs.  The tracer's source is
parsed, not imported, so nothing is written under bench/.
"""

import ast
import importlib
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def tracer_constant(name: str):
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {TRACER.name}")


def traced_names() -> list[str]:
    return sorted(set(tracer_constant("LAYERS")) | set(tracer_constant("STATE_SUMS")))


@pytest.mark.parametrize("key", traced_names())
def test_traced_name_resolves(key):
    modname, *attrs = key.split(".")
    owner = importlib.import_module(f"loopstar.{modname}")
    for attr in attrs[:-1]:
        owner = getattr(owner, attr)
    # methods are looked up in the class dict, as the tracer does
    fn = owner.__dict__.get(attrs[-1]) if isinstance(owner, type) else getattr(owner, attrs[-1], None)
    assert callable(fn), key
