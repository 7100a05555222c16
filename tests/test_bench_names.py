"""Every name that the benchmark reads off loopstar must exist there.

bench/tracer.py wraps the functions listed in its LAYERS table and counts
states through the state sums in STATE_SUMS, each named as
"<module>.<attribute path>" inside the package.  bench/workloads.py calls
the library through the names it imports from loopstar (`ls.star_loops`,
`checks.SUITES`, ...).  A rename in loopstar would otherwise only show up
when the benchmark runs.  Both sources are parsed, not imported, so nothing
is written under bench/.
"""

import ast
import importlib
import pathlib
from math import comb

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
TRACER = BENCH / "tracer.py"
WORKLOADS = BENCH / "workloads.py"


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


def workload_names() -> list[str]:
    """Every dotted attribute chain that workloads.py reads off a name it
    imports from loopstar, as "<module>:<attribute path>"."""
    tree = ast.parse(WORKLOADS.read_text())
    modules = {}  # local name -> loopstar module
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update({a.asname or a.name: a.name for a in node.names if a.name.startswith("loopstar")})
        elif isinstance(node, ast.ImportFrom) and node.module == "loopstar":
            modules.update({a.asname or a.name: f"loopstar.{a.name}" for a in node.names})
    chains = set()
    for node in ast.walk(tree):
        attrs = []
        while isinstance(node, ast.Attribute):
            attrs.append(node.attr)
            node = node.value
        if attrs and isinstance(node, ast.Name) and node.id in modules:
            chains.add(f"{modules[node.id]}:{'.'.join(reversed(attrs))}")
    return sorted(chains)


def test_workloads_read_names_off_loopstar():
    names = workload_names()
    # the parse found the library calls: a renamed import would hide them all
    assert "loopstar:star_loops" in names and "loopstar.checks:SUITES" in names


@pytest.mark.parametrize("key", workload_names())
def test_workload_name_resolves(key):
    modname, path = key.split(":")
    owner = importlib.import_module(modname)
    for attr in path.split("."):
        assert hasattr(owner, attr), key
        owner = getattr(owner, attr)


@pytest.mark.parametrize("verb", ["star", "bracket"])
def test_cli_writes_through_the_traced_writer_once(verb, monkeypatch, capsys):
    """bench/tracer.py charges the diagram.json layer to cli._formal_sum_payload:
    a CLI call that wrote its output some other way would leave that layer
    reading zero."""
    cli = importlib.import_module("loopstar.cli")
    calls = []
    writer = cli._formal_sum_payload

    def counted(*args, **kwargs):
        calls.append(args)
        return writer(*args, **kwargs)

    monkeypatch.setattr(cli, "_formal_sum_payload", counted)
    diagram = BENCH.parent / "diagrams" / "two_crossing.ls"
    assert cli.main([verb, str(diagram)]) == 0
    assert capsys.readouterr().out.startswith("{")
    assert len(calls) == 1
    assert cli.main([verb, "--format", "text", str(diagram)]) == 0
    assert len(calls) == 2


def test_state_sums_walk_each_state_through_the_traced_names(monkeypatch):
    """bench/tracer.py counts star.states through Stacked.cycles and
    star.full_states after each expect_loops call.  On two curves crossing
    10 times at K=8, expect_loops must call Stacked.cycles once per visited
    state and FormalSum.add_term never, and star must reach its state sums
    only through expect_loops."""
    ls = importlib.import_module("loopstar")
    star_module = importlib.import_module("loopstar.star")
    k, order = 10, 8
    points = "".join(f"point x{i} {'+-'[i % 2]}\n" for i in range(k))
    passes = " ".join(f"x{i}" for i in range(k))
    d = ls.parse_diagram(points + f"curve C level 1: {passes}\ncurve D level 0: {passes}\n")
    x, y = d.loop_of("C"), d.loop_of("D")
    calls = {"cycles": 0, "add_term": 0, "sums": 0}
    inside = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def expect_loops(*args, **kwargs):
        inside.append(True)
        try:
            return expect(*args, **kwargs)
        finally:
            inside.pop()

    def exact_sum(*args):
        assert inside, "a state sum outside expect_loops"
        calls["sums"] += 1
        return exact(*args)

    expect, exact = star_module.expect_loops, star_module._exact_sum
    monkeypatch.setattr(star_module.Stacked, "cycles", counted("cycles", star_module.Stacked.cycles))
    monkeypatch.setattr(ls.FormalSum, "add_term", counted("add_term", ls.FormalSum.add_term))
    monkeypatch.setattr(star_module, "expect_loops", expect_loops)
    monkeypatch.setattr(star_module, "_exact_sum", exact_sum)
    want = star_module.expect_loops(d, [(x, 1), (y, -1)], ls.GroupSpec("su2"), order)
    assert calls == {"cycles": sum(comb(k, s) for s in range(order + 1)), "add_term": 0, "sums": 1}
    f, g = (ls.FormalSum.of(ls.monomial([l]), order) for l in (x, y))
    assert star_module.star(d, f, g, ls.GroupSpec("su2"), order) == want
    assert calls["sums"] == 2
