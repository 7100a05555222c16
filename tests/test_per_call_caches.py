"""Work done once per call: eval_formal and eval_complex_sum evaluate
their loops as one stacked product with one row per distinct loop;
bracket_poly brackets each distinct loop pair once; a state sum
canonicalizes each distinct cell cycle once; star and bracket_poly form
each distinct product of two exact series once.  Nothing computed for one
call is reused by another, except the constants of each truncation order
(the state tables and the bracket's +-1 and +-1/2 series) and a Diagram's
tables, built with the diagram, such as the end of each (arc, direction)
entry.  They hold only what the diagram fixes, so every call leaves them as
a freshly parsed diagram has them.

The counters replace the module attributes that loopstar calls through at
run time (holonomy._wilson_values, goldman.bracket_loops, the Loop class
that star builds its cycles' loops with, Stacked.cycles, SeriesCoeff's
__mul__ and one), the way the benchmark's tracer rebinds them.
"""

import importlib
import random
from collections import Counter

import numpy as np
import pytest

from loopstar import goldman, holonomy
from loopstar.checks import random_diagram
from loopstar.coeff import GroupSpec, SeriesCoeff
from loopstar.diagram import FormalSum, canonical, monomial, parse_diagram
from loopstar.holonomy import eval_complex_sum, eval_formal, eval_monomial, random_assignment
from loopstar.star import Stacked, expect_loops, star, star_complex

star_module = importlib.import_module("loopstar.star")  # the package exports star()

GROUPS = (GroupSpec("su2"), GroupSpec("sl2c"), GroupSpec("gln", 3), GroupSpec("un", 2))
ORDER = 4
BETA = 0.05


def counting(monkeypatch, owner, name) -> list[tuple]:
    """Replace owner.name by a wrapper that records each call's arguments."""
    calls = []
    fn = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def products(group: GroupSpec):
    """A 4-curve diagram, its curve factors u, v, w, x and u*v*w, whose
    loops repeat across monomials."""
    d = random_diagram(np.random.default_rng(0), n_curves=4)
    conv = group.convention
    u, v, w, x = (FormalSum.of(monomial([canonical(d.loop_of(c).word, conv)]), ORDER) for c in d.curves)
    return d, (u, v, w, x), star(d, star(d, u, v, group, ORDER), w, group, ORDER)


def closed_form(d, factors, group: GroupSpec) -> dict:
    """The closed-form u*v*w, a monomial sum with number coefficients."""
    u, v, w = (next(iter(f.terms)) for f in factors[:3])
    out = {u: 1 + 0j}
    for m in (v, w):
        out = star_complex(d, out, {m: 1 + 0j}, group, BETA)
    return out


def loops_of(terms) -> list:
    return [loop for m in terms for loop in m]


def reference(terms: dict, assign) -> complex:
    """A monomial sum with number coefficients evaluated term by term
    through eval_monomial, with nothing shared between terms."""
    out = 0j
    for m, c in terms.items():
        out += c * eval_monomial(m, assign)
    return out


@pytest.mark.parametrize("group", GROUPS, ids=str)
def test_eval_formal_evaluates_each_distinct_loop_once_per_call(group, monkeypatch):
    d, _, uvw = products(group)
    loops = loops_of(uvw.terms)
    assert len(set(loops)) < len(loops)  # loops repeat, so the count is a real check
    assign = random_assignment(d, group, np.random.default_rng(1))
    calls = counting(monkeypatch, holonomy, "_wilson_values")
    for _ in range(2):
        calls.clear()
        eval_formal(uvw, assign, BETA)
        assert len(calls) == 1  # one batch per evaluation
        assert Counter(calls[0][0]) == Counter(set(loops))  # one row per distinct loop


@pytest.mark.parametrize("group", GROUPS, ids=str)
def test_eval_complex_sum_evaluates_each_distinct_loop_once_per_call(group, monkeypatch):
    d, factors, _ = products(group)
    closed = closed_form(d, factors, group)
    loops = loops_of(closed)
    assert len(set(loops)) < len(loops)
    assign = random_assignment(d, group, np.random.default_rng(1))
    calls = counting(monkeypatch, holonomy, "_wilson_values")
    for _ in range(2):
        calls.clear()
        eval_complex_sum(closed, assign)
        assert len(calls) == 1  # one batch per evaluation
        assert Counter(calls[0][0]) == Counter(set(loops))  # one row per distinct loop


@pytest.mark.parametrize("group", GROUPS, ids=str)
@pytest.mark.parametrize("form", ("alt", "reversal"))
def test_bracket_poly_brackets_each_distinct_loop_pair_once_per_call(group, form, monkeypatch):
    d, factors, uvw = products(group)
    x = factors[3]
    pairs = [(lx, ly) for m in uvw.terms for mp in x.terms for lx in m for ly in mp]
    assert len(set(pairs)) < len(pairs)
    calls = counting(monkeypatch, goldman, "bracket_loops")
    for _ in range(2):
        calls.clear()
        goldman.bracket_poly(d, uvw, x, group, form)
        assert Counter((args[1], args[2]) for args in calls) == Counter(set(pairs))


def recording_sizes(monkeypatch, owner, name) -> list[int]:
    """Replace owner.name by a wrapper that records the length of each
    result."""
    sizes = []
    fn = getattr(owner, name)

    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        sizes.append(len(out))
        return out

    monkeypatch.setattr(owner, name, wrapper)
    return sizes


@pytest.mark.parametrize("group", GROUPS, ids=str)
def test_star_forms_each_distinct_product_once_per_call(group, monkeypatch):
    """star(u*v*w, x): besides the product of the chosen coefficients that
    each stacking forms, each distinct pair of values is multiplied once
    per call, fewer times than there are stacked terms to scale, and as
    often in a second call."""
    d, factors, uvw = products(group)
    x = factors[3]
    star(d, uvw, x, group, ORDER)  # the state tables are kept per process
    calls = counting(monkeypatch, SeriesCoeff, "__mul__")
    scaled = recording_sizes(monkeypatch, star_module, "expect_loops")
    stackings = Counter((c, cx) for c in uvw.terms.values() for cx in x.terms.values())
    counts = []
    for _ in range(2):
        calls.clear()
        scaled.clear()
        star(d, uvw, x, group, ORDER)
        rest = Counter(calls) - stackings
        assert set(rest.values()) == {1}
        assert sum(rest.values()) < sum(scaled)
        counts.append(len(calls))
    assert counts[0] == counts[1]


@pytest.mark.parametrize("group", GROUPS, ids=str)
@pytest.mark.parametrize("form", ("alt", "reversal"))
def test_bracket_poly_forms_each_distinct_product_once_per_call(group, form, monkeypatch):
    """The product of each pair of terms' coefficients and each product
    that scales a Leibniz term: each distinct pair of values once per call,
    fewer times than there are pairs and terms, and as often in a second
    call."""
    d, factors, uvw = products(group)
    x = factors[3]
    calls = counting(monkeypatch, SeriesCoeff, "__mul__")
    scaled = recording_sizes(monkeypatch, FormalSum, "mul_monomial")
    counts = []
    for _ in range(2):
        calls.clear()
        scaled.clear()
        goldman.bracket_poly(d, uvw, x, group, form)
        assert set(Counter(calls).values()) == {1}
        assert len(calls) < len(uvw) * len(x) + sum(scaled)
        counts.append(len(calls))
    assert counts[0] == counts[1]


@pytest.mark.parametrize("group", GROUPS, ids=str)
def test_the_bracket_builds_its_constants_once_per_order(group, monkeypatch):
    d, factors, uvw = products(group)
    x = factors[3]
    goldman._signed_units.cache_clear()
    calls = counting(monkeypatch, SeriesCoeff, "one")
    out = [goldman.bracket_poly(d, uvw, x, group, order=k) for k in (ORDER, ORDER - 1, ORDER, ORDER - 1)]
    assert sorted(calls) == [(ORDER - 1,), (ORDER,)]
    assert out[0] == out[2] and out[1] == out[3] and not out[0].is_zero()


@pytest.mark.parametrize("group", GROUPS, ids=str)
def test_each_assignment_gets_its_own_value(group):
    d, factors, uvw = products(group)
    closed = closed_form(d, factors, group)
    first, second = (random_assignment(d, group, np.random.default_rng(s)) for s in (1, 2))
    values = [eval_formal(uvw, a, BETA) for a in (first, second)]
    closed_values = [eval_complex_sum(closed, a) for a in (first, second)]
    numeric = {m: c.eval_h(2.0 * BETA) for m, c in uvw.terms.items()}
    assert values == [reference(numeric, a) for a in (first, second)]
    assert closed_values == [reference(closed, a) for a in (first, second)]
    assert values[0] != values[1] and closed_values[0] != closed_values[1]


@pytest.mark.parametrize("group", GROUPS, ids=str)
def test_state_sum_canonicalizes_each_distinct_cycle_once_per_call(group, monkeypatch):
    """expect_loops at K=8 on two curves crossing 10 times: star builds
    one Loop per distinct cell cycle of the visited states, fewer than
    there are cycles, and again as many in a second call."""
    rng = random.Random(0)
    order = list(range(10))
    rng.shuffle(order)
    points = "".join(f"point x{j} {rng.choice('+-')}\n" for j in range(10))
    d = parse_diagram(points + "curve C level 1: " + " ".join(f"x{j}" for j in range(10))
                      + "\ncurve D level 0: " + " ".join(f"x{j}" for j in order) + "\n")
    conv = group.convention
    leveled = [(canonical(d.loop_of(c).word, conv), level) for c, level in (("C", 1), ("D", -1))]
    calls = counting(monkeypatch, star_module, "Loop")
    cycles = []
    walk = Stacked.cycles

    def recording(self, succ):
        out = walk(self, succ)
        cycles.extend(map(tuple, out))
        return out

    monkeypatch.setattr(Stacked, "cycles", recording)
    counts = []
    for _ in range(2):
        calls.clear()
        cycles.clear()
        expect_loops(d, leveled, group, 8)
        assert len(calls) == len(set(cycles)) < len(cycles)
        counts.append(len(calls))
    assert counts[0] == counts[1]


def diagram_text(d) -> str:
    return "".join(f"point {p.id} {'+' if p.sign > 0 else '-'}\n" for p in d.points.values()) + "".join(
        f"curve {c.id} level {c.level}: {' '.join(c.passes)}\n" for c in d.curves.values())


@pytest.mark.parametrize("group", GROUPS, ids=str)
def test_calls_leave_the_diagram_as_a_fresh_parse_has_it(group):
    """After star, bracket_poly and eval_formal, every attribute of the
    diagram, its entry table included, equals that of a fresh parse of the
    same text once that one is validated too."""
    text = diagram_text(random_diagram(np.random.default_rng(0), n_curves=4))
    d = parse_diagram(text)
    conv = group.convention
    u, v, w, x = (FormalSum.of(monomial([canonical(d.loop_of(c).word, conv)]), ORDER) for c in d.curves)
    uvw = star(d, star(d, u, v, group, ORDER), w, group, ORDER)
    full = star(d, uvw, x, group, ORDER)
    br = goldman.bracket_poly(d, uvw, x, group)
    assign = random_assignment(d, group, np.random.default_rng(1))
    eval_formal(full, assign, BETA)
    eval_formal(br, assign, BETA)
    fresh = parse_diagram(text)
    fresh.require_valid()
    assert vars(d) == vars(fresh)
