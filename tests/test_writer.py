"""The formal sum writer against the encoder it replaced.

write_formal_sum renders JSON and the text table directly, without building
the payload as Python objects.  The oracle kept here is that old path: the
terms as a list of dicts with str(Fraction) coefficients, passed through
json.dumps(..., indent=2), and the old table renderer.  Sums are drawn over
the arcs of diagrams built with Diagram(...), whose curve ids may hold
non-ASCII letters, quotes and backslashes that the diagram text format
rejects, and also come from star_loops on such a diagram.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loopstar.coeff import GroupSpec, SeriesCoeff
from loopstar.diagram import (
    CrossingPoint,
    Curve,
    Diagram,
    DiagramError,
    FormalSum,
    canonical,
    formal_sum_from_json,
    formal_sum_to_json,
    monomial,
    monomial_text,
    write_formal_sum,
)
from loopstar.star import star_loops


def old_terms(fs: FormalSum) -> list[dict]:
    return [
        {
            "coeff": [str(x) for x in c.coeffs],
            "monomial": [[[a.id, "+" if d == 1 else "-"] for a, d in l.word] for l in m],
        }
        for m, c in fs
    ]


def old_payload_json(fs: FormalSum, head: dict, tail: dict) -> str:
    return json.dumps({**head, "order": fs.order, "terms": old_terms(fs), **tail}, indent=2)


def old_text(fs: FormalSum) -> str:
    if fs.is_zero():
        return "0\n"
    rows = [(monomial_text(m), [str(x) for x in c.coeffs]) for m, c in fs]
    width = max(len(r[0]) for r in rows)
    lines = [f"{'monomial'.ljust(width)}  coefficients of h^0..h^{fs.order}"]
    for mono, cs in rows:
        lines.append(f"{mono.ljust(width)}  {' '.join(cs)}")
    return "\n".join(lines) + "\n"


def assert_writer_matches_oracle(fs: FormalSum, head: dict | None = None, tail: dict | None = None):
    head, tail = head or {}, tail or {}
    assert formal_sum_to_json(fs) == json.dumps({"order": fs.order, "terms": old_terms(fs)}, indent=2)
    assert write_formal_sum(fs, "json", head, tail) == old_payload_json(fs, head, tail)
    assert write_formal_sum(fs, "text") == old_text(fs)


curve_ids = st.text(
    st.one_of(st.sampled_from('"\\é'), st.characters(codec="utf-8", exclude_characters="\n")),
    min_size=1, max_size=4,
)
big = st.integers(-10**40, 10**40)
rationals = st.one_of(
    st.integers(-3, 3),
    big,
    st.builds(Fraction, big, st.integers(1, 10**40)),
    st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12)),
)


@st.composite
def diagrams(draw) -> Diagram:
    """Up to three curves with drawn ids, each through its own points, so
    curve i has as many arcs as it has passes (one when it has none)."""
    ids = draw(st.lists(curve_ids, min_size=1, max_size=3, unique=True))
    curves, points = {}, {}
    for i, cid in enumerate(ids):
        passes = tuple(f"p{i}_{j}" for j in range(draw(st.integers(0, 3))))
        points.update((p, CrossingPoint(p, 1)) for p in passes)
        curves[cid] = Curve(cid, passes)
    return Diagram(curves=curves, points=points)


@st.composite
def sums(draw) -> FormalSum:
    d = draw(diagrams())
    order = draw(st.integers(0, 4))
    entries = st.tuples(st.sampled_from(d.all_arcs()), st.sampled_from([1, -1]))
    loops = st.lists(entries, min_size=1, max_size=4).map(canonical)
    terms = draw(st.dictionaries(
        st.lists(loops, max_size=3).map(monomial),
        st.lists(rationals, max_size=order + 1).map(lambda cs: SeriesCoeff(cs, order=order)),
        max_size=6,
    ))
    return FormalSum(terms, order=order)


floats = st.floats(allow_nan=True, allow_infinity=True)
evals = st.one_of(st.none(), st.fixed_dictionaries(
    {"beta": floats, "seed": st.integers(-10, 10**6), "value": st.lists(floats, min_size=2, max_size=2)}))


@settings(max_examples=200, deadline=None)
@given(sums(), curve_ids, evals)
@example(FormalSum(order=3), "su2", None)
@example(FormalSum.of((), 2), "gln(3)", {"beta": 0.1, "seed": 0, "value": [1.5, -0.0]})
def test_writer_matches_the_list_of_dicts_encoder(fs, group, ev):
    tail = {"operation": "star"} if ev is None else {"operation": "star", "eval": ev}
    assert_writer_matches_oracle(fs, {"group": group}, tail)


@settings(max_examples=100, deadline=None)
@given(sums())
def test_written_json_reads_back_as_the_same_sum(fs):
    assert formal_sum_from_json(formal_sum_to_json(fs)) == fs


@settings(max_examples=25, deadline=None)
@given(st.lists(curve_ids, min_size=2, max_size=2, unique=True), st.lists(st.booleans(), min_size=1, max_size=4),
       st.randoms(use_true_random=False), st.sampled_from([GroupSpec("su2"), GroupSpec("gln", 3)]))
def test_writer_matches_oracle_on_a_star_product(ids, signs, rng, group):
    """Two curves with drawn ids crossing at len(signs) points, the second
    visiting them in a shuffled order: a sum with reversed entries (su2 is
    unoriented) and long coefficients."""
    points = {f"x{j}": CrossingPoint(f"x{j}", 1 if s else -1) for j, s in enumerate(signs)}
    order = list(points)
    rng.shuffle(order)
    c, e = ids
    d = Diagram(curves={c: Curve(c, tuple(points), 1), e: Curve(e, tuple(order))}, points=points)
    d.require_valid()
    x, y = (canonical(d.loop_of(i).word, group.convention) for i in ids)
    fs = star_loops(d, x, y, group, 4)
    assert not fs.is_zero()
    assert_writer_matches_oracle(fs)
    assert formal_sum_from_json(formal_sum_to_json(fs), group.convention) == fs


def test_unknown_format_is_a_diagram_error():
    with pytest.raises(DiagramError, match="unknown formal sum format 'csv'"):
        write_formal_sum(FormalSum(), "csv")
