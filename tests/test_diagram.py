"""Diagram model: validation, canonical forms, concatenation, text format."""

import copy
import json
import os
import pathlib
import pickle
import re
import subprocess
import sys

import numpy as np
import pytest
from fractions import Fraction

from loopstar.coeff import CoeffError, GroupSpec, SeriesCoeff
from loopstar.diagram import (
    Arc,
    CrossingPoint,
    Curve,
    Diagram,
    DiagramError,
    FormalSum,
    TransversalityError,
    canonical,
    entry_key,
    formal_sum_from_json,
    formal_sum_to_json,
    Loop,
    monomial,
    monomial_text,
    parse_diagram,
    reverse_word,
)
from loopstar.goldman import bracket_loops
from loopstar.holonomy import eval_wilson, loop_matrix, random_assignment
from loopstar.checks import random_diagram

ONE_CROSSING = "point a +\ncurve C level 1: a\ncurve D level 0: a\n"


def reverse(loop: Loop) -> Loop:
    return Loop(reverse_word(loop.word))


def joined(x: Loop, y: Loop, gx: int, gy: int) -> Loop:
    """x *_p y from the gaps crossings_between reports at p: each word
    rotated to start after its gap, x's first."""
    return Loop(x.word[gx + 1 :] + x.word[: gx + 1] + y.word[gy + 1 :] + y.word[: gy + 1])


def test_parse_basic():
    d = parse_diagram(ONE_CROSSING)
    assert set(d.points) == {"a"}
    assert d.points["a"].sign == 1
    assert d.curves["C"].level == 1
    assert d.curves["D"].passes == ("a",)
    assert d.validate() == []


def test_parse_comments_and_blank_lines():
    d = parse_diagram("# heading\n\npoint a -  # trailing\ncurve C level 0: a a\n")
    assert d.points["a"].sign == -1
    assert d.validate() == []


@pytest.mark.parametrize("bad", [
    "point a *\n",
    "point a\n",
    "curve C: a\n",
    "curve C level x: a\n",
    "loop C level 0: a\n",
])
def test_parse_syntax_errors(bad):
    with pytest.raises(DiagramError):
        parse_diagram(bad)


def test_validate_triple_point():
    d = parse_diagram("point a +\ncurve C level 0: a a a\n")
    errs = d.validate()
    assert any("triple" in e for e in errs)
    with pytest.raises(DiagramError):
        d.require_valid()


def test_validate_self_crossing_ok():
    d = parse_diagram("point a +\npoint b -\ncurve C level 0: a b a b\n")
    assert d.validate() == []


def test_validate_empty_diagram():
    assert Diagram().validate() == []


def test_validate_dangling():
    d = parse_diagram("point a +\npoint b -\ncurve C level 0: a a\n")
    assert any("never visited" in e for e in d.validate())
    d2 = parse_diagram("curve C level 0: zz zz\n")
    assert any("undeclared" in e for e in d2.validate())
    d3 = parse_diagram("point a +\ncurve C level 0: a\n")
    assert any("only one pass" in e for e in d3.validate())


def one_crossing_at(level) -> Diagram:
    """C at the given level over D at level 0, crossing once at a."""
    return Diagram(curves={"C": Curve("C", ("a",), level), "D": Curve("D", ("a",), 0)},
                   points={"a": CrossingPoint("a", 1)})


@pytest.mark.parametrize("level", [float("nan"), None, "1", 1j], ids=repr)
def test_validate_reports_a_level_that_does_not_order(level):
    """A NaN level compares false with every level, so stacking would put
    the other curve on top whatever its level; a level that is not a number
    would fail inside the state sum.  Both are validation errors."""
    from loopstar.star import expect_diagram

    d = one_crossing_at(level)
    assert d.validate() == [f"curve C: level must be an int or a float other than NaN, got {level!r}"]
    with pytest.raises(DiagramError, match="level must be"):
        expect_diagram(d, GroupSpec("su2"), 2)


@pytest.mark.parametrize("curves, message", [
    ({1: Curve(1, ("a",), 1), 2: Curve(2, ("a",))}, "curve key 1 and id 1 must be strings"),
    ({1: Curve(1, ("a",), 1), "D": Curve("D", ("a",))}, "curve key 1 and id 1 must be strings"),
    ({"C": Curve("C", ("a",), 1), "D": Curve(2, ("a",))}, "curve key 'D' and id 2 must be strings"),
    ({"C": Curve("C", ("a",), 1), ("D",): Curve("D", ("a",))}, r"curve key \('D',\) and id 'D' must be strings"),
], ids=["int-ids", "int-and-str-ids", "int-id-under-a-str-key", "tuple-key"])
def test_a_curve_id_that_is_not_a_string_is_rejected_when_built(curves, message):
    """Arc ids are written "curve.index", so an int id 1 would come back
    from JSON as the curve "1"; an int beside a str would not sort."""
    with pytest.raises(DiagramError, match=f"^{message}$"):
        Diagram(curves=curves, points={"a": CrossingPoint("a", 1)})


@pytest.mark.parametrize("points, message", [
    ({1: CrossingPoint(1, 1), "a": CrossingPoint("a", -1)}, "point key 1 and id 1 must be strings"),
    ({"b": CrossingPoint(1, 1), "a": CrossingPoint("a", -1)}, "point key 'b' and id 1 must be strings"),
    ({("b",): CrossingPoint("b", 1), "a": CrossingPoint("a", -1)}, r"point key \('b',\) and id 'b' must be strings"),
], ids=["int-id", "int-id-under-a-str-key", "tuple-key"])
def test_a_point_id_that_is_not_a_string_is_rejected_when_built(points, message):
    """An int point id beside a str one would not sort, and none would
    come back from the text format; curve ids follow the same rule."""
    curves = {"C": Curve("C", (1, "a")), "D": Curve("D", (1, "a"))}
    with pytest.raises(DiagramError, match=f"^{message}$"):
        Diagram(curves=curves, points=points)


@pytest.mark.parametrize("curves, points, message", [
    ({"C": Curve("C", "ab"), "D": Curve("D", "ba")}, "ab", "curve C: passes 'ab' are not a tuple of point ids"),
    ({"C": Curve("C", ["a", "b"]), "D": Curve("D", ("b", "a"))}, "ab",
     r"curve C: passes \['a', 'b'\] are not a tuple of point ids"),
    ({"C": Curve("C", (["a"],))}, "a", r"curve C: pass \['a'\] is not a point id string"),
    ({"C": Curve("C", ("a", 1)), "D": Curve("D", ("a",))}, "a", "curve C: pass 1 is not a point id string"),
    ({"C": ("a",), "D": Curve("D", ("a",))}, "a", r"curve 'C' holds \('a',\), not a Curve"),
    ({"C": Curve("C", ("a",)), "D": Curve("D", ("a",))}, {"a": 1}, "point 'a' holds 1, not a CrossingPoint"),
], ids=["str-passes", "list-passes", "list-pass", "int-pass", "tuple-curve", "int-point"])
def test_a_curve_or_point_of_the_wrong_type_is_rejected_when_built(curves, points, message):
    """A str of passes would read as one pass per character, and a list
    pass cannot be hashed; a curve or point that is not one has no id."""
    if isinstance(points, str):
        points = {p: CrossingPoint(p, 1) for p in points}
    with pytest.raises(DiagramError, match=f"^{message}$"):
        Diagram(curves=curves, points=points)


@pytest.mark.parametrize("level, same_as", [(True, 1), (2.5, 1), (float("inf"), 1), (-0.5, -1)], ids=repr)
def test_a_level_that_orders_keeps_its_answer(level, same_as):
    from loopstar.star import expect_diagram

    su2 = GroupSpec("su2")
    assert one_crossing_at(level).validate() == []
    assert expect_diagram(one_crossing_at(level), su2, 2) == expect_diagram(one_crossing_at(same_as), su2, 2)


def test_validate_lists_each_fault_in_order_from_visit_counts():
    d = parse_diagram(
        "point a +\npoint b -\npoint c +\n"
        "curve C level 0: a b a zz\ncurve D level 1: a zz\n"
    )
    assert d.validate() == [
        "curve C: pass through undeclared point zz",
        "curve D: pass through undeclared point zz",
        "point a: triple point (3 passes)",
        "point b: only one pass",
        "point c: declared but never visited",
    ]
    # only the number of passes through each point is kept
    assert d._visits == {"a": 3, "b": 1, "c": 0, "zz": 2}


def test_a_dict_key_that_is_not_its_values_id_is_invalid():
    from loopstar.star import star_loops

    d = Diagram(curves={"X": Curve("Y", ("p",)), "Z": Curve("Z", ("p",))},
                points={"p": CrossingPoint("p", 1)})
    assert d.validate() == ["curve key 'X' holds curve 'Y'"]
    with pytest.raises(DiagramError, match="^curve key 'X' holds curve 'Y'$"):
        star_loops(d, d.loop_of("X"), d.loop_of("Z"), GroupSpec("su2"), 2)
    d = Diagram(curves={"C": Curve("C", ("p", "p"))}, points={"q": CrossingPoint("p", 1)})
    assert d.validate()[0] == "point key 'q' holds point 'p'"


def test_a_curve_filed_under_another_key_answers_by_its_key():
    """The methods that do not validate read a curve's arcs by its dict
    key, as the diagram whose curve ids are the keys does; an arc named by
    the curve's own id is not one of the diagram's.  None raises KeyError."""
    points = {"p": CrossingPoint("p", 1), "q": CrossingPoint("q", -1)}
    d = Diagram(curves={"X": Curve("C", ("p", "q")), "Y": Curve("D", ("q", "p"))}, points=points)
    same = Diagram(curves={"X": Curve("X", ("p", "q")), "Y": Curve("Y", ("q", "p"))}, points=points)
    x, y = d.loop_of("X"), d.loop_of("Y")
    assert (x, y) == (same.loop_of("X"), same.loop_of("Y"))
    # X.0, x's gap 0, arrives at q and X.1, its gap 1, at p, both at slot 0
    assert d.meetings([x, y]) == same.meetings([x, y]) == [("p", (0, 1, 1), (1, 2, 1)), ("q", (0, 0, 1), (1, 3, 1))]
    assert d.crossings_between(x, y) == same.crossings_between(x, y) == [("p", 1, 1, 0), ("q", -1, 0, 1)]
    message = "^" + re.escape(f"loop 0: word entry {(Arc('C', 0), 1)!r} is not an (arc, +1 or -1) of the diagram") + "$"
    with pytest.raises(DiagramError, match=message):
        d.meetings([Loop(((Arc("C", 0), 1),))])
    with pytest.raises(DiagramError, match=message):
        d.crossings_between(Loop(((Arc("C", 0), 1),)), y)


@pytest.mark.parametrize("call, message", [
    (lambda d: d.loop_of("Z"), "unknown curve 'Z'"),
    (lambda d: d.arcs_of("Z"), "unknown curve 'Z'"),
    (lambda d: d.crossing_sign("q", 1, 1, True), "unknown crossing point 'q'"),
], ids=["loop_of", "arcs_of", "crossing_sign"])
def test_an_unknown_id_is_a_domain_error(call, message):
    with pytest.raises(DiagramError, match=f"^{message}$"):
        call(parse_diagram(ONE_CROSSING))


GOLDEN_SIX = """\
point s4 -
point s5 -
point x0 -
point x1 +
point x2 +
point x3 +
curve C0 level 0: x1 x3 s4 x2 x0 s4
curve C1 level 0: x3 x1 s5 s5 x0 x2
"""


def test_random_diagram_six_crossing_golden():
    # frozen golden: the 6-crossing two-curve diagram this seed draws
    # (4 inter-curve crossings plus one self-crossing per curve)
    rng = np.random.default_rng(12)
    d = random_diagram(rng, n_curves=2, max_pair_crossings=6, self_crossing_prob=1.0)
    assert d == parse_diagram(GOLDEN_SIX)
    assert parse_diagram(GOLDEN_SIX).validate() == []


def test_duplicate_declarations_rejected():
    with pytest.raises(DiagramError):
        parse_diagram("point a +\npoint a -\n")
    with pytest.raises(DiagramError):
        parse_diagram("curve C level 0:\ncurve C level 1:\n")


# -- canonical forms ------------------------------------------------------------


def loop_from(d, cid):
    return d.loop_of(cid)


def test_canonical_rotation_invariance():
    d = parse_diagram("point a +\npoint b -\ncurve C level 0: a b a b\n")
    w = tuple((Arc("C", i), 1) for i in range(4))
    forms = {canonical(w[i:] + w[:i]).word for i in range(4)}
    assert len(forms) == 1


def test_canonical_unoriented_merges_reversal():
    j = Loop(((Arc("C", 0), 1), (Arc("D", 0), 1)))  # C *_a D in ONE_CROSSING
    assert canonical(j.word, "unoriented") == canonical(reverse(j).word, "unoriented")
    assert canonical(j.word, "oriented") != canonical(reverse(j).word, "oriented")


def test_canonicalize_idempotent():
    rng = np.random.default_rng(3)
    for _ in range(10):
        d = random_diagram(rng, n_curves=2)
        m = monomial(d.loop_of(c) for c in d.curves)
        for conv in ("oriented", "unoriented"):
            once = monomial(canonical(l.word, conv) for l in m)
            assert monomial(canonical(l.word, conv) for l in once) == once


def test_forward_words_agree_across_conventions():
    # forward-only words canonicalize identically under both conventions
    rng = np.random.default_rng(4)
    for _ in range(10):
        d = random_diagram(rng, n_curves=2)
        for c in d.curves:
            w = d.loop_of(c).word
            assert canonical(w, "oriented") == canonical(w, "unoriented")


def test_reverse_involution():
    d = parse_diagram("point a +\npoint b -\ncurve C level 0: a b a b\n")
    loop = d.loop_of("C")
    assert reverse_word(reverse_word(loop.word)) == loop.word
    assert canonical(reverse(reverse(loop)).word) == canonical(loop.word)


# -- concatenation ---------------------------------------------------------------


def test_concat_simple_loops():
    d = parse_diagram(ONE_CROSSING)
    x, y = d.loop_of("C"), d.loop_of("D")
    assert d.crossings_between(x, y) == [("a", 1, 0, 0)]
    j = joined(x, y, 0, 0)
    assert j == Loop(((Arc("C", 0), 1), (Arc("D", 0), 1)))
    assert len(j) == 2  # visits a twice, once at each slot
    assert d.meetings([j]) == [("a", (0, 0, 1), (0, 1, 1))]


def test_concat_length_additivity():
    rng = np.random.default_rng(9)
    for _ in range(10):
        d = random_diagram(rng, n_curves=2, self_crossing_prob=0.0)
        x, y = d.loop_of("C0"), d.loop_of("C1")
        shared = d.crossings_between(x, y)
        if not shared:
            continue
        _, _, gx, gy = shared[0]
        j = joined(x, y, gx, gy)
        assert len(j) == len(x) + len(y)


def test_concat_symmetry_up_to_rotation():
    d = parse_diagram(ONE_CROSSING)
    x, y = d.loop_of("C"), d.loop_of("D")
    [(_, _, gx, gy)], [(_, _, hy, hx)] = d.crossings_between(x, y), d.crossings_between(y, x)
    assert (hx, hy) == (gx, gy)
    assert canonical(joined(x, y, gx, gy).word) == canonical(joined(y, x, hy, hx).word)


def test_concat_error_cases():
    # a self-crossing of C is no crossing between C and D, so it brings no term
    d = parse_diagram("point a +\npoint s -\ncurve C level 1: a s s\ncurve D level 0: a\n")
    x, y = d.loop_of("C"), d.loop_of("D")
    assert [p for p, _, _, _ in d.crossings_between(x, y)] == ["a"]
    assert len(bracket_loops(d, x, y, GroupSpec("gln", 2), "alt", 2)) == 1
    # a point that only one of the loops passes brings none either
    big = parse_diagram("point a +\npoint b -\ncurve C level 1: a\ncurve D level 0: a\ncurve E level 0: b b\n")
    assert big.crossings_between(big.loop_of("C"), big.loop_of("E")) == []
    assert bracket_loops(big, big.loop_of("C"), big.loop_of("E"), GroupSpec("su2"), "reversal", 2).is_zero()


NOT_ONCE = "point a +\npoint b -\ncurve C level 1: a b\ncurve D level 0: b a\n"


@pytest.mark.parametrize("x, y", [
    # x walks C twice, arriving at slot 0 of a twice; D arrives at slot 1
    (("C", 2), ("D", 1)),
    (("D", 1), ("C", 2)),
    # C arrives at slot 0 of a, y walks D twice, arriving at slot 1 twice
    (("C", 1), ("D", 2)),
], ids=["x-twice", "y-twice", "slot-1-twice"])
def test_a_loop_that_passes_a_crossing_twice_is_not_transversal(x, y):
    """A point that x or y passes more than once is no crossing of the
    pair; crossings_between and every bracket raise, naming the point.
    Both loops are closed walks: a curve walked once or twice."""
    d = parse_diagram(NOT_ONCE)
    x, y = (Loop(d.loop_of(curve).word * times) for curve, times in (x, y))
    message = "^point a is not an inter-loop crossing of the arguments$"
    with pytest.raises(TransversalityError, match=message):
        d.crossings_between(x, y)
    for group, form in ((GroupSpec("gln", 2), "alt"), (GroupSpec("su2"), "alt"), (GroupSpec("su2"), "reversal")):
        with pytest.raises(TransversalityError, match=message):
            bracket_loops(d, x, y, group, form, 2)


def test_concat_holonomy_contract():
    # evaluation of the concatenation equals tr(hol_{C,p} hol_{D,p})
    rng = np.random.default_rng(21)
    for _ in range(5):
        d = random_diagram(rng, n_curves=2, self_crossing_prob=0.4)
        x, y = d.loop_of("C0"), d.loop_of("C1")
        crossings = d.crossings_between(x, y)
        if not crossings:
            continue
        A = random_assignment(d, GroupSpec("gln", 3), rng)
        for _, _, gx, gy in crossings:
            j = joined(x, y, gx, gy)
            want = np.trace(loop_matrix(x, A, gx) @ loop_matrix(y, A, gy))
            assert abs(eval_wilson(j, A) - want) < 1e-12


def test_reverse_wilson_values():
    d = parse_diagram("point a +\npoint b -\ncurve C level 0: a b a b\n")
    loop = d.loop_of("C")
    rng = np.random.default_rng(2)
    for kind, n in (("su2", 2), ("sl2r", 2)):
        A = random_assignment(d, GroupSpec(kind, n), rng)
        assert abs(eval_wilson(reverse(loop), A) - eval_wilson(loop, A)) < 1e-12
    A = random_assignment(d, GroupSpec("gln", 3), rng)
    assert abs(eval_wilson(reverse(loop), A) - eval_wilson(loop, A)) > 1e-6


def test_crossing_sign_flips_with_reversal():
    d = parse_diagram(ONE_CROSSING)
    x, y = d.loop_of("C"), d.loop_of("D")
    assert d.crossings_between(x, y) == [("a", 1, 0, 0)]
    assert d.crossings_between(y, x) == [("a", -1, 0, 0)]  # swapped orientation order
    assert d.crossings_between(x, reverse(y)) == [("a", -1, 0, 0)]
    assert d.crossings_between(reverse(x), reverse(y)) == [("a", 1, 0, 0)]


def test_free_loop():
    d = parse_diagram("curve C level 0:\n")
    loop = d.loop_of("C")
    assert len(loop) == 1
    assert d.meetings([loop]) == []
    A = random_assignment(d, GroupSpec("un", 3), np.random.default_rng(0))
    assert abs(eval_wilson(loop, A) - np.trace(A.matrices["C.0"])) < 1e-14


def test_loop_and_monomial_text():
    d = parse_diagram(ONE_CROSSING)
    j = Loop(((Arc("C", 0), 1), (Arc("D", 0), -1)))  # C *_a D reversed
    assert str(j) == "C.0 D.0~"
    assert repr(j) == "Loop(C.0 D.0~)"
    assert monomial_text(monomial([d.loop_of("D"), j])) == "W(C.0 D.0~) * W(D.0)"
    assert monomial_text(()) == "1"


# -- formal sums -----------------------------------------------------------------


def test_formal_sum_merging_and_pruning():
    d = parse_diagram(ONE_CROSSING)
    m = monomial([d.loop_of("C")])
    fs = FormalSum(order=4)
    fs.add_term(m, Fraction(1, 2))
    fs.add_term(m, Fraction(1, 2))
    assert fs.terms[m] == SeriesCoeff.one(4)
    fs.add_term(m, -1)
    assert fs.is_zero()


def test_a_sum_takes_no_term_of_another_order():
    d = parse_diagram(ONE_CROSSING)
    m1, m2 = monomial([d.loop_of("C")]), monomial([d.loop_of("D")])
    with pytest.raises(CoeffError, match="order 8 in a sum of order 4"):
        FormalSum.of(m1, 4) + FormalSum.of(m2, 8)
    with pytest.raises(CoeffError):
        FormalSum.of(m1, 4).add_term(m1, SeriesCoeff.one(8))
    with pytest.raises(CoeffError):
        FormalSum(order=4).add_term(m2, SeriesCoeff.one(8))


def test_truncated_never_extends_a_sum_even_an_empty_one():
    d = parse_diagram(ONE_CROSSING)
    for fs in (FormalSum.zero(4), FormalSum.of(monomial([d.loop_of("C")]), 4)):
        with pytest.raises(CoeffError, match="^cannot extend a sum of order 4 to order 8$"):
            fs.truncated(8)
        assert fs.truncated(4) is fs


def test_add_scaled_copies_only_a_sum_of_its_own_order():
    d = parse_diagram(ONE_CROSSING)
    m = monomial([d.loop_of("C")])
    with pytest.raises(CoeffError):
        FormalSum.zero(4).add_scaled(FormalSum.of(m, 8), SeriesCoeff.one(4))
    out = FormalSum.zero(4)
    out.add_scaled(FormalSum.of(m, 4), SeriesCoeff.one(4))
    assert out == FormalSum.of(m, 4)
    assert formal_sum_from_json(formal_sum_to_json(out)) == out


def test_add_scaled_by_one_into_a_sum_with_terms_adds_each_term():
    d = parse_diagram(ONE_CROSSING)
    c, dd = monomial([d.loop_of("C")]), monomial([d.loop_of("D")])
    out = FormalSum({c: 2, dd: -1}, 4)
    out.add_scaled(FormalSum({dd: 1, c: 3}, 4), SeriesCoeff.one(4))
    assert list(out.terms.items()) == [(c, SeriesCoeff.constant(5, 4))]
    with pytest.raises(CoeffError):
        out.add_scaled(FormalSum.of(c, 8), SeriesCoeff.one(4))


def test_a_new_zero_term_is_not_inserted():
    d = parse_diagram(ONE_CROSSING)
    c, dd = monomial([d.loop_of("C")]), monomial([d.loop_of("D")])
    fs = FormalSum({c: 1}, 4)
    for zero in (0, Fraction(0), SeriesCoeff.zero(4)):
        fs.add_term(dd, zero)
        assert list(fs.terms) == [c]
    assert list((fs + FormalSum({dd: 0}, 4)).terms) == [c]


def test_a_term_of_another_order_leaves_the_terms_as_they_were():
    """Refused whether its monomial is new or already there; the terms and
    their order stay."""
    d = parse_diagram(ONE_CROSSING)
    c, dd = monomial([d.loop_of("C")]), monomial([d.loop_of("D")])
    e = monomial([d.loop_of("C"), d.loop_of("D")])
    fs = FormalSum({c: 2, dd: -1}, 4)
    before = list(fs.terms.items())
    for m in (e, c, dd):
        with pytest.raises(CoeffError):
            fs.add_term(m, SeriesCoeff.one(8))
        assert list(fs.terms.items()) == before
    with pytest.raises(CoeffError):
        fs.add_scaled(FormalSum({e: 1, c: 1}, 8), SeriesCoeff.one(8))
    assert list(fs.terms.items()) == before


def test_a_term_that_cancels_is_dropped_and_comes_back_last():
    d = parse_diagram(ONE_CROSSING)
    c, dd = monomial([d.loop_of("C")]), monomial([d.loop_of("D")])
    fs = FormalSum({c: 2, dd: -1}, 4)
    fs.add_term(c, -2)
    assert list(fs.terms) == [dd]
    fs.add_term(c, Fraction(1, 3))
    assert list(fs.terms.items()) == [(dd, SeriesCoeff.constant(-1, 4)), (c, SeriesCoeff.constant(Fraction(1, 3), 4))]
    s = FormalSum({c: 1, dd: 1}, 4) - FormalSum({c: 1}, 4) + FormalSum({c: 5}, 4)
    assert list(s.terms) == [dd, c]
    out = FormalSum({c: 1, dd: 1}, 4)
    out.add_scaled(FormalSum({c: 1}, 4), -1)
    out.add_scaled(FormalSum({c: 1}, 4), 1)
    assert list(out.terms) == [dd, c]
    assert list(FormalSum({(c[0], dd[0]): 1, (dd[0], c[0]): -1}, 4).mul_monomial(c).terms) == []


@pytest.mark.parametrize("other", [1, 0, Fraction(1, 2), 1.0, None, SeriesCoeff.one(4)], ids=repr)
def test_a_sum_adds_and_subtracts_only_a_sum(other):
    d = parse_diagram(ONE_CROSSING)
    fs = FormalSum.of(monomial([d.loop_of("C")]), 4)
    for op in (lambda: fs + other, lambda: fs - other, lambda: other + fs, lambda: other - fs):
        with pytest.raises(TypeError):
            op()


def test_add_scaled_reads_an_int_or_fraction_as_add_term_does():
    d = parse_diagram(ONE_CROSSING)
    c, dd = monomial([d.loop_of("C")]), monomial([d.loop_of("D")])
    other = FormalSum({c: 3, dd: SeriesCoeff([1, 2], order=4)}, 4)
    for k in (2, Fraction(-2, 3), 0, 1):
        want, want_scaled = FormalSum({dd: 1}, 4), FormalSum(order=4)
        for m, v in other.terms.items():
            want.add_term(m, SeriesCoeff.constant(k, 4) * v)
            want_scaled.add_term(m, SeriesCoeff.constant(k, 4) * v)
        for factor in (k, SeriesCoeff.constant(k, 4)):
            out = FormalSum({dd: 1}, 4)
            out.add_scaled(other, factor)
            assert list(out.terms.items()) == list(want.terms.items())
            assert list(other.scale(factor).terms.items()) == list(want_scaled.terms.items())
    for bad in (2.0, True, "2"):
        with pytest.raises(CoeffError, match="expected exact rational"):
            FormalSum.zero(4).add_scaled(other, bad)


def test_sum_arithmetic_checks_the_orders_even_of_an_empty_sum():
    """+, - and add_scaled refuse operands of two orders whether or not
    either has terms, as a term of another order is refused."""
    d = parse_diagram(ONE_CROSSING)
    c = monomial([d.loop_of("C")])
    for a, b in ((FormalSum.zero(2), FormalSum.zero(3)), (FormalSum.of(c, 2), FormalSum.zero(3)),
                 (FormalSum.zero(2), FormalSum.of(c, 3))):
        with pytest.raises(CoeffError, match=f"order {b.order} in a sum of order {a.order}"):
            a + b
        with pytest.raises(CoeffError, match=f"order {b.order} in a sum of order {a.order}"):
            a - b
        with pytest.raises(CoeffError, match=f"order {b.order} in a sum of order {a.order}"):
            a.add_scaled(b, 1)
    with pytest.raises(CoeffError):
        FormalSum.zero(4).add_scaled(FormalSum.zero(8), 1)
    assert FormalSum.zero(4).terms == {}


def test_adding_two_sums_copies_the_left_one_without_merging_it_again(monkeypatch):
    """a + b and a - b start from a's terms as they are and merge only b's:
    no term goes through add_term, and the results keep add_term's order."""
    d = parse_diagram(ONE_CROSSING)
    c, dd = monomial([d.loop_of("C")]), monomial([d.loop_of("D")])
    e = monomial([d.loop_of("C"), d.loop_of("D")])
    a, b = FormalSum({c: 2, dd: -1, e: 3}, 4), FormalSum({dd: 1, c: 5}, 4)
    want_add, want_sub = FormalSum({c: 2, dd: -1, e: 3}, 4), FormalSum({c: 2, dd: -1, e: 3}, 4)
    for m, v in b.terms.items():
        want_add.add_term(m, v)
        want_sub.add_term(m, -v)
    calls = []
    add_term = FormalSum.add_term
    monkeypatch.setattr(FormalSum, "add_term", lambda self, m, v: calls.append(m) or add_term(self, m, v))
    total, diff = a + b, a - b
    assert calls == []
    assert list(total.terms.items()) == list(want_add.terms.items()) == [
        (c, SeriesCoeff.constant(7, 4)), (e, SeriesCoeff.constant(3, 4))]
    assert list(diff.terms.items()) == list(want_sub.terms.items())
    assert list(a.terms) == [c, dd, e]  # a itself is left as it was


@pytest.mark.parametrize("how", ["copy", "deepcopy", "pickle"])
def test_a_sum_copies_and_pickles_with_its_terms_in_order(how):
    d = parse_diagram(ONE_CROSSING)
    c, dd = monomial([d.loop_of("C")]), monomial([d.loop_of("D")])
    fs = FormalSum({dd: SeriesCoeff([1, Fraction(1, 2)], order=3), c: -7}, 3)
    hash(frozenset(fs.terms.items()))  # every key and coefficient hashed
    out = {"copy": copy.copy, "deepcopy": copy.deepcopy, "pickle": lambda x: pickle.loads(pickle.dumps(x))}[how](fs)
    assert out == fs and out.order == 3 and list(out.terms.items()) == list(fs.terms.items())
    assert formal_sum_to_json(out) == formal_sum_to_json(fs)


def test_mul_monomial_adds_the_terms_it_makes_one():
    """Two keys that hold one monomial in two orders become one key times
    the extra loop, whose coefficient is their sum."""
    d = parse_diagram(ONE_CROSSING)
    a, b, e = d.loop_of("C"), d.loop_of("D"), Loop(((Arc("C", 0), -1),))
    out = FormalSum({(b, a): 1, (a, b): 2}, 2).mul_monomial((e,))
    assert out.terms == {monomial([a, b, e]): SeriesCoeff.constant(3, 2)}


def reference_ends(d: Diagram) -> dict:
    """The end of every (arc, direction) entry, from the curves' passes:
    slots counted in declaration order, arc i ending at pass i + 1 walked
    forwards and at pass i walked backwards."""
    visits: dict[str, int] = {}
    ends = {}
    for c in d.curves.values():
        slots = []
        for pid in c.passes:
            slots.append((pid, visits.get(pid, 0)))
            visits[pid] = visits.get(pid, 0) + 1
        k = len(c.passes)
        for i in range(max(k, 1)):
            ends[Arc(c.id, i), 1] = slots[(i + 1) % k] if k else None
            ends[Arc(c.id, i), -1] = slots[i] if k else None
    return ends


def met_ends(d: Diagram, loops) -> dict:
    """The pass each entry of the loops ends at, as meetings reports it:
    None for an entry that meetings pairs with no other."""
    entries = [e for loop in loops for e in loop.word]
    ends = dict.fromkeys(entries)
    for pid, *strands in d.meetings(loops):
        for slot, (_, cell, _) in enumerate(strands):
            ends[entries[cell]] = (pid, slot)
    return ends


def test_entry_tables_match_the_passes():
    """The pass every entry ends at, read through meetings of all curves
    walked forwards and of all walked backwards, on random diagrams with a
    pass-less curve added."""
    rng = np.random.default_rng(3)
    for _ in range(20):
        r = random_diagram(rng, n_curves=int(rng.integers(2, 5)))
        d = Diagram(curves={**r.curves, "E": Curve("E", ())}, points=r.points)
        ends = reference_ends(d)
        forwards = [d.loop_of(c) for c in d.curves]
        backwards = [reverse(loop) for loop in forwards]
        assert {**met_ends(d, forwards), **met_ends(d, backwards)} == ends


def test_formal_sum_slot():
    fs = FormalSum(order=3)
    d = parse_diagram(ONE_CROSSING)
    m = monomial([d.loop_of("C")])
    fs.add_term(m, SeriesCoeff([0, 2, 0, 0], order=3))
    assert fs.slot(1) == {m: Fraction(2)}
    assert fs.slot(0) == {}


def test_formal_sum_json_round_trip():
    d = parse_diagram(ONE_CROSSING)
    j = Loop(((Arc("C", 0), 1), (Arc("D", 0), -1)))  # C *_a D reversed
    fs = FormalSum(order=2)
    fs.add_term(monomial([canonical(j.word)]), SeriesCoeff([1, Fraction(-1, 2), Fraction(3, 8)], order=2))
    fs.add_term(monomial([d.loop_of("C"), d.loop_of("D")]), SeriesCoeff([0, 1, 0], order=2))
    back = formal_sum_from_json(formal_sum_to_json(fs))
    assert back == fs


def test_formal_sum_from_json_merges_rotated_words():
    d = parse_diagram("point p +\npoint q -\ncurve C level 1: p q\ncurve D level 0: q p\n")
    terms = [
        {"coeff": ["1", "0"], "monomial": [[["C.0", "+"], ["C.1", "+"]]]},
        {"coeff": ["2", "1"], "monomial": [[["C.1", "+"], ["C.0", "+"]]]},
    ]
    fs = formal_sum_from_json(json.dumps({"order": 1, "terms": terms}))
    assert fs == FormalSum({monomial([d.loop_of("C")]): SeriesCoeff([3, 1])}, order=1)


def test_formal_sum_from_json_merges_reversed_words_under_the_unoriented_convention():
    d = parse_diagram("point p +\npoint q -\ncurve C level 1: p q\ncurve D level 0: q p\n")
    terms = [
        {"coeff": ["1", "0"], "monomial": [[["C.0", "+"], ["C.1", "+"]]]},
        {"coeff": ["2", "1"], "monomial": [[["C.1", "-"], ["C.0", "-"]]]},
    ]
    text = json.dumps({"order": 1, "terms": terms})
    fs = formal_sum_from_json(text, convention="unoriented")
    loop = canonical(d.loop_of("C").word, "unoriented")
    assert fs == FormalSum({monomial([loop]): SeriesCoeff([3, 1])}, order=1)
    assert len(formal_sum_from_json(text)) == 2  # oriented: a loop and its reversal differ
    with pytest.raises(DiagramError, match="unknown convention"):
        formal_sum_from_json(text, convention="both")


@pytest.mark.parametrize("order,coeff", [(2, ["1", "0", "0", "5"]), (4, ["1"])])
def test_formal_sum_from_json_rejects_a_wrong_coefficient_count(order, coeff):
    text = json.dumps({"order": order, "terms": [{"coeff": coeff, "monomial": [[["C.0", "+"]]]}]})
    with pytest.raises(DiagramError, match=rf"term 0: {len(coeff)} coefficients, expected order \+ 1 = {order + 1}"):
        formal_sum_from_json(text)


def test_formal_sum_from_json_rejects_an_empty_loop_word():
    text = json.dumps({"order": 0, "terms": [{"coeff": ["1"], "monomial": [[]]}]})
    with pytest.raises(DiagramError):
        formal_sum_from_json(text)


@pytest.mark.parametrize("flag", ["*", "", "+1", None, 1])
def test_formal_sum_from_json_rejects_an_unknown_direction_flag(flag):
    text = json.dumps({"order": 0, "terms": [{"coeff": ["1"], "monomial": [[["C.0", flag]]]}]})
    with pytest.raises(DiagramError, match=r"term 0: direction flag"):
        formal_sum_from_json(text)


ONE_TERM = [{"coeff": ["1"], "monomial": [[["C.0", "+"]]]}]


def test_formal_sum_from_json_rejects_a_string_order():
    with pytest.raises(DiagramError, match="order"):
        formal_sum_from_json(json.dumps({"order": "2", "terms": []}))


def test_formal_sum_from_json_rejects_a_bool_order():
    with pytest.raises(DiagramError, match="order"):
        formal_sum_from_json(json.dumps({"order": True, "terms": []}))


def test_formal_sum_from_json_rejects_a_negative_order():
    with pytest.raises(DiagramError, match="order"):
        formal_sum_from_json(json.dumps({"order": -1, "terms": []}))


def test_formal_sum_from_json_rejects_a_missing_order():
    with pytest.raises(DiagramError, match="order"):
        formal_sum_from_json(json.dumps({"terms": ONE_TERM}))


def test_formal_sum_from_json_rejects_a_top_level_list():
    with pytest.raises(DiagramError, match="object"):
        formal_sum_from_json(json.dumps([0, ONE_TERM]))


def test_formal_sum_from_json_rejects_a_non_rational_coefficient():
    text = json.dumps({"order": 0, "terms": [{"coeff": ["x"], "monomial": [[["C.0", "+"]]]}]})
    with pytest.raises(DiagramError, match=r"term 0: coefficients \['x'\]"):
        formal_sum_from_json(text)


@pytest.mark.parametrize("coeff", [0.1, 1.0, True, False, None, "0.1", "1/2.0", " 1", "+1", "1/-2", "1/0", "\u0661"],
                         ids=repr)
def test_formal_sum_from_json_reads_exact_rationals_only(coeff):
    """A coefficient is a "p/q" string or a non-bool int: a float such as
    0.1 would load as its binary value and true as 1."""
    text = json.dumps({"order": 0, "terms": [{"coeff": [coeff], "monomial": [[["C.0", "+"]]]}]})
    with pytest.raises(DiagramError, match=r"term 0: coefficients .* are not all rationals"):
        formal_sum_from_json(text)


def test_formal_sum_from_json_reads_p_q_strings_and_ints():
    d = parse_diagram(ONE_CROSSING)
    terms = [{"coeff": ["-3/4", 2, "0", -5], "monomial": [[["C.0", "+"]]]}]
    fs = formal_sum_from_json(json.dumps({"order": 3, "terms": terms}))
    assert fs == FormalSum({monomial([d.loop_of("C")]): SeriesCoeff([Fraction(-3, 4), 2, 0, -5])}, order=3)


def test_formal_sum_from_json_rejects_a_word_entry_without_a_flag():
    text = json.dumps({"order": 0, "terms": [{"coeff": ["1"], "monomial": [[["C.0"]]]}]})
    with pytest.raises(DiagramError, match=r"term 0: word entry \['C.0'\]"):
        formal_sum_from_json(text)


@pytest.mark.parametrize("aid", ["C.x", "C.", "nodot", ".0"])
def test_bad_arc_id_raises_diagram_error(aid):
    with pytest.raises(DiagramError, match="bad arc id"):
        Arc.from_id(aid)
    text = json.dumps({"order": 0, "terms": [{"coeff": ["1"], "monomial": [[[aid, "+"]]]}]})
    with pytest.raises(DiagramError, match="bad arc id"):
        formal_sum_from_json(text)


@pytest.mark.parametrize("aid", ["C.1_0", "C.+1", "C. 1", "C.01", "C.-1", "C.1 ", "C.\u0661"])
def test_arc_id_that_does_not_round_trip_raises_diagram_error(aid):
    """Each of these loads under int() as another id, or as a negative
    index: C.10, C.1, C.-1."""
    with pytest.raises(DiagramError, match="bad arc id"):
        Arc.from_id(aid)
    text = json.dumps({"order": 0, "terms": [{"coeff": ["1"], "monomial": [[[aid, "+"]]]}]})
    with pytest.raises(DiagramError, match="bad arc id"):
        formal_sum_from_json(text)


@pytest.mark.parametrize("aid", ["C.0", "C.10", "a.b.7"])
def test_arc_id_round_trips(aid):
    assert Arc.from_id(aid).id == aid


def test_arc_ids():
    a = Arc("C1", 0)
    assert a.id == "C1.0"
    assert Arc.from_id("C1.0") == a
    with pytest.raises(DiagramError):
        Arc.from_id("nodot")


@pytest.mark.parametrize("text,match", [
    (json.dumps({"order": 0}), "terms must be a list"),
    (json.dumps({"order": 0, "terms": 5}), "terms must be a list"),
    (json.dumps({"order": 0, "terms": [7]}), "term 0: expected an object"),
    (json.dumps({"order": 0, "terms": [{"coeff": ["1"]}]}), "term 0: expected an object"),
    (json.dumps({"order": 0, "terms": [{"monomial": [[["C.0", "+"]]]}]}), "term 0: expected an object"),
    (json.dumps({"order": 0, "terms": [{"coeff": 3, "monomial": [[["C.0", "+"]]]}]}), "term 0: expected an object"),
    (json.dumps({"order": 0, "terms": [{"coeff": ["1"], "monomial": 3}]}), "term 0: expected an object"),
    (json.dumps({"order": 0, "terms": [{"coeff": ["1"], "monomial": [3]}]}), "term 0: loop word 3"),
    (json.dumps({"order": 0, "terms": [{"coeff": ["1"], "monomial": [[[5, "+"]]]}]}), r"term 0: word entry \[5, '\+'\]"),
    ("{", "JSON"),
], ids=["no-terms", "terms-int", "term-int", "no-monomial", "no-coeff", "coeff-int",
        "monomial-int", "word-int", "arc-id-int", "not-json"])
def test_formal_sum_from_json_rejects_a_malformed_shape(text, match):
    with pytest.raises(DiagramError, match=match):
        formal_sum_from_json(text)


ROOT = pathlib.Path(__file__).resolve().parent.parent
WORD = ((Arc("C", 0), 1), (Arc("D", 1), -1), (Arc("C", 2), 1))


def python_with_hash_seed(seed: int, code: str, stdin: bytes = b"") -> bytes:
    """stdout of code run in a fresh interpreter with PYTHONHASHSEED=seed."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": str(seed)}
    done = subprocess.run([sys.executable, "-c", code], input=stdin, env=env, capture_output=True,
                          timeout=120, check=True)
    return done.stdout


def test_loop_hash_is_the_hash_of_its_word():
    d = parse_diagram("point a +\npoint b -\ncurve C level 1: a b\ncurve D level 0: b a\n")
    x, y = d.loop_of("C"), d.loop_of("D")
    (_, _, gx, gy), _ = d.crossings_between(x, y)
    for loop in (x, y, canonical(reverse(x).word, "unoriented"), reverse(y), joined(x, y, gx, gy)):
        assert hash(loop) == hash((loop.word,))
        assert hash(loop) == hash(Loop(loop.word))


def test_loop_takes_no_sort_key():
    with pytest.raises(TypeError):
        Loop(WORD, tuple(map(entry_key, WORD)))
    loop = canonical(WORD)
    assert loop.key() == tuple(map(entry_key, loop.word))


def test_pickled_loop_carries_no_hash():
    loop = canonical(WORD)
    hash(loop), loop.key()
    loaded = pickle.loads(pickle.dumps(loop))
    assert loaded == loop and loaded._hash is None and loaded._key is None
    assert hash(loaded) == hash(loop)


def test_loop_pickled_in_another_process_is_found_by_hash():
    """String hashes are salted per process, so a hash pickled with the
    loop would not match a fresh loop's hash in the loading process."""
    imports = "import pickle, sys\nfrom loopstar.diagram import Arc, Loop\n"
    pickled = python_with_hash_seed(
        1, imports + f"loop = Loop({WORD!r})\nhash(loop)\nsys.stdout.buffer.write(pickle.dumps(loop))\n")
    found = python_with_hash_seed(
        2, imports + f"table = {{Loop({WORD!r}): 'found'}}\n"
        "print(table.get(pickle.loads(sys.stdin.buffer.read()), 'missing'))\n", pickled)
    assert found.decode().strip() == "found"


def test_formal_sums_of_different_orders_are_unequal():
    # their JSON texts differ ("order": 4 vs 8), so equality must too
    assert FormalSum.zero(4) != FormalSum.zero(8)
    assert FormalSum.zero(4) == FormalSum.zero(4)


@pytest.mark.parametrize("order", [-1, 2.5, True, "4", None])
def test_formal_sum_order_must_be_an_int_at_least_zero(order):
    with pytest.raises(CoeffError, match="order must be an int >= 0"):
        FormalSum.zero(order)


def test_a_negative_order_on_zero_factors_is_a_domain_error():
    # the zero factors reach no state sum, yet a sum of order -1 would print
    # JSON that formal_sum_from_json rejects
    from loopstar.goldman import bracket_poly
    from loopstar.star import star

    d = parse_diagram(ONE_CROSSING)
    su2 = GroupSpec("su2")
    with pytest.raises(CoeffError):
        star(d, FormalSum.zero(8), FormalSum.zero(8), su2, -1)
    with pytest.raises(CoeffError):
        bracket_poly(d, FormalSum.zero(8), FormalSum.zero(8), su2, order=-1)


LONG_ARC_ID = "C." + "1" * 4301  # more digits than int() converts


@pytest.mark.parametrize("make,message", [
    (lambda: parse_diagram("curve C level 0: a-b\n"), "line 1: bad pass token 'a-b'"),
    (lambda: CrossingPoint("p", 0), "crossing sign must be +-1, got 0"),
    (lambda: Arc.from_id(LONG_ARC_ID), f"bad arc id {LONG_ARC_ID!r}"),
    (lambda: formal_sum_from_json('{"order": 0, "terms": []}', "bogus"), "unknown convention 'bogus'"),
], ids=["bad-pass-token", "crossing-sign-0", "arc-index-past-int-digits", "convention-before-terms"])
def test_diagram_domain_errors(make, message):
    with pytest.raises(DiagramError) as e:
        make()
    assert str(e.value) == message


def test_formal_sum_repr_lists_each_coefficient_and_its_loops():
    d = parse_diagram("point a +\npoint b -\ncurve C level 1: a b\ncurve D level 0: b a\n")
    fs = FormalSum.of(monomial([d.loop_of("C"), d.loop_of("D")]), 1)
    assert repr(fs) == "FormalSum(SeriesCoeff(1*h^0; K=1) * [Loop(C.0 C.1), Loop(D.0 D.1)])"
    assert repr(FormalSum.zero(3)) == "FormalSum(0)"
