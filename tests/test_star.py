"""Star product and expectation functional tests."""

import pathlib
import re

import numpy as np
import pytest
from fractions import Fraction
from pathlib import Path

from loopstar.coeff import (
    GROUP_KINDS,
    CoeffError,
    GroupSpec,
    HolonomyError,
    SeriesCoeff,
    check_coupling,
    closed_crossing_values,
    crossing_coeffs,
    exp_series,
    kauffman_coeffs,
    kauffman_values,
)
from loopstar.diagram import (
    Arc,
    DiagramError,
    FormalSum,
    Loop,
    TransversalityError,
    canonical,
    formal_sum_from_json,
    formal_sum_to_json,
    monomial,
    parse_diagram,
    reverse_word,
)
from loopstar.goldman import bracket_gln, bracket_loops, bracket_poly, bracket_sl2
from loopstar.holonomy import (
    HolonomyError,
    eval_complex_sum,
    eval_formal,
    eval_monomial,
    eval_wilson,
    random_assignment,
)
from loopstar.star import (
    Stacked,
    StarError,
    assoc_check,
    expect_diagram,
    expect_loops,
    expect_values,
    poisson_limit_check,
    star,
    star_complex,
    star_loops,
    unoriented_kauffman_resolution,
    _stackings,
)
from loopstar.checks import r2_pair_diagram, random_diagram, random_factors

ONE = "point a +\ncurve C level 1: a\ncurve D level 0: a\n"
K = 8
# C *_a D and C *_a D-reversed in ONE
JOINED = ((Arc("C", 0), 1), (Arc("D", 0), 1))
JOINED_REV = ((Arc("C", 0), 1), (Arc("D", 0), -1))


def as_factor(d, group, *names, order=K):
    conv = group.convention
    return FormalSum.of(monomial(canonical(d.loop_of(c).word, conv) for c in names), order)


# -- expect ----------------------------------------------------------------------


def test_expect_no_active_crossings_is_identity():
    d = parse_diagram("point s -\ncurve C level 1: s s\ncurve D level 0:\n")
    su2 = GroupSpec("su2")
    loops = [(d.loop_of("C"), 1), (d.loop_of("D"), 1)]  # same level: all virtual
    out = expect_loops(d, loops, su2, 4)
    assert len(out) == 1
    ((m, c),) = list(out)
    assert c == SeriesCoeff.one(4)
    assert m == monomial(canonical(l.word, "unoriented") for l, _ in loops)


def test_expect_single_over_crossing_matches_table():
    d = parse_diagram(ONE)
    su2 = GroupSpec("su2")
    out = expect_loops(d, [(d.loop_of("C"), 1), (d.loop_of("D"), -1)], su2, K)
    cc = crossing_coeffs(su2, "over", K)
    prod = monomial([d.loop_of("C"), d.loop_of("D")])
    joined = monomial([canonical(JOINED, "unoriented")])
    assert out.terms[prod] == cc.virtual
    assert out.terms[joined] == cc.smooth
    assert len(out) == 2


def test_expect_crossing_type_follows_level_order():
    d = parse_diagram(ONE)
    su2 = GroupSpec("su2")
    # D on top now: the positive crossing is seen with flipped orientation
    out = expect_loops(d, [(d.loop_of("C"), -1), (d.loop_of("D"), 1)], su2, K)
    cc = crossing_coeffs(su2, "under", K)
    prod = monomial([d.loop_of("C"), d.loop_of("D")])
    assert out.terms[prod] == cc.virtual


def test_expect_two_crossings_has_four_states():
    d = parse_diagram("point p +\npoint q +\ncurve C level 1: p q\ncurve D level 0: q p\n")
    gl2 = GroupSpec("gln", 2)
    loops = [(d.loop_of("C"), 1), (d.loop_of("D"), -1)]
    st = Stacked(d, loops)
    assert len(st.active) == 2
    assert all(a.ctype == "over" for a in st.active)
    out = expect_loops(d, loops, gl2, 4)
    # 4 states, all distinct monomials here
    assert len(out) == 4


def test_expect_resolution_order_independence():
    rng = np.random.default_rng(51)
    worst = 0.0
    for _ in range(6):
        grp = GroupSpec("su2")
        d, f, g = random_factors(rng, 5, allow_duplicates=False)
        loops = [(l, 1) for l in next(iter(f.terms))] + [(l, -1) for l in next(iter(g.terms))]
        k = len(Stacked(d, loops).active)
        orders = [list(range(k)), list(reversed(range(k)))]
        if k > 1:
            perm = list(rng.permutation(k))
            orders.append([int(i) for i in perm])
        sums = [expect_loops(d, loops, grp, 5, resolution_order=o) for o in orders]
        A = random_assignment(d, grp, rng)
        for beta in (0.01, 0.1, 0.5):
            vals = [eval_formal(s, A, beta) for s in sums]
            worst = max(worst, max(abs(v - vals[0]) for v in vals))
    assert worst < 1e-9


def test_expect_diagram_uses_declared_levels():
    d = parse_diagram(ONE)
    su2 = GroupSpec("su2")
    via_levels = expect_diagram(d, su2, 4)
    direct = expect_loops(d, [(d.loop_of("C"), 1), (d.loop_of("D"), 0)], su2, 4)
    assert via_levels == direct


def test_expect_rejects_bad_resolution_order():
    d = parse_diagram(ONE)
    loops = [(d.loop_of("C"), 1), (d.loop_of("D"), -1)]
    with pytest.raises(StarError):
        expect_loops(d, loops, GroupSpec("su2"), 4, resolution_order=[0, 0])


@pytest.mark.parametrize("order", [[0.0, 1.0], [1.0, 0], ["0", 1], [0, None], 2], ids=repr)
def test_a_resolution_order_entry_that_is_not_an_int_is_rejected(order):
    """0.0 equals 0 and so sorts like a permutation, but indexes nothing."""
    d = parse_diagram(TWO)
    loops = [(d.loop_of("C"), 1), (d.loop_of("D"), -1)]
    with pytest.raises(StarError, match="^resolution_order must permute the active crossings$"):
        expect_loops(d, loops, GroupSpec("su2"), 4, resolution_order=order)


def test_a_bool_resolution_order_keeps_its_answer():
    d = parse_diagram(TWO)
    loops = [(d.loop_of("C"), 1), (d.loop_of("D"), -1)]
    su2 = GroupSpec("su2")
    assert (list(expect_loops(d, loops, su2, 4, resolution_order=[True, False]).terms.items())
            == list(expect_loops(d, loops, su2, 4, resolution_order=[1, 0]).terms.items()))


@pytest.mark.parametrize("levels", [
    (float("nan"), 0), (0, float("nan")), (float("nan"), float("nan")), ("1", "0"), (None, 0), (1, 1j),
], ids=repr)
def test_a_stacking_level_that_does_not_order_is_a_domain_error(levels):
    """Every state sum applies the level rule of Diagram.validate() to the
    levels it is given: NaN compares false with every level, so it would
    make the other strand the lower one, or two NaN strands a crossing;
    strings would compare as strings."""
    d = parse_diagram(ONE)
    leveled = list(zip((d.loop_of("C"), d.loop_of("D")), levels))
    bad = next(level for level in levels if not isinstance(level, int) or isinstance(level, bool))
    message = re.escape(f"level must be an int or a float other than NaN, got {bad!r}")
    su2 = GroupSpec("su2")
    for call in (lambda: expect_loops(d, leveled, su2, 2), lambda: expect_values(d, leveled, su2, 0.1),
                 lambda: unoriented_kauffman_resolution(d, leveled, su2, 2)):
        with pytest.raises(StarError, match=f"^{message}$"):
            call()


@pytest.mark.parametrize("levels, same_as", [((True, 0), (1, 0)), ((2.5, -0.5), (1, -1)), ((float("-inf"), 0), (-1, 0))],
                         ids=repr)
def test_a_stacking_level_that_orders_keeps_its_answer(levels, same_as):
    d = parse_diagram(ONE)
    su2 = GroupSpec("su2")
    loops = (d.loop_of("C"), d.loop_of("D"))
    assert expect_loops(d, list(zip(loops, levels)), su2, 2) == expect_loops(d, list(zip(loops, same_as)), su2, 2)
    assert (unoriented_kauffman_resolution(d, list(zip(loops, levels)), su2, 2)
            == unoriented_kauffman_resolution(d, list(zip(loops, same_as)), su2, 2))
    assert expect_values(d, list(zip(loops, levels)), su2, 0.1) == expect_values(d, list(zip(loops, same_as)), su2, 0.1)


# -- star ------------------------------------------------------------------------


def test_star_single_crossing_reproduces_closed_form():
    d = parse_diagram(ONE)
    su2 = GroupSpec("su2")
    out = star_loops(d, d.loop_of("C"), d.loop_of("D"), su2, K)
    cc = crossing_coeffs(su2, "over", K)
    prod = monomial([d.loop_of("C"), d.loop_of("D")])
    joined = monomial([canonical(JOINED, "unoriented")])
    assert out.terms == {prod: cc.virtual, joined: cc.smooth}


def test_star_unit():
    d = parse_diagram(ONE)
    su2 = GroupSpec("su2")
    f = as_factor(d, su2, "C")
    one = FormalSum.of((), K)
    assert star(d, f, one, su2) == f
    assert star(d, one, f, su2) == f


def test_star_h0_slot_is_pointwise_product():
    rng = np.random.default_rng(61)
    for _ in range(6):
        grp = GroupSpec("gln", 2)
        d, f, g = random_factors(rng, 4)
        s = star(d, f, g, grp)
        fm, fc = next(iter(f.terms.items()))
        gm, gc = next(iter(g.terms.items()))
        want = {monomial(fm + gm): (fc * gc)[0]}
        assert s.slot(0) == {m: c for m, c in want.items() if c != 0}


def test_star_rejects_shared_arcs():
    d = parse_diagram(ONE)
    su2 = GroupSpec("su2")
    f = as_factor(d, su2, "C")
    with pytest.raises(TransversalityError):
        star(d, f, f, su2)


def test_star_complex_rejects_shared_arcs():
    d = parse_diagram(ONE)
    su2 = GroupSpec("su2")
    (m,) = as_factor(d, su2, "C").terms
    with pytest.raises(TransversalityError):
        star_complex(d, {m: 1.0 + 0j}, {m: 1.0 + 0j}, su2, 0.1)


def test_assoc_check_rejects_shared_arcs_of_the_outer_factors():
    # v is disjoint from u and w; only the non-adjacent pair (u, w) overlaps
    d = parse_diagram(ONE)
    su2 = GroupSpec("su2")
    u, v = as_factor(d, su2, "C"), as_factor(d, su2, "D")
    with pytest.raises(TransversalityError):
        assoc_check(d, u, v, u, su2)
    # the three-level stacking rejects it on its own, before any nested product
    with pytest.raises(TransversalityError):
        list(_stackings((u.terms, v.terms, u.terms), (2, 0, -1)))


def test_star_bilinearity():
    d = parse_diagram(ONE)
    gl2 = GroupSpec("gln", 2)
    f = as_factor(d, gl2, "C")
    g = as_factor(d, gl2, "D")
    lhs = star(d, f.scale(Fraction(2, 3)), g, gl2)
    rhs = star(d, f, g, gl2).scale(Fraction(2, 3))
    assert lhs == rhs


# -- order argument and diagram validation ----------------------------------------

TWO = "point p +\npoint q -\ncurve C level 1: p q\ncurve D level 0: q p\n"
# curve C passes through b, which is never declared
UNDECLARED = "point a +\ncurve C level 1: a b\ncurve D level 0: a\n"


def series_factor(d, group, name, order):
    """A one-loop factor whose coefficient has every slot non-zero."""
    (m,) = as_factor(d, group, name, order=order).terms
    return FormalSum({m: SeriesCoeff(range(1, order + 2))}, order=order)


@pytest.mark.parametrize("group", [GroupSpec("su2"), GroupSpec("gln", 3)])
def test_order_argument_truncates_the_factors(group):
    d = parse_diagram(TWO)
    f, g = series_factor(d, group, "C", K), series_factor(d, group, "D", K)
    f4, g4 = f.truncated(4), g.truncated(4)
    assert star(d, f, g, group, order=4) == star(d, f4, g4, group) == star(d, f, g, group).truncated(4)
    assert bracket_poly(d, f, g, group, order=4) == bracket_poly(d, f4, g4, group)


def test_assoc_check_order_argument_truncates_the_factors():
    d = parse_diagram((Path(__file__).resolve().parent.parent / "diagrams" / "assoc_triple.ls").read_text())
    gl2 = GroupSpec("gln", 2)
    u, v, w = (series_factor(d, gl2, c, K) for c in ("U", "V", "W"))
    res = assoc_check(d, u, v, w, gl2, order=4)
    assert res.level_residual.order == 4
    assert res.level_residual.is_zero() and res.nested_residual.is_zero()


def test_order_above_the_factor_order_is_an_error():
    d = parse_diagram(TWO)
    su2 = GroupSpec("su2")
    with pytest.raises(CoeffError):
        star(d, as_factor(d, su2, "C", order=4), as_factor(d, su2, "D", order=4), su2, order=8)


INVALID = {
    UNDECLARED: "undeclared point b",
    "point a +\ncurve C level 1: a\ncurve D level 0: a\ncurve E level 0: a\n": "triple point",
    "point a +\npoint b -\ncurve C level 1: a b\ncurve D level 0: a\n": "only one pass",
}


def test_invalid_diagram_is_rejected_at_every_entry_point():
    su2, gl2 = GroupSpec("su2"), GroupSpec("gln", 2)
    for text, message in INVALID.items():
        d = parse_diagram(text)
        x, y = d.loop_of("C"), d.loop_of("D")
        f, g = as_factor(d, su2, "C"), as_factor(d, su2, "D")
        fc, gc = ({m: complex(c.eval_h(0.2)) for m, c in s.terms.items()} for s in (f, g))
        calls = [
            lambda: star_loops(d, x, y, su2, K),
            lambda: star(d, f, g, su2),
            lambda: expect_loops(d, [(x, 1), (y, -1)], su2, K),
            lambda: expect_values(d, [(x, 1), (y, -1)], su2, 0.1),
            lambda: star_complex(d, fc, gc, su2, 0.1),
            lambda: star_complex(d, {}, gc, su2, 0.1),
            lambda: bracket_poly(d, f, g, su2),
            lambda: bracket_loops(d, x, y, su2),
            lambda: bracket_loops(d, x, y, gl2),
            lambda: bracket_sl2(d, x, y, "reversal"),
            lambda: bracket_gln(d, x, y),
            lambda: unoriented_kauffman_resolution(d, [(x, 1), (y, -1)], su2, K),
        ]
        for call in calls:
            with pytest.raises(DiagramError, match=message):
                call()


@pytest.mark.parametrize("arc", [Arc("C", 5), Arc("Z", 0), Arc("C", 0.5), Arc("C", "0")],
                         ids=["index-past-the-curve", "unknown-curve", "fractional-index", "string-index"])
def test_an_arc_the_diagram_lacks_is_rejected_at_every_entry_point(arc):
    """C has one arc and there is no curve Z: a loop through C.5, Z.0,
    C.0.5 or C."0" is not a loop of the diagram, and no entry point may read
    it as C.0 or fail with a KeyError or a TypeError.  (A star_complex factor of no terms reaches no
    loop, so that call is left out.)"""
    su2, gl2 = GroupSpec("su2"), GroupSpec("gln", 2)
    d = parse_diagram(ONE)
    x, y = canonical([(arc, 1)], "unoriented"), d.loop_of("D")
    f, g = FormalSum.of((x,), K), FormalSum.of((y,), K)
    fc, gc = {(x,): 1 + 0j}, {(y,): 1 + 0j}
    calls = [
        lambda: star_loops(d, x, y, su2, K),
        lambda: star(d, f, g, su2),
        lambda: expect_loops(d, [(x, 1), (y, -1)], su2, K),
        lambda: expect_values(d, [(x, 1), (y, -1)], su2, 0.1),
        lambda: star_complex(d, fc, gc, su2, 0.1),
        lambda: bracket_poly(d, f, g, su2),
        lambda: bracket_loops(d, x, y, su2),
        lambda: bracket_loops(d, x, y, gl2),
        lambda: bracket_sl2(d, x, y, "reversal"),
        lambda: bracket_gln(d, x, y),
        lambda: unoriented_kauffman_resolution(d, [(x, 1), (y, -1)], su2, K),
    ]
    for call in calls:
        with pytest.raises(DiagramError, match=re.escape(f"word entry {(arc, 1)!r} is not an (arc, +1 or -1) of the diagram")):
            call()


def refused(entry) -> str:
    """The one DiagramError message for a word entry that is not an arc of
    the diagram walked +1 or -1, the word being the first of the loops."""
    return "^" + re.escape(f"loop 0: word entry {entry!r} is not an (arc, +1 or -1) of the diagram") + "$"


def test_a_direction_other_than_plus_or_minus_one_is_rejected():
    """D reversed, written with the flag 0 in place of -1: a crossing sign
    multiplied by 0 read the crossing as the other type, so star_loops
    flipped two terms and bracket_loops returned 0."""
    d = parse_diagram("point a +\npoint b -\ncurve C level 1: a b\ncurve D level 0: b a\n")
    gl2 = GroupSpec("gln", 2)
    x, y = d.loop_of("C"), Loop(tuple((a, 0) for a, _ in reversed(d.loop_of("D").word)))
    for call in (lambda: star_loops(d, x, y, gl2, 2), lambda: bracket_loops(d, x, y, gl2),
                 lambda: expect_loops(d, [(x, 1), (y, -1)], gl2, 2)):
        with pytest.raises(DiagramError, match=r"^loop 1: word entry \(Arc\(curve='D', index=\d\), 0\) is not an \(arc, "):
            call()


def test_crossing_sign_takes_only_plus_or_minus_one():
    """A direction other than +1 or -1 would scale the sign; True and 1.0
    equal 1 and read as it."""
    d = parse_diagram("point a +\npoint b -\ncurve C level 1: a b\ncurve D level 0: b a\n")
    for d0, d1 in ((2, 1), (1, 0), (-1, 0.5), ("1", 1), (1, None)):
        with pytest.raises(DiagramError, match=f"^point a: directions {re.escape(repr(d0))}, {re.escape(repr(d1))} "):
            d.crossing_sign("a", d0, d1, True)
    for d0, d1, want in ((True, 1, 1), (1.0, -1, -1), (-1, True, -1), (-1.0, -1.0, 1)):
        assert d.crossing_sign("a", d0, d1, True) == want
        assert d.crossing_sign("b", d0, d1, False) == want


def test_a_bool_direction_or_index_keeps_its_answer():
    """An index or a flag that equals an int (a bool, or the float 1.0)
    reads as that int: in meetings, and in a star product, a bracket and
    a state sum of a loop that runs through it."""
    d = parse_diagram("point a +\npoint b -\ncurve C level 1: a b\ncurve D level 0: b a\n")
    gl2, su2 = GroupSpec("gln", 2), GroupSpec("su2")
    for arc, flag in ((Arc("C", True), True), (Arc("C", False), 1), (Arc("D", 1), True),
                      (Arc("C", 1.0), 1), (Arc("C", 1.0), True)):
        plain = (Arc(arc.curve, int(arc.index)), 1)
        word = d.loop_of(arc.curve).word
        x = Loop(tuple((arc, flag) if e == plain else e for e in word))
        y = d.loop_of("D" if arc.curve == "C" else "C")
        assert d.meetings([x, y]) == d.meetings([Loop(word), y])
        for group in (gl2, su2):
            assert star_loops(d, x, y, group, 2) == star_loops(d, Loop(word), y, group, 2)
            assert bracket_loops(d, x, y, group) == bracket_loops(d, Loop(word), y, group)
            assert expect_loops(d, [(x, 1), (y, -1)], group, 2) == expect_loops(d, [(Loop(word), 1), (y, -1)], group, 2)
    # C walked backwards: a state sum reads the start cell's direction to
    # flip its cycles under su2, and -1.0 reads as -1 there too
    y = d.loop_of("D")
    back = reverse_word(d.loop_of("C").word)
    x, plain = Loop(tuple((a, -1.0) for a, _ in back)), Loop(back)
    for group in (gl2, su2):
        for call in (lambda w: star_loops(d, w, y, group, 2), lambda w: bracket_loops(d, w, y, group),
                     lambda w: expect_loops(d, [(w, 1), (y, -1)], group, 2)):
            assert list(call(x).terms.items()) == list(call(plain).terms.items())


def test_an_entry_that_cannot_be_hashed_keeps_its_answer():
    """An entry the table cannot look up is refused like any other entry
    it lacks: a list index, a list flag, and also a list that holds a
    valid arc and flag, which no state sum could use.  A bracket refused
    the list index with a bare TypeError from its shared-arc check."""
    d = parse_diagram("point a +\npoint b -\ncurve C level 1: a b\ncurve D level 0: b a\n")
    su2, y = GroupSpec("su2"), d.loop_of("D")
    for entry in ((Arc("C", [0]), 1), (Arc("C", 0), [1]), [Arc("C", 0), 1]):
        x = Loop((entry, (Arc("C", 1), 1)))
        for call in (lambda: d.meetings([x, y]), lambda: expect_loops(d, [(x, 1), (y, -1)], su2, 2),
                     lambda: d.crossings_between(x, y), lambda: bracket_loops(d, x, y, su2)):
            with pytest.raises(DiagramError, match=refused(entry)):
                call()


REFUSED = "refused"

PASSES = "point a +\npoint b -\ncurve C level 1: a b\ncurve D level 0: b a\ncurve E level 2:\n"


def walk_from(d, entry) -> Loop:
    """The closed walk that starts with entry and follows its curve in the
    entry's direction."""
    (curve, index), flag = entry
    k = len(d.arcs_of(curve))
    return Loop((entry, *((Arc(curve, (int(index) + j * flag) % k), flag) for j in range(1, k))))


@pytest.mark.parametrize("entry, answer", [
    ((Arc("Z", 0), 0), REFUSED),
    ((Arc("C", 1.0), 2), REFUSED),
    ((Arc("C", "0"), 1), REFUSED),
    ((Arc("C", 0.5), 1), REFUSED),
    ((Arc("C", 0), "1"), REFUSED),
    ((Arc("C", -1), 1), REFUSED),
    ((Arc("C", 2), -1), REFUSED),
    ((Arc("C", 1), -1), ("b", 0)),
    ([Arc("D", 0.0), -1.0], REFUSED),
    ((Arc("E", 0), 1), None),
    ((Arc("E", 0.0), True), None),
    ((Arc("E", 0), -1), None),
    ((Arc("E", 1), 1), REFUSED),
    ((Arc("E", 0), 2), REFUSED),
], ids=["foreign-arc-and-direction", "float-index-bad-direction", "string-index", "fractional-index",
        "string-flag", "negative-index", "index-past-the-curve", "reversed", "list-of-floats",
        "pass-less", "pass-less-float-and-bool", "pass-less-reversed", "pass-less-index-1",
        "pass-less-bad-direction"])
def test_entry_end_pins_its_answer(entry, answer):
    """Where each entry ends, read through meetings, on C and D crossing
    twice plus a pass-less curve E: the pass (point, slot) at which the
    first entry of its walk meets the other curves, None when it meets
    none, or the one DiagramError for an entry the diagram lacks.  A list
    entry, even of a valid arc and flag, is refused."""
    d = parse_diagram(PASSES)
    if answer == REFUSED:
        with pytest.raises(DiagramError, match=refused(entry)):
            d.meetings([Loop((entry,))])
        return
    others = [d.loop_of(c) for c in d.curves if c != entry[0].curve]
    met = d.meetings([walk_from(d, entry), *others])
    assert {(pid, slot) for pid, *strands in met for slot, (i, cell, _) in enumerate(strands)
            if (i, cell) == (0, 0)} == ({answer} if answer else set())


def test_a_word_that_is_no_closed_walk_is_refused_everywhere():
    """C.0 C.1 E.0 runs C, then the free arc of E: every entry is an arc of
    the diagram, but C.0 does not leave where E.0 arrives, so it is no
    Wilson loop and every state sum and bracket refuses it."""
    d = parse_diagram(PASSES)
    su2, gl2 = GroupSpec("su2"), GroupSpec("gln", 2)
    x, y = Loop(((Arc("C", 0), 1), (Arc("C", 1), 1), (Arc("E", 0), 1))), d.loop_of("D")
    f, g = FormalSum.of((x,), K), FormalSum.of((y,), K)
    fc, gc = {(x,): 1 + 0j}, {(y,): 1 + 0j}
    calls = [
        lambda: star(d, f, g, su2),
        lambda: star_loops(d, x, y, su2, K),
        lambda: star_complex(d, fc, gc, su2, 0.1),
        lambda: expect_loops(d, [(x, 1), (y, -1)], gl2, K),
        lambda: expect_values(d, [(x, 1), (y, -1)], su2, 0.1),
        lambda: unoriented_kauffman_resolution(d, [(x, 1), (y, -1)], su2, K),
        lambda: bracket_loops(d, x, y, gl2),
        lambda: bracket_loops(d, x, y, su2, "alt"),
        lambda: bracket_loops(d, x, y, su2, "reversal"),
        lambda: bracket_poly(d, f, g, su2),
        lambda: bracket_poly(d, f, g, gl2),
        lambda: d.crossings_between(x, y),
    ]
    for call in calls:
        with pytest.raises(DiagramError, match="^loop 0 is not a closed walk: "):
            call()


def test_an_empty_word_is_refused():
    """canonical() refuses an empty word; a Loop built from one by hand
    was dropped from a state sum, so W_() W_D read as W_D."""
    d = parse_diagram(PASSES)
    su2, x, y = GroupSpec("su2"), Loop(()), d.loop_of("D")
    calls = [
        lambda: d.meetings([y, x]),
        lambda: d.crossings_between(y, x),
        lambda: expect_loops(d, [(y, 1), (x, -1)], su2, K),
        lambda: expect_values(d, [(y, 1), (x, -1)], su2, 0.1),
        lambda: unoriented_kauffman_resolution(d, [(y, 1), (x, -1)], su2, K),
        lambda: star(d, FormalSum.of((y,), K), FormalSum.of((x,), K), su2),
        lambda: bracket_loops(d, y, x, su2),
    ]
    for call in calls:
        with pytest.raises(DiagramError, match=r"^loop 1 is not a closed walk: Loop\(\)$"):
            call()


@pytest.mark.parametrize("kind", GROUP_KINDS)
def test_every_loop_the_library_makes_is_a_closed_walk(kind):
    """The loops of star, bracket_poly in both forms, the two-smoothing
    resolution, the star_complex keys and a JSON round trip, on seeded
    random factors: meetings takes every one."""
    group = GroupSpec(kind, 3 if kind in ("gln", "un") else 2)
    rng = np.random.default_rng(11)
    count = 0
    for _ in range(40):
        d, f, g = random_factors(rng, 3)
        product = star(d, f, g, group)
        sums = [product, formal_sum_from_json(formal_sum_to_json(product), group.convention)]
        sums += [bracket_poly(d, f, g, group, form) for form in ("alt", "reversal")]
        [fm], [gm] = f.terms, g.terms
        if group.orientation_free and len(set(fm)) == len(fm):  # it takes no loop twice
            sums.append(unoriented_kauffman_resolution(d, [(l, 1) for l in fm] + [(l, -1) for l in gm], group, 3))
        monomials = [m for s in sums for m in s.terms]
        monomials += star_complex(d, {fm: 1 + 0j}, {gm: 1 + 0j}, group, 0.1)
        for loop in {l for m in monomials for l in m}:
            d.meetings([loop])
            count += 1
    assert count > 400


# -- poisson limit ----------------------------------------------------------------


def test_poisson_limit_single_crossing_gln():
    d = parse_diagram(ONE)
    gl3 = GroupSpec("gln", 3)
    res = poisson_limit_check(d, as_factor(d, gl3, "C"), as_factor(d, gl3, "D"), gl3)
    assert res.is_zero()


def test_poisson_limit_single_crossing_su2_alt_form():
    d = parse_diagram(ONE)
    su2 = GroupSpec("su2")
    s = star(d, as_factor(d, su2, "C"), as_factor(d, su2, "D"), su2)
    b = bracket_poly(d, as_factor(d, su2, "C"), as_factor(d, su2, "D"), su2, form="alt")
    assert s.slot(1) == b.slot(0)


def test_poisson_limit_no_crossings():
    d = parse_diagram("curve C level 1:\ncurve D level 0:\n")
    su2 = GroupSpec("su2")
    res = poisson_limit_check(d, as_factor(d, su2, "C"), as_factor(d, su2, "D"), su2)
    assert res.is_zero()


@pytest.mark.parametrize("family", ["sl2", "gln"])
def test_poisson_limit_random_corpus(family):
    from loopstar.checks import FAMILIES

    rng = np.random.default_rng(71 if family == "sl2" else 72)
    groups = FAMILIES[family]
    for k in range(8):
        grp = groups[k % len(groups)]
        d, f, g = random_factors(rng, 4)
        assert poisson_limit_check(d, f, g, grp).is_zero()


# -- associativity ----------------------------------------------------------------


def test_assoc_triple_symbolic_and_numeric():
    path = pathlib.Path(__file__).resolve().parent.parent / "diagrams" / "assoc_triple.ls"
    d = parse_diagram(path.read_text())
    for grp in (GroupSpec("su2"), GroupSpec("gln", 2)):
        u, v, w = (as_factor(d, grp, c, order=5) for c in ("U", "V", "W"))
        rng = np.random.default_rng(81)
        A = random_assignment(d, grp, rng)
        res = assoc_check(d, u, v, w, grp, assign=A)
        assert res.level_residual.is_zero()
        if not grp.orientation_free:
            # slotwise nested equality is guaranteed only for the oriented
            # family; rank-2 nestings may differ by trace-identity rewriting
            assert res.nested_residual.is_zero()
        assert max(res.numeric.values()) < 1e-9


def test_assoc_with_unit_reduces_to_star():
    d = parse_diagram(ONE)
    su2 = GroupSpec("su2")
    u, v = as_factor(d, su2, "C"), as_factor(d, su2, "D")
    one = FormalSum.of((), K)
    s = star(d, u, v, su2)
    assert star(d, star(d, u, v, su2), one, su2) == s
    assert star(d, u, star(d, v, one, su2), su2) == s
    res = assoc_check(d, u, v, one, su2)
    assert res.level_residual.is_zero() and res.nested_residual.is_zero()


def test_assoc_check_refuses_a_coefficient_no_float_holds():
    """The numeric path evaluates the factors' coefficients as eval_formal
    does, so a slot of 10**400 is its domain error there too; the exact
    residuals alone do not need a float."""
    d = parse_diagram((pathlib.Path(__file__).resolve().parent.parent / "diagrams" / "assoc_triple.ls").read_text())
    grp = GroupSpec("gln", 2)
    u, v, w = (as_factor(d, grp, c, order=2) for c in ("U", "V", "W"))
    u = u.scale(SeriesCoeff([10**400], order=2))
    res = assoc_check(d, u, v, w, grp)
    assert res.level_residual.is_zero() and res.nested_residual.is_zero()
    A = random_assignment(d, grp, np.random.default_rng(81))
    with pytest.raises(HolonomyError, match=r"^the value at beta=0\.01 overflows a float$"):
        assoc_check(d, u, v, w, grp, assign=A)


def test_assoc_random_triples():
    rng = np.random.default_rng(83)
    for k in range(4):
        grp = (GroupSpec("su2"), GroupSpec("gln", 2))[k % 2]
        d = random_diagram(rng, n_curves=3, max_pair_crossings=2, self_crossing_prob=0.2)
        u, v, w = (as_factor(d, grp, c, order=4) for c in d.curves)
        A = random_assignment(d, grp, rng)
        res = assoc_check(d, u, v, w, grp, assign=A)
        assert res.level_residual.is_zero()
        if not grp.orientation_free:
            assert res.nested_residual.is_zero()
        assert max(res.numeric.values()) < 1e-9


# -- framing at the star level ------------------------------------------------------


@pytest.mark.parametrize("text,signs", [
    (ONE, (1,)),
    ("point p +\npoint q +\ncurve C level 1: p q\ncurve D level 0: q p\n", (1, 1)),
    ("point p +\npoint q -\ncurve C level 1: p q\ncurve D level 0: q p\n", (1, -1)),
])
def test_star_framing_gl2_vs_su2(text, signs):
    d = parse_diagram(text)
    su2, gl2 = GroupSpec("su2"), GroupSpec("gln", 2)
    s_su2 = star(d, as_factor(d, su2, "C"), as_factor(d, su2, "D"), su2)
    s_gl2 = star(d, as_factor(d, gl2, "C"), as_factor(d, gl2, "D"), gl2)
    # per crossing the framing contributes e^{±h/2}; over-crossings count
    # +1 (sign +), under-crossings -1
    framing = exp_series(Fraction(sum(signs), 2), K)
    assert set(s_gl2.terms) == set(s_su2.terms)
    for m, c in s_su2.terms.items():
        assert s_gl2.terms[m] == framing * c


def test_star_with_reversed_factor():
    # reversing a strand flips the effective crossing sign, hence the type;
    # for the rank-2 groups the star value is orientation independent
    d = parse_diagram(ONE)
    C, D = d.loop_of("C"), d.loop_of("D")
    rC = canonical(reverse_word(C.word), "oriented")
    st = Stacked(d, [(rC, 1), (D, -1)])
    assert [a.ctype for a in st.active] == ["under"]
    st_fwd = Stacked(d, [(C, 1), (D, -1)])
    assert [a.ctype for a in st_fwd.active] == ["over"]

    su2 = GroupSpec("su2")
    rng = np.random.default_rng(17)
    A = random_assignment(d, su2, rng)
    for beta in (0.1, 0.4):
        fwd = eval_complex_sum(
            star_complex(d, {monomial([C]): 1.0 + 0j}, {monomial([D]): 1.0 + 0j}, su2, beta), A
        )
        rev = eval_complex_sum(
            star_complex(d, {monomial([rC]): 1.0 + 0j}, {monomial([D]): 1.0 + 0j}, su2, beta), A
        )
        assert abs(fwd - rev) < 1e-12


# -- duplicate loops (Leibniz through the state sum) ---------------------------------


def test_star_with_squared_factor_matches_bracket():
    d = parse_diagram(ONE)
    gl2 = GroupSpec("gln", 2)
    x, y = d.loop_of("C"), d.loop_of("D")
    f = FormalSum.of(monomial([x]), K)
    gsq = FormalSum.of(monomial([y, y]), K)
    s = star(d, f, gsq, gl2)
    b = bracket_poly(d, f, gsq, gl2)
    assert s.slot(1) == b.slot(0)
    # two active instances at the single point
    st = Stacked(d, [(x, 1), (y, -1), (y, -1)])
    assert len(st.active) == 2


# -- unoriented resolution ------------------------------------------------------------


def test_unoriented_single_over_crossing():
    d = parse_diagram(ONE)
    su2 = GroupSpec("su2")
    x, y = d.loop_of("C"), d.loop_of("D")
    out = unoriented_kauffman_resolution(d, [(x, 1), (y, -1)], su2, K)
    a, b = kauffman_coeffs(K)
    compat = monomial([canonical(JOINED, "unoriented")])
    rev = monomial([canonical(JOINED_REV, "unoriented")])
    assert out.terms == {compat: a, rev: b}


def test_unoriented_rejects_one_loop_stacked_twice():
    d = parse_diagram(ONE)
    x, y = d.loop_of("C"), d.loop_of("D")
    with pytest.raises(StarError, match="^duplicate loops are not supported in the unoriented resolution$"):
        unoriented_kauffman_resolution(d, [(x, 2), (y, 0), (x, 1)], GroupSpec("su2"), K)


def test_unoriented_rejects_oriented_groups():
    d = parse_diagram(ONE)
    with pytest.raises(StarError):
        unoriented_kauffman_resolution(
            d, [(d.loop_of("C"), 1), (d.loop_of("D"), -1)], GroupSpec("gln", 2), 4
        )


@pytest.mark.parametrize("text", [
    ONE,
    "point p +\npoint q -\ncurve C level 1: p q\ncurve D level 0: q p\n",
    "point p +\npoint q +\npoint r -\ncurve C level 1: p q r\ncurve D level 0: r q p\n",
    "point p +\npoint q -\npoint s +\ncurve C level 1: p q s s\ncurve D level 0: q p\n",
])
@pytest.mark.parametrize("kind", ["su2", "sl2r"])
def test_unoriented_matches_oriented_after_normalization(text, kind):
    d = parse_diagram(text)
    grp = GroupSpec(kind)
    loops = [(d.loop_of(c), d.curves[c].level) for c in d.curves]
    fh = unoriented_kauffman_resolution(d, loops, grp, 10)
    oriented = expect_loops(d, loops, grp, 10)
    rng = np.random.default_rng(91)
    A = random_assignment(d, grp, rng)
    for beta in (0.0, 0.08):
        plain = eval_formal(oriented, A, beta)
        normalized = sum(
            c.eval_h(2 * beta) * np.prod([-eval_wilson(l, A) for l in m])
            for m, c in fh.terms.items()
        )
        # two input loops: the per-loop sign normalization squares away
        assert abs(normalized - plain) < 1e-10


# -- R2 regression ---------------------------------------------------------------------


def test_r2_pair_expectation_differs_from_bare_product():
    d = r2_pair_diagram()
    su2 = GroupSpec("su2")
    rng = np.random.default_rng(101)
    A = random_assignment(d, su2, rng)
    loops = [(d.loop_of(c), d.curves[c].level) for c in d.curves]
    resolved = expect_values(d, loops, su2, 0.5)
    value = eval_complex_sum(resolved, A)
    bare = eval_monomial(monomial([d.loop_of("C"), d.loop_of("D")]), A)
    assert abs(value - bare) > 1e-3
    # but at zero coupling the resolution is the identity
    at_zero = eval_complex_sum(expect_values(d, loops, su2, 0.0), A)
    assert abs(at_zero - bare) < 1e-12


# -- numeric star path ------------------------------------------------------------------


def test_star_complex_matches_series_at_small_coupling():
    d = parse_diagram(ONE)
    su2 = GroupSpec("su2")
    f = {monomial([d.loop_of("C")]): 1.0 + 0j}
    g = {monomial([d.loop_of("D")]): 1.0 + 0j}
    rng = np.random.default_rng(7)
    A = random_assignment(d, su2, rng)
    beta = 0.02
    numeric = eval_complex_sum(star_complex(d, f, g, su2, beta), A)
    series = eval_formal(star(d, as_factor(d, su2, "C"), as_factor(d, su2, "D"), su2), A, beta)
    assert abs(numeric - series) < 1e-12


@pytest.mark.parametrize("beta", [float("inf"), float("-inf"), float("nan")], ids=repr)
def test_closed_form_paths_refuse_a_non_finite_coupling(beta):
    """At beta = inf or nan every closed-form value would be nan+nanj;
    expect_values and star_complex raise StarError instead, star_complex
    also when a factor is empty and no state sum runs."""
    d = parse_diagram(ONE)
    su2 = GroupSpec("su2")
    loops = [(d.loop_of(c), d.curves[c].level) for c in d.curves]
    f = {monomial([d.loop_of("C")]): 1.0 + 0j}
    g = {monomial([d.loop_of("D")]): 1.0 + 0j}
    with pytest.raises(StarError, match="beta must be finite"):
        expect_values(d, loops, su2, beta)
    for right in (g, {}):
        with pytest.raises(StarError, match="beta must be finite"):
            star_complex(d, f, right, su2, beta)


@pytest.mark.parametrize("text, beta, coeff", [
    (ONE, 1e3, 1.0),  # math.cosh raises OverflowError
    ("point p +\npoint q +\npoint r -\ncurve C level 1: p q r\ncurve D level 0: r q p\n", 300.0, 1.0),
    (ONE, 0.01, 1e200),  # finite states, the factor coefficients overflow
], ids=["cosh", "state-product", "factor-product"])
def test_closed_form_paths_refuse_a_float_overflow(text, beta, coeff):
    """A float overflow at a finite beta, raised or left as inf or nan in a
    value, is a StarError: never a bare OverflowError or a value that is not
    finite."""
    d = parse_diagram(text)
    su2 = GroupSpec("su2")
    f = {monomial([d.loop_of("C")]): coeff + 0j}
    g = {monomial([d.loop_of("D")]): coeff + 0j}
    with pytest.raises(StarError, match="overflows"):
        star_complex(d, f, g, su2, beta)
    if coeff == 1.0:
        with pytest.raises(StarError, match="overflows"):
            expect_values(d, [(d.loop_of(c), d.curves[c].level) for c in d.curves], su2, beta)


@pytest.mark.parametrize("bad", ["x", None, "1.0", [1.0]], ids=repr)
def test_star_complex_refuses_a_coefficient_that_is_not_a_number(bad):
    """A factor's coefficient that is not a number is a StarError on entry,
    in either factor and whether or not the other factor has terms: never a
    bare TypeError, and never an empty product that hides it."""
    d = parse_diagram(ONE)
    su2 = GroupSpec("su2")
    good = {monomial([d.loop_of("C")]): 1.0 + 0j}
    wrong = {monomial([d.loop_of("D")]): bad}
    for f, g in ((good, wrong), (wrong, good), (wrong, {}), ({}, wrong)):
        with pytest.raises(StarError, match="^a factor's coefficient is not a number$"):
            star_complex(d, f, g, su2, 0.1)


@pytest.mark.parametrize("bad", ["x", None, [1.0]], ids=repr)
def test_the_value_rule_refuses_a_value_that_is_not_a_number(bad):
    """check_coupling raises its caller's error for a value that is not a
    number, as it does for one that overflows a float."""
    with pytest.raises(CoeffError, match=r"^the value at beta=0\.1 is not a number$"):
        check_coupling(0.1, ["x" if bad is None else bad])
    with pytest.raises(StarError, match=r"^the value at beta=0\.1 is not a number$"):
        check_coupling(0.1, [1.0, bad], error=StarError)
    with pytest.raises(StarError, match=r"^the value at beta=0\.1 overflows a float$"):
        check_coupling(0.1, [1.0, 10**400], error=StarError)


def coupling_takers():
    """Each entry point that takes a numeric coupling, with the domain error
    it raises, as a function of beta alone."""
    d = parse_diagram(ONE)
    su2 = GroupSpec("su2")
    loops = [(d.loop_of(c), d.curves[c].level) for c in d.curves]
    f = {monomial([d.loop_of("C")]): 1.0 + 0j}
    g = {monomial([d.loop_of("D")]): 1.0 + 0j}
    fs = star(d, as_factor(d, su2, "C"), as_factor(d, su2, "D"), su2)
    assign = random_assignment(d, su2, np.random.default_rng(0))
    return {
        "closed_crossing_values": (CoeffError, lambda beta: closed_crossing_values(su2, "over", beta)),
        "kauffman_values": (CoeffError, kauffman_values),
        "expect_values": (StarError, lambda beta: expect_values(d, loops, su2, beta)),
        "star_complex": (StarError, lambda beta: star_complex(d, f, g, su2, beta)),
        "eval_formal": (HolonomyError, lambda beta: eval_formal(fs, assign, beta)),
    }


COUPLING_TAKERS = sorted(coupling_takers())


@pytest.mark.parametrize("beta", [
    float("inf"), float("-inf"), float("nan"),  # not finite
    1e200, -1e200, pytest.param(10**400, id="10**400"),  # finite, but too large for a float
    "0.1", None, 0.1j,  # not a real number
], ids=repr)
@pytest.mark.parametrize("taker", COUPLING_TAKERS)
def test_one_coupling_rule_for_every_numeric_entry_point(taker, beta):
    """Every entry point that takes a coupling raises its own domain error,
    and only that, on a beta that is not a finite real or whose values
    overflow a float: never a bare OverflowError or TypeError, and never a
    value that is not finite."""
    error, at = coupling_takers()[taker]
    with pytest.raises(ValueError) as exc:
        at(beta)
    assert type(exc.value) is error
    assert re.fullmatch(r"the coupling beta must be finite, got .*|the value at beta=.* overflows a float",
                        str(exc.value))
