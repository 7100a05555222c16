"""Bracket tests: printed forms, Leibniz extension, antisymmetry, and the
functional-derivative oracle."""

import numpy as np
import pytest
from fractions import Fraction

from loopstar.coeff import GroupSpec
from loopstar.diagram import (
    Arc,
    DiagramError,
    FormalSum,
    TransversalityError,
    canonical,
    monomial,
    parse_diagram,
)
from loopstar.goldman import bracket_gln, bracket_loops, bracket_poly, bracket_sl2
from loopstar.holonomy import (
    eval_formal,
    eval_wilson,
    gram_pairing,
    lie_basis,
    loop_matrix,
    random_assignment,
)
from loopstar.checks import random_diagram

ONE = "point a +\ncurve C level 1: a\ncurve D level 0: a\n"
TWO_MIXED = "point p +\npoint q -\ncurve C level 1: p q\ncurve D level 0: q p\n"


def word(*entries) -> tuple:
    """A word from ("C.0", dir) pairs."""
    return tuple((Arc.from_id(a), dr) for a, dr in entries)


# C *_a D and C *_a D-reversed in ONE
JOINED = word(("C.0", 1), ("D.0", 1))
JOINED_REV = word(("C.0", 1), ("D.0", -1))


def direct_bracket_value(d, x, y, group, assign, basis=None):
    """Independent oracle: the per-point functional-derivative sum
    sum_i eps_i sum_ab (g^-1)_ab tr(hol_{x,i} e_a) tr(hol_{y,i} e_b)."""
    basis = basis or lie_basis(group)
    total = 0j
    for _, eps, gx, gy in d.crossings_between(x, y):
        hx = loop_matrix(x, assign, base_gap=gx)
        hy = loop_matrix(y, assign, base_gap=gy)
        total += eps * gram_pairing(group, hx, hy, basis)
    return total


def test_single_positive_crossing_gln():
    d = parse_diagram(ONE)
    x, y = d.loop_of("C"), d.loop_of("D")
    b = bracket_gln(d, x, y, 4)
    joined = monomial([canonical(JOINED)])
    assert dict(b.slot(0)) == {joined: Fraction(1)}
    assert len(b) == 1


def test_no_crossings_commute():
    d = parse_diagram("curve C level 1:\ncurve D level 0:\n")
    assert bracket_gln(d, d.loop_of("C"), d.loop_of("D"), 4).is_zero()
    assert bracket_sl2(d, d.loop_of("C"), d.loop_of("D"), "alt", 4).is_zero()
    assert bracket_sl2(d, d.loop_of("C"), d.loop_of("D"), "reversal", 4).is_zero()


def test_two_crossings_signed_sum():
    d = parse_diagram(TWO_MIXED)
    x, y = d.loop_of("C"), d.loop_of("D")
    b = bracket_gln(d, x, y, 4)
    # C.0 and D.1 arrive at q, C.1 and D.0 at p: each word starts after it
    plus = monomial([canonical(word(("C.0", 1), ("C.1", 1), ("D.1", 1), ("D.0", 1)))])
    minus = monomial([canonical(word(("C.1", 1), ("C.0", 1), ("D.0", 1), ("D.1", 1)))])
    assert dict(b.slot(0)) == {plus: Fraction(1), minus: Fraction(-1)}


def test_sl2_alt_form_single_crossing():
    d = parse_diagram(ONE)
    x, y = d.loop_of("C"), d.loop_of("D")
    b = bracket_sl2(d, x, y, "alt", 4)
    joined = monomial([canonical(JOINED, "unoriented")])
    prod = monomial([canonical(x.word, "unoriented"), canonical(y.word, "unoriented")])
    assert dict(b.slot(0)) == {joined: Fraction(1), prod: Fraction(-1, 2)}


def test_sl2_reversal_form_single_crossing():
    d = parse_diagram(ONE)
    x, y = d.loop_of("C"), d.loop_of("D")
    b = bracket_sl2(d, x, y, "reversal", 4)
    joined = monomial([canonical(JOINED, "unoriented")])
    rev = monomial([canonical(JOINED_REV, "unoriented")])
    assert dict(b.slot(0)) == {joined: Fraction(1, 2), rev: Fraction(-1, 2)}


def test_sl2_forms_agree_numerically():
    rng = np.random.default_rng(31)
    for _ in range(8):
        d = random_diagram(rng, n_curves=2, self_crossing_prob=0.3)
        x, y = d.loop_of("C0"), d.loop_of("C1")
        for kind in ("su2", "sl2r"):
            g = GroupSpec(kind)
            A = random_assignment(d, g, rng)
            alt = eval_formal(bracket_sl2(d, x, y, "alt", 2), A, 0.0)
            rev = eval_formal(bracket_sl2(d, x, y, "reversal", 2), A, 0.0)
            assert abs(alt - rev) < 1e-10


@pytest.mark.parametrize("group", [GroupSpec("gln", 2), GroupSpec("gln", 3),
                                   GroupSpec("un", 2), GroupSpec("su2"), GroupSpec("sl2r")], ids=str)
def test_bracket_matches_direct_oracle(group):
    rng = np.random.default_rng(37)
    basis = lie_basis(group)
    for _ in range(6):
        d = random_diagram(rng, n_curves=2, self_crossing_prob=0.3)
        x, y = d.loop_of("C0"), d.loop_of("C1")
        A = random_assignment(d, group, rng)
        want = direct_bracket_value(d, x, y, group, A, basis)
        got = eval_formal(bracket_loops(d, x, y, group, "alt", 2), A, 0.0)
        assert abs(got - want) < 1e-9


def test_bracket_poly_leibniz_square():
    # {W_C, W_D^2} = 2 W_D {W_C, W_D}
    d = parse_diagram(ONE)
    g = GroupSpec("gln", 2)
    x, y = d.loop_of("C"), d.loop_of("D")
    f = FormalSum.of(monomial([x]), 4)
    gsq = FormalSum.of(monomial([y, y]), 4)
    got = bracket_poly(d, f, gsq, g)
    want = bracket_gln(d, x, y, 4).mul_monomial(monomial([y])).scale(2)
    assert got == want
    # numeric cross-check against the product rule on the direct oracle
    rng = np.random.default_rng(5)
    A = random_assignment(d, g, rng)
    direct = 2 * eval_wilson(y, A) * direct_bracket_value(d, x, y, g, A)
    assert abs(eval_formal(got, A, 0.0) - direct) < 1e-10


def test_bracket_with_constant_vanishes():
    d = parse_diagram(ONE)
    f = FormalSum.of(monomial([d.loop_of("C")]), 4)
    one = FormalSum.of((), 4)
    assert bracket_poly(d, f, one, GroupSpec("gln", 2)).is_zero()
    assert bracket_poly(d, one, f, GroupSpec("su2")).is_zero()


@pytest.mark.parametrize("group", [GroupSpec("gln", 2), GroupSpec("su2")], ids=str)
def test_bracket_antisymmetry(group):
    rng = np.random.default_rng(41)
    for _ in range(8):
        n = int(rng.integers(2, 5))
        d = random_diagram(rng, n_curves=n)
        conv = group.convention
        names = list(d.curves)
        half = max(1, n // 2)
        f = FormalSum.of(monomial(canonical(d.loop_of(c).word, conv) for c in names[:half]), 4)
        g = FormalSum.of(monomial(canonical(d.loop_of(c).word, conv) for c in names[half:]), 4)
        assert (bracket_poly(d, f, g, group) + bracket_poly(d, g, f, group)).is_zero()


def test_overlapping_loops_rejected():
    d = parse_diagram(ONE)
    x = d.loop_of("C")
    with pytest.raises(TransversalityError):
        bracket_gln(d, x, x, 4)
    f = FormalSum.of(monomial([x]), 4)
    with pytest.raises(TransversalityError):
        bracket_poly(d, f, f, GroupSpec("gln", 2))


def test_iterated_bracket_uses_inherited_crossings():
    # {{C,D}, E} is well-defined: concatenated loops keep the union of the
    # original crossing data
    text = """point p +
point q -
point r +
curve C level 0: p
curve D level 0: p q
curve E level 0: q r r
"""
    d = parse_diagram(text)
    g = GroupSpec("gln", 2)
    inner = bracket_gln(d, d.loop_of("C"), d.loop_of("D"), 4)
    outer = bracket_poly(d, inner, FormalSum.of(monomial([d.loop_of("E")]), 4), g)
    assert not outer.is_zero()
    # the concatenation C*D passes q once, so {C*D, E} has one crossing term
    joined = next(iter(inner.terms))
    assert len(d.crossings_between(joined[0], d.loop_of("E"))) == 1


@pytest.mark.parametrize("group", [GroupSpec("su2"), GroupSpec("gln", 2)], ids=str)
def test_a_form_outside_forms_is_a_domain_error(group):
    # a domain error for every group, also where gl(n) has only one bracket
    # and where the factors are zero and no loop pair is bracketed
    d = parse_diagram(ONE)
    x, y = d.loop_of("C"), d.loop_of("D")
    f, g = FormalSum.of(monomial([x]), 4), FormalSum.of(monomial([y]), 4)
    with pytest.raises(DiagramError, match="'alt' or 'reversal'"):
        bracket_loops(d, x, y, group, "bogus", 4)
    with pytest.raises(DiagramError):
        bracket_poly(d, f, g, group, form="bogus")
    with pytest.raises(DiagramError):
        bracket_poly(d, FormalSum.zero(4), FormalSum.zero(4), group, form="bogus")


def test_bracket_sl2_rejects_a_bogus_form_with_a_domain_error():
    d = parse_diagram(ONE)
    with pytest.raises(DiagramError):
        bracket_sl2(d, d.loop_of("C"), d.loop_of("D"), "bogus")


def bracket_outcome(call):
    """A bracket's terms in insertion order, or its error's type and text."""
    try:
        return list(call().terms.items())
    except DiagramError as e:  # TransversalityError is one
        return f"{type(e).__name__}: {e}"


@pytest.mark.parametrize("group, form", [
    (GroupSpec("gln", 2), None), (GroupSpec("gln", 3), None), (GroupSpec("un", 2), None),
    *((GroupSpec(kind), form) for kind in ("su2", "sl2r", "sl2c") for form in ("alt", "reversal")),
], ids=str)
def test_the_named_brackets_are_bracket_loops(group, form):
    """On the pinned corpus of test_bracket_pins, bracket_gln is
    bracket_loops of every oriented group, and bracket_sl2 in each form is
    bracket_loops of every rank-2 group in that form, term for term and in
    insertion order, errors included."""
    from test_bracket_pins import ORDER, loop_cases

    cases = 0
    for seed in range(8):
        d, loops = loop_cases(seed)
        for x in loops:
            for y in loops:
                if form is None:
                    got = bracket_outcome(lambda: bracket_gln(d, x, y, ORDER))
                    want = bracket_outcome(lambda: bracket_loops(d, x, y, group, "alt", ORDER))
                else:
                    got = bracket_outcome(lambda: bracket_sl2(d, x, y, form, ORDER))
                    want = bracket_outcome(lambda: bracket_loops(d, x, y, group, form, ORDER))
                assert got == want, (seed, str(x), str(y))
                cases += isinstance(want, list) and bool(want)
    assert cases > 100
