"""bracket_poly and nested star products against a plain reference.

The reference recomputes everything per term: each loop pair's bracket
with Fraction coefficients, each extra loop's canonical form, each
coefficient product cm * cmp_ * v, and each stacking's expectation scaled
term by term.  The library shares these within a call, which must change
neither the terms nor the order in which they were inserted, so the two
are compared as lists of items, and their values at one assignment
exactly.
"""

from fractions import Fraction

import numpy as np
import pytest

from loopstar.checks import random_diagram, random_factors
from loopstar.coeff import GROUP_KINDS, GroupSpec, SeriesCoeff
from loopstar.diagram import FormalSum, Loop, canonical, monomial, reverse_word
from loopstar.goldman import bracket_poly
from loopstar.holonomy import eval_formal, random_assignment
from loopstar.star import _stackings, expect_loops, star

GROUPS = tuple(GroupSpec(kind, 3 if kind in ("gln", "un") else 2) for kind in GROUP_KINDS)
FORMS = ("alt", "reversal")
ORDER = 4
BETA = 0.05


def reference_bracket_loops(d, x, y, group, form, order) -> FormalSum:
    """The loop bracket, one Fraction coefficient per added term.  x *_p y
    is each word rotated to start after its gap at p, x's first; x *_p y^-1
    takes y's reversal, rotated to start after its own gap at p."""
    out = FormalSum.zero(order)
    conv = group.convention
    for _, eps, gx, gy in d.crossings_between(x, y):
        wx, wy = x.word[gx + 1 :] + x.word[: gx + 1], y.word[gy + 1 :] + y.word[: gy + 1]
        joined = monomial([canonical(wx + wy, conv)])
        if not group.orientation_free:
            out.add_term(joined, Fraction(eps))
        elif form == "reversal":
            out.add_term(joined, Fraction(eps, 2))
            # reverse(y)'s entry arriving at p is y's entry gy + 1 reversed,
            # the one at the reversed word's index len(y) - 2 - gy
            ry = reverse_word(y.word)
            hy = (len(ry) - 2 - gy) % len(ry)
            out.add_term(monomial([canonical(wx + ry[hy + 1 :] + ry[: hy + 1], conv)]), Fraction(-eps, 2))
        else:
            out.add_term(joined, Fraction(eps))
            out.add_term(monomial([canonical(x.word, conv), canonical(y.word, conv)]), Fraction(-eps, 2))
    return out


def reference_bracket_poly(d, f, g, group, form, order) -> FormalSum:
    """The Leibniz loop with nothing shared between its steps."""
    conv = group.convention
    out = FormalSum.zero(order)
    for m, cm in f.truncated(order).terms.items():
        for mp, cmp_ in g.truncated(order).terms.items():
            for i, lx in enumerate(m):
                for j, ly in enumerate(mp):
                    base = reference_bracket_loops(d, lx, ly, group, form, order)
                    extra = tuple(canonical(l.word, conv) for l in m[:i] + m[i + 1:] + mp[:j] + mp[j + 1:])
                    for mb, v in base.terms.items():
                        out.add_term(monomial(mb + extra), cm * cmp_ * v)
    return out


def reference_star(d, f, g, group, order) -> FormalSum:
    """Each stacking's expectation added in with a plain c * v per term."""
    out = FormalSum.zero(order)
    for leveled, c in _stackings([f.truncated(order).terms, g.truncated(order).terms], (1, -1)):
        for m, v in expect_loops(d, leveled, group, order).terms.items():
            out.add_term(m, c * v)
    return out


def rotated(fs: FormalSum) -> FormalSum:
    """fs with each loop's word rotated by one entry and reversed: loops
    that are not in canonical form, which the bracket canonicalizes."""
    return FormalSum({monomial(Loop(reverse_word(l.word[1:] + l.word[:1])) for l in m): c for m, c in fs.terms.items()},
                     fs.order)


def factor_cases(seed: int):
    """(diagram, factors): two random monomial factors, the same with the
    loops of the first not canonical, and the four single-curve factors of
    a 4-curve diagram."""
    rng = np.random.default_rng(seed)
    d, f, g = random_factors(rng, ORDER)
    yield d, (f, g)
    yield d, (rotated(f), g)
    d = random_diagram(rng, n_curves=4)
    yield d, tuple(FormalSum.of(monomial([d.loop_of(c)]), ORDER) for c in d.curves)


def shared_value_factors(seed: int):
    """(diagram, f, g): on a 4-curve diagram, f = c*u + c*v and
    g = c*w - c*x for one series c, so the factors' terms share their
    coefficient values, and so do the products of the chosen pairs."""
    d = random_diagram(np.random.default_rng(seed), n_curves=4)
    u, v, w, x = (monomial([d.loop_of(name)]) for name in d.curves)
    c = SeriesCoeff([2, Fraction(1, 3), 0, Fraction(-5, 7)], order=ORDER)
    return d, FormalSum({u: c, v: c}, ORDER), FormalSum({w: c, x: -c}, ORDER)


def assert_same(d, group, out: FormalSum, ref: FormalSum) -> None:
    assert list(out.terms.items()) == list(ref.terms.items())
    assign = random_assignment(d, group, np.random.default_rng(0))
    assert eval_formal(out, assign, BETA) == eval_formal(ref, assign, BETA)


@pytest.mark.parametrize("group", GROUPS, ids=str)
@pytest.mark.parametrize("seed", range(4))
def test_products_and_brackets_match_the_reference(group, seed):
    """star(f, g) and, on four curves, ((u*v)*w)*x; bracket_poly(f, g) and
    bracket_poly(u*v*w, x) in both orders and both forms."""
    for d, factors in factor_cases(seed):
        if len(factors) == 2:
            f, g = factors
        else:
            u, v, w, g = factors
            uv = star(d, u, v, group, ORDER)
            assert_same(d, group, uv, reference_star(d, u, v, group, ORDER))
            f = star(d, uv, w, group, ORDER)
            assert_same(d, group, f, reference_star(d, uv, w, group, ORDER))
        assert_same(d, group, star(d, f, g, group, ORDER), reference_star(d, f, g, group, ORDER))
        for form in FORMS:
            for a, b in ((f, g), (g, f)):
                assert_same(d, group, bracket_poly(d, a, b, group, form),
                            reference_bracket_poly(d, a, b, group, form, ORDER))


@pytest.mark.parametrize("group", GROUPS, ids=str)
@pytest.mark.parametrize("seed", range(4))
def test_factors_with_shared_values_hit_the_product_memo(group, seed, monkeypatch):
    """star(f, g) and bracket_poly in both orders and both forms, whose
    factors repeat one coefficient value: the same terms in the same order
    as the reference, with fewer series products than the reference forms."""
    d, f, g = shared_value_factors(seed)
    cases = [(lambda: star(d, f, g, group, ORDER), lambda: reference_star(d, f, g, group, ORDER))]
    for form in FORMS:
        for a, b in ((f, g), (g, f)):
            cases.append((lambda a=a, b=b, form=form: bracket_poly(d, a, b, group, form),
                          lambda a=a, b=b, form=form: reference_bracket_poly(d, a, b, group, form, ORDER)))
    for run, ref in cases:
        run(), ref()  # the state tables and bracket constants are kept per process
    calls = []
    mul = SeriesCoeff.__mul__
    monkeypatch.setattr(SeriesCoeff, "__mul__", lambda self, other: calls.append(1) or mul(self, other))
    for run, ref in cases:
        outs, formed = [], []
        for fn in (run, ref):
            calls.clear()
            outs.append(fn())
            formed.append(len(calls))
        assert formed[0] < formed[1]
        assert_same(d, group, *outs)
