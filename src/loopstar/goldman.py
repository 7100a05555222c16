"""Poisson bracket of Wilson-loop polynomials as formal sums.

The bracket of two loops is a signed sum over their intersection points p
of the concatenations x *_p y, x's word from its gap at p, as
Diagram.crossings_between reports it, followed by y's; for the rank-2 groups
it comes with either the reversed-partner correction (reversal form) or the
product-term correction (alt form), which agree as functions but not as
formal sums.  bracket_loops holds the one loop over the crossings for every
group and form; bracket_gln and bracket_sl2 name its two conventions.
Monomials extend by the Leibniz rule.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .coeff import DEFAULT_ORDER, GroupSpec, SeriesCoeff
from .diagram import (
    Diagram,
    DiagramError,
    FormalSum,
    Loop,
    canonical,
    monomial,
    reverse_word,
)

# The printed forms of the rank-2 bracket; gl(n)/u(n) have one bracket,
# which every form names.
FORMS = ("alt", "reversal")

# the bracket depends on the group only through its convention
_ORIENTED, _RANK2 = GroupSpec("gln"), GroupSpec("su2")


def _require_form(form: str) -> None:
    if form not in FORMS:
        raise DiagramError(f"form must be {' or '.join(map(repr, FORMS))}, got {form!r}")


def _rotated(loop: Loop, gap: int) -> tuple:
    return loop.word[gap + 1 :] + loop.word[: gap + 1]  # the word from its gap on


@lru_cache(maxsize=64)
def _signed_units(order: int) -> tuple[tuple[tuple[int, SeriesCoeff], ...], ...]:
    """The (eps, series) pairs of eps and of eps/2 for eps = +1, -1, at the
    order: the bracket's coefficients, built once per order and process,
    as immutable values that every sum may share."""
    one, half = SeriesCoeff.one(order), SeriesCoeff.constant(Fraction(1, 2), order)
    return ((1, one), (-1, -one)), ((1, half), (-1, -half))


def bracket_loops(d: Diagram, x: Loop, y: Loop, group: GroupSpec, form: str = "alt",
                  order: int = DEFAULT_ORDER) -> FormalSum:
    """The bracket of two loops, one term or pair of terms per point where
    they cross, with sign eps:

    gl(n)/u(n):      sum_i eps_i W_{x *_i y}  (integer h^0 coefficients)
    rank-2 reversal: (1/2) sum_i eps_i (W_{x *_i y} - W_{x *_i y-reversed})
    rank-2 alt:      sum_i eps_i (W_{x *_i y} - (1/2) W_x W_y)
    """
    _require_form(form)
    d.require_valid()
    out = FormalSum.zero(order)
    rank2, conv = group.orientation_free, group.convention
    crossings = d.crossings_between(x, y)
    if crossings:
        signed, halves = map(dict, _signed_units(order))
        if rank2 and form == "alt":
            prod = monomial([canonical(x.word, conv), canonical(y.word, conv)])
    for _, eps, gx, gy in crossings:
        rx, ry = _rotated(x, gx), _rotated(y, gy)
        joined = monomial([canonical(rx + ry, conv)])
        if rank2 and form == "reversal":
            # reverse(y) from its gap at p is the reversal of ry
            out.add_term(joined, halves[eps])
            out.add_term(monomial([canonical(rx + reverse_word(ry), conv)]), halves[-eps])
        else:
            out.add_term(joined, signed[eps])
            if rank2:
                out.add_term(prod, halves[-eps])
    return out


def bracket_gln(d: Diagram, x: Loop, y: Loop, order: int = DEFAULT_ORDER) -> FormalSum:
    """GL(n)/U(n) bracket, bracket_loops of an oriented group."""
    return bracket_loops(d, x, y, _ORIENTED, "alt", order)


def bracket_sl2(d: Diagram, x: Loop, y: Loop, form: str = "alt", order: int = DEFAULT_ORDER) -> FormalSum:
    """Rank-2 bracket in either printed form, bracket_loops of a rank-2 group."""
    return bracket_loops(d, x, y, _RANK2, form, order)


def bracket_poly(
    d: Diagram,
    f: FormalSum,
    g: FormalSum,
    group: GroupSpec,
    form: str = "alt",
    order: int | None = None,
) -> FormalSum:
    """Bilinear extension with the Leibniz rule over the loops of each
    monomial.  Loop pairs sharing arcs are rejected as non-transversal.
    The factors' coefficients are truncated to order.  Each distinct loop
    pair is bracketed once per call, and each loop left beside the pair is
    canonicalized once per call.  The product of two terms' coefficients
    and each product that scales a Leibniz term come from one memo of
    exact products, so each distinct pair of coefficient values is
    multiplied once per call."""
    if order is None:
        order = f.order
    _require_form(form)
    d.require_valid()
    f, g = f.truncated(order), g.truncated(order)
    conv = group.convention
    out = FormalSum.zero(order)
    bases: dict[tuple[Loop, Loop], FormalSum] = {}
    canon: dict[Loop, Loop] = {}
    products: dict[SeriesCoeff, dict[SeriesCoeff, SeriesCoeff]] = {}
    for m, cm in f.terms.items():
        for mp, cmp_ in g.terms.items():
            c = None
            for i, lx in enumerate(m):
                rest_m = m[:i] + m[i + 1 :]
                for j, ly in enumerate(mp):
                    rest_mp = mp[:j] + mp[j + 1 :]
                    base = bases.get((lx, ly))
                    if base is None:
                        base = bases[lx, ly] = bracket_loops(d, lx, ly, group, form, order)
                    if base.is_zero():
                        continue
                    extra = []
                    for l in rest_m + rest_mp:
                        cl = canon.get(l)
                        if cl is None:
                            cl = canon[l] = canonical(l.word, conv)
                        extra.append(cl)
                    if c is None:
                        row = products.setdefault(cm, {})
                        c = row.get(cmp_)
                        if c is None:
                            c = row[cmp_] = cm * cmp_
                    out._add_scaled(base.mul_monomial(monomial(extra)), c, products)
    return out
