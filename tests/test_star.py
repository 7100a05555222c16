"""Star product and expectation functional tests."""

import re

import numpy as np
import pytest
from fractions import Fraction
from pathlib import Path

from loopstar.coeff import (
    CoeffError,
    GroupSpec,
    HolonomyError,
    SeriesCoeff,
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
    TransversalityError,
    canonical,
    monomial,
    parse_diagram,
)
from loopstar.goldman import bracket_gln, bracket_loops, bracket_poly, bracket_sl2
from loopstar.holonomy import (
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
    joined = monomial([canonical(d.concat_at(d.loop_of("C"), d.loop_of("D"), "a").word, "unoriented")])
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
        d, f, g = random_factors(rng, grp, 5, allow_duplicates=False)
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


# -- star ------------------------------------------------------------------------


def test_star_single_crossing_reproduces_closed_form():
    d = parse_diagram(ONE)
    su2 = GroupSpec("su2")
    out = star_loops(d, d.loop_of("C"), d.loop_of("D"), su2, K)
    cc = crossing_coeffs(su2, "over", K)
    prod = monomial([d.loop_of("C"), d.loop_of("D")])
    joined = monomial([canonical(d.concat_at(d.loop_of("C"), d.loop_of("D"), "a").word, "unoriented")])
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
        d, f, g = random_factors(rng, grp, 4)
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


@pytest.mark.parametrize("arc", [Arc("C", 5), Arc("Z", 0)], ids=["index-past-the-curve", "unknown-curve"])
def test_an_arc_the_diagram_lacks_is_rejected_at_every_entry_point(arc):
    """C has one arc and there is no curve Z: a loop through C.5 or Z.0 is
    not a loop of the diagram, and no entry point may read it as C.0 or
    fail with a KeyError.  (A star_complex factor of no terms reaches no
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
        with pytest.raises(DiagramError, match=re.escape(f"arc {arc.id} is not an arc")):
            call()


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
        d, f, g = random_factors(rng, grp, 4)
        assert poisson_limit_check(d, f, g, grp).is_zero()


# -- associativity ----------------------------------------------------------------


def test_assoc_triple_symbolic_and_numeric():
    import pathlib

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
    from loopstar.diagram import reverse

    d = parse_diagram(ONE)
    C, D = d.loop_of("C"), d.loop_of("D")
    rC = canonical(reverse(C).word, "oriented")
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
    compat = monomial([canonical(d.concat_at(x, y, "a").word, "unoriented")])
    from loopstar.diagram import reverse

    rev = monomial([canonical(d.concat_at(x, reverse(y), "a").word, "unoriented")])
    assert out.terms == {compat: a, rev: b}


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
