"""Acceptance suite: one test per criterion, each at its stated tolerance,
printing one pass line when it holds.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; any assertion failure marks the criterion red.
"""

import math
from fractions import Fraction

import numpy as np
import sympy as sp

from loopstar.coeff import (
    GroupSpec,
    crossing_coeffs,
    closed_crossing_values,
    derived_generator,
    exp_generator,
    exp_series,
)
from loopstar.diagram import Arc, FormalSum, canonical, monomial, parse_diagram
from loopstar.goldman import bracket_poly, bracket_sl2
from loopstar.holonomy import (
    eval_complex_sum,
    eval_formal,
    eval_monomial,
    gram_pairing,
    lattice_derivative_check,
    lie_basis,
    loop_matrix,
    projection_pi,
    random_assignment,
    sample,
)
from loopstar.star import (
    assoc_check,
    expect_values,
    poisson_limit_check,
    star,
)
from loopstar.checks import FAMILIES, r2_pair_diagram, random_diagram, random_factors

K = 8
ONE_CROSSING = "point a +\ncurve C level 1: a\ncurve D level 0: a\n"


def _report(n, text):
    print(f"ACCEPTANCE {n:2d} PASS: {text}")


def _factor(d, group, *names, order=K):
    conv = group.convention
    return FormalSum.of(monomial(canonical(d.loop_of(c).word, conv) for c in names), order)


def test_criterion_01_single_crossing_su2_star():
    d = parse_diagram(ONE_CROSSING)
    su2 = GroupSpec("su2")
    s = star(d, _factor(d, su2, "C"), _factor(d, su2, "D"), su2)
    prod = monomial([d.loop_of("C"), d.loop_of("D")])
    # C *_a D: each word starts after the entry that arrives at a
    joined = monomial([canonical(((Arc("C", 0), 1), (Arc("D", 0), 1)), "unoriented")])
    # symbolic slots against an independent sympy Taylor oracle, to K=8
    h = sp.Symbol("h")
    rt = sp.sqrt(3)
    virt_expr = sp.cosh(rt * h / 2) - sp.sinh(rt * h / 2) / rt
    smooth_expr = 2 * sp.sinh(rt * h / 2) / rt
    for expr, mono in ((virt_expr, prod), (smooth_expr, joined)):
        poly = sp.series(expr, h, 0, K + 1).removeO()
        want = [Fraction(str(sp.nsimplify(poly.coeff(h, k)))) for k in range(K + 1)]
        assert list(s.terms[mono].coeffs) == want
    # closed-form float values vs independent hyperbolic evaluation
    for beta in (0.1, 1.0):
        x = math.sqrt(3.0) * beta
        ch = (math.exp(x) + math.exp(-x)) / 2
        sh = (math.exp(x) - math.exp(-x)) / 2
        v, sm = closed_crossing_values(su2, "over", beta)
        assert abs(v - (ch - sh / math.sqrt(3.0))) < 1e-12
        assert abs(sm - 2 * sh / math.sqrt(3.0)) < 1e-12
    _report(1, "single-crossing SU(2) star matches Taylor oracle to K=8 and closed forms to 1e-12")


def test_criterion_02_poisson_limit_exact():
    seeds = {"sl2": 2001, "gln": 2002}
    total = 0
    for family, groups in FAMILIES.items():
        rng = np.random.default_rng(seeds[family])
        for k in range(20):
            grp = groups[k % len(groups)]
            d, f, g = random_factors(rng, K)
            assert poisson_limit_check(d, f, g, grp).is_zero()
            total += 1
    _report(2, f"h^1 slot of star equals bracket exactly on {total} random diagrams")


def test_criterion_03_associativity():
    rng = np.random.default_rng(3003)
    worst = 0.0
    for k in range(10):
        grp = (GroupSpec("su2"), GroupSpec("gln", 2), GroupSpec("sl2r"), GroupSpec("un", 2))[k % 4]
        d = random_diagram(rng, n_curves=3, max_pair_crossings=2, self_crossing_prob=0.2)
        u, v, w = (_factor(d, grp, c, order=5) for c in d.curves)
        assign = random_assignment(d, grp, rng)
        res = assoc_check(d, u, v, w, grp, assign=assign)
        assert res.level_residual.is_zero()
        worst = max(worst, max(res.numeric.values()))
    assert worst < 1e-9
    _report(3, f"10 triples: symbolic residual zero, numeric nesting gap {worst:.2e} < 1e-9")


def test_criterion_04_trace_projection_identities():
    rng = np.random.default_rng(4004)
    worst = 0.0
    for grp in (GroupSpec("gln", 2), GroupSpec("gln", 3), GroupSpec("gln", 4),
                GroupSpec("su2"), GroupSpec("sl2r")):
        basis = lie_basis(grp)
        for _ in range(1000):
            u, v = sample(grp, rng), sample(grp, rng)
            lhs = gram_pairing(grp, u, v, basis)
            rhs = np.trace(projection_pi(grp, u) @ projection_pi(grp, v))
            worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-9
    sl2_worst = 0.0
    for grp in (GroupSpec("su2"), GroupSpec("sl2r")):
        for _ in range(1000):
            u, v = sample(grp, rng), sample(grp, rng)
            lhs = np.trace(u @ v) + np.trace(u @ np.linalg.inv(v))
            sl2_worst = max(sl2_worst, abs(lhs - np.trace(u) * np.trace(v)))
    assert sl2_worst < 1e-10
    _report(4, f"gram residual {worst:.2e} < 1e-9 over 1000 pairs/group; sl2 identity {sl2_worst:.2e} < 1e-10")


def test_criterion_05_bracket_oracle_equivalence():
    rng = np.random.default_rng(5005)
    worst = 0.0
    forms = 0.0
    for _ in range(10):
        d = random_diagram(rng, n_curves=2, self_crossing_prob=0.3)
        x, y = d.loop_of("C0"), d.loop_of("C1")
        for grp in (GroupSpec("gln", 2), GroupSpec("gln", 3), GroupSpec("su2"), GroupSpec("sl2r")):
            assign = random_assignment(d, grp, rng)
            basis = lie_basis(grp)
            direct = 0j
            for _, eps, gx, gy in d.crossings_between(x, y):
                direct += eps * gram_pairing(
                    grp, loop_matrix(x, assign, gx), loop_matrix(y, assign, gy), basis
                )
            conv = grp.convention
            f = FormalSum.of(monomial([canonical(x.word, conv)]), 2)
            g = FormalSum.of(monomial([canonical(y.word, conv)]), 2)
            got = eval_formal(bracket_poly(d, f, g, grp), assign, 0.0)
            worst = max(worst, abs(got - direct))
            if grp.orientation_free:
                alt = eval_formal(bracket_sl2(d, x, y, "alt", 2), assign, 0.0)
                rev = eval_formal(bracket_sl2(d, x, y, "reversal", 2), assign, 0.0)
                forms = max(forms, abs(alt - rev))
    assert worst < 1e-9
    assert forms < 1e-10
    _report(5, f"bracket vs per-point sum residual {worst:.2e} < 1e-9; sl2 form gap {forms:.2e} < 1e-10")


def test_criterion_06_generator_consistency():
    for grp in (GroupSpec("su2"), GroupSpec("sl2r"), GroupSpec("gln", 2),
                GroupSpec("gln", 3), GroupSpec("un", 2)):
        for ctype in ("over", "under"):
            f, g = exp_generator(grp, ctype, K)
            cc = crossing_coeffs(grp, ctype, K)
            assert f == cc.virtual and g == cc.smooth
    m = derived_generator(GroupSpec("su2"), "over")
    assert (m[0][0], m[1][0]) == (Fraction(-1), Fraction(2))
    _report(6, "exp(beta*M) equals the closed-form tables to K=8; SU(2) first column is (-1, 2)")


def test_criterion_07_framing_relation():
    for ctype, sgn in (("over", 1), ("under", -1)):
        gl2 = crossing_coeffs(GroupSpec("gln", 2), ctype, K)
        su2 = crossing_coeffs(GroupSpec("su2"), ctype, K)
        fr = exp_series(Fraction(sgn, 2), K)
        assert gl2.virtual == fr * su2.virtual
        assert gl2.smooth == fr * su2.smooth
    _report(7, "GL(2) tables equal e^{±h/2} times SU(2) tables slotwise to K=8")


def test_criterion_08_lattice_derivative_convergence():
    worst5 = 0.0
    for grp in (GroupSpec("gln", 2), GroupSpec("su2")):
        for direction in ("interior", "endpoint"):
            r4 = lattice_derivative_check(grp, 64, direction, 1e-4, np.random.default_rng(88))
            r5 = lattice_derivative_check(grp, 64, direction, 1e-5, np.random.default_rng(88))
            assert r5 < 1e-4
            assert r4 < 1e-3
            assert r5 < r4 / 3  # first-order decay
            worst5 = max(worst5, r5)
    _report(8, f"N=64 residual at step 1e-5 is {worst5:.2e} < 1e-4 with first-order decay")


def test_criterion_09_jacobi_identity_numeric():
    rng = np.random.default_rng(9009)
    worst = 0.0
    for k in range(10):
        grp = (GroupSpec("gln", 2), GroupSpec("su2"), GroupSpec("gln", 3), GroupSpec("sl2r"))[k % 4]
        d = random_diagram(rng, n_curves=3, max_pair_crossings=2, self_crossing_prob=0.0)
        f, g, h = (_factor(d, grp, c, order=4) for c in d.curves)
        assign = random_assignment(d, grp, rng)
        total = 0j
        for a, b, c in ((f, g, h), (g, h, f), (h, f, g)):
            inner = bracket_poly(d, b, c, grp)
            outer = bracket_poly(d, a, inner, grp)
            total += eval_formal(outer, assign, 0.0)
        worst = max(worst, abs(total))
    assert worst < 1e-8
    _report(9, f"cyclic Jacobi sum {worst:.2e} < 1e-8 on 10 random triples")


def test_criterion_10_r2_noninvariance_regression():
    d = r2_pair_diagram()
    su2 = GroupSpec("su2")
    rng = np.random.default_rng(1010)
    assign = random_assignment(d, su2, rng)
    loops = [(d.loop_of(c), d.curves[c].level) for c in d.curves]
    value = eval_complex_sum(expect_values(d, loops, su2, 0.5), assign)
    bare = eval_monomial(monomial([d.loop_of("C"), d.loop_of("D")]), assign)
    gap = abs(value - bare)
    assert gap > 1e-3
    _report(10, f"slide-move pair differs from the bare product by {gap:.3e} > 1e-3 at beta=0.5")
