#!/usr/bin/env python3
"""The star product: stacked diagrams, resolution state sums, and the two
defining identities (classical limit and associativity).

The left factor is stacked above the right; every crossing between levels
is resolved into its untouched term plus its smoothing, with coefficients
from the crossing tables.  The h^1 slot reproduces the Poisson bracket
exactly, and the product is associative both slotwise and numerically.
"""

import numpy as np

from loopstar import (
    FormalSum,
    GroupSpec,
    assoc_check,
    bracket_poly,
    monomial,
    parse_diagram,
    poisson_limit_check,
    random_assignment,
    star,
)
from loopstar.diagram import canonical, monomial_text

ONE = "point a +\ncurve C level 1: a\ncurve D level 0: a\n"

d = parse_diagram(ONE)
su2 = GroupSpec("su2")


def factor(dg, group, *names, order=8):
    conv = group.convention
    return FormalSum.of(monomial(canonical(dg.loop_of(c).word, conv) for c in names), order)


print("W_C * W_D for one positive crossing, SU(2):")
s = star(d, factor(d, su2, "C"), factor(d, su2, "D"), su2)
for m, c in s:
    print(f"  [{', '.join(str(x) for x in c.coeffs[:5])}, ...]  {monomial_text(m)}")
print()
print("The untouched term carries cosh(sqrt3 h/2) - sinh(sqrt3 h/2)/sqrt3,")
print("the concatenation carries 2 sinh(sqrt3 h/2)/sqrt3.")
print()

print("Classical limit: the h^1 slot is the Poisson bracket, exactly:")
res = poisson_limit_check(d, factor(d, su2, "C"), factor(d, su2, "D"), su2)
print("  residual formal sum is zero:", res.is_zero())
b = bracket_poly(d, factor(d, su2, "C"), factor(d, su2, "D"), su2)
print("  star h^1 slot:", {tuple(len(l) for l in m): str(c) for m, c in s.slot(1).items()})
print("  bracket h^0  :", {tuple(len(l) for l in m): str(c) for m, c in b.slot(0).items()})
print()

print("Associativity on a three-loop diagram:")
TRIPLE = """\
point p +
point q -
point r +
curve U level 0: p q
curve V level 0: p r
curve W level 0: q r
"""
d3 = parse_diagram(TRIPLE)
for group in (GroupSpec("su2"), GroupSpec("gln", 3)):
    u, v, w = (factor(d3, group, c, order=5) for c in ("U", "V", "W"))
    A = random_assignment(d3, group, np.random.default_rng(1))
    res = assoc_check(d3, u, v, w, group, assign=A)
    print(f"  {group}: three-level encodings agree slotwise: {res.level_residual.is_zero()}; "
          f"numeric nesting gap {max(res.numeric.values()):.1e} over beta in (0.01, 0.1, 0.5)")
print()

print("Order-2 coupling between star factors (two crossings -> four states):")
TWO = "point p +\npoint q +\ncurve C level 1: p q\ncurve D level 0: q p\n"
d2 = parse_diagram(TWO)
gl2 = GroupSpec("gln", 2)
s2 = star(d2, factor(d2, gl2, "C"), factor(d2, gl2, "D"), gl2)
for m, c in s2:
    loops = " * ".join("W(" + " ".join(a.id for a, _ in l.word) + ")" for l in m)
    print(f"  [{', '.join(str(x) for x in c.coeffs[:4])}, ...]  {loops}")
print()
print("The doubly-smoothed state splits the merged loop back into two:")
print("the smoothing either merges two loops or splits one, depending on")
print("whether the two strands already belong to the same component.")
