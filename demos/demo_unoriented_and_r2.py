#!/usr/bin/env python3
"""Unoriented two-smoothing resolution and the slide-move regression.

For the rank-2 groups the Wilson loop ignores orientation, and after the
per-loop normalization W -> -W every crossing resolves into just two
smoothings with coefficients

    a = -cosh(sqrt3 beta) - sinh(sqrt3 beta)/sqrt3
    b = -cosh(sqrt3 beta) + sinh(sqrt3 beta)/sqrt3

with a and b trading places between over- and under-crossings.  The second
part of the script documents an expected failure: the resolution of a
slide-move (R2) crossing pair does not reduce to the crossing-free product
at generic coupling, so the product does not descend to homotopy classes.
"""

import numpy as np

from loopstar import (
    GroupSpec,
    eval_wilson,
    kauffman_coeffs,
    parse_diagram,
    random_assignment,
    unoriented_kauffman_resolution,
)
from loopstar.coeff import kauffman_values
from loopstar.diagram import monomial, monomial_text
from loopstar.holonomy import eval_complex_sum, eval_monomial
from loopstar.star import expect_loops, expect_values
from loopstar.holonomy import eval_formal

su2 = GroupSpec("su2")
K = 8

print("Unoriented resolution coefficients (series in h, beta = h/2):")
a, b = kauffman_coeffs(K)
print("  a:", " ".join(str(c) for c in a.coeffs[:5]), "...")
print("  b:", " ".join(str(c) for c in b.coeffs[:5]), "...")
av, bv = kauffman_values(0.0)
print(f"  at beta = 0: a = {av.real}, b = {bv.real}   (both -1: the zero-coupling identity)")
print()

ONE = "point a +\ncurve C level 1: a\ncurve D level 0: a\n"
d = parse_diagram(ONE)
loops = [(d.loop_of("C"), 1), (d.loop_of("D"), -1)]
fhat = unoriented_kauffman_resolution(d, loops, su2, K)
print("One over-crossing resolves into the two smoothings:")
for m, c in fhat:
    print(f"  [{', '.join(str(x) for x in c.coeffs[:4])}, ...]  {monomial_text(m)}")
print()

print("Normalized evaluation agrees with the oriented expectation:")
rng = np.random.default_rng(3)
A = random_assignment(d, su2, rng)
beta = 0.07
oriented = eval_formal(expect_loops(d, loops, su2, K), A, beta)
normalized = sum(
    c.eval_h(2 * beta) * np.prod([-eval_wilson(l, A) for l in m])
    for m, c in fhat.terms.items()
)
print(f"  |sum coeff * prod(-W) - oriented| = {abs(normalized - oriented):.2e}")
print()

print("Slide-move (R2) regression: resolution is NOT homotopy invariant")
print("-" * 64)
R2 = "point p +\npoint q -\ncurve C level 1: p q\ncurve D level 0: q p\n"
d2 = parse_diagram(R2)
loops2 = [(d2.loop_of(c), d2.curves[c].level) for c in d2.curves]
A2 = random_assignment(d2, su2, np.random.default_rng(11))
bare = eval_monomial(monomial([d2.loop_of("C"), d2.loop_of("D")]), A2)
print("  beta    |resolved - bare product|")
for beta in (0.0, 0.1, 0.3, 0.5):
    value = eval_complex_sum(expect_values(d2, loops2, su2, beta), A2)
    print(f"  {beta:4}    {abs(value - bare):.6f}")
print()
print("At beta = 0 the pair is invisible; at generic coupling it is not.")
print("Restoring invariance would need the expectation of a free loop to be")
print("shifted away from its gauge-theory value, which is outside the scope")
print("of the resolution implemented here.")
