#!/usr/bin/env python3
"""The Poisson bracket of Wilson loops as a signed sum of concatenations.

Two loops crossing transversally have a bracket supported on the loops
obtained by concatenating them at each crossing, weighted by the
intersection signs.  The GL(n) convention uses plain concatenations; the
rank-2 convention subtracts either the reversed-partner concatenation or
half the product.  A dense-matrix holonomy oracle verifies every printed
formula against the raw functional-derivative sum.
"""

import numpy as np

from loopstar import (
    FormalSum,
    GroupSpec,
    bracket_poly,
    bracket_sl2,
    eval_formal,
    monomial,
    parse_diagram,
    random_assignment,
)
from loopstar.diagram import canonical, monomial_text
from loopstar.holonomy import gram_pairing, lie_basis, loop_matrix

TEXT = """\
point p +
point q -
curve C level 1: p q
curve D level 0: q p
"""

d = parse_diagram(TEXT)
C, D = d.loop_of("C"), d.loop_of("D")

print("Diagram: two loops crossing at p (+) and q (-)")
print()

for kind in ("gln", "su2"):
    group = GroupSpec(kind, 2)
    conv = group.convention
    f = FormalSum.of(monomial([canonical(C.word, conv)]), 4)
    g = FormalSum.of(monomial([canonical(D.word, conv)]), 4)
    b = bracket_poly(d, f, g, group)
    print(f"{{W_C, W_D}} in the {group} convention:")
    for m, coeff in b:
        print(f"  {str(coeff[0]):>5}  {monomial_text(m)}")
    print()

print("Numeric oracle: the per-point functional-derivative sum")
print("-" * 60)
rng = np.random.default_rng(0)
for kind in ("gln", "su2", "sl2r"):
    group = GroupSpec(kind, 2)
    A = random_assignment(d, group, rng)
    basis = lie_basis(group)
    direct = 0j
    for _, eps, gx, gy in d.crossings_between(C, D):
        direct += eps * gram_pairing(group, loop_matrix(C, A, gx), loop_matrix(D, A, gy), basis)
    conv = group.convention
    f = FormalSum.of(monomial([canonical(C.word, conv)]), 4)
    g = FormalSum.of(monomial([canonical(D.word, conv)]), 4)
    val = eval_formal(bracket_poly(d, f, g, group), A, 0.0)
    print(f"  {group}: |bracket - direct sum| = {abs(val - direct):.2e}")

print()
print("The two rank-2 printed forms agree as functions:")
A = random_assignment(d, GroupSpec("su2"), rng)
alt = eval_formal(bracket_sl2(d, C, D, "alt", 4), A, 0.0)
rev = eval_formal(bracket_sl2(d, C, D, "reversal", 4), A, 0.0)
print(f"  |alt - reversal| = {abs(alt - rev):.2e}")

print()
print("Jacobi identity, numerically, on a random three-loop diagram:")
from loopstar.checks import random_diagram

d3 = random_diagram(np.random.default_rng(5), n_curves=3, self_crossing_prob=0.0)
group = GroupSpec("gln", 2)
A = random_assignment(d3, group, rng)
fs = [FormalSum.of(monomial([d3.loop_of(c)]), 4) for c in d3.curves]
total = 0j
for i in range(3):
    a, b, c = fs[i], fs[(i + 1) % 3], fs[(i + 2) % 3]
    total += eval_formal(bracket_poly(d3, a, bracket_poly(d3, b, c, group), group), A, 0.0)
print(f"  |cyclic sum| = {abs(total):.2e}")
