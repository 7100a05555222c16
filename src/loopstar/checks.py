"""Seeded property suites behind `loopstar check`, plus the random diagram
corpus generator they (and the test suite) draw from.

Each suite returns a CheckResult; run_all composes them.  All randomness
flows through numpy Generators seeded from the --seed flag, so output is
byte-deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .coeff import (
    GroupSpec,
    SeriesCoeff,
    crossing_coeffs,
    exp_generator,
    exp_generator_matrix,
    exp_series,
)
from .diagram import CrossingPoint, Curve, Diagram, FormalSum, monomial, parse_diagram
from . import goldman, holonomy
from .star import (
    Stacked,
    assoc_check,
    expect_loops,
    expect_values,
    poisson_limit_check,
    unoriented_kauffman_resolution,
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"[{'PASS' if self.passed else 'FAIL'}] {self.name}: {self.detail}"


# -- random corpus -------------------------------------------------------------


def random_diagram(
    rng: np.random.Generator,
    n_curves: int = 3,
    max_pair_crossings: int = 2,
    self_crossing_prob: float = 0.25,
) -> Diagram:
    """Random transversal configuration: every curve pair crosses 0..max
    times with random signs, plus occasional self-crossings; pass orders are
    shuffled per curve.  No planarity is implied or needed."""
    points: dict[str, CrossingPoint] = {}
    visits: dict[int, list[str]] = {i: [] for i in range(n_curves)}

    def new_point(prefix: str) -> str:
        pid = f"{prefix}{len(points)}"
        points[pid] = CrossingPoint(pid, 1 if rng.random() < 0.5 else -1)
        return pid

    for i in range(n_curves):
        for j in range(i + 1, n_curves):
            for _ in range(int(rng.integers(0, max_pair_crossings + 1))):
                pid = new_point("x")
                visits[i].append(pid)
                visits[j].append(pid)
    for i in range(n_curves):
        if rng.random() < self_crossing_prob:
            pid = new_point("s")
            visits[i] += [pid, pid]
    curves = {}
    for i in range(n_curves):
        ps = visits[i]
        perm = rng.permutation(len(ps)) if ps else []
        curves[f"C{i}"] = Curve(f"C{i}", tuple(ps[k] for k in perm))
    return Diagram(curves=curves, points=points)


def random_factors(
    rng: np.random.Generator, order: int, allow_duplicates: bool = True
) -> tuple[Diagram, FormalSum, FormalSum]:
    """Random diagram split into two star factors (monomials)."""
    n_f = int(rng.integers(1, 3))
    n_g = int(rng.integers(1, 3))
    d = random_diagram(rng, n_curves=n_f + n_g)
    names = list(d.curves)
    f_loops = [d.loop_of(c) for c in names[:n_f]]
    g_loops = [d.loop_of(c) for c in names[n_f:]]
    if allow_duplicates and rng.random() < 0.25:
        f_loops.append(f_loops[0])
    f = FormalSum.of(monomial(f_loops), order)
    g = FormalSum.of(monomial(g_loops), order)
    return d, f, g


# Two curves crossing twice with opposite signs: the slide-move configuration.
R2_PAIR = "point p +\npoint q -\ncurve C level 1: p q\ncurve D level 0: q p\n"


def r2_pair_diagram() -> Diagram:
    return parse_diagram(R2_PAIR)


FAMILIES = {
    "sl2": (GroupSpec("su2"), GroupSpec("sl2r"), GroupSpec("sl2c")),
    "gln": (GroupSpec("gln", 2), GroupSpec("gln", 3), GroupSpec("un", 2)),
}


# -- suites ---------------------------------------------------------------------


def check_series_ring(seed: int = 0) -> CheckResult:
    trials, order = 40, 6
    rng = np.random.default_rng(seed)

    def rand_series():
        return SeriesCoeff(
            [Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 8))) for _ in range(order + 1)]
        )

    ok = True
    for _ in range(trials):
        a, b, c = rand_series(), rand_series(), rand_series()
        ok &= (a * b) * c == a * (b * c)
        ok &= a * (b + c) == a * b + a * c
        ok &= a * b == b * a
        ok &= a * SeriesCoeff.one(order) == a
        ok &= (a - a).is_zero()
    return CheckResult("series-ring-axioms", bool(ok), f"{trials} random triples, order {order}")


def check_crossing_tables(seed: int = 0) -> CheckResult:
    order = 8
    failures = []
    su2 = GroupSpec("su2")
    for grp in (su2, GroupSpec("sl2r"), GroupSpec("gln", 2), GroupSpec("gln", 3), GroupSpec("un", 2)):
        for ctype, sgn in (("over", 1), ("under", -1)):
            cc = crossing_coeffs(grp, ctype, order)
            if cc.virtual[0] != 1 or cc.smooth[0] != 0:
                failures.append(f"{grp}/{ctype}: h^0 slot")
            want_v1 = Fraction(-sgn, 2) if grp.orientation_free else Fraction(0)
            if cc.virtual[1] != want_v1 or cc.smooth[1] != sgn:
                failures.append(f"{grp}/{ctype}: h^1 slot")
            # generator exponential reproduces the closed-form series
            f, g = exp_generator(grp, ctype, order)
            if f != cc.virtual or g != cc.smooth:
                failures.append(f"{grp}/{ctype}: generator exponential")
    # framing: gl(2) = e^{±h/2} * su2, slotwise
    for ctype, sgn in (("over", 1), ("under", -1)):
        fr = exp_series(Fraction(sgn, 2), order)
        gl2 = crossing_coeffs(GroupSpec("gln", 2), ctype, order)
        s2 = crossing_coeffs(su2, ctype, order)
        if gl2.virtual != fr * s2.virtual or gl2.smooth != fr * s2.smooth:
            failures.append(f"framing {ctype}")
    # over/under generator exponentials compose to the identity
    for grp in (su2, GroupSpec("gln", 3)):
        mo = exp_generator_matrix(grp, "over", order)
        mu = exp_generator_matrix(grp, "under", order)
        for i in range(2):
            for j in range(2):
                acc = SeriesCoeff.zero(order)
                for t in range(2):
                    acc = acc + mo[i][t] * mu[t][j]
                want = SeriesCoeff.one(order) if i == j else SeriesCoeff.zero(order)
                if acc != want:
                    failures.append(f"{grp}: over*under composition ({i},{j})")
    passed = not failures
    return CheckResult("crossing-tables", passed, "; ".join(failures) or "h-slots, generators, framing, composition")


def check_trace_identities(seed: int = 0) -> CheckResult:
    samples = 200
    rng = np.random.default_rng(seed)
    worst = 0.0
    for grp in (GroupSpec("su2"), GroupSpec("sl2r"), GroupSpec("gln", 2), GroupSpec("gln", 3), GroupSpec("un", 2)):
        basis = holonomy.lie_basis(grp)
        for _ in range(samples):
            u = holonomy.sample(grp, rng)
            v = holonomy.sample(grp, rng)
            worst = max(worst, holonomy.verify_gram_identity(grp, u, v, basis))
    sl2_worst = 0.0
    for grp in (GroupSpec("su2"), GroupSpec("sl2r")):
        for _ in range(samples):
            u = holonomy.sample(grp, rng)
            v = holonomy.sample(grp, rng)
            lhs = np.trace(u @ v) + np.trace(u @ np.linalg.inv(v))
            sl2_worst = max(sl2_worst, abs(lhs - np.trace(u) * np.trace(v)))
    passed = worst < 1e-9 and sl2_worst < 1e-10
    return CheckResult(
        "trace-identities", passed, f"gram residual {worst:.2e}, sl2 identity {sl2_worst:.2e}"
    )


def _bracket_direct_value(d, x, y, group, assign, basis):
    """Per-point functional-derivative sum: the bracket oracle."""
    total = 0j
    for _, eps, gx, gy in d.crossings_between(x, y):
        hx = holonomy.loop_matrix(x, assign, base_gap=gx)
        hy = holonomy.loop_matrix(y, assign, base_gap=gy)
        total += eps * holonomy.gram_pairing(group, hx, hy, basis)
    return total


def check_bracket_oracle(seed: int = 0) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    sl2_forms = 0.0
    for _ in range(6):
        d = random_diagram(rng, n_curves=2, self_crossing_prob=0.0)
        x, y = d.loop_of("C0"), d.loop_of("C1")
        for grp in (GroupSpec("gln", 2), GroupSpec("gln", 3), GroupSpec("su2"), GroupSpec("sl2r")):
            assign = holonomy.random_assignment(d, grp, rng)
            basis = holonomy.lie_basis(grp)
            direct = _bracket_direct_value(d, x, y, grp, assign, basis)
            alt = holonomy.eval_formal(goldman.bracket_loops(d, x, y, grp, "alt"), assign, 0.0)
            worst = max(worst, abs(alt - direct))
            if grp.orientation_free:
                b2 = goldman.bracket_loops(d, x, y, grp, "reversal")
                sl2_forms = max(sl2_forms, abs(alt - holonomy.eval_formal(b2, assign, 0.0)))
    passed = worst < 1e-9 and sl2_forms < 1e-10
    return CheckResult("bracket-oracle", passed, f"direct-sum residual {worst:.2e}, form gap {sl2_forms:.2e}")


def check_bracket_antisymmetry(seed: int = 0) -> CheckResult:
    trials = 6
    rng = np.random.default_rng(seed)
    ok = True
    for _ in range(trials):
        for grp in (GroupSpec("gln", 2), GroupSpec("su2")):
            d, f, g = random_factors(rng, 4)
            lhs = goldman.bracket_poly(d, f, g, grp)
            rhs = goldman.bracket_poly(d, g, f, grp)
            ok &= (lhs + rhs).is_zero()
    return CheckResult("bracket-antisymmetry", bool(ok), f"{trials} random pairs per group")


def check_poisson_limit(seed: int = 0) -> CheckResult:
    per_family, order = 8, 4
    rng = np.random.default_rng(seed)
    bad = 0
    for family, groups in FAMILIES.items():
        for k in range(per_family):
            grp = groups[k % len(groups)]
            d, f, g = random_factors(rng, order)
            res = poisson_limit_check(d, f, g, grp, order)
            if not res.is_zero():
                bad += 1
    return CheckResult(
        "poisson-limit", bad == 0, f"{2 * per_family} random diagrams, {bad} nonzero residuals"
    )


def check_associativity(seed: int = 0) -> CheckResult:
    order = 5
    rng = np.random.default_rng(seed)
    worst = 0.0
    sym_ok = True
    for k in range(3):
        for grp in (GroupSpec("su2"), GroupSpec("gln", 2)):
            d = random_diagram(rng, n_curves=3, max_pair_crossings=1, self_crossing_prob=0.2)
            u, v, w = (FormalSum.of(monomial([d.loop_of(c)]), order) for c in d.curves)
            assign = holonomy.random_assignment(d, grp, rng)
            res = assoc_check(d, u, v, w, grp, order, assign=assign)
            sym_ok &= res.level_residual.is_zero()
            if not grp.orientation_free:
                # rank-2 nestings may differ by trace-identity rewriting;
                # slotwise nested equality is an oriented-family property
                sym_ok &= res.nested_residual.is_zero()
            worst = max(worst, max(res.numeric.values()))
    passed = sym_ok and worst < 1e-9
    return CheckResult("associativity", passed, f"symbolic zero: {sym_ok}, numeric worst {worst:.2e}")


def check_resolution_order(seed: int = 0) -> CheckResult:
    order = 5
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(4):
        grp = GroupSpec("su2")
        d, f, g = random_factors(rng, order, allow_duplicates=False)
        loops = [(l, 1) for l in next(iter(f.terms))] + [(l, -1) for l in next(iter(g.terms))]
        st = Stacked(d, loops)
        k = len(st.active)
        fwd = expect_loops(d, loops, grp, order, resolution_order=list(range(k)))
        rev = expect_loops(d, loops, grp, order, resolution_order=list(reversed(range(k))))
        assign = holonomy.random_assignment(d, grp, rng)
        for beta in (0.01, 0.1, 0.5):
            worst = max(
                worst,
                abs(holonomy.eval_formal(fwd, assign, beta) - holonomy.eval_formal(rev, assign, beta)),
            )
    return CheckResult("resolution-order", worst < 1e-9, f"eval gap {worst:.2e} over orders and betas")


def check_jacobi(seed: int = 0) -> CheckResult:
    triples, order = 5, 4
    rng = np.random.default_rng(seed)
    worst = 0.0
    for k in range(triples):
        grp = (GroupSpec("gln", 2), GroupSpec("su2"), GroupSpec("gln", 3))[k % 3]
        d = random_diagram(rng, n_curves=3, max_pair_crossings=2, self_crossing_prob=0.0)
        f, g, h = (FormalSum.of(monomial([d.loop_of(c)]), order) for c in d.curves)
        assign = holonomy.random_assignment(d, grp, rng)
        total = 0j
        for a, b, c in ((f, g, h), (g, h, f), (h, f, g)):
            inner = goldman.bracket_poly(d, b, c, grp, order=order)
            outer = goldman.bracket_poly(d, a, inner, grp, order=order)
            total += holonomy.eval_formal(outer, assign, 0.0)
        worst = max(worst, abs(total))
    return CheckResult("jacobi", worst < 1e-8, f"cyclic sum worst {worst:.2e} over {triples} triples")


def check_kauffman(seed: int = 0) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    texts = [
        "point a +\ncurve C level 1: a\ncurve D level 0: a\n",
        R2_PAIR,
        "point p +\npoint q +\npoint r -\ncurve C level 1: p q r\ncurve D level 0: r q p\n",
    ]
    for text in texts:
        d = parse_diagram(text)
        for grp in (GroupSpec("su2"), GroupSpec("sl2r")):
            loops = [(d.loop_of(c), d.curves[c].level) for c in d.curves]
            fh = unoriented_kauffman_resolution(d, loops, grp, 10)
            oriented = expect_loops(d, loops, grp, 10)
            assign = holonomy.random_assignment(d, grp, rng)
            for beta in (0.0, 0.1):
                plain = holonomy.eval_formal(oriented, assign, beta)
                # per-loop sign normalization W -> -W: each monomial of |m|
                # loops takes (-1)^|m|, which is exact in float arithmetic
                signed = {m: (-c if len(m) % 2 else c).eval_h(2 * beta) for m, c in fh.terms.items()}
                normalized = holonomy.eval_complex_sum(signed, assign)
                worst = max(worst, abs(normalized - plain))
    return CheckResult("kauffman-unoriented", worst < 1e-10, f"normalized-vs-oriented gap {worst:.2e}")


def check_lattice(seed: int = 0) -> CheckResult:
    results = []
    for grp in (GroupSpec("gln", 2), GroupSpec("su2")):
        for direction in ("interior", "endpoint"):
            r4 = holonomy.lattice_derivative_check(grp, 64, direction, 1e-4, np.random.default_rng(seed))
            r5 = holonomy.lattice_derivative_check(grp, 64, direction, 1e-5, np.random.default_rng(seed))
            results.append((r4, r5))
    passed = all(r4 < 1e-3 and r5 < 1e-4 and r5 < r4 / 3 for r4, r5 in results)
    worst4 = max(r for r, _ in results)
    worst5 = max(r for _, r in results)
    return CheckResult("lattice-derivative", passed, f"residuals {worst4:.2e} @1e-4, {worst5:.2e} @1e-5")


def check_r2(seed: int = 0) -> CheckResult:
    """Expected-failure regression: the slide-move pair does NOT reduce to
    the crossing-free product at generic coupling."""
    beta = 0.5
    rng = np.random.default_rng(seed)
    d = r2_pair_diagram()
    grp = GroupSpec("su2")
    assign = holonomy.random_assignment(d, grp, rng)
    loops = [(d.loop_of(c), d.curves[c].level) for c in d.curves]
    resolved = expect_values(d, loops, grp, beta)
    value = holonomy.eval_complex_sum(resolved, assign)
    bare = holonomy.eval_monomial(monomial([d.loop_of("C"), d.loop_of("D")]), assign)
    gap = abs(value - bare)
    return CheckResult("r2-noninvariance", gap > 1e-3, f"|resolved - bare| = {gap:.3e} at beta={beta}")


SUITES = {
    "series": check_series_ring,
    "coeffs": check_crossing_tables,
    "trace": check_trace_identities,
    "bracket": check_bracket_oracle,
    "antisymmetry": check_bracket_antisymmetry,
    "poisson": check_poisson_limit,
    "assoc": check_associativity,
    "order": check_resolution_order,
    "jacobi": check_jacobi,
    "kauffman": check_kauffman,
    "lattice": check_lattice,
    "r2": check_r2,
}


def run_all(seed: int = 0) -> list[CheckResult]:
    return [fn(seed) for fn in SUITES.values()]
