"""Coefficient ring and crossing table tests.

Series values are frozen against an independent sympy Taylor oracle; the
generator matrices are recovered by ODE matching with finite differences of
the closed forms, never read back from the implementation.
"""

import copy
import hashlib
import math
import pickle
import re
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from loopstar.coeff import (
    MAX_ORDER,
    CoeffError,
    GroupSpec,
    SeriesCoeff,
    closed_crossing_values,
    closed_form_strings,
    crossing_coeffs,
    derived_generator,
    exp_generator,
    exp_generator_matrix,
    exp_series,
    kauffman_coeffs,
    kauffman_values,
    series_hyperbolic,
)
from loopstar.diagram import FormalSum

K = 8

rationals = st.fractions(
    min_value=Fraction(-20), max_value=Fraction(20), max_denominator=12
)
series = st.lists(rationals, min_size=K + 1, max_size=K + 1).map(SeriesCoeff)


@settings(max_examples=60, deadline=None)
@given(series, series, series)
def test_ring_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert a + b == b + a
    assert a * SeriesCoeff.one(K) == a
    assert (a - a).is_zero()
    assert (-a) + a == SeriesCoeff.zero(K)


# -- the integer-numerator kernel against naive Fraction lists ---------------------

# small rationals exercise cancellation; huge ones exercise int rounding in eval_h
wide_rationals = st.one_of(
    rationals,
    st.builds(Fraction, st.integers(-(10**40), 10**40), st.integers(1, 10**40)),
)


def coeff_lists(n):
    return st.lists(wide_rationals, min_size=n + 1, max_size=n + 1)


same_order_pairs = st.integers(0, 6).flatmap(lambda n: st.tuples(coeff_lists(n), coeff_lists(n)))


def naive_mul(a, b):
    out = [Fraction(0)] * len(a)
    for i, x in enumerate(a):
        for j, y in enumerate(b[: len(a) - i]):
            out[i + j] += x * y
    return out


def naive_horner(coeffs, h):
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * h + float(c)
    return acc


def assert_normalized(s, want):
    assert s.coeffs == tuple(want) and all(type(c) is Fraction for c in s.coeffs)
    assert s.den > 0 and math.gcd(s.den, *s.num) == 1
    assert all(type(a) is int for a in s.num) and type(s.den) is int
    if not any(want):
        assert s.den == 1
    fresh = SeriesCoeff(want)
    assert s == fresh and hash(s) == hash(fresh)


@settings(max_examples=150, deadline=None)
@given(same_order_pairs)
def test_kernel_matches_naive_fraction_arithmetic(pair):
    a, b = pair
    x, y = SeriesCoeff(a), SeriesCoeff(b)
    assert_normalized(x, a)
    assert_normalized(x + y, [p + q for p, q in zip(a, b)])
    assert_normalized(x - y, [p - q for p, q in zip(a, b)])
    assert_normalized(-x, [-p for p in a])
    assert_normalized(x * y, naive_mul(a, b))
    assert_normalized(x - x, [0] * len(a))
    for k in range(-1, len(a) + 2):
        assert x[k] == (a[k] if 0 <= k < len(a) else 0)
    for order in range(len(a)):
        assert_normalized(x.truncate(order), a[: order + 1])
    for order in (len(a), len(a) + 1):
        with pytest.raises(CoeffError, match=f"^cannot extend a series of order {len(a) - 1} to order {order}$"):
            x.truncate(order)
    assert (x == y) == (a == b)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 6).flatmap(coeff_lists), st.one_of(st.integers(-50, 50), wide_rationals))
def test_kernel_coerces_ints_and_fractions(a, c):
    x = SeriesCoeff(a)
    const = [Fraction(c)] + [Fraction(0)] * (len(a) - 1)
    for got, want in (
        (x + c, [p + q for p, q in zip(a, const)]),
        (c + x, [p + q for p, q in zip(a, const)]),
        (x - c, [p - q for p, q in zip(a, const)]),
        (c - x, [q - p for p, q in zip(a, const)]),
        (x * c, naive_mul(a, const)),
        (c * x, naive_mul(a, const)),
    ):
        assert_normalized(got, want)
    assert x.is_one() == (a == [1] + [0] * (len(a) - 1))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 8).flatmap(coeff_lists),
    st.one_of(
        st.floats(-4, 4, allow_nan=False),
        st.builds(complex, st.floats(-4, 4, allow_nan=False), st.floats(-4, 4, allow_nan=False)),
    ),
)
def test_eval_h_is_the_fraction_horner_loop_bit_for_bit(a, h):
    got = SeriesCoeff(a).eval_h(h)
    want = naive_horner(a, h)
    assert (got.real, got.imag) == (want.real, want.imag)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 8).flatmap(lambda n: st.lists(
    st.one_of(wide_rationals, st.integers(-(10**40), 10**40), st.integers(-3, 3)), min_size=n + 1, max_size=n + 1)))
def test_strings_are_the_fraction_strings(a):
    """strings() formats p/q from num and den with its own gcd; it must give
    the bytes of str(Fraction), integers and zero as "p" without "/1"."""
    x = SeriesCoeff(a)
    assert x.strings() == [str(Fraction(p, x.den)) for p in x.num] == [str(Fraction(c)) for c in a]


@settings(max_examples=30, deadline=None)
@given(same_order_pairs, st.integers(1, 3))
def test_kernel_rejects_mismatched_orders(pair, extra):
    a, b = pair
    x, y = SeriesCoeff(a), SeriesCoeff(b + [Fraction(0)] * extra)
    for op in (lambda p, q: p + q, lambda p, q: p - q, lambda p, q: p * q):
        with pytest.raises(CoeffError, match="order mismatch"):
            op(x, y)
        with pytest.raises(CoeffError, match="order mismatch"):
            op(y, x)


def test_kernel_stored_form_examples():
    s = SeriesCoeff([Fraction(1, 2), Fraction(1, 3), 0])
    assert (s.num, s.den) == ((3, 2, 0), 6)
    half = SeriesCoeff([Fraction(1, 2), Fraction(1, 2)])
    assert ((half + half).num, (half + half).den) == ((1, 1), 1)
    assert (SeriesCoeff.zero(3).num, SeriesCoeff.zero(3).den) == ((0, 0, 0, 0), 1)
    with pytest.raises(AttributeError):
        s.den = 1
    assert SeriesCoeff.one(3).is_one() and SeriesCoeff([1]).is_one()
    assert not any(c.is_one() for c in (SeriesCoeff([1, 1]), SeriesCoeff([1, 0, Fraction(1, 3)]), SeriesCoeff([2])))


def sympy_series(expr, h, order):
    """Taylor coefficients of a sympy expression as exact Fractions."""
    poly = sp.series(expr, h, 0, order + 1).removeO()
    return [Fraction(str(sp.nsimplify(poly.coeff(h, k)))) for k in range(order + 1)]


def test_series_hyperbolic_examples():
    cosh3 = series_hyperbolic("cosh_scaled", 3, 3)
    assert list(cosh3.coeffs) == [1, 0, Fraction(3, 8), 0]
    sor3 = series_hyperbolic("sinh_over_root", 3, 3)
    assert list(sor3.coeffs) == [0, Fraction(1, 2), 0, Fraction(1, 16)]
    assert sor3[0] == 0  # sinh(0) = 0


def test_series_hyperbolic_against_sympy():
    h = sp.Symbol("h")
    for delta in (3, Fraction(17, 4), Fraction(6, 1)):
        ds = sp.Rational(delta.numerator, delta.denominator) if isinstance(delta, Fraction) else delta
        want_cosh = sympy_series(sp.cosh(sp.sqrt(ds) * h / 2), h, K)
        got = series_hyperbolic("cosh_scaled", delta, K)
        assert list(got.coeffs) == want_cosh
        want_sor = sympy_series(sp.sinh(sp.sqrt(ds) * h / 2) / sp.sqrt(ds), h, K)
        got = series_hyperbolic("sinh_over_root", delta, K)
        assert list(got.coeffs) == want_sor


def test_series_hyperbolic_validation():
    with pytest.raises(CoeffError):
        series_hyperbolic("cosh_scaled", 3, -1)
    # order 0 is the constant term alone
    assert list(series_hyperbolic("cosh_scaled", 3, 0).coeffs) == [1]
    assert list(series_hyperbolic("sinh_over_root", 3, 0).coeffs) == [0]
    with pytest.raises(CoeffError):
        series_hyperbolic("cosh_scaled", -1, 4)
    with pytest.raises(CoeffError):
        series_hyperbolic("tanh", 3, 4)


@pytest.mark.parametrize("kind,n", [("su2", 2), ("sl2r", 2), ("sl2c", 2), ("gln", 2), ("gln", 3), ("un", 2), ("un", 3)])
@pytest.mark.parametrize("ctype", ["over", "under"])
def test_crossing_coeffs_against_sympy(kind, n, ctype):
    h = sp.Symbol("h")
    group = GroupSpec(kind, n)
    beta = h / 2
    sgn = 1 if ctype == "over" else -1
    if kind in ("su2", "sl2r", "sl2c"):
        rt = sp.sqrt(3)
        virt = sp.cosh(rt * beta) - sgn * sp.sinh(rt * beta) / rt
        smooth = sgn * 2 * sp.sinh(rt * beta) / rt
    else:
        dn = sp.Rational(n * n, 4) + 2
        rt = sp.sqrt(dn)
        fr = sp.exp(sgn * beta * sp.Rational(n, 2))
        virt = fr * (sp.cosh(rt * beta) - sgn * sp.Rational(n, 2) * sp.sinh(rt * beta) / rt)
        smooth = fr * sgn * 2 * sp.sinh(rt * beta) / rt
    cc = crossing_coeffs(group, ctype, K)
    assert list(cc.virtual.coeffs) == sympy_series(virt, h, K)
    assert list(cc.smooth.coeffs) == sympy_series(smooth, h, K)


@pytest.mark.parametrize("kind,n", [("su2", 2), ("sl2r", 2), ("gln", 3), ("un", 2)])
@pytest.mark.parametrize("ctype", ["over", "under"])
def test_zero_coupling_identity(kind, n, ctype):
    cc = crossing_coeffs(GroupSpec(kind, n), ctype, K)
    assert cc.virtual[0] == 1
    assert cc.smooth[0] == 0


def test_h1_slots():
    su2 = crossing_coeffs(GroupSpec("su2"), "over", K)
    assert (su2.virtual[1], su2.smooth[1]) == (Fraction(-1, 2), Fraction(1))
    gl3 = crossing_coeffs(GroupSpec("gln", 3), "over", K)
    assert (gl3.virtual[1], gl3.smooth[1]) == (Fraction(0), Fraction(1))
    su2u = crossing_coeffs(GroupSpec("su2"), "under", K)
    assert (su2u.virtual[1], su2u.smooth[1]) == (Fraction(1, 2), Fraction(-1))


def test_gl2_framing_relation():
    for ctype, sgn in (("over", 1), ("under", -1)):
        gl2 = crossing_coeffs(GroupSpec("gln", 2), ctype, K)
        su2 = crossing_coeffs(GroupSpec("su2"), ctype, K)
        fr = exp_series(Fraction(sgn, 2), K)
        assert gl2.virtual == fr * su2.virtual
        assert gl2.smooth == fr * su2.smooth


def test_order_zero_table():
    cc = crossing_coeffs(GroupSpec("su2"), "over", 0)
    assert list(cc.virtual.coeffs) == [1]
    assert list(cc.smooth.coeffs) == [0]


def test_eval_at_closed_and_series():
    su2 = GroupSpec("su2")
    v0, s0 = closed_crossing_values(su2, "over", 0.0)
    assert s0 == 0.0 and v0 == 1.0
    # independent evaluation through exponentials
    r3 = math.sqrt(3.0)
    ch = (math.exp(r3) + math.exp(-r3)) / 2
    sh = (math.exp(r3) - math.exp(-r3)) / 2
    v1, s1 = closed_crossing_values(su2, "over", 1.0)
    assert abs(v1 - (ch - sh / r3)) < 1e-12
    assert abs(s1 - 2 * sh / r3) < 1e-12
    assert abs(v1 - 1.3339908766092596) < 1e-12
    # truncation error stays below 1e-10 at small coupling
    cc = crossing_coeffs(su2, "over", K)
    for beta in (0.05, -0.05):
        vc, sc = closed_crossing_values(su2, "over", beta)
        assert abs(cc.virtual.eval_h(2 * beta) - vc) < 1e-10
        assert abs(cc.smooth.eval_h(2 * beta) - sc) < 1e-10


def _ode_match(group, ctype):
    """Recover the generator by differentiating the closed forms and solving
    a 2x2 linear system at two sample couplings."""
    eps = 1e-6

    def fg(beta):
        return np.array(closed_crossing_values(group, ctype, beta)).real

    rows, rhs_f, rhs_g = [], [], []
    for beta in (0.23, 0.71):
        f, g = fg(beta)
        fp, gp = (fg(beta + eps) - fg(beta - eps)) / (2 * eps)
        rows.append([f, g])
        rhs_f.append(fp)
        rhs_g.append(gp)
    rows = np.array(rows)
    a, c = np.linalg.solve(rows, rhs_f)
    b, dd = np.linalg.solve(rows, rhs_g)
    return a, b, c, dd


@pytest.mark.parametrize("kind,n,want", [
    ("su2", 2, (-1, 2, 1, 1)),
    ("sl2r", 2, (-1, 2, 1, 1)),
    ("gln", 2, (0, 2, 1, 2)),
    ("gln", 3, (0, 2, 1, 3)),
    ("un", 4, (0, 2, 1, 4)),
])
def test_derived_generator_ode_oracle(kind, n, want):
    group = GroupSpec(kind, n)
    est = _ode_match(group, "over")
    assert np.allclose(est, want, atol=1e-4)
    m = derived_generator(group, "over")
    assert (m[0][0], m[1][0], m[0][1], m[1][1]) == tuple(Fraction(x) for x in want)
    # under-generator is the negation
    mu = derived_generator(group, "under")
    assert all(mu[i][j] == -m[i][j] for i in range(2) for j in range(2))
    est_u = _ode_match(group, "under")
    assert np.allclose(est_u, [-x for x in want], atol=1e-4)


@pytest.mark.parametrize("kind,n", [("su2", 2), ("gln", 3)])
@pytest.mark.parametrize("ctype", ["over", "under"])
def test_exp_generator_matches_tables(kind, n, ctype):
    group = GroupSpec(kind, n)
    f, g = exp_generator(group, ctype, K)
    cc = crossing_coeffs(group, ctype, K)
    assert f == cc.virtual
    assert g == cc.smooth


@pytest.mark.parametrize("kind,n", [("su2", 2), ("gln", 3)])
def test_exp_generator_numeric_oracle(kind, n):
    # scipy expm of the generator at a concrete coupling agrees with the
    # closed forms
    group = GroupSpec(kind, n)
    m = np.array(derived_generator(group, "over"), dtype=float)
    beta = 0.3
    col = expm(beta * m) @ np.array([1.0, 0.0])
    v, s = closed_crossing_values(group, "over", beta)
    assert abs(col[0] - v) < 1e-12
    assert abs(col[1] - s) < 1e-12


def test_over_under_exponentials_compose_to_identity():
    for group in (GroupSpec("su2"), GroupSpec("gln", 3)):
        mo = exp_generator_matrix(group, "over", K)
        mu = exp_generator_matrix(group, "under", K)
        for i in range(2):
            for j in range(2):
                acc = SeriesCoeff.zero(K)
                for t in range(2):
                    acc = acc + mo[i][t] * mu[t][j]
                assert acc == (SeriesCoeff.one(K) if i == j else SeriesCoeff.zero(K))


def test_kauffman_coefficients():
    a, b = kauffman_coeffs(K)
    h = sp.Symbol("h")
    rt = sp.sqrt(3)
    assert list(a.coeffs) == sympy_series(-sp.cosh(rt * h / 2) - sp.sinh(rt * h / 2) / rt, h, K)
    assert list(b.coeffs) == sympy_series(-sp.cosh(rt * h / 2) + sp.sinh(rt * h / 2) / rt, h, K)
    av, bv = kauffman_values(0.0)
    assert av == -1.0 and bv == -1.0


def test_group_spec_invariants():
    assert GroupSpec("gln", 2).delta == 3 == GroupSpec("su2").delta
    assert GroupSpec("gln", 3).delta == Fraction(17, 4)
    assert GroupSpec("un", 4).delta == 6
    with pytest.raises(CoeffError):
        GroupSpec("so3")
    for kind, n in (("su2", 3), ("su2", 1), ("sl2r", 3), ("sl2c", 1)):
        with pytest.raises(CoeffError, match=f"^{kind} requires n=2$"):
            GroupSpec(kind, n)
    assert GroupSpec("sl2c").orientation_free
    assert not GroupSpec("un", 2).orientation_free


def test_truncate_never_extends_a_series():
    """Padding h^3..h^5 with zeros would claim terms the series never had."""
    s = SeriesCoeff([1, Fraction(1, 2), 3], order=2)
    assert s.truncate(2) == s
    with pytest.raises(CoeffError, match=r"^cannot extend a series of order 2 to order 5$"):
        s.truncate(5)


def test_series_misc():
    s = SeriesCoeff([1, 2, 3])
    assert s[1] == 2 and s[99] == 0
    assert s.truncate(1).coeffs == (1, 2)
    assert SeriesCoeff([0, 1], order=4).eval_h(2 * 0.5) == 1.0  # h = 2*beta
    with pytest.raises(CoeffError):
        SeriesCoeff([1, 2]) + SeriesCoeff([1, 2, 3])
    with pytest.raises(CoeffError):
        SeriesCoeff([0.5])


# -- golden digest of every coefficient table, generator and closed form --------

GOLDEN_GROUPS = (
    [GroupSpec("su2"), GroupSpec("sl2r"), GroupSpec("sl2c")]
    + [GroupSpec(kind, n) for kind in ("gln", "un") for n in range(1, 6)]
)
GOLDEN_BETAS = (-0.7, 0.0, 0.05, 0.1, 0.3, 0.5, 1.0, 2.5)


def coefficient_digest() -> str:
    """sha256 over the exact tables (num/den), the generator and its series
    exponential, the closed-form strings and the repr of the closed-form
    floats of every group, both crossing types and K = 0..10, plus the
    Kauffman coefficients and values."""
    digest = hashlib.sha256()

    def put(x):
        digest.update(repr(x).encode() + b"\n")

    def exact(s):
        return (s.num, s.den)

    for group in GOLDEN_GROUPS:
        put((str(group), group.delta))
        for ctype in ("over", "under"):
            put(derived_generator(group, ctype))
            put(closed_form_strings(group, ctype))
            for beta in GOLDEN_BETAS:
                put(closed_crossing_values(group, ctype, beta))
            for k in range(11):
                cc = crossing_coeffs(group, ctype, k)
                put((exact(cc.virtual), exact(cc.smooth)))
                put(tuple(tuple(exact(e) for e in row) for row in exp_generator_matrix(group, ctype, k)))
    for k in range(11):
        put(tuple(exact(s) for s in kauffman_coeffs(k)))
    for beta in GOLDEN_BETAS:
        put(kauffman_values(beta))
    return digest.hexdigest()


def test_coefficient_outputs_match_golden():
    # recorded from the per-kind closed forms before they were derived from
    # (c, f); any changed table entry, string or float bit fails here
    assert coefficient_digest() == "b1461c1b21a684aa0c07ca15222c2d74eb218af4a71b4b6276673dddb5afc267"


def _expect_loops_at(order):
    from loopstar.diagram import parse_diagram
    from loopstar.star import expect_loops

    d = parse_diagram("point x +\ncurve C level 1: x\ncurve D level 0: x\n")
    return expect_loops(d, [(d.loop_of("C"), 1), (d.loop_of("D"), -1)], GroupSpec("su2"), order)


ORDER_TAKERS = {
    "SeriesCoeff.zero": SeriesCoeff.zero,
    "SeriesCoeff.truncate": lambda order: SeriesCoeff.one(4).truncate(order),
    "crossing_coeffs": lambda order: crossing_coeffs(GroupSpec("su2"), "over", order),
    "series_hyperbolic": lambda order: series_hyperbolic("cosh_scaled", 3, order),
    "exp_series": lambda order: exp_series(1, order),
    "exp_generator": lambda order: exp_generator(GroupSpec("su2"), "over", order),
    "kauffman_coeffs": kauffman_coeffs,
    "expect_loops": _expect_loops_at,
    "FormalSum": lambda order: FormalSum(order=order),
    "FormalSum.of": lambda order: FormalSum.of((), order),
}


@pytest.mark.parametrize("order", [2.5, True, -1, "4", MAX_ORDER + 1, 10**20], ids=repr)
@pytest.mark.parametrize("taker", sorted(ORDER_TAKERS))
def test_one_order_rule_for_every_series_builder(taker, order):
    """Every builder of a series refuses an order that is not an int from
    0 to MAX_ORDER with the same CoeffError, a bool and a float included."""
    with pytest.raises(CoeffError, match=rf"^order must be an int >= 0 and <= {MAX_ORDER}, got {re.escape(repr(order))}$"):
        ORDER_TAKERS[taker](order)


RATIONAL_TAKERS = {
    "SeriesCoeff": lambda x: SeriesCoeff([x]),
    "SeriesCoeff.constant": lambda x: SeriesCoeff.constant(x, 2),
    "series_hyperbolic": lambda x: series_hyperbolic("cosh_scaled", x, 2),
    "exp_series": lambda x: exp_series(x, 2),
    "FormalSum": lambda x: FormalSum({(): x}, 2),
    "FormalSum.add_term": lambda x: FormalSum(order=2).add_term((), x),
    "FormalSum.scale": lambda x: FormalSum.of((), 2).scale(x),
}


@pytest.mark.parametrize("value", [0.1, 2.5, "1/2", None, 0.5j], ids=repr)
@pytest.mark.parametrize("taker", sorted(RATIONAL_TAKERS))
def test_one_exact_rational_rule_for_every_series_builder(taker, value):
    """Every builder of a series, and every FormalSum coefficient that is
    not a series, refuses a float, a string, None or a complex number with
    the same CoeffError, so no float's binary value, such as 0.1's, enters
    a series."""
    with pytest.raises(CoeffError, match=rf"^expected exact rational, got {type(value).__name__}$"):
        RATIONAL_TAKERS[taker](value)


@pytest.mark.parametrize("value", [True, False], ids=repr)
@pytest.mark.parametrize("taker", sorted(RATIONAL_TAKERS))
def test_a_bool_is_not_an_exact_rational(taker, value):
    """A bool is refused as the order rule refuses it, although it is an
    int: SeriesCoeff([True]) is not the series 1."""
    with pytest.raises(CoeffError, match=r"^expected exact rational, got bool$"):
        RATIONAL_TAKERS[taker](value)


@pytest.mark.parametrize("n", [True, 2.5, 2.0, "2"], ids=repr)
@pytest.mark.parametrize("kind", ["gln", "un", "su2"])
def test_group_spec_takes_an_int_matrix_size_only(kind, n):
    """GroupSpec("gln", True) would print as gln(True), and 2.5 is no
    matrix size."""
    with pytest.raises(CoeffError, match=rf"^matrix size must be an int, got {re.escape(repr(n))}$"):
        GroupSpec(kind, n)


@pytest.mark.parametrize("make,message", [
    (lambda: GroupSpec("gln", 0), "matrix size must be >= 1"),
    (lambda: crossing_coeffs(GroupSpec("su2"), "sideways"), "crossing type must be 'over' or 'under', got 'sideways'"),
    (lambda: SeriesCoeff([]), "empty coefficient list without explicit order"),
], ids=["gln-0", "sideways-crossing", "empty-series"])
def test_coefficient_domain_errors(make, message):
    with pytest.raises(CoeffError) as e:
        make()
    assert str(e.value) == message


def test_series_repr_lists_the_nonzero_slots_and_the_order():
    assert repr(SeriesCoeff([1, Fraction(-1, 2), 0, 3])) == "SeriesCoeff(1*h^0 + -1/2*h^1 + 3*h^3; K=3)"
    assert repr(SeriesCoeff.zero(2)) == "SeriesCoeff(0; K=2)"


@pytest.mark.parametrize("how", ["copy", "deepcopy", "pickle"])
def test_a_series_copies_and_pickles_as_its_value(how):
    """A copy is rebuilt from num and den: an equal, immutable value with
    the same hash, and a hashed series pickles as a fresh one does."""
    c = SeriesCoeff([3, Fraction(-1, 6), 0, 10**30], order=4)
    fresh = pickle.dumps(SeriesCoeff(c.coeffs))
    h = hash(c)
    out = {"copy": copy.copy, "deepcopy": copy.deepcopy, "pickle": lambda x: pickle.loads(pickle.dumps(x))}[how](c)
    assert type(out) is SeriesCoeff and out == c and (out.num, out.den) == (c.num, c.den)
    assert hash(out) == h
    assert pickle.dumps(c) == fresh
    with pytest.raises(AttributeError, match="immutable"):
        out.den = 2
