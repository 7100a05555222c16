"""Numeric oracle tests: samplers, bases, Wilson evaluation, derivative
lattice checks."""

import math

import numpy as np
import pytest
from scipy.linalg import expm  # the reference for _expm; scipy is a test-only dependency

import loopstar.holonomy as holonomy
from loopstar.checks import random_diagram
from loopstar.coeff import GroupSpec, SeriesCoeff
from loopstar.diagram import FormalSum, canonical, monomial, parse_diagram, reverse
from loopstar.goldman import bracket_poly
from loopstar.holonomy import (
    _expm,
    _wilson_values,
    HolonomyAssignment,
    HolonomyError,
    eval_complex_sum,
    eval_formal,
    eval_monomial,
    eval_wilson,
    gram_pairing,
    lattice_derivative_check,
    lie_basis,
    loop_matrix,
    projection_pi,
    random_assignment,
    sample,
    verify_gram_identity,
)
from loopstar.star import star

GROUPS = [GroupSpec("su2"), GroupSpec("sl2r"), GroupSpec("sl2c"),
          GroupSpec("gln", 2), GroupSpec("gln", 3), GroupSpec("un", 2), GroupSpec("un", 3)]


@pytest.mark.parametrize("group", GROUPS, ids=str)
def test_sampler_membership(group):
    rng = np.random.default_rng(7)
    for _ in range(20):
        u = sample(group, rng)
        assert u.shape == (group.n, group.n)
        if group.kind in ("su2", "sl2r", "sl2c"):
            assert abs(np.linalg.det(u) - 1) < 1e-12
        if group.kind == "sl2r":
            assert np.max(np.abs(u.imag)) < 1e-14
        if group.kind in ("su2", "un"):
            assert np.max(np.abs(u.conj().T @ u - np.eye(group.n))) < 1e-12
        if group.kind == "gln":
            assert abs(np.linalg.det(u)) > 1e-6


def test_sampler_deterministic_under_seed():
    for group in (GroupSpec("su2"), GroupSpec("gln", 3)):
        a = sample(group, np.random.default_rng(123))
        b = sample(group, np.random.default_rng(123))
        assert np.array_equal(a, b)


def test_eval_wilson_identity_assignment():
    d = parse_diagram("point a +\npoint b -\ncurve C level 0: a b a b\ncurve D level 0:\n")
    group = GroupSpec("gln", 3)
    A = HolonomyAssignment(group, {a.id: np.eye(3, dtype=complex) for a in d.all_arcs()})
    assert eval_wilson(d.loop_of("C"), A) == 3.0  # loop of length 4, trace of I
    assert eval_wilson(d.loop_of("D"), A) == 3.0  # single free arc


def test_eval_wilson_rotation_independence():
    d = parse_diagram("point a +\npoint b -\ncurve C level 0: a b a b\n")
    rng = np.random.default_rng(1)
    A = random_assignment(d, GroupSpec("gln", 2), rng)
    loop = d.loop_of("C")
    vals = [np.trace(loop_matrix(loop, A, base_gap=g)) for g in range(len(loop))]
    assert max(abs(v - vals[0]) for v in vals) < 1e-13


def test_eval_formal_linearity():
    d = parse_diagram("point a +\ncurve C level 1: a\ncurve D level 0: a\n")
    rng = np.random.default_rng(5)
    A = random_assignment(d, GroupSpec("su2"), rng)
    mC = monomial([d.loop_of("C")])
    mD = monomial([d.loop_of("D")])
    assert eval_formal(FormalSum.zero(4), A, 0.3) == 0
    single = FormalSum.of(mC, 4)
    assert abs(eval_formal(single, A, 0.3) - eval_wilson(d.loop_of("C"), A)) < 1e-12
    fs = FormalSum(order=4)
    fs.add_term(mC, SeriesCoeff([2, 1], order=4))
    fs.add_term(mD, SeriesCoeff([0, 0, 3], order=4))
    beta = 0.25
    want = (2 + 2 * beta) * eval_wilson(d.loop_of("C"), A) + 3 * (2 * beta) ** 2 * eval_wilson(d.loop_of("D"), A)
    assert abs(eval_formal(fs, A, beta) - want) < 1e-12
    missing = HolonomyAssignment(A.group, {})
    with pytest.raises(HolonomyError):
        eval_formal(single, missing, 0.0)


BATCH_GROUPS = [GroupSpec("su2"), GroupSpec("sl2r"), GroupSpec("sl2c"), GroupSpec("gln", 1),
                GroupSpec("gln", 2), GroupSpec("gln", 3), GroupSpec("gln", 4), GroupSpec("un", 2)]


def per_loop(loop, assign) -> complex:
    """The per-loop reference: trace of eye @ m0 @ m1 ... for this loop alone."""
    return complex(np.trace(loop_matrix(loop, assign)))


def batch_sums(group: GroupSpec, seed: int):
    """A seeded 3-curve diagram, its assignment, and u*v, (u*v)*w and the
    reversal-form bracket_poly(u*v, w) at K=3."""
    rng = np.random.default_rng(seed)
    d = random_diagram(rng, n_curves=3)
    conv = group.convention
    u, v, w = (FormalSum.of(monomial([canonical(d.loop_of(c).word, conv)]), 3) for c in d.curves)
    uv = star(d, u, v, group, 3)
    sums = (uv, star(d, uv, w, group, 3), bracket_poly(d, uv, w, group, "reversal"))
    return d, random_assignment(d, group, rng), sums


@pytest.mark.parametrize("seed", (0, 1, 2))
@pytest.mark.parametrize("group", BATCH_GROUPS, ids=str)
def test_batch_wilson_values_equal_the_per_loop_product_bit_for_bit(group, seed):
    """One stacked product over loops of many lengths, reversed entries
    included, gives each loop exactly the per-loop value (==, not isclose),
    and so does every evaluation built on it."""
    d, assign, sums = batch_sums(group, seed)
    loops = list(dict.fromkeys(loop for fs in sums for m in fs.terms for loop in m))
    arcs = d.all_arcs()
    loops = list(dict.fromkeys(loops + [reverse(loop) for loop in loops]
                               + [canonical([(a, s)]) for a in arcs[:3] for s in (1, -1)]))
    assert len({len(loop) for loop in loops}) >= 3  # padding is exercised
    assert any(s == -1 for loop in loops for _, s in loop.word)  # so is inversion
    values = _wilson_values(loops, assign)
    assert list(values) == loops
    for loop in loops:
        assert values[loop] == per_loop(loop, assign), loop
        assert eval_wilson(loop, assign) == per_loop(loop, assign), loop
    for fs in sums:
        numeric = {m: c.eval_h(2 * 0.05) for m, c in fs.terms.items()}
        want = 0j
        for m, c in numeric.items():
            value = 1.0 + 0j
            for loop in m:
                value *= per_loop(loop, assign)
            assert eval_monomial(m, assign) == value, m
            want += c * value
        assert eval_formal(fs, assign, 0.05) == want == eval_complex_sum(numeric, assign)


def test_batch_of_the_empty_sum():
    _, assign, _ = batch_sums(GroupSpec("su2"), 0)
    assert _wilson_values([], assign) == {}
    assert repr(eval_formal(FormalSum.zero(3), assign, 0.05)) == repr(0j)
    assert repr(eval_complex_sum({}, assign)) == repr(0j)


@pytest.mark.parametrize("beta", [math.inf, -math.inf, math.nan], ids=repr)
def test_eval_formal_refuses_a_non_finite_coupling(beta):
    """At beta = inf or nan every value would be nan+nanj; it is a domain
    error instead, the empty sum included."""
    _, assign, (uv, *_) = batch_sums(GroupSpec("gln", 2), 0)
    for fs in (uv, FormalSum.zero(3)):
        with pytest.raises(HolonomyError, match="beta must be finite"):
            eval_formal(fs, assign, beta)


@pytest.mark.parametrize("beta", [1e200, 1e308, -1e308], ids=repr)
def test_eval_formal_refuses_a_float_overflow(beta):
    """At a finite beta whose powers of h = 2*beta overflow, the series
    values become inf and their sum nan+nanj; that is a domain error too."""
    _, assign, (uv, *_) = batch_sums(GroupSpec("su2"), 0)
    with pytest.raises(HolonomyError, match="overflows"):
        eval_formal(uv, assign, beta)


def test_projection_pi():
    rng = np.random.default_rng(11)
    gl3 = GroupSpec("gln", 3)
    u = sample(gl3, rng)
    assert np.array_equal(projection_pi(gl3, u), u)
    su2 = GroupSpec("su2")
    assert np.max(np.abs(projection_pi(su2, np.eye(2, dtype=complex)))) == 0
    for kind in ("sl2r", "sl2c", "su2"):
        g = GroupSpec(kind)
        u, v = sample(g, rng), sample(g, rng)
        lhs = np.trace(projection_pi(g, u) @ projection_pi(g, v))
        want = np.trace(u @ v) - 0.5 * np.trace(u) * np.trace(v)
        assert abs(lhs - want) < 1e-10


@pytest.mark.parametrize("group", GROUPS, ids=str)
def test_gram_identity(group):
    rng = np.random.default_rng(13)
    basis = lie_basis(group)
    k = len(basis.basis)
    assert np.max(np.abs(basis.gram_inv @ basis.gram - np.eye(k))) < 1e-12
    for _ in range(50):
        u, v = sample(group, rng), sample(group, rng)
        assert verify_gram_identity(group, u, v, basis) < 1e-10


def test_gram_identity_basis_independence():
    # su(2) and sl(2) bases complex-span the same algebra, so the pairing
    # must agree between them
    rng = np.random.default_rng(17)
    su2, sl2 = GroupSpec("su2"), GroupSpec("sl2c")
    b1, b2 = lie_basis(su2), lie_basis(sl2)
    for _ in range(20):
        u, v = sample(su2, rng), sample(su2, rng)
        p1 = gram_pairing(su2, u, v, b1)
        p2 = gram_pairing(sl2, u, v, b2)
        assert abs(p1 - p2) < 1e-10


def test_gram_identity_un_reduces_to_trace():
    # the real u(n) basis complex-spans gl(n): the pairing is tr(UV)
    rng = np.random.default_rng(19)
    un = GroupSpec("un", 3)
    basis = lie_basis(un)
    for _ in range(20):
        u, v = sample(un, rng), sample(un, rng)
        assert abs(gram_pairing(un, u, v, basis) - np.trace(u @ v)) < 1e-10


def test_sl2_trace_identity():
    rng = np.random.default_rng(23)
    for kind in ("su2", "sl2r", "sl2c"):
        g = GroupSpec(kind)
        for _ in range(100):
            u, v = sample(g, rng), sample(g, rng)
            lhs = np.trace(u @ v) + np.trace(u @ np.linalg.inv(v))
            assert abs(lhs - np.trace(u) * np.trace(v)) < 1e-10


def test_lattice_flat_connection():
    # all fields zero: interior derivative of tr hol reduces exactly to
    # tr(e_a) up to the O(step) quadratic term
    group = GroupSpec("gln", 2)
    res = lattice_derivative_check(group, 8, "interior", 1e-6, np.random.default_rng(0), field_scale=0.0)
    assert res < 1e-5


@pytest.mark.parametrize("group", [GroupSpec("gln", 2), GroupSpec("su2")], ids=str)
@pytest.mark.parametrize("direction", ["interior", "endpoint"])
def test_lattice_first_order_convergence(group, direction):
    r4 = lattice_derivative_check(group, 64, direction, 1e-4, np.random.default_rng(42))
    r5 = lattice_derivative_check(group, 64, direction, 1e-5, np.random.default_rng(42))
    assert r4 < 1e-3
    assert r5 < 1e-4
    assert r5 < r4 / 3  # first-order decay


def test_lattice_validation():
    with pytest.raises(HolonomyError):
        lattice_derivative_check(GroupSpec("su2"), 1, "interior")
    with pytest.raises(HolonomyError):
        lattice_derivative_check(GroupSpec("su2"), 8, "sideways")


@pytest.mark.parametrize("direction", ["interior", "endpoint"])
@pytest.mark.parametrize("step", [0.0, -1e-4, math.inf, math.nan, "1e-4", None, 1e-4j], ids=repr)
def test_lattice_check_refuses_a_step_that_is_not_positive_and_finite(direction, step):
    """step = 0 made a NaN difference quotient that max() dropped, so the
    interior check passed with a residual of exactly 0.0."""
    with pytest.raises(HolonomyError, match="step must be"):
        lattice_derivative_check(GroupSpec("su2"), 8, direction, step)


@pytest.mark.parametrize("n_segments", [64.0, True, "64", None], ids=repr)
def test_lattice_check_refuses_a_segment_count_that_is_not_an_int(n_segments):
    with pytest.raises(HolonomyError, match="n_segments must be an int"):
        lattice_derivative_check(GroupSpec("su2"), n_segments)


def _expm_gap(a):
    ref = expm(a)
    return np.max(np.abs(_expm(a) - ref)), 1e-13 * max(1.0, np.linalg.norm(ref, 2))


@pytest.mark.parametrize("group", GROUPS + [GroupSpec("gln", 1), GroupSpec("un", 1)], ids=str)
@pytest.mark.parametrize("scale", [1e-5, 1e-4, 1 / 64, 1.0])
def test_expm_matches_scipy_on_lie_basis_elements(group, scale):
    for e in lie_basis(group).basis:
        gap, bound = _expm_gap(scale * e)
        assert gap <= bound


def test_expm_matches_scipy_on_random_complex_matrices():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3):
        for norm in (1e-8, 1e-6, 1e-4, 1e-2, 0.3, 0.5, 1.0, 3.0, 10.0):
            for _ in range(20):
                a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                gap, bound = _expm_gap(a * (norm / np.linalg.norm(a, 2)))
                assert gap <= bound


def test_expm_of_zero_and_of_a_nilpotent():
    for n in (1, 2, 3):
        assert np.array_equal(_expm(np.zeros((n, n), dtype=complex)), np.eye(n))
    e12 = np.array([[0, 1], [0, 0]], dtype=complex)
    assert np.array_equal(_expm(e12), np.eye(2) + e12)
    gap, bound = _expm_gap(e12)
    assert gap <= bound


@pytest.mark.parametrize("direction", ["interior", "endpoint"])
def test_lattice_check_builds_one_lie_basis(monkeypatch, direction):
    """The fields of every segment are drawn on the one basis that the
    check builds, not on a basis rebuilt per segment."""
    calls = []
    monkeypatch.setattr(holonomy, "lie_basis", lambda group: calls.append(group) or lie_basis(group))
    lattice_derivative_check(GroupSpec("su2"), 64, direction, 1e-4, np.random.default_rng(0))
    assert calls == [GroupSpec("su2")]
