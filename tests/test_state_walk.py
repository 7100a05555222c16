"""The three state sums against a plain reference, term for term and in
insertion order.

The reference builds each state's successor permutation on its own, walks
its cycles from cell 0 up, canonicalizes each with canonical() and builds
the monomial with monomial(); it sums the states in the enumerators' order.
So it checks the state walk and its canonical forms independently of the
walk's start-cell order, its per-call memo and its fast path, which builds
each loop straight from the walk when no arc repeats among the cells.  The
stackings hold reversed entries (the reversal branch of the unoriented
form), repeated loops (the canonical() fallback) and pass-less curves.
"""

import importlib
import random
from itertools import product

import numpy as np
import pytest

from loopstar.checks import random_diagram
from loopstar.coeff import GroupSpec, SeriesCoeff, closed_crossing_values, crossing_coeffs, kauffman_coeffs
from loopstar.diagram import FormalSum, canonical, monomial, parse_diagram, reverse_word
from loopstar.star import Stacked, StarError, expect_loops, expect_values, unoriented_kauffman_resolution

star_module = importlib.import_module("loopstar.star")  # the package exports star()

GROUPS = (GroupSpec("su2"), GroupSpec("sl2r"), GroupSpec("sl2c"), GroupSpec("gln", 3), GroupSpec("un", 2))
ORDER = 3
BETA = 0.1
MAX_ACTIVE = 7


def cells(d, leveled):
    """The forward entries of the joined words, their base successors and
    the stacking's active crossings."""
    fwd, succ = [], []
    for loop, _ in leveled:
        base, m = len(fwd), len(loop.word)
        fwd += loop.word
        succ += [base + (i + 1) % m for i in range(m)]
    return fwd, succ, Stacked(d, leveled).active


def words(succ, entries, n):
    """The cycles of succ as entry words, walked from cell 0 up; a cell c
    and its mirror c + n stand for one arc, which a walk passes once."""
    seen, out = set(), []
    for start in range(n):
        word, c = [], start
        while c % n not in seen:
            seen.add(c % n)
            word.append(entries[c])
            c = succ[c]
        if word:
            out.append(word)
    return out


def series_reference(d, leveled, group, order):
    """expect_loops: every state, crossing 0 most significant, each a swap
    of the smoothed crossings' successors and the product of its crossings'
    coefficients; no cut, since a state past K smoothings prices to zero."""
    fwd, base, active = cells(d, leveled)
    pairs = {t: (c.virtual, c.smooth) for t in ("over", "under") for c in [crossing_coeffs(group, t, order)]}
    out = FormalSum.zero(order)
    for state in product((False, True), repeat=len(active)):
        succ, coeff = list(base), SeriesCoeff.one(order)
        for a, smoothed in zip(active, state):
            if smoothed:
                succ[a.cell_top], succ[a.cell_bottom] = succ[a.cell_bottom], succ[a.cell_top]
            coeff = coeff * pairs[a.ctype][smoothed]
        out.add_term(monomial(canonical(w, group.convention) for w in words(succ, fwd, len(fwd))), coeff)
    return list(out.terms.items())


def values_reference(d, leveled, group, beta):
    """expect_values: the same states, priced by the closed-form values
    multiplied left to right."""
    fwd, base, active = cells(d, leveled)
    steps = [closed_crossing_values(group, a.ctype, beta) for a in active]
    out = {}
    for state in product((False, True), repeat=len(active)):
        succ, coeff = list(base), 1.0 + 0j
        for a, (cv, cs), smoothed in zip(active, steps, state):
            if smoothed:
                succ[a.cell_top], succ[a.cell_bottom] = succ[a.cell_bottom], succ[a.cell_top]
            coeff = coeff * (cs if smoothed else cv)
        m = monomial(canonical(w, group.convention) for w in words(succ, fwd, len(fwd)))
        out[m] = out.get(m, 0j) + coeff
    return list(out.items())


def kauffman_reference(d, leveled, order):
    """unoriented_kauffman_resolution: every state, crossing 0 least
    significant, on the doubled cells, cell c + n being cell c walked
    backwards.  Each crossing joins its ends by the compatible smoothing
    (a over, b under) or by the reversal one (b over, a under), head to
    head and tail to tail."""
    fwd, base, active = cells(d, leveled)
    n = len(fwd)
    entries = fwd + [(a, -dr) for a, dr in fwd]
    a, b = kauffman_coeffs(order)
    out = FormalSum.zero(order)
    for mask in range(2 ** len(active)):
        succ = base + [0] * n
        for c, s in enumerate(base):
            succ[n + s] = n + c
        coeff = SeriesCoeff.one(order)
        for i, x in enumerate(active):
            c0, c1 = x.cell_top, x.cell_bottom
            n0, n1 = base[c0], base[c1]
            compatible, reversal = (a, b) if x.ctype == "over" else (b, a)
            if mask >> i & 1:
                succ[c0], succ[c1], succ[n + n0], succ[n + n1] = n + c1, n + c0, n1, n0
                coeff = coeff * reversal
            else:
                succ[c0], succ[c1], succ[n + n0], succ[n + n1] = n1, n0, n + c1, n + c0
                coeff = coeff * compatible
        out.add_term(monomial(canonical(w, "unoriented") for w in words(succ, entries, n)), coeff)
    return list(out.terms.items())


def repeats_an_arc(leveled) -> bool:
    arcs = [a for loop, _ in leveled for a, _ in loop.word]
    return len(set(arcs)) < len(arcs)


def assert_matches_reference(d, leveled, group):
    assert list(expect_loops(d, leveled, group, ORDER).terms.items()) == series_reference(d, leveled, group, ORDER)
    assert list(expect_values(d, leveled, group, BETA).items()) == values_reference(d, leveled, group, BETA)
    if not group.orientation_free:
        return
    points = [a.point for a in Stacked(d, leveled).active]
    if len(set(points)) < len(points):
        with pytest.raises(StarError, match="duplicate loops"):
            unoriented_kauffman_resolution(d, leveled, group, ORDER)
        return
    assert (list(unoriented_kauffman_resolution(d, leveled, group, ORDER).terms.items())
            == kauffman_reference(d, leveled, ORDER))


def random_stackings(seed: int, count: int):
    """Seeded random_diagrams, each curve's loop reversed or not, at levels
    -1..1, one loop in three stacked twice; at most MAX_ACTIVE active
    crossings each."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        d = random_diagram(rng, n_curves=int(rng.integers(2, 5)))
        leveled = []
        for cid in d.curves:
            loop = d.loop_of(cid)
            if rng.random() < 0.5:
                loop = canonical(reverse_word(loop.word))
            leveled.append((loop, int(rng.integers(-1, 2))))
        if rng.random() < 1 / 3:
            leveled.append(leveled[int(rng.integers(len(leveled)))])
        if len(Stacked(d, leveled).active) <= MAX_ACTIVE:
            out.append((d, leveled))
    return out


@pytest.mark.parametrize("group", GROUPS, ids=str)
def test_state_sums_match_the_plain_reference_on_random_stackings(group):
    stackings = random_stackings(1, 12)
    kinds = {(any(dr == -1 for loop, _ in leveled for _, dr in loop.word), repeats_an_arc(leveled))
             for _, leveled in stackings}
    assert kinds == {(False, False), (True, False), (False, True), (True, True)}  # each case drawn
    for d, leveled in stackings:
        assert_matches_reference(d, leveled, group)


def three_crossings():
    d = parse_diagram("point p +\npoint q -\npoint r +\ncurve C level 1: p q r\ncurve D level 0: r p q\n"
                      "curve E level 0:\n")
    return d, d.loop_of("C"), d.loop_of("D"), d.loop_of("E")


def reversed_loop(loop):
    return canonical(reverse_word(loop.word))


CASES = {
    "repeated loop": lambda C, D, E: [(C, 1), (D, -1), (D, -1)],
    "reversed entries": lambda C, D, E: [(reversed_loop(C), 1), (D, -1)],
    "reversed entries on both": lambda C, D, E: [(reversed_loop(D), 1), (reversed_loop(C), -1)],
    "pass-less curve": lambda C, D, E: [(C, 1), (E, 0), (D, -1)],
    "reversed pass-less curve": lambda C, D, E: [(reversed_loop(E), 0), (C, 1), (D, -1)],
    "reversed entries and a repeated loop": lambda C, D, E: [(reversed_loop(C), 1), (D, -1), (reversed_loop(C), 1)],
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("group", GROUPS, ids=str)
def test_state_sums_match_the_plain_reference_on_chosen_stackings(group, case):
    d, C, D, E = three_crossings()
    leveled = CASES[case](C, D, E)
    assert repeats_an_arc(leveled) == ("repeated" in case)
    assert_matches_reference(d, leveled, group)


def crossing_ten_times(seed: int):
    """C above D, crossing 10 times in a seeded order with seeded signs."""
    rng = random.Random(seed)
    order = list(range(10))
    rng.shuffle(order)
    points = "".join(f"point x{j} {rng.choice('+-')}\n" for j in range(10))
    return parse_diagram(points + "curve C level 1: " + " ".join(f"x{j}" for j in range(10))
                         + "\ncurve D level 0: " + " ".join(f"x{j}" for j in order) + "\n")


@pytest.mark.parametrize("group", GROUPS, ids=str)
def test_canonical_runs_only_when_an_arc_repeats(group, monkeypatch):
    """On two curves crossing 10 times, the shape of the benchmark's deep
    products, every cycle's loop is built straight from the walk; a loop
    stacked twice takes the canonical() fallback."""
    calls = []
    canonical_ = star_module.canonical
    monkeypatch.setattr(star_module, "canonical", lambda *a: calls.append(a) or canonical_(*a))
    d = crossing_ten_times(0)
    x, y = (canonical(d.loop_of(c).word, group.convention) for c in ("C", "D"))
    expect_loops(d, [(x, 1), (y, -1)], group, 8)
    assert not calls
    expect_loops(d, [(x, 1), (y, -1), (y, -1)], group, 2)
    assert calls
