"""Differential tests of the state enumerator and of canonical forms against
brute-force references.  The enumerator's reference rebuilds every one of
the 2^k states independently and canonicalizes its words with canonical(),
which the last property checks against the minimum over all rotations."""

import cmath
import importlib
import random
from functools import partial
from itertools import product
from math import comb

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from loopstar.coeff import (
    CrossingCoeffs,
    GroupSpec,
    SeriesCoeff,
    closed_crossing_values,
    crossing_coeffs,
    kauffman_coeffs,
)
from loopstar.diagram import Arc, Loop, canonical, entry_key, monomial, parse_diagram, reverse_word
from loopstar.star import (
    Stacked,
    StarError,
    _count_table,
    _state_table,
    _states,
    expect_loops,
    expect_values,
    unoriented_kauffman_resolution,
)
from loopstar.checks import random_diagram

star_module = importlib.import_module("loopstar.star")  # the package exports star()
GROUPS = (GroupSpec("su2"), GroupSpec("sl2r"), GroupSpec("sl2c"), GroupSpec("gln", 3), GroupSpec("un", 2))
MAX_ACTIVE = 8


def brute_force(st, convention, values, one):
    """All 2^k states of st, each built on its own: a fresh successor
    copy with the smoothed crossings swapped, its cycles walked into words
    and canonicalized.  values maps a crossing type to (virtual, smooth);
    the result maps each monomial to its summed coefficient."""
    out = {}
    k = len(st.active)
    for mask in range(2**k):
        succ = list(st.succ)
        coeff = one
        for i, a in enumerate(st.active):
            virtual, smooth = values[a.ctype]
            if mask >> i & 1:
                succ[a.cell_top], succ[a.cell_bottom] = succ[a.cell_bottom], succ[a.cell_top]
                coeff = coeff * smooth
            else:
                coeff = coeff * virtual
        loops, seen = [], set()
        for start in range(len(succ)):
            word, c = [], start
            while c not in seen:
                seen.add(c)
                word.append(st.entries[c])
                c = succ[c]
            if word:
                loops.append(canonical(word, convention))
        m = monomial(loops)
        out[m] = out[m] + coeff if m in out else coeff
    return out


@st.composite
def stacks(draw):
    """A random_diagram with its curves at random levels and a random
    processing order of its (at most MAX_ACTIVE) active crossings."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = random_diagram(rng, n_curves=draw(st.integers(2, 4)))
    levels = draw(st.lists(st.integers(-1, 1), min_size=len(d.curves), max_size=len(d.curves)))
    leveled = [(d.loop_of(c), level) for c, level in zip(d.curves, levels)]
    k = len(Stacked(d, leveled).active)
    assume(k <= MAX_ACTIVE)
    return d, leveled, draw(st.permutations(range(k)))


@settings(max_examples=120, deadline=None)
@given(stacks(), st.sampled_from(GROUPS), st.integers(0, 4))
def test_series_enumerator_matches_brute_force(stack, group, order):
    d, leveled, resolution_order = stack
    st_ = Stacked(d, leveled)
    tables = {t: crossing_coeffs(group, t, order) for t in ("over", "under")}
    values = {t: (c.virtual, c.smooth) for t, c in tables.items()}
    want = brute_force(st_, group.convention, values, SeriesCoeff.one(order))
    got = expect_loops(d, leveled, group, order, resolution_order=resolution_order)
    assert got.terms == {m: c for m, c in want.items() if not c.is_zero()}


@settings(max_examples=40, deadline=None)
@given(stacks(), st.sampled_from(GROUPS), st.sampled_from([0.01, 0.3]))
def test_closed_form_enumerator_matches_brute_force(stack, group, beta):
    d, leveled, _ = stack
    st_ = Stacked(d, leveled)
    values = {t: closed_crossing_values(group, t, beta) for t in ("over", "under")}
    want = brute_force(st_, group.convention, values, 1.0 + 0j)
    got = expect_values(d, leveled, group, beta)
    assert got.keys() == want.keys()
    for m, v in want.items():
        assert cmath.isclose(got[m], v, rel_tol=1e-12, abs_tol=1e-12)


@settings(max_examples=60, deadline=None)
@given(stacks(), st.sampled_from(GROUPS), st.lists(st.booleans(), min_size=4, max_size=4))
def test_canonical_monomial_memo_matches_fresh_canonical_forms(stack, group, reversed_):
    """One Stacked serves both conventions on every state, alternating
    between them; each monomial must equal the one built from the state's
    words with canonical().  Reversed loops make the two conventions'
    forms differ, so a memo shared between them fails."""
    d, leveled, resolution_order = stack
    leveled = [(Loop(reverse_word(l.word)) if r else l, level) for (l, level), r in zip(leveled, reversed_)]
    st_ = Stacked(d, leveled)
    swaps = [[(st_.active[i].cell_top, st_.active[i].cell_bottom)] for i in resolution_order]
    first = group.convention == "unoriented"
    for _, succ in _states(st_.succ, swaps):
        cycles = st_.cycles(succ)
        words = [[st_.entries[c] for c in cycle] for cycle in cycles]
        for unoriented in (first, not first):
            got = st_.canonical_monomial(cycles, unoriented)
            want = monomial(canonical(w, "unoriented" if unoriented else "oriented") for w in words)
            assert got == want
            assert all(hash(l) == hash((l.word,)) for l in got + want)
    owners = [loop for loop, _ in leveled for _ in loop.word]  # the loop of each cell
    for a in st_.active:
        x, y = owners[a.cell_top], owners[a.cell_bottom]
        # x *_p y at each crossing of the pair, a.point among them
        joined = [Loop(x.word[gx + 1 :] + x.word[: gx + 1] + y.word[gy + 1 :] + y.word[: gy + 1])
                  for _, _, gx, gy in d.crossings_between(x, y)]
        for l in (*joined, Loop(reverse_word(x.word))):
            assert hash(l) == hash((l.word,))


def pairing_circles_of(d, leveled):
    """The Stacked and the pairing circles of every state of the rank-2
    two-smoothing resolution of leveled, as its walk produces them."""
    recorded = []
    walk = star_module._pairing_circles

    def recording(st_, succ):
        circles = walk(st_, succ)
        recorded.append((st_, circles))
        return circles

    star_module._pairing_circles = recording
    try:
        unoriented_kauffman_resolution(d, leveled, GroupSpec("su2"), 0)
    finally:
        star_module._pairing_circles = walk
    return recorded


@settings(max_examples=60, deadline=None)
@given(stacks(), st.lists(st.booleans(), min_size=4, max_size=4))
def test_mirrored_cells_give_the_unoriented_canonical_form(stack, reversed_):
    """canonical_monomial(cycles, True) walks each cycle backwards through
    the mirrored cells, c + n mod 2n.  On the cycles of every oriented state
    (cells below n) and on the pairing circles of every two-smoothing state
    (cells up to 2n) it must equal the unoriented canonical forms of the
    cells' entries."""
    d, leveled, _ = stack
    leveled = [(Loop(reverse_word(l.word)) if r else l, level) for (l, level), r in zip(leveled, reversed_)]
    st_ = Stacked(d, leveled)
    swaps = [[(a.cell_top, a.cell_bottom)] for a in st_.active]
    states = [(st_, st_.cycles(succ)) for _, succ in _states(st_.succ, swaps)]
    circles = pairing_circles_of(d, leveled)
    n = len(st_.succ)
    # a reversal smoothing walks into the mirrored cells
    assert any(c >= n for _, cycles in circles for cycle in cycles for c in cycle) == bool(st_.active)
    for owner, cycles in states + circles:
        got = owner.canonical_monomial(cycles, True)
        want = monomial(canonical([owner.entries[c] for c in cycle], "unoriented") for cycle in cycles)
        assert got == want


def two_curves(signs: str):
    """C above D, crossing once per sign: every crossing active, its type
    fixed by its sign."""
    points = "".join(f"point x{i} {s}\n" for i, s in enumerate(signs))
    passes = " ".join(f"x{i}" for i in range(len(signs)))
    d = parse_diagram(points + f"curve C level 1: {passes}\ncurve D level 0: {passes}\n")
    return d, [(d.loop_of("C"), 1), (d.loop_of("D"), -1)]


def test_state_tables_cached_per_group_order_and_counts():
    """Interleaved calls share one process-wide table cache; each must see
    the table of its own (group, order, over count, under count)."""
    _state_table.cache_clear()
    stacks = [two_curves(signs) for signs in ("+", "-", "++", "+-", "-+", "--", "++-", "-++", "+--", "+-+-")]
    calls = list(product(GROUPS, range(5), range(len(stacks))))
    random.Random(0).shuffle(calls)
    for group, order, i in calls:
        d, leveled = stacks[i]
        fresh = {t: crossing_coeffs(group, t, order) for t in ("over", "under")}
        values = {t: (c.virtual, c.smooth) for t, c in fresh.items()}
        want = brute_force(Stacked(d, leveled), group.convention, values, SeriesCoeff.one(order))
        got = expect_loops(d, leveled, group, order)
        assert got.terms == {m: c for m, c in want.items() if not c.is_zero()}, (group, order, i)
    assert _state_table.cache_info().hits > 0
    table = _state_table(GroupSpec("su2"), 2, 3, 1)
    assert type(table) is tuple and all(type(row) is tuple for row in table)
    # rows stop at i + j <= order: states beyond it are never visited
    assert [len(row) for row in table] == [2, 2, 1]


def test_smoothing_with_an_h0_term_is_an_error(monkeypatch):
    """The walk cuts at K smoothings, which is exact only while every
    smoothing coefficient vanishes at h^0."""

    def with_h0_smoothing(group, ctype, order):
        cc = crossing_coeffs(group, ctype, order)
        return CrossingCoeffs(cc.virtual, cc.smooth + 1)

    d, leveled = two_curves("+-")
    monkeypatch.setattr(star_module, "crossing_coeffs", with_h0_smoothing)
    _state_table.cache_clear()
    try:
        with pytest.raises(StarError, match="h\\^0"):
            expect_loops(d, leveled, GroupSpec("su2"), 3)
    finally:
        _state_table.cache_clear()


def crossing_pairs(group, order):
    """The group's (virtual, smooth) over and under pairs."""
    return tuple((c.virtual, c.smooth) for c in (crossing_coeffs(group, t, order) for t in ("over", "under")))


def kauffman_pairs(order):
    """The two-smoothing pairs: a crossing starts at its compatible smoothing
    (a over, b under) and toggles to its reversal smoothing."""
    a, b = kauffman_coeffs(order)
    return (a, b), (b, a)


PAIR_SOURCES = {str(g): partial(crossing_pairs, g) for g in GROUPS + (GroupSpec("gln", 1), GroupSpec("gln", 2))}
PAIR_SOURCES["kauffman"] = kauffman_pairs


@pytest.mark.parametrize("order", range(5))
@pytest.mark.parametrize("source", sorted(PAIR_SOURCES))
def test_count_table_matches_the_per_state_product(source, order):
    """For every state of up to 5 over- and 5 under-crossings, in a shuffled
    type order, table[i][j] of its toggled counts equals (==) the product of
    its crossings' untoggled or toggled coefficients taken left to right,
    uncut and cut at order; the cut rows stop at i + j <= order."""
    over_pair, under_pair = PAIR_SOURCES[source](order)
    rng = random.Random(order)
    for n_over, n_under in product(range(6), repeat=2):
        is_over = [True] * n_over + [False] * n_under
        rng.shuffle(is_over)
        tables = {cut: _count_table(over_pair, under_pair, n_over, n_under, order, cut) for cut in (None, order)}
        # each state's product, folded left to right over its crossings
        states = {(): SeriesCoeff.one(order)}
        for o in is_over:
            pair = over_pair if o else under_pair
            states = {mask + (t,): c * pair[t] for mask, c in states.items() for t in (False, True)}
        for mask, want in states.items():
            i = sum(t for t, o in zip(mask, is_over) if o)
            j = sum(mask) - i
            assert tables[None][i][j] == want, (n_over, n_under, mask)
            if i + j <= order:
                assert tables[order][i][j] == want, (n_over, n_under, mask)
        assert [len(row) for row in tables[None]] == [n_under + 1] * (n_over + 1)
        assert [len(row) for row in tables[order]] == [
            min(n_under, order - i) + 1 for i in range(min(n_over, order) + 1)
        ]


def test_series_path_visits_only_states_within_order(monkeypatch):
    k, order = 6, 2
    points = "".join(f"point x{i} {'+-'[i % 2]}\n" for i in range(k))
    passes = " ".join(f"x{i}" for i in range(k))
    d = parse_diagram(points + f"curve C level 1: {passes}\ncurve D level 0: {passes}\n")
    leveled = [(d.loop_of("C"), 1), (d.loop_of("D"), -1)]
    visited = []
    cycles = Stacked.cycles
    monkeypatch.setattr(Stacked, "cycles", lambda self, succ: visited.append(1) or cycles(self, succ))
    expect_loops(d, leveled, GroupSpec("su2"), order)
    assert len(visited) == sum(comb(k, s) for s in range(order + 1))
    visited.clear()
    expect_values(d, leveled, GroupSpec("su2"), 0.1)
    assert len(visited) == 2**k


# -- canonical forms -----------------------------------------------------------------

A, B = (Arc("C", 0), 1), (Arc("C", 1), 1)
entries = st.tuples(st.sampled_from([Arc("C", 0), Arc("C", 1), Arc("D", 0)]), st.sampled_from([1, -1]))


def least_by_brute_force(word, convention):
    candidates = [word[i:] + word[:i] for i in range(len(word))]
    if convention == "unoriented":
        rw = reverse_word(word)
        candidates += [rw[i:] + rw[:i] for i in range(len(rw))]
    return min(candidates, key=lambda w: [entry_key(e) for e in w])


@settings(max_examples=200, deadline=None)
@given(st.lists(entries, min_size=1, max_size=12), st.sampled_from(["oriented", "unoriented"]))
@example([A, B, A, B], "oriented")
@example([A, B, A, B], "unoriented")
@example([A, A, A, A], "oriented")
@example([A, A, A, A], "unoriented")
@example([B, A, (A[0], -1), B, A, (A[0], -1)], "unoriented")
def test_canonical_is_least_rotation(word, convention):
    loop = canonical(word, convention)
    assert loop.word == least_by_brute_force(tuple(word), convention)
    assert loop.key() == tuple(entry_key(e) for e in loop.word)
