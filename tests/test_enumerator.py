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
from loopstar.diagram import Arc, FormalSum, Loop, canonical, entry_key, monomial, parse_diagram, reverse_word
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
    for _, succ, _ in _states(st_.succ, swaps):
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
    two-smoothing resolution of leveled, as Stacked.cycles walks them."""
    recorded = []
    walk = Stacked.cycles

    def recording(st_, succ):
        circles = walk(st_, succ)
        recorded.append((st_, circles))
        return circles

    Stacked.cycles = recording
    try:
        unoriented_kauffman_resolution(d, leveled, GroupSpec("su2"), 0)
    finally:
        Stacked.cycles = walk
    return recorded


@settings(max_examples=60, deadline=None)
@given(stacks(), st.lists(st.booleans(), min_size=4, max_size=4))
def test_mirrored_cells_give_the_unoriented_canonical_form(stack, reversed_):
    """canonical_monomial(cycles, True) walks each cycle backwards through
    the mirrored cells c - n.  On the cycles of every oriented state (cells
    0 to n - 1) and on the pairing circles of every two-smoothing state
    (cells -n to n - 1) it must equal the unoriented canonical forms of the
    cells' entries."""
    d, leveled, _ = stack
    leveled = [(Loop(reverse_word(l.word)) if r else l, level) for (l, level), r in zip(leveled, reversed_)]
    st_ = Stacked(d, leveled)
    swaps = [[(a.cell_top, a.cell_bottom)] for a in st_.active]
    states = [(st_, st_.cycles(succ)) for _, succ, _ in _states(st_.succ, swaps)]
    circles = pairing_circles_of(d, leveled)
    # a reversal smoothing walks into the mirrored cells
    assert any(c < 0 for _, cycles in circles for cycle in cycles for c in cycle) == bool(st_.active)
    for owner, cycles in states + circles:
        got = owner.canonical_monomial(cycles, True)
        want = monomial(canonical([owner.entries[c] for c in cycle], "unoriented") for cycle in cycles)
        assert got == want


def modular_pairing_circles(st_, succ):
    """A reference walk on doubled cells encoded as c + n, the mirror of
    cell c: a cell and its mirror share one seen flag, at c % n."""
    n = len(st_.succ)
    seen = [False] * n
    out = []
    for start in st_.starts:
        if seen[start]:
            continue
        cycle, c = [], start
        while not seen[c % n]:
            seen[c % n] = True
            cycle.append(c)
            c = succ[c]
        out.append(cycle)
    return out


def modular_resolution_cells(st_):
    """The two-smoothing resolution's start array and swaps with each
    mirrored cell encoded as c + n."""
    n = len(st_.succ)
    start = st_.succ + [0] * n
    for c, s in enumerate(st_.succ):
        start[n + s] = n + c
    swaps = []
    for ac in st_.active[::-1]:
        c0, c1 = ac.cell_top, ac.cell_bottom
        n0, n1 = st_.succ[c0], st_.succ[c1]
        start[c0], start[c1], start[n + n0], start[n + n1] = n1, n0, n + c1, n + c0
        swaps.append([(c0, n + n0), (c1, n + n1)])
    return start, swaps


@settings(max_examples=80, deadline=None)
@given(stacks(), st.lists(st.booleans(), min_size=4, max_size=4))
def test_one_walk_matches_the_modular_walk_on_doubled_cells(stack, reversed_):
    """Stacked.cycles on the c - n encoding must give, state for state, the
    circles of the % n walk on the c + n encoding, in the same order, once
    each cell x < 0 is read as x + 2n."""
    d, leveled, _ = stack
    leveled = [(Loop(reverse_word(l.word)) if r else l, level) for (l, level), r in zip(leveled, reversed_)]
    st_ = Stacked(d, leveled)
    assume(len({a.point for a in st_.active}) == len(st_.active))
    n = len(st_.succ)
    start, swaps = modular_resolution_cells(st_)
    want = [modular_pairing_circles(st_, succ) for _, succ, _ in _states(start, swaps)]
    got = [[[x + 2 * n if x < 0 else x for x in c] for c in circles] for _, circles in pairing_circles_of(d, leveled)]
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
    assert type(table) is tuple
    # entry (i, j) at 2 * i + j; the rows stop at i = order, and entries
    # with i + j > order, states that are never visited, are None
    assert [c is not None for c in table] == [True, True, True, True, True, False]


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
    type order, entry i * (n_under + 1) + j of its toggled counts equals
    (==) the product of its crossings' untoggled or toggled coefficients
    taken left to right, uncut and cut at order; the cut table stops at row
    i = order and holds None where i + j > order."""
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
            assert tables[None][i * (n_under + 1) + j] == want, (n_over, n_under, mask)
            if i + j <= order:
                assert tables[order][i * (n_under + 1) + j] == want, (n_over, n_under, mask)
        assert len(tables[None]) == (n_over + 1) * (n_under + 1)
        assert [c is not None for c in tables[order]] == [
            i + j <= order for i in range(min(n_over, order) + 1) for j in range(n_under + 1)
        ]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 8).flatmap(
    lambda k: st.tuples(st.lists(st.integers(-5, 9), min_size=k, max_size=k), st.none() | st.integers(0, k))
))
def test_states_carry_the_weighted_index(case):
    """Each state's index is the sum of weights[j] over its toggled
    crossings, its successor array has exactly those crossings swapped, and
    the flags come as a plain binary count, crossing 0 most significant,
    cut at the budget.  Without weights the index stays 0."""
    weights, budget = case
    k = len(weights)
    swaps = [[(2 * j, 2 * j + 1)] for j in range(k)]
    seen = []
    for toggled, succ, index in _states(range(2 * k), swaps, budget, weights):
        assert index == sum(w for w, t in zip(weights, toggled) if t)
        assert succ == [c ^ toggled[c // 2] for c in range(2 * k)]
        seen.append(tuple(toggled))
    cap = k if budget is None else budget
    assert seen == [bits for bits in product((False, True), repeat=k) if sum(bits) <= cap]
    assert {index for _, _, index in _states(range(2 * k), swaps, budget)} == {0}


def fold_with_add_term(st_, start, swaps, over, table, unoriented, order, cut=None):
    """_exact_sum's reference: the same states folded through
    FormalSum.add_term, each state's (i, j) recounted from its flags."""
    out = FormalSum.zero(order)
    stride = len(over) - sum(over) + 1
    for toggled, succ, _ in _states(start, swaps, cut):
        i = sum(t for t, o in zip(toggled, over) if o)
        out.add_term(st_.canonical_monomial(st_.cycles(succ), unoriented), table[i * stride + sum(toggled) - i])
    return out


@pytest.mark.parametrize("seed", range(12))
def test_one_probe_merge_matches_add_term(seed, monkeypatch):
    """Every exact state sum, the series one in every group and the
    two-smoothing one, must give the terms that folding its states through
    add_term gives, in the same insertion order.  The series stacks hold a
    loop twice, so that states share a monomial and their terms merge."""
    exact = star_module._exact_sum
    merged = []

    def checked(st_, start, swaps, over, table, unoriented, order, cut=None):
        args = st_, start, swaps, over, table, unoriented, order, cut
        got = exact(*args)
        want = fold_with_add_term(*args)
        assert list(got.terms.items()) == list(want.terms.items())
        merged.append(sum(1 for _ in _states(start, swaps, cut)) > len(got))
        return got

    monkeypatch.setattr(star_module, "_exact_sum", checked)
    rng = np.random.default_rng(seed)
    d = random_diagram(rng, n_curves=2, max_pair_crossings=3)
    x, y = (d.loop_of(c) for c in d.curves)
    order = int(rng.integers(1, 5))  # at order 0 only the unsmoothed state is visited
    for group in GROUPS:
        expect_loops(d, [(x, 1), (x, 1), (y, -1)], group, order)
        expect_loops(d, [(y, 1), (x, -1), (x, -1)], group, order)
    unoriented_kauffman_resolution(d, [(x, 1), (y, -1)], GroupSpec("su2"), order)
    assert len(merged) == 2 * len(GROUPS) + 1
    # x crosses y at least once: the repeated loop makes states share a monomial
    assert any(merged) == bool(d.crossings_between(x, y))


class Cells:
    """Stands in for a Stacked in _exact_sum: its cycles are each state's
    successor array, and monos maps them to the state's monomial (any
    hashable key does for a dict, but add_term takes only a canonical
    monomial)."""

    def __init__(self, monos):
        self.monos = monos

    def cycles(self, succ):
        return tuple(succ)

    def canonical_monomial(self, cycles, unoriented):
        return self.monos[cycles]


def test_a_merge_to_zero_deletes_the_term_and_a_later_state_reinserts_it():
    """Two under-crossings on a +-1 table: the states 00, 01, 10, 11 carry
    table[0], table[1], table[1], table[2].  M's first two terms cancel, so
    M leaves the sum; 11 brings it back after N."""
    one = SeriesCoeff.one(0)
    M, N = (monomial([Loop(((Arc(c, 0), 1),))]) for c in "MN")
    states = {(0, 1, 2, 3): M, (0, 1, 3, 2): M, (1, 0, 2, 3): N, (1, 0, 3, 2): M}
    args = (Cells(states), [0, 1, 2, 3], [[(0, 1)], [(2, 3)]], [False, False], (one, -one, one), False, 0)
    got = star_module._exact_sum(*args)
    assert list(got.terms.items()) == [(N, -one), (M, one)]
    assert list(got.terms.items()) == list(fold_with_add_term(*args).terms.items())
    # one table object under M already: the sum adds it, it does not replace it
    args = (Cells(dict.fromkeys(states, M)), *args[1:4], (one,) * 3, *args[5:])
    assert list(star_module._exact_sum(*args).terms.items()) == [(M, 4 * one)]


def test_a_zero_state_coefficient_within_the_cut_is_an_error(monkeypatch):
    """The one-probe merge inserts a new monomial's coefficient unchecked,
    so the series table refuses a zero entry when it is built."""

    def with_zero_virtual(group, ctype, order):
        cc = crossing_coeffs(group, ctype, order)
        return CrossingCoeffs(SeriesCoeff.constant(0, order), cc.smooth)

    d, leveled = two_curves("+-")
    monkeypatch.setattr(star_module, "crossing_coeffs", with_zero_virtual)
    _state_table.cache_clear()
    try:
        with pytest.raises(StarError, match="zero"):
            expect_loops(d, leveled, GroupSpec("su2"), 3)
    finally:
        _state_table.cache_clear()


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
