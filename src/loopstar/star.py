"""Stacked-diagram expectation functional and the star product.

Stacking assigns integer levels to the loops of a product; crossings whose
two strands sit at different levels are "active", everything else (self
crossings, equal-level crossings) stays virtual.  Each active crossing is
resolved into the untouched term plus the orientation-preserving smoothing,
weighted by the group's crossing coefficients; the expectation is the sum
over the resolution states.

The smoothing itself is a successor swap on the directed-arc cells of the
stacked word collection: it merges two distinct loops into their
concatenation at the point, and splits a loop whose two strands already
belong to the same evolving component into its two segments.  Subsets of
such swaps commute, so the state only depends on which crossings were
smoothed, never on the processing order.

One depth-first walk visits the states of every resolution sum: it swaps
and un-swaps a single successor array, and the states come in the order of
a binary count over the crossings, the first one processed most
significant.  The exact series path cuts every branch with more than K
smoothings.  That is exact, not an approximation: the smoothing
coefficient has no h^0 term, so a state with s smoothings has a
coefficient of h-order at least s, and one with s > K truncates to zero.
This h-filtration is what makes the Goldman bracket the classical limit of
the product.  The closed-form numeric path visits every state.  One exact
body serves the series and the two-smoothing sums, and both price a state
from one flat count table, by its numbers of toggled over- and
under-crossings.  The walk carries each state's index into that table,
moving it by one crossing's weight per toggle, and the body hands each
state's monomial and table entry to FormalSum's one merge loop.

Each state's cycles are walked from their start cells in the entry_key
order of the cells' entries, so every cycle is found from its least cell.
When no arc repeats among the cells, that cell is the cycle's least arc,
where its canonical form starts, and the cycles come in monomial order: a
new cycle becomes its Loop with no rotation search and a monomial needs no
sort.  A repeated arc (a loop stacked twice, a word through one arc twice)
falls back to canonical() for each new cycle and monomial() for the state.

The rank-2 two-smoothing resolution walks doubled cells, cell c + n being
cell c walked backwards.  It starts from every crossing at its compatible
smoothing, the oriented swap applied to both halves; the reversal
smoothing joins head to head and tail to tail, two more swaps per crossing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import accumulate, chain, combinations, product
from operator import index, mul
from typing import Iterator, Mapping, NamedTuple, Sequence

from .coeff import (
    DEFAULT_ORDER,
    CoeffError,
    GroupSpec,
    SeriesCoeff,
    check_coupling,
    check_values,
    closed_crossing_values,
    crossing_coeffs,
    kauffman_coeffs,
)
from .diagram import (
    Diagram,
    FormalSum,
    Loop,
    Monomial,
    TransversalityError,
    canonical,
    entry_key,
    level_error,
    monomial,
)
from . import goldman


class StarError(ValueError):
    pass


class ActiveCrossing(NamedTuple):
    point: str
    cell_top: int
    cell_bottom: int
    ctype: str  # "over" | "under"


class Stacked:
    """Cells, base successor map, and typed active crossings of a leveled
    loop collection.  Every state sum builds one, so the diagram is
    validated here."""

    def __init__(self, d: Diagram, leveled: Sequence[tuple[Loop, int]]):
        d.require_valid()
        levels = [level for _, level in leveled]
        for level in levels:
            if level_error(level):
                raise StarError(level_error(level))
        self.succ, fwd = [], []  # cell c is the entry fwd[c] of the joined words
        for loop, _ in leveled:
            base, m = len(fwd), len(loop.word)
            fwd += loop.word
            self.succ += [*range(base + 1, base + m), base][:m]  # the next cell, or the loop's first
        self.active: list[ActiveCrossing] = []
        for pid, (i0, c0, d0), (i1, c1, d1) in d.meetings([loop for loop, _ in leveled]):
            l0, l1 = levels[i0], levels[i1]
            if l0 == l1:
                continue
            # the sign of the (top, bottom) strand pair
            eps = d.crossing_sign(pid, d0, d1, l0 > l1)
            ctype = "over" if eps > 0 else "under"
            top, bottom = (c0, c1) if l0 > l1 else (c1, c0)
            self.active.append(ActiveCrossing(pid, top, bottom, ctype))
        # entries of the doubled cells, cell c + n being cell c walked backwards
        self.entries = fwd + [(a, -dr) for a, dr in fwd]
        # the forward cells in entry_key order (stably): a walk that takes
        # its start cells in this order finds each cycle from its least cell
        self.starts = sorted(range(len(fwd)), key=lambda c: entry_key(fwd[c]))
        # no arc repeats among the cells: then that cell is the cycle's
        # least arc, where its canonical form starts (see canonical_monomial)
        self.distinct_arcs = len({a for a, _ in fwd}) == len(fwd)
        # per convention (oriented, unoriented), the Loop of each cell cycle
        # met so far, by its cell sequence: states share most of their cycles
        self._loops: tuple[dict, dict] = ({}, {})

    def cycles(self, succ: list[int]) -> list[list[int]]:
        """The loops of a state as lists of cells, each from its least cell
        in entry_key order, in the order of those cells."""
        seen = [False] * len(succ)
        out = []
        for start in self.starts:
            if seen[start]:
                continue
            cycle = []
            c = start
            while not seen[c]:
                seen[c] = True
                cycle.append(c)
                c = succ[c]
            out.append(cycle)
        return out

    def canonical_monomial(self, cycles: list[list[int]], unoriented: bool) -> Monomial:
        """monomial(canonical(word) for each cycle), from the cycles of one
        walk, each from its least cell and in the order of those cells.  A
        cycle's cell sequence fixes its loop, so each distinct one is
        canonicalized once.

        When no arc repeats among the cells, a cycle's entry keys are
        distinct, so its least rotation starts at its first cell, its least
        arc.  The reversal, the cycle walked backwards through the mirrored
        cells c - n, starts at that arc too and wins exactly when the arc's
        entry is reversed.  The loops' first entries then rise in walk
        order, the monomial order.  When an arc repeats, each new cycle goes
        to canonical() and the loops to monomial()."""
        memo = self._loops[unoriented]
        entries, fast = self.entries, self.distinct_arcs
        n = len(self.succ)
        loops = []
        for cycle in cycles:
            cells = tuple(cycle)
            loop = memo.get(cells)
            if loop is None:
                if fast:
                    c, seq = cycle[0], cycle
                    if unoriented and entries[c][1] < 0:  # c's entry is reversed
                        seq = [x - n for x in cycle[:1] + cycle[:0:-1]]
                    loop = Loop(tuple(map(entries.__getitem__, seq)))
                else:
                    loop = canonical(map(entries.__getitem__, cycle), "unoriented" if unoriented else "oriented")
                memo[cells] = loop
            loops.append(loop)
        return tuple(loops) if fast else monomial(loops)


def _states(
    succ: Sequence[int],
    swaps: Sequence[Sequence[tuple[int, int]]],
    budget: int | None = None,
    weights: Sequence[int] | None = None,
) -> Iterator[tuple[list[bool], list[int], int]]:
    """Depth-first over the resolution states: crossing j toggles by
    applying the successor swaps swaps[j], which touch distinct positions,
    so applying them again untoggles it.  The untoggled branch comes first:
    the states come as a binary count with crossing 0 most significant.  A
    branch with more than budget toggled crossings is cut.  Yields
    (toggled, succ, index) per state: one shared list of flags and one
    shared successor array, both valid until the next state, and the sum of
    weights[j] over the toggled crossings, kept by adding or subtracting
    weights[j] as crossing j toggles or untoggles (0 without weights)."""
    succ = list(succ)
    toggled = [False] * len(swaps)
    weights = [0] * len(swaps) if weights is None else weights
    left = len(swaps) if budget is None else budget
    index = 0
    while True:
        yield toggled, succ, index
        # next state: untoggle the trailing crossings, then toggle the last
        # crossing before them that the budget allows
        j = len(swaps) - 1
        while j >= 0 and (toggled[j] or not left):
            if toggled[j]:
                for a, b in swaps[j]:
                    succ[a], succ[b] = succ[b], succ[a]
                toggled[j] = False
                left += 1
                index -= weights[j]
            j -= 1
        if j < 0:
            return
        for a, b in swaps[j]:
            succ[a], succ[b] = succ[b], succ[a]
        toggled[j] = True
        left -= 1
        index += weights[j]


def _stackings(factors: Sequence[Mapping[Monomial, object]], levels: Sequence[int]):
    """One term from each factor, in itertools.product order: yields the
    chosen monomials' loops, each at its factor's level, and the product of
    the chosen coefficients taken left to right.  Raises
    TransversalityError when any two chosen monomials share an arc."""
    for terms in product(*(f.items() for f in factors)):
        arcs = [{a for l in m for a, _ in l.word} for m, _ in terms]
        if any(x & y for x, y in combinations(arcs, 2)):
            raise TransversalityError("star factors share arcs (not transversal)")
        leveled = [(l, level) for (m, _), level in zip(terms, levels) for l in m]
        yield leveled, reduce(mul, (c for _, c in terms))


def _stacked_sum(
    d: Diagram, factors: Sequence[FormalSum], levels: Sequence[int], group: GroupSpec, order: int
) -> FormalSum:
    """Sum over the stackings of the factors at the given levels of the
    chosen coefficients times the expectation of the stacked loops.  The
    stackings share one memo of exact products, so each distinct product of
    a chosen coefficient and a state coefficient is formed once per call."""
    out = FormalSum.zero(order)
    products: dict[SeriesCoeff, dict[SeriesCoeff, SeriesCoeff]] = {}
    for leveled, c in _stackings([f.terms for f in factors], levels):
        out._add_scaled(expect_loops(d, leveled, group, order), c, products)
    return out


def _count_table(over_pair, under_pair, n_over: int, n_under: int, order: int, cut: int | None):
    """State coefficients by toggled counts, each pair being a crossing
    type's (untoggled, toggled) coefficients, as one flat tuple: entry
    i * (n_under + 1) + j is toggled^i * untoggled^(n_over - i) of the over
    pair times the same of the under pair with j and n_under.  With a cut,
    the rows stop at i = cut and entries with i + j > cut are None."""
    one = SeriesCoeff.one(order)

    def type_factors(pair, n: int) -> list[SeriesCoeff]:
        """toggled^s * untoggled^(n - s) for s = 0..min(n, cut)."""
        toggled = list(accumulate([pair[1]] * (n if cut is None else min(n, cut)), mul, initial=one))
        untoggled = list(accumulate([pair[0]] * n, mul, initial=one))
        return [t * untoggled[n - s] for s, t in enumerate(toggled)]

    over, under = type_factors(over_pair, n_over), type_factors(under_pair, n_under)
    return tuple(
        a * under[j] if cut is None or i + j <= cut else None for i, a in enumerate(over) for j in range(n_under + 1)
    )


@lru_cache(maxsize=256)
def _state_table(group: GroupSpec, order: int, n_over: int, n_under: int) -> tuple[SeriesCoeff | None, ...]:
    """_count_table of the group's (virtual, smooth) pairs, cut at order
    smoothings as the walk is.  The cut is exact only while no smoothing
    coefficient has an h^0 term, so one that has raises StarError; so does
    a zero entry within the cut, which _exact_sum would insert as a term.
    Cached per process; the tuple keeps shared entries immutable."""
    over, under = (crossing_coeffs(group, t, order) for t in ("over", "under"))
    if over.smooth[0] or under.smooth[0]:
        raise StarError(f"{group}: a smoothing coefficient has an h^0 term; the cut at K is not exact")
    table = _count_table((over.virtual, over.smooth), (under.virtual, under.smooth), n_over, n_under, order, order)
    if any(c is not None and c.is_zero() for c in table):
        raise StarError(f"{group}: a state coefficient within the cut at K is zero")
    return table


def _exact_sum(st: Stacked, start, swaps, over, table, walk, unoriented: bool, order: int, cut=None) -> FormalSum:
    """The exact state sum: each state's monomial, from the cycles walk(st,
    succ) finds, times the table entry of its toggled over- and
    under-crossings (i, j).  The walk carries the entry's index
    i * (n_under + 1) + j, an over-crossing weighing n_under + 1 and an
    under-crossing 1.  The terms go to FormalSum's merge loop as they come;
    no entry of the table is zero (the series table refuses one, and a
    two-smoothing entry a^i b^j has h^0 term +-1), as that loop requires."""
    out = FormalSum.zero(order)
    stride = len(over) - sum(over) + 1
    weights = [stride if o else 1 for o in over]
    out._merge(
        (st.canonical_monomial(walk(st, succ), unoriented), table[i])
        for _, succ, i in _states(start, swaps, cut, weights)
    )
    return out


def expect_loops(
    d: Diagram,
    leveled: Sequence[tuple[Loop, int]],
    group: GroupSpec,
    order: int = DEFAULT_ORDER,
    resolution_order: Sequence[int] | None = None,
) -> FormalSum:
    """State sum over resolutions of the active crossings, exact series
    coefficients.  resolution_order permutes the processing sequence; the
    result cannot depend on it (states are subsets of commuting swaps)."""
    st = Stacked(d, leveled)
    try:  # an entry that is not an int, such as 0.0, is no index
        idxs = list(map(index, resolution_order)) if resolution_order is not None else list(range(len(st.active)))
    except TypeError:
        idxs = None
    if idxs is None or sorted(idxs) != list(range(len(st.active))):
        raise StarError("resolution_order must permute the active crossings")
    over = [st.active[i].ctype == "over" for i in idxs]
    table = _state_table(group, order, sum(over), len(over) - sum(over))
    swaps = [[(st.active[i].cell_top, st.active[i].cell_bottom)] for i in idxs]
    return _exact_sum(st, st.succ, swaps, over, table, Stacked.cycles, group.orientation_free, order, order)


def expect_values(
    d: Diagram,
    leveled: Sequence[tuple[Loop, int]],
    group: GroupSpec,
    beta: float,
) -> dict[Monomial, complex]:
    """Closed-form numeric state sum: exact hyperbolic coefficient values at
    the given coupling, symbolic monomials.  A non-finite beta, or a value
    that overflows a float, raises StarError."""
    check_coupling(beta, error=StarError)
    st = Stacked(d, leveled)
    try:
        steps = [closed_crossing_values(group, a.ctype, beta) for a in st.active]
    except CoeffError as e:
        raise StarError(str(e)) from None
    swaps = [[(a.cell_top, a.cell_bottom)] for a in st.active]
    unoriented = group.orientation_free
    out: dict[Monomial, complex] = {}
    for smoothed, succ, _ in _states(st.succ, swaps):
        m = st.canonical_monomial(st.cycles(succ), unoriented)
        coeff = 1.0 + 0j
        for (cv, cs), s in zip(steps, smoothed):
            coeff = coeff * (cs if s else cv)
        out[m] = out.get(m, 0j) + coeff
    check_coupling(beta, out.values(), error=StarError)
    return out


def expect_diagram(d: Diagram, group: GroupSpec, order: int = DEFAULT_ORDER) -> FormalSum:
    """Expectation of the product of all curves, stacked at their declared
    levels."""
    leveled = [(d.loop_of(cid), d.curves[cid].level) for cid in d.curves]
    return expect_loops(d, leveled, group, order)


def star(
    d: Diagram,
    f: FormalSum,
    g: FormalSum,
    group: GroupSpec,
    order: int | None = None,
) -> FormalSum:
    """Star product: left factor stacked above the right (+1 / -1), active
    crossings resolved, bilinear over monomials.  The factors' coefficients
    are truncated to order."""
    if order is None:
        order = f.order
    d.require_valid()
    return _stacked_sum(d, (f.truncated(order), g.truncated(order)), (1, -1), group, order)


def star_complex(
    d: Diagram,
    f: dict[Monomial, complex],
    g: dict[Monomial, complex],
    group: GroupSpec,
    beta: float,
) -> dict[Monomial, complex]:
    """Numeric star product on monomial sums with complex coefficients,
    using the closed-form crossing values.  Supports nesting.  A non-finite
    beta, a factor's coefficient that check_values refuses, or a value that
    overflows a float raises StarError."""
    check_coupling(beta, error=StarError)
    check_values(chain(f.values(), g.values()), StarError, "a factor's coefficient")
    d.require_valid()
    out: dict[Monomial, complex] = {}
    for leveled, c in _stackings((f, g), (1, -1)):
        for mono, val in expect_values(d, leveled, group, beta).items():
            out[mono] = out.get(mono, 0j) + c * val
    check_coupling(beta, out.values(), error=StarError)
    return out


def star_loops(d: Diagram, x: Loop, y: Loop, group: GroupSpec, order: int = DEFAULT_ORDER) -> FormalSum:
    f, g = (FormalSum.of(monomial([canonical(l.word, group.convention)]), order) for l in (x, y))
    return star(d, f, g, group, order)


def poisson_limit_check(
    d: Diagram,
    f: FormalSum,
    g: FormalSum,
    group: GroupSpec,
    order: int | None = None,
) -> FormalSum:
    """(h^1 slot of f*g) minus the Poisson bracket, as a formal sum with
    constant coefficients; identically zero when the star product has the
    right classical limit."""
    if order is None:
        order = f.order
    s = star(d, f, g, group, order)
    b = goldman.bracket_poly(d, f, g, group, form="alt", order=order)
    return FormalSum(s.slot(1), order) - FormalSum(b.slot(0), order)


@dataclass
class AssocResult:
    level_residual: FormalSum
    nested_residual: FormalSum
    numeric: dict[float, float]


def assoc_check(
    d: Diagram,
    u: FormalSum,
    v: FormalSum,
    w: FormalSum,
    group: GroupSpec,
    order: int | None = None,
    assign=None,
) -> AssocResult:
    """Associativity audit.

    Symbolically, (u*v)*w and u*(v*w) both reduce to a three-level
    expectation, encoded with levels (2, 0, -1) and (1, 0, -2); the crossing
    coefficients only see the sign of level differences, so the difference
    of the two encodings must vanish identically.  The nested star products
    themselves are compared as formal sums too, and, when an assignment is
    given, evaluated numerically through the closed-form coefficient path
    at beta = 0.01, 0.1 and 0.5; a coefficient that overflows a float there
    raises HolonomyError, as eval_formal does.
    """
    # local import: holonomy loads numpy, which the exact path never needs
    from .holonomy import eval_complex_sum, series_values

    if order is None:
        order = u.order
    u, v, w = (x.truncated(order) for x in (u, v, w))
    level_residual = _stacked_sum(d, (u, v, w), (2, 0, -1), group, order) - _stacked_sum(
        d, (u, v, w), (1, 0, -2), group, order
    )
    nested_residual = star(d, star(d, u, v, group, order), w, group, order) - star(
        d, u, star(d, v, w, group, order), group, order
    )

    numeric: dict[float, float] = {}
    if assign is not None:
        for beta in (0.01, 0.1, 0.5):
            fu, fv, fw = (series_values(x, beta) for x in (u, v, w))
            left = star_complex(d, star_complex(d, fu, fv, group, beta), fw, group, beta)
            right = star_complex(d, fu, star_complex(d, fv, fw, group, beta), group, beta)
            numeric[beta] = abs(
                eval_complex_sum(left, assign) - eval_complex_sum(right, assign)
            )
    return AssocResult(level_residual, nested_residual, numeric)


# -- unoriented (rank-2) two-smoothing resolution --------------------------------
#
# Orientation flags are bookkeeping only here: a crossing's two unoriented
# smoothings are the two ways of re-pairing its four strand ends, fixed by
# the ORIGINAL stacked orientations.


def _pairing_circles(st: Stacked, succ: list[int]) -> list[list[int]]:
    """The circles of a two-smoothing state on the doubled cells, each once:
    walked from its least forward cell in entry_key order, in the order of
    those cells, the walk through the mirrored cells being the same circle
    reversed."""
    n = len(st.succ)
    seen = [False] * n
    out = []
    for start in st.starts:
        if seen[start]:
            continue
        cycle, c = [], start
        while not seen[c % n]:
            seen[c % n] = True
            cycle.append(c)
            c = succ[c]
        out.append(cycle)
    return out


def unoriented_kauffman_resolution(
    d: Diagram,
    leveled: Sequence[tuple[Loop, int]],
    group: GroupSpec,
    order: int = DEFAULT_ORDER,
) -> FormalSum:
    """Two-smoothing state sum for the rank-2 groups in the sign-normalized
    (per-loop W -> -W) unoriented convention: every active crossing becomes
    a*(compatible smoothing) + b*(reversal smoothing) for an over-crossing,
    with a and b swapped for an under-crossing.  No double-point term
    remains.  The states come in the order of a binary count with the first
    active crossing least significant.

    Evaluation contract: summing coeff(state) * prod(-W_loop) over the
    result equals (-1)^(#input loops) times the oriented expectation.
    """
    if not group.orientation_free:
        raise StarError("unoriented resolution applies to the rank-2 groups only")
    st = Stacked(d, leveled)
    crossings = st.active[::-1]  # the walk counts with the first one last
    if len({ac.point for ac in crossings}) != len(crossings):
        raise StarError("duplicate loops are not supported in the unoriented resolution")
    n = len(st.succ)
    start = st.succ + [0] * n
    for c, s in enumerate(st.succ):
        start[n + s] = n + c
    swaps = []
    for ac in crossings:
        c0, c1 = ac.cell_top, ac.cell_bottom
        n0, n1 = st.succ[c0], st.succ[c1]
        # compatible smoothing, forwards and backwards
        start[c0], start[c1], start[n + n0], start[n + n1] = n1, n0, n + c1, n + c0
        # reversal smoothing: head to head and tail to tail
        swaps.append([(c0, n + n0), (c1, n + n1)])
    over = [ac.ctype == "over" for ac in crossings]
    a, b = kauffman_coeffs(order)
    table = _count_table((a, b), (b, a), sum(over), len(over) - sum(over), order, None)
    return _exact_sum(st, start, swaps, over, table, _pairing_circles, True, order)
