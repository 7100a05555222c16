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
from one count table, by its numbers of toggled over- and under-crossings.

The rank-2 two-smoothing resolution walks doubled cells, cell c + n being
cell c walked backwards.  It starts from every crossing at its compatible
smoothing, the oriented swap applied to both halves; the reversal
smoothing joins head to head and tail to tail, two more swaps per crossing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import accumulate, combinations, compress, product
from operator import itemgetter, mul
from typing import Iterator, Mapping, Sequence

from .coeff import (
    DEFAULT_ORDER,
    CoeffError,
    GroupSpec,
    SeriesCoeff,
    check_coupling,
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
    least_form,
    monomial,
)
from . import goldman


class StarError(ValueError):
    pass


@dataclass(frozen=True)
class ActiveCrossing:
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
        self.cells: list[tuple[int, tuple]] = []  # (instance, word entry)
        self.succ: list[int] = []
        by_pass: dict[tuple[str, int], list[tuple[int, int, int]]] = {}
        for inst, (loop, _level) in enumerate(leveled):
            base = len(self.cells)
            m = len(loop.word)
            for i, e in enumerate(loop.word):
                end = d.entry_end(e)
                if end is not None:
                    by_pass.setdefault(end, []).append((base + i, e[1], inst))
                self.cells.append((inst, e))
                self.succ.append(base + (i + 1) % m)
        self.active: list[ActiveCrossing] = []
        for pid in sorted(d.points):
            for c0, d0, i0 in by_pass.get((pid, 0), []):
                for c1, d1, i1 in by_pass.get((pid, 1), []):
                    l0 = leveled[i0][1]
                    l1 = leveled[i1][1]
                    if l0 == l1:
                        continue
                    # the sign of the (top, bottom) strand pair
                    eps = d.crossing_sign(pid, d0, d1, l0 > l1)
                    ctype = "over" if eps > 0 else "under"
                    top, bottom = (c0, c1) if l0 > l1 else (c1, c0)
                    self.active.append(ActiveCrossing(pid, top, bottom, ctype))
        # entries of the doubled cells, cell c + n being cell c walked
        # backwards, with entry_key ranks: canonical forms compare ints,
        # not key tuples
        fwd = [e for _, e in self.cells]
        self.entries = fwd + [(a, -dr) for a, dr in fwd]
        ranks = {k: r for r, k in enumerate(sorted(set(map(entry_key, self.entries))))}
        self.keys = [ranks[entry_key(e)] for e in self.entries]
        # per convention (oriented, unoriented), the (rank key, Loop) of
        # each cell cycle canonicalized so far, keyed by its cell sequence:
        # states share most of their cycles, so one state sum
        # canonicalizes each distinct cycle once
        self._loops: tuple[dict, dict] = ({}, {})

    def cycles(self, succ: list[int]) -> list[list[int]]:
        """The loops of a state as lists of cells, each from its first cell."""
        seen = [False] * len(self.cells)
        out = []
        for start in range(len(self.cells)):
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
        """monomial(canonical(word) for each cycle), from the cell ranks.
        The reversed loop walks the cycle backwards through the mirrored
        cells, c + n mod 2n, which as an index into the 2n doubled cells is
        c - n.  A cycle's cell sequence fixes its loop, since every cycle
        starts at its first cell, so each distinct one is canonicalized
        once."""
        memo = self._loops[unoriented]
        keys = self.keys
        n = len(self.cells)
        loops = []
        for cycle in cycles:
            cells = tuple(cycle)
            found = memo.get(cells)
            if found is None:
                start, flipped, key = least_form(
                    list(map(keys.__getitem__, cycle)),
                    [keys[c - n] for c in reversed(cycle)] if unoriented else None,
                )
                seq = [c - n for c in reversed(cycle)] if flipped else cycle
                word = tuple(map(self.entries.__getitem__, seq[start:] + seq[:start]))
                found = memo[cells] = (key, Loop(word))
            loops.append(found)
        loops.sort(key=itemgetter(0))
        return tuple(loop for _, loop in loops)


def _states(
    succ: Sequence[int], swaps: Sequence[Sequence[tuple[int, int]]], budget: int | None = None
) -> Iterator[tuple[list[bool], list[int]]]:
    """Depth-first over the resolution states: crossing j toggles by
    applying the successor swaps swaps[j], which touch distinct positions,
    so applying them again untoggles it.  The untoggled branch comes first:
    the states come as a binary count with crossing 0 most significant.  A
    branch with more than budget toggled crossings is cut.  Yields
    (toggled, succ) per state: one shared list of flags and one shared
    successor array, both valid until the next state."""
    succ = list(succ)
    toggled = [False] * len(swaps)
    left = len(swaps) if budget is None else budget
    while True:
        yield toggled, succ
        # next state: untoggle the trailing crossings, then toggle the last
        # crossing before them that the budget allows
        j = len(swaps) - 1
        while j >= 0 and (toggled[j] or not left):
            if toggled[j]:
                for a, b in swaps[j]:
                    succ[a], succ[b] = succ[b], succ[a]
                toggled[j] = False
                left += 1
            j -= 1
        if j < 0:
            return
        for a, b in swaps[j]:
            succ[a], succ[b] = succ[b], succ[a]
        toggled[j] = True
        left -= 1


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
    chosen coefficients times the expectation of the stacked loops."""
    out = FormalSum.zero(order)
    for leveled, c in _stackings([f.terms for f in factors], levels):
        out.add_scaled(expect_loops(d, leveled, group, order), c)
    return out


def _count_table(over_pair, under_pair, n_over: int, n_under: int, order: int, cut: int | None):
    """State coefficients by toggled counts, each pair being a crossing
    type's (untoggled, toggled) coefficients: table[i][j] is toggled^i *
    untoggled^(n_over - i) of the over pair times the same of the under pair
    with j and n_under.  With a cut, the rows stop at i + j <= cut."""
    one = SeriesCoeff.one(order)

    def type_factors(pair, n: int) -> list[SeriesCoeff]:
        """toggled^s * untoggled^(n - s) for s = 0..min(n, cut)."""
        toggled = list(accumulate([pair[1]] * (n if cut is None else min(n, cut)), mul, initial=one))
        untoggled = list(accumulate([pair[0]] * n, mul, initial=one))
        return [t * untoggled[n - s] for s, t in enumerate(toggled)]

    over, under = type_factors(over_pair, n_over), type_factors(under_pair, n_under)
    return tuple(tuple(a * b for b in under[: None if cut is None else cut - i + 1]) for i, a in enumerate(over))


@lru_cache(maxsize=256)
def _state_table(group: GroupSpec, order: int, n_over: int, n_under: int) -> tuple[tuple[SeriesCoeff, ...], ...]:
    """_count_table of the group's (virtual, smooth) pairs, cut at order
    smoothings as the walk is.  The cut is exact only while no smoothing
    coefficient has an h^0 term, so one that has raises StarError.  Cached
    per process; the tuples keep shared entries immutable."""
    pairs = {t: crossing_coeffs(group, t, order) for t, n in (("over", n_over), ("under", n_under)) if n}
    if any(p.smooth[0] for p in pairs.values()):
        raise StarError(f"{group}: a smoothing coefficient has an h^0 term; the cut at K is not exact")
    over, under = ((pairs[t].virtual, pairs[t].smooth) if t in pairs else (None, None) for t in ("over", "under"))
    return _count_table(over, under, n_over, n_under, order, order)


def _exact_sum(st: Stacked, start, swaps, over, table, walk, unoriented: bool, order: int, cut=None) -> FormalSum:
    """The exact state sum: each state's monomial, from the cycles walk(st,
    succ) finds, times table[i][j], i and j its toggled over- and under-crossings."""
    out = FormalSum.zero(order)
    for toggled, succ in _states(start, swaps, cut):
        i = sum(compress(over, toggled))
        out.add_term(st.canonical_monomial(walk(st, succ), unoriented), table[i][sum(toggled) - i])
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
    idxs = list(resolution_order) if resolution_order is not None else list(range(len(st.active)))
    if sorted(idxs) != list(range(len(st.active))):
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
    for smoothed, succ in _states(st.succ, swaps):
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
    beta, or a value that overflows a float, raises StarError."""
    check_coupling(beta, error=StarError)
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
    at beta = 0.01, 0.1 and 0.5.
    """
    # local import: holonomy loads numpy, which the exact path never needs
    from .holonomy import eval_complex_sum

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
        def as_complex(fs: FormalSum, beta: float) -> dict[Monomial, complex]:
            return {m: c.eval_h(2.0 * beta) for m, c in fs.terms.items()}

        for beta in (0.01, 0.1, 0.5):
            fu, fv, fw = as_complex(u, beta), as_complex(v, beta), as_complex(w, beta)
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
    walked from its first forward cell, the walk through the mirrored cells
    being the same circle reversed."""
    n = len(st.cells)
    seen = [False] * n
    out = []
    for start in range(n):
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
    n = len(st.cells)
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
