"""Combinatorial model of oriented closed curves with transversal crossings.

A diagram stores only the crossing combinatorics: named crossing points with
signs, and curves given as cyclic pass-words through those points.  Arcs are
the segments between consecutive passes; loops are cyclic words of directed
arcs; monomials are multisets of loops; formal sums are linear combinations
of monomials over the truncated series ring.

Surface topology is implicit: brackets and resolutions depend on nothing but
intersection points, signs, and concatenation, so no embedding data is kept.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .coeff import CoeffError, SeriesCoeff, DEFAULT_ORDER, check_order


class DiagramError(ValueError):
    pass


class TransversalityError(DiagramError):
    pass


class Arc(NamedTuple):
    curve: str
    index: int

    @property
    def id(self) -> str:
        return f"{self.curve}.{self.index}"

    @classmethod
    def from_id(cls, s: str) -> "Arc":
        """The arc whose id is s.  Only an id that Arc.id writes back as s,
        with a non-negative index, is accepted: "C.01", "C.+1", "C. 1",
        "C.1_0" and "C.-1" raise DiagramError."""
        curve, _, idx = s.rpartition(".")
        try:
            arc = cls(curve, int(idx)) if curve and idx.isascii() and idx.isdigit() else None
        except ValueError:  # more digits than int() converts
            arc = None
        if arc is None or arc.id != s:
            raise DiagramError(f"bad arc id {s!r}")
        return arc


@dataclass(frozen=True)
class CrossingPoint:
    id: str
    sign: int  # +1 or -1

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise DiagramError(f"crossing sign must be +-1, got {self.sign}")


@dataclass(frozen=True)
class Curve:
    id: str
    passes: tuple[str, ...]
    level: int = 0


# A word entry is (Arc, dir) with dir = +1 (forward) or -1 (reversed).
WordEntry = tuple[Arc, int]


def entry_key(e: WordEntry):
    (curve, index), d = e
    # forward sorts before reversed so that forward-only loops canonicalize
    # identically under both conventions
    return (curve, index, 0 if d == 1 else 1)


@dataclass(frozen=True)
class Loop:
    """Cyclic word of directed arcs; construct via canonical()."""

    word: tuple[WordEntry, ...]
    # sort key of the word, filled on first use; not part of equality
    _key: tuple | None = field(default=None, init=False, compare=False, repr=False)
    # hash((word,)), the hash a frozen dataclass computes, filled on first
    # use; string hashes are salted per process, so it is never pickled
    _hash: int | None = field(default=None, init=False, compare=False, repr=False)

    def key(self):
        if self._key is None:
            object.__setattr__(self, "_key", tuple(entry_key(e) for e in self.word))
        return self._key

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.word,)))
        return self._hash

    def __reduce__(self):
        return Loop, (self.word,)

    def __len__(self):
        return len(self.word)

    def __str__(self):
        """Arc ids in word order, a reversed entry marked "~": "C.0 D.1~"."""
        return " ".join(a.id if d == 1 else a.id + "~" for a, d in self.word)

    def __repr__(self):
        return f"Loop({self})"


def reverse_word(word: Iterable[WordEntry]) -> tuple[WordEntry, ...]:
    return tuple((a, -d) for a, d in reversed(tuple(word)))


def least_rotation(keys: list) -> int:
    """Start of the lexicographically least rotation of keys: the least of
    the rotations that begin at a smallest key, usually only one."""
    lo = min(keys)
    if keys.count(lo) == 1:
        return keys.index(lo)
    starts = [i for i, k in enumerate(keys) if k == lo]
    return min(starts, key=lambda i: keys[i:] + keys[:i])


def is_unoriented(convention: str) -> bool:
    """The one convention rule: "oriented" or "unoriented", else DiagramError."""
    if convention not in ("oriented", "unoriented"):
        raise DiagramError(f"unknown convention {convention!r}")
    return convention == "unoriented"


def canonical(word: Iterable[WordEntry], convention: str = "oriented") -> Loop:
    """The least rotation of the word in entry_key order; under the
    unoriented convention the least rotation of the word or of its
    reversal, a tie keeping the word itself."""
    w = tuple(word)
    if not w:
        raise DiagramError("empty loop word")
    unoriented = is_unoriented(convention)
    keys = [entry_key(e) for e in w]
    r = least_rotation(keys)
    if unoriented:
        rw = reverse_word(w)
        rkeys = [entry_key(e) for e in rw]
        s = least_rotation(rkeys)
        if rkeys[s:] + rkeys[:s] < keys[r:] + keys[:r]:
            return Loop(rw[s:] + rw[:s])
    return Loop(w[r:] + w[:r])


# Monomial: multiset of loops as a sorted tuple.
Monomial = tuple[Loop, ...]


def monomial(loops: Iterable[Loop]) -> Monomial:
    return tuple(sorted(loops, key=lambda l: l.key()))


def monomial_text(m: Monomial) -> str:
    """"W(C.0) * W(D.1~)", or "1" for the empty monomial."""
    return " * ".join(f"W({l})" for l in m) if m else "1"


class FormalSum:
    """Finite map Monomial -> SeriesCoeff of one truncation order, an int
    >= 0; zero-coefficient entries pruned.  Two sums are equal when their
    orders and their terms are."""

    __slots__ = ("terms", "order")

    def __init__(self, terms: dict[Monomial, SeriesCoeff] | None = None, order: int = DEFAULT_ORDER):
        check_order(order)
        self.order = order
        self.terms: dict[Monomial, SeriesCoeff] = {}
        if terms:
            series = zip(terms, map(self._series, terms.values()))
            self._merge((m, c) for m, c in series if not c.is_zero())

    @classmethod
    def zero(cls, order: int = DEFAULT_ORDER) -> "FormalSum":
        return cls(order=order)

    @classmethod
    def of(cls, m: Monomial, order: int = DEFAULT_ORDER) -> "FormalSum":
        return cls({m: SeriesCoeff.one(order)}, order=order)

    def _check_order(self, order: int) -> None:
        if order != self.order:
            raise CoeffError(f"a term or sum of order {order} in a sum of order {self.order}")

    def _series(self, c) -> SeriesCoeff:
        """c as a series of the sum's order, an int or Fraction as a
        constant; a series of another order raises CoeffError."""
        if not isinstance(c, SeriesCoeff):
            return SeriesCoeff.constant(c, self.order)
        self._check_order(c.order)
        return c

    def _merge(self, pairs: Iterable[tuple[Monomial, SeriesCoeff]]) -> None:
        """The one merge loop: add each (monomial, coefficient) pair, every
        coefficient a nonzero series of the sum's order.  A new monomial
        goes in with one dict probe; a sum that cancels drops its monomial,
        so a later add puts it last."""
        terms = self.terms
        for m, c in pairs:
            n = len(terms)
            cur = terms.setdefault(m, c)
            if len(terms) == n:  # m was already there: cur may be c itself
                tot = cur + c
                if tot.is_zero():
                    del terms[m]
                else:
                    terms[m] = tot

    def add_term(self, m: Monomial, c) -> None:
        """Add c to the coefficient of m, an int or Fraction c as a constant
        series; a series of another order raises CoeffError, as SeriesCoeff
        addition does, and leaves the terms as they were.  A zero c changes
        nothing."""
        c = self._series(c)
        if not c.is_zero():
            self._merge(((m, c),))

    def __add__(self, other: "FormalSum") -> "FormalSum":
        if not isinstance(other, FormalSum):
            return NotImplemented
        self._check_order(other.order)
        out = FormalSum(order=self.order)
        out.terms.update(self.terms)  # merged already: only other's terms merge
        out._merge(other.terms.items())
        return out

    def __sub__(self, other: "FormalSum") -> "FormalSum":
        if not isinstance(other, FormalSum):
            return NotImplemented
        return self + other.scale(-1)

    def scale(self, c) -> "FormalSum":
        out = FormalSum(order=self.order)
        out.add_scaled(self, c)
        return out

    def add_scaled(self, other: "FormalSum", c) -> None:
        """self += c * other, in place, for a sum other of self's order, an
        int or Fraction c read as add_term reads it: a plain copy into an
        empty sum when c is one, else one product per distinct coefficient
        of other."""
        self._check_order(other.order)
        self._add_scaled(other, self._series(c), {})

    def _add_scaled(
        self, other: "FormalSum", c: SeriesCoeff, products: dict[SeriesCoeff, dict[SeriesCoeff, SeriesCoeff]]
    ) -> None:
        """add_scaled of a sum and a series of self's order, each product
        c * v looked up in products[c][v] first: a caller that passes one
        dict to all its merges forms each distinct product once."""
        if not self.terms and c.is_one():
            self.terms.update(other.terms)
            return
        row = products.setdefault(c, {})

        def scaled():
            for m, v in other.terms.items():
                cv = row.get(v)
                if cv is None:
                    cv = row[v] = c * v
                if not cv.is_zero():
                    yield m, cv

        self._merge(scaled())

    def truncated(self, order: int) -> "FormalSum":
        """The sum with its coefficients cut to h^order; self when it is
        already at that order."""
        if order == self.order:
            return self
        if order > self.order:
            raise CoeffError(f"cannot extend a sum of order {self.order} to order {order}")
        return FormalSum({m: c.truncate(order) for m, c in self.terms.items()}, order=order)

    def mul_monomial(self, extra: Monomial) -> "FormalSum":
        """The sum with every monomial times extra, equal products merged."""
        out = FormalSum(order=self.order)
        out._merge((monomial(m + extra), c) for m, c in self.terms.items())
        return out

    def slot(self, k: int) -> dict[Monomial, Fraction]:
        """Coefficient of h^k per monomial; zero entries omitted."""
        return {m: c[k] for m, c in self.terms.items() if c[k] != 0}

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, FormalSum) and self.order == other.order and self.terms == other.terms

    def __iter__(self):
        return iter(sorted(self.terms.items(), key=lambda kv: tuple(l.key() for l in kv[0])))

    def __len__(self):
        return len(self.terms)

    def __repr__(self):
        if not self.terms:
            return "FormalSum(0)"
        bits = [f"{c!r} * {list(m)}" for m, c in self]
        return "FormalSum(" + " + ".join(bits) + ")"


def level_error(level) -> str | None:
    """What is wrong with a curve's or a state sum's stacking level, or None.
    NaN, the one float that does not equal itself, does not order."""
    if not (isinstance(level, (int, float)) and level == level):
        return f"level must be an int or a float other than NaN, got {level!r}"


@dataclass
class Diagram:
    """Crossing points plus curves, their keys, ids and pass ids strings,
    each curve's passes a tuple; anything else raises DiagramError.  Pass slots
    follow declaration order (first visit = slot 0, second = slot 1).
    meetings() pairs the strands of closed walks at each point, for the
    bracket and the star, and refuses any word that is not a closed walk.

    Treated as immutable after construction: all operations are pure and
    safe for concurrent use.  Build a new Diagram rather than mutating the
    dicts, or the tables go stale.  They hold only what the diagram fixes,
    all filled here: where every (arc, direction) entry ends and starts,
    each curve's arcs by its dict key, the sorted point ids."""

    curves: dict[str, Curve] = field(default_factory=dict)
    points: dict[str, CrossingPoint] = field(default_factory=dict)

    def __post_init__(self):
        for kind, table, cls in (("curve", self.curves, Curve), ("point", self.points, CrossingPoint)):
            for key, v in table.items():  # before the sorts below
                if not isinstance(v, cls):
                    raise DiagramError(f"{kind} {key!r} holds {v!r}, not a {cls.__name__}")
                if not (isinstance(key, str) and isinstance(v.id, str)):
                    raise DiagramError(f"{kind} key {key!r} and id {v.id!r} must be strings")
        self._visits: dict[str, int] = dict.fromkeys(self.points, 0)
        # (arc, dir) -> (the pass (point, slot) it ends at, the point it
        # arrives at, the one it leaves): arc i runs from pass i to pass i + 1
        self._ends: dict[WordEntry, tuple] = {}
        for key, c in self.curves.items():
            if not isinstance(c.passes, tuple):
                raise DiagramError(f"curve {key}: passes {c.passes!r} are not a tuple of point ids")
            k = len(c.passes)
            for pos, pid in enumerate(c.passes):
                if not isinstance(pid, str):
                    raise DiagramError(f"curve {key}: pass {pid!r} is not a point id string")
                slot = self._visits.get(pid, 0)
                self._visits[pid] = slot + 1
                self._ends[Arc(key, (pos - 1) % k), 1] = ((pid, slot), pid, c.passes[pos - 1])
                self._ends[Arc(key, pos), -1] = ((pid, slot), pid, c.passes[pos + 1 - k])
            if not k:  # the free arc meets nothing and arrives where it leaves: itself, no point id
                self._ends[Arc(key, 0), 1] = self._ends[Arc(key, 0), -1] = (None, Arc(key, 0), Arc(key, 0))
        self._order = sorted(self.points)
        self._valid = False

    def validate(self) -> list[str]:
        """Transversality audit: every point visited exactly twice, all pass
        references resolve, signs well-formed, each dict key its value's id,
        each level an int or a float that orders (not NaN).  Empty list
        means ok."""
        errors = [f"curve key {k!r} holds curve {c.id!r}" for k, c in self.curves.items() if k != c.id]
        errors += [f"point key {k!r} holds point {p.id!r}" for k, p in self.points.items() if k != p.id]
        errors += [f"curve {c.id}: {level_error(c.level)}" for c in self.curves.values() if level_error(c.level)]
        for c in self.curves.values():
            for pid in c.passes:
                if pid not in self.points:
                    errors.append(f"curve {c.id}: pass through undeclared point {pid}")
        for pid, visits in self._visits.items():
            if pid not in self.points:
                continue
            if visits > 2:
                errors.append(f"point {pid}: triple point ({visits} passes)")
            elif visits == 1:
                errors.append(f"point {pid}: only one pass")
            elif visits == 0:
                errors.append(f"point {pid}: declared but never visited")
        return errors

    def require_valid(self):
        """Raise DiagramError unless validate() is clean; checked once per
        diagram, which is immutable."""
        if not self._valid:
            errs = self.validate()
            if errs:
                raise DiagramError("; ".join(errs))
            self._valid = True

    # -- arcs ---------------------------------------------------------------

    def arcs_of(self, curve_id: str) -> list[Arc]:
        c = self.curves.get(curve_id)
        if c is None:
            raise DiagramError(f"unknown curve {curve_id!r}")
        return [Arc(curve_id, i) for i in range(max(len(c.passes), 1))]

    def all_arcs(self) -> list[Arc]:
        return [a for cid in self.curves for a in self.arcs_of(cid)]

    # -- loops --------------------------------------------------------------

    def loop_of(self, curve_id: str) -> Loop:
        """The curve itself as a forward loop.  It is canonical under both
        conventions: a forward word's least rotation is also less than any
        rotation of its reversal, whose entries all sort after it."""
        return canonical((a, 1) for a in self.arcs_of(curve_id))

    def crossing_sign(self, pid: str, d0: int, d1: int, slot0_first: bool) -> int:
        """Sign of point pid for an ordered pair of strands through it, d0
        and d1 being the directions of its slot-0 and slot-1 strands.

        The stored sign refers to the ordered (slot 0, slot 1) strands with
        forward traversal; a reversed strand flips the tangent, hence the
        sign, as does reading the slot-1 strand first.  The bracket's eps
        and the star product's over/under both read this one rule.
        """
        point = self.points.get(pid)
        if point is None:
            raise DiagramError(f"unknown crossing point {pid!r}")
        if d0 not in (1, -1) or d1 not in (1, -1):
            raise DiagramError(f"point {pid}: directions {d0!r}, {d1!r} are not each +1 or -1")
        eps = point.sign * d0 * d1
        return eps if slot0_first else -eps

    def meetings(self, loops: Sequence[Loop]) -> list[tuple[str, tuple, tuple]]:
        """Every pair of a slot-0 and a slot-1 strand of the loops through a
        point, as (point, strand, strand) in point then word order; the one
        place that pairs passes.  A strand is (loop, cell, direction), cell
        indexing the entry arriving at the pass in the words joined.  Any
        word but a closed walk, each entry an (arc, +1 or -1) of the diagram
        leaving the point the one before it arrives at, raises DiagramError,
        as does the empty word, which canonical() refuses too."""
        passes, ends, base = {}, self._ends, 0  # passes: (point, slot) -> its strands
        for i, loop in enumerate(loops):
            first = here = None  # the point the walk first leaves, the one it is at
            for cell, e in enumerate(loop.word, base):
                try:
                    end, arrive, leave = ends[e]
                except (KeyError, TypeError):  # not an entry of the table, or not hashable
                    raise DiagramError(f"loop {i}: word entry {e!r} is not an (arc, +1 or -1) of the diagram") from None
                if leave != here:  # the first entry, or a break in the walk, after which first stays None
                    first = leave if here is None else None
                here = arrive
                if end is not None:
                    passes.setdefault(end, []).append((i, cell, e[1]))
            if first is None or first != here:  # a break, an empty word, or an open end
                raise DiagramError(f"loop {i} is not a closed walk: {loop!r}")
            base += len(loop.word)
        return [(pid, s0, s1) for pid in self._order
                for s0 in passes.get((pid, 0), ()) for s1 in passes.get((pid, 1), ())]

    def crossings_between(self, x: Loop, y: Loop) -> list[tuple[str, int, int, int]]:
        """(point, sign for the ordered pair (x, y), gap of x, gap of y) of
        each point one of whose passes is in x and the other in y, gap g
        lying between word entries g and g + 1.  A point that x or y passes
        more than once raises TransversalityError."""
        met = self.meetings((x, y))  # first, so that it refuses an entry no set can hold
        if set(a for a, _ in x.word) & set(a for a, _ in y.word):
            raise TransversalityError("loops overlap (shared arcs)")
        points = [pid for pid, _, _ in met]
        out = []
        for pid, (i0, c0, d0), (i1, c1, d1) in met:
            if i0 == i1:
                continue
            if points.count(pid) > 1:
                raise TransversalityError(f"point {pid} is not an inter-loop crossing of the arguments")
            gx, gy = (c0, c1 - len(x)) if i0 == 0 else (c1, c0 - len(x))
            out.append((pid, self.crossing_sign(pid, d0, d1, i0 == 0), gx, gy))
        return out


# -- text format -------------------------------------------------------------

_POINT_RE = re.compile(r"^point\s+(\w+)\s+([+-])$")
_CURVE_RE = re.compile(r"^curve\s+(\w+)\s+level\s+(-?\d+)\s*:\s*(.*)$")


def parse_diagram(text: str) -> Diagram:
    """Parse the line-oriented diagram format.

    Syntax errors raise DiagramError with the line number; semantic problems
    (triple points etc.) are left to validate().
    """
    points: dict[str, CrossingPoint] = {}
    curves: dict[str, Curve] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _POINT_RE.match(line)
        if m:
            pid, sgn = m.groups()
            if pid in points:
                raise DiagramError(f"line {ln}: duplicate point {pid}")
            points[pid] = CrossingPoint(pid, 1 if sgn == "+" else -1)
            continue
        m = _CURVE_RE.match(line)
        if m:
            cid, level, rest = m.groups()
            if cid in curves:
                raise DiagramError(f"line {ln}: duplicate curve {cid}")
            passes = tuple(rest.split())
            for tok in passes:
                if not re.fullmatch(r"\w+", tok):
                    raise DiagramError(f"line {ln}: bad pass token {tok!r}")
            curves[cid] = Curve(cid, passes, int(level))
            continue
        raise DiagramError(f"line {ln}: cannot parse {line!r}")
    return Diagram(curves=curves, points=points)


# -- JSON formal sums ---------------------------------------------------------


def _json_list(items: list[str], pad: str) -> str:
    """A list in json.dumps's indent=2 layout, at the depth whose indent is
    pad, from its items' rendered text."""
    if not items:
        return "[]"
    inner = "\n" + pad + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + pad + "]"


def write_formal_sum(fs: FormalSum, fmt: str = "json", head: dict | None = None,
                     tail: dict | None = None) -> str:
    """The formal sum as text, from one sorted pass over its terms that
    renders each distinct loop once.

    fmt "json" gives json.dumps({**head, "order": order, "terms": terms,
    **tail}, indent=2) byte for byte, head and tail having string keys and
    terms being [{"coeff": [p/q strings], "monomial": [[[arc id, "+" | "-"],
    ...], ...]}, ...] in canonical term order.  fmt "text" gives the table
    of a monomial column, as wide as its longest entry, and the coefficients
    of h^0..h^order, or "0" for the zero sum, each line ending in a newline;
    it takes no head or tail.  The text is joined once, from pieces that
    are each at most one term long."""
    if fmt == "text":
        # monomial_text's "W(loop)" pieces, each distinct loop's built once
        names: dict[Loop, str] = {}
        rows = []
        for m, c in fs:
            parts = []
            for l in m:
                name = names.get(l)
                if name is None:
                    name = names[l] = f"W({l})"
                parts.append(name)
            rows.append((" * ".join(parts) if m else "1", " ".join(c.strings())))
        if not rows:
            return "0\n"
        width = max(len(mono) for mono, _ in rows)
        lines = [f"{'monomial'.ljust(width)}  coefficients of h^0..h^{fs.order}\n"]
        lines += [f"{mono.ljust(width)}  {cs}\n" for mono, cs in rows]
        return "".join(lines)
    if fmt != "json":
        raise DiagramError(f"unknown formal sum format {fmt!r}")

    def fields(extra: dict | None) -> list[str]:
        # a JSON string holds no raw newline, so each one starts a nested line
        return [json.dumps(k) + ": " + json.dumps(v, indent=2).replace("\n", "\n  ") for k, v in (extra or {}).items()]

    out = ["{\n  " + ",\n  ".join([*fields(head), f'"order": {fs.order}', '"terms": ['])]
    entries: dict[WordEntry, str] = {}
    loops: dict[Loop, str] = {}
    sep = "\n    "
    for m, c in fs:
        parts = []
        for l in m:
            text = loops.get(l)
            if text is None:
                word = []
                for e in l.word:
                    entry = entries.get(e)
                    if entry is None:
                        a, d = e
                        entry = entries[e] = _json_list([json.dumps(a.id), '"+"' if d == 1 else '"-"'], " " * 10)
                    word.append(entry)
                text = loops[l] = _json_list(word, " " * 8)
            parts.append(text)
        coeff = _json_list([f'"{x}"' for x in c.strings()], " " * 6)
        out.append(f'{sep}{{\n      "coeff": {coeff},\n      "monomial": {_json_list(parts, " " * 6)}\n    }}')
        sep = ",\n    "
    out.append("\n  ]" if fs.terms else "]")
    out += [",\n  " + f for f in fields(tail)]
    out.append("\n}")
    return "".join(out)


def formal_sum_to_json(fs: FormalSum) -> str:
    return write_formal_sum(fs)


_DIRECTIONS = {"+": 1, "-": -1}

# a coefficient as SeriesCoeff.strings writes it, "p/q" or "p"; any other
# JSON value goes to SeriesCoeff as it is, which accepts only a non-bool int
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def formal_sum_from_json(text: str, convention: str = "oriented") -> FormalSum:
    """Inverse of formal_sum_to_json.  Loops are canonicalized under the
    convention, so rotated words of one loop merge, and under "unoriented"
    (the rank-2 groups) a loop and its reversal merge too.  Malformed input
    (text that is not JSON, no object, an order that is not an int >= 0,
    "terms" that is not a list, a term that is not an object with a "coeff"
    list and a "monomial" list, a coefficient list without exactly order + 1
    rationals, each a "p/q" string or a non-bool int, a loop word that is
    not a list, a word entry that is not [arc id string, flag], an empty
    word, a bad flag or arc id, an unknown convention) raises DiagramError."""
    is_unoriented(convention)
    try:
        data = json.loads(text)
    except ValueError as e:
        raise DiagramError(f"a formal sum is JSON text: {e}") from None
    if not isinstance(data, dict):
        raise DiagramError(f"a formal sum is a JSON object, got {type(data).__name__}")
    order = data.get("order")
    check_order(order, DiagramError)
    terms = data.get("terms")
    if not isinstance(terms, list):
        raise DiagramError(f"terms must be a list, got {terms!r}")
    fs = FormalSum(order=order)
    for t, item in enumerate(terms):
        if not (isinstance(item, dict) and isinstance(item.get("coeff"), list)
                and isinstance(item.get("monomial"), list)):
            raise DiagramError(f"term {t}: expected an object with a 'coeff' list and a 'monomial' list")
        coeffs = item["coeff"]
        if len(coeffs) != order + 1:
            raise DiagramError(f"term {t}: {len(coeffs)} coefficients, expected order + 1 = {order + 1}")
        try:
            coeff = SeriesCoeff([Fraction(x) if isinstance(x, str) and _RATIONAL.fullmatch(x) else x
                                 for x in coeffs], order=order)
        except (ValueError, ZeroDivisionError):  # CoeffError is a ValueError
            raise DiagramError(f"term {t}: coefficients {coeffs!r} are not all rationals") from None
        loops = []
        for w in item["monomial"]:
            if not isinstance(w, list):
                raise DiagramError(f"term {t}: loop word {w!r}, expected a list of [arc id, flag]")
            word = []
            for entry in w:
                if not (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)):
                    raise DiagramError(f"term {t}: word entry {entry!r}, expected [arc id, flag]")
                aid, flag = entry
                direction = _DIRECTIONS.get(flag) if isinstance(flag, str) else None
                if direction is None:
                    raise DiagramError(f"term {t}: direction flag {flag!r}, expected '+' or '-'")
                word.append((Arc.from_id(aid), direction))
            loops.append(canonical(word, convention))
        fs.add_term(monomial(loops), coeff)
    return fs
