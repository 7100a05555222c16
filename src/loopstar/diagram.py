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
from typing import Iterable, NamedTuple

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


def least_form(keys: list, rkeys: list | None = None) -> tuple[int, bool, list]:
    """(start, reversed, rotated keys) of the least rotation of keys, or of
    rkeys, the keys of the reversed word, when that one is smaller."""
    r = least_rotation(keys)
    best = keys[r:] + keys[:r]
    if rkeys is not None:
        s = least_rotation(rkeys)
        rbest = rkeys[s:] + rkeys[:s]
        if rbest < best:
            return s, True, rbest
    return r, False, best


def canonical(word: Iterable[WordEntry], convention: str = "oriented") -> Loop:
    """Minimal rotation of the word; under the unoriented convention also
    minimal over full reversal."""
    w = tuple(word)
    if not w:
        raise DiagramError("empty loop word")
    if convention == "unoriented":
        rw = reverse_word(w)
        rkeys = [entry_key(e) for e in rw]
    elif convention == "oriented":
        rw = rkeys = None
    else:
        raise DiagramError(f"unknown convention {convention!r}")
    start, flipped, _ = least_form([entry_key(e) for e in w], rkeys)
    seq = rw if flipped else w
    return Loop(seq[start:] + seq[:start])


def reverse(loop: Loop) -> Loop:
    """The loop with orientation reversed (direction flags flipped)."""
    return Loop(reverse_word(loop.word))


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
            for m, c in terms.items():
                self.add_term(m, c)

    @classmethod
    def zero(cls, order: int = DEFAULT_ORDER) -> "FormalSum":
        return cls(order=order)

    @classmethod
    def of(cls, m: Monomial, order: int = DEFAULT_ORDER) -> "FormalSum":
        return cls({m: SeriesCoeff.one(order)}, order=order)

    def add_term(self, m: Monomial, c) -> None:
        """Add c to the coefficient of m; a series of another order raises
        CoeffError, as SeriesCoeff addition does."""
        if isinstance(c, (int, Fraction)):
            c = SeriesCoeff.constant(c, self.order)
        cur = self.terms.get(m)
        if cur is None and c.order != self.order:
            raise CoeffError(f"a term of order {c.order} in a sum of order {self.order}")
        tot = c if cur is None else cur + c
        if tot.is_zero():
            self.terms.pop(m, None)
        else:
            self.terms[m] = tot

    def __add__(self, other: "FormalSum") -> "FormalSum":
        out = FormalSum(dict(self.terms), order=self.order)
        for m, c in other.terms.items():
            out.add_term(m, c)
        return out

    def __sub__(self, other: "FormalSum") -> "FormalSum":
        return self + other.scale(-1)

    def scale(self, c) -> "FormalSum":
        if isinstance(c, (int, Fraction)):
            c = SeriesCoeff.constant(c, self.order)
        return FormalSum({m: c * v for m, v in self.terms.items()}, order=self.order)

    def add_scaled(self, other: "FormalSum", c: SeriesCoeff) -> None:
        """self += c * other, in place; no products when c is one, and a
        plain copy into an empty sum of the same order."""
        if c.order != self.order or not c.is_one():
            for m, v in other.terms.items():
                self.add_term(m, c * v)
        elif not self.terms and other.order == self.order:
            self.terms.update(other.terms)
        else:
            for m, v in other.terms.items():
                self.add_term(m, v)

    def truncated(self, order: int) -> "FormalSum":
        """The sum with its coefficients cut to h^order; self when it is
        already at that order."""
        if order == self.order:
            return self
        if order > self.order:
            raise CoeffError(f"cannot extend a sum of order {self.order} to order {order}")
        return FormalSum({m: c.truncate(order) for m, c in self.terms.items()}, order=order)

    def mul_monomial(self, extra: Monomial) -> "FormalSum":
        return FormalSum(
            {monomial(m + extra): c for m, c in self.terms.items()}, order=self.order
        )

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


@dataclass
class Diagram:
    """Crossing points plus curves; pass slots are assigned in declaration
    order (first visit of a point = slot 0, second = slot 1).

    Treated as immutable after construction: all operations are pure and
    safe for concurrent use.  Build a new Diagram rather than mutating the
    dicts, or the pass-slot index goes stale."""

    curves: dict[str, Curve] = field(default_factory=dict)
    points: dict[str, CrossingPoint] = field(default_factory=dict)

    def __post_init__(self):
        self._visits: dict[str, int] = dict.fromkeys(self.points, 0)
        self._pass_slot: dict[tuple[str, int], tuple[str, int]] = {}
        for c in self.curves.values():
            for pos, pid in enumerate(c.passes):
                slot = self._visits.get(pid, 0)
                self._visits[pid] = slot + 1
                self._pass_slot[(c.id, pos)] = (pid, slot)
        self._valid = False

    def validate(self) -> list[str]:
        """Transversality audit: every point visited exactly twice, all pass
        references resolve, signs well-formed, each dict key its value's id,
        each level an int or a float that orders (not NaN).  Empty list
        means ok."""
        errors = [f"curve key {k!r} holds curve {c.id!r}" for k, c in self.curves.items() if k != c.id]
        errors += [f"point key {k!r} holds point {p.id!r}" for k, p in self.points.items() if k != p.id]
        # NaN is the one float that does not equal itself
        errors += [f"curve {c.id}: level must be an int or a float other than NaN, got {c.level!r}"
                   for c in self.curves.values() if not isinstance(c.level, (int, float)) or c.level != c.level]
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
        c = self.curves[curve_id]
        k = len(c.passes)
        return [Arc(curve_id, i) for i in range(max(k, 1))]

    def all_arcs(self) -> list[Arc]:
        return [a for cid in self.curves for a in self.arcs_of(cid)]

    def entry_end(self, e: WordEntry) -> tuple[str, int] | None:
        """Pass (point, slot) at which a directed word entry terminates;
        None for the free arc of a pass-less curve.  An arc that is not
        one of the diagram's raises DiagramError."""
        arc, d = e
        curve = self.curves.get(arc.curve)
        if curve is None or not 0 <= arc.index < max(len(curve.passes), 1):
            raise DiagramError(f"arc {arc.id} is not an arc of the diagram")
        k = len(curve.passes)
        if k == 0:
            return None
        pos = (arc.index + 1) % k if d == 1 else arc.index
        return self._pass_slot[(arc.curve, pos)]

    # -- loops --------------------------------------------------------------

    def loop_of(self, curve_id: str) -> Loop:
        """The curve itself as a forward loop.  It is canonical under both
        conventions: a forward word's least rotation is also less than any
        rotation of its reversal, whose entries all sort after it."""
        return canonical((a, 1) for a in self.arcs_of(curve_id))

    def loop_gaps(self, loop: Loop) -> list[tuple[int, str, int, int]]:
        """Crossing passes of a loop: (gap index, point, arriving slot,
        arriving direction).  Gap g sits between word entries g and g+1."""
        out = []
        for g, e in enumerate(loop.word):
            end = self.entry_end(e)
            if end is not None:
                out.append((g, end[0], end[1], e[1]))
        return out

    def crossing_sign(self, pid: str, d0: int, d1: int, slot0_first: bool) -> int:
        """Sign of point pid for an ordered pair of strands through it, d0
        and d1 being the directions of its slot-0 and slot-1 strands.

        The stored sign refers to the ordered (slot 0, slot 1) strands with
        forward traversal; a reversed strand flips the tangent, hence the
        sign, as does reading the slot-1 strand first.  The bracket's eps
        and the star product's over/under both read this one rule.
        """
        eps = self.points[pid].sign * d0 * d1
        return eps if slot0_first else -eps

    def crossings_between(self, x: Loop, y: Loop) -> list[tuple[str, int]]:
        """Crossing points with one pass in x and the other in y, with the
        crossing sign for the ordered pair (x, y)."""
        if set(a for a, _ in x.word) & set(a for a, _ in y.word):
            raise TransversalityError("loops overlap (shared arcs)")
        gx = {(p, s): d for _, p, s, d in self.loop_gaps(x)}
        gy = {(p, s): d for _, p, s, d in self.loop_gaps(y)}
        out = []
        for pid in sorted(self.points):
            p0, p1 = (pid, 0), (pid, 1)
            if p0 in gx and p1 in gy:
                out.append((pid, self.crossing_sign(pid, gx[p0], gy[p1], True)))
            if p1 in gx and p0 in gy:
                out.append((pid, self.crossing_sign(pid, gy[p0], gx[p1], False)))
        return out

    def concat_at(self, x: Loop, y: Loop, point_id: str) -> Loop:
        """Concatenation x *_p y: traverse x from p around to p, then y.

        Requires p to be an inter-loop crossing (one pass in each loop).
        The evaluation contract is tr(hol_{x,p} hol_{y,p}).
        """
        gaps = [[g for g, p, _, _ in self.loop_gaps(loop) if p == point_id] for loop in (x, y)]
        if [len(gs) for gs in gaps] != [1, 1]:
            raise TransversalityError(
                f"point {point_id} is not an inter-loop crossing of the arguments"
            )
        (gx,), (gy,) = gaps
        wx, wy = x.word, y.word
        rot_x = wx[gx + 1 :] + wx[: gx + 1]
        rot_y = wy[gy + 1 :] + wy[: gy + 1]
        return Loop(rot_x + rot_y)


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


def render_diagram(d: Diagram) -> str:
    """Canonical text: points then curves, each sorted by id."""
    lines = [f"point {p.id} {'+' if p.sign == 1 else '-'}" for p in
             sorted(d.points.values(), key=lambda p: p.id)]
    for c in sorted(d.curves.values(), key=lambda c: c.id):
        lines.append(f"curve {c.id} level {c.level}: {' '.join(c.passes)}".rstrip())
    return "\n".join(lines) + "\n"


# -- JSON formal sums ---------------------------------------------------------


def formal_sum_terms(fs: FormalSum) -> list[dict]:
    """The terms of a formal sum in canonical order: p/q coefficient strings
    and each loop as [arc id, "+"|"-"] pairs."""
    return [
        {
            "coeff": c.strings(),
            "monomial": [[[a.id, "+" if d == 1 else "-"] for a, d in l.word] for l in m],
        }
        for m, c in fs
    ]


def formal_sum_to_json(fs: FormalSum) -> str:
    return json.dumps({"order": fs.order, "terms": formal_sum_terms(fs)}, indent=2)


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
    try:
        data = json.loads(text)
    except ValueError as e:
        raise DiagramError(f"a formal sum is JSON text: {e}") from None
    if not isinstance(data, dict):
        raise DiagramError(f"a formal sum is a JSON object, got {type(data).__name__}")
    order = data.get("order")
    if type(order) is not int or order < 0:
        raise DiagramError(f"order must be an int >= 0, got {order!r}")
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
