"""Exact truncated series ring in the deformation parameter h, and the
per-crossing coefficient tables for each supported group.

Every group's coefficients come from c = n/2 and the framing rate f (0 on
the rank-2 kinds, n/2 on gl(n) and u(n)): the over-crossing pair is the
first column of exp(beta*M), M = [[f - c, 1], [2, f + c]], and as
(M - f*I)^2 = delta*I with delta = c^2 + 2 it is exp(beta*f) times
(cosh(beta*r) - c*sinh(beta*r)/r, 2*sinh(beta*r)/r), r = sqrt(delta); the
under-crossing takes beta -> -beta.  With beta = h/2 each entry is a
polynomial in h with rational coefficients, since only even powers of r
occur.

A series is stored as integer numerators over one positive common
denominator, in lowest terms.  Sums and products work on Python ints and
reduce the result with a single gcd, so the arithmetic stays exact without
a Fraction per slot; the Fraction view is built only when asked for.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

DEFAULT_ORDER = 8

GROUP_KINDS = ("su2", "sl2r", "sl2c", "gln", "un")

# Rank-2 kinds share the SU(2) crossing coefficients and the unoriented
# trace convention tr(V) = tr(V^-1).
SL2_FAMILY = ("su2", "sl2r", "sl2c")


class CoeffError(ValueError):
    pass


class HolonomyError(ValueError):
    """Raised by the numeric oracle (loopstar.holonomy); defined here so the
    CLI can catch it without importing numpy."""


def check_order(order, error=CoeffError) -> None:
    """The one truncation-order rule: raise error unless order is an int
    (not a bool) >= 0."""
    if type(order) is not int or order < 0:
        raise error(f"order must be an int >= 0, got {order!r}")


def check_coupling(beta, values=(), error=CoeffError) -> None:
    """The one coupling rule: raise error unless beta is a finite real and
    each of the values made from it passes check_values."""
    try:
        finite = math.isfinite(beta)
    except (TypeError, OverflowError):  # not a real, or an int no float can hold
        finite = False
    if not finite:
        raise error(f"the coupling beta must be finite, got {beta!r}")
    check_values(values, error, f"the value at beta={beta!r}")


def check_values(values, error=CoeffError, what: str = "a value") -> None:
    """The one value rule: raise error, naming the values what, unless each
    is a number (int, float or complex) that a float holds, inf and nan
    counting as an overflow."""
    try:
        finite = all(map(cmath.isfinite, values))
    except TypeError:  # a str, None, or anything else that is not a number
        raise error(f"{what} is not a number") from None
    except OverflowError:  # an int no float can hold
        finite = False
    if not finite:
        raise error(f"{what} overflows a float")


def _as_fraction(x) -> Fraction:
    """The one exact-rational rule: a Fraction or an int, not a bool."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise CoeffError(f"expected exact rational, got {type(x).__name__}")


class SeriesCoeff:
    """Polynomial in h of degree <= order, with exact rational coefficients.

    The value is num[k] / den at h^k: a tuple of int numerators over one
    positive int denominator with gcd(den, *num) == 1 (zero has den == 1),
    so equal values have equal fields.  coeffs is the same value as a tuple
    of Fractions.  Arithmetic truncates at the order; all values are
    immutable; copies and pickles are rebuilt from num and den.
    """

    __slots__ = ("num", "den")

    def __init__(self, coeffs, order: int | None = None):
        cs = [_as_fraction(c) for c in coeffs]
        if order is not None:
            check_order(order)
            cs = cs[: order + 1] + [Fraction(0)] * (order + 1 - len(cs))
        elif not cs:
            raise CoeffError("empty coefficient list without explicit order")
        # the lcm of reduced denominators is already coprime to the numerators
        den = math.lcm(*(c.denominator for c in cs))
        object.__setattr__(self, "num", tuple(c.numerator * (den // c.denominator) for c in cs))
        object.__setattr__(self, "den", den)

    @classmethod
    def _reduced(cls, num, den: int) -> "SeriesCoeff":
        """The series num / den (den > 0), brought to lowest terms."""
        g = math.gcd(den, *num)
        if g != 1:
            num = [a // g for a in num]
            den //= g
        out = object.__new__(cls)
        object.__setattr__(out, "num", tuple(num))
        object.__setattr__(out, "den", den)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("SeriesCoeff is immutable")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        den = self.den
        return tuple(Fraction(a, den) for a in self.num)

    @property
    def order(self) -> int:
        return len(self.num) - 1

    @classmethod
    def zero(cls, order: int = DEFAULT_ORDER) -> "SeriesCoeff":
        return cls([], order=order)

    @classmethod
    def one(cls, order: int = DEFAULT_ORDER) -> "SeriesCoeff":
        return cls([1], order=order)

    @classmethod
    def constant(cls, c, order: int = DEFAULT_ORDER) -> "SeriesCoeff":
        return cls([c], order=order)

    def __getitem__(self, k: int) -> Fraction:
        if 0 <= k < len(self.num):
            return Fraction(self.num[k], self.den)
        return Fraction(0)

    def _coerce(self, other):
        if isinstance(other, SeriesCoeff):
            if len(other.num) != len(self.num):
                raise CoeffError("series order mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            return SeriesCoeff([other], order=self.order)
        return None

    def _plus(self, o: "SeriesCoeff", sign: int) -> "SeriesCoeff":
        """self + sign * o over the least common denominator."""
        da, db = self.den, o.den
        g = math.gcd(da, db)
        sa, sb = db // g, sign * (da // g)
        return SeriesCoeff._reduced([a * sa + b * sb for a, b in zip(self.num, o.num)], da * sa)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._plus(o, 1)

    __radd__ = __add__

    def __neg__(self):
        return SeriesCoeff._reduced([-a for a in self.num], self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._plus(o, -1)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        bs = o.num
        n = len(bs)
        out = [0] * n
        for i, a in enumerate(self.num):
            if a:
                for j in range(n - i):
                    out[i + j] += a * bs[j]
        return SeriesCoeff._reduced(out, self.den * o.den)

    __rmul__ = __mul__

    def strings(self) -> list[str]:
        """The coefficients as p/q strings, the one place a series becomes
        text: the bytes of str(Fraction), written from num and den."""
        den = self.den
        if den == 1:
            return [str(a) for a in self.num]
        out = []
        for a in self.num:
            g = math.gcd(a, den)
            out.append(str(a // g) if g == den else f"{a // g}/{den // g}")
        return out

    def truncate(self, order: int) -> "SeriesCoeff":
        check_order(order)
        if order > self.order:
            raise CoeffError(f"cannot extend a series of order {self.order} to order {order}")
        return SeriesCoeff._reduced(self.num[: order + 1], self.den)

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_one(self) -> bool:
        num = self.num
        return num[0] == self.den == 1 and not any(num[1:])

    def eval_h(self, h: complex) -> complex:
        """Evaluate the truncated polynomial at a numeric h (Horner).  Each
        slot is num / den, an int true division, which rounds correctly just
        as float(Fraction) does."""
        den = self.den
        acc = 0j
        for a in reversed(self.num):
            acc = acc * h + a / den
        return acc

    def __eq__(self, other):
        return isinstance(other, SeriesCoeff) and self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.num, self.den))

    def __reduce__(self):
        return SeriesCoeff._reduced, (self.num, self.den)

    def __repr__(self):
        terms = [f"{c}*h^{k}" for k, c in enumerate(self.coeffs) if c]
        return "SeriesCoeff(" + (" + ".join(terms) if terms else "0") + f"; K={self.order})"


@dataclass(frozen=True)
class GroupSpec:
    """Group/convention selector: kind plus matrix size.

    The rank-2 kinds are pinned to n = 2; gln/un take any n >= 1.
    """

    kind: str
    n: int = 2

    def __post_init__(self):
        if self.kind not in GROUP_KINDS:
            raise CoeffError(f"unsupported group kind {self.kind!r}")
        if type(self.n) is not int:
            raise CoeffError(f"matrix size must be an int, got {self.n!r}")
        if self.kind in SL2_FAMILY and self.n != 2:
            raise CoeffError(f"{self.kind} requires n=2")
        if self.n < 1:
            raise CoeffError("matrix size must be >= 1")

    @property
    def delta(self) -> Fraction:
        """c^2 + 2, so that (M - f*I)^2 = delta*I for the crossing generator M."""
        c, _ = _rates(self)
        return c * c + 2

    @property
    def orientation_free(self) -> bool:
        """True when tr(V) = tr(V^-1) holds on the group (Cayley-Hamilton)."""
        return self.kind in SL2_FAMILY

    @property
    def convention(self) -> str:
        return "unoriented" if self.orientation_free else "oriented"

    def __str__(self):
        return self.kind if self.orientation_free else f"{self.kind}({self.n})"


@dataclass(frozen=True)
class CrossingCoeffs:
    """Coefficient pair of a resolved crossing: the untouched double-point
    term and the orientation-preserving smoothing term."""

    virtual: SeriesCoeff
    smooth: SeriesCoeff


def _rates(group: GroupSpec) -> tuple[Fraction, Fraction]:
    """(c, f) = (n/2, framing rate); the framing rate alone tells the rank-2
    kinds (f = 0) from gl(n) and u(n) (f = n/2)."""
    c = Fraction(group.n, 2)
    return c, Fraction(0) if group.orientation_free else c


def _sign(ctype: str) -> int:
    """+1 for an over-crossing, -1 for an under-crossing."""
    if ctype not in ("over", "under"):
        raise CoeffError(f"crossing type must be 'over' or 'under', got {ctype!r}")
    return 1 if ctype == "over" else -1


def series_hyperbolic(kind: str, delta, order: int) -> SeriesCoeff:
    """Truncated series of cosh(beta*sqrt(delta)) or sinh(beta*sqrt(delta))/sqrt(delta)
    in h = 2*beta: delta^(k//2) / (k! * 2^k) at h^k, on even k for cosh, odd k for sinh."""
    check_order(order)
    d = _as_fraction(delta)
    if d <= 0:
        raise CoeffError("delta must be positive")
    if kind not in ("cosh_scaled", "sinh_over_root"):
        raise CoeffError(f"unknown hyperbolic kind {kind!r}")
    odd = kind == "sinh_over_root"
    return SeriesCoeff([d ** (k // 2) / (math.factorial(k) * 2**k) if k % 2 == odd else 0 for k in range(order + 1)])


def exp_series(rate, order: int) -> SeriesCoeff:
    """Series of exp(rate*h) with exact rational rate."""
    check_order(order)
    r = _as_fraction(rate)
    return SeriesCoeff([r**k / math.factorial(k) for k in range(order + 1)])


def crossing_coeffs(group: GroupSpec, ctype: str, order: int = DEFAULT_ORDER) -> CrossingCoeffs:
    """Resolution coefficients of a single over- or under-crossing: the
    closed forms of closed_crossing_values as series in h = 2*beta."""
    sgn = _sign(ctype)
    c, f = _rates(group)
    cosh = series_hyperbolic("cosh_scaled", group.delta, order)
    sor = series_hyperbolic("sinh_over_root", group.delta, order)
    framing = exp_series(sgn * f / 2, order)  # exp(sgn*beta*f) = exp(sgn*(f/2)*h)
    return CrossingCoeffs(framing * (cosh - sgn * c * sor), framing * (sgn * 2 * sor))


def closed_crossing_values(group: GroupSpec, ctype: str, beta: float) -> tuple[complex, complex]:
    """(virtual, smooth) from the exact hyperbolic closed forms.

    This path is authoritative for numeric oracles; the series path is its
    truncation.  A non-finite beta, or a value that overflows a float,
    raises CoeffError.
    """
    sgn = _sign(ctype)
    check_coupling(beta)
    c, f = _rates(group)
    rd = math.sqrt(float(group.delta))
    try:
        ch = math.cosh(beta * rd)
        sh = math.sinh(beta * rd) / rd
        framing = math.exp(sgn * beta * float(f))
        values = complex(framing * (ch - sgn * float(c) * sh)), complex(framing * sgn * 2.0 * sh)
    except OverflowError:  # math.cosh and math.exp raise rather than return inf
        values = (math.inf,)
    check_coupling(beta, values)
    return values


def closed_form_strings(group: GroupSpec, ctype: str) -> tuple[str, str]:
    """Human-readable closed forms of (virtual, smooth) in the coupling beta;
    without framing (the rank-2 kinds, c = 1) the factors of 1 are left out."""
    s, t = ("-", "+") if _sign(ctype) > 0 else ("+", "-")
    n, d = group.n, group.delta
    _, f = _rates(group)
    if not f:
        return (
            f"cosh(sqrt({d})*beta) {s} sinh(sqrt({d})*beta)/sqrt({d})",
            f"{t}2*sinh(sqrt({d})*beta)/sqrt({d})",
        )
    e = f"exp({t}beta*{n}/2)"
    return (
        f"{e}*(cosh(beta*sqrt({d})) {s} ({n}/2)*sinh(beta*sqrt({d}))/sqrt({d}))",
        f"{e}*({t}2*sinh(beta*sqrt({d}))/sqrt({d}))",
    )


def kauffman_coeffs(order: int = DEFAULT_ORDER) -> tuple[SeriesCoeff, SeriesCoeff]:
    """(a, b) of the unoriented two-smoothing resolution, rank-2 convention
    after the per-loop sign normalization: minus the virtual terms of the
    su2 under- and over-crossing,

        a = -cosh(sqrt(3) beta) - (1/sqrt(3)) sinh(sqrt(3) beta)
        b = -cosh(sqrt(3) beta) + (1/sqrt(3)) sinh(sqrt(3) beta)
    """
    su2 = GroupSpec("su2")
    return -crossing_coeffs(su2, "under", order).virtual, -crossing_coeffs(su2, "over", order).virtual


def kauffman_values(beta: float) -> tuple[complex, complex]:
    """Closed-form (a, b) at a numeric beta; raises CoeffError as
    closed_crossing_values does."""
    su2 = GroupSpec("su2")
    return -closed_crossing_values(su2, "under", beta)[0], -closed_crossing_values(su2, "over", beta)[0]


def derived_generator(group: GroupSpec, ctype: str = "over"):
    """2x2 rational matrix M with d/dbeta (v, s) = M (v, s), (v, s)(0) = (1, 0),
    where (v, s) are the closed-form (virtual, smooth) coefficients.

    Rows are ((M00, M01), (M10, M11)): v' = M00 v + M01 s,  s' = M10 v + M11 s.
    Over a crossing M = [[f - c, 1], [2, f + c]] with (c, f) from _rates; the
    under-crossing generator is its negation (the closed forms are related
    by beta -> -beta).
    """
    sgn = _sign(ctype)
    c, f = _rates(group)
    return ((sgn * (f - c), Fraction(sgn)), (Fraction(2 * sgn), sgn * (f + c)))


def exp_generator(group: GroupSpec, ctype: str = "over", order: int = DEFAULT_ORDER) -> tuple[SeriesCoeff, SeriesCoeff]:
    """First column of the series exponential exp(beta*M) with beta = h/2:
    the (virtual, smooth) pair reconstructed from the generator alone."""
    m = exp_generator_matrix(group, ctype, order)
    return m[0][0], m[1][0]


def exp_generator_matrix(group: GroupSpec, ctype: str = "over", order: int = DEFAULT_ORDER):
    """Full 2x2 series exponential exp(beta*M), entries as SeriesCoeff."""
    check_order(order)
    m = derived_generator(group, ctype)
    cur = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    cols = [[[Fraction(0)] * (order + 1) for _ in range(2)] for _ in range(2)]
    for k in range(order + 1):
        scale = Fraction(1, math.factorial(k) * 2**k)
        for i in range(2):
            for j in range(2):
                cols[i][j][k] = cur[i][j] * scale
        cur = tuple(
            tuple(sum(m[i][t] * cur[t][j] for t in range(2)) for j in range(2))
            for i in range(2)
        )
    return tuple(tuple(SeriesCoeff(cols[i][j]) for j in range(2)) for i in range(2))

