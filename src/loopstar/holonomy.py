"""Numeric oracle: random group elements, Lie-algebra bases with Gram
matrices, Wilson-loop evaluation over arc-matrix assignments, trace and
projection identities, and a lattice check of the functional-derivative
formulas.

Arbitrary arc matrices stand in for connections: any finite arc-holonomy
profile is realizable by a smooth connection, so identities quantified over
connections are tested by quantifying over assignments.

Holonomy words multiply left to right along the path, so the transport of
"x then y" is hol(x) @ hol(y).  One evaluation (eval_formal,
eval_complex_sum, eval_monomial or eval_wilson) computes the Wilson values
of all its distinct loops as one stacked product: each distinct (arc,
direction) entry is one matrix of a stack whose row 0 is the identity (a
reversed entry is inverted once), every word is left-padded with row 0 to
the longest word's length, and one batched @ per word position multiplies
all loops at once.  The identity times itself is exactly the identity and
a stacked matmul computes each slice as a lone @ would, so every value has
the bits of the per-loop product eye @ m0 @ m1 ... that loop_matrix forms.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .coeff import GroupSpec, HolonomyError, check_coupling
from .diagram import Arc, Diagram, FormalSum, Loop, Monomial


# -- samplers -----------------------------------------------------------------


def sample(group: GroupSpec, rng: np.random.Generator) -> np.ndarray:
    """Random element of the group, deterministic under a seeded rng."""
    kind, n = group.kind, group.n
    if kind == "su2":
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        return np.array(
            [[q[0] + 1j * q[3], q[2] + 1j * q[1]],
             [-q[2] + 1j * q[1], q[0] - 1j * q[3]]]
        )
    if kind == "sl2r":
        while True:
            m = rng.normal(size=(2, 2))
            d = np.linalg.det(m)
            if abs(d) > 0.1:
                break
        if d < 0:
            m = m[:, ::-1].copy()
            d = -d
        return (m / math.sqrt(d)).astype(complex)
    if kind == "sl2c":
        while True:
            m = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))) / math.sqrt(2)
            d = np.linalg.det(m)
            if abs(d) > 0.1:
                break
        return m / np.sqrt(d)
    # gln, un
    z = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    q = q @ np.diag(np.diag(r) / np.abs(np.diag(r)))
    if kind == "un":
        return q
    return q @ np.diag(np.exp(0.3 * rng.normal(size=n)))


def sample_algebra(basis: tuple[np.ndarray, ...], rng: np.random.Generator, scale: float) -> np.ndarray:
    """Random Lie-algebra element as a real combination of the basis."""
    coeffs = rng.normal(size=len(basis)) * scale / math.sqrt(len(basis))
    return sum(c * e for c, e in zip(coeffs, basis))


# -- Lie bases ----------------------------------------------------------------


@dataclass(frozen=True)
class LieBasis:
    """Basis {e_a} with Gram matrix g_ab = tr(e_a e_b) and its inverse."""

    basis: tuple[np.ndarray, ...]
    gram: np.ndarray
    gram_inv: np.ndarray


def _elementary(n: int, i: int, j: int) -> np.ndarray:
    m = np.zeros((n, n), dtype=complex)
    m[i, j] = 1.0
    return m


def lie_basis(group: GroupSpec) -> LieBasis:
    kind, n = group.kind, group.n
    if kind == "su2":
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
        sz = np.array([[1, 0], [0, -1]], dtype=complex)
        mats = [1j * sx, 1j * sy, 1j * sz]
    elif kind in ("sl2r", "sl2c"):
        h = np.array([[1, 0], [0, -1]], dtype=complex)
        e = np.array([[0, 1], [0, 0]], dtype=complex)
        f = np.array([[0, 0], [1, 0]], dtype=complex)
        mats = [h, e, f]
    elif kind == "gln":
        mats = [_elementary(n, i, j) for i in range(n) for j in range(n)]
    else:  # un
        mats = [1j * _elementary(n, k, k) for k in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                mats.append(_elementary(n, i, j) - _elementary(n, j, i))
                mats.append(1j * (_elementary(n, i, j) + _elementary(n, j, i)))
    gram = np.array([[np.trace(a @ b) for b in mats] for a in mats])
    if abs(np.linalg.det(gram)) < 1e-12:
        raise HolonomyError(f"singular Gram matrix for {group}")
    return LieBasis(tuple(mats), gram, np.linalg.inv(gram))


def projection_pi(group: GroupSpec, u: np.ndarray) -> np.ndarray:
    """Group-to-algebra projection entering the trace identity.

    gln/un: identity (the basis complex-spans all of gl(n));
    su2: (U - U^-1)/2;  sl2r/sl2c: U - tr(U)/2 * I.
    """
    if not group.orientation_free:
        return u
    if group.kind == "su2":
        return 0.5 * (u - np.linalg.inv(u))
    return u - 0.5 * np.trace(u) * np.eye(2)


def gram_pairing(group: GroupSpec, u: np.ndarray, v: np.ndarray, basis: LieBasis | None = None) -> complex:
    """sum_ab (g^-1)_ab tr(U e_a) tr(V e_b)."""
    b = basis or lie_basis(group)
    tu = np.array([np.trace(u @ e) for e in b.basis])
    tv = np.array([np.trace(v @ e) for e in b.basis])
    return complex(tu @ b.gram_inv @ tv)


def verify_gram_identity(group: GroupSpec, u: np.ndarray, v: np.ndarray, basis: LieBasis | None = None) -> float:
    """|gram_pairing(U, V) - tr(pi(U) pi(V))|."""
    lhs = gram_pairing(group, u, v, basis)
    rhs = complex(np.trace(projection_pi(group, u) @ projection_pi(group, v)))
    return abs(lhs - rhs)


# -- Wilson evaluation ---------------------------------------------------------


@dataclass(frozen=True)
class HolonomyAssignment:
    """Map arc id -> invertible matrix, with the group it was sampled for."""

    group: GroupSpec
    matrices: dict[str, np.ndarray]

    def matrix(self, arc: Arc) -> np.ndarray:
        try:
            return self.matrices[arc.id]
        except KeyError:
            raise HolonomyError(f"no matrix assigned to arc {arc.id}") from None


def random_assignment(d: Diagram, group: GroupSpec, rng: np.random.Generator) -> HolonomyAssignment:
    return HolonomyAssignment(
        group, {a.id: sample(group, rng) for a in d.all_arcs()}
    )


def loop_matrix(loop: Loop, assign: HolonomyAssignment, base_gap: int | None = None) -> np.ndarray:
    """Ordered product of arc matrices along the word (inverses for reversed
    entries).  With base_gap, the product starts just after that gap."""
    word = loop.word
    if base_gap is not None:
        g = base_gap % len(word)
        word = word[g + 1 :] + word[: g + 1]
    mats = [assign.matrix(arc) if d == 1 else np.linalg.inv(assign.matrix(arc)) for arc, d in word]
    return _product(mats, assign.group.n)


def _product(mats: list[np.ndarray], n: int) -> np.ndarray:
    """mats[0] @ mats[1] @ ..., multiplied left to right from the n x n
    identity."""
    acc = np.eye(n, dtype=complex)
    for m in mats:
        acc = acc @ m
    return acc


def _wilson_values(loops: list[Loop], assign: HolonomyAssignment) -> dict[Loop, complex]:
    """Trace of the holonomy of each of the distinct loops, each one row of
    one stacked product."""
    if not loops:
        return {}
    rows: dict[tuple[Arc, int], int] = {}  # (arc, direction) -> stack row; row 0 is the identity
    words = [[rows.setdefault(entry, len(rows) + 1) for entry in loop.word] for loop in loops]
    eye = np.eye(assign.group.n, dtype=complex)
    stack = np.array([eye] + [assign.matrix(arc) if d == 1 else np.linalg.inv(assign.matrix(arc))
                              for arc, d in rows])
    width = max(map(len, words))
    acc = np.broadcast_to(eye, (len(words), *eye.shape))
    for column in np.array([[0] * (width - len(w)) + w for w in words], dtype=np.intp).T:
        acc = acc @ stack[column]
    return dict(zip(loops, np.trace(acc, axis1=1, axis2=2).tolist()))


def eval_wilson(loop: Loop, assign: HolonomyAssignment) -> complex:
    """Trace of the loop holonomy; independent of the starting point."""
    return _wilson_values([loop], assign)[loop]


def eval_monomial(m: Monomial, assign: HolonomyAssignment) -> complex:
    """Product of the monomial's Wilson values, left to right from 1."""
    wilson = _wilson_values(list(dict.fromkeys(m)), assign)
    return math.prod((wilson[loop] for loop in m), start=1.0 + 0j)


def eval_formal(fs: FormalSum, assign: HolonomyAssignment, beta: float) -> complex:
    """Evaluate a formal sum: truncated-series coefficients at h = 2*beta
    times the Wilson values of the monomials.  A non-finite beta, or a value
    that overflows a float, raises HolonomyError."""
    check_coupling(beta, error=HolonomyError)
    h = 2.0 * beta
    value = eval_complex_sum({m: c.eval_h(h) for m, c in fs.terms.items()}, assign)
    check_coupling(beta, (value,), error=HolonomyError)
    return value


def eval_complex_sum(terms: dict[Monomial, complex], assign: HolonomyAssignment) -> complex:
    """Evaluate a monomial sum whose coefficients are already numbers (the
    closed-form path).  The terms are summed left to right from 0, each
    monomial's value as eval_monomial forms it."""
    wilson = _wilson_values(list(dict.fromkeys(loop for m in terms for loop in m)), assign)
    out = 0j
    for m, c in terms.items():
        out += c * math.prod((wilson[loop] for loop in m), start=1.0 + 0j)
    return out


# -- lattice functional-derivative check ----------------------------------------


def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring (Moler & Van Loan, SIAM
    Review 45, 2003): halve a s times until its 1-norm is at most 1/2, sum
    18 Taylor terms there, and square the sum s times."""
    norm = float(np.linalg.norm(a, 1))
    s = max(0, math.ceil(math.log2(2.0 * norm))) if norm else 0
    x = a / 2.0**s
    term = out = np.eye(len(a), dtype=complex)
    for k in range(1, 18):
        term = term @ x / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def lattice_derivative_check(
    group: GroupSpec,
    n_segments: int,
    direction: str = "interior",
    step: float = 1e-4,
    rng: np.random.Generator | None = None,
    field_scale: float = 0.8,
) -> float:
    """Finite-difference check of the holonomy derivative formulas on a
    discretized connection; returns the max residual over basis directions.

    interior: on a circle of N segments, inserting exp(s e_a) at a lattice
    point and differencing tr hol must match tr(hol_{C,t} e_a) to first
    order in s.

    endpoint: on the interval [0,1], the perturbation is a symmetric bump
    of width ~step straddling t=0, so only half its mass lands inside the
    interval; the matrix derivative must match (1/2) e_a hol to first order.
    """
    if type(n_segments) is not int:
        raise HolonomyError(f"n_segments must be an int, got {n_segments!r}")
    if n_segments < 2:
        raise HolonomyError("need at least 2 segments")
    if not (isinstance(step, numbers.Real) and 0 < step < math.inf):
        raise HolonomyError(f"step must be a number with 0 < step < inf, got {step!r}")
    if direction not in ("interior", "endpoint"):
        raise HolonomyError(f"direction must be interior|endpoint, got {direction!r}")
    rng = rng or np.random.default_rng(0)
    basis = lie_basis(group).basis
    dt = 1.0 / n_segments
    fields = [sample_algebra(basis, rng, scale=field_scale) for _ in range(n_segments)]
    segs = [_expm(a * dt) for a in fields]

    if direction == "interior":
        # base the insertion at lattice point j (start of segment j)
        j = n_segments // 2
        hol_j = _product(segs[j:] + segs[:j], group.n)
        worst = 0.0
        for e in basis:
            plus = np.trace(_expm(step * e) @ hol_j)
            base = np.trace(hol_j)
            fd = (plus - base) / step
            worst = max(worst, abs(fd - np.trace(e @ hol_j)))
        return worst

    # endpoint: symmetric box bump of total mass 1 centered at t=0; the
    # in-interval part covers [0, w] with density 1/(2w), total mass 1/2
    w = min(step, 0.5 * dt)
    hol = _product(segs, group.n)
    rest = _product(segs[1:], group.n)
    worst = 0.0
    for e in basis:
        head = _expm(fields[0] * w + (step / 2.0) * e) @ _expm(fields[0] * (dt - w))
        fd = (head @ rest - hol) / step
        worst = max(worst, float(np.max(np.abs(fd - 0.5 * e @ hol))))
    return worst

