"""The two-smoothing (Kauffman) resolution: golden sums, a differential test
against an end-pairing brute force, and its state count.

The golden digests pin every term of unoriented_kauffman_resolution, exact
numerators and denominator, in insertion order, on the corpus, on the three
texts of check_kauffman, on seeded random stacks and on two-curve stacks
with 10 and 12 crossings.  They were recorded from the resolution that
paired strand ends in a dict per state, before it moved onto the shared
state walker; the two-curve ones from the walker that multiplied one
series per crossing per state, before the states were priced from a count
table.  To re-record after an intended change:
    PYTHONPATH=src python -c "import tests.test_kauffman as t; t.print_table()"
"""

import hashlib
import pathlib
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from loopstar.checks import random_diagram
from loopstar.coeff import GroupSpec, SeriesCoeff, crossing_coeffs
from loopstar.diagram import canonical, monomial, parse_diagram
from loopstar.star import Stacked, unoriented_kauffman_resolution

DIAGRAMS = pathlib.Path(__file__).resolve().parent.parent / "diagrams"
RANK2 = (GroupSpec("su2"), GroupSpec("sl2r"), GroupSpec("sl2c"))
CHECK_TEXTS = (
    "point a +\ncurve C level 1: a\ncurve D level 0: a\n",
    "point p +\npoint q -\ncurve C level 1: p q\ncurve D level 0: q p\n",
    "point p +\npoint q +\npoint r -\ncurve C level 1: p q r\ncurve D level 0: r q p\n",
)


def declared_levels(d):
    return [(d.loop_of(c), d.curves[c].level) for c in d.curves]


def random_stack(seed: int):
    rng = np.random.default_rng(seed)
    d = random_diagram(rng, n_curves=int(rng.integers(2, 5)))
    levels = rng.integers(-1, 2, size=len(d.curves))
    return d, [(d.loop_of(c), int(lv)) for c, lv in zip(d.curves, levels)]


def two_curve_stack(seed: int, k: int):
    """C above D, crossing k times with random signs, D passing the points
    in a shuffled order: every crossing active."""
    rng = random.Random(seed)
    lines = [f"point x{j} {rng.choice('+-')}" for j in range(k)]
    order = list(range(k))
    rng.shuffle(order)
    lines.append("curve C level 1: " + " ".join(f"x{j}" for j in range(k)))
    lines.append("curve D level 0: " + " ".join(f"x{j}" for j in order))
    d = parse_diagram("\n".join(lines) + "\n")
    return d, declared_levels(d)


def cases():
    """name -> (diagram, leveled, group, order)."""
    out = {}
    for path in sorted(DIAGRAMS.glob("*.ls")):
        d = parse_diagram(path.read_text())
        for order in (0, 3, 8):
            out[f"corpus/{path.stem}/K{order}"] = (d, declared_levels(d), RANK2[order % 3], order)
    for i, text in enumerate(CHECK_TEXTS):
        d = parse_diagram(text)
        for group in RANK2:
            out[f"check/{i}/{group}"] = (d, declared_levels(d), group, 10)
    for seed in range(30):
        d, leveled = random_stack(seed)
        out[f"random/{seed}"] = (d, leveled, RANK2[seed % 3], seed % 6)
    for k, group, order in ((10, RANK2[0], 8), (12, RANK2[1], 10)):
        out[f"two_curve/k{k}"] = (*two_curve_stack(k, k), group, order)
    return out


def sum_digest(fs) -> str:
    """sha256 of every term in insertion order: loop words, numerators and
    denominator of the coefficient."""
    rows = [
        ([[(a.id, d) for a, d in l.word] for l in m], c.num, c.den)
        for m, c in fs.terms.items()
    ]
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


def print_table() -> None:
    for name, (d, leveled, group, order) in cases().items():
        print(f"    {name!r}: {sum_digest(unoriented_kauffman_resolution(d, leveled, group, order))!r},")


GOLDEN = {
    'corpus/assoc_triple/K0': '63fc0af9432c69a1',
    'corpus/assoc_triple/K3': 'a6ef28cfe5c77e6a',
    'corpus/assoc_triple/K8': '7333c34f67fd8643',
    'corpus/disjoint/K0': 'fc02698d4e96448b',
    'corpus/disjoint/K3': '083d0773b32a37dc',
    'corpus/disjoint/K8': '136eedee9c211598',
    'corpus/one_crossing/K0': '798bb2fa21690544',
    'corpus/one_crossing/K3': 'a52a0ca56132ac86',
    'corpus/one_crossing/K8': 'a2cb085b208071f9',
    'corpus/r2_pair/K0': '81cb1f944cd39542',
    'corpus/r2_pair/K3': '84342716eeaf29c5',
    'corpus/r2_pair/K8': '8fef87e490b73f32',
    'corpus/self_crossing/K0': '393ca2c07be6d355',
    'corpus/self_crossing/K3': '7b40a1568e3873da',
    'corpus/self_crossing/K8': '7df6aca965b3eecc',
    'corpus/two_crossing/K0': '81cb1f944cd39542',
    'corpus/two_crossing/K3': '82340854d3b72527',
    'corpus/two_crossing/K8': '29aad420817f3656',
    'check/0/su2': '7a69c53942198b59',
    'check/0/sl2r': '7a69c53942198b59',
    'check/0/sl2c': '7a69c53942198b59',
    'check/1/su2': 'd3009bc5483d7a6f',
    'check/1/sl2r': 'd3009bc5483d7a6f',
    'check/1/sl2c': 'd3009bc5483d7a6f',
    'check/2/su2': '16a3bf1c5f82253f',
    'check/2/sl2r': '16a3bf1c5f82253f',
    'check/2/sl2c': '16a3bf1c5f82253f',
    'random/0': 'aa171f20989876ef',
    'random/1': '7aa4a50827e64489',
    'random/2': 'd8d0208769e530f0',
    'random/3': '51e3dc1a0595f7cc',
    'random/4': 'cf16b5b04359c9ab',
    'random/5': '0b72afc6c5d40c7f',
    'random/6': '3c94494d8a0848e4',
    'random/7': 'd1a89a346ca0426e',
    'random/8': '0330e79388d90318',
    'random/9': 'fbbb55b45000cf90',
    'random/10': '6f7beb002517056c',
    'random/11': 'f926244bfce1ec30',
    'random/12': '2791d5d91834576d',
    'random/13': '5c5cf91f375b72ef',
    'random/14': 'fbea5845268cd476',
    'random/15': '3b57b41cad7dad15',
    'random/16': '689de11ef47f0d64',
    'random/17': 'fba6bde73ffdd5c6',
    'random/18': '317588964e61a1d1',
    'random/19': 'c2b57c1fa1a09399',
    'random/20': '9f2d75f4c8d6d5c0',
    'random/21': '494f1c0169ebdf30',
    'random/22': '256bc40fef2c2113',
    'random/23': 'b5980d2f5f635e03',
    'random/24': '26354c4d7ce2e88b',
    'random/25': '6ff2bd1847970b2a',
    'random/26': '020459f1fe7fd2c0',
    'random/27': '7f7454d3a57dccc9',
    'random/28': '8ec3e38726f150d5',
    'random/29': '5b49fdc2bd52a0be',
    'two_curve/k10': '974d7e067cd044b9',
    'two_curve/k12': 'de239293b86794e4',
}


def test_golden_table_covers_every_case():
    assert set(GOLDEN) == set(cases())


@pytest.mark.parametrize("name", sorted(cases()))
def test_resolution_matches_golden(name):
    d, leveled, group, order = cases()[name]
    assert sum_digest(unoriented_kauffman_resolution(d, leveled, group, order)) == GOLDEN[name]


def end_pairing_brute_force(st_, order):
    """Every one of the 2^k states built on its own, as a pairing of strand
    ends: ends 2c and 2c + 1 are the tail and head of cell c.  An active
    crossing pairs the heads of its two incoming cells with the tails of the
    other strand's outgoing cell (compatible smoothing, a for an
    over-crossing, b for an under-crossing) or head with head and tail with
    tail (reversal smoothing, the other coefficient).  Circles are walked
    through the pairing and canonicalized with canonical()."""
    su2 = GroupSpec("su2")
    a = -crossing_coeffs(su2, "under", order).virtual
    b = -crossing_coeffs(su2, "over", order).virtual
    n, succ = len(st_.succ), st_.succ
    base = {}
    for c in range(n):
        base[2 * c + 1], base[2 * succ[c]] = 2 * succ[c], 2 * c + 1
    out = {}
    for mask in range(2 ** len(st_.active)):
        pair, coeff = dict(base), SeriesCoeff.one(order)
        for i, ac in enumerate(st_.active):
            c0, c1 = ac.cell_top, ac.cell_bottom
            n0, n1 = succ[c0], succ[c1]
            if mask >> i & 1:
                links = ((2 * c0 + 1, 2 * c1 + 1), (2 * n0, 2 * n1))
                coeff = coeff * (b if ac.ctype == "over" else a)
            else:
                links = ((2 * c0 + 1, 2 * n1), (2 * c1 + 1, 2 * n0))
                coeff = coeff * (a if ac.ctype == "over" else b)
            for e1, e2 in links:
                pair[e1], pair[e2] = e2, e1
        loops, seen = [], set()
        for start in range(n):
            if start in seen:
                continue
            word, end = [], 2 * start  # enter the start cell at its tail
            while end // 2 not in seen:
                c = end // 2
                seen.add(c)
                arc, direction = st_.entries[c]
                forward = end % 2 == 0
                word.append((arc, direction if forward else -direction))
                end = pair[end + 1 if forward else end - 1]
            loops.append(canonical(word, "unoriented"))
        m = monomial(loops)
        out[m] = out[m] + coeff if m in out else coeff
    return {m: c for m, c in out.items() if not c.is_zero()}


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(RANK2), st.integers(0, 4))
def test_resolution_matches_end_pairing_brute_force(seed, group, order):
    d, leveled = random_stack(seed)
    st_ = Stacked(d, leveled)
    assume(len(st_.active) <= 7)
    got = unoriented_kauffman_resolution(d, leveled, group, order)
    assert got.terms == end_pairing_brute_force(st_, order)


def test_every_state_is_walked_once(monkeypatch):
    k = 5
    points = "".join(f"point x{i} {'+-'[i % 2]}\n" for i in range(k))
    passes = " ".join(f"x{i}" for i in range(k))
    d = parse_diagram(points + f"curve C level 1: {passes}\ncurve D level 0: {passes}\n")
    calls = []
    circles = Stacked.cycles
    monkeypatch.setattr(Stacked, "cycles", lambda *a: calls.append(1) or circles(*a))
    unoriented_kauffman_resolution(d, declared_levels(d), GroupSpec("su2"), 4)
    assert len(calls) == 2**k
