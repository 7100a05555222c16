"""bracket_loops pinned by digest.

Every group and both forms, on seeded three-curve diagrams, bracket each
ordered pair of a set of loops: the curves, their reversals, loops of a
star_loops output, and random closed walks, which may pass one point twice
or share an arc with the other loop.  Each case's JSON, or its error's type
and message, goes into one sha256 per (group, form).  The digests were
recorded with the bracket that searched each loop for its gap at every
crossing, so they pin that reading the gaps from crossings_between kept
every answer and every error.
"""

import hashlib

import numpy as np
import pytest

from loopstar.checks import random_diagram
from loopstar.coeff import GROUP_KINDS, GroupSpec
from loopstar.diagram import Arc, DiagramError, Loop, formal_sum_to_json, reverse_word
from loopstar.goldman import bracket_loops
from loopstar.star import star_loops

GROUPS = tuple(GroupSpec(kind, 3 if kind in ("gln", "un") else 2) for kind in GROUP_KINDS)
FORMS = ("alt", "reversal")
ORDER = 2

DIGESTS = {
    ("su2", "alt"): "3934d09cc1c31276c802b6a50feb90f07750ed414e27b2503aa4d2316935c703",
    ("su2", "reversal"): "2cc7d6edcf56a7881650988f8ab91dcc668ccfd6361cf618655bd6ce764bb5d3",
    ("sl2r", "alt"): "3934d09cc1c31276c802b6a50feb90f07750ed414e27b2503aa4d2316935c703",
    ("sl2r", "reversal"): "2cc7d6edcf56a7881650988f8ab91dcc668ccfd6361cf618655bd6ce764bb5d3",
    ("sl2c", "alt"): "3934d09cc1c31276c802b6a50feb90f07750ed414e27b2503aa4d2316935c703",
    ("sl2c", "reversal"): "2cc7d6edcf56a7881650988f8ab91dcc668ccfd6361cf618655bd6ce764bb5d3",
    ("gln(3)", "alt"): "0121e658c14ae7078d751e1e9a2f0e97fac4f6553a0be225eda00f2f7e5e9511",
    ("gln(3)", "reversal"): "0121e658c14ae7078d751e1e9a2f0e97fac4f6553a0be225eda00f2f7e5e9511",
    ("un(3)", "alt"): "0121e658c14ae7078d751e1e9a2f0e97fac4f6553a0be225eda00f2f7e5e9511",
    ("un(3)", "reversal"): "0121e658c14ae7078d751e1e9a2f0e97fac4f6553a0be225eda00f2f7e5e9511",
}


def closed_walks(d, rng, count: int):
    """count random closed words of at most 6 entries: each entry starts at
    the point where the one before it ends, the first where the last ends.
    They may turn back along an arc, switch strands at a point and pass one
    point twice."""
    # the point each entry ends at, from the curves' passes: arc i runs
    # from pass i to pass i + 1, and a pass-less curve's arc meets none
    ends = {}
    for key, c in d.curves.items():
        k = len(c.passes)
        for i in range(max(k, 1)):
            ends[Arc(key, i), 1] = c.passes[(i + 1) % k] if k else None
            ends[Arc(key, i), -1] = c.passes[i] if k else None
    entries = [e for e, end in ends.items() if end is not None]
    walks = []
    while entries and len(walks) < count:
        word = [entries[rng.integers(len(entries))]]
        start = ends[word[0][0], -word[0][1]]  # the point the walk starts at
        while len(word) < 6 and (len(word) == 1 or ends[word[-1]] != start):
            here = ends[word[-1]]
            nexts = [e for e in entries if ends[e[0], -e[1]] == here]
            word.append(nexts[rng.integers(len(nexts))])
        if ends[word[-1]] == start:
            walks.append(Loop(tuple(word)))
    return walks


def loop_cases(seed: int):
    """(diagram, loops) for one seed: 3 curves, reversals, up to 6 loops of
    the curves' star product, and 10 random closed walks."""
    rng = np.random.default_rng(seed)
    d = random_diagram(rng, n_curves=3, self_crossing_prob=0.3)
    curves = [d.loop_of(c) for c in d.curves]
    loops = curves + [Loop(reverse_word(l.word)) for l in curves]
    product = star_loops(d, curves[0], curves[1], GroupSpec("gln", 2), 1)
    loops += sorted({l for m in product.terms for l in m}, key=Loop.key)[:6]
    return d, loops + closed_walks(d, rng, 10)


def bracket_digest(group: GroupSpec, form: str) -> str:
    h = hashlib.sha256()
    for seed in range(8):
        d, loops = loop_cases(seed)
        for x in loops:
            for y in loops:
                try:
                    text = formal_sum_to_json(bracket_loops(d, x, y, group, form, ORDER))
                except DiagramError as e:  # TransversalityError is one
                    text = f"{type(e).__name__}: {e}"
                h.update(f"{x} | {y} | {text}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("group", GROUPS, ids=str)
def test_bracket_loops_keeps_its_answers(group, form):
    assert bracket_digest(group, form) == DIGESTS[str(group), form]
