"""Golden numeric outputs: the sha256 of the full-precision repr of every
holonomy evaluation on seeded 4-curve random diagrams, for su2, sl2r, sl2c,
gln(3) and u(2).  Each case evaluates, under one random assignment,
    - eval_formal of the star products u*v and (u*v)*w;
    - eval_formal of bracket_poly((u*v)*w, x) in the alt and reversal forms;
    - eval_complex_sum of the closed-form star_complex products;
and also hashes the formal_sum_to_json text of both bracket sums.  The
digests were recorded before Wilson values and brackets were computed once
per distinct loop or pair within a call, so a float operation done in
another order, or a bracket term added in another order, fails here.

DEEP_GOLDEN holds the same kind of digest for two large state sums, an su2
star product of two curves crossing 10 times and a gln(3) one crossing 11
times, at K=8: the formal_sum_to_json text of star_loops, and the
expect_values items in dict order.  They were recorded before each state
sum canonicalized each distinct cell cycle once, so a monomial built from
another loop, or a state added in another order, fails here.

To re-record after an intended output change, print the new table with
    PYTHONPATH=src python -c "import tests.test_eval_golden as g; g.print_table()"
"""

import hashlib
import random

import numpy as np
import pytest

from loopstar.checks import random_diagram
from loopstar.coeff import GroupSpec
from loopstar.diagram import FormalSum, canonical, formal_sum_to_json, monomial, parse_diagram
from loopstar.goldman import bracket_poly
from loopstar.holonomy import eval_complex_sum, eval_formal, random_assignment
from loopstar.star import expect_values, star, star_complex, star_loops

GROUPS = {
    "su2": GroupSpec("su2"),
    "sl2r": GroupSpec("sl2r"),
    "sl2c": GroupSpec("sl2c"),
    "gln3": GroupSpec("gln", 3),
    "un2": GroupSpec("un", 2),
}
SEEDS = range(4)
ORDER = 4
BETA = 0.05


def evaluations(group: GroupSpec, seed: int) -> str:
    """The text hashed for one case: one repr or JSON text per line."""
    rng = np.random.default_rng(seed)
    d = random_diagram(rng, n_curves=4)
    conv = group.convention
    monos = [monomial([canonical(d.loop_of(c).word, conv)]) for c in d.curves]
    u, v, w, x = (FormalSum.of(m, ORDER) for m in monos)
    uv = star(d, u, v, group, ORDER)
    uvw = star(d, uv, w, group, ORDER)
    brackets = [bracket_poly(d, uvw, x, group, form) for form in ("alt", "reversal")]
    closed_uv = star_complex(d, {monos[0]: 1 + 0j}, {monos[1]: 1 + 0j}, group, BETA)
    closed_uvw = star_complex(d, closed_uv, {monos[2]: 1 + 0j}, group, BETA)
    assign = random_assignment(d, group, rng)
    lines = [repr(eval_formal(fs, assign, BETA)) for fs in (uv, uvw, *brackets)]
    lines += [repr(eval_complex_sum(cs, assign)) for cs in (closed_uv, closed_uvw)]
    lines += [formal_sum_to_json(br) for br in brackets]
    return "\n".join(lines)


def cases() -> dict[str, tuple[GroupSpec, int]]:
    return {f"{gname}/seed{seed}": (group, seed) for gname, group in GROUPS.items() for seed in SEEDS}


def digest(group: GroupSpec, seed: int) -> str:
    return hashlib.sha256(evaluations(group, seed).encode()).hexdigest()[:16]


def crossing_twice(k: int, seed: int):
    """Curve C at level 1 and curve D at level 0, both through the same k
    points, D in a seeded random order, the signs seeded too."""
    rng = random.Random(seed)
    lines = [f"point x{j} {rng.choice('+-')}" for j in range(k)]
    order = list(range(k))
    rng.shuffle(order)
    lines.append("curve C level 1: " + " ".join(f"x{j}" for j in range(k)))
    lines.append("curve D level 0: " + " ".join(f"x{j}" for j in order))
    return parse_diagram("\n".join(lines) + "\n")


def deep_text(group: GroupSpec, k: int, seed: int, what: str) -> str:
    d = crossing_twice(k, seed)
    if what == "star_loops":
        return formal_sum_to_json(star_loops(d, d.loop_of("C"), d.loop_of("D"), group, 8))
    conv = group.convention
    leveled = [(canonical(d.loop_of(c).word, conv), level) for c, level in (("C", 1), ("D", -1))]
    return repr(list(expect_values(d, leveled, group, BETA).items()))


def deep_cases() -> dict[str, tuple]:
    return {
        f"{gname}/k{k}/{what}": (group, k, 1, what)
        for gname, group, k in (("su2", GROUPS["su2"], 10), ("gln3", GROUPS["gln3"], 11))
        for what in ("star_loops", "expect_values")
    }


def deep_digest(group: GroupSpec, k: int, seed: int, what: str) -> str:
    return hashlib.sha256(deep_text(group, k, seed, what).encode()).hexdigest()[:16]


def print_table() -> None:
    for name, (group, seed) in cases().items():
        print(f'    "{name}": {digest(group, seed)!r},')
    print()
    for name, args in deep_cases().items():
        print(f'    "{name}": {deep_digest(*args)!r},')


GOLDEN = {
    "su2/seed0": 'e8c78a5d9eb18929',
    "su2/seed1": 'd7201638edfd971a',
    "su2/seed2": '19e0c18ab31d4882',
    "su2/seed3": '69e6bc1b8982655e',
    "sl2r/seed0": 'b59f58476e816b5a',
    "sl2r/seed1": '12cfebdb49db2c51',
    "sl2r/seed2": '790a84de020f88c9',
    "sl2r/seed3": '1c53b80329f500cc',
    "sl2c/seed0": '817c09e31520e003',
    "sl2c/seed1": '126a96e37e09f121',
    "sl2c/seed2": '437a6b9677989bcc',
    "sl2c/seed3": '208696de5b8029db',
    "gln3/seed0": '9b336b88bf477f74',
    "gln3/seed1": '85281424daf4589c',
    "gln3/seed2": 'bdbcd76bed982591',
    "gln3/seed3": '504ca7557016e0a3',
    "un2/seed0": '57898ad8459434ff',
    "un2/seed1": '4309630834cc90c1',
    "un2/seed2": 'cc444d2adc7f114e',
    "un2/seed3": '8729618bde886bdf',
}

DEEP_GOLDEN = {
    "su2/k10/star_loops": 'c53af06cd9029b6e',
    "su2/k10/expect_values": 'cf4c38b38fed96a2',
    "gln3/k11/star_loops": 'fb6d5c6f20e78f95',
    "gln3/k11/expect_values": '70140b88f92cf5f8',
}


def test_golden_table_covers_every_case():
    assert set(GOLDEN) == set(cases())
    assert set(DEEP_GOLDEN) == set(deep_cases())


@pytest.mark.parametrize("name", sorted(cases()))
def test_evaluations_match_golden(name):
    assert digest(*cases()[name]) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(deep_cases()))
def test_deep_state_sums_match_golden(name):
    assert deep_digest(*deep_cases()[name]) == DEEP_GOLDEN[name]
