"""Golden CLI outputs: the sha256 of stdout for star, expect and bracket on
every corpus diagram, for su2 and gln(3), as JSON, with --eval-beta and as
the text table, of the su2 bracket in the reversal form on every corpus
diagram, of the coefficient tables of both groups as JSON and as text, with
and without --eval-beta, of `check all --seed 42` (every
verdict and printed residual), and of `check lattice` at seeds 0 and 7.  The digests were recorded from
the Fraction-based series kernel, so any change to the exact arithmetic or
to the float evaluation that alters a printed byte fails here.

LARGE holds the same digests for star and expect, as JSON and as the text
table, on two generated two-curve diagrams of the size the `deep` benchmark
runs (su2 at k=10, gln(3) at k=11, K=8): sums of thousands of terms with
long coefficients, which the corpus is too small to reach.  They were
recorded from the list-of-dicts encoder passed through json.dumps(indent=2).

To re-record after an intended output change, print the new table with
    PYTHONPATH=src python -c "import tests.test_golden as g; g.print_table()"
"""

import contextlib
import hashlib
import io
import pathlib
import random

import pytest

from loopstar.cli import main

DIAGRAMS = pathlib.Path(__file__).resolve().parent.parent / "diagrams"
GROUPS = {"su2": ["--group", "su2"], "gln3": ["--group", "gln", "--n", "3"]}
FORMATS = {"json": [], "eval": ["--eval-beta", "0.1"], "text": ["--format", "text"]}


def cases() -> dict[str, list[str]]:
    out = {}
    for verb in ("star", "expect", "bracket"):
        for gname, gargs in GROUPS.items():
            for path in sorted(DIAGRAMS.glob("*.ls")):
                for fname, fargs in FORMATS.items():
                    out[f"{verb}/{gname}/{path.stem}/{fname}"] = [verb, *gargs, *fargs, str(path)]
    for gname, gargs in GROUPS.items():
        out[f"coeffs/{gname}"] = ["coeffs", *gargs]
        out[f"coeffs/{gname}/text"] = ["coeffs", *gargs, "--format", "text"]
        out[f"coeffs/{gname}/eval"] = ["coeffs", *gargs, "--eval-beta", "0.3"]
        out[f"coeffs/{gname}/eval/text"] = ["coeffs", *gargs, "--eval-beta", "0.3", "--format", "text"]
    for path in sorted(DIAGRAMS.glob("*.ls")):
        out[f"bracket/su2/{path.stem}/reversal"] = ["bracket", *GROUPS["su2"], "--form", "reversal", str(path)]
    out["check/all/seed42"] = ["check", "all", "--seed", "42"]
    for seed in (0, 7):
        out[f"check/lattice/seed{seed}"] = ["check", "lattice", "--seed", str(seed)]
    return out


def stdout_digest(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, hashlib.sha256(buf.getvalue().encode()).hexdigest()[:16]


def print_table() -> None:
    for name, argv in cases().items():
        print(f'    "{name}": {stdout_digest(argv)!r},')


def deep_diagram(k: int, seed: int) -> str:
    """Two curves C (level 1) and D (level 0) through k points of random
    sign, D visiting them in a shuffled order, as the `deep` benchmark
    draws them."""
    rng = random.Random(seed)
    lines = [f"point x{j} {rng.choice('+-')}" for j in range(k)]
    order = list(range(k))
    rng.shuffle(order)
    lines.append("curve C level 1: " + " ".join(f"x{j}" for j in range(k)))
    lines.append("curve D level 0: " + " ".join(f"x{j}" for j in order))
    return "\n".join(lines) + "\n"


# name -> (group arguments, crossings, seed)
DEEP = {"su2_k10": (GROUPS["su2"], 10, 1), "gln3_k11": (GROUPS["gln3"], 11, 2)}


def large_cases(folder: pathlib.Path) -> dict[str, list[str]]:
    out = {}
    for dname, (gargs, k, seed) in DEEP.items():
        path = folder / f"{dname}.ls"
        path.write_text(deep_diagram(k, seed))
        for verb in ("star", "expect"):
            for fname in ("json", "text"):
                out[f"{verb}/{dname}/{fname}"] = [verb, *gargs, *FORMATS[fname], str(path)]
    return out


def print_large_table(folder: str) -> None:
    for name, argv in large_cases(pathlib.Path(folder)).items():
        print(f'    "{name}": {stdout_digest(argv)!r},')


GOLDEN = {
    "star/su2/assoc_triple/json": (0, 'ece27d495092357b'),
    "star/su2/assoc_triple/eval": (0, '86204bd6dc6534bc'),
    "star/su2/assoc_triple/text": (0, '68f3196c49ae8e07'),
    "star/su2/disjoint/json": (0, 'd9bc19448db4e79c'),
    "star/su2/disjoint/eval": (0, 'a2846ae94daf626e'),
    "star/su2/disjoint/text": (0, '962ff337df487b5d'),
    "star/su2/one_crossing/json": (0, 'ac9c3e4c92148bef'),
    "star/su2/one_crossing/eval": (0, '5f051514d55faae4'),
    "star/su2/one_crossing/text": (0, '90873ee46bdbc6ce'),
    "star/su2/r2_pair/json": (0, '02e1cfdbf9759c84'),
    "star/su2/r2_pair/eval": (0, '77cc9c21e2c0a653'),
    "star/su2/r2_pair/text": (0, '9254fd715cfdfcc6'),
    "star/su2/self_crossing/json": (0, '7242fb541a60fa90'),
    "star/su2/self_crossing/eval": (0, '8d17f722cd487bde'),
    "star/su2/self_crossing/text": (0, 'add0b8b3e5b56980'),
    "star/su2/two_crossing/json": (0, 'acf06f470799436f'),
    "star/su2/two_crossing/eval": (0, 'b8d880140f186d8e'),
    "star/su2/two_crossing/text": (0, 'ecdd30c299cfd2ee'),
    "star/gln3/assoc_triple/json": (0, '56eedeafbeacdc69'),
    "star/gln3/assoc_triple/eval": (0, 'd1b18c4caeec4c85'),
    "star/gln3/assoc_triple/text": (0, '55c8f85a52c1da88'),
    "star/gln3/disjoint/json": (0, '8617e57480faca5b'),
    "star/gln3/disjoint/eval": (0, 'e45533e5e14aae83'),
    "star/gln3/disjoint/text": (0, '962ff337df487b5d'),
    "star/gln3/one_crossing/json": (0, '7715e3813f63203e'),
    "star/gln3/one_crossing/eval": (0, '907952410e57a332'),
    "star/gln3/one_crossing/text": (0, 'b72c7907a11487c0'),
    "star/gln3/r2_pair/json": (0, '430a1b331fd57ba9'),
    "star/gln3/r2_pair/eval": (0, 'e01f82f866aa88f5'),
    "star/gln3/r2_pair/text": (0, '50de3cea7746ec4a'),
    "star/gln3/self_crossing/json": (0, '6523d102c5cfd71e'),
    "star/gln3/self_crossing/eval": (0, '342673e560155f64'),
    "star/gln3/self_crossing/text": (0, '450fae81f5e2923b'),
    "star/gln3/two_crossing/json": (0, '357d6b5a74e27010'),
    "star/gln3/two_crossing/eval": (0, '74e802d7270e6ad0'),
    "star/gln3/two_crossing/text": (0, '11bcfd8b474b8c33'),
    "expect/su2/assoc_triple/json": (0, '14ceea3b4391c077'),
    "expect/su2/assoc_triple/eval": (0, '86efd8c31e367f9c'),
    "expect/su2/assoc_triple/text": (0, 'f7bea432c17459ab'),
    "expect/su2/disjoint/json": (0, '7186f1bb7de3d0ce'),
    "expect/su2/disjoint/eval": (0, 'a5b0a4fb99c9ad72'),
    "expect/su2/disjoint/text": (0, '962ff337df487b5d'),
    "expect/su2/one_crossing/json": (0, '018d5df5a1928359'),
    "expect/su2/one_crossing/eval": (0, '0414a7fe04733e4b'),
    "expect/su2/one_crossing/text": (0, '90873ee46bdbc6ce'),
    "expect/su2/r2_pair/json": (0, 'e905561538ef4e3e'),
    "expect/su2/r2_pair/eval": (0, 'd1100e95348d0ae0'),
    "expect/su2/r2_pair/text": (0, '9254fd715cfdfcc6'),
    "expect/su2/self_crossing/json": (0, '7630c7d7c65679c9'),
    "expect/su2/self_crossing/eval": (0, '90bc903535f88b42'),
    "expect/su2/self_crossing/text": (0, 'add0b8b3e5b56980'),
    "expect/su2/two_crossing/json": (0, '7f6121ad35af0616'),
    "expect/su2/two_crossing/eval": (0, '09854cd676e98e3d'),
    "expect/su2/two_crossing/text": (0, 'ecdd30c299cfd2ee'),
    "expect/gln3/assoc_triple/json": (0, 'f663aef5f82b438d'),
    "expect/gln3/assoc_triple/eval": (0, '3b03975fc25bfcfd'),
    "expect/gln3/assoc_triple/text": (0, '7f709a7f6ccef0a0'),
    "expect/gln3/disjoint/json": (0, 'ea8f17b7ee610f77'),
    "expect/gln3/disjoint/eval": (0, '453933a04d7dbe40'),
    "expect/gln3/disjoint/text": (0, '962ff337df487b5d'),
    "expect/gln3/one_crossing/json": (0, '4286aadf2a47d8a9'),
    "expect/gln3/one_crossing/eval": (0, '011c9c4b16a2c168'),
    "expect/gln3/one_crossing/text": (0, 'b72c7907a11487c0'),
    "expect/gln3/r2_pair/json": (0, '010498bd41938cb9'),
    "expect/gln3/r2_pair/eval": (0, '66f99c7cad75a2e8'),
    "expect/gln3/r2_pair/text": (0, '50de3cea7746ec4a'),
    "expect/gln3/self_crossing/json": (0, '14257bfe9a967f6a'),
    "expect/gln3/self_crossing/eval": (0, 'a47c7c6dcfe5c72d'),
    "expect/gln3/self_crossing/text": (0, '450fae81f5e2923b'),
    "expect/gln3/two_crossing/json": (0, 'db254df8ea4c6875'),
    "expect/gln3/two_crossing/eval": (0, '50b7e594bdcdb3f1'),
    "expect/gln3/two_crossing/text": (0, '11bcfd8b474b8c33'),
    "bracket/su2/assoc_triple/json": (0, 'b1bf5f37fe69af04'),
    "bracket/su2/assoc_triple/eval": (0, '81adab703af90201'),
    "bracket/su2/assoc_triple/text": (0, 'ea4ac0039a672462'),
    "bracket/su2/disjoint/json": (0, 'e20c55f4a2c59fbf'),
    "bracket/su2/disjoint/eval": (0, '7b54a95e63bfd787'),
    "bracket/su2/disjoint/text": (0, '9a271f2a916b0b6e'),
    "bracket/su2/one_crossing/json": (0, '87d161662ba33d91'),
    "bracket/su2/one_crossing/eval": (0, '23407db1b2741028'),
    "bracket/su2/one_crossing/text": (0, '816df8aa8ea67a3c'),
    "bracket/su2/r2_pair/json": (0, 'f8819d819c765803'),
    "bracket/su2/r2_pair/eval": (0, '66de114ea2d4fcf7'),
    "bracket/su2/r2_pair/text": (0, '6a4b72bb0e84bb2d'),
    "bracket/su2/self_crossing/json": (0, '2272d2ae5a8b7a52'),
    "bracket/su2/self_crossing/eval": (0, '7e54dbfe54d836f8'),
    "bracket/su2/self_crossing/text": (0, 'de146bd94321bac1'),
    "bracket/su2/two_crossing/json": (0, 'eb46df208df9d182'),
    "bracket/su2/two_crossing/eval": (0, 'd32f3c71a2b81cce'),
    "bracket/su2/two_crossing/text": (0, '61cad6e4d00d9c34'),
    "bracket/gln3/assoc_triple/json": (0, '2b635193934539fb'),
    "bracket/gln3/assoc_triple/eval": (0, 'dbe446af3695f3b7'),
    "bracket/gln3/assoc_triple/text": (0, 'ea4ac0039a672462'),
    "bracket/gln3/disjoint/json": (0, 'f6db90af92da7978'),
    "bracket/gln3/disjoint/eval": (0, '32ffd7df93246ee8'),
    "bracket/gln3/disjoint/text": (0, '9a271f2a916b0b6e'),
    "bracket/gln3/one_crossing/json": (0, 'd010f2ef24ad9d12'),
    "bracket/gln3/one_crossing/eval": (0, 'f650c9114223be83'),
    "bracket/gln3/one_crossing/text": (0, 'd7338ed93b5212fb'),
    "bracket/gln3/r2_pair/json": (0, 'f48cf7f22e1fcf42'),
    "bracket/gln3/r2_pair/eval": (0, '5fd7450b228e235a'),
    "bracket/gln3/r2_pair/text": (0, '6a4b72bb0e84bb2d'),
    "bracket/gln3/self_crossing/json": (0, 'dfc46b23c05f2352'),
    "bracket/gln3/self_crossing/eval": (0, 'a26af68eb6c1ae49'),
    "bracket/gln3/self_crossing/text": (0, '5dd34ec7a1a2a774'),
    "bracket/gln3/two_crossing/json": (0, '51d0a23bf4a7da4e'),
    "bracket/gln3/two_crossing/eval": (0, '2edf360f917c9ce4'),
    "bracket/gln3/two_crossing/text": (0, 'daff64f83938f840'),
    "coeffs/su2": (0, '469f7109d675d06d'),
    "coeffs/su2/text": (0, 'b77c087991c35092'),
    "coeffs/su2/eval": (0, 'e04d929a743338a8'),
    "coeffs/su2/eval/text": (0, '3c01833e6a1432d2'),
    "coeffs/gln3": (0, 'aebdbd74da45f1e8'),
    "coeffs/gln3/text": (0, '6d04580fff43ec89'),
    "coeffs/gln3/eval": (0, '6978b5162df2a0b1'),
    "coeffs/gln3/eval/text": (0, 'e639aea5489f5012'),
    "bracket/su2/assoc_triple/reversal": (0, '647882458585923a'),
    "bracket/su2/disjoint/reversal": (0, 'e20c55f4a2c59fbf'),
    "bracket/su2/one_crossing/reversal": (0, '773b4c66b940bfe3'),
    "bracket/su2/r2_pair/reversal": (0, '81d8d239024d5e64'),
    "bracket/su2/self_crossing/reversal": (0, 'fb22d8a53c188870'),
    "bracket/su2/two_crossing/reversal": (0, '6823e732abdf0d00'),
    "check/all/seed42": (0, '6d66e8a7aa4215ca'),
    "check/lattice/seed0": (0, 'de5205b8e5968d5a'),
    "check/lattice/seed7": (0, '99f94f720de695df'),
}


def test_golden_table_covers_every_case():
    assert set(GOLDEN) == set(cases())


@pytest.mark.parametrize("name", sorted(cases()))
def test_cli_output_matches_golden(name):
    assert stdout_digest(cases()[name]) == GOLDEN[name]


LARGE = {
    "star/su2_k10/json": (0, '497ecbfe2bde9721'),
    "star/su2_k10/text": (0, '78a6d05e37493580'),
    "expect/su2_k10/json": (0, '96541b65c0a224af'),
    "expect/su2_k10/text": (0, '78a6d05e37493580'),
    "star/gln3_k11/json": (0, '27c45d5cf3343ce0'),
    "star/gln3_k11/text": (0, '4c1b11d1a7b3364a'),
    "expect/gln3_k11/json": (0, 'daea2150d39e7ec1'),
    "expect/gln3_k11/text": (0, '4c1b11d1a7b3364a'),
}


def test_large_sums_match_golden(tmp_path):
    cases = large_cases(tmp_path)
    assert set(cases) == set(LARGE)
    for name, argv in cases.items():
        assert stdout_digest(argv) == LARGE[name], name
