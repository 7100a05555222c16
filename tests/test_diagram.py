"""Diagram model: validation, canonical forms, concatenation, text format."""

import json
import os
import pathlib
import pickle
import subprocess
import sys

import numpy as np
import pytest
from fractions import Fraction

from loopstar.coeff import CoeffError, GroupSpec, SeriesCoeff
from loopstar.diagram import (
    Arc,
    CrossingPoint,
    Curve,
    Diagram,
    DiagramError,
    FormalSum,
    TransversalityError,
    canonical,
    entry_key,
    formal_sum_from_json,
    formal_sum_to_json,
    Loop,
    monomial,
    monomial_text,
    parse_diagram,
    render_diagram,
    reverse,
)
from loopstar.holonomy import eval_wilson, loop_matrix, random_assignment
from loopstar.checks import random_diagram

ONE_CROSSING = "point a +\ncurve C level 1: a\ncurve D level 0: a\n"


def test_parse_basic():
    d = parse_diagram(ONE_CROSSING)
    assert set(d.points) == {"a"}
    assert d.points["a"].sign == 1
    assert d.curves["C"].level == 1
    assert d.curves["D"].passes == ("a",)
    assert d.validate() == []


def test_parse_comments_and_blank_lines():
    d = parse_diagram("# heading\n\npoint a -  # trailing\ncurve C level 0: a a\n")
    assert d.points["a"].sign == -1
    assert d.validate() == []


@pytest.mark.parametrize("bad", [
    "point a *\n",
    "point a\n",
    "curve C: a\n",
    "curve C level x: a\n",
    "loop C level 0: a\n",
])
def test_parse_syntax_errors(bad):
    with pytest.raises(DiagramError):
        parse_diagram(bad)


def test_validate_triple_point():
    d = parse_diagram("point a +\ncurve C level 0: a a a\n")
    errs = d.validate()
    assert any("triple" in e for e in errs)
    with pytest.raises(DiagramError):
        d.require_valid()


def test_validate_self_crossing_ok():
    d = parse_diagram("point a +\npoint b -\ncurve C level 0: a b a b\n")
    assert d.validate() == []


def test_validate_empty_diagram():
    assert Diagram().validate() == []


def test_validate_dangling():
    d = parse_diagram("point a +\npoint b -\ncurve C level 0: a a\n")
    assert any("never visited" in e for e in d.validate())
    d2 = parse_diagram("curve C level 0: zz zz\n")
    assert any("undeclared" in e for e in d2.validate())
    d3 = parse_diagram("point a +\ncurve C level 0: a\n")
    assert any("only one pass" in e for e in d3.validate())


def one_crossing_at(level) -> Diagram:
    """C at the given level over D at level 0, crossing once at a."""
    return Diagram(curves={"C": Curve("C", ("a",), level), "D": Curve("D", ("a",), 0)},
                   points={"a": CrossingPoint("a", 1)})


@pytest.mark.parametrize("level", [float("nan"), None, "1", 1j], ids=repr)
def test_validate_reports_a_level_that_does_not_order(level):
    """A NaN level compares false with every level, so stacking would put
    the other curve on top whatever its level; a level that is not a number
    would fail inside the state sum.  Both are validation errors."""
    from loopstar.star import expect_diagram

    d = one_crossing_at(level)
    assert d.validate() == [f"curve C: level must be an int or a float other than NaN, got {level!r}"]
    with pytest.raises(DiagramError, match="level must be"):
        expect_diagram(d, GroupSpec("su2"), 2)


@pytest.mark.parametrize("level, same_as", [(True, 1), (2.5, 1), (float("inf"), 1), (-0.5, -1)], ids=repr)
def test_a_level_that_orders_keeps_its_answer(level, same_as):
    from loopstar.star import expect_diagram

    su2 = GroupSpec("su2")
    assert one_crossing_at(level).validate() == []
    assert expect_diagram(one_crossing_at(level), su2, 2) == expect_diagram(one_crossing_at(same_as), su2, 2)


def test_validate_lists_each_fault_in_order_from_visit_counts():
    d = parse_diagram(
        "point a +\npoint b -\npoint c +\n"
        "curve C level 0: a b a zz\ncurve D level 1: a zz\n"
    )
    assert d.validate() == [
        "curve C: pass through undeclared point zz",
        "curve D: pass through undeclared point zz",
        "point a: triple point (3 passes)",
        "point b: only one pass",
        "point c: declared but never visited",
    ]
    # only the number of passes through each point is kept
    assert d._visits == {"a": 3, "b": 1, "c": 0, "zz": 2}


def test_a_dict_key_that_is_not_its_values_id_is_invalid():
    from loopstar.star import star_loops

    d = Diagram(curves={"X": Curve("Y", ("p",)), "Z": Curve("Z", ("p",))},
                points={"p": CrossingPoint("p", 1)})
    assert d.validate() == ["curve key 'X' holds curve 'Y'"]
    with pytest.raises(DiagramError, match="^curve key 'X' holds curve 'Y'$"):
        star_loops(d, d.loop_of("X"), d.loop_of("Z"), GroupSpec("su2"), 2)
    d = Diagram(curves={"C": Curve("C", ("p", "p"))}, points={"q": CrossingPoint("p", 1)})
    assert d.validate()[0] == "point key 'q' holds point 'p'"


def test_render_round_trip():
    d = parse_diagram(ONE_CROSSING)
    text = render_diagram(d)
    assert render_diagram(parse_diagram(text)) == text


GOLDEN_SIX = """\
point s4 -
point s5 -
point x0 -
point x1 +
point x2 +
point x3 +
curve C0 level 0: x1 x3 s4 x2 x0 s4
curve C1 level 0: x3 x1 s5 s5 x0 x2
"""


def test_render_round_trip_six_crossings():
    # frozen golden: canonical rendering of a 6-crossing two-curve diagram
    # (4 inter-curve crossings plus one self-crossing per curve)
    rng = np.random.default_rng(12)
    d = random_diagram(rng, n_curves=2, max_pair_crossings=6, self_crossing_prob=1.0)
    assert render_diagram(d) == GOLDEN_SIX
    assert render_diagram(parse_diagram(GOLDEN_SIX)) == GOLDEN_SIX
    assert parse_diagram(GOLDEN_SIX).validate() == []


def test_duplicate_declarations_rejected():
    with pytest.raises(DiagramError):
        parse_diagram("point a +\npoint a -\n")
    with pytest.raises(DiagramError):
        parse_diagram("curve C level 0:\ncurve C level 1:\n")


# -- canonical forms ------------------------------------------------------------


def loop_from(d, cid):
    return d.loop_of(cid)


def test_canonical_rotation_invariance():
    d = parse_diagram("point a +\npoint b -\ncurve C level 0: a b a b\n")
    w = tuple((Arc("C", i), 1) for i in range(4))
    forms = {canonical(w[i:] + w[:i]).word for i in range(4)}
    assert len(forms) == 1


def test_canonical_unoriented_merges_reversal():
    d = parse_diagram(ONE_CROSSING)
    j = d.concat_at(d.loop_of("C"), d.loop_of("D"), "a")
    assert canonical(j.word, "unoriented") == canonical(reverse(j).word, "unoriented")
    assert canonical(j.word, "oriented") != canonical(reverse(j).word, "oriented")


def test_canonicalize_idempotent():
    rng = np.random.default_rng(3)
    for _ in range(10):
        d = random_diagram(rng, n_curves=2)
        m = monomial(d.loop_of(c) for c in d.curves)
        for conv in ("oriented", "unoriented"):
            once = monomial(canonical(l.word, conv) for l in m)
            assert monomial(canonical(l.word, conv) for l in once) == once


def test_forward_words_agree_across_conventions():
    # forward-only words canonicalize identically under both conventions
    rng = np.random.default_rng(4)
    for _ in range(10):
        d = random_diagram(rng, n_curves=2)
        for c in d.curves:
            w = d.loop_of(c).word
            assert canonical(w, "oriented") == canonical(w, "unoriented")


def test_reverse_involution():
    d = parse_diagram("point a +\npoint b -\ncurve C level 0: a b a b\n")
    loop = d.loop_of("C")
    assert canonical(reverse(reverse(loop)).word) == canonical(loop.word)


# -- concatenation ---------------------------------------------------------------


def test_concat_simple_loops():
    d = parse_diagram(ONE_CROSSING)
    j = d.concat_at(d.loop_of("C"), d.loop_of("D"), "a")
    assert len(j) == 2  # visits a twice
    gaps = [p for _, p, _, _ in d.loop_gaps(j)]
    assert gaps == ["a", "a"]


def test_concat_length_additivity():
    rng = np.random.default_rng(9)
    for _ in range(10):
        d = random_diagram(rng, n_curves=2, self_crossing_prob=0.0)
        x, y = d.loop_of("C0"), d.loop_of("C1")
        shared = [p for p, _ in d.crossings_between(x, y)]
        if not shared:
            continue
        j = d.concat_at(x, y, shared[0])
        assert len(j) == len(x) + len(y)


def test_concat_symmetry_up_to_rotation():
    d = parse_diagram(ONE_CROSSING)
    x, y = d.loop_of("C"), d.loop_of("D")
    assert canonical(d.concat_at(x, y, "a").word) == canonical(d.concat_at(y, x, "a").word)


def test_concat_error_cases():
    d = parse_diagram("point a +\npoint s -\ncurve C level 1: a s s\ncurve D level 0: a\n")
    with pytest.raises(TransversalityError):
        d.concat_at(d.loop_of("C"), d.loop_of("D"), "s")  # self-crossing of C
    big = parse_diagram("point a +\npoint b -\ncurve C level 1: a\ncurve D level 0: a\ncurve E level 0: b b\n")
    with pytest.raises(TransversalityError):
        big.concat_at(big.loop_of("C"), big.loop_of("E"), "a")


def test_concat_holonomy_contract():
    # evaluation of the concatenation equals tr(hol_{C,p} hol_{D,p})
    rng = np.random.default_rng(21)
    for _ in range(5):
        d = random_diagram(rng, n_curves=2, self_crossing_prob=0.4)
        x, y = d.loop_of("C0"), d.loop_of("C1")
        crossings = d.crossings_between(x, y)
        if not crossings:
            continue
        A = random_assignment(d, GroupSpec("gln", 3), rng)
        for pid, _ in crossings:
            j = d.concat_at(x, y, pid)
            gx = next(g for g, p, _, _ in d.loop_gaps(x) if p == pid)
            gy = next(g for g, p, _, _ in d.loop_gaps(y) if p == pid)
            want = np.trace(loop_matrix(x, A, gx) @ loop_matrix(y, A, gy))
            assert abs(eval_wilson(j, A) - want) < 1e-12


def test_reverse_wilson_values():
    d = parse_diagram("point a +\npoint b -\ncurve C level 0: a b a b\n")
    loop = d.loop_of("C")
    rng = np.random.default_rng(2)
    for kind, n in (("su2", 2), ("sl2r", 2)):
        A = random_assignment(d, GroupSpec(kind, n), rng)
        assert abs(eval_wilson(reverse(loop), A) - eval_wilson(loop, A)) < 1e-12
    A = random_assignment(d, GroupSpec("gln", 3), rng)
    assert abs(eval_wilson(reverse(loop), A) - eval_wilson(loop, A)) > 1e-6


def test_crossing_sign_flips_with_reversal():
    d = parse_diagram(ONE_CROSSING)
    x, y = d.loop_of("C"), d.loop_of("D")
    assert d.crossings_between(x, y) == [("a", 1)]
    assert d.crossings_between(y, x) == [("a", -1)]  # swapped orientation order
    assert d.crossings_between(x, reverse(y)) == [("a", -1)]
    assert d.crossings_between(reverse(x), reverse(y)) == [("a", 1)]


def test_free_loop():
    d = parse_diagram("curve C level 0:\n")
    loop = d.loop_of("C")
    assert len(loop) == 1
    assert d.loop_gaps(loop) == []
    A = random_assignment(d, GroupSpec("un", 3), np.random.default_rng(0))
    assert abs(eval_wilson(loop, A) - np.trace(A.matrices["C.0"])) < 1e-14


def test_loop_and_monomial_text():
    d = parse_diagram(ONE_CROSSING)
    j = d.concat_at(d.loop_of("C"), reverse(d.loop_of("D")), "a")
    assert str(j) == "C.0 D.0~"
    assert repr(j) == "Loop(C.0 D.0~)"
    assert monomial_text(monomial([d.loop_of("D"), j])) == "W(C.0 D.0~) * W(D.0)"
    assert monomial_text(()) == "1"


# -- formal sums -----------------------------------------------------------------


def test_formal_sum_merging_and_pruning():
    d = parse_diagram(ONE_CROSSING)
    m = monomial([d.loop_of("C")])
    fs = FormalSum(order=4)
    fs.add_term(m, Fraction(1, 2))
    fs.add_term(m, Fraction(1, 2))
    assert fs.terms[m] == SeriesCoeff.one(4)
    fs.add_term(m, -1)
    assert fs.is_zero()


def test_a_sum_takes_no_term_of_another_order():
    d = parse_diagram(ONE_CROSSING)
    m1, m2 = monomial([d.loop_of("C")]), monomial([d.loop_of("D")])
    with pytest.raises(CoeffError, match="order 8 in a sum of order 4"):
        FormalSum.of(m1, 4) + FormalSum.of(m2, 8)
    with pytest.raises(CoeffError):
        FormalSum.of(m1, 4).add_term(m1, SeriesCoeff.one(8))
    with pytest.raises(CoeffError):
        FormalSum(order=4).add_term(m2, SeriesCoeff.one(8))


def test_add_scaled_copies_only_a_sum_of_its_own_order():
    d = parse_diagram(ONE_CROSSING)
    m = monomial([d.loop_of("C")])
    with pytest.raises(CoeffError):
        FormalSum.zero(4).add_scaled(FormalSum.of(m, 8), SeriesCoeff.one(4))
    out = FormalSum.zero(4)
    out.add_scaled(FormalSum.of(m, 4), SeriesCoeff.one(4))
    assert out == FormalSum.of(m, 4)
    assert formal_sum_from_json(formal_sum_to_json(out)) == out


def test_formal_sum_slot():
    fs = FormalSum(order=3)
    d = parse_diagram(ONE_CROSSING)
    m = monomial([d.loop_of("C")])
    fs.add_term(m, SeriesCoeff([0, 2, 0, 0], order=3))
    assert fs.slot(1) == {m: Fraction(2)}
    assert fs.slot(0) == {}


def test_formal_sum_json_round_trip():
    d = parse_diagram(ONE_CROSSING)
    j = d.concat_at(d.loop_of("C"), reverse(d.loop_of("D")), "a")
    fs = FormalSum(order=2)
    fs.add_term(monomial([canonical(j.word)]), SeriesCoeff([1, Fraction(-1, 2), Fraction(3, 8)], order=2))
    fs.add_term(monomial([d.loop_of("C"), d.loop_of("D")]), SeriesCoeff([0, 1, 0], order=2))
    back = formal_sum_from_json(formal_sum_to_json(fs))
    assert back == fs


def test_formal_sum_from_json_merges_rotated_words():
    d = parse_diagram("point p +\npoint q -\ncurve C level 1: p q\ncurve D level 0: q p\n")
    terms = [
        {"coeff": ["1", "0"], "monomial": [[["C.0", "+"], ["C.1", "+"]]]},
        {"coeff": ["2", "1"], "monomial": [[["C.1", "+"], ["C.0", "+"]]]},
    ]
    fs = formal_sum_from_json(json.dumps({"order": 1, "terms": terms}))
    assert fs == FormalSum({monomial([d.loop_of("C")]): SeriesCoeff([3, 1])}, order=1)


def test_formal_sum_from_json_merges_reversed_words_under_the_unoriented_convention():
    d = parse_diagram("point p +\npoint q -\ncurve C level 1: p q\ncurve D level 0: q p\n")
    terms = [
        {"coeff": ["1", "0"], "monomial": [[["C.0", "+"], ["C.1", "+"]]]},
        {"coeff": ["2", "1"], "monomial": [[["C.1", "-"], ["C.0", "-"]]]},
    ]
    text = json.dumps({"order": 1, "terms": terms})
    fs = formal_sum_from_json(text, convention="unoriented")
    loop = canonical(d.loop_of("C").word, "unoriented")
    assert fs == FormalSum({monomial([loop]): SeriesCoeff([3, 1])}, order=1)
    assert len(formal_sum_from_json(text)) == 2  # oriented: a loop and its reversal differ
    with pytest.raises(DiagramError, match="unknown convention"):
        formal_sum_from_json(text, convention="both")


@pytest.mark.parametrize("order,coeff", [(2, ["1", "0", "0", "5"]), (4, ["1"])])
def test_formal_sum_from_json_rejects_a_wrong_coefficient_count(order, coeff):
    text = json.dumps({"order": order, "terms": [{"coeff": coeff, "monomial": [[["C.0", "+"]]]}]})
    with pytest.raises(DiagramError, match=rf"term 0: {len(coeff)} coefficients, expected order \+ 1 = {order + 1}"):
        formal_sum_from_json(text)


def test_formal_sum_from_json_rejects_an_empty_loop_word():
    text = json.dumps({"order": 0, "terms": [{"coeff": ["1"], "monomial": [[]]}]})
    with pytest.raises(DiagramError):
        formal_sum_from_json(text)


@pytest.mark.parametrize("flag", ["*", "", "+1", None, 1])
def test_formal_sum_from_json_rejects_an_unknown_direction_flag(flag):
    text = json.dumps({"order": 0, "terms": [{"coeff": ["1"], "monomial": [[["C.0", flag]]]}]})
    with pytest.raises(DiagramError, match=r"term 0: direction flag"):
        formal_sum_from_json(text)


ONE_TERM = [{"coeff": ["1"], "monomial": [[["C.0", "+"]]]}]


def test_formal_sum_from_json_rejects_a_string_order():
    with pytest.raises(DiagramError, match="order"):
        formal_sum_from_json(json.dumps({"order": "2", "terms": []}))


def test_formal_sum_from_json_rejects_a_bool_order():
    with pytest.raises(DiagramError, match="order"):
        formal_sum_from_json(json.dumps({"order": True, "terms": []}))


def test_formal_sum_from_json_rejects_a_negative_order():
    with pytest.raises(DiagramError, match="order"):
        formal_sum_from_json(json.dumps({"order": -1, "terms": []}))


def test_formal_sum_from_json_rejects_a_missing_order():
    with pytest.raises(DiagramError, match="order"):
        formal_sum_from_json(json.dumps({"terms": ONE_TERM}))


def test_formal_sum_from_json_rejects_a_top_level_list():
    with pytest.raises(DiagramError, match="object"):
        formal_sum_from_json(json.dumps([0, ONE_TERM]))


def test_formal_sum_from_json_rejects_a_non_rational_coefficient():
    text = json.dumps({"order": 0, "terms": [{"coeff": ["x"], "monomial": [[["C.0", "+"]]]}]})
    with pytest.raises(DiagramError, match=r"term 0: coefficients \['x'\]"):
        formal_sum_from_json(text)


@pytest.mark.parametrize("coeff", [0.1, 1.0, True, False, None, "0.1", "1/2.0", " 1", "+1", "1/-2", "1/0", "\u0661"],
                         ids=repr)
def test_formal_sum_from_json_reads_exact_rationals_only(coeff):
    """A coefficient is a "p/q" string or a non-bool int: a float such as
    0.1 would load as its binary value and true as 1."""
    text = json.dumps({"order": 0, "terms": [{"coeff": [coeff], "monomial": [[["C.0", "+"]]]}]})
    with pytest.raises(DiagramError, match=r"term 0: coefficients .* are not all rationals"):
        formal_sum_from_json(text)


def test_formal_sum_from_json_reads_p_q_strings_and_ints():
    d = parse_diagram(ONE_CROSSING)
    terms = [{"coeff": ["-3/4", 2, "0", -5], "monomial": [[["C.0", "+"]]]}]
    fs = formal_sum_from_json(json.dumps({"order": 3, "terms": terms}))
    assert fs == FormalSum({monomial([d.loop_of("C")]): SeriesCoeff([Fraction(-3, 4), 2, 0, -5])}, order=3)


def test_formal_sum_from_json_rejects_a_word_entry_without_a_flag():
    text = json.dumps({"order": 0, "terms": [{"coeff": ["1"], "monomial": [[["C.0"]]]}]})
    with pytest.raises(DiagramError, match=r"term 0: word entry \['C.0'\]"):
        formal_sum_from_json(text)


@pytest.mark.parametrize("aid", ["C.x", "C.", "nodot", ".0"])
def test_bad_arc_id_raises_diagram_error(aid):
    with pytest.raises(DiagramError, match="bad arc id"):
        Arc.from_id(aid)
    text = json.dumps({"order": 0, "terms": [{"coeff": ["1"], "monomial": [[[aid, "+"]]]}]})
    with pytest.raises(DiagramError, match="bad arc id"):
        formal_sum_from_json(text)


@pytest.mark.parametrize("aid", ["C.1_0", "C.+1", "C. 1", "C.01", "C.-1", "C.1 ", "C.\u0661"])
def test_arc_id_that_does_not_round_trip_raises_diagram_error(aid):
    """Each of these loads under int() as another id, or as a negative
    index: C.10, C.1, C.-1."""
    with pytest.raises(DiagramError, match="bad arc id"):
        Arc.from_id(aid)
    text = json.dumps({"order": 0, "terms": [{"coeff": ["1"], "monomial": [[[aid, "+"]]]}]})
    with pytest.raises(DiagramError, match="bad arc id"):
        formal_sum_from_json(text)


@pytest.mark.parametrize("aid", ["C.0", "C.10", "a.b.7"])
def test_arc_id_round_trips(aid):
    assert Arc.from_id(aid).id == aid


def test_arc_ids():
    a = Arc("C1", 0)
    assert a.id == "C1.0"
    assert Arc.from_id("C1.0") == a
    with pytest.raises(DiagramError):
        Arc.from_id("nodot")


@pytest.mark.parametrize("text,match", [
    (json.dumps({"order": 0}), "terms must be a list"),
    (json.dumps({"order": 0, "terms": 5}), "terms must be a list"),
    (json.dumps({"order": 0, "terms": [7]}), "term 0: expected an object"),
    (json.dumps({"order": 0, "terms": [{"coeff": ["1"]}]}), "term 0: expected an object"),
    (json.dumps({"order": 0, "terms": [{"monomial": [[["C.0", "+"]]]}]}), "term 0: expected an object"),
    (json.dumps({"order": 0, "terms": [{"coeff": 3, "monomial": [[["C.0", "+"]]]}]}), "term 0: expected an object"),
    (json.dumps({"order": 0, "terms": [{"coeff": ["1"], "monomial": 3}]}), "term 0: expected an object"),
    (json.dumps({"order": 0, "terms": [{"coeff": ["1"], "monomial": [3]}]}), "term 0: loop word 3"),
    (json.dumps({"order": 0, "terms": [{"coeff": ["1"], "monomial": [[[5, "+"]]]}]}), r"term 0: word entry \[5, '\+'\]"),
    ("{", "JSON"),
], ids=["no-terms", "terms-int", "term-int", "no-monomial", "no-coeff", "coeff-int",
        "monomial-int", "word-int", "arc-id-int", "not-json"])
def test_formal_sum_from_json_rejects_a_malformed_shape(text, match):
    with pytest.raises(DiagramError, match=match):
        formal_sum_from_json(text)


ROOT = pathlib.Path(__file__).resolve().parent.parent
WORD = ((Arc("C", 0), 1), (Arc("D", 1), -1), (Arc("C", 2), 1))


def python_with_hash_seed(seed: int, code: str, stdin: bytes = b"") -> bytes:
    """stdout of code run in a fresh interpreter with PYTHONHASHSEED=seed."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": str(seed)}
    done = subprocess.run([sys.executable, "-c", code], input=stdin, env=env, capture_output=True,
                          timeout=120, check=True)
    return done.stdout


def test_loop_hash_is_the_hash_of_its_word():
    d = parse_diagram("point a +\npoint b -\ncurve C level 1: a b\ncurve D level 0: b a\n")
    x, y = d.loop_of("C"), d.loop_of("D")
    for loop in (x, y, canonical(reverse(x).word, "unoriented"), reverse(y), d.concat_at(x, y, "a")):
        assert hash(loop) == hash((loop.word,))
        assert hash(loop) == hash(Loop(loop.word))


def test_loop_takes_no_sort_key():
    with pytest.raises(TypeError):
        Loop(WORD, tuple(map(entry_key, WORD)))
    loop = canonical(WORD)
    assert loop.key() == tuple(map(entry_key, loop.word))


def test_pickled_loop_carries_no_hash():
    loop = canonical(WORD)
    hash(loop), loop.key()
    loaded = pickle.loads(pickle.dumps(loop))
    assert loaded == loop and loaded._hash is None and loaded._key is None
    assert hash(loaded) == hash(loop)


def test_loop_pickled_in_another_process_is_found_by_hash():
    """String hashes are salted per process, so a hash pickled with the
    loop would not match a fresh loop's hash in the loading process."""
    imports = "import pickle, sys\nfrom loopstar.diagram import Arc, Loop\n"
    pickled = python_with_hash_seed(
        1, imports + f"loop = Loop({WORD!r})\nhash(loop)\nsys.stdout.buffer.write(pickle.dumps(loop))\n")
    found = python_with_hash_seed(
        2, imports + f"table = {{Loop({WORD!r}): 'found'}}\n"
        "print(table.get(pickle.loads(sys.stdin.buffer.read()), 'missing'))\n", pickled)
    assert found.decode().strip() == "found"


def test_formal_sums_of_different_orders_are_unequal():
    # their JSON texts differ ("order": 4 vs 8), so equality must too
    assert FormalSum.zero(4) != FormalSum.zero(8)
    assert FormalSum.zero(4) == FormalSum.zero(4)


@pytest.mark.parametrize("order", [-1, 2.5, True, "4", None])
def test_formal_sum_order_must_be_an_int_at_least_zero(order):
    with pytest.raises(CoeffError, match="order must be an int >= 0"):
        FormalSum.zero(order)


def test_a_negative_order_on_zero_factors_is_a_domain_error():
    # the zero factors reach no state sum, yet a sum of order -1 would print
    # JSON that formal_sum_from_json rejects
    from loopstar.goldman import bracket_poly
    from loopstar.star import star

    d = parse_diagram(ONE_CROSSING)
    su2 = GroupSpec("su2")
    with pytest.raises(CoeffError):
        star(d, FormalSum.zero(8), FormalSum.zero(8), su2, -1)
    with pytest.raises(CoeffError):
        bracket_poly(d, FormalSum.zero(8), FormalSum.zero(8), su2, order=-1)
