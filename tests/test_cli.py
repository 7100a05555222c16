"""Command-line interface tests: exit codes, determinism, output formats."""

import argparse
import json
import pathlib

import numpy as np
import pytest

from loopstar.cli import build_parser, main
from loopstar.coeff import DEFAULT_ORDER, GROUP_KINDS, GroupSpec
from loopstar.diagram import FormalSum, formal_sum_from_json, monomial, parse_diagram
from loopstar.goldman import FORMS, bracket_poly
from loopstar.holonomy import eval_formal, random_assignment
from loopstar.star import expect_diagram, star

DIAGRAMS = pathlib.Path(__file__).resolve().parent.parent / "diagrams"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_star_one_crossing_json(capsys):
    code, out, err = run(capsys, "star", "--group", "su2", "--order", "4",
                         str(DIAGRAMS / "one_crossing.ls"))
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data["group"] == "su2" and data["order"] == 4
    by_len = {len(t["monomial"]): t for t in data["terms"]}
    assert by_len[2]["coeff"] == ["1", "-1/2", "3/8", "-1/16", "3/128"]
    assert by_len[1]["coeff"] == ["0", "1", "0", "1/8", "0"]


def test_star_output_round_trips_through_parser(capsys):
    code, out, _ = run(capsys, "star", "--order", "3", str(DIAGRAMS / "one_crossing.ls"))
    assert code == 0
    data = json.loads(out)
    fs = formal_sum_from_json(json.dumps({"order": data["order"], "terms": data["terms"]}))
    assert len(fs) == 2


def test_bracket_disjoint_is_empty(capsys):
    code, out, _ = run(capsys, "bracket", "--group", "gln", "--n", "3",
                       str(DIAGRAMS / "disjoint.ls"))
    assert code == 0
    assert json.loads(out)["terms"] == []


def test_coeffs_table(capsys):
    code, out, _ = run(capsys, "coeffs", "--group", "su2", "--type", "over", "--order", "2")
    assert code == 0
    data = json.loads(out)
    assert data["group"] == "su2" and data["K"] == 2
    table = data["tables"]["over"]
    assert table["virtual"] == ["1", "-1/2", "3/8"]
    assert table["smooth"] == ["0", "1", "0"]


def test_coeffs_order_zero(capsys):
    code, out, _ = run(capsys, "coeffs", "--group", "un", "--n", "3", "--order", "0")
    assert code == 0
    tables = json.loads(out)["tables"]
    for t in ("over", "under"):
        assert tables[t]["virtual"] == ["1"]
        assert tables[t]["smooth"] == ["0"]


def test_coeffs_eval_beta(capsys):
    code, out, _ = run(capsys, "coeffs", "--group", "su2", "--type", "over",
                       "--order", "2", "--eval-beta", "1.0")
    closed = json.loads(out)["tables"]["over"]["closed_form_at_beta"]
    assert abs(closed["virtual"][0] - 1.3339908766092596) < 1e-12


def test_expect_uses_declared_levels(capsys):
    code, out, _ = run(capsys, "expect", "--group", "su2", "--order", "2",
                       str(DIAGRAMS / "r2_pair.ls"))
    assert code == 0
    assert len(json.loads(out)["terms"]) == 4


def test_eval_beta_deterministic_under_seed(capsys):
    args = ("star", "--group", "gln", "--n", "2", "--order", "4",
            "--eval-beta", "0.1", "--seed", "5", str(DIAGRAMS / "two_crossing.ls"))
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    assert "eval" in json.loads(out1)


def test_text_format(capsys):
    code, out, _ = run(capsys, "star", "--format", "text", "--order", "2",
                       str(DIAGRAMS / "one_crossing.ls"))
    assert code == 0
    assert "monomial" in out and "W(C.0)" in out


@pytest.mark.parametrize("verb", ["star", "expect", "bracket"])
def test_text_format_value_line(capsys, verb):
    """Under --format text --eval-beta the last line is the value line, its
    two numbers the reprs of eval_formal's value of the verb's sum at the
    same beta and seed."""
    path = DIAGRAMS / "two_crossing.ls"
    code, out, _ = run(capsys, verb, "--format", "text", "--order", "3",
                       "--eval-beta", "0.1", "--seed", "5", str(path))
    assert code == 0
    group = GroupSpec("su2")
    d = parse_diagram(path.read_text())
    f = FormalSum.of(monomial([d.loop_of("C")]), 3)
    g = FormalSum.of(monomial([d.loop_of("D")]), 3)
    fs = {"star": lambda: star(d, f, g, group, 3),
          "expect": lambda: expect_diagram(d, group, 3),
          "bracket": lambda: bracket_poly(d, f, g, group, form="alt")}[verb]()
    value = eval_formal(fs, random_assignment(d, group, np.random.default_rng(5)), 0.1)
    assert out.endswith("\n")
    assert out.splitlines()[-1] == f"value at beta=0.1 (seed 5): {value.real!r} + {value.imag!r}i"


def test_check_all_passes(capsys):
    code, out, _ = run(capsys, "check", "all", "--seed", "42")
    assert code == 0
    lines = [l for l in out.strip().splitlines()]
    assert len(lines) >= 10
    assert all(l.startswith("[PASS]") for l in lines)


def test_check_single_suite_and_unknown(capsys):
    code, out, _ = run(capsys, "check", "poisson", "--seed", "1")
    assert code == 0 and out.startswith("[PASS] poisson-limit")
    code, _, err = run(capsys, "check", "nonsense")
    assert code == 1 and "unknown check suite" in err


def test_check_deterministic(capsys):
    _, out1, _ = run(capsys, "check", "trace", "--seed", "9")
    _, out2, _ = run(capsys, "check", "trace", "--seed", "9")
    assert out1 == out2


# invalid diagrams and their validation messages
INVALID_DIAGRAMS = {
    "point a +\ncurve C level 1: a b\ncurve D level 0: a\n": "undeclared point b",
    "point a +\ncurve C level 0: a a a\n": "triple point",
    "point a +\npoint b +\ncurve C level 1: a b\ncurve D level 0: a\n": "point b: only one pass",
    "point a +\npoint b +\ncurve C level 1: a\ncurve D level 0: a\n": "point b: declared but never visited",
    "point a +\n": "point a: declared but never visited",  # no curves
}


def test_domain_error_exit_1(tmp_path, capsys):
    """The CLI leaves validation to each verb's library call: star, expect
    and bracket, plain, under --eval-beta and as text, refuse every invalid
    diagram with exit 1, its validation message and no output."""
    bad = tmp_path / "bad.ls"
    for text, message in INVALID_DIAGRAMS.items():
        bad.write_text(text)
        for verb in ("star", "expect", "bracket"):
            for mode in ([], ["--eval-beta", "0.1"], ["--format", "text"]):
                code, out, err = run(capsys, verb, *mode, str(bad))
                assert code == 1 and out == "" and message in err, (text, verb, mode, err)
    missing = tmp_path / "nope.ls"
    code, _, err = run(capsys, "star", str(missing))
    assert code == 1


def test_syntax_error_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.ls"
    bad.write_text("point a %\n")
    code, _, err = run(capsys, "star", str(bad))
    assert code == 1 and "cannot parse" in err


def test_a_diagram_file_that_is_not_utf8_is_a_domain_error(tmp_path, capsys):
    bad = tmp_path / "bad.ls"
    bad.write_bytes(b"point a \xff\n")
    for verb in ("star", "expect", "bracket"):
        code, out, err = run(capsys, verb, str(bad))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "UTF-8" in err


@pytest.mark.parametrize("seed", ["-1", "1.5", "x"])
@pytest.mark.parametrize("verb", [
    ["check", "series"],
    ["star", str(DIAGRAMS / "one_crossing.ls")],
    ["star", "--eval-beta", "0.1", str(DIAGRAMS / "one_crossing.ls")],
    ["expect", str(DIAGRAMS / "one_crossing.ls")],
    ["bracket", "--eval-beta", "0.1", str(DIAGRAMS / "one_crossing.ls")],
], ids=["check", "star", "star-eval", "expect", "bracket-eval"])
def test_a_seed_that_is_not_an_int_at_least_zero_is_a_usage_error(capsys, verb, seed):
    """Whether or not the verb reads it: numpy's generators take no negative
    seed."""
    with pytest.raises(SystemExit) as exc:
        main([*verb, f"--seed={seed}"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["star", "--group", "so5", "x.ls"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_order_defaults_to_default_order(capsys, monkeypatch):
    # the order comes from --order alone; no environment variable is read
    monkeypatch.setenv("LOOPSTAR_ORDER", "3")
    code, out, _ = run(capsys, "coeffs", "--group", "su2", "--type", "over")
    assert code == 0 and json.loads(out)["K"] == DEFAULT_ORDER


@pytest.mark.parametrize("beta", ["inf", "-inf", "nan", "abc"])
@pytest.mark.parametrize("verb", [
    ["coeffs"],
    ["star", str(DIAGRAMS / "one_crossing.ls")],
    ["expect", str(DIAGRAMS / "one_crossing.ls")],
    ["bracket", str(DIAGRAMS / "one_crossing.ls")],
    ["check", "trace"],
], ids=lambda v: v[0])
def test_non_finite_eval_beta_is_a_usage_error(capsys, verb, beta):
    with pytest.raises(SystemExit) as exc:
        main([*verb, f"--eval-beta={beta}"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ["coeffs", "--eval-beta", "1000"],
    ["coeffs", "--format", "text", "--group", "gln", "--n", "3", "--eval-beta", "400"],
    ["star", "--eval-beta", "1e200", str(DIAGRAMS / "one_crossing.ls")],
    ["expect", "--eval-beta", "1e200", str(DIAGRAMS / "two_crossing.ls")],
    ["expect", "--format", "text", "--eval-beta", "1e200", str(DIAGRAMS / "one_crossing.ls")],
], ids=["coeffs", "coeffs-text", "star", "expect", "expect-text"])
def test_an_overflowing_evaluation_is_a_domain_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "overflows" in err


def test_a_holonomy_error_under_eval_beta_is_a_domain_error(capsys, monkeypatch):
    import loopstar.holonomy
    from loopstar.coeff import HolonomyError

    def fail(*args, **kwargs):
        raise HolonomyError("no matrix assigned")

    monkeypatch.setattr(loopstar.holonomy, "eval_formal", fail)
    code, out, err = run(capsys, "star", "--eval-beta", "0.01", str(DIAGRAMS / "one_crossing.ls"))
    assert code == 1 and out == ""
    assert err == "error: no matrix assigned\n"


def test_group_and_form_choices_are_the_library_lists():
    # argparse keeps the subparsers as the choices of its one subparsers action
    (verbs,) = [a.choices for a in build_parser()._actions if isinstance(a.choices, dict)]
    choices = {a.dest: a.choices for a in verbs["bracket"]._actions}
    assert choices["group"] is GROUP_KINDS
    assert choices["form"] is FORMS


@pytest.mark.parametrize("argv", [
    ["check", "series", "--group", "su2"],
    ["check", "series", "--n", "2"],
    ["check", "series", "--order", "3"],
    ["check", "series", "--format", "text"],
    ["check", "series", "--eval-beta", "0.1"],
    ["coeffs", "--seed", "1"],
], ids=lambda v: f"{v[0]}{v[-2]}")
def test_a_flag_the_verb_does_not_read_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_each_verb_takes_only_the_values_it_reads():
    (verbs,) = [a.choices for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    dests = {verb: {a.dest for a in p._actions if a.dest != "help"} for verb, p in verbs.items()}
    shared = {"group", "n", "order", "format", "eval_beta"}
    assert dests == {
        "coeffs": shared | {"type"},
        "bracket": shared | {"seed", "form", "file"},
        "star": shared | {"seed", "file"},
        "expect": shared | {"seed", "file"},
        "check": {"suite", "seed"},
    }
    assert sum(map(len, dests.values())) == 30
