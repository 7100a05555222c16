"""Command-line front end.

Diagram files assign integer levels to curves; `bracket` and `star` treat
curves with level > 0 as the left factor and the rest as the right factor,
while `expect` stacks every curve at its declared level.  Rationals are
printed as p/q strings; floats appear only under --eval-beta.

numpy is imported only by --eval-beta, `check`, and the holonomy names, so
`star`, `expect`, `bracket` and `coeffs` start without it.

Exit codes: 0 success, 1 domain error (validation, transversality, a float
overflow under --eval-beta), 2 usage (a non-finite --eval-beta among them).
"""

from __future__ import annotations

import argparse
import json
import sys

from .coeff import (
    DEFAULT_ORDER,
    GROUP_KINDS,
    CoeffError,
    GroupSpec,
    HolonomyError,
    check_coupling,
    closed_crossing_values,
    closed_form_strings,
    crossing_coeffs,
)
from .diagram import (
    DiagramError,
    FormalSum,
    monomial,
    monomial_text,
    parse_diagram,
)
# bench/tracer.py traces the term encoder under this name
from .diagram import formal_sum_terms as _formal_sum_payload
from .goldman import FORMS, bracket_poly
from .star import StarError, expect_diagram, star


class CliError(Exception):
    pass


def _load_diagram(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise CliError(str(e))
    d = parse_diagram(text)
    d.require_valid()
    return d


def _split_factors(d, order: int) -> tuple[FormalSum, FormalSum]:
    top = [cid for cid in d.curves if d.curves[cid].level > 0]
    bottom = [cid for cid in d.curves if d.curves[cid].level <= 0]
    f = FormalSum.of(monomial(d.loop_of(c) for c in top), order)
    g = FormalSum.of(monomial(d.loop_of(c) for c in bottom), order)
    return f, g


def _finite_beta(text: str) -> float:
    """--eval-beta: a finite float; inf, nan and non-numbers are usage errors."""
    try:
        beta = float(text)
    except ValueError:
        beta = text
    check_coupling(beta, error=argparse.ArgumentTypeError)
    return beta


def _render_formal_sum_text(fs: FormalSum) -> str:
    if fs.is_zero():
        return "0\n"
    rows = [(monomial_text(m), c.strings()) for m, c in fs]
    width = max(len(r[0]) for r in rows)
    lines = [f"{'monomial'.ljust(width)}  coefficients of h^0..h^{fs.order}"]
    for mono, cs in rows:
        lines.append(f"{mono.ljust(width)}  {' '.join(cs)}")
    return "\n".join(lines) + "\n"


def _emit_formal_sum(fs: FormalSum, args, group: GroupSpec, d, operation: str):
    ev = None
    if args.eval_beta is not None:
        import numpy as np

        from .holonomy import eval_formal, random_assignment

        assign = random_assignment(d, group, np.random.default_rng(args.seed))
        value = eval_formal(fs, assign, args.eval_beta)
        ev = {"beta": args.eval_beta, "seed": args.seed, "value": [value.real, value.imag]}
    if args.format == "json":
        payload = {"group": str(group), "order": fs.order, "terms": _formal_sum_payload(fs), "operation": operation}
        if ev is not None:
            payload["eval"] = ev
        print(json.dumps(payload, indent=2))
    else:
        sys.stdout.write(_render_formal_sum_text(fs))
        if ev is not None:
            print(f"value at beta={ev['beta']} (seed {ev['seed']}): {ev['value'][0]!r} + {ev['value'][1]!r}i")


def _cmd_coeffs(args) -> int:
    group = GroupSpec(args.group, args.n)
    order = args.order
    types = ["over", "under"] if args.type == "both" else [args.type]
    rows = []
    for t in types:
        at = None if args.eval_beta is None else closed_crossing_values(group, t, args.eval_beta)
        rows.append((t, crossing_coeffs(group, t, order), closed_form_strings(group, t), at))
    if args.format == "json":
        tables = {}
        for t, cc, (vf, sf), at in rows:
            tables[t] = {
                "virtual": cc.virtual.strings(),
                "smooth": cc.smooth.strings(),
                "closed_form": {"virtual": vf, "smooth": sf},
            }
            if at is not None:
                v, s = at
                tables[t]["closed_form_at_beta"] = {
                    "beta": args.eval_beta,
                    "virtual": [v.real, v.imag],
                    "smooth": [s.real, s.imag],
                }
        print(json.dumps({"group": str(group), "K": order, "tables": tables}, indent=2))
    else:
        for t, cc, (vf, sf), at in rows:
            print(f"{group} {t}-crossing, order {order}")
            print(f"  virtual: {' '.join(cc.virtual.strings())}   = {vf}")
            print(f"  smooth : {' '.join(cc.smooth.strings())}   = {sf}")
            if at is not None:
                v, s = at
                print(f"  closed form at beta={args.eval_beta}: virtual={v.real!r}, smooth={s.real!r}")
    return 0


def _cmd_bracket(args) -> int:
    group = GroupSpec(args.group, args.n)
    d = _load_diagram(args.file)
    f, g = _split_factors(d, args.order)
    out = bracket_poly(d, f, g, group, form=args.form)
    _emit_formal_sum(out, args, group, d, "bracket")
    return 0


def _cmd_star(args) -> int:
    group = GroupSpec(args.group, args.n)
    d = _load_diagram(args.file)
    f, g = _split_factors(d, args.order)
    out = star(d, f, g, group, args.order)
    _emit_formal_sum(out, args, group, d, "star")
    return 0


def _cmd_expect(args) -> int:
    group = GroupSpec(args.group, args.n)
    d = _load_diagram(args.file)
    out = expect_diagram(d, group, args.order)
    _emit_formal_sum(out, args, group, d, "expect")
    return 0


def _cmd_check(args) -> int:
    from . import checks

    if args.suite == "all":
        results = checks.run_all(args.seed)
    elif args.suite in checks.SUITES:
        results = [checks.SUITES[args.suite](args.seed)]
    else:
        raise CliError(f"unknown check suite {args.suite!r}; choose from all, " + ", ".join(checks.SUITES))
    for r in results:
        print(r.line())
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loopstar",
        description="Goldman brackets and stacked-diagram star products of Wilson loops",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--group", choices=GROUP_KINDS, default="su2")
    common.add_argument("--n", type=int, default=2, help="matrix size for gln/un")
    common.add_argument("--order", type=int, default=DEFAULT_ORDER, help="series truncation order K")
    common.add_argument("--format", choices=["json", "text"], default="json")
    common.add_argument("--eval-beta", type=_finite_beta, default=None, dest="eval_beta")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("coeffs", parents=[common], help="print crossing coefficient tables")
    p.add_argument("--type", choices=["over", "under", "both"], default="both")
    p.set_defaults(fn=_cmd_coeffs)

    p = sub.add_parser("bracket", parents=[common, seeded], help="Poisson bracket of the two level groups")
    p.add_argument("--form", choices=FORMS, default="alt")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_bracket)

    p = sub.add_parser("star", parents=[common, seeded], help="star product of the two level groups")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_star)

    p = sub.add_parser("expect", parents=[common, seeded], help="stacked expectation of all curves")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_expect)

    p = sub.add_parser("check", parents=[seeded], help="run property suites")
    p.add_argument("suite", nargs="?", default="all")
    p.set_defaults(fn=_cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (DiagramError, StarError, CoeffError, HolonomyError, CliError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
