"""Command-line front end.

Diagram files assign integer levels to curves; `bracket` and `star` treat
curves with level > 0 as the left factor and the rest as the right factor,
while `expect` stacks every curve at its declared level.  Rationals are
printed as p/q strings; floats appear only under --eval-beta.

numpy is imported only by --eval-beta, `check`, and the holonomy names, so
`star`, `expect`, `bracket` and `coeffs` start without it.

Exit codes: 0 success, 1 domain error (validation, transversality, a float
overflow under --eval-beta, a diagram file that is not UTF-8), 2 usage (a
non-finite --eval-beta and a negative --seed among them).
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
    parse_diagram,
)
# bench/tracer.py traces the formal sum writer under this name
from .diagram import write_formal_sum as _formal_sum_payload
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
    except UnicodeDecodeError as e:
        raise CliError(f"{path} is not UTF-8 text: {e}")
    return parse_diagram(text)


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


def _seed(text: str) -> int:
    """--seed: an int >= 0, as numpy's generators take it; anything else is
    a usage error."""
    try:
        seed = int(text)
    except ValueError:
        seed = None
    if seed is None or seed < 0:
        raise argparse.ArgumentTypeError(f"expected an int >= 0, got {text!r}")
    return seed


def _emit_formal_sum(fs: FormalSum, args, group: GroupSpec, d, operation: str):
    ev = None
    if args.eval_beta is not None:
        import numpy as np

        from .holonomy import eval_formal, random_assignment

        assign = random_assignment(d, group, np.random.default_rng(args.seed))
        value = eval_formal(fs, assign, args.eval_beta)
        ev = {"beta": args.eval_beta, "seed": args.seed, "value": [value.real, value.imag]}
    if args.format == "json":
        tail = {"operation": operation} if ev is None else {"operation": operation, "eval": ev}
        print(_formal_sum_payload(fs, "json", {"group": str(group)}, tail))
    else:
        sys.stdout.write(_formal_sum_payload(fs, "text"))
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


def _cmd_sum(args) -> int:
    """bracket, star and expect: load the diagram, compute the verb's sum,
    emit it.  bracket and star take the two level groups as factors."""
    group = GroupSpec(args.group, args.n)
    d = _load_diagram(args.file)
    if args.verb == "expect":
        out = expect_diagram(d, group, args.order)
    elif args.verb == "star":
        out = star(d, *_split_factors(d, args.order), group, args.order)
    else:
        out = bracket_poly(d, *_split_factors(d, args.order), group, form=args.form)
    _emit_formal_sum(out, args, group, d, args.verb)
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
    seeded.add_argument("--seed", type=_seed, default=0)

    p = sub.add_parser("coeffs", parents=[common], help="print crossing coefficient tables")
    p.add_argument("--type", choices=["over", "under", "both"], default="both")
    p.set_defaults(fn=_cmd_coeffs)

    p = sub.add_parser("bracket", parents=[common, seeded], help="Poisson bracket of the two level groups")
    p.add_argument("--form", choices=FORMS, default="alt")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_sum)

    p = sub.add_parser("star", parents=[common, seeded], help="star product of the two level groups")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_sum)

    p = sub.add_parser("expect", parents=[common, seeded], help="stacked expectation of all curves")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_sum)

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
