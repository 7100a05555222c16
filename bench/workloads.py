"""The three workloads: seeded inputs, the operation, and its output check.

Every input is made from the workload seed alone.  ``run`` is the timed
operation; ``check`` verifies one output against an independent path and
returns its canonical bytes (hashed into the run's output digest);
``fingerprint`` lets a repeated input be compared with its first, checked,
output cheaply.  See README.md for why each workload exists.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np

# loopstar is reached through module attributes at call time, never bound
# by name here, so the tracer's wrappers see every call the ops make
import loopstar as ls
from loopstar import checks, cli, holonomy

ORDER = 8  # series truncation K
BETA = 0.01  # coupling at which exact and closed-form paths are compared
# |series value - closed-form value| <= TOLERANCE * (1 + |closed-form value|);
# the truncation error at h = 2*BETA is below 1e-13 for these sizes
TOLERANCE = 1e-8

SU2 = ls.GroupSpec("su2")
GL3 = ls.GroupSpec("gln", 3)


def _closed_form_agrees(series_value: complex, closed_value: complex) -> bool:
    return abs(series_value - closed_value) <= TOLERANCE * (1 + abs(closed_value))


def _sum_fingerprint(fs: ls.FormalSum) -> int:
    return hash(frozenset(fs.terms.items()))


class _InProcess:
    """A workload whose op is a loopstar call in this process."""

    def run_inprocess(self, inp):
        return self.run(inp)

    def warm_up(self, seed: int) -> None:
        self.run(self.make_inputs(seed, tiny=True)[0])


class Deep(_InProcess):
    """star_loops on two curves crossing k times, K=8, su2 and gln(3) in
    turn.  su2 runs at k=10 and gln(3) at k=11: the unoriented canonical
    form compares twice as many rotations, so the two cost about the same
    and the latencies form one population."""

    name = "deep"
    pool = 8
    trace_ops = 4

    def make_inputs(self, seed: int, tiny: bool) -> list:
        rng = random.Random(seed)
        sizes = ((SU2, 3), (GL3, 4)) if tiny else ((SU2, 10), (GL3, 11))
        inputs = []
        for i in range(4 if tiny else self.pool):
            group, k = sizes[i % 2]
            lines = [f"point x{j} {rng.choice('+-')}" for j in range(k)]
            order = list(range(k))
            rng.shuffle(order)
            lines.append("curve C level 1: " + " ".join(f"x{j}" for j in range(k)))
            lines.append("curve D level 0: " + " ".join(f"x{j}" for j in order))
            d = ls.parse_diagram("\n".join(lines) + "\n")
            d.require_valid()
            inputs.append((d, group, rng.randrange(2**31)))
        return inputs

    def run(self, inp):
        d, group, _ = inp
        return ls.star_loops(d, d.loop_of("C"), d.loop_of("D"), group, ORDER)

    def check(self, inp, out) -> tuple[bool, bytes]:
        d, group, assign_seed = inp
        conv = group.convention
        x = ls.canonical(d.loop_of("C").word, conv)
        y = ls.canonical(d.loop_of("D").word, conv)
        closed = ls.star_complex(d, {(x,): 1 + 0j}, {(y,): 1 + 0j}, group, BETA)
        assign = ls.random_assignment(d, group, np.random.default_rng(assign_seed))
        ok = _closed_form_agrees(ls.eval_formal(out, assign, BETA), holonomy.eval_complex_sum(closed, assign))
        return ok, ls.formal_sum_to_json(out).encode()

    def fingerprint(self, out):
        return _sum_fingerprint(out)


def _stage_crossings(d) -> tuple[int, ...]:
    """Inter-curve crossings met by each star of ((C0*C1)*C2)*C3."""
    owners: dict[str, set[str]] = {}
    for c in d.curves.values():
        for p in c.passes:
            owners.setdefault(p, set()).add(c.id)
    names = list(d.curves)
    stages = []
    for j in range(1, len(names)):
        stages.append(sum(1 for o in owners.values() if len(o) == 2 and names[j] in o
                          and any(names[i] in o for i in range(j))))
    return tuple(stages)


class Wide(_InProcess):
    """((u*v)*w)*x on a 4-curve checks.random_diagram at K=8, then
    bracket_poly(u*v*w, x), then eval_formal of both.  Diagrams are drawn
    until the three stars meet 2, 3 and 3 crossings, which fixes the state
    count per op; su2 and gln(3) in turn."""

    name = "wide"
    pool = 24
    trace_ops = 12
    stages = (2, 3, 3)

    def make_inputs(self, seed: int, tiny: bool) -> list:
        rng = np.random.default_rng(seed)
        want = (1, 1, 1) if tiny else self.stages
        inputs = []
        while len(inputs) < (4 if tiny else self.pool):
            d = checks.random_diagram(rng, n_curves=4)
            if _stage_crossings(d) != want:
                continue
            group = (SU2, GL3)[len(inputs) % 2]
            inputs.append((d, group, int(rng.integers(2**31))))
        return inputs

    @staticmethod
    def _factors(d, group):
        conv = group.convention
        return [ls.FormalSum.of(ls.monomial([ls.canonical(d.loop_of(c).word, conv)]), ORDER) for c in d.curves]

    def run(self, inp):
        d, group, assign_seed = inp
        u, v, w, x = self._factors(d, group)
        uvw = ls.star(d, ls.star(d, u, v, group, ORDER), w, group, ORDER)
        full = ls.star(d, uvw, x, group, ORDER)
        br = ls.bracket_poly(d, uvw, x, group, order=ORDER)
        assign = ls.random_assignment(d, group, np.random.default_rng(assign_seed))
        return full, br, ls.eval_formal(full, assign, BETA), ls.eval_formal(br, assign, BETA)

    def check(self, inp, out) -> tuple[bool, bytes]:
        d, group, assign_seed = inp
        full, br, full_value, _ = out
        u, v, w, x = self._factors(d, group)
        closed = {next(iter(u.terms)): 1 + 0j}
        for f in (v, w, x):
            closed = ls.star_complex(d, closed, {next(iter(f.terms)): 1 + 0j}, group, BETA)
        assign = ls.random_assignment(d, group, np.random.default_rng(assign_seed))
        ok = _closed_form_agrees(full_value, holonomy.eval_complex_sum(closed, assign))
        # the bracket is exactly antisymmetric as a formal sum
        uvw = ls.star(d, ls.star(d, u, v, group, ORDER), w, group, ORDER)
        ok = ok and (br + ls.bracket_poly(d, x, uvw, group, order=ORDER)).is_zero()
        return ok, (ls.formal_sum_to_json(full) + "\n" + ls.formal_sum_to_json(br)).encode()

    def fingerprint(self, out):
        full, br, full_value, br_value = out
        return _sum_fingerprint(full), _sum_fingerprint(br), full_value, br_value


class Cli:
    """One cold `python -m loopstar.cli` process per op: star, expect and
    bracket on every diagrams/*.ls file, coeffs, for su2 and gln(3), and
    `check <suite> --seed <s>` for each suite.  The op kinds are spread
    evenly through the order, so any prefix of it has the same mix."""

    name = "cli"
    trace_ops = None  # the whole list, in-process

    def __init__(self, root: Path):
        self.root = root
        self.env = child_env(root)

    def make_inputs(self, seed: int, tiny: bool) -> list:
        rng = random.Random(seed)
        groups = (["--group", "su2"], ["--group", "gln", "--n", "3"])
        files = sorted((self.root / "diagrams").glob("*.ls"))
        if not files:
            raise FileNotFoundError(f"no diagrams under {self.root / 'diagrams'}")
        kinds = [
            [[verb, *g, str(f)] for f in files for verb in ("star", "expect", "bracket") for g in groups],
            [["coeffs", *g] for g in groups],
            [["check", suite, "--seed", str(rng.randrange(10**6))] for suite in checks.SUITES],
        ]
        if tiny:
            kinds = [kinds[0][:2], kinds[1][:1], [c for c in kinds[2] if c[1] in ("series", "r2")]]
        slots = []
        for kind, ops in enumerate(kinds):
            rng.shuffle(ops)
            slots += [((j + 0.5) / len(ops), kind, op) for j, op in enumerate(ops)]
        return [op for _, _, op in sorted(slots)]

    def run(self, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "loopstar.cli", *argv],
            cwd=self.root, env=self.env, capture_output=True, check=False,
        )
        return proc.returncode, proc.stdout

    def warm_up(self, seed: int) -> None:
        self.run(["coeffs"])

    def run_inprocess(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(list(argv))
            except SystemExit as e:  # argparse usage errors
                code = e.code if isinstance(e.code, int) else 2
        return code, buf.getvalue().encode()

    def check(self, argv, out) -> tuple[bool, bytes]:
        code, stdout = out
        if code != 0:
            return False, stdout
        text = stdout.decode()
        if argv[0] == "check":
            lines = text.splitlines()
            return bool(lines) and all(l.startswith("[PASS] ") for l in lines), stdout
        try:
            return isinstance(json.loads(text), dict), stdout
        except json.JSONDecodeError:
            return False, stdout

    def fingerprint(self, out):
        return out


def child_env(root: Path) -> dict[str, str]:
    """Environment for a child interpreter that imports loopstar from
    root/src, with the CLI's default truncation order."""
    env = {k: v for k, v in os.environ.items() if k != "LOOPSTAR_ORDER"}
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def make(name: str, root: Path):
    if name == "cli":
        return Cli(root)
    return {"deep": Deep, "wide": Wide}[name]()


NAMES = ("deep", "wide", "cli")
