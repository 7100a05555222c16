#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes (about a minute):

    python3 bench/smoke.py

It is not part of the test suite under tests/.  It checks that every metric
named in BENCHMARK.json is printed with its unit, that a wrong output is
counted as a failure, that two traced runs with one seed give identical
work counts, that every state of every state sum is counted, that the
tracer notices a function it failed to rebind, and that the benchmark
refuses to run without the repository around it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (puts the checkout's src/ on sys.path)

SEED = 5
COUNT_UNITS = ("count", "arcs", "bytes", "ratio")


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def result_of(proc: subprocess.CompletedProcess) -> tuple[list[str], dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def check_metrics_and_counts(spec: dict) -> None:
    for w in (wl["name"] for wl in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            lines, res = result_of(run_bench(w, trace))
            assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
            assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, (w, trace, lines)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            assert got == want, (w, trace, set(got) ^ set(want))
            table = {line.split()[0]: line.split()[2] for line in lines[1:] if line.startswith("  ")
                     and len(line.split()) >= 3}
            for name, unit in want.items():
                assert table.get(name) == unit, (w, name, unit)
            if trace == 0:
                assert table.get("fail_ratio") == "1", (w, "fail_ratio not printed")
                continue
            counts = {n: m["value"] for n, m in res["metrics"].items() if m["unit"] in COUNT_UNITS}
            _, again = result_of(run_bench(w, 1))
            repeat = {n: m["value"] for n, m in again["metrics"].items() if m["unit"] in COUNT_UNITS}
            assert counts == repeat, (w, "work counts differ between runs with one seed")
            # the exhaustive enumerator visits 2^k states per state sum
            assert counts["star.states"] == counts["star.full_states"] > 0, (w, counts)
        print(f"ok   metrics, units and repeatable counts: {w}")


class Corrupt:
    """A workload whose outputs are wrong: always, or only on repeats of
    an input (so the fingerprint path must catch them)."""

    def __init__(self, wl, only_repeats: bool):
        self.wl = wl
        self.only_repeats = only_repeats
        self.seen: set[int] = set()
        self.name = wl.name

    def run(self, inp):
        out = self.wl.run(inp)
        first = id(inp) not in self.seen
        self.seen.add(id(inp))
        if self.only_repeats and first:
            return out
        terms = dict(out.terms)
        terms.pop(next(iter(terms)))
        return type(out)(terms, order=out.order)

    def check(self, inp, out):
        return self.wl.check(inp, out)

    def fingerprint(self, out):
        return self.wl.fingerprint(out)


def check_wrong_outputs_fail() -> None:
    wl, inputs = run.setup("deep", SEED, tiny=True)
    for only_repeats in (False, True):
        metrics, notes, checker, _ = run.measure(Corrupt(wl, only_repeats), inputs, 0.3, SEED,
                                                 True, probes=1)
        wrong = checker.attempted - (len(inputs) if only_repeats else 0)
        assert checker.attempted > len(inputs), checker.attempted
        assert checker.failed == wrong > 0, (only_repeats, checker.failed, wrong)
    import workloads

    cli = workloads.make("cli", ROOT)
    argv = ["star", str(ROOT / "diagrams" / "one_crossing.ls")]
    assert cli.check(["check", "r2"], (0, b"[PASS] r2: fine\n"))[0]
    assert not cli.check(["check", "r2"], (0, b"[PASS] r2: fine\n[FAIL] x: y\n"))[0]
    assert not cli.check(argv, (1, b"{}"))[0]
    assert not cli.check(argv, (0, b"not json"))[0]
    assert cli.check(argv, cli.run(argv))[0]
    print("ok   wrong outputs are counted as failures")


def check_missed_binding_is_reported() -> None:
    from tracer import Tracer
    import loopstar.star as star_module

    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.unpatched() == [], tracer.unpatched()
        star_module.canonical = tracer._originals["diagram.canonical"]
        missed = tracer.unpatched()
        assert any(m.startswith("diagram.canonical still bound") for m in missed), missed
    finally:
        tracer.uninstall()
    print("ok   a function bound by name and left unwrapped is reported")


def check_refuses_without_repository() -> None:
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in BENCH.iterdir():
        if f.is_file():
            shutil.copy(f, bare / "bench")
    proc = run_bench("deep", 0, cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0, proc.stdout
    assert not proc.stdout.strip(), proc.stdout
    print("ok   exits non-zero without printing a result when src/ is absent")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_refuses_without_repository()
    check_missed_binding_is_reported()
    check_wrong_outputs_fail()
    check_metrics_and_counts(spec)
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
