#!/usr/bin/env python3
"""loopstar benchmark: one client in a closed loop, one workload per run.

    python3 bench/run.py --workload deep|wide|cli --seed N --seconds 30 --trace 0|1

Run from the repository root.  With --trace 0 it times operations for S
seconds of busy time and prints the end-to-end metrics; with --trace 1 it
alternates untraced and traced passes over a fixed slice of the inputs and
prints the per-layer metrics.  Every output is checked outside the timed
region.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(SRC))

SETUP_PROBES = 5  # set-ups timed per run; setup_s is their median
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
DIGEST_INPUTS = 24  # the output digest covers this many leading inputs
IMPORT_PROBES = 3

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

IMPORT_MODULES = {
    "loopstar": "import.loopstar_ms",
    "numpy": "import.numpy_ms",
    "scipy": "import.scipy_ms",
    "scipy.linalg": "import.scipy_linalg_ms",
}
COUNT_METRICS = {  # per traced pass
    "diagram.canonical_calls": ("diagram.canonical",),
    "coeff.mul_calls": ("coeff.SeriesCoeff.__mul__", "coeff.SeriesCoeff.__rmul__"),
    "goldman.bracket_loops_calls": ("goldman.bracket_loops",),
    "holonomy.loop_matrix_calls": ("holonomy.loop_matrix",),
}
HOOK_METRICS = (
    "star.sums",
    "star.states",
    "star.full_states",
    "star.terms_out",
    "diagram.longest_loop",
    "diagram.merge_terms_copied",
)
TIME_LAYERS = (
    "cli.main",
    "diagram.canonical",
    "diagram.monomial",
    "diagram.merge",
    "diagram.parse",
    "diagram.json",
    "coeff.mul",
    "coeff.add",
    "coeff.tables",
    "star.expect",
    "star.stacked",
    "star.cycles",
    "goldman.bracket",
    "holonomy.eval",
    "holonomy.sample",
    "holonomy.lattice",
    "op.other",  # time inside an op that no traced function covers
)


def per_layer_units(suites) -> dict[str, str]:
    units = {m: "ms" for m in IMPORT_MODULES.values()}
    units.update({f"{layer}_ms": "ms" for layer in TIME_LAYERS})
    units.update({f"checks.{s}_ms": "ms" for s in suites})
    units.update({m: "count" for m in COUNT_METRICS})
    units.update({m: "count" for m in HOOK_METRICS})
    units["diagram.longest_loop"] = "arcs"
    units["star.useful_ratio"] = "ratio"
    units["cli.stdout_bytes"] = "bytes"
    units["trace.ops"] = "count"
    units["trace.overhead_pct"] = "%"
    return units


# -- set-up ----------------------------------------------------------------------


def setup(name: str, seed: int, tiny: bool):
    """Import loopstar from this checkout, make the inputs, warm up."""
    try:
        import loopstar
    except ImportError as e:
        raise SystemExit(f"bench: cannot import loopstar from {SRC}: {e}")
    if SRC.resolve() not in Path(loopstar.__file__).resolve().parents:
        raise SystemExit(f"bench: loopstar imported from {loopstar.__file__}, not {SRC}")
    import workloads

    wl = workloads.make(name, ROOT)
    inputs = wl.make_inputs(seed, tiny)
    wl.warm_up(seed)
    return wl, inputs


def time_setups(name: str, seed: int, tiny: bool, probes: int) -> list[float]:
    """Wall seconds from starting a fresh interpreter until it could issue
    its first operation, once per probe."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-probe"] + (["--tiny"] if tiny else [])
    out = []
    for _ in range(probes):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            if proc.wait() != 0 or line.strip() != b"ready":
                raise SystemExit(f"bench: set-up probe failed with exit code {proc.returncode}")
        out.append(t1 - t0)
    return out


def import_split() -> dict[str, float]:
    """Cumulative import time of loopstar and its heavy dependencies, from a
    child `python -X importtime -c "import loopstar"`; median of a few."""
    from workloads import child_env

    env = child_env(ROOT)
    runs = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import loopstar"],
                              cwd=ROOT, env=env, capture_output=True, text=True, check=True)
        got = dict.fromkeys(IMPORT_MODULES.values(), 0.0)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in IMPORT_MODULES:
                try:
                    got[IMPORT_MODULES[parts[2].strip()]] = int(parts[1]) / 1000
                except ValueError:
                    continue
        runs.append(got)
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


# -- output checks -----------------------------------------------------------------


class Checker:
    """Checks the first output of each input against the workload's
    independent path; later outputs of the same input must match its
    fingerprint.  Runs outside every timed region."""

    def __init__(self, wl, inputs):
        self.wl = wl
        self.inputs = inputs
        self.first: dict[int, tuple[bool, object, bytes]] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def judge(self, idx: int, out, err: BaseException | None) -> bool:
        self.attempted += 1
        ok = err is None and self._output_ok(idx, out)
        if err is not None:
            self.errors.append(f"input {idx}: {type(err).__name__}: {err}")
        elif not ok:
            self.errors.append(f"input {idx}: wrong output")
        if not ok:
            self.failed += 1
        return ok

    def _output_ok(self, idx: int, out) -> bool:
        fp = self.wl.fingerprint(out)
        if idx not in self.first:
            try:
                ok, canon = self.wl.check(self.inputs[idx], out)
            except Exception as e:  # a check that cannot run is a wrong output
                self.errors.append(f"input {idx}: check raised {type(e).__name__}: {e}")
                ok, canon = False, b""
            self.first[idx] = (ok, fp, canon)
            return ok
        ok, first_fp, _ = self.first[idx]
        return ok and fp == first_fp

    def digested(self) -> int:
        return min(len(self.inputs), DIGEST_INPUTS)

    def cover(self, run) -> None:
        """Run and check the digested inputs the timed loop never reached,
        so the digest always covers the same inputs."""
        for idx in range(self.digested()):
            if idx not in self.first:
                out, err = call(run, self.inputs[idx])
                self.judge(idx, out, err)

    def digest(self) -> str:
        h = hashlib.sha256()
        for idx in range(self.digested()):
            canon = self.first[idx][2] if idx in self.first else b""
            h.update(len(canon).to_bytes(8, "big") + canon)
        return h.hexdigest()


def call(fn, *args):
    try:
        return fn(*args), None
    except Exception as e:  # counted as a failed operation
        return None, e


# -- untraced run -----------------------------------------------------------------


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile that leaves at least
    TAIL_BEYOND samples above it; the median when there are too few."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 2 * TAIL_BEYOND + 1:
        return statistics.median(xs), 50.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def measure(wl, inputs, seconds: float, seed: int, tiny: bool, probes: int):
    checker = Checker(wl, inputs)
    lat_ns: list[int] = []
    ok_flags: list[bool] = []
    busy = 0
    i = 0
    while busy < seconds * 1e9 or not lat_ns:
        idx = i % len(inputs)
        t0 = time.perf_counter_ns()
        out, err = call(wl.run, inputs[idx])
        dt = time.perf_counter_ns() - t0
        busy += dt
        lat_ns.append(dt)
        ok_flags.append(checker.judge(idx, out, err))
        i += 1
    who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    timed_ops = len(lat_ns)
    checker.cover(wl.run)

    good = [t / 1e6 for t, ok in zip(lat_ns, ok_flags) if ok]
    setups = time_setups(wl.name, seed, tiny, probes)
    tail_ms, tail_pct = tail(good) if good else (0.0, 0.0)
    metrics = {
        "ops_per_s": len(good) / (busy / 1e9),
        "latency_p50_ms": statistics.median(good) if good else 0.0,
        "latency_tail_ms": tail_ms,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {
        "ops_per_s": f"{len(good)} correct of {timed_ops} timed ops in {busy / 1e9:.1f} s",
        "latency_p50_ms": f"{len(good)} samples",
        "latency_tail_ms": f"p{tail_pct:.1f}, {len(good)} samples, {TAIL_BEYOND} beyond",
        "setup_s": f"median of {len(setups)} set-ups",
        "peak_rss_mb": "children's peak" if wl.name == "cli" else "this process's peak",
    }
    return metrics, notes, checker, {"setup_s_all": setups}


# -- traced run ------------------------------------------------------------------------


def measure_traced(wl, inputs, seconds: float):
    from tracer import Tracer
    from loopstar import checks

    subset = inputs if wl.trace_ops is None else inputs[: wl.trace_ops]
    checker = Checker(wl, subset)
    tracer = Tracer()
    imports = import_split()
    untraced_ns: list[int] = []
    traced_ns: list[int] = []
    pass_counts: list[dict] = []
    unbound: list[str] = []
    op_id = 0
    deadline = time.perf_counter() + seconds
    while not traced_ns or time.perf_counter() < deadline:
        t_pass = 0
        for idx in range(len(subset)):
            t0 = time.perf_counter_ns()
            out, err = call(wl.run_inprocess, subset[idx])
            t_pass += time.perf_counter_ns() - t0
            checker.judge(idx, out, err)
        untraced_ns.append(t_pass)

        first_span = len(tracer.span_name)
        for key in tracer.counts:
            tracer.counts[key] = 0
        tracer.install()
        try:
            if not traced_ns:
                unbound = tracer.unpatched()
            t_pass = 0
            outs = []
            for idx in range(len(subset)):
                t0 = time.perf_counter_ns()
                out, err = call(tracer.op, op_id, wl.run_inprocess, subset[idx])
                t_pass += time.perf_counter_ns() - t0
                op_id += 1
                outs.append((idx, out, err))
        finally:
            tracer.uninstall()
        traced_ns.append(t_pass)
        stdout_bytes = 0
        for idx, out, err in outs:
            checker.judge(idx, out, err)
            if wl.name == "cli" and out is not None:
                stdout_bytes += len(out[1])
        calls = tracer.call_counts(first_span)
        counts = {m: sum(calls[k] for k in keys if k in calls) for m, keys in COUNT_METRICS.items()}
        counts.update({m: tracer.counts[m] for m in HOOK_METRICS})
        counts["cli.stdout_bytes"] = stdout_bytes
        pass_counts.append(counts)

    n_traced_ops = len(subset) * len(traced_ns)
    self_ms = tracer.layer_self_ms()
    metrics: dict[str, float] = dict(imports)
    for layer in TIME_LAYERS:
        metrics[f"{layer}_ms"] = self_ms.get("op" if layer == "op.other" else layer, 0.0) / n_traced_ops
    for suite in checks.SUITES:
        metrics[f"checks.{suite}_ms"] = self_ms.get(f"checks.{suite}", 0.0) / n_traced_ops
    metrics.update(pass_counts[0])
    states = metrics["star.states"]
    metrics["star.useful_ratio"] = metrics["star.terms_out"] / states if states else 0.0
    metrics["trace.ops"] = len(subset)
    t_u = statistics.median(untraced_ns)
    t_t = statistics.median(traced_ns)
    metrics["trace.overhead_pct"] = 100.0 * (1 - t_u / t_t)

    problems = [f"unpatched reference: {u}" for u in unbound]
    if any(c != pass_counts[0] for c in pass_counts):
        problems.append("work counts differ between traced passes")
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"spans-{wl.name}"  # one file per workload, so repeated runs do not pile up
    tracer.write(str(stem))
    extra = {
        "traced_passes": len(traced_ns),
        "untraced_ops_per_s": len(subset) / (t_u / 1e9),
        "traced_ops_per_s": len(subset) / (t_t / 1e9),
        "spans": len(tracer.span_name),
        "spans_file": str(stem.relative_to(ROOT)) + ".bin",
        "problems": problems,
    }
    return metrics, checker, extra


# -- metadata and output ---------------------------------------------------------------


def _version(dist: str) -> str | None:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        mod = sys.modules.get(dist)
        return getattr(mod, "__version__", None)


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def metadata(args, checker) -> dict:
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((SRC / "loopstar").glob("*.py")))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "src_loopstar_lines": src_lines,
        "inputs": len(checker.inputs),
        "digested_inputs": checker.digested(),
        "output_digest": checker.digest(),
    }


def _fmt(v: float) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("deep", "wide", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    wl, inputs = setup(args.workload, args.seed, args.tiny)
    from loopstar import checks

    if args.setup_probe:
        print("ready", flush=True)
        return 0

    print(f"loopstar benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    if args.trace:
        metrics, checker, extra = measure_traced(wl, inputs, args.seconds)
        units = per_layer_units(checks.SUITES)
        for name in units:
            print(f"  {name:32s} {_fmt(metrics[name]):>14s} {units[name]}")
        problems = extra.pop("problems")
        meta = metadata(args, checker) | extra | {"trace_overhead_pct": metrics["trace.overhead_pct"]}
    else:
        probes = 1 if args.tiny else SETUP_PROBES
        metrics, notes, checker, extra = measure(wl, inputs, args.seconds, args.seed, args.tiny, probes)
        units = END_TO_END_UNITS
        for name, unit in units.items():
            print(f"  {name:16s} {_fmt(metrics[name]):>12s} {unit:4s} ({notes[name]})")
        ratio = checker.failed / checker.attempted
        print(f"  {'fail_ratio':16s} {_fmt(ratio):>12s} {'1':4s} "
              f"({checker.failed} failed / {checker.attempted} attempted)")
        problems = []
        meta = metadata(args, checker) | extra
    for err in checker.errors[:20]:
        print(f"  failure: {err}")
    for p in problems:
        print(f"  problem: {p}")
    print("meta " + json.dumps(meta, sort_keys=True))
    result = {
        "correct": checker.failed == 0 and not problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
