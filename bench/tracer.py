"""Spans and work counters recorded around loopstar's public functions.

The tracer replaces each traced function by a wrapper that records one span
(function, start, end, parent span, op id) per call.  loopstar modules bind
many of these functions by name at import (``from .diagram import
canonical``), and ``checks.SUITES`` holds the suite functions in a dict, so
the tracer replaces every reference it finds in loopstar's module globals,
class dicts and module-level dicts, and ``unpatched()`` asks the garbage
collector for any reference it missed.  Spans stay in memory until
``write`` is called at the end of a run.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
import sys
import types
from array import array
from time import perf_counter_ns

# Traced function -> layer metric that its self time is charged to.  The
# keys are "<module>.<attribute path>" inside the loopstar package.
LAYERS = {
    "diagram.canonical": "diagram.canonical",
    "diagram.monomial": "diagram.monomial",
    "diagram.FormalSum.__add__": "diagram.merge",
    "diagram.FormalSum.__sub__": "diagram.merge",
    "diagram.FormalSum.add_term": "diagram.merge",
    "diagram.FormalSum.scale": "diagram.merge",
    "diagram.FormalSum.mul_monomial": "diagram.merge",
    "diagram.parse_diagram": "diagram.parse",
    "diagram.Diagram.validate": "diagram.parse",
    "diagram.formal_sum_to_json": "diagram.json",
    "diagram.formal_sum_from_json": "diagram.json",
    # the CLI's own copy of the term encoder; counted as JSON encoding so
    # the figure stays comparable when the two encoders are merged
    "cli._formal_sum_payload": "diagram.json",
    "coeff.SeriesCoeff.__mul__": "coeff.mul",
    "coeff.SeriesCoeff.__rmul__": "coeff.mul",
    "coeff.SeriesCoeff.__add__": "coeff.add",
    "coeff.SeriesCoeff.__radd__": "coeff.add",
    "coeff.SeriesCoeff.__sub__": "coeff.add",
    "coeff.SeriesCoeff.__rsub__": "coeff.add",
    "coeff.SeriesCoeff.__neg__": "coeff.add",
    "coeff.crossing_coeffs": "coeff.tables",
    "coeff.kauffman_coeffs": "coeff.tables",
    "star.expect_loops": "star.expect",
    "star.expect_values": "star.expect",
    "star.unoriented_kauffman_resolution": "star.expect",
    "star.Stacked.__init__": "star.stacked",
    "star.Stacked.cycles": "star.cycles",
    "star._pairing_circles": "star.cycles",
    "goldman.bracket_poly": "goldman.bracket",
    "goldman.bracket_loops": "goldman.bracket",
    "goldman.bracket_gln": "goldman.bracket",
    "goldman.bracket_sl2": "goldman.bracket",
    "holonomy.eval_formal": "holonomy.eval",
    "holonomy.eval_complex_sum": "holonomy.eval",
    "holonomy.eval_monomial": "holonomy.eval",
    "holonomy.eval_wilson": "holonomy.eval",
    "holonomy.loop_matrix": "holonomy.eval",
    "holonomy.gram_pairing": "holonomy.eval",
    "holonomy.verify_gram_identity": "holonomy.eval",
    "holonomy.projection_pi": "holonomy.eval",
    "holonomy.lie_basis": "holonomy.eval",
    "holonomy.sample": "holonomy.sample",
    "holonomy.sample_algebra": "holonomy.sample",
    "holonomy.random_assignment": "holonomy.sample",
    "holonomy.lattice_derivative_check": "holonomy.lattice",
    "cli.main": "cli.main",
}

# the state-sum enumerators; each visits 2^k states for k active crossings
STATE_SUMS = ("star.expect_loops", "star.expect_values", "star.unoriented_kauffman_resolution")
MERGES = {k for k, v in LAYERS.items() if v == "diagram.merge"}

OP = "op"  # the benchmark's own span around one operation


def suite_functions():
    """checks.<suite> layer: every suite behind `loopstar check`."""
    from loopstar import checks

    return {f"checks.{fn.__name__}": f"checks.{suite}" for suite, fn in checks.SUITES.items()}


def _resolve(path: str):
    """The object named by a "<module>.<attr path>" key."""
    modname, *attrs = path.split(".")
    owner = importlib.import_module(f"loopstar.{modname}")
    for a in attrs[:-1]:
        owner = getattr(owner, a)
    if isinstance(owner, type):
        return owner.__dict__[attrs[-1]]
    return getattr(owner, attrs[-1])


def _loopstar_namespaces():
    """Every mapping through which loopstar code can reach a function, with
    a setter for it: module globals, the dicts of classes defined there, and
    module-level dicts such as ``checks.SUITES``."""
    for name, mod in list(sys.modules.items()):
        if not (name == "loopstar" or name.startswith("loopstar.")):
            continue
        yield vars(mod), functools.partial(setattr, mod)
        for attr, value in list(vars(mod).items()):
            if isinstance(value, type) and value.__module__ == name:
                yield value.__dict__, functools.partial(setattr, value)
            elif isinstance(value, dict) and not attr.startswith("__"):
                yield value, value.__setitem__


class Tracer:
    """Installs span-recording wrappers; counts work at the same boundaries."""

    def __init__(self):
        self.layers = dict(LAYERS)
        self.layers.update(suite_functions())
        self.names: list[str] = [OP]
        self.name_ids: dict[str, int] = {OP: 0}
        self.span_name = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.span_op = array("q")
        self._stack = [-1]
        self._op = -1
        self.counts = {
            "star.sums": 0,
            "star.states": 0,
            "star.full_states": 0,
            "star.terms_out": 0,
            "diagram.longest_loop": 0,
            "diagram.merge_terms_copied": 0,
        }
        self._last_k: int | None = None
        self._wrappers: dict[str, object] = {}
        self._originals: dict[str, object] = {}
        self._patched: list[tuple[object, str, str]] = []  # (setter, attribute, key)
        for key in self.layers:
            self.name_ids[key] = len(self.names)
            self.names.append(key)
        self._merge_ids = {self.name_ids[k] for k in MERGES}

    # -- spans --------------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_start.append(perf_counter_ns())
        self.span_end.append(0)
        self.span_parent.append(self._stack[-1])
        self.span_op.append(self._op)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = perf_counter_ns()
        self._stack.pop()

    def op(self, op_id: int, fn, *args):
        """Run fn(*args) as one operation under a root span."""
        self._op = op_id
        idx = self._open(0)
        try:
            return fn(*args)
        finally:
            self._close(idx)
            self._op = -1

    # -- wrappers -----------------------------------------------------------

    def _after(self, key: str, args, result, parent_nid: int) -> None:
        c = self.counts
        if key == "star.Stacked.__init__":
            self._last_k = len(args[0].active)
        elif key in STATE_SUMS:
            c["star.sums"] += 1
            c["star.full_states"] += 2 ** self._last_k
            c["star.terms_out"] += len(result)
        elif key == "diagram.canonical":
            c["diagram.longest_loop"] = max(c["diagram.longest_loop"], len(result.word))
        elif key in MERGES and parent_nid not in self._merge_ids:
            # terms written by the outermost merge call; nested add_term
            # calls inside __add__ or the FormalSum constructor are its own
            self_terms = len(args[0].terms)
            if key in ("diagram.FormalSum.__add__", "diagram.FormalSum.__sub__"):
                c["diagram.merge_terms_copied"] += self_terms + len(args[1].terms)
            elif key == "diagram.FormalSum.add_term":
                c["diagram.merge_terms_copied"] += 1
            else:
                c["diagram.merge_terms_copied"] += self_terms

    def _make_wrapper(self, key: str, fn):
        nid = self.name_ids[key]
        hooked = key in STATE_SUMS or key in MERGES or key in (
            "star.Stacked.__init__",
            "diagram.canonical",
        )
        counts_states = key in ("star.Stacked.cycles", "star._pairing_circles")
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1]
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if counts_states:
                tracer.counts["star.states"] += 1
            elif hooked:
                parent_nid = tracer.span_name[parent] if parent >= 0 else -1
                tracer._after(key, args, result, parent_nid)
            return result

        return wrapper

    def install(self) -> None:
        """Replace every loopstar reference to each traced function."""
        if not self._wrappers:
            for key in self.layers:
                fn = _resolve(key)
                if any(fn is seen for seen in self._originals.values()):
                    continue  # an alias, such as __rmul__ = __mul__
                self._originals[key] = fn
                self._wrappers[key] = self._make_wrapper(key, fn)
        by_id = {id(fn): key for key, fn in self._originals.items()}
        for ns, setter in _loopstar_namespaces():
            for attr, value in list(ns.items()):
                key = by_id.get(id(value))
                if key is not None and value is self._originals[key]:
                    self._patched.append((setter, attr, key))
        for setter, attr, key in self._patched:
            setter(attr, self._wrappers[key])

    def uninstall(self) -> None:
        for setter, attr, key in reversed(self._patched):
            setter(attr, self._originals[key])
        self._patched.clear()

    def unpatched(self) -> list[str]:
        """References to traced functions that install() did not replace,
        found by asking the garbage collector who still holds each original.
        Empty when every call into a traced function goes through its
        wrapper."""
        allowed = {id(self._originals)}
        for w in self._wrappers.values():
            allowed.add(id(w.__dict__))
            for cell in w.__closure__ or ():
                allowed.add(id(cell))
        missed = []
        for key in list(self._originals):
            missed += _foreign_references(key, self._originals[key], allowed)
        return missed

    # -- results ------------------------------------------------------------

    def call_counts(self, first_span: int = 0) -> dict[str, int]:
        """Calls per traced function, over the spans from first_span on."""
        out = dict.fromkeys(self.names, 0)
        for nid in self.span_name[first_span:]:
            out[self.names[nid]] += 1
        return out

    def self_times_ns(self) -> dict[str, int]:
        """Self time per span name: duration minus the time covered by
        child spans."""
        n = len(self.span_name)
        child = [0] * n
        parent = self.span_parent
        start, end = self.span_start, self.span_end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out = dict.fromkeys(self.names, 0)
        names = self.names
        for i in range(n):
            out[names[self.span_name[i]]] += end[i] - start[i] - child[i]
        return out

    def layer_self_ms(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for key, ns in self.self_times_ns().items():
            layer = self.layers.get(key, key)
            out[layer] = out.get(layer, 0.0) + ns / 1e6
        return out

    def write(self, stem: str) -> None:
        """Spans as five int64 columns in <stem>.bin, described by <stem>.json."""
        cols = (self.span_name, self.span_start, self.span_end, self.span_parent, self.span_op)
        with open(stem + ".bin", "wb") as fh:
            for col in cols:
                col.tofile(fh)
        header = {
            "spans": len(self.span_name),
            "columns": ["name", "start_ns", "end_ns", "parent", "op"],
            "dtype": "int64, column-major",
            "names": self.names,
            "layers": self.layers,
        }
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            json.dump(header, fh, indent=1)



def _foreign_references(key: str, fn, allowed: set[int]) -> list[str]:
    # plain loops only: a comprehension naming fn would put it in a cell
    out = []
    for ref in gc.get_referrers(fn):
        if id(ref) in allowed or isinstance(ref, types.FrameType):
            continue
        if isinstance(ref, dict):
            names = []
            for name, value in ref.items():
                if value is fn:
                    names.append(name)
            out.append(f"{key} still bound as {names}")
        else:
            out.append(f"{key} still referenced by a {type(ref).__name__}")
    return out
