"""Timing hooks wrapped around the program's public functions.

The benchmark measures every layer from outside: it replaces a public
function (a module attribute or a `Tape` method) with a wrapper that times
the call and then calls the original. Nothing inside `src/` changes.

Two hook sets exist:

* `OpClock` -- the only hooks in an untraced run. It records when each
  `Tape.backward` returns (one training step ends there) and how long each
  `clustering.kmeans` call takes. That is enough to time the unit op of
  every workload at negligible cost.
* `Tracer` -- the traced run. It records a span (name, start, end, parent)
  at each layer boundary and keeps per-call aggregates for the hot leaf
  calls (`linalg.matmul` by row class, every `Tape` node builder), which
  run about 100k times per workload: one span each would dominate the run.

A name that a later version of the program no longer has is skipped and
listed in `missing`; the metrics built on it read 0 with a note.

Invariant the self-time arithmetic relies on: leaf calls never contain
spans. The span set below holds it, because no span-wrapped function is
called from inside a Tape node builder or `linalg.matmul`.
"""

from __future__ import annotations

import inspect
import os
import time
from collections import Counter

import hostspeed

_now = time.perf_counter_ns

# Public names that get a span in the traced run.
SPANS = (
    "cli.main",
    "trainer.build_from_config",
    "trainer.pretrain_base",
    "trainer.train",
    "trainer.evaluate",
    "toy_model.build_graph",
    "toy_model.forward",
    "autodiff.Tape.backward",
    "autodiff.Tape.forward",
    "clustering.kmeans",
    "corpus.load_jsonl",
    "corpus.tfidf_fit",
    "corpus.tfidf_matrix",
    "adapters.write_checkpoint",
)

# Spans under which graph building serves evaluation, not a training step.
EVAL_SPANS = frozenset({"trainer.evaluate", "toy_model.forward"})

SMALL_M = 32     # matmul row classes: m <= SMALL_M is small,
LARGE_M = 256    # m >= LARGE_M is large, anything between is mid


def node_builders(tape_cls) -> list[str]:
    """Public Tape methods that emit a node, found by introspection.

    A node builder is a public method annotated to return `int`, the slot
    of the node it appends. Ops added later (for example a fused
    `expert_mix`) are picked up without editing the benchmark.
    """
    out = []
    for name, fn in inspect.getmembers(tape_cls, inspect.isfunction):
        if name.startswith("_"):
            continue
        if inspect.signature(fn).return_annotation in (int, "int"):
            out.append(name)
    return out


def self_times(spans) -> list[int]:
    """Self time of each span, in the spans' clock units.

    `spans` holds (name, start, end, parent, leaf_ns, ...) records, parent
    being an index into `spans` or -1. Self time is the span's duration
    minus the part of it its child spans cover (their union, clipped to the
    span) minus `leaf_ns`, the time of aggregated leaf calls made directly
    under it.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for rec in spans:
        if rec[3] >= 0:
            children.setdefault(rec[3], []).append((rec[1], rec[2]))
    out = []
    for i, rec in enumerate(spans):
        start, end = rec[1], rec[2]
        covered, reach = 0, start
        for s, e in sorted(children.get(i, ())):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        out.append(end - start - covered - rec[4])
    return out


class _Patches:
    """Replaces attributes and puts the originals back on `restore()`."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def wrap(self, modules: dict, dotted: str, make):
        """Replace `modules[mod].<attr>` by `make(original)`; dotted is 'mod.attr'
        or 'mod.Class.method'."""
        mod_name, *path = dotted.split(".")
        owner = modules.get(mod_name)
        for part in path[:-1]:
            owner = getattr(owner, part, None)
        original = getattr(owner, path[-1], None) if owner is not None else None
        if original is None:
            self.missing.append(dotted)
            return
        self._saved.append((owner, path[-1], original))
        setattr(owner, path[-1], make(original))

    def restore(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


class OpClock:
    """Untraced op timing: Tape.backward return times, kmeans durations.

    It also runs the host-speed probe at op boundaries (see hostspeed.py).
    `now()` is a clock that skips the time spent in probes, and every time
    the benchmark records is read from it.
    """

    def __init__(self, modules: dict):
        self.backward_returns: list[int] = []
        self.kmeans: list[tuple[int, int]] = []      # (end, duration)
        self.probes: list[tuple[int, int]] = []      # (time, duration)
        self._excluded = 0
        self._last_probe = _now()
        self._patches = _Patches()
        self._patches.wrap(modules, "autodiff.Tape.backward", self._on_backward)
        self._patches.wrap(modules, "clustering.kmeans", self._on_kmeans)
        self.missing = self._patches.missing

    def now(self) -> int:
        return _now() - self._excluded

    def boundary(self) -> None:
        """Between two ops: run the probe if PROBE_EVERY_NS have passed."""
        if _now() - self._last_probe >= hostspeed.PROBE_EVERY_NS:
            d = hostspeed.probe()
            self.probes.append((self.now(), d))
            self._excluded += d
            self._last_probe = _now()

    def _on_backward(self, fn):
        def backward(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.backward_returns.append(self.now())
            self.boundary()
            return out
        return backward

    def _on_kmeans(self, fn):
        def kmeans(*args, **kwargs):
            t0 = self.now()
            out = fn(*args, **kwargs)
            end = self.now()
            self.kmeans.append((end, end - t0))
            self.boundary()
            return out
        return kmeans

    def take(self) -> tuple[list[int], list[tuple[int, int]]]:
        """Return and clear the backward returns and kmeans calls recorded
        since the last take()."""
        out = (self.backward_returns[:], self.kmeans[:])
        self.backward_returns.clear()
        self.kmeans.clear()
        return out

    def restore(self):
        self._patches.restore()


class Tracer:
    """Spans at layer boundaries plus per-call aggregates for leaf calls.

    Span records are lists [name, start_ns, end_ns, parent, leaf_ns, error]:
    `leaf_ns` is the time of aggregated leaf calls made directly under the
    span and `error` the name of an exception that left it, or None.
    """

    def __init__(self, modules: dict):
        self.spans: list[list] = []
        self.leaves: dict[str, list[int]] = {}      # name -> [calls, total_ns, self_ns]
        self.matmul = {c: [0, 0, 0] for c in ("small", "mid", "large")}  # calls, ns, macs
        self.nodes = {"step": Counter(), "eval": Counter()}
        self.lloyd_iterations = 0
        self.checkpoint_bytes = 0
        # Open frames, innermost last: [child_ns, leaf_child_ns].
        self._stack: list[list[int]] = []
        self._open_spans: list[int] = []
        self._eval_depth = 0
        self._patches = _Patches()
        for name in SPANS:
            self._patches.wrap(modules, name, self._span_maker(name))
        self._patches.wrap(modules, "linalg.matmul", self._matmul_maker)
        tape_cls = getattr(modules.get("autodiff"), "Tape", None)
        self.builders = node_builders(tape_cls) if tape_cls is not None else []
        for op in self.builders:
            name = f"autodiff.Tape.{op}"
            self._patches.wrap(modules, name, self._leaf_maker(name, op))
        # The host-speed probe is the benchmark's own time: a leaf of its own,
        # so it stays out of the program's self times.
        self._patches.wrap({"hostspeed": hostspeed}, "hostspeed.probe",
                           self._leaf_maker("bench.hostspeed_probe"))
        self.missing = self._patches.missing

    def restore(self):
        self._patches.restore()

    # -- spans -------------------------------------------------------------

    def _span_maker(self, name: str):
        def make(fn):
            def span(*args, **kwargs):
                return self.call_span(name, fn, args, kwargs)
            return span
        return make

    def call_span(self, name: str, fn, args=(), kwargs=None):
        stack, open_spans = self._stack, self._open_spans
        rec = [name, 0, 0, open_spans[-1] if open_spans else -1, 0, None]
        index = len(self.spans)
        self.spans.append(rec)
        frame = [0, 0]
        stack.append(frame)
        open_spans.append(index)
        is_eval = name in EVAL_SPANS
        self._eval_depth += is_eval
        rec[1] = _now()
        try:
            out = fn(*args, **(kwargs or {}))
        except BaseException as e:
            rec[5] = type(e).__name__
            raise
        finally:
            rec[2] = end = _now()
            stack.pop()
            open_spans.pop()
            self._eval_depth -= is_eval
            rec[4] = frame[1]
            if stack:
                stack[-1][0] += end - rec[1]
        self._on_return(name, args, out)
        return out

    def _on_return(self, name, args, out):
        if name == "clustering.kmeans":
            self.lloyd_iterations += int(getattr(out, "iterations", 0))
        elif name == "adapters.write_checkpoint" and args:
            self.checkpoint_bytes += os.path.getsize(args[0])

    # -- leaf aggregates ---------------------------------------------------

    def _leaf_done(self, name: str, t0: int, frame: list[int]) -> int:
        d = _now() - t0
        self._stack.pop()
        agg = self.leaves.get(name)
        if agg is None:
            agg = self.leaves[name] = [0, 0, 0]
        agg[0] += 1
        agg[1] += d
        agg[2] += d - frame[0]
        if self._stack:
            parent = self._stack[-1]
            parent[0] += d
            parent[1] += d
        return d

    def _leaf_maker(self, name: str, node: str | None = None):
        """Aggregate-only wrapper; `node` names the Tape op a builder emits."""
        def make(fn):
            def leaf(*args, **kwargs):
                if node is not None:
                    self.nodes["eval" if self._eval_depth else "step"][node] += 1
                frame = [0, 0]
                self._stack.append(frame)
                t0 = _now()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._leaf_done(name, t0, frame)
            return leaf
        return make

    def _matmul_maker(self, fn):
        classes = self.matmul

        def matmul(a, b, *args, **kwargs):
            frame = [0, 0]
            self._stack.append(frame)
            t0 = _now()
            try:
                return fn(a, b, *args, **kwargs)
            finally:
                d = self._leaf_done("linalg.matmul", t0, frame)
                m = a.shape[0]
                cls = classes["small" if m <= SMALL_M else "large" if m >= LARGE_M else "mid"]
                cls[0] += 1
                cls[1] += d
                cls[2] += m * a.shape[1] * b.shape[1]
        return matmul

    # -- summaries ---------------------------------------------------------

    def by_name(self) -> dict[str, dict[str, int]]:
        """Per span name: calls, total_ns, self_ns, and step_total_ns /
        step_self_ns, which leave out spans under evaluation."""
        selfs = self_times(self.spans)
        out: dict[str, dict[str, int]] = {}
        for i, rec in enumerate(self.spans):
            row = out.setdefault(rec[0], {"calls": 0, "total_ns": 0, "self_ns": 0,
                                          "step_total_ns": 0, "step_self_ns": 0})
            d = rec[2] - rec[1]
            row["calls"] += 1
            row["total_ns"] += d
            row["self_ns"] += selfs[i]
            if not self._under_eval(i):
                row["step_total_ns"] += d
                row["step_self_ns"] += selfs[i]
        return out

    def _under_eval(self, index: int) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] in EVAL_SPANS:
                return True
            parent = self.spans[parent][3]
        return False

    def errors(self, name: str, error: str) -> int:
        return sum(1 for rec in self.spans if rec[0] == name and rec[5] == error)
