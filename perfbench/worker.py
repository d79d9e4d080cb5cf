"""One benchmark process: set a workload up, then measure or trace it.

run.py starts this script in a fresh process for each set-up probe, for
the untraced measurement and for the traced pass, so each sees a cold
interpreter exactly as a user of the CLI does. It writes one JSON result
to the file named by --result.

    python3 perfbench/worker.py --workload token-train --seed 0 \\
        --mode measure --seconds 10 --result out.json
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy  # noqa: E402

import hooks  # noqa: E402
import hostspeed  # noqa: E402
from workloads import WORKLOADS, Pass  # noqa: E402

MODULES = ("cli", "trainer", "toy_model", "autodiff", "linalg", "clustering",
           "corpus", "adapters")

# Tail percentiles tried from the top; the first with at least TAIL_BEYOND
# samples beyond it in one pass is reported.
TAIL_LADDER = (99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10


def import_program() -> dict:
    hp = {name: importlib.import_module(f"hydra_peft.{name}") for name in MODULES}
    src = (ROOT / "src").resolve()
    if Path(hp["cli"].__file__).resolve().parents[1] != src:
        raise SystemExit(f"hydra_peft was imported from {hp['cli'].__file__}, not {src}")
    return hp


def environment() -> dict:
    return {"numpy": numpy.__version__, "python": platform.python_version(),
            "nproc": os.cpu_count(), "platform": platform.platform()}


def nearest_rank(sorted_vals: list, pct: float):
    """Nearest-rank percentile of an ascending list."""
    return sorted_vals[max(0, math.ceil(pct / 100 * len(sorted_vals)) - 1)]


def tail_level(ops_per_pass: int) -> float:
    """Highest ladder percentile with TAIL_BEYOND samples beyond it in one pass."""
    for pct in TAIL_LADDER:
        if ops_per_pass - math.ceil(pct / 100 * ops_per_pass) >= TAIL_BEYOND:
            return pct
    return TAIL_LADDER[-1]


def summarize(passes, spans, probes) -> dict:
    """End-to-end figures over whole passes.

    `spans` holds each pass's (start, end) in OpClock time. Times are
    normalized to nominal host speed with the probes (hostspeed.py); the
    raw figures ride along as *_raw. items_per_s is the median pass.
    """
    speed = hostspeed.HostSpeed(probes)
    ops = sorted(speed.duration(end - ns, end) for p in passes for end, ns in p.ops)
    raw_ops = sorted(ns for p in passes for _, ns in p.ops)
    pct = tail_level(min(len(p.ops) for p in passes))
    n = len(ops)
    problems = [msg for p in passes for msg in p.problems]
    if len({p.digest for p in passes}) > 1:
        problems.append("output fingerprint differs between passes")
    failed = sum(max(1, len(p.ops)) for p in passes
                 if p.problems or p.digest != passes[0].digest)
    out = {
        "passes": len(passes),
        "items": sum(p.items for p in passes),
        "ops": sum(max(1, len(p.ops)) for p in passes),
        "failed_ops": failed,
        "tail_pct": pct,
        "tail_beyond": n - math.ceil(pct / 100 * n),
        "probes": len(probes),
        "eval_loss": passes[0].eval_loss,
        "digest": passes[0].digest,
        "extra": passes[0].extra,
        "problems": problems,
    }
    for suffix, length, vals in (("", speed.duration, ops),
                                 ("_raw", lambda t0, t1: t1 - t0, raw_ops)):
        out["items_per_s" + suffix] = statistics.median(
            p.items / (length(t0, t1) / 1e9) for p, (t0, t1) in zip(passes, spans))
        out["op_ms_p50" + suffix] = statistics.median(vals) / 1e6 if vals else 0.0
        out["op_ms_tail" + suffix] = nearest_rank(vals, pct) / 1e6 if vals else 0.0
    return out


def run_passes(workload, hp, clock, seconds: float):
    """Whole passes until `seconds` have passed (at least one)."""
    passes, spans = [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        clock.take()
        t0 = clock.now()
        try:
            passes.append(workload.run_pass(hp, clock))
        except Exception as e:  # a crash in the program is a failed pass
            passes.append(Pass(0, [], "", math.nan, [f"exception: {e!r}"]))
        spans.append((t0, clock.now()))
    return passes, spans


def measure(workload, hp, seconds: float) -> dict:
    clock = hooks.OpClock(hp)
    try:
        passes, spans = run_passes(workload, hp, clock, seconds)
    finally:
        clock.restore()
    out = summarize(passes, spans, clock.probes)
    out["missing"] = clock.missing
    return out


# Per-layer metric -> (unit, the wrapped names it is built on). A metric
# whose names are missing from the program reads 0 with a note.
LAYERS = {
    "linalg.matmul.calls_per_op": ("count", ["linalg.matmul"]),
    "linalg.matmul.macs_per_op": ("MAC-computed", ["linalg.matmul"]),
    "linalg.matmul.share": ("ratio", ["linalg.matmul"]),
    "linalg.matmul.gmacs_per_s": ("GMAC/s", ["linalg.matmul"]),
    "linalg.matmul.us_per_call.small_m": ("us", ["linalg.matmul"]),
    "linalg.matmul.us_per_call.large_m": ("us", ["linalg.matmul"]),
    "autodiff.nodes_per_step": ("count", ["autodiff.Tape.backward"]),
    "autodiff.transpose_share": ("ratio", ["autodiff.Tape.transpose"]),
    "autodiff.backward.ms_per_step": ("ms", ["autodiff.Tape.backward"]),
    "autodiff.backward.self_ms_per_step": ("ms", ["autodiff.Tape.backward"]),
    "autodiff.forward.ms_per_call": ("ms", ["autodiff.Tape.forward"]),
    "toy_model.build_graph.ms_per_step": ("ms", ["toy_model.build_graph"]),
    "toy_model.build_graph.self_ms_per_step": ("ms", ["toy_model.build_graph"]),
    "toy_model.forward.ms_per_call": ("ms", ["toy_model.forward"]),
    "trainer.step.optimizer_ms": ("ms", ["trainer.train"]),
    "trainer.evaluate.ms_per_call": ("ms", ["trainer.evaluate"]),
    "trainer.pretrain_base.s": ("s", ["trainer.pretrain_base"]),
    "trainer.aborted": ("count", ["trainer.train"]),
    "corpus.load_jsonl.ms": ("ms", ["corpus.load_jsonl"]),
    "corpus.tfidf.ms": ("ms", ["corpus.tfidf_fit", "corpus.tfidf_matrix"]),
    "clustering.kmeans.ms_per_call": ("ms", ["clustering.kmeans"]),
    "clustering.lloyd_iterations": ("count", ["clustering.kmeans"]),
    "clustering.us_per_lloyd_iteration": ("us", ["clustering.kmeans"]),
    "adapters.checkpoint.write_ms": ("ms", ["adapters.write_checkpoint"]),
    "adapters.checkpoint.bytes": ("bytes", ["adapters.write_checkpoint"]),
    "cli.self_ms": ("ms", ["cli.main"]),
}


def layer_metrics(tracer: hooks.Tracer, wall_ns: int, ops: int) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced pass, plus notes on absent layers."""
    rows = tracer.by_name()

    def get(name, key="total_ns"):
        return rows.get(name, {}).get(key, 0)

    def per(x, n):
        return x / n if n else 0.0

    steps = get("autodiff.Tape.backward", "calls")
    mm = tracer.matmul
    mm_calls = sum(c[0] for c in mm.values())
    mm_ns = sum(c[1] for c in mm.values())
    macs = sum(c[2] for c in mm.values())
    nodes = tracer.nodes["step"] + tracer.nodes["eval"]
    m = {
        "linalg.matmul.calls_per_op": per(mm_calls, ops),
        "linalg.matmul.macs_per_op": per(macs, ops),
        "linalg.matmul.share": per(mm_ns, wall_ns),
        "linalg.matmul.gmacs_per_s": per(macs, mm_ns),
        "linalg.matmul.us_per_call.small_m": per(mm["small"][1], mm["small"][0]) / 1e3,
        "linalg.matmul.us_per_call.large_m": per(mm["large"][1], mm["large"][0]) / 1e3,
        "autodiff.nodes_per_step": per(sum(tracer.nodes["step"].values()), steps),
        "autodiff.transpose_share": per(nodes["transpose"], sum(nodes.values())),
        "autodiff.backward.ms_per_step": per(get("autodiff.Tape.backward"), steps) / 1e6,
        "autodiff.backward.self_ms_per_step":
            per(get("autodiff.Tape.backward", "self_ns"), steps) / 1e6,
        "autodiff.forward.ms_per_call":
            per(get("autodiff.Tape.forward"), get("autodiff.Tape.forward", "calls")) / 1e6,
        "toy_model.build_graph.ms_per_step":
            per(get("toy_model.build_graph", "step_total_ns"), steps) / 1e6,
        "toy_model.build_graph.self_ms_per_step":
            per(get("toy_model.build_graph", "step_self_ns"), steps) / 1e6,
        "toy_model.forward.ms_per_call":
            per(get("toy_model.forward"), get("toy_model.forward", "calls")) / 1e6,
        "trainer.step.optimizer_ms": per(get("trainer.train", "self_ns"), steps) / 1e6,
        "trainer.evaluate.ms_per_call":
            per(get("trainer.evaluate"), get("trainer.evaluate", "calls")) / 1e6,
        "trainer.pretrain_base.s": get("trainer.pretrain_base") / 1e9,
        "trainer.aborted": tracer.errors("trainer.train", "TrainingAborted"),
        "corpus.load_jsonl.ms": get("corpus.load_jsonl") / 1e6,
        "corpus.tfidf.ms": (get("corpus.tfidf_fit") + get("corpus.tfidf_matrix")) / 1e6,
        "clustering.kmeans.ms_per_call":
            per(get("clustering.kmeans"), get("clustering.kmeans", "calls")) / 1e6,
        "clustering.lloyd_iterations": tracer.lloyd_iterations,
        "clustering.us_per_lloyd_iteration":
            per(get("clustering.kmeans"), tracer.lloyd_iterations) / 1e3,
        "adapters.checkpoint.write_ms": get("adapters.write_checkpoint") / 1e6,
        "adapters.checkpoint.bytes": tracer.checkpoint_bytes,
        "cli.self_ms": get("cli.main", "self_ns") / 1e6,
    }
    notes = []
    for name, (_, sources) in LAYERS.items():
        gone = [s for s in sources if s in tracer.missing]
        if gone:
            notes.append(f"{name}: dropped, reads 0 ({', '.join(gone)} not in the program)")
        elif m[name] == 0 and name != "trainer.aborted":
            per_step = "step" in name or name == "trainer.step.optimizer_ms"
            why = "no training steps" if per_step and not steps else "no calls"
            notes.append(f"{name}: 0, {why} on this workload")
    return m, notes


def trace(workload, hp, out_path: Path) -> dict:
    tracer = hooks.Tracer(hp)
    clock = hooks.OpClock(hp)
    try:
        passes, spans = tracer.call_span("bench.pass", run_passes, (workload, hp, clock, 0))
    finally:
        clock.restore()
        tracer.restore()
    root = tracer.spans[0]
    wall = root[2] - root[1]
    out = summarize(passes, spans, clock.probes)
    metrics, notes = layer_metrics(tracer, wall, out["ops"])
    selfs = {name: row["self_ns"] / 1e6 for name, row in tracer.by_name().items()}
    selfs.update((name, agg[2] / 1e6) for name, agg in tracer.leaves.items())
    out.update(layer=metrics, notes=notes, wall_ms=wall / 1e6,
               self_ms=dict(sorted(selfs.items(), key=lambda kv: -kv[1])),
               builders=tracer.builders, missing=tracer.missing)
    out_path.write_text(json.dumps({
        "spans": tracer.spans, "leaves": tracer.leaves, "matmul": tracer.matmul,
        "nodes": tracer.nodes}) + "\n", encoding="utf-8")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace-file", default=str(ROOT / ".perfbench" / "trace.json"))
    args = ap.parse_args(argv)

    # Set-up is normalized by the median of three probe bursts: before the
    # program is imported, after, and once set-up is done.
    setup_probes = hostspeed.burst()
    hp = import_program()
    setup_probes += hostspeed.burst()
    workload = WORKLOADS[args.workload]()
    result_path = Path(args.result).resolve()
    trace_path = Path(args.trace_file).resolve()
    work = ROOT / ".perfbench" / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    home = os.getcwd()
    os.chdir(work)
    try:
        workload.setup(hp, args.seed)
        ready_ns = time.monotonic_ns() - sum(setup_probes)
        setup_probes += hostspeed.burst()
        if args.mode == "setup":
            out = {}
        elif args.mode == "measure":
            out = measure(workload, hp, args.seconds)
        else:
            out = trace(workload, hp, trace_path)
    finally:
        os.chdir(home)
        shutil.rmtree(work, ignore_errors=True)
    setup_factor = statistics.median(setup_probes) / hostspeed.PROBE_NOMINAL_NS
    out.update(ready_ns=ready_ns, setup_factor=setup_factor, env=environment(),
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    result_path.write_text(json.dumps(out) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
