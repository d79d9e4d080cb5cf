"""hydra-peft benchmark: one workload per call, every metric by name.

    python3 perfbench/run.py --workload token-train --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 10 --trace 0

Run it from the root of a source checkout; it imports the program from
`src/`, so nothing needs installing. Each workload runs in fresh
single-threaded processes, one at a time (see worker.py): SETUP_PROBES
processes time the set-up (import, input generation, fixtures), the last
of them then measures whole passes for --seconds and checks every output.
With --trace 1 a further process runs one traced pass and the per-layer
metrics are printed instead of the end-to-end ones.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Lines above it repeat the metrics with
their units, the tail percentile and its sample count, failed_ratio, the
output fingerprint with the numpy/Python versions it was made with, and,
for --trace 1, the self-time breakdown and notes on absent layers.
Scratch files and the last results go to `.perfbench/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench"
BASELINE = HERE / "BENCH_1.json"
sys.path.insert(0, str(HERE))

from worker import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 5           # set-up is timed in this many fresh processes
RUN_LIMIT_S = 170          # every child process is killed past this

END_TO_END = {             # name -> unit
    "setup_s": "s",
    "items_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {**{name: unit for name, (unit, _) in LAYERS.items()},
             "trace.overhead": "1/s"}   # traced minus untraced items_per_s


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("HYDRA_PEFT_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args, mode: str, deadline: float, tag: str) -> tuple[dict, int]:
    """Run worker.py in a fresh process; returns (its result, spawn time)."""
    result = OUT / f"child-{os.getpid()}-{tag}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode, "--seconds", str(args.seconds),
           "--result", str(result),
           "--trace-file", str(OUT / f"trace-{args.workload}-seed{args.seed}.json")]
    spawned = time.monotonic_ns()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as e:
        raise ChildFailed(f"{mode} process for {args.workload} timed out") from e
    try:
        if proc.returncode != 0:
            raise ChildFailed(f"{mode} process for {args.workload} exited "
                              f"{proc.returncode}:\n{proc.stderr[-4000:]}")
        return json.loads(result.read_text(encoding="utf-8")), spawned
    finally:
        result.unlink(missing_ok=True)


def finite(x) -> float:
    return float(x) if isinstance(x, (int, float)) and math.isfinite(x) else 0.0


def run_one(args) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    setups, setups_raw = [], []

    def add_setup(child: dict, spawned: int) -> None:
        setups_raw.append((child["ready_ns"] - spawned) / 1e9)
        setups.append(setups_raw[-1] / child["setup_factor"])

    for i in range(0 if args.trace else SETUP_PROBES - 1):
        add_setup(*spawn(args, "setup", deadline, f"setup{i}"))
    meas, spawned = spawn(args, "measure", deadline, "measure")
    add_setup(meas, spawned)
    runs = [meas]
    traced = None
    if args.trace:
        traced, _ = spawn(args, "trace", deadline, "trace")
        runs.append(traced)
        if traced["digest"] != meas["digest"]:
            traced["problems"].append("traced output fingerprint differs from untraced")
            traced["failed_ops"] = traced["ops"]
    attempted = sum(r["ops"] for r in runs)
    failed = sum(r["failed_ops"] for r in runs)
    problems = [p for r in runs for p in r["problems"]]
    e2e = {
        "setup_s": statistics.median(setups),
        "items_per_s": meas["items_per_s"],
        "op_ms_p50": meas["op_ms_p50"],
        "op_ms_tail": meas["op_ms_tail"],
        "peak_rss_mb": meas["peak_rss_mb"],
    }
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "setup_samples_s": setups,
              "setup_samples_raw_s": setups_raw, "measure": meas,
              "end_to_end": e2e, "eval_loss": meas["eval_loss"],
              "failed_ratio": failed / attempted, "problems": problems}
    if traced is None:
        metrics = {k: {"value": finite(v), "unit": END_TO_END[k]} for k, v in e2e.items()}
    else:
        layer = dict(traced["layer"])
        layer["trace.overhead"] = traced["items_per_s"] - meas["items_per_s"]
        metrics = {k: {"value": finite(layer[k]), "unit": PER_LAYER[k]} for k in PER_LAYER}
        report["traced"] = traced
    report["result"] = {"correct": not problems and failed == 0, "attempted": attempted,
                        "failed": failed, "metrics": metrics}
    return report


def baseline(workload: str, seed: int) -> dict | None:
    """The checked-in baseline's fingerprint and eval loss for this seed, if any."""
    if not BASELINE.is_file():
        return None
    base = json.loads(BASELINE.read_text(encoding="utf-8"))
    return base["workloads"].get(workload, {}).get("seeds", {}).get(str(seed))


def print_report(rep: dict) -> None:
    w = WORKLOADS[rep["workload"]]
    meas = rep["measure"]
    print(f"== {rep['workload']}  seed {rep['seed']}  seconds {rep['seconds']}  "
          f"trace {rep['trace']}")
    e2e = rep["end_to_end"]
    print(f"  setup_s       {e2e['setup_s']:.4f} s    median of {len(rep['setup_samples_s'])} "
          f"process starts (raw {statistics.median(rep['setup_samples_raw_s']):.4f})")
    print(f"  items_per_s   {e2e['items_per_s']:.2f} 1/s  {w.item}, median of "
          f"{meas['passes']} passes (raw {meas['items_per_s_raw']:.2f})")
    print(f"  op_ms_p50     {e2e['op_ms_p50']:.4f} ms   per {w.op}, n={meas['ops']} "
          f"(raw {meas['op_ms_p50_raw']:.4f})")
    print(f"  op_ms_tail    {e2e['op_ms_tail']:.4f} ms   p{meas['tail_pct']:g}, n={meas['ops']}, "
          f"{meas['tail_beyond']} beyond (raw {meas['op_ms_tail_raw']:.4f})")
    print(f"  (timings normalized to nominal host speed by {meas['probes']} probes; "
          f"raw wall-clock figures in parentheses)")
    print(f"  peak_rss_mb   {e2e['peak_rss_mb']:.1f} MiB")
    res = rep["result"]
    print(f"  failed_ratio  {rep['failed_ratio']:.4g} ratio  {res['failed']}/{res['attempted']} ops")
    print(f"  eval_loss     {rep['eval_loss']!r} {w.loss_unit} (exact)")
    for k, v in meas["extra"].items():
        print(f"  {k:<13} {v!r} ratio")
    env = meas["env"]
    print(f"  fingerprint   sha256:{meas['digest']}  numpy {env['numpy']}, python "
          f"{env['python']}, nproc {env['nproc']}, {env['platform']}")
    base = baseline(rep["workload"], rep["seed"])
    if base:
        same = base["fingerprint"] == meas["digest"]
        print(f"  BENCH_1       fingerprint {'equal' if same else 'DIFFERS'}; eval_loss there "
              f"{base['eval_loss']!r}")
    for note in meas["missing"]:
        print(f"  note: {note} not in the program; its op timing is absent")
    traced = rep.get("traced")
    if traced:
        print(f"  -- traced pass: {traced['wall_ms']:.1f} ms, items_per_s "
              f"{traced['items_per_s']:.2f} 1/s (untraced {meas['items_per_s']:.2f})")
        for k, m in res["metrics"].items():
            print(f"  {k:<40} {m['value']:.6g} {m['unit']}")
        total = sum(traced["self_ms"].values())
        print(f"  self times account for {100 * total / traced['wall_ms']:.2f}% of the "
              f"traced wall time:")
        for name, ms in traced["self_ms"].items():
            print(f"    {name:<36} {ms:10.2f} ms  {100 * ms / traced['wall_ms']:6.2f}%")
        print(f"  node builders found: {', '.join(traced['builders'])}")
        for note in traced["notes"]:
            print(f"  note: {note}")
    for p in rep["problems"]:
        print(f"  PROBLEM: {p}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "hydra_peft" / "cli.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'hydra_peft'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    reports = []
    for name in names:
        one = argparse.Namespace(**{**vars(args), "workload": name})
        try:
            rep = run_one(one)
        except ChildFailed as e:
            print(f"error: {e}", file=sys.stderr)
            return 3
        (OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(rep, indent=1) + "\n", encoding="utf-8")
        print_report(rep)
        reports.append(rep)
    if len(reports) == 1:
        print(json.dumps(reports[0]["result"]), flush=True)
    else:
        print(json.dumps({r["workload"]: r["result"] for r in reports}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
