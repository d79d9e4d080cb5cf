"""Record a BENCH_<n>.json: every workload on several seeds, plus one traced run.

    python3 perfbench/record.py --out perfbench/BENCH_2.json --commit abc1234

For each workload it runs `run.py --trace 0` once for each of the seeds
0-9, one process at a time, and then `run.py --trace 1` on seed 0. It
stores:

- per metric, every seed's value with the quartiles;
- the spread (q3 - q1) / median next to the bound from BENCHMARK.json;
- per seed, the eval loss and the output fingerprint;
- the traced run's per-layer metrics, self times and notes.

It prints one line per workload and metric with the spread against the
bound, and exits 1 if a run was not correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One run.py call: (its result line, its full report)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    report = json.loads((OUT / f"result-{workload}-seed{seed}-trace{trace}.json")
                        .read_text(encoding="utf-8"))
    return result, report


def quartiles(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--commit", default=None)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    seeds = list(range(10))
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {"commit": args.commit, "command": bench["command"], "run_seconds": seconds,
              "seeds": seeds, "workloads": {}}
    all_correct = True
    for name in names:
        values: dict[str, list[float]] = {}
        per_seed = {}
        for seed in seeds:
            result, report = run(name, seed, seconds, 0)
            all_correct &= result["correct"]
            for k, m in result["metrics"].items():
                values.setdefault(k, []).append(m["value"])
            meas = report["measure"]
            per_seed[str(seed)] = {"eval_loss": meas["eval_loss"], "fingerprint": meas["digest"],
                                   **meas["extra"]}
            record["env"] = meas["env"]
        traced_result, traced = run(name, seeds[0], seconds, 1)
        all_correct &= traced_result["correct"]
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        entry = {
            "end_to_end": {k: {"unit": units[k], "bound": bounds[k], **quartiles(v)}
                           for k, v in values.items()},
            "tail_pct": report["measure"]["tail_pct"],
            "seeds": per_seed,
            "traced": {"seed": seeds[0], "wall_ms": traced["traced"]["wall_ms"],
                       "per_layer": {k: m["value"]
                                     for k, m in traced_result["metrics"].items()},
                       "self_ms": traced["traced"]["self_ms"],
                       "notes": traced["traced"]["notes"]},
        }
        record["workloads"][name] = entry
        for k, q in entry["end_to_end"].items():
            print(f"{name:<14} {k:<12} median {q['median']:<12.6g} spread {q['spread']:.3f} "
                  f"(bound {q['bound']})", flush=True)
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
