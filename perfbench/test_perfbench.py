"""Self-tests of the benchmark.

    python3 -m pytest perfbench/test_perfbench.py -q

The tiny-run tests start the real benchmark once per workload and trace
mode with --seconds 1 (one pass each), so the file takes a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import hooks  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_self_times_on_a_synthetic_span_tree():
    # root [0,100] holds a [10,40] (which holds c [20,30]) and b [50,60];
    # leaf calls took 5 directly under root and 2 under b.
    spans = [["root", 0, 100, -1, 5, None],
             ["a", 10, 40, 0, 0, None],
             ["c", 20, 30, 1, 0, None],
             ["b", 50, 60, 0, 2, None]]
    assert hooks.self_times(spans) == [100 - 30 - 10 - 5, 30 - 10, 10, 10 - 2]


def test_self_times_count_overlapping_children_once():
    spans = [["root", 0, 100, -1, 0, None],
             ["a", 10, 50, 0, 0, None],
             ["b", 40, 120, 0, 0, None]]   # overlaps a and outlives root
    assert hooks.self_times(spans)[0] == 10


def test_tracer_self_times_account_for_the_wall_time():
    def matmul(a, b):
        time.sleep(0.002)
        return a

    linalg = SimpleNamespace(matmul=matmul)

    def train():
        for _ in range(3):
            linalg.matmul(SimpleNamespace(shape=(8, 4)), SimpleNamespace(shape=(4, 2)))
        time.sleep(0.001)

    trainer = SimpleNamespace(train=train)
    cli = SimpleNamespace(main=lambda: trainer.train())
    originals = (cli.main, trainer.train)
    tracer = hooks.Tracer({"cli": cli, "trainer": trainer, "linalg": linalg})
    try:
        tracer.call_span("bench.pass", cli.main)
    finally:
        tracer.restore()
    assert (cli.main, trainer.train, linalg.matmul) == (*originals, matmul)
    root = tracer.spans[0]
    total = sum(row["self_ns"] for row in tracer.by_name().values())
    total += sum(agg[2] for agg in tracer.leaves.values())
    assert total == root[2] - root[1]
    assert tracer.matmul["small"][0] == 3 and tracer.matmul["small"][2] == 3 * 8 * 4 * 2
    # names this fake program lacks are skipped and listed, never fatal
    assert "autodiff.Tape.backward" in tracer.missing
    assert "clustering.kmeans" in tracer.missing


def test_node_builders_are_found_by_introspection():
    from hydra_peft.autodiff import Tape

    found = set(hooks.node_builders(Tape))
    assert {"input", "matmul", "transpose", "add", "cross_entropy"} <= found
    assert not {"backward", "forward", "value", "set_value", "eval_scalar",
                "trainable_slots"} & found

    class LaterTape(Tape):
        def matmul_nt(self, a: int, b: int) -> int:
            return self.matmul(a, b)

    assert "matmul_nt" in hooks.node_builders(LaterTape)


def test_tail_level_keeps_ten_samples_beyond():
    assert worker.tail_level(230) == 95.0
    assert worker.tail_level(4800) == 99.5
    assert worker.tail_level(20) == 50.0
    assert worker.nearest_rank(list(range(1, 101)), 95.0) == 95


def test_declared_metrics_match_the_code():
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in BENCH["workloads"]} == set(WORKLOADS)


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *BENCH["command"][1:], "--workload", "dense-het",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_emits_every_declared_metric(workload, trace):
    proc = subprocess.run([sys.executable, *BENCH["command"][1:], "--workload", workload,
                           "--seed", "0", "--seconds", "1", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
