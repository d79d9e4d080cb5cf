"""The four benchmark workloads.

Each workload makes its inputs from the benchmark seed in `setup()`, inside
the current directory, then runs whole passes. A pass is a fixed amount of
work: it returns the items done, the latency of every unit op, the output
fingerprint, the eval loss and the problems its output checks found.

The program is driven only through entry points later versions keep:
`cli.main` for train, bench and cluster, and `trainer.build_from_config`
plus `trainer.evaluate` for dense-eval.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass
class Pass:
    items: int
    ops: list[tuple[int, int]]     # (end, duration) of each unit op, OpClock time
    digest: str
    eval_loss: float
    problems: list[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)


def _cli(hp, argv: list[str]) -> tuple[int, str]:
    """Run cli.main in-process with its stdout/stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = hp["cli"].main(argv)
    return rc, out.getvalue()


def _digest(*blobs: bytes) -> str:
    h = hashlib.sha256()
    for blob in blobs:
        h.update(len(blob).to_bytes(8, "little"))
        h.update(blob)
    return h.hexdigest()


def _steps(start: int, returns: list[int]) -> list[tuple[int, int]]:
    """Training steps: the gaps between consecutive Tape.backward returns,
    the first measured from the start of the pass."""
    stamps = [start] + returns
    return [(b, b - a) for a, b in zip(stamps, stamps[1:])]


class TokenTrain:
    """README walkthrough `train`: hydra on a token corpus via cli.main."""

    name = "token-train"
    item = "training samples"
    op = "training step"
    loss_unit = "nats"
    STEPS, BATCH = 200, 8
    PRETRAIN_STEPS = 30
    PRETRAIN_BATCH = 32   # the batch size trainer.pretrain_base trains at

    def setup(self, hp, seed: int) -> None:
        hp["corpus"].save_jsonl("corpus.jsonl", hp["corpus"].synth_corpus(3, 50, 0.8, seed=seed))
        cfg = {"scheme": "hydra", "rank": 4, "experts": 3, "steps": self.STEPS,
               "learning_rate": 0.1, "batch_size": self.BATCH, "seed": seed,
               "d_model": 16, "seq_len": 10, "pretrain_steps": self.PRETRAIN_STEPS,
               "dataset": {"corpus": "corpus.jsonl"}}
        Path("config.json").write_text(json.dumps(cfg, sort_keys=True), encoding="utf-8")

    def run_pass(self, hp, clock) -> Pass:
        shutil.rmtree("run", ignore_errors=True)
        start = clock.now()
        rc, _ = _cli(hp, ["train", "--config", "config.json", "--out", "run"])
        returns, _ = clock.take()
        problems = []
        steps = self.STEPS + self.PRETRAIN_STEPS
        if rc != 0:
            problems.append(f"train exited {rc}")
        if len(returns) != steps:
            problems.append(f"{len(returns)} training steps, expected {steps}")
        run = Path("run")
        blobs = [(run / f).read_bytes() if (run / f).exists() else b""
                 for f in ("checkpoint.txt", "report.csv", "report.json")]
        loss = math.nan
        if blobs[2]:
            loss = float(json.loads(blobs[2])["final_loss"])
            curve = [float(line.split(",")[1])
                     for line in blobs[1].decode().splitlines()[1:]]
            if not all(math.isfinite(v) for v in curve + [loss]):
                problems.append("non-finite loss in report")
        return Pass(items=self.STEPS * self.BATCH + self.PRETRAIN_STEPS * self.PRETRAIN_BATCH,
                    ops=_steps(start, returns), digest=_digest(*blobs),
                    eval_loss=loss, problems=problems)


class DenseHet:
    """One seed of `bench --suite het`: full fine-tuning vs lora, dense mode."""

    name = "dense-het"
    item = "training samples"
    op = "training step"
    loss_unit = "nats"
    # run_heterogeneity's shape as the CLI sets it: levels 1, 2, 4, two arms
    # (full fine-tuning, lora) each, 800 steps at batch 24.
    RUNS, STEPS, BATCH = 6, 800, 24

    def setup(self, hp, seed: int) -> None:
        # `bench --seeds 1` always runs suite seed 0: this workload's inputs
        # do not depend on the benchmark seed.
        pass

    def run_pass(self, hp, clock) -> Pass:
        Path("het.json").unlink(missing_ok=True)
        start = clock.now()
        rc, _ = _cli(hp, ["bench", "--suite", "het", "--seeds", "1", "--out", "het.json"])
        returns, _ = clock.take()
        problems = []
        if rc != 0:
            problems.append(f"bench exited {rc}")
        if len(returns) != self.RUNS * self.STEPS:
            problems.append(f"{len(returns)} training steps, expected {self.RUNS * self.STEPS}")
        blob = Path("het.json").read_bytes() if Path("het.json").exists() else b""
        loss = math.nan
        if blob:
            rows = json.loads(blob)["rows"][0]["rows"]
            losses = [r[k] for r in rows for k in ("fft_loss", "peft_loss")]
            loss = sum(losses) / len(losses)
            if [r["level"] for r in rows] != [1, 2, 4]:
                problems.append("het levels are not [1, 2, 4]")
            if not all(math.isfinite(v) for v in losses):
                problems.append("non-finite het loss")
        return Pass(items=self.RUNS * self.STEPS * self.BATCH,
                    ops=_steps(start, returns), digest=_digest(blob),
                    eval_loss=loss, problems=problems)


class DenseEval:
    """The read path: trainer.evaluate on eval slices of a trained hydra model."""

    name = "dense-eval"
    item = "evaluated rows"
    op = "evaluate call"
    loss_unit = "nats"
    # One cycle: 4x16, 4x64, 2x256 and 1x768 rows. Each size takes a
    # comparable share of the time, and the median call is a 64-row one.
    CYCLE = (16, 16, 16, 16, 64, 64, 64, 64, 256, 256, 768)
    CYCLES_PER_PASS = 20

    def setup(self, hp, seed: int) -> None:
        trainer = hp["trainer"]
        cfg = trainer.TrainConfig(
            scheme="hydra", rank=4, experts=3, steps=200, batch_size=24,
            learning_rate=0.01, optimizer="adam", seed=seed,
            dataset={"synthetic": "xor-components", "level": 4})
        self.model, self.data = trainer.build_from_config(cfg)
        trainer.train(self.model, self.data, cfg)
        n_eval = self.data.eval_inputs.shape[0]
        order = np.random.default_rng(seed).permutation(n_eval)
        self.masks = {}
        for size in sorted(set(self.CYCLE)):
            mask = np.zeros(n_eval, dtype=bool)
            mask[order[:size]] = True
            self.masks[size] = mask

    def run_pass(self, hp, clock) -> Pass:
        evaluate = hp["trainer"].evaluate
        ops, results, problems = [], [], []
        for _ in range(self.CYCLES_PER_PASS):
            for size in self.CYCLE:
                t0 = clock.now()
                loss, acc, gates = evaluate(self.model, self.data, self.masks[size])
                end = clock.now()
                ops.append((end, end - t0))
                clock.boundary()
                results.append((size, loss, acc))
                for proj, g in gates.items():
                    if abs(float(np.sum(g)) - 1.0) > 1e-12:
                        problems.append(f"{proj} gate means sum to {float(np.sum(g))!r}")
        cycle = results[:len(self.CYCLE)]
        if results != cycle * self.CYCLES_PER_PASS:
            problems.append("evaluate results differ between cycles")
        if not all(math.isfinite(loss) for _, loss, _ in cycle):
            problems.append("non-finite eval loss")
        full = [loss for size, loss, _ in cycle if size == max(self.CYCLE)][0]
        return Pass(items=sum(self.CYCLE) * self.CYCLES_PER_PASS, ops=ops,
                    digest=_digest(repr(cycle).encode()), eval_loss=full,
                    problems=problems[:5])


class ClusterElbow:
    """`cluster --k-max 8` over seeded corpora with 2-5 planted components."""

    name = "cluster-elbow"
    item = "documents clustered"
    op = "kmeans call"
    loss_unit = "SSE/doc"
    K_MAX = 8
    DOCS_PER_COMPONENT = 50
    COMPONENTS = (2, 3, 4, 5) * 14   # 56 corpora, the same mix for every seed

    def setup(self, hp, seed: int) -> None:
        self.seed = seed
        self.docs = []
        for i, n in enumerate(self.COMPONENTS):
            docs = hp["corpus"].synth_corpus(n, self.DOCS_PER_COMPONENT, 0.8,
                                             seed=seed * 1000 + i)
            hp["corpus"].save_jsonl(f"corpus{i:02d}.jsonl", docs)
            self.docs.append(len(docs))

    def run_pass(self, hp, clock) -> Pass:
        blobs, problems, hits, sse_per_doc = [], [], 0, []
        for i, planted in enumerate(self.COMPONENTS):
            out = Path(f"cluster{i:02d}.json")
            out.unlink(missing_ok=True)
            rc, stdout = _cli(hp, ["cluster", "--corpus", f"corpus{i:02d}.jsonl",
                                   "--k-max", str(self.K_MAX), "--seed", str(self.seed),
                                   "--out", str(out)])
            if rc != 0 or not out.exists():
                problems.append(f"cluster on corpus {i} exited {rc}")
                blobs.append(b"")
                continue
            blobs.append(out.read_bytes())
            payload = json.loads(blobs[-1])
            k = payload["k_selected"]
            if not 1 <= k <= self.K_MAX:
                problems.append(f"corpus {i}: k_selected {k} outside [1, {self.K_MAX}]")
                continue
            if stdout.strip() != f"k_selected: {k}":
                problems.append(f"corpus {i}: stdout {stdout.strip()!r} disagrees with {k}")
            sse = dict((kk, s) for kk, s in payload["sse_curve"])
            if not all(math.isfinite(s) for s in sse.values()):
                problems.append(f"corpus {i}: non-finite SSE")
            hits += k == planted
            sse_per_doc.append(sse[k] / self.docs[i])
        _, kmeans = clock.take()
        loss = sum(sse_per_doc) / len(sse_per_doc) if sse_per_doc else math.nan
        return Pass(items=sum(self.docs), ops=kmeans, digest=_digest(*blobs),
                    eval_loss=loss, problems=problems,
                    extra={"elbow_hit_ratio": hits / len(self.COMPONENTS)})


WORKLOADS = {w.name: w for w in (TokenTrain, DenseHet, DenseEval, ClusterElbow)}
