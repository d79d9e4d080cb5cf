"""Release acceptance suite: one test per criterion, at the stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass lines and timings. Every test is seeded and deterministic.
"""

import io
import json
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from hydra_peft import adapters as ad
from hydra_peft import clustering as cl
from hydra_peft import corpus as cp
from hydra_peft import toy_model as tm
from hydra_peft.autodiff import Tape, grad_check
from hydra_peft.cli import main as cli_main
from hydra_peft.linalg import SeededRng

from adapter_refs import linear_forward


@contextmanager
def criterion(n: int, desc: str):
    t0 = time.time()
    try:
        yield
    except Exception:
        print(f"\n[FAIL] criterion {n}: {desc}")
        raise
    print(f"\n[PASS] criterion {n}: {desc} ({time.time() - t0:.1f}s)")


def test_criterion_1_parameter_accounting():
    with criterion(1, "parameter accounting reproduces the reference table"):
        dims = dict(d=4096, k=4096, matrices_per_layer=2, layers=32,
                    base_total=6_738_000_000)
        assert ad.param_count("lora", r=8, n=1, **dims)[1] == 0.062
        assert ad.param_count("lora", r=16, n=1, **dims)[1] == 0.124
        assert ad.param_count("lora", r=32, n=1, **dims)[1] == 0.248
        assert ad.param_count("hydra", r=8, n=3, **dims)[1] == 0.124
        assert abs(ad.param_count("hydra", r=8, n=10, **dims)[1] - 0.341) <= 0.002


def test_criterion_2_zero_init_contract():
    with criterion(2, "fresh adapters leave the base forward exactly unchanged "
                      "(1000 instances per scheme)"):
        rng = SeededRng(2024)
        for scheme in ("lora", "hydra"):
            for i in range(1000):
                d = 2 + int(rng.integers(1, 7)[0])
                k = 2 + int(rng.integers(1, 7)[0])
                r = 1 + int(rng.integers(1, min(d, k))[0])
                n = 1 + int(rng.integers(1, 4)[0])
                w0 = rng.normal(d * k).reshape(d, k)
                x = rng.normal(k)
                init_rng = SeededRng(i).derive(scheme)
                if scheme == "lora":
                    adapter = ad.LoraAdapter.init(d, k, r, init_rng)
                else:
                    adapter = ad.HydraAdapter.init(d, k, r, n, init_rng)
                out = linear_forward(w0, adapter, x)[0]
                assert np.abs(out - linear_forward(w0, None, x)[0]).max() == 0.0


def _gradient_config(i: int):
    rng = SeededRng(5000 + i)
    vocab = 10 + int(rng.integers(1, 8)[0])
    d_model = 6 + int(rng.integers(1, 5)[0])
    n_classes = 3
    model = tm.token_model(vocab, d_model, n_classes, seed=900 + i)
    for proj in ("q_proj", "v_proj"):
        n_exp = 2 + int(rng.integers(1, 2)[0])
        rank = 2 + int(rng.integers(1, 2)[0])
        tm.attach(model, proj, "hydra", rank, seed=300 + 7 * i, n=n_exp)
        hy = model.adapters[proj]
        r = SeededRng(40 + i).derive(proj)
        for j, e in enumerate(hy.experts):
            e[:] = 0.5 * r.derive(j).normal(e.size).reshape(e.shape)
        hy.w_gate[:] = r.derive("wg").normal(hy.w_gate.size).reshape(hy.w_gate.shape)
    n, t = 2, 4 + int(rng.integers(1, 3)[0])
    toks = rng.integers(n * t, vocab).reshape(n, t)
    labels = rng.integers(n, n_classes)
    return model, tm.Batch(inputs=toks, labels=labels)


def test_criterion_3_gradient_fidelity():
    with criterion(3, "full multi-expert attention graph passes the finite-"
                      "difference audit at 1e-6 (20 configs)"):
        worst = 0.0
        for i in range(20):
            model, batch = _gradient_config(i)
            graph = tm.build_graph(model, batch, trainable="adapters+head")
            report = grad_check(graph.tape, graph.loss_slot, SeededRng(77 + i),
                                eps=1e-6)
            worst = max(worst, report.max_rel_error)
            assert report.max_rel_error <= 1e-6, (i, report.per_param)
        print(f"  worst relative error: {worst:.2e}")


def test_criterion_4_gate_and_merge_properties():
    with criterion(4, "gates sum to 1 within 1e-12 (1e5 routings); merged "
                      "inference matches expert-sum within 1e-12 (1000 instances)"):
        rng = SeededRng(31337)
        sizes = [(2 + i % 5, 1 + i % 8) for i in range(100_000)]
        pool = rng.normal(sum(r * (n + 1) for r, n in sizes))
        by_shape: dict[tuple[int, int], tuple[list, list]] = {}
        offset = 0
        for r, n in sizes:
            zs, w_gs = by_shape.setdefault((r, n), ([], []))
            zs.append(pool[offset : offset + r] * 3.0)
            w_gs.append(pool[offset + r : offset + r * (n + 1)].reshape(r, n))
            offset += r * (n + 1)
        worst_sum = 0.0
        for zs, w_gs in by_shape.values():
            # HydraAdapter.tape_branch's router ops, one row block per routing
            tape = Tape()
            logits = tape.matmul(tape.input(np.stack(zs)), tape.input(np.concatenate(w_gs)),
                                 groups=len(zs))
            gates = tape.value(tape.softmax_rows(logits))
            assert (gates >= 0.0).all()
            worst_sum = max(worst_sum, np.abs(gates.sum(axis=1) - 1.0).max())
            assert worst_sum <= 1e-12
        assert sum(len(zs) for zs, _ in by_shape.values()) == len(sizes)

        worst_merge = 0.0
        for i in range(1000):
            d = k = 4
            hy = ad.HydraAdapter.init(d, k, 2, 3, SeededRng(i).derive("merge"))
            for e in hy.experts:
                e[:] = rng.normal(e.size).reshape(e.shape)
            hy.w_gate[:] = rng.normal(hy.w_gate.size).reshape(hy.w_gate.shape)
            w0 = rng.normal(d * k).reshape(d, k)
            x = rng.normal(k)
            y, gate = linear_forward(w0, hy, x)
            worst_merge = max(worst_merge, np.abs(ad.merge_infer(x[None], w0, hy, gate) - y).max())
            assert worst_merge <= 1e-12
        print(f"  worst |gate sum - 1|: {worst_sum:.1e}; worst merge error: {worst_merge:.1e}")


def test_criterion_5_clustering_pipeline():
    with criterion(5, "elbow finds the 3 planted components in >= 19/20 seeds; "
                      "SSE never increases across Lloyd iterations"):
        hits = 0
        histories = 0
        for seed in range(20):
            docs = cp.synth_corpus(3, 50, 0.8, seed=seed)
            model = cp.tfidf_fit(docs)
            x = cp.tfidf_matrix(model, docs)
            curve, results = cl.sse_curve(x, 8, seed)
            hits += cl.elbow_select(curve) == 3
            for res in results:
                h = res.sse_history
                assert all(h[i + 1] <= h[i] + 1e-9 for i in range(len(h) - 1))
                histories += 1
        print(f"  elbow hits: {hits}/20 over {histories} clustering runs")
        assert hits >= 19


def _bench(suite, tmp_path, monkeypatch):
    """`bench --suite <suite>` over seeds 0-9 in two worker processes: the --out payload."""
    monkeypatch.setenv("HYDRA_PEFT_THREADS", "2")
    out, err = tmp_path / f"{suite}.json", io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = cli_main(["bench", "--suite", suite, "--seeds", "10", "--out", str(out)])
    assert code == 0, err.getvalue()
    payload = json.loads(out.read_text())
    assert payload["seeds"] == list(range(10))
    return payload


def test_criterion_6_dedicated_heads_beat_monolithic(tmp_path, monkeypatch):
    with criterion(6, "one lora per task beats one same-budget pooled adapter "
                      "in >= 8/10 seeds"):
        payload = _bench("obs1", tmp_path, monkeypatch)
        ratio = np.median([r["loss_split"] / r["loss_single"] for r in payload["rows"]])
        print(f"  wins: {payload['wins']}/10; median loss_split / loss_single: {ratio:.3f}")
        assert payload["wins"] >= 8


def test_criterion_7_b_drifts_more_than_a(tmp_path, monkeypatch):
    with criterion(7, "per-task adapters: up-projections diverge more than "
                      "down-projections in >= 8/10 seeds"):
        payload = _bench("obs2", tmp_path, monkeypatch)
        ratios = [round(r["ratio"], 2) for r in payload["rows"]]
        print(f"  D_B/D_A per seed: {ratios}")
        assert payload["wins"] >= 8


def test_criterion_8_heterogeneity_gap_widens(tmp_path, monkeypatch):
    with criterion(8, "full-fine-tuning advantage grows from single-component "
                      "to fully mixed corpora in >= 8/10 seeds"):
        wins = _bench("het", tmp_path, monkeypatch)["wins"]
        print(f"  wins: {wins}/10")
        assert wins >= 8


def test_criterion_9_cost_proxy():
    with criterion(9, "3-expert rank-8 config trains half the parameters of "
                      "a rank-32 adapter (ratio 0.500 +/- 0.005)"):
        ratio = (ad.params_per_matrix("hydra", 4096, 4096, 8, 3)
                 / ad.params_per_matrix("lora", 4096, 4096, 32))
        print(f"  trainable-parameter ratio: {ratio:.4f}")
        assert abs(ratio - 0.500) <= 0.005


def test_criterion_10_pipeline_determinism(tmp_path):
    with criterion(10, "identical seeds give byte-identical checkpoints and "
                       "reports across the whole CLI pipeline"):
        docs = cp.synth_corpus(3, 30, 0.8, seed=17)
        corpus_path = tmp_path / "corpus.jsonl"
        cp.save_jsonl(corpus_path, docs)
        cfg = {"scheme": "hydra", "rank": 3, "experts": 3, "steps": 50,
               "learning_rate": 0.1, "batch_size": 8, "seed": 12,
               "eval_interval": 25, "d_model": 12, "seq_len": 8,
               "pretrain_steps": 10, "dataset": {"corpus": str(corpus_path)}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))

        outputs = []
        for run in ("a", "b"):
            cdir = tmp_path / f"cluster_{run}.json"
            rdir = tmp_path / f"run_{run}"
            assert cli_main(["cluster", "--corpus", str(corpus_path), "--k-max", "6",
                             "--seed", "9", "--out", str(cdir)]) == 0
            assert cli_main(["train", "--config", str(cfg_path),
                             "--out", str(rdir)]) == 0
            outputs.append({
                "cluster": cdir.read_bytes(),
                "checkpoint": (rdir / "checkpoint.txt").read_bytes(),
                "csv": (rdir / "report.csv").read_bytes(),
                "json": (rdir / "report.json").read_bytes(),
            })
        for key in outputs[0]:
            assert outputs[0][key] == outputs[1][key], f"{key} differs between reruns"
