import json
import os
import re
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hydra_peft import adapters as ad
from hydra_peft import clustering
from hydra_peft import corpus as cp
from hydra_peft import experiments
from hydra_peft import trainer as tr
from hydra_peft.cli import main
from hydra_peft.linalg import SeededRng


@pytest.fixture
def corpus_file(tmp_path):
    docs = cp.synth_corpus(3, 30, 0.8, seed=7)
    path = tmp_path / "corpus.jsonl"
    cp.save_jsonl(path, docs)
    return path


def test_params_reference_lines(capsys):
    assert main(["params", "--scheme", "lora", "--rank", "8", "--d", "4096",
                 "--k", "4096", "--layers", "32", "--matrices-per-layer", "2",
                 "--base-total", "6738000000"]) == 0
    assert capsys.readouterr().out == "4194304 (0.062%)\n"

    assert main(["params", "--scheme", "hydra", "--rank", "8", "--experts", "10",
                 "--d", "4096", "--k", "4096", "--layers", "32",
                 "--matrices-per-layer", "2", "--base-total", "6738000000"]) == 0
    assert capsys.readouterr().out == "23073792 (0.342%)\n"


def test_params_split_scheme_is_a_usage_error(capsys):
    # n split heads of rank r count as one lora of rank r*n
    assert main(["params", "--scheme", "split", "--rank", "8", "--experts", "4"]) == 1
    assert "invalid choice: 'split'" in capsys.readouterr().err


def test_unknown_flag_is_usage_error():
    assert main(["params", "--scheme", "lora", "--whatever", "1"]) == 1


def test_cluster_selects_planted_count(tmp_path, corpus_file, capsys):
    out = tmp_path / "cluster.json"
    assert main(["cluster", "--corpus", str(corpus_file), "--k-max", "6",
                 "--seed", "3", "--out", str(out)]) == 0
    assert capsys.readouterr().out == "k_selected: 3\n"
    payload = json.loads(out.read_text())
    assert payload["k_selected"] == 3
    assert payload["sse_curve"][0][0] == 1
    assert len(payload["assignments"]) == 90


def test_cluster_override(tmp_path, corpus_file, capsys):
    out = tmp_path / "cluster.json"
    assert main(["cluster", "--corpus", str(corpus_file), "--k-max", "6",
                 "--seed", "3", "--k", "4", "--out", str(out)]) == 0
    assert capsys.readouterr().out == "k_selected: 4\n"


def test_cluster_missing_file_is_runtime_error(tmp_path):
    assert main(["cluster", "--corpus", str(tmp_path / "nope.jsonl"),
                 "--out", str(tmp_path / "o.json")]) == 2


def test_cluster_bad_jsonl_line(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a", "text": "x"}\n{broken\n', encoding="utf-8")
    assert main(["cluster", "--corpus", str(path),
                 "--out", str(tmp_path / "o.json")]) == 2
    assert "line 2" in capsys.readouterr().err


def _train_cfg(corpus_file, **overrides):
    cfg = {"scheme": "hydra", "rank": 3, "experts": 3, "steps": 40,
           "learning_rate": 0.1, "batch_size": 8, "seed": 5, "eval_interval": 20,
           "d_model": 12, "seq_len": 8, "pretrain_steps": 10,
           "dataset": {"corpus": str(corpus_file)}}
    cfg.update(overrides)
    return cfg


def test_train_end_to_end_from_cluster_output(tmp_path, corpus_file, capsys):
    cluster_out = tmp_path / "cluster.json"
    main(["cluster", "--corpus", str(corpus_file), "--k-max", "6", "--seed", "3",
          "--out", str(cluster_out)])
    capsys.readouterr()
    k = json.loads(cluster_out.read_text())["k_selected"]

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_train_cfg(corpus_file, experts=k)))
    out_dir = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["seed"] == 5
    assert (out_dir / "checkpoint.txt").exists()
    csv = (out_dir / "report.csv").read_text().strip().split("\n")
    assert csv[0].startswith("step,loss,acc,gate_0")

    # evaluate the checkpoint back
    assert main(["eval", "--config", str(cfg_path),
                 "--checkpoint", str(out_dir / "checkpoint.txt")]) == 0
    evald = json.loads(capsys.readouterr().out)
    assert evald["loss"] == summary["final_loss"]

    # every adapted projection of the token model is checked
    assert main(["merge-infer", "--checkpoint", str(out_dir / "checkpoint.txt")]) == 0
    assert capsys.readouterr().out.startswith("max |merge - moe|:")


def test_train_checkpoint_round_trip(tmp_path, corpus_file, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_train_cfg(corpus_file, steps=5, pretrain_steps=2)))
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 0
    capsys.readouterr()
    path = tmp_path / "run" / "checkpoint.txt"
    meta, adapters, tensors = ad.read_checkpoint(path)
    assert meta == {"scheme": "hydra", "rank": "3", "alpha": "3.0", "seed": "5"}
    assert sorted(adapters) == ["q_proj", "v_proj"]
    assert all(len(a.experts) == 3 for a in adapters.values())
    assert [n for n in tensors if n.startswith("base.")] == ["base.head"]
    again = tmp_path / "again.txt"
    ad.write_checkpoint(again, meta, tensors)
    assert again.read_bytes() == path.read_bytes()


def test_failed_train_leaves_no_out_dir(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_train_cfg(tmp_path / "missing.jsonl")))
    out_dir = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--out", str(out_dir)]) == 2
    assert "missing.jsonl" in capsys.readouterr().err
    assert not out_dir.exists()


def test_unusable_train_out_fails_before_building(tmp_path, corpus_file, capsys, monkeypatch):
    built = []
    monkeypatch.setattr(tr, "build_from_config", built.append)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_train_cfg(corpus_file)))
    afile = tmp_path / "afile"
    afile.write_text("x")
    for out in (afile, afile / "sub"):
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert f"{afile} is not a directory" in capsys.readouterr().err
    assert built == []
    assert afile.read_text() == "x"


def test_unusable_analyze_out_fails_before_reading(tmp_path, capsys, monkeypatch):
    read = []
    monkeypatch.setattr(ad, "read_checkpoint", read.append)
    afile = tmp_path / "afile"
    afile.write_text("x")
    for out in (afile, afile / "sub"):
        assert main(["analyze", "--checkpoints", str(tmp_path / "c.txt"), "--out", str(out)]) == 2
        assert f"{afile} is not a directory" in capsys.readouterr().err
    assert read == []
    assert afile.read_text() == "x"


def test_bad_cluster_flags_fail_before_tfidf(tmp_path, capsys, monkeypatch):
    # a two-document corpus has too few distinct vectors for a curve, so
    # --k-max 0 used to pass there and fail on larger corpora
    path = tmp_path / "two.jsonl"
    cp.save_jsonl(path, [cp.Document("a", "red fox"), cp.Document("b", "blue jay")])
    fitted = []
    monkeypatch.setattr(cp, "tfidf_fit", fitted.append)
    for flags, message in ((["--k-max", "0"], "k_max must be >= 3 for an elbow, got 0"),
                           (["--k-max", "2"], "k_max must be >= 3 for an elbow, got 2"),
                           (["--k", "0"], "override must be >= 1, got 0")):
        out = tmp_path / "o.json"
        assert main(["cluster", "--corpus", str(path), *flags, "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()
    assert fitted == []


def test_usage_errors_fail_before_reading_any_file(tmp_path, capsys, monkeypatch):
    read = []
    monkeypatch.setattr(ad, "read_checkpoint", read.append)
    monkeypatch.setattr(cp, "load_jsonl", read.append)
    missing, out = str(tmp_path / "missing"), str(tmp_path / "out")
    for argv, message in (
            (["analyze", "--checkpoints", missing, "--out", out],
             "analyze needs >= 2 --checkpoints, got 1"),
            (["cluster", "--corpus", missing, "--k-max", "2", "--out", out],
             "k_max must be >= 3 for an elbow, got 2"),
            (["cluster", "--corpus", missing, "--k", "0", "--out", out],
             "override must be >= 1, got 0")):
        assert main(argv) == 1
        assert message in capsys.readouterr().err
    assert read == []
    assert not Path(out).exists()


def test_unusable_bench_out_fails_before_any_seed(tmp_path, corpus_file, capsys, monkeypatch):
    # and cluster's --out, before any clustering
    ran = []
    monkeypatch.setitem(experiments.SUITES, "obs2", ran.append)
    monkeypatch.setattr(clustering, "init_hydra_from_corpus", lambda *a, **kw: ran.append(a))
    for command in (["bench", "--suite", "obs2", "--seeds", "2"],
                    ["cluster", "--corpus", str(corpus_file)]):
        for out in (tmp_path / "nodir" / "x.json", tmp_path):
            assert main([*command, "--out", str(out)]) == 2
            assert "must be a file in an existing directory" in capsys.readouterr().err
    assert ran == []
    assert not (tmp_path / "nodir").exists()


@pytest.mark.parametrize("train_per_task", [1, 2, 3])
def test_synthetic_config_with_few_train_rows_trains_and_evals(tmp_path, capsys,
                                                                train_per_task):
    # a few train rows miss classes that the eval rows have
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"steps": 4, "dataset": {
        "synthetic": "interference", "train_per_task": train_per_task, "eval_per_task": 16}}))
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert main(["eval", "--config", str(cfg_path),
                 "--checkpoint", str(out / "checkpoint.txt")]) == 0


def test_train_rejects_zero_steps(tmp_path, corpus_file, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_train_cfg(corpus_file, steps=0)))
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 1


def _run_cli(args, **env):
    """Run the CLI in a fresh interpreter, so an uncaught error prints a traceback."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    full_env = dict(os.environ, PYTHONPATH=src, **env)
    return subprocess.run([sys.executable, "-m", "hydra_peft.cli", *args],
                          env=full_env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("margin", [100.0, float("nan"), float("inf"), -1.0])
def test_train_rejects_an_xor_margin_that_keeps_no_samples(tmp_path, capsys, margin):
    # json writes NaN and Infinity, which the config reader accepts
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"steps": 2, "dataset": {
        "synthetic": "xor-components", "level": 1, "margin": margin}}))
    start = time.perf_counter()
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 1
    assert time.perf_counter() - start < 1.0
    assert "margin" in capsys.readouterr().err


def test_train_rejects_zero_eval_interval(tmp_path, corpus_file):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_train_cfg(corpus_file, eval_interval=0)))
    proc = _run_cli(["train", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
    assert proc.returncode == 1
    assert "eval_interval" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("threads", ["x", "0", "-2", "1.5"])
def test_bench_rejects_bad_thread_count(threads):
    proc = _run_cli(["bench", "--suite", "het", "--seeds", "1"],
                    HYDRA_PEFT_THREADS=threads)
    assert proc.returncode == 1
    assert "HYDRA_PEFT_THREADS" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_bench_worker_pool_writes_serial_bytes(tmp_path):
    for suite in ("obs2", "obs1"):
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"{suite}_{threads}.json"
            proc = _run_cli(["bench", "--suite", suite, "--seeds", "2", "--out", str(out)],
                            HYDRA_PEFT_THREADS=threads)
            assert proc.returncode == 0, proc.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1], suite


def test_train_zero_lr_flat_curve(tmp_path, corpus_file, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_train_cfg(corpus_file, learning_rate=0.0, steps=20)))
    out_dir = tmp_path / "flat"
    assert main(["train", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
    capsys.readouterr()
    rows = (out_dir / "report.csv").read_text().strip().split("\n")[1:]
    losses = {row.split(",")[1] for row in rows}
    assert len(losses) == 1


def _save(path, scheme, adapter):
    ad.write_checkpoint(path, {"scheme": scheme, "rank": str(adapter.rank),
                               "alpha": repr(adapter.alpha)}, dict(adapter.named_params("adapter")))


def test_merge_infer_on_trained_checkpoint(tmp_path, capsys):
    hy = ad.HydraAdapter.init(6, 5, 2, 3, SeededRng(1))
    rng = SeededRng(2)
    for e in hy.experts:
        e[:] = rng.normal(e.size).reshape(e.shape)
    hy.w_gate[:] = rng.normal(hy.w_gate.size).reshape(hy.w_gate.shape)
    path = tmp_path / "hydra.txt"
    _save(path, "hydra", hy)
    assert main(["merge-infer", "--checkpoint", str(path), "--trials", "32",
                 "--seed", "4"]) == 0
    assert capsys.readouterr().out == "max |merge - moe|: 8.882e-16\n"


def test_merge_infer_rejects_plain_adapter(tmp_path):
    lora = ad.LoraAdapter.init(4, 4, 2, SeededRng(0))
    path = tmp_path / "lora.txt"
    _save(path, "lora", lora)
    assert main(["merge-infer", "--checkpoint", str(path)]) == 1


def test_analyze_requires_two_checkpoints(tmp_path):
    lora = ad.LoraAdapter.init(4, 4, 2, SeededRng(0))
    path = tmp_path / "one.txt"
    _save(path, "lora", lora)
    assert main(["analyze", "--checkpoints", str(path),
                 "--out", str(tmp_path / "a")]) == 1


def test_analyze_writes_reports(tmp_path, capsys):
    paths = []
    for i in range(3):
        lora = ad.LoraAdapter.init(4, 4, 2, SeededRng(i))
        lora.b[:] = SeededRng(10 + i).normal(8).reshape(4, 2)
        p = tmp_path / f"task{i}.txt"
        _save(p, "lora", lora)
        paths.append(str(p))
    out_dir = tmp_path / "analysis"
    assert main(["analyze", "--checkpoints", *paths, "--out", str(out_dir),
                 "--svg"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["d_b"] > 0
    assert (out_dir / "distances.csv").exists()
    assert (out_dir / "embedding.csv").exists()
    assert (out_dir / "embedding.svg").exists()


def test_analyze_labels_colliding_stems_by_path(tmp_path, capsys):
    paths = []
    for i, run in enumerate(["run", "run_b"]):
        lora = ad.LoraAdapter.init(4, 4, 2, SeededRng(i))
        lora.b[:] = SeededRng(10 + i).normal(8).reshape(4, 2)
        (tmp_path / run).mkdir()
        _save(tmp_path / run / "checkpoint.txt", "lora", lora)
        paths.append(str(tmp_path / run / "checkpoint.txt"))
    out_dir = tmp_path / "analysis"
    assert main(["analyze", "--checkpoints", *paths, "--out", str(out_dir)]) == 0
    capsys.readouterr()
    rows = (out_dir / "embedding.csv").read_text().splitlines()[1:]
    ids = sorted({row.split(",")[0].rsplit(":", 1)[0] for row in rows})
    assert ids == [str(tmp_path / "run" / "checkpoint"), str(tmp_path / "run_b" / "checkpoint")]
    pair = (out_dir / "distances.csv").read_text().splitlines()[1].split(",")
    assert {p.rsplit(":", 1)[0] for p in pair[:2]} <= set(ids)


def test_bench_obs1_single_seed(tmp_path, capsys):
    out = tmp_path / "bench.json"
    assert main(["bench", "--suite", "obs1", "--seeds", "1", "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["suite"] == "obs1"
    payload = json.loads(out.read_text())
    assert len(payload["rows"]) == 1


def test_cluster_rerun_is_byte_identical(tmp_path, corpus_file, capsys):
    out1, out2 = tmp_path / "c1.json", tmp_path / "c2.json"
    for out in (out1, out2):
        main(["cluster", "--corpus", str(corpus_file), "--k-max", "6",
              "--seed", "3", "--out", str(out)])
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def _readme_walkthrough() -> str:
    """The first bash block of the README's "CLI walkthrough" section."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## CLI walkthrough", 1)[1]
    return section.split("```bash\n", 1)[1].split("```", 1)[0]


def test_readme_walkthrough_runs_as_written(tmp_path):
    bin_dir, work = tmp_path / "bin", tmp_path / "work"
    bin_dir.mkdir()
    work.mkdir()
    log = tmp_path / "exits.log"
    # `hydra-peft` and `python3` on PATH run this interpreter on this checkout
    (bin_dir / "hydra-peft").write_text(
        f'#!/bin/sh\n"{sys.executable}" -m hydra_peft.cli "$@"\n'
        f'code=$?\necho "$1 $code" >> "{log}"\nexit $code\n')
    (bin_dir / "python3").write_text(f'#!/bin/sh\nexec "{sys.executable}" "$@"\n')
    for shim in bin_dir.iterdir():
        shim.chmod(0o755)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PATH=f"{bin_dir}{os.pathsep}{os.environ['PATH']}",
               PYTHONPATH=src)
    proc = subprocess.run(["bash", "-e", "-c", _readme_walkthrough()], cwd=work, env=env,
                          capture_output=True, text=True, timeout=600)
    steps = [line.split() for line in log.read_text().splitlines()]
    assert steps == [["cluster", "0"], ["train", "0"], ["train", "0"], ["eval", "0"],
                     ["merge-infer", "0"], ["analyze", "0"]], proc.stderr
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "k_selected: 3" in proc.stdout
    assert (work / "analysis" / "embedding.svg").exists()


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A small token-mode hydra run: (dir, config dict, checkpoint path)."""
    root = tmp_path_factory.mktemp("trained")
    corpus_path = root / "corpus.jsonl"
    cp.save_jsonl(corpus_path, cp.synth_corpus(3, 30, 0.8, seed=7))
    cfg = _train_cfg(corpus_path, steps=4, pretrain_steps=2)
    (root / "cfg.json").write_text(json.dumps(cfg))
    assert main(["train", "--config", str(root / "cfg.json"), "--out", str(root / "run")]) == 0
    return root, cfg, root / "run" / "checkpoint.txt"


def _bad_config(field, value):
    def make(root, cfg, ckpt):
        path = root / f"bad_{field}.json"
        if field == "dataset" and value == "latin-1":
            corpus = root / "latin1.jsonl"
            corpus.write_bytes('{"id": "a", "text": "café", "task": "t"}\n'.encode("latin-1"))
            value_ = {"corpus": str(corpus)}
        else:
            value_ = value
        path.write_text(json.dumps({**cfg, field: value_}))
        return ["train", "--config", str(path), "--out", str(root / f"out_{field}")]
    return make


def _eval_with(**overrides):
    def make(root, cfg, ckpt):
        path = root / "eval_cfg.json"
        path.write_text(json.dumps({**cfg, **overrides}))
        return ["eval", "--config", str(path), "--checkpoint", str(ckpt)]
    return make


def _edited_checkpoint(command, edit):
    def make(root, cfg, ckpt):
        path = root / "edited.txt"
        path.write_text(edit(ckpt.read_text()))
        if command == "eval":
            (root / "cfg_ok.json").write_text(json.dumps(cfg))
            return ["eval", "--config", str(root / "cfg_ok.json"), "--checkpoint", str(path)]
        return ["merge-infer", "--checkpoint", str(path)]
    return make


def _tensor_copies(text, name, copies):
    """checkpoint text with tensor name's header and data lines given copies times"""
    lines = text.split("\n")
    i = lines.index(next(line for line in lines if line.startswith(f"tensor {name} ")))
    return "\n".join(lines[:i] + lines[i:i + 2] * copies + lines[i + 2:])


def _corpus_with_empty_doc(root, cfg, ckpt):
    corpus = root / "empty_doc.jsonl"
    corpus.write_text(Path(cfg["dataset"]["corpus"]).read_text()
                      + '{"id": "blank", "text": "?!", "task": "t0"}\n')
    return _bad_config("dataset", {"corpus": str(corpus)})(root, cfg, ckpt)


def _non_utf8_config(root, cfg, ckpt):
    path = root / "latin1_cfg.json"
    path.write_bytes(b'{"scheme": "caf\xe9"}')
    return ["train", "--config", str(path), "--out", str(root / "x")]


def _merge_input(name, text):
    def make(root, cfg, ckpt):
        (root / name).write_text(text)
        return ["merge-infer", "--checkpoint", str(ckpt), "--input", str(root / name)]
    return make


def _tiny_hydra_input(name, a, b, entry):
    """merge-infer on a 1x1 hydra checkpoint (A = a, both experts b, an even
    gate) and the input [entry]; seed 4 draws the base weight 0.38."""
    def make(root, cfg, ckpt):
        hy = ad.HydraAdapter.init(1, 1, 1, 2, SeededRng(0))
        hy.a_shared[:], hy.w_gate[:] = a, 0.0
        for e in hy.experts:
            e[:] = b
        _save(root / f"{name}.txt", "hydra", hy)
        (root / f"{name}.json").write_text(json.dumps([entry]))
        return ["merge-infer", "--checkpoint", str(root / f"{name}.txt"),
                "--input", str(root / f"{name}.json"), "--seed", "4"]
    return make


def _corpus_spec(**extra):
    """train on the fixture's corpus with extra keys in its dataset spec"""
    def make(root, cfg, ckpt):
        return _bad_config("dataset", {**cfg["dataset"], **extra})(root, cfg, ckpt)
    return make


def _hydra_checkpoint(name, **tensors):
    """merge-infer on a rank-2 hydra checkpoint with some tensors replaced"""
    def make(root, cfg, ckpt):
        hy = ad.HydraAdapter.init(4, 4, 2, 2, SeededRng(0))
        _save(root / f"{name}.txt", "hydra", replace(hy, **tensors))
        return ["merge-infer", "--checkpoint", str(root / f"{name}.txt")]
    return make


def _with_meta(line, bad):
    return _edited_checkpoint("merge-infer", lambda t: t.replace(f"{line}\n", f"{bad}\n"))


def _out_at(command, *under):
    """command on the fixture's files with --out a regular file, or a path under one"""
    def make(root, cfg, ckpt):
        (root / "afile").write_text("x")
        head = {"analyze": ["analyze", "--checkpoints", str(ckpt)],
                "train": ["train", "--config", str(root / "cfg.json")],
                "cluster": ["cluster", "--corpus", cfg["dataset"]["corpus"]],
                "bench": ["bench", "--suite", "obs1", "--seeds", "1"]}[command]
        return [*head, "--out", str(root.joinpath("afile", *under))]
    return make


def _analyze_full_run(root, cfg, ckpt):
    """analyze a full fine-tuning run's checkpoint, which holds only base.* tensors,
    next to the fixture's"""
    (root / "full.json").write_text(json.dumps({**cfg, "scheme": "full", "steps": 1}))
    assert main(["train", "--config", str(root / "full.json"), "--out", str(root / "full")]) == 0
    return ["analyze", "--checkpoints", str(root / "full" / "checkpoint.txt"), str(ckpt),
            "--out", str(root / "an_full")]


def _cluster(*flags):
    """cluster the fixture's corpus with extra flags"""
    def make(root, cfg, ckpt):
        return ["cluster", "--corpus", cfg["dataset"]["corpus"], *flags,
                "--out", str(root / "clusters.json")]
    return make


def _cluster_on(name, text, *flags):
    """cluster a corpus file holding text (None: no such file) with extra flags"""
    def make(root, cfg, ckpt):
        if text is not None:
            (root / name).write_text(text)
        return ["cluster", "--corpus", str(root / name), *flags,
                "--out", str(root / "clusters.json")]
    return make


def _train_with(name, **overrides):
    """train on the fixture's config with several fields overridden"""
    def make(root, cfg, ckpt):
        path = root / f"{name}.json"
        path.write_text(json.dumps({**cfg, **overrides}))
        return ["train", "--config", str(path), "--out", str(root / f"out_{name}")]
    return make


def _config_text(text):
    """train on the fixture's config with text spliced in after its opening brace"""
    def make(root, cfg, ckpt):
        path = root / "spliced.json"
        path.write_text("{" + text + ", " + json.dumps(cfg)[1:])
        return ["train", "--config", str(path), "--out", str(root / "out_spliced")]
    return make


def _argv(*argv):
    return lambda root, cfg, ckpt: [str(ckpt) if a is None else a for a in argv]


def _env(make, **env):
    """make's argv, run with env added to the CLI's environment"""
    return lambda root, cfg, ckpt: (make(root, cfg, ckpt), env)


DEEP = "[" * 100_000 + "]" * 100_000  # past the JSON decoder's recursion limit


MALFORMED = [
    ("rank as a string", _bad_config("rank", "4"), 1, "rank must be an integer"),
    ("rank above d_model", _bad_config("rank", 40), 1, "rank must be <= d_model"),
    ("split scheme", _bad_config("scheme", "split"), 1, "scheme must be one of"),
    ("fractional steps", _bad_config("steps", 2.5), 1, "steps must be an integer"),
    ("NaN learning rate", _bad_config("learning_rate", float("nan")), 1, "learning_rate"),
    ("train_head as a string", _bad_config("train_head", "yes"), 1, "train_head"),
    ("unknown synthetic option",
     _bad_config("dataset", {"synthetic": "interference", "bogus": 1}), 1, "bogus"),
    ("missing synthetic option", _bad_config("dataset", {"synthetic": "components"}), 1,
     "level"),
    ("synthetic option of the wrong type",
     _bad_config("dataset", {"synthetic": "interference", "train_per_task": "x"}), 1,
     "train_per_task must be int"),
    ("synthetic flag as a number",
     _bad_config("dataset", {"synthetic": "interference", "identical_tasks": 1}), 1,
     "identical_tasks must be bool"),
    ("no synthetic tasks", _bad_config("dataset", {"synthetic": "interference", "n_tasks": 0}),
     1, "n_tasks must be >= 1"),
    ("negative synthetic count",
     _bad_config("dataset", {"synthetic": "interference", "train_per_task": -3}), 1,
     "train_per_task must be >= 1"),
    ("zero synthetic train rows",
     _bad_config("dataset", {"synthetic": "interference", "train_per_task": 0}), 1,
     "train_per_task must be >= 1"),
    ("zero synthetic eval rows",
     _bad_config("dataset", {"synthetic": "components", "level": 1, "eval_per_comp": 0}), 1,
     "eval_per_comp must be >= 1"),
    ("negative shared features",
     _bad_config("dataset", {"synthetic": "components", "level": 1, "shared": -1}), 1,
     "shared must be >= 0"),
    ("corpus document without tokens", _corpus_with_empty_doc, 1, "'blank' has no tokens"),
    ("corpus path not a string", _bad_config("dataset", {"corpus": 3}), 1, "corpus"),
    ("corpus not UTF-8", _bad_config("dataset", "latin-1"), 2, "not UTF-8"),
    # far beyond any address space, so the first allocation fails at once
    ("d_model too large to allocate", _bad_config("d_model", 10**13), 2,
     "error: Unable to allocate"),
    # so large that numpy cannot even size the array
    ("d_model too large to size",
     _train_with("huge_d_model", d_model=10**18, dataset={"synthetic": "interference"}), 2,
     "error: Maximum allowed size exceeded"),
    ("corpus seq_len too large to size", _train_with("huge_seq_len", seq_len=10**18), 2,
     "error: array is too big"),
    # the router's r·N draw is sized before any expert is built
    ("expert count too large to size", _bad_config("experts", 10**18), 2,
     "error: array is too big"),
    ("xor-components margin that keeps no samples",
     _bad_config("dataset", {"synthetic": "xor-components", "level": 1, "margin": 100.0}), 1,
     "margin 100.0 rejects nearly every sample"),
    ("corpus spec with a model option", _corpus_spec(seq_len=12), 1,
     "a corpus dataset takes no other keys, got ['seq_len']"),
    ("corpus spec with a synthetic spec", _corpus_spec(synthetic="components", level=2), 1,
     "a corpus dataset takes no other keys, got ['level', 'synthetic']"),
    ("config not UTF-8", _non_utf8_config, 1, "not UTF-8"),
    ("eval: other alpha", _eval_with(alpha=30), 1, "alpha"),
    ("eval: other expert count", _eval_with(experts=2), 1, "experts=2"),
    ("eval: other scheme", _eval_with(scheme="lora"), 1, "scheme"),
    ("eval: other rank", _eval_with(rank=2), 1, "rank"),
    ("eval: other seed", _eval_with(seed=6), 1, "seed"),
    ("eval: other width", _eval_with(d_model=16), 1, "shape"),
    ("eval: no scheme line",
     _edited_checkpoint("eval", lambda t: t.replace("scheme: hydra\n", "")), 2,
     "missing metadata line 'scheme'"),
    ("merge-infer: no scheme line",
     _edited_checkpoint("merge-infer", lambda t: t.replace("scheme: hydra\n", "")), 2,
     "missing metadata line 'scheme'"),
    ("eval: missing tensor",
     _edited_checkpoint("eval", lambda t: _tensor_copies(t, "v_proj.B1", 0)), 2,
     "missing tensor v_proj.B1"),
    ("merge-infer: repeated tensor",
     _edited_checkpoint("merge-infer", lambda t: _tensor_copies(t, "v_proj.B1", 2)), 2,
     "repeated tensor v_proj.B1"),
    ("analyze: a full-scheme checkpoint", _analyze_full_run, 1, "has no adapter submodules"),
    ("checkpoint: zero rank", _with_meta("rank: 3", "rank: 0"), 2, "got rank 0, alpha 3.0"),
    ("checkpoint: negative rank", _with_meta("rank: 3", "rank: -2"), 2, "got rank -2"),
    ("checkpoint: infinite alpha", _with_meta("alpha: 3.0", "alpha: inf"), 2, "alpha inf"),
    ("checkpoint: NaN alpha", _with_meta("alpha: 3.0", "alpha: nan"), 2, "alpha nan"),
    ("checkpoint: repeated metadata key", _with_meta("rank: 3", "rank: 7\nrank: 3"), 2,
     "repeated metadata key 'rank'"),
    ("checkpoint: A rows other than rank", _hydra_checkpoint("a_rows", a_shared=np.zeros((3, 4))),
     2, "tensor adapter.A has shape (3, 4), but rank is 2"),
    ("checkpoint: B columns other than rank",
     _hydra_checkpoint("b_cols", experts=[np.zeros((4, 2)), np.zeros((4, 3))]), 2,
     "tensor adapter.B1 has shape (4, 3), but rank is 2"),
    ("checkpoint: Wg rows other than rank", _hydra_checkpoint("wg_rows", w_gate=np.zeros((1, 2))),
     2, "tensor adapter.Wg has shape (1, 2), but rank is 2"),
    ("checkpoint: split scheme",
     _edited_checkpoint("merge-infer", lambda t: t.replace("scheme: hydra", "scheme: split")), 2,
     "adapter tensors under unknown scheme 'split'"),
    ("checkpoint: hydra experts with other B rows",
     _hydra_checkpoint("b_rows", experts=[np.zeros((4, 2)), np.zeros((5, 2))]), 2,
     "tensor adapter.B1 has shape (5, 2), but adapter.B0 has 4 rows"),
    # a zero-size tensor's data line is empty, last in the file (Wg) or not
    ("checkpoint: Wg with no columns",
     _hydra_checkpoint("wg_empty", experts=[], w_gate=np.zeros((2, 0))), 2,
     "tensor adapter.Wg has zero size (2x0)"),
    ("checkpoint: B with no rows", _hydra_checkpoint("b_empty", experts=[np.zeros((0, 2))] * 2),
     2, "tensor adapter.B0 has zero size (0x2)"),
    ("checkpoint: A with no columns", _hydra_checkpoint("a_empty", a_shared=np.zeros((2, 0))), 2,
     "tensor adapter.A has zero size (2x0)"),
    ("merge-infer: unparseable input", _merge_input("input.json", "[1, 2,"), 2, "input.json"),
    ("merge-infer: input nested 100,000 deep", _merge_input("deep.json", DEEP), 2,
     "deep.json: not a JSON list of numbers (JSON nested too deeply)"),
    ("merge-infer: NaN input", _merge_input("nan.json", "[NaN" + ", 1" * 11 + "]"), 2,
     "nan.json: input vector has non-finite entries"),
    ("merge-infer: infinite input", _merge_input("inf.json", "[1" + ", Infinity" * 11 + "]"), 2,
     "inf.json: input vector has non-finite entries"),
    ("merge-infer: integer beyond float64",
     _merge_input("huge.json", "[" + "9" * 400 + ", 1" * 11 + "]"), 2,
     "huge.json: not a JSON list of numbers"),
    ("merge-infer: boolean entry", _merge_input("bool.json", "[true" + ", 1" * 11 + "]"), 2,
     "bool.json: not a JSON list of numbers"),
    ("merge-infer: string entry", _merge_input("str.json", '["1.5"' + ", 1" * 11 + "]"), 2,
     "str.json: not a JSON list of numbers"),
    ("merge-infer: a number, not a list", _merge_input("one.json", "3"), 2,
     "one.json: not a JSON list of numbers"),
    ("merge-infer: overflowing input", _merge_input("big.json", "[1e308" + ", 1e308" * 11 + "]"),
     2, "big.json: input vector overflows the forward"),
    # every product is finite; 0.38 x + x overflows in the base-plus-adapter add
    ("merge-infer: input overflowing only in an add", _tiny_hydra_input("add", 1.0, 1.0, 1.7e308),
     2, "add.json: input vector overflows the forward"),
    # the checkpoint overflows at x = 1 too, so the input is not blamed
    ("merge-infer: overflowing checkpoint", _tiny_hydra_input("ckpt", 1e200, 1e200, 1e9), 3,
     "invariant violation: matmul produced non-finite entries"),
    ("merge-infer: zero trials", _argv("merge-infer", "--checkpoint", None, "--trials", "0"), 1,
     "--trials must be >= 1, got 0"),
    ("params: rank above min(d, k)",
     _argv("params", "--scheme", "lora", "--rank", "9", "--d", "4", "--k", "4", "--layers", "1",
           "--matrices-per-layer", "1", "--base-total", "10"), 1,
     "usage error: rank 9 outside [1, min(4, 4)]"),
    ("config: repeated key", _config_text('"rank": 2'), 1, "config: repeated key 'rank'"),
    ("config: repeated dataset key",
     _config_text('"dataset": {"corpus": "a.jsonl", "corpus": "b.jsonl"}'), 1,
     "config: repeated key 'corpus'"),
    ("config: a value nested 100,000 deep", _config_text('"rank": ' + DEEP), 1,
     "usage error: config: JSON nested too deeply"),
    ("analyze: --out a file", _out_at("analyze"), 2, "afile is not a directory"),
    ("analyze: --out under a file", _out_at("analyze", "sub"), 2, "afile is not a directory"),
    ("train: --out under a file", _out_at("train", "sub"), 2, "afile is not a directory"),
    ("cluster: --out under a file", _out_at("cluster", "c.json"), 2,
     "must be a file in an existing directory"),
    ("bench: --out under a file", _out_at("bench", "b.json"), 2,
     "must be a file in an existing directory"),
    ("cluster: --k-max 2", _cluster("--k-max", "2"), 1, "k_max must be >= 3 for an elbow, got 2"),
    ("cluster: --k-max 0", _cluster("--k-max", "0"), 1, "k_max must be >= 3 for an elbow, got 0"),
    ("cluster: --k 0", _cluster("--k", "0"), 1, "override must be >= 1, got 0"),
    ("cluster: --k-max 2 on a corpus line without text",
     _cluster_on("no_text.jsonl", '{"id": "a"}\n', "--k-max", "2"), 1,
     "k_max must be >= 3 for an elbow, got 2"),
    ("cluster: --k 0 on a missing corpus", _cluster_on("missing.jsonl", None, "--k", "0"), 1,
     "override must be >= 1, got 0"),
    ("cluster: a corpus line repeating a key",
     _cluster_on("repeated_key.jsonl",
                 '{"id": "a", "text": "red fox", "task": "t0", "id": "b"}\n'), 2,
     "repeated_key.jsonl: line 1: repeated key 'id'"),
    ("cluster: a corpus line nested 100,000 deep",
     _cluster_on("deep.jsonl", '{"id": "a", "text": "x", "task": ' + DEEP + "}\n"), 2,
     "deep.jsonl: line 1: JSON nested too deeply"),
    ("cluster: a corpus line whose text is not a string",
     _cluster_on("null_text.jsonl", '{"id": "a", "text": null}\n'), 2,
     "null_text.jsonl: line 1: text must be a string, got None"),
    ("cluster: a corpus line whose task is a number",
     _cluster_on("int_task.jsonl", '{"id": "a", "text": "x", "task": 2}\n'), 2,
     "int_task.jsonl: line 1: task must be a string or null, got 2"),
    ("cluster: a corpus line whose id is a list",
     _cluster_on("list_id.jsonl", '{"id": [1], "text": "x"}\n'), 2,
     "list_id.jsonl: line 1: id must be a string or an integer, got [1]"),
    ("cluster: a repeated document id",
     _cluster_on("dup_id.jsonl", '{"id": "a", "text": "x"}\n{"id": "a", "text": "y"}\n'), 2,
     "dup_id.jsonl: line 2: duplicate document id 'a'"),
    ("cluster: a missing corpus", _cluster_on("absent.jsonl", None), 2,
     "No such file or directory"),
    ("analyze: one missing checkpoint",
     lambda root, cfg, ckpt: ["analyze", "--checkpoints", str(root / "nope.txt"),
                              "--out", str(root / "an")], 1,
     "analyze needs >= 2 --checkpoints, got 1"),
    # the update overflows; the evaluation after it is the first to see it
    ("train: divergence first seen in the last eval",
     _train_with("diverge_last", learning_rate=1e200, steps=1), 2,
     "error: step 1: matmul produced non-finite entries"),
    ("train: divergence first seen in an interval eval",
     _train_with("diverge_interval", learning_rate=1e200, steps=3, eval_interval=1), 2,
     "error: step 1: matmul produced non-finite entries"),
    ("bench: zero seeds", _argv("bench", "--suite", "obs1", "--seeds", "0"), 1,
     "--seeds must be >= 1, got 0"),
    ("bench: negative seeds", _argv("bench", "--suite", "het", "--seeds", "-2"), 1,
     "--seeds must be >= 1, got -2"),
    ("bench: HYDRA_PEFT_THREADS=0",
     _env(_argv("bench", "--suite", "het", "--seeds", "1"), HYDRA_PEFT_THREADS="0"), 1,
     "HYDRA_PEFT_THREADS must be an integer >= 1, got '0'"),
]


@pytest.mark.parametrize("make,code,message", [c[1:] for c in MALFORMED],
                         ids=[c[0] for c in MALFORMED])
def test_malformed_input_exit_codes(trained, make, code, message):
    argv, env = make(*trained), {}
    if isinstance(argv, tuple):  # argv and an environment to add
        argv, env = argv
    proc = _run_cli(argv, **env)
    assert proc.returncode == code, proc.stderr
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
    if argv[0] == "train":  # a failed run writes no run directory
        assert not Path(argv[argv.index("--out") + 1]).exists()


def test_readme_exit_code_table_lists_every_malformed_case():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n### Exit codes\n", 1)[1].split("\n#", 1)[0]
    lines = [line for line in section.splitlines() if line.startswith("|")]
    assert lines[:2] == ["| input | exit | case |", "| --- | --- | --- |"]
    # every row names a case by its id, in backticks, and no case twice
    cases = [re.fullmatch(r"\| [^|]+ \| (\d) \| `([^`|]+)` \|", line).groups()
             for line in lines[2:]]
    assert len(cases) == len(set(cases))
    assert {(case, int(code)) for code, case in cases} == {(c[0], c[2]) for c in MALFORMED}
