"""Golden byte test: SHA-256 of the pipeline's deterministic outputs.

The hashes pin the exact bytes that `cluster`, `train` and `bench` (every
suite, one seed) write, so a change that moves them by accident fails Tier-1.
A change that moves them on purpose records the new hashes here and says so.

The bytes go through numpy's transcendental functions (`exp`, `log`, `sin`,
`cos`), whose results can differ by an ulp between CPU dispatch targets, so
the hashes are keyed by numpy version, machine and the dispatch targets numpy
has enabled. On any other key the test prints the key and skips. `analyze`
outputs are left out: they go through BLAS `@`.
"""

import hashlib
import io
import json
import platform
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from hydra_peft import corpus as cp
from hydra_peft import toy_model as tm
from hydra_peft.cli import main as cli_main


def _dispatch_key() -> str:
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    features = getattr(umath, "__cpu_features__", {})
    enabled = [t for t in getattr(umath, "__cpu_dispatch__", []) if features.get(t)]
    return f"numpy {np.__version__} / {platform.machine()} / {' '.join(enabled)}"


GOLDEN = {
    "numpy 2.4.6 / x86_64 / X86_V3 X86_V4 AVX512_ICL AVX512_SPR": {
        "pipeline/cluster.json":
            "f6cdf187a571091374f876cebbf9499d9c86a6d4c015ba4a9ee7ba3231c0e677",
        "cluster-k8.json":
            "c54e615517f952d37ccbcf874e8bcd73a08fb998d9124e342e697663803f6a0f",
        "pipeline/checkpoint.txt":
            "555472210313a5a3549f7a0ae0473ef66fc73b30b4c82ec83dfa1a3d8c46ab1a",
        "pipeline/report.csv":
            "e1498b73ff0f28e3aaa697c8b2a7b9ff0338620eff19b6342063a4e12a1a9111",
        "pipeline/report.json":
            "084125072bbd1db8863c120f0ea2f125e85213ce2ee12adca8562700bc87fb71",
        "dense/checkpoint.txt":
            "4347b77af4995d921e1cd38e5156ade2e9a60516ccc4fd581843b097c271bb0c",
        "dense/report.csv":
            "0b65bae285476d4abee612b984af973c2d6684a277ee8c209e194eca3580fa0b",
        "dense/report.json":
            "12408e9b75eaa19b7abc0eea8815b117bd272e88e182a1dac8173679d7d78b19",
        "token/checkpoint.txt":
            "cc9554ffc9e77a73064eeeb6f41e8719fd46e73502b252230ca982c161fd4c4c",
        "token/report.csv":
            "5d2246e05b5820fa7a66f594f4a1c2727bf40b64f7aa4197b79507ec91d299e2",
        "token/report.json":
            "d40dbd512aa4cf07d34807b18db9664047664bd927943dddedb8de29bebb9bfd",
        "obs1.json":
            "a1533eb66e6eb0c91a73c35a71ba3bb4022139316aa257aee4bad657d2dda7c4",
        "obs2.json":
            "5dab15c03bdc729abc487e9cfd1b7d9ede585792ecf8c6622dfaf0e1762e2a3e",
        "het.json":
            "e4fa26dc774901d7c8e3c39be8ab377e546098bca814288cb00e792cbace0086",
    },
}


@pytest.fixture
def golden():
    key = _dispatch_key()
    if key not in GOLDEN:
        print(f"no golden hashes for {key!r}")
        pytest.skip(f"no golden hashes for {key!r}")
    return GOLDEN[key]


def _cli(*argv) -> None:
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = cli_main(list(argv))
    assert code == 0, err.getvalue()


def _train(name: str, cfg: dict) -> dict[str, bytes]:
    """`train` under cfg, run in the working directory: its three outputs."""
    Path(f"{name}.json").write_text(json.dumps(cfg), encoding="utf-8")
    _cli("train", "--config", f"{name}.json", "--out", name)
    return {f"{name}/{out}": Path(name, out).read_bytes()
            for out in ("checkpoint.txt", "report.csv", "report.json")}


def _check(golden: dict, outputs: dict[str, bytes]) -> None:
    got = {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}
    assert got == {name: golden[name] for name in got}


def test_criterion_10_pipeline_bytes(golden, tmp_path, monkeypatch):
    # relative paths: report.json records the config, corpus path included
    monkeypatch.chdir(tmp_path)
    cp.save_jsonl("corpus.jsonl", cp.synth_corpus(3, 30, 0.8, seed=17))
    _cli("cluster", "--corpus", "corpus.jsonl", "--k-max", "6", "--seed", "9",
         "--out", "cluster.json")
    outputs = {"pipeline/cluster.json": Path("cluster.json").read_bytes()}
    outputs.update(_train("pipeline", {
        "scheme": "hydra", "rank": 3, "experts": 3, "steps": 50, "learning_rate": 0.1,
        "batch_size": 8, "seed": 12, "eval_interval": 25, "d_model": 12, "seq_len": 8,
        "pretrain_steps": 10, "dataset": {"corpus": "corpus.jsonl"}}))
    _check(golden, outputs)


def test_cluster_k_max_8_bytes(golden, tmp_path, monkeypatch):
    # 250 docs and k up to 8: the most work per assignment pass of any golden run
    monkeypatch.chdir(tmp_path)
    cp.save_jsonl("corpus.jsonl", cp.synth_corpus(5, 50, 0.8, seed=5))
    _cli("cluster", "--corpus", "corpus.jsonl", "--k-max", "8", "--seed", "3",
         "--out", "cluster.json")
    _check(golden, {"cluster-k8.json": Path("cluster.json").read_bytes()})


def test_dense_hydra_train_bytes(golden, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _check(golden, _train("dense", {
        "scheme": "hydra", "rank": 3, "experts": 3, "steps": 40, "learning_rate": 0.05,
        "optimizer": "adam", "batch_size": 16, "seed": 4, "eval_interval": 20,
        "d_model": 12, "pretrain_steps": 10,
        "dataset": {"synthetic": "xor-components", "level": 2, "max_levels": 2,
                    "train_per_comp": 64, "eval_per_comp": 32}}))


def test_token_train_with_padded_and_unpadded_batches_bytes(golden, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # documents of 3 to 13 words against seq_len 8: some batches hold only
    # full-length rows (an all-zero pad mask), others pad some rows
    docs = [cp.Document(id=f"d{i}", task=f"t{i % 3}",
                        text=" ".join(f"w{(i * 7 + j) % 19}t{i % 3}" for j in range(3 + i % 11)))
            for i in range(48)]
    cp.save_jsonl("corpus.jsonl", docs)
    padded, batch_leaves = set(), tm.batch_leaves

    def spy(model, batch):
        leaves = batch_leaves(model, batch)
        padded.add(not leaves["pool"].all())
        return leaves

    monkeypatch.setattr(tm, "batch_leaves", spy)
    outputs = _train("token", {
        "scheme": "lora", "rank": 2, "steps": 30, "learning_rate": 0.1, "batch_size": 4,
        "seed": 3, "eval_interval": 10, "d_model": 8, "seq_len": 8, "pretrain_steps": 5,
        "dataset": {"corpus": "corpus.jsonl"}})
    assert padded == {True, False}
    _check(golden, outputs)


@pytest.mark.parametrize("suite", ["obs1", "obs2", "het"])
def test_bench_bytes(golden, tmp_path, monkeypatch, suite):
    monkeypatch.setenv("HYDRA_PEFT_THREADS", "1")
    out = tmp_path / f"{suite}.json"
    _cli("bench", "--suite", suite, "--seeds", "1", "--out", str(out))
    _check(golden, {f"{suite}.json": out.read_bytes()})
