from dataclasses import replace

import numpy as np
import pytest

from hydra_peft import toy_model as tm
from hydra_peft import trainer as tr
from hydra_peft import corpus as cp
from hydra_peft.adapters import LoraAdapter
from hydra_peft.errors import ContractError, TrainingAborted, UsageError
from hydra_peft.linalg import SeededRng


def _weight_bytes(model, skip=()):
    return {k: v.tobytes() for k, v in model.weights.items() if k not in skip}


def _small_data(seed=0):
    return tr.interference_data(seed, train_per_task=64, eval_per_task=32)


def test_config_validation():
    with pytest.raises(UsageError):
        tr.TrainConfig(steps=0).validate()
    with pytest.raises(UsageError):
        tr.TrainConfig(learning_rate=-0.1).validate()
    with pytest.raises(UsageError):
        tr.TrainConfig(scheme="dora").validate()
    with pytest.raises(UsageError):
        tr.TrainConfig(optimizer="lion").validate()
    assert tr.TrainConfig(learning_rate=0.0).validate()  # lr 0 is a legal probe


def test_config_from_json_rejects_unknown_keys():
    with pytest.raises(UsageError, match="unknown config keys"):
        tr.TrainConfig.from_json('{"scheme": "lora", "rnk": 2}')
    with pytest.raises(UsageError, match="JSON"):
        tr.TrainConfig.from_json("{nope")


def test_zero_learning_rate_changes_nothing():
    data = _small_data()
    model = tm.dense_model(16, 12, 4, seed=2)
    tm.attach(model, "v_proj", "lora", 2, seed=3)
    before = _weight_bytes(model)
    b_before = model.adapters["v_proj"].a.tobytes()
    cfg = tr.TrainConfig(scheme="lora", rank=2, steps=30, learning_rate=0.0,
                         batch_size=8, seed=1, eval_interval=10)
    rep = tr.train(model, data, cfg)
    assert _weight_bytes(model) == before
    assert model.adapters["v_proj"].a.tobytes() == b_before
    assert rep.final_loss == rep.rows[0]["loss"]


@pytest.mark.parametrize("scheme,n", [("lora", 1), ("hydra", 3)])
def test_initial_loss_equals_frozen_base_loss(scheme, n):
    data = _small_data(3)
    base = tm.dense_model(16, 12, 4, seed=5)
    base_loss, _, _ = tr.evaluate(base, data)
    model = tm.clone_model(base)
    tm.attach(model, "v_proj", scheme, rank=2, seed=6, n=n)
    cfg = tr.TrainConfig(scheme=scheme, rank=2, experts=n, steps=5,
                         learning_rate=0.05, batch_size=8, seed=2)
    rep = tr.train(model, data, cfg)
    assert rep.rows[0]["step"] == 0
    assert rep.rows[0]["loss"] == base_loss


def test_training_is_deterministic():
    def run():
        data = _small_data(4)
        model = tm.dense_model(16, 12, 4, seed=7)
        tm.attach(model, "v_proj", "hydra", rank=2, seed=8, n=3)
        cfg = tr.TrainConfig(scheme="hydra", rank=2, experts=3, steps=40,
                             learning_rate=0.1, batch_size=8, seed=9, eval_interval=10)
        rep = tr.train(model, data, cfg)
        return rep.to_csv(), model.adapters["v_proj"].a_shared.tobytes()

    csv1, bytes1 = run()
    csv2, bytes2 = run()
    assert csv1 == csv2
    assert bytes1 == bytes2


def test_frozen_base_untouched_by_adapter_training():
    data = _small_data(5)
    model = tm.dense_model(16, 12, 4, seed=11)
    tm.attach(model, "v_proj", "hydra", rank=2, seed=12, n=2)
    before = _weight_bytes(model, skip=("head",))
    head_before = model.weights["head"].tobytes()
    cfg = tr.TrainConfig(scheme="hydra", rank=2, experts=2, steps=30,
                         learning_rate=0.1, batch_size=8, seed=13)
    tr.train(model, data, cfg)
    assert _weight_bytes(model, skip=("head",)) == before
    assert model.weights["head"].tobytes() != head_before  # head was trainable


def test_gate_usage_is_a_distribution():
    data = _small_data(6)
    model = tm.dense_model(16, 12, 4, seed=14)
    tm.attach(model, "v_proj", "hydra", rank=2, seed=15, n=4)
    cfg = tr.TrainConfig(scheme="hydra", rank=2, experts=4, steps=20,
                         learning_rate=0.1, batch_size=8, seed=16)
    rep = tr.train(model, data, cfg)
    gates = np.asarray(rep.gate_usage)
    assert gates.shape == (4,)
    assert abs(gates.sum() - 1.0) < 1e-9
    assert ((gates >= 0.0) & (gates <= 1.0)).all()


def test_nan_loss_aborts_with_step():
    data = _small_data(7)
    model = tm.dense_model(16, 12, 4, seed=17)
    tm.attach(model, "v_proj", "lora", 2, seed=18)
    cfg = tr.TrainConfig(scheme="lora", rank=2, steps=200, learning_rate=1e9,
                         batch_size=8, seed=19)
    with pytest.raises(TrainingAborted, match=r"step \d+"):
        tr.train(model, data, cfg)


def test_gradient_overflow_aborts_before_any_update():
    # embed maps each 1e10 input to 1 and head[0, 0] gives logits (1e300, 0):
    # the loss is finite (1e300), but the embed gradient, about 2.5e299 per
    # unit of input times 1e10, overflows in backward
    model = tm.dense_model(2, 2, 2, seed=0, hidden=2)
    for w in model.weights.values():
        w[:] = 0.0
    model.weights["embed"][:] = 1e-10 * np.eye(2)
    model.weights["head"][0, 0] = 1e300
    x = np.full((4, 2), 1e10)
    labels = np.ones(4, dtype=np.int64)
    data = tr.Dataset(train_inputs=x, train_labels=labels, eval_inputs=x, eval_labels=labels)
    before = _weight_bytes(model)
    cfg = tr.TrainConfig(scheme="full", steps=3, learning_rate=0.1, batch_size=4, seed=0)
    with pytest.raises(TrainingAborted, match="matmul produced non-finite") as err:
        tr.train(model, data, cfg)
    assert err.value.step == 1
    assert _weight_bytes(model) == before


def _rebuilt_train(model, data, cfg):
    """The training loop before graphs were replayed: a fresh graph every
    step and a per-array optimizer. Returns the report rows."""
    trainable = "all" if cfg.scheme == "full" else (
        "adapters+head" if cfg.train_head else "adapters")
    rng = SeededRng(cfg.seed).derive("train-loop")
    rows = []

    def record(step):
        loss, acc, gates = tr.evaluate(model, data)
        rows.append({"step": step, "loss": loss, "acc": acc, "gates": tr._gate_row(gates)})

    record(0)
    refs = tm.param_refs(model, trainable)
    ms = {k: np.zeros_like(v) for k, v in refs.items()}
    vs = {k: np.zeros_like(v) for k, v in refs.items()}
    for step in range(1, cfg.steps + 1):
        idx = rng.integers(cfg.batch_size, data.n_train())
        with np.errstate(all="ignore"):
            graph = tm.build_graph(model, data.train_batch(idx), trainable=trainable)
            grads = graph.tape.backward(graph.loss_slot)
        for name, arr in refs.items():
            g = grads[name]
            if cfg.optimizer == "sgd":
                arr -= cfg.learning_rate * g
            else:
                m, v = ms[name], vs[name]
                m *= tr.ADAM_BETA1
                m += (1 - tr.ADAM_BETA1) * g
                v *= tr.ADAM_BETA2
                v += (1 - tr.ADAM_BETA2) * g * g
                m_hat = m / (1 - tr.ADAM_BETA1 ** step)
                v_hat = v / (1 - tr.ADAM_BETA2 ** step)
                arr -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + tr.ADAM_EPS)
        if step % cfg.eval_interval == 0 or step == cfg.steps:
            record(step)
    return rows


def _dense_case(scheme, n=1):
    data = _small_data(4)
    model = tm.dense_model(16, 12, 4, seed=30)
    if scheme != "full":
        tm.attach(model, "v_proj", scheme, 2, seed=31, n=n)
    cfg = tr.TrainConfig(scheme=scheme, rank=2, experts=n, steps=24, learning_rate=0.02,
                         optimizer="adam", batch_size=8, seed=32, eval_interval=10)
    return model, data, cfg


def _token_case():
    # every other document is cut to 3 of its 6 tokens, so batches of 2 come
    # both padded and unpadded: two graph signatures
    docs = cp.synth_corpus(2, 12, 0.8, seed=5, doc_len=6)
    docs = [cp.Document(d.id, " ".join(d.text.split()[: 3 if i % 2 else 6]), d.task)
            for i, d in enumerate(docs)]
    data, vocab, classes = tr.token_dataset_from_corpus(docs, seq_len=6, seed=5)
    model = tm.token_model(len(vocab) + 1, 8, len(classes), seed=33)
    for proj in model.attachment_points():
        tm.attach(model, proj, "hydra", 2, seed=34, n=3)
    cfg = tr.TrainConfig(scheme="hydra", rank=2, experts=3, steps=20, learning_rate=0.1,
                         batch_size=2, seed=35, eval_interval=7)
    return model, data, cfg


@pytest.mark.parametrize("case,graphs", [
    (lambda: _dense_case("lora"), 1),
    (lambda: _dense_case("hydra", n=3), 1),
    (lambda: _dense_case("full"), 1),
    (_token_case, 2),
], ids=["lora", "hydra", "full", "tokens-padded-and-not"])
def test_replayed_training_matches_rebuilding_every_step(case, graphs, monkeypatch):
    model, data, cfg = case()
    oracle = tm.clone_model(model)
    built = []
    build = tm.build_graph
    monkeypatch.setattr(tm, "build_graph", lambda *a, **k: built.append(1) or build(*a, **k))
    rep = tr.train(model, data, cfg)
    n_evals = len(rep.rows)
    monkeypatch.setattr(tm, "build_graph", build)
    rows = _rebuilt_train(oracle, data, cfg)
    assert len(built) - n_evals == graphs  # one build per signature, the rest replays
    assert repr(rep.rows) == repr(rows)
    assert _weight_bytes(model) == _weight_bytes(oracle)
    names = tm.param_refs(model, "all")
    assert names.keys() == tm.param_refs(oracle, "all").keys()
    for name, arr in tm.param_refs(oracle, "all").items():
        assert names[name].tobytes() == arr.tobytes(), name


def test_replayed_step_rejects_bad_batches_like_a_fresh_build():
    model = tm.token_model(6, 8, 3, seed=0)
    tm.attach(model, "q_proj", "hydra", 2, seed=1, n=2)
    graphs = {}
    good = tm.Batch(inputs=np.array([[1, 2, 0], [3, 4, 5]]), labels=np.array([0, 2]))
    tm.run_graph(graphs, model, good, "adapters+head")
    bad = {  # each has the good batch's signature: shape (2, 3), padded
        "token id out of vocabulary range": ([[1, 2, 0], [3, 4, 6]], [0, 2]),
        "a token sample is all padding": ([[1, 2, 0], [0, 0, 0]], [0, 2]),
        "label out of class range": ([[1, 2, 0], [3, 4, 5]], [0, 3]),
    }
    for message, (inputs, labels) in bad.items():
        batch = tm.Batch(inputs=np.array(inputs), labels=np.array(labels))
        with pytest.raises(ContractError, match=message):
            tm.build_graph(model, batch)
        with pytest.raises(ContractError, match=message):
            tm.run_graph(graphs, model, batch, "adapters+head")
    assert len(graphs) == 1
    # the good batch's shape without padding: a graph of its own, with no pad mask
    unpadded = tm.Batch(inputs=np.array([[1, 2, 3], [3, 4, 5]]), labels=np.array([0, 2]))
    graph = tm.run_graph(graphs, model, unpadded, "adapters+head")
    fresh = tm.build_graph(model, unpadded)
    assert len(graphs) == 2 and "pad" not in graph.feeds
    assert graph.tape.value(graph.loss_slot) == fresh.tape.value(fresh.loss_slot)


def test_report_csv_shape():
    data = _small_data(8)
    model = tm.dense_model(16, 12, 4, seed=20)
    tm.attach(model, "v_proj", "hydra", rank=2, seed=21, n=2)
    cfg = tr.TrainConfig(scheme="hydra", rank=2, experts=2, steps=10,
                         learning_rate=0.05, batch_size=8, seed=22, eval_interval=5)
    rep = tr.train(model, data, cfg)
    lines = rep.to_csv().strip().split("\n")
    assert lines[0] == "step,loss,acc,gate_0,gate_1"
    assert len(lines) == 1 + len(rep.rows)
    assert rep.flop_tally > 0


@pytest.mark.parametrize("n_tasks,cfg,match", [
    (1, tr.TrainConfig(rank=8, steps=6), "need >= 2 tasks"),
    (2, tr.TrainConfig(rank=5, steps=6), "split evenly"),
    (2, tr.TrainConfig(rank=8, steps=5), "split evenly"),
], ids=["one-task", "rank", "steps"])
def test_observation1_requires_tasks_to_split_rank_and_steps(n_tasks, cfg, match):
    with pytest.raises(UsageError, match=match):
        tr.run_observation1(0, n_tasks, cfg)


def test_observation1_trains_one_pooled_adapter_and_one_lora_per_task(monkeypatch):
    cfg = tr.TrainConfig(scheme="lora", rank=8, steps=6, batch_size=8, pretrain_steps=2)
    calls = []
    train = tr.train

    def spy(model, data, cfg):
        calls.append((model.adapters.get("v_proj"), data, cfg))
        return train(model, data, cfg)

    monkeypatch.setattr(tr, "train", spy)
    tr.run_observation1(3, 2, cfg)
    full = tr.interference_data(3, n_tasks=2, classes=4)
    (_, _, pretrain), (pooled, pooled_data, pooled_cfg), *heads = calls
    assert pretrain.scheme == "full"
    assert isinstance(pooled, LoraAdapter) and pooled.rank == cfg.rank
    assert pooled_cfg.steps == cfg.steps
    assert np.array_equal(pooled_data.train_inputs, full.train_inputs)
    assert set(pooled_data.train_tasks) == {0, 1}
    assert len(heads) == 2
    for t, (head, data, head_cfg) in enumerate(heads):
        assert isinstance(head, LoraAdapter) and head.rank == cfg.rank // 2
        assert head_cfg.steps == cfg.steps // 2
        assert np.array_equal(data.train_inputs, full.train_inputs[full.train_tasks == t])
        assert np.array_equal(data.train_labels, full.train_labels[full.train_tasks == t])
        assert np.array_equal(data.eval_inputs, full.eval_inputs[full.eval_tasks == t])


def test_observation1_heads_update_at_the_pooled_scale(monkeypatch):
    cfg = tr.TrainConfig(scheme="lora", rank=8, steps=6, batch_size=8, pretrain_steps=2,
                         alpha=8.0)
    adapters = []
    train = tr.train

    def spy(model, data, cfg):
        adapters.append(model.adapters.get("v_proj"))
        return train(model, data, cfg)

    monkeypatch.setattr(tr, "train", spy)
    tr.run_observation1(3, 2, cfg)
    _, pooled, *heads = adapters
    assert (pooled.rank, pooled.alpha) == (8, 8.0)
    assert [(h.rank, h.alpha) for h in heads] == [(4, 4.0), (4, 4.0)]
    assert all(h.scaling == pooled.scaling for h in heads)


@pytest.mark.parametrize("harness,cfg", [
    (tr.run_observation1, tr.OBS1),
    (tr.run_observation2, tr.OBS2),
    (tr.run_heterogeneity, tr.HET),
], ids=["obs1", "obs2", "het"])
def test_harnesses_reject_an_invalid_config_as_usage(harness, cfg):
    with pytest.raises(UsageError, match="rank must be >= 1, got 0"):
        harness(0, cfg=replace(cfg, rank=0))


def test_observation1_smoke():
    cfg = tr.TrainConfig(scheme="lora", rank=8, steps=60, learning_rate=0.2,
                         batch_size=8, pretrain_steps=20, pretrain_lr=0.1)
    for seed in (0, 1):
        row = tr.run_observation1(seed, cfg=cfg)
        assert set(row) == {"seed", "loss_single", "loss_split", "win"}
        assert row["seed"] == seed
        assert row["win"] is (row["loss_split"] < row["loss_single"])


def test_observation1_homogeneous_control_reports_without_asserting():
    # identical tasks: no interference, so no systematic winner is expected;
    # the harness just reports the per-seed losses
    cfg = tr.TrainConfig(scheme="lora", rank=8, steps=40, learning_rate=0.2,
                         batch_size=8, pretrain_steps=10, pretrain_lr=0.1)
    row = tr.run_observation1(0, cfg=cfg, identical_tasks=True)
    assert np.isfinite(row["loss_single"])
    assert np.isfinite(row["loss_split"])


def test_two_class_separable_task_is_learned():
    # oracle: the classes are linearly separable by construction, so a
    # trained head + adapter drives the cross-entropy near zero
    rng = SeededRng(44)
    feat = 8
    w = rng.normal(feat)
    x_tr = rng.normal(300 * feat).reshape(300, feat)
    x_ev = rng.normal(100 * feat).reshape(100, feat)
    margin_tr = x_tr @ w
    margin_ev = x_ev @ w
    keep_tr = np.abs(margin_tr) > 0.3  # keep a margin so the optimum is sharp
    keep_ev = np.abs(margin_ev) > 0.3
    data = tr.Dataset(train_inputs=x_tr[keep_tr],
                      train_labels=(margin_tr[keep_tr] > 0).astype(np.int64),
                      eval_inputs=x_ev[keep_ev],
                      eval_labels=(margin_ev[keep_ev] > 0).astype(np.int64))
    model = tm.dense_model(feat, 12, 2, seed=45)
    tm.attach(model, "v_proj", "lora", 2, seed=46)
    cfg = tr.TrainConfig(scheme="lora", rank=2, steps=400, learning_rate=0.05,
                         optimizer="adam", batch_size=32, seed=47, eval_interval=100)
    rep = tr.train(model, data, cfg)
    assert rep.final_loss < 0.1


def test_observation2_identical_tasks_control():
    ctrl = tr.run_observation2(0, identical_tasks=True)
    dist = tr.run_observation2(0)
    # same data for every head: both divergences collapse toward zero
    assert ctrl["d_a"] < dist["d_a"]
    assert ctrl["d_b"] < dist["d_b"]
    assert dist["win"] is (dist["ratio"] > 1.0)


def test_observation2_zero_steps_is_degenerate():
    # the untrained control: at learning rate 0 no step moves a weight
    cfg = tr.TrainConfig(scheme="lora", rank=3, steps=1, learning_rate=0.0)
    row = tr.run_observation2(4, n_tasks=3, cfg=cfg)
    assert row["d_a"] == 0.0  # shared init seed: all A identical
    assert row["d_b"] == 0.0  # all B still zero
    assert row["win"] is False


def test_observation2_builds_models_of_cfg_d_model(monkeypatch):
    widths, alphas = [], []
    real_train = tr.train

    def train(model, data, cfg, **kwargs):
        widths.append((model.weights["v_proj"].shape, model.weights["mlp_in"].shape))
        alphas.extend(ad.alpha for ad in model.adapters.values())
        return real_train(model, data, cfg, **kwargs)

    monkeypatch.setattr(tr, "train", train)
    cfg = tr.TrainConfig(scheme="lora", rank=3, steps=1, learning_rate=0.1, d_model=12,
                         hidden=20, alpha=6.0)
    tr.run_observation2(4, n_tasks=3, cfg=cfg)
    assert len(widths) == 4 and set(widths) == {((12, 12), (20, 12))}
    assert alphas == [6.0] * 3  # one adapter per task; pretraining has none


def test_heterogeneity_rows_are_consistent():
    cfg = tr.TrainConfig(scheme="lora", rank=4, steps=40, learning_rate=0.05,
                         optimizer="adam", batch_size=16, eval_interval=40)
    rep = tr.run_heterogeneity(3, cfg, (1, 2))
    rows = rep["rows"]
    assert rep["seed"] == 3
    assert [r["level"] for r in rows] == [1, 2]
    for r in rows:
        assert r["gap"] == r["fft_metric"] - r["peft_metric"]
        assert r["fft_metric"] == -r["fft_loss"]
    assert rep["win"] is (rows[-1]["gap"] > rows[0]["gap"])
    with pytest.raises(UsageError):
        tr.run_heterogeneity(3, cfg, (2, 1))


def test_token_dataset_from_corpus():
    from hydra_peft import corpus as cp
    docs = cp.synth_corpus(2, 10, 0.7, seed=3, doc_len=6)
    data, vocab, classes = tr.token_dataset_from_corpus(docs, seq_len=6, seed=1)
    assert classes == ["component0", "component1"]
    assert data.train_inputs.shape[1] == 6
    assert data.train_inputs.max() <= len(vocab)
    assert data.n_train() + data.eval_inputs.shape[0] == 20
    untagged = [cp.Document("x", "words here")]
    with pytest.raises(UsageError):
        tr.token_dataset_from_corpus(untagged, seq_len=4, seed=0)


def test_token_dataset_from_non_ascii_corpus():
    from hydra_peft import corpus as cp
    texts = [("Καλημέρα κόσμε", "el"), ("Straße und Weg", "de"), ("γεια σου", "el"),
             ("gute Straße", "de")]
    docs = [cp.Document(f"d{i}", text, task) for i, (text, task) in enumerate(texts)]
    data, vocab, classes = tr.token_dataset_from_corpus(docs, seq_len=4, seed=0)
    assert {"καλημέρα", "κόσμε", "straße"} <= set(vocab)
    assert classes == ["de", "el"]


@pytest.mark.parametrize("scheme,train_head,trained", [
    ("full", True, {"embed", "v_proj", "o_proj", "mlp_in", "mlp_out", "head"}),
    ("hydra", True, {"head"}),
    ("lora", False, set()),
], ids=["full", "hydra-head", "lora-no-head"])
def test_run_from_config_synthetic_and_checkpoint(tmp_path, scheme, train_head, trained):
    cfg = tr.TrainConfig(scheme=scheme, rank=2, experts=2, steps=15,
                         learning_rate=0.05, batch_size=8, seed=4,
                         pretrain_steps=5, d_model=12, train_head=train_head,
                         dataset={"synthetic": "interference",
                                  "train_per_task": 32, "eval_per_task": 16})
    model, data, report = tr.run_from_config(cfg)
    assert list(model.adapters) == ([] if scheme == "full" else ["v_proj"])
    path = tmp_path / "ck.txt"
    tr.model_checkpoint(path, model, cfg)
    fresh, _ = tr.build_from_config(cfg)  # the base as training found it
    changed = {n for n, w in model.weights.items() if w.tobytes() != fresh.weights[n].tobytes()}
    from hydra_peft.adapters import read_checkpoint
    checkpoint = read_checkpoint(path)
    assert list(checkpoint[2]) == sorted(changed)  # its base.* tensors, in order
    assert changed == trained
    tr.restore_into_model(fresh, cfg, *checkpoint)
    l1, a1, _ = tr.evaluate(model, data)
    l2, a2, _ = tr.evaluate(fresh, data)
    assert l1 == l2 and a1 == a2
