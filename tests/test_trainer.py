import numpy as np
import pytest

from hydra_peft import toy_model as tm
from hydra_peft import trainer as tr
from hydra_peft import corpus as cp
from hydra_peft.adapters import read_checkpoint, write_checkpoint
from hydra_peft.errors import ContractError, ShapeError, TrainingAborted, UsageError
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


@pytest.mark.parametrize("overflowing,step,message", [
    ("train", 1, "step 1: loss became inf"), ("eval", 0, "step 0: eval loss became inf")])
def test_non_finite_loss_aborts_before_any_update(overflowing, step, message):
    # embed and head[:, 0] = (1, -1) give a row (x, 0) the logits (x, -x): at
    # x = 1e308 every product is finite, but the cross-entropy of class 1 is inf
    model = tm.dense_model(2, 2, 2, seed=0, hidden=2)
    for w in model.weights.values():
        w[:] = 0.0
    model.weights["embed"][:] = np.eye(2)
    model.weights["head"][:, 0] = (1.0, -1.0)
    rows = {"train": np.ones((4, 2)), "eval": np.ones((4, 2))}
    rows[overflowing][:, 0] = 1e308
    labels = np.ones(4, dtype=np.int64)
    data = tr.Dataset(train_inputs=rows["train"], train_labels=labels,
                      eval_inputs=rows["eval"], eval_labels=labels)
    before = _weight_bytes(model)
    cfg = tr.TrainConfig(scheme="full", steps=3, learning_rate=0.1, batch_size=4, seed=0)
    with pytest.raises(TrainingAborted, match=message) as err:
        tr.train(model, data, cfg)
    assert err.value.step == step
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
    # both padded and unpadded, and all replay the step-1 graph
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


@pytest.mark.parametrize("case", [
    lambda: _dense_case("lora"),
    lambda: _dense_case("hydra", n=3),
    lambda: _dense_case("full"),
    _token_case,
], ids=["lora", "hydra", "full", "tokens-padded-and-not"])
def test_replayed_training_matches_rebuilding_every_step(case, monkeypatch):
    model, data, cfg = case()
    oracle = tm.clone_model(model)
    built = []
    build = tm.build_graph
    monkeypatch.setattr(tm, "build_graph", lambda *a, **k: built.append(1) or build(*a, **k))
    rep = tr.train(model, data, cfg)
    n_evals = len(rep.rows)
    monkeypatch.setattr(tm, "build_graph", build)
    rows = _rebuilt_train(oracle, data, cfg)
    assert len(built) - n_evals == 1  # one build on step 1, the rest replays
    assert repr(rep.rows) == repr(rows)
    assert _weight_bytes(model) == _weight_bytes(oracle)
    names = tm.param_refs(model, "all")
    assert names.keys() == tm.param_refs(oracle, "all").keys()
    for name, arr in tm.param_refs(oracle, "all").items():
        assert names[name].tobytes() == arr.tobytes(), name


def _replay_token_model():
    model = tm.token_model(6, 8, 3, seed=0)
    for proj in model.attachment_points():
        tm.attach(model, proj, "hydra", 2, seed=1, n=2)
    return model


def _graph_bytes(graph):
    """Loss, logits, gate means and every backward gradient of a graph, as bytes."""
    tape = graph.tape
    out = {"loss": tape.value(graph.loss_slot).tobytes(),
           "logits": tape.value(graph.logits_slot).tobytes()}
    out.update((f"gate {k}", v.tobytes()) for k, v in graph.gate_means().items())
    out.update((f"grad {k}", v.tobytes()) for k, v in tape.backward(graph.loss_slot).items())
    return out


def test_replay_across_padding_matches_a_fresh_build():
    model = _replay_token_model()
    unpadded = tm.Batch(inputs=np.array([[1, 2, 3], [3, 4, 5]]), labels=np.array([0, 2]))
    padded = tm.Batch(inputs=np.array([[5, 1, 0], [2, 0, 0]]), labels=np.array([1, 0]))
    graph = tm.build_graph(model, unpadded)
    assert not tm.batch_leaves(model, unpadded)["pad"].any()  # the mask is all zeros
    for batch in (padded, unpadded):
        tm.replay(graph, model, batch)
        assert _graph_bytes(graph) == _graph_bytes(tm.build_graph(model, batch))


def test_replayed_step_rejects_bad_batches_like_a_fresh_build():
    model = _replay_token_model()
    good = tm.Batch(inputs=np.array([[1, 2, 0], [3, 4, 5]]), labels=np.array([0, 2]))
    graph = tm.build_graph(model, good)
    loss = graph.tape.value(graph.loss_slot).tobytes()
    bad = {  # each has the good batch's shape (2, 3)
        "token id out of vocabulary range": ([[1, 2, 0], [3, 4, 6]], [0, 2]),
        "a token sample is all padding": ([[1, 2, 0], [0, 0, 0]], [0, 2]),
        "label out of class range": ([[1, 2, 0], [3, 4, 5]], [0, 3]),
    }
    for message, (inputs, labels) in bad.items():
        batch = tm.Batch(inputs=np.array(inputs), labels=np.array(labels))
        with pytest.raises(ContractError, match=message):
            tm.build_graph(model, batch)
        with pytest.raises(ContractError, match=message):
            tm.replay(graph, model, batch)
        graph.tape.forward()
        assert graph.tape.value(graph.loss_slot).tobytes() == loss
    # a valid batch of shape (3, 2): as many token ids as the graph's, other masks
    other = tm.Batch(inputs=np.array([[1, 2], [3, 0], [4, 5]]), labels=np.array([0, 1, 2]))
    tm.build_graph(model, other)
    with pytest.raises(ShapeError, match=r"a batch of shape \(3, 2\) does not fit"):
        tm.replay(graph, model, other)
    graph.tape.forward()
    assert graph.tape.value(graph.loss_slot).tobytes() == loss


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


def _trained_run(scheme, train_head=True):
    """A small synthetic run under scheme: (cfg, trained model, data)."""
    cfg = tr.TrainConfig(scheme=scheme, rank=2, experts=2, steps=15,
                         learning_rate=0.05, batch_size=8, seed=4,
                         pretrain_steps=5, d_model=12, train_head=train_head,
                         dataset={"synthetic": "interference",
                                  "train_per_task": 32, "eval_per_task": 16})
    model, data = tr.build_from_config(cfg)
    tr.train(model, data, cfg)
    return cfg, model, data


@pytest.mark.parametrize("scheme,train_head,trained", [
    ("full", True, {"embed", "v_proj", "o_proj", "mlp_in", "mlp_out", "head"}),
    ("hydra", True, {"head"}),
    ("lora", False, set()),
], ids=["full", "hydra-head", "lora-no-head"])
def test_restore_copies_the_checkpoint_into_param_refs(tmp_path, scheme, train_head, trained):
    cfg, model, data = _trained_run(scheme, train_head)
    assert list(model.adapters) == ([] if scheme == "full" else ["v_proj"])
    path = tmp_path / "ck.txt"
    tr.model_checkpoint(path, model, cfg)
    fresh, _ = tr.build_from_config(cfg)  # the base as training found it
    changed = {n for n, w in model.weights.items() if w.tobytes() != fresh.weights[n].tobytes()}
    assert changed == trained
    meta, _, tensors = read_checkpoint(path)
    refs = tm.param_refs(fresh, tr._trainable(cfg))
    assert list(tensors) == list(refs)  # the file is param_refs, in its order
    assert [n for n in tensors if n.startswith("base.")] == [f"base.{n}" for n in sorted(changed)]
    tr.restore_into_model(fresh, cfg, meta, tensors)
    after = tm.param_refs(fresh, tr._trainable(cfg))
    assert list(after) == list(refs)
    for name, arr in after.items():
        assert arr is refs[name], name  # written in place, never replaced
        assert arr.tobytes() == tensors[name].tobytes(), name
    (l1, a1, g1), (l2, a2, g2) = tr.evaluate(fresh, data), tr.evaluate(model, data)
    assert (l1, a1) == (l2, a2)
    assert {p: g.tobytes() for p, g in g1.items()} == {p: g.tobytes() for p, g in g2.items()}


def test_full_checkpoint_survives_a_read_and_write(tmp_path):
    cfg, model, _ = _trained_run("full")
    path = tmp_path / "ck.txt"
    tr.model_checkpoint(path, model, cfg)
    meta, _, tensors = read_checkpoint(path)
    assert list(tensors) == [f"base.{n}" for n in sorted(model.weights)]
    again = tmp_path / "again.txt"
    write_checkpoint(again, meta, tensors)
    assert again.read_bytes() == path.read_bytes()
