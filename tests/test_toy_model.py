import numpy as np
import pytest

from hydra_peft import adapters as ad
from hydra_peft import toy_model as tm
from hydra_peft.autodiff import grad_check
from hydra_peft.errors import ContractError, InvariantError, UsageError
from hydra_peft.linalg import SeededRng


def _dense_batch(model, seed, n=6):
    rng = SeededRng(seed)
    x = rng.normal(n * model.input_dim).reshape(n, model.input_dim)
    y = rng.integers(n, model.n_classes)
    return tm.Batch(inputs=x, labels=y)


def _token_batch(model, seed, n=3, t=5):
    rng = SeededRng(seed)
    toks = rng.integers(n * t, model.input_dim).reshape(n, t)
    return tm.Batch(inputs=toks, labels=rng.integers(n, model.n_classes))


@pytest.mark.parametrize("scheme,n", [("lora", 1), ("split", 2), ("hydra", 3)])
def test_fresh_adapters_leave_dense_forward_unchanged(scheme, n):
    base = tm.dense_model(6, 10, 3, seed=4)
    batch = _dense_batch(base, 1)
    logits0, loss0, _ = tm.forward(base, batch)
    adapted = tm.clone_model(base)
    tm.attach(adapted, "v_proj", scheme, rank=2, seed=9, n=n)
    logits1, loss1, _ = tm.forward(adapted, batch)
    assert np.array_equal(logits0, logits1)
    assert loss0 == loss1


def test_fresh_adapters_leave_token_forward_unchanged():
    base = tm.token_model(12, 8, 3, seed=4)
    batch = _token_batch(base, 2)
    logits0, _, _ = tm.forward(base, batch)
    adapted = tm.clone_model(base)
    tm.attach(adapted, "q_proj", "hydra", rank=2, seed=9, n=2)
    tm.attach(adapted, "v_proj", "hydra", rank=2, seed=10, n=2)
    logits1, _, _ = tm.forward(adapted, batch)
    assert np.array_equal(logits0, logits1)


def test_uniform_logits_loss_is_log_classes():
    model = tm.dense_model(5, 8, 7, seed=3)
    model.weights["head"][:] = 0.0
    _, loss, _ = tm.forward(model, _dense_batch(model, 5))
    assert abs(loss - np.log(7.0)) < 1e-12


def test_attach_errors():
    model = tm.dense_model(5, 8, 3, seed=1)
    with pytest.raises(UsageError):
        tm.attach(model, "nonexistent", "lora", 2, seed=0)
    with pytest.raises(UsageError):
        tm.attach(model, "q_proj", "lora", 2, seed=0)  # dense mode adapts v only
    with pytest.raises(InvariantError):
        tm.attach(model, "v_proj", "lora", 9, seed=0)  # rank > min(d, k)
    with pytest.raises(UsageError):
        tm.attach(model, "v_proj", "dora", 2, seed=0)


def test_label_out_of_range_rejected():
    model = tm.dense_model(5, 8, 3, seed=1)
    batch = tm.Batch(inputs=SeededRng(0).normal(10).reshape(2, 5),
                     labels=np.array([0, 3]))
    with pytest.raises(ContractError):
        tm.forward(model, batch)


def test_attention_rows_sum_to_one():
    model = tm.token_model(12, 8, 3, seed=6)
    batch = _token_batch(model, 3, n=2, t=6)
    graph = tm.build_graph(model, batch, trainable="none")
    softmax_nodes = [n for n in graph.tape._nodes if n.op == "softmax_rows"]
    assert softmax_nodes
    for node in softmax_nodes:
        sums = node.value.sum(axis=1)
        assert np.abs(sums - 1.0).max() < 1e-12


def test_full_path_gradients_check_out():
    model = tm.token_model(14, 8, 3, seed=11)
    tm.attach(model, "q_proj", "hydra", rank=3, seed=21, n=2)
    tm.attach(model, "v_proj", "hydra", rank=3, seed=22, n=3)
    for proj in ("q_proj", "v_proj"):
        hy = model.adapters[proj]
        r = SeededRng(50).derive(proj)
        for i, e in enumerate(hy.experts):
            e[:] = 0.4 * r.derive(i).normal(e.size).reshape(e.shape)
        hy.w_gate[:] = r.derive("wg").normal(hy.w_gate.size).reshape(hy.w_gate.shape)
    batch = _token_batch(model, 9, n=2, t=5)
    graph = tm.build_graph(model, batch, trainable="adapters+head")
    report = grad_check(graph.tape, graph.loss_slot, SeededRng(33))
    assert report.max_rel_error <= 1e-6, report.per_param


def test_gate_means_are_distributions():
    model = tm.dense_model(6, 10, 3, seed=8)
    tm.attach(model, "v_proj", "hydra", rank=2, seed=2, n=4)
    _, _, gates = tm.forward(model, _dense_batch(model, 4))
    w = gates["v_proj"]
    assert w.shape == (4,)
    assert abs(w.sum() - 1.0) < 1e-9
    assert (w >= 0).all()


def test_dense_length_one_attention_shortcut_is_exact():
    # softmax over a single position is exactly 1, so the attention block
    # reduces to the value path; the dense graph relies on that identity
    model = tm.token_model(9, 6, 3, seed=2)
    batch = tm.Batch(inputs=np.array([[4]]), labels=np.array([1]))
    graph = tm.build_graph(model, batch, trainable="none")
    attn = [n for n in graph.tape._nodes if n.op == "softmax_rows"][0]
    assert attn.value.tolist() == [[1.0]]


def test_clone_is_independent():
    model = tm.dense_model(5, 8, 3, seed=1)
    tm.attach(model, "v_proj", "lora", 2, seed=3)
    clone = tm.clone_model(model)
    clone.weights["head"][0, 0] += 1.0
    clone.adapters["v_proj"].b[0, 0] += 1.0
    assert model.weights["head"][0, 0] != clone.weights["head"][0, 0]
    assert model.adapters["v_proj"].b[0, 0] == 0.0


def _linear_with_live_adapter(scheme):
    """A linear model whose adapter has every parameter nonzero, plus a batch."""
    model = tm.linear_model(5, 4, seed=3)
    tm.attach(model, "proj", scheme, rank=2, seed=4, n=3, alpha=3.0)
    rng = SeededRng(21)
    for _, arr in model.adapters["proj"].named_params("proj"):
        arr[:] = rng.normal(arr.size).reshape(arr.shape)
    x = rng.normal(6 * 5).reshape(6, 5)
    return model, tm.Batch(inputs=x, targets=np.zeros((6, 4)))


@pytest.mark.parametrize("scheme", ["lora", "split", "hydra"])
def test_tape_branch_matches_numpy_forward(scheme):
    model, batch = _linear_with_live_adapter(scheme)
    w0, adapter = model.weights["proj"], model.adapters["proj"]
    logits, _, gates = tm.forward(model, batch, loss="mse")
    rows = []
    for i, x in enumerate(batch.inputs):
        if scheme == "lora":
            want = ad.lora_forward(x, w0, adapter)
        elif scheme == "split":
            want = ad.split_forward(x, w0, adapter)
        else:
            want, gate = ad.hydra_forward(x, w0, adapter)
            rows.append(gate.weights)
        assert np.abs(logits[i] - want).max() <= 1e-12
        assert np.abs(want - w0 @ x).max() > 1e-3  # the adapter is really live
    if scheme == "hydra":
        assert np.abs(gates["proj"] - np.mean(rows, axis=0)).max() <= 1e-12
    else:
        assert gates == {}


def test_split_active_head_emits_only_that_head():
    model, batch = _linear_with_live_adapter("split")
    w0, split = model.weights["proj"], model.adapters["proj"]
    graph = tm.build_graph(model, batch, loss="mse", trainable="adapters",
                           active_split_head=1)
    assert sorted(graph.tape.trainable_slots()) == ["proj.A1", "proj.B1"]
    logits = graph.tape.value(graph.logits_slot)
    for i, x in enumerate(batch.inputs):
        want = ad.lora_forward(x, w0, split.heads[1])
        assert np.abs(logits[i] - want).max() <= 1e-12


@pytest.mark.parametrize("scheme", ["lora", "split", "hydra"])
def test_param_refs_are_the_tape_leaves(scheme):
    model, batch = _linear_with_live_adapter(scheme)
    graph = tm.build_graph(model, batch, loss="mse", trainable="adapters")
    refs = tm.param_refs(model, "adapters")
    assert sorted(refs) == sorted(graph.tape.trainable_slots())
    for name, arr in refs.items():
        assert arr is dict(model.adapters["proj"].named_params("proj"))[name]
