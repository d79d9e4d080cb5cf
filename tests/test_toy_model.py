import numpy as np
import pytest

from hydra_peft import toy_model as tm
from hydra_peft.autodiff import grad_check
from hydra_peft.errors import ContractError, ShapeError, UsageError
from hydra_peft.linalg import SeededRng

from adapter_refs import hydra_ref, linear_forward, lora_ref


def _run(model, batch):
    """(logits, loss, gate means) of the batch's graph, read as trainer.evaluate reads them."""
    graph = tm.build_graph(model, batch, trainable="none")
    return (graph.tape.value(graph.logits_slot), float(graph.tape.value(graph.loss_slot)),
            graph.gate_means())


def _dense_batch(model, seed, n=6):
    rng = SeededRng(seed)
    x = rng.normal(n * model.input_dim).reshape(n, model.input_dim)
    y = rng.integers(n, model.n_classes)
    return tm.Batch(inputs=x, labels=y)


def _token_batch(model, seed, n=3, t=5):
    rng = SeededRng(seed)
    toks = rng.integers(n * t, model.input_dim).reshape(n, t)
    return tm.Batch(inputs=toks, labels=rng.integers(n, model.n_classes))


@pytest.mark.parametrize("scheme,n", [("lora", 1), ("hydra", 3)])
def test_fresh_adapters_leave_dense_forward_unchanged(scheme, n):
    base = tm.dense_model(6, 10, 3, seed=4)
    batch = _dense_batch(base, 1)
    logits0, loss0, _ = _run(base, batch)
    adapted = tm.clone_model(base)
    tm.attach(adapted, "v_proj", scheme, rank=2, seed=9, n=n)
    logits1, loss1, _ = _run(adapted, batch)
    assert np.array_equal(logits0, logits1)
    assert loss0 == loss1


def test_fresh_adapters_leave_token_forward_unchanged():
    base = tm.token_model(12, 8, 3, seed=4)
    batch = _token_batch(base, 2)
    logits0, _, _ = _run(base, batch)
    adapted = tm.clone_model(base)
    tm.attach(adapted, "q_proj", "hydra", rank=2, seed=9, n=2)
    tm.attach(adapted, "v_proj", "hydra", rank=2, seed=10, n=2)
    logits1, _, _ = _run(adapted, batch)
    assert np.array_equal(logits0, logits1)


def test_uniform_logits_loss_is_log_classes():
    model = tm.dense_model(5, 8, 7, seed=3)
    model.weights["head"][:] = 0.0
    _, loss, _ = _run(model, _dense_batch(model, 5))
    assert abs(loss - np.log(7.0)) < 1e-12


def test_attach_errors():
    model = tm.dense_model(5, 8, 3, seed=1)
    with pytest.raises(UsageError):
        tm.attach(model, "nonexistent", "lora", 2, seed=0)
    with pytest.raises(UsageError):
        tm.attach(model, "q_proj", "lora", 2, seed=0)  # dense mode adapts v only
    with pytest.raises(UsageError):
        tm.attach(model, "v_proj", "lora", 9, seed=0)  # rank > min(d, k)
    with pytest.raises(UsageError):
        tm.attach(model, "v_proj", "dora", 2, seed=0)


def test_label_out_of_range_rejected():
    model = tm.dense_model(5, 8, 3, seed=1)
    batch = tm.Batch(inputs=SeededRng(0).normal(10).reshape(2, 5),
                     labels=np.array([0, 3]))
    with pytest.raises(ContractError):
        _run(model, batch)


def test_batch_needs_one_label_per_row():
    x = np.zeros((2, 5))
    for labels in (np.array([0, 1, 2]), np.array([[0, 1]]), np.array(1)):
        with pytest.raises(ShapeError, match="labels shape"):
            tm.Batch(inputs=x, labels=labels)
    with pytest.raises(TypeError):
        tm.Batch(inputs=x)  # labels are required


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
    _, _, gates = _run(model, _dense_batch(model, 4))
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


def _dense_with_live_adapter(scheme):
    """A dense model whose v_proj adapter has every parameter nonzero, plus a batch."""
    model = tm.dense_model(5, 4, 3, seed=3)
    tm.attach(model, "v_proj", scheme, rank=2, seed=4, n=3, alpha=3.0)
    rng = SeededRng(21)
    for _, arr in model.adapters["v_proj"].named_params("v_proj"):
        arr[:] = rng.normal(arr.size).reshape(arr.shape)
    x = rng.normal(6 * 5).reshape(6, 5)
    return model, tm.Batch(inputs=x, labels=np.arange(6) % 3)


@pytest.mark.parametrize("scheme", ["lora", "hydra"])
def test_tape_branch_matches_numpy_forward(scheme):
    model, batch = _dense_with_live_adapter(scheme)
    w0, adapter = model.weights["v_proj"], model.adapters["v_proj"]
    xs = batch.inputs @ model.weights["embed"].T  # the rows v_proj sees
    out, gate_rows = linear_forward(w0, adapter, xs)
    for i, x in enumerate(xs):
        if scheme == "lora":
            want = lora_ref(x, w0, adapter)
        else:
            want, gate = hydra_ref(x, w0, adapter)
            assert np.abs(gate_rows[i] - gate).max() <= 1e-12
        assert np.abs(out[i] - want).max() <= 1e-12
        assert np.abs(want - w0 @ x).max() > 1e-3  # the adapter is really live
    gates = _run(model, batch)[2]
    if scheme == "hydra":
        assert np.abs(gates["v_proj"] - gate_rows.mean(axis=0)).max() <= 1e-12
    else:
        assert gate_rows is None and gates == {}


@pytest.mark.parametrize("scheme", ["lora", "hydra"])
def test_param_refs_are_the_tape_leaves(scheme):
    model, batch = _dense_with_live_adapter(scheme)
    graph = tm.build_graph(model, batch, trainable="adapters")
    refs = tm.param_refs(model, "adapters")
    assert sorted(refs) == sorted(graph.tape.trainable_slots())
    for name, arr in refs.items():
        assert arr is dict(model.adapters["v_proj"].named_params("v_proj"))[name]


def _live_token_model(scheme, vocab=13, d=8, seed=0):
    """A token model with adapters on q_proj and v_proj, every parameter nonzero."""
    model = tm.token_model(vocab, d, 3, seed=40 + seed)
    for proj in ("q_proj", "v_proj"):
        tm.attach(model, proj, scheme, rank=2, seed=7 + seed, n=3, alpha=3.0)
        rng = SeededRng(60 + seed).derive(proj)
        for name, arr in model.adapters[proj].named_params(proj):
            arr[:] = 0.5 * rng.derive(name).normal(arr.size).reshape(arr.shape)
    return model


def _live_token_batch(model, n, t, seed, pad_tail=0):
    """n samples of t ids from 1 .. vocab-1; the first sample's last pad_tail ids are padding."""
    rng = SeededRng(seed)
    toks = 1 + rng.integers(n * t, model.input_dim - 1).reshape(n, t)
    toks[0, t - pad_tail:] = 0
    return tm.Batch(inputs=toks, labels=rng.integers(n, model.n_classes))


@pytest.mark.parametrize("scheme", ["lora", "hydra"])
@pytest.mark.parametrize("n,pad_tail", [(2, 0), (3, 2)])
def test_token_adapter_gradients_match_central_differences(scheme, n, pad_tail):
    # every sample of the batch reaches every adapter tensor's gradient
    model = _live_token_model(scheme)
    batch = _live_token_batch(model, n, 5, seed=n, pad_tail=pad_tail)
    graph = tm.build_graph(model, batch, trainable="adapters")
    grads = graph.tape.backward(graph.loss_slot)
    eps = 1e-5
    for proj, adapter in model.adapters.items():
        for name, arr in adapter.named_params(proj):
            fd = np.zeros_like(arr)
            for idx in np.ndindex(arr.shape):
                keep = arr[idx]
                arr[idx] = keep + eps
                plus = _run(model, batch)[1]
                arr[idx] = keep - eps
                minus = _run(model, batch)[1]
                arr[idx] = keep
                fd[idx] = (plus - minus) / (2 * eps)
            rel = np.abs(grads[name] - fd).max() / np.abs(fd).max()
            assert rel <= 1e-3, (name, rel)
    report = grad_check(graph.tape, graph.loss_slot, SeededRng(5))
    assert report.max_rel_error <= 1e-6, report.per_param


@pytest.mark.parametrize("scheme", ["lora", "hydra"])
@pytest.mark.parametrize("n,t,d", [(2, 10, 8), (8, 10, 8), (37, 10, 8), (37, 16, 16)])
def test_token_batch_forward_equals_single_sample_forwards(scheme, n, t, d):
    # (37, 16, 16) puts the batched products over the broadcast kernel's cap,
    # so the 2-D ones run in row blocks and the stacked attention ones in the
    # k-loop, where single samples take the broadcast kernel
    model = _live_token_model(scheme, vocab=20, d=d)
    batch = _live_token_batch(model, n, t, seed=t + n, pad_tail=3)
    graph = tm.build_graph(model, batch, trainable="none")
    logits, gates = graph.tape.value(graph.logits_slot), graph.gate_slots
    for s in range(n):
        one = tm.build_graph(model, tm.Batch(inputs=batch.inputs[s:s + 1],
                                             labels=batch.labels[s:s + 1]), trainable="none")
        assert one.tape.value(one.logits_slot).tobytes() == logits[s:s + 1].tobytes()
        for proj, slot in one.gate_slots.items():
            rows = graph.tape.value(gates[proj])[s * t:(s + 1) * t]
            assert one.tape.value(slot).tobytes() == rows.tobytes()
    assert sorted(gates) == (["q_proj", "v_proj"] if scheme == "hydra" else [])


@pytest.mark.parametrize("scheme", ["lora", "hydra"])
def test_padding_does_not_change_a_document(scheme):
    model = _live_token_model(scheme, vocab=20)
    docs = _live_token_batch(model, 4, 16, seed=3).inputs
    lengths = [5, 9, 16, 12]
    padded = np.zeros_like(docs)
    for i, n in enumerate(lengths):
        padded[i, :n] = docs[i, :n]
    labels = np.array([0, 1, 2, 1])
    logits, _, gates = _run(model, tm.Batch(inputs=padded, labels=labels))
    gate_rows = []
    for i, n in enumerate(lengths):
        one = tm.build_graph(model, tm.Batch(inputs=docs[i:i + 1, :n], labels=labels[i:i + 1]),
                             trainable="none")
        assert np.abs(one.tape.value(one.logits_slot)[0] - logits[i]).max() <= 1e-12
        gate_rows += [one.tape.value(s) for s in one.gate_slots.values()]
    if scheme == "hydra":  # pad rows are left out of the gate means too
        q_rows = np.concatenate(gate_rows[0::2])
        assert np.abs(gates["q_proj"] - q_rows.mean(axis=0)).max() <= 1e-12


def test_token_batch_with_an_all_padding_sample_rejected():
    model = tm.token_model(9, 6, 3, seed=2)
    with pytest.raises(ContractError):
        _run(model, tm.Batch(inputs=np.array([[3, 4], [0, 0]]), labels=np.array([0, 1])))


def test_token_graph_size_does_not_grow_with_batch():
    model = _live_token_model("hydra")
    sizes = {len(tm.build_graph(model, _live_token_batch(model, n, 6, seed=n)).tape._nodes)
             for n in (1, 4, 32)}
    assert len(sizes) == 1 and sizes.pop() <= 60
