import inspect
import re
from pathlib import Path

import numpy as np
import pytest

from hydra_peft import linalg
from hydra_peft.autodiff import Tape, grad_check
from hydra_peft.errors import ContractError, ShapeError
from hydra_peft.linalg import SeededRng


def test_frozen_weight_gets_no_gradient():
    # loss = sum(W x): dW absent (frozen), dx = W^T 1
    rng = SeededRng(3)
    w_val = rng.normal(6).reshape(2, 3)
    t = Tape()
    w = t.input(w_val, name="w", trainable=False)
    x = t.input(rng.normal(3).reshape(3, 1), name="x", trainable=True)
    ones = t.input(np.ones((1, 2)))
    loss = t.matmul(ones, t.matmul(w, x))
    grads = t.backward(loss)
    assert "w" not in grads
    assert np.allclose(grads["x"], w_val.T @ np.ones((2, 1)), atol=1e-12)


def test_constant_loss_gives_zero_gradients():
    t = Tape()
    x = t.input(np.array([[1.0, 2.0]]), name="x", trainable=True)
    loss = t.cross_entropy(t.scale(x, 0.0), t.input(np.array([1])))
    grads = t.backward(loss)
    assert np.all(grads["x"] == 0.0)


def test_nonscalar_loss_rejected():
    t = Tape()
    x = t.input(np.ones((2, 2)), name="x", trainable=True)
    y = t.relu(x)
    with pytest.raises(ContractError):
        t.backward(y)


def test_add_shape_mismatch_rejected():
    t = Tape()
    a = t.input(np.ones((2, 2)))
    b = t.input(np.ones((2, 3)))
    with pytest.raises(ShapeError):
        t.add(a, b)


def test_matmul_and_expert_mix_shape_mismatch_rejected():
    t = Tape()
    a, b = t.input(np.ones((4, 3))), t.input(np.ones((3, 3)))
    with pytest.raises(ShapeError):
        t.matmul(a, b, groups=2)  # 3 rows of b do not split into 2 blocks
    with pytest.raises(ShapeError):
        t.matmul(a, a)
    with pytest.raises(ShapeError):
        t.matmul(a, b, t.input(np.ones((2, 3))), transpose_b=True)  # unequal b shapes
    with pytest.raises(ShapeError):
        t.matmul(a, b, b)  # stacked b without transpose_b
    with pytest.raises(ShapeError):
        t.matmul(a, t.input(np.ones((4, 3))), t.input(np.ones((4, 3))),
                 groups=2, transpose_b=True)  # stacked b with groups > 1
    gate = t.input(np.ones((4, 2)))
    with pytest.raises(ShapeError):
        t.expert_mix(gate, a)  # two gate columns do not split three y columns
    with pytest.raises(ShapeError):
        t.expert_mix(gate, t.input(np.ones((3, 4))))  # a gate row per y row


def _random_graph(seed: int):
    """Small composite graph that uses every node builder."""
    rng = SeededRng(seed)
    t = Tape()
    emb = t.input(rng.normal(15).reshape(5, 3), name="emb", trainable=True)
    x = t.gather_rows(emb, t.input(np.array([0, 2, 2, 4])))
    w1, w2, w3 = (t.input(rng.normal(9).reshape(3, 3) * 0.6, name=f"w{i}", trainable=True)
                  for i in (1, 2, 3))
    gate_w = t.input(rng.normal(9).reshape(3, 3) * 0.5, name="gate", trainable=True)
    h = t.matmul(t.relu(x), w1, transpose_b=True)
    g = t.softmax_rows(t.matmul(h, gate_w))
    # three stacked experts: h w2^T, 0.5 h w2 and h w3^T
    ys = t.matmul(h, w2, t.scale(t.transpose(w2), 0.5), w3, transpose_b=True)
    mix = t.expert_mix(g, ys)
    # two groups of two rows: per-group attention of mix over h, then a
    # masked per-group mean that drops the last row
    att = t.softmax_rows(t.matmul(mix, h, groups=2, transpose_b=True))
    ctx = t.matmul(att, h, groups=2)
    pooled = t.group_mean(t.add(mix, ctx), t.input(np.array([[1.0, 1.0], [1.0, 0.0]])))
    labels = t.input(np.array([1, 2]))
    loss = t.cross_entropy(pooled, labels)
    return t, loss


def _node_builders():
    """The public Tape methods annotated to return the int slot of a new node."""
    return {name for name, fn in inspect.getmembers(Tape, inspect.isfunction)
            if not name.startswith("_")
            and inspect.signature(fn).return_annotation in (int, "int")}


def test_random_graph_covers_every_node_builder():
    # a new Tape op must join _random_graph, so test_grad_check_composite_graph checks it
    builders = _node_builders()
    assert {"matmul", "expert_mix", "transpose", "gather_rows"} <= builders
    t, _ = _random_graph(0)
    # several b make a matmul node with a backward rule of its own
    ops = {node.op for node in t._nodes}
    assert builders - {"input", "cross_entropy"} | {"stacked_matmul"} <= ops


def test_readme_names_every_node_builder():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Gradient checking\n", 1)[1].split("\n## ", 1)[0]
    sentence = re.search(r"Node builders: ([^.]*)\.", " ".join(section.split()))
    named = re.findall(r"`(\w+)`", sentence.group(1))
    assert len(named) == len(set(named))
    assert set(named) == _node_builders()


def test_grad_check_composite_graph():
    for seed in range(5):
        t, loss = _random_graph(seed)
        report = grad_check(t, loss, SeededRng(100 + seed))
        assert report.max_rel_error <= 1e-6, report.per_param


def test_grad_check_gather_rows():
    rng = SeededRng(31)
    t = Tape()
    table = t.input(rng.normal(15).reshape(5, 3), name="emb", trainable=True)
    rows = t.gather_rows(table, t.input(np.array([0, 2, 2, 4])))
    loss = t.cross_entropy(rows, t.input(np.array([0, 1, 2, 1])))
    report = grad_check(t, loss, SeededRng(1))
    assert report.max_rel_error <= 1e-6


def test_grad_check_samples_32_coordinates_of_a_large_parameter(monkeypatch):
    rng = SeededRng(41)
    t = Tape()
    w_value = rng.normal(50).reshape(10, 5)
    w = t.input(w_value, name="w", trainable=True)
    logits = t.matmul(t.input(rng.normal(15).reshape(3, 5)), w, transpose_b=True)
    loss = t.cross_entropy(logits, t.input(np.array([0, 4, 9])))
    before = [node.value.tobytes() for node in t._nodes]
    perturbed = []
    set_value = t.set_value

    def spy(slot, value):
        if value is not w_value:
            perturbed.extend(np.flatnonzero(value != w_value).tolist())
        set_value(slot, value)

    monkeypatch.setattr(t, "set_value", spy)
    report = grad_check(t, loss, SeededRng(5))
    assert len(perturbed) == 64  # each coordinate once up, once down
    assert len(set(perturbed)) == 32
    assert report.max_rel_error <= 1e-6
    assert grad_check(t, loss, SeededRng(5)) == report
    assert t.value(w) is w_value
    assert [node.value.tobytes() for node in t._nodes] == before


def test_grad_check_eps_domain():
    t, loss = _random_graph(0)
    with pytest.raises(ContractError):
        grad_check(t, loss, SeededRng(0), eps=0.0)
    with pytest.raises(ContractError):
        grad_check(t, loss, SeededRng(0), eps=1e-2)


def test_backward_is_linear_in_samples():
    # gradient of the mean loss equals the mean of per-sample gradients
    rng = SeededRng(7)
    x_all = rng.normal(12).reshape(4, 3)
    w_val = rng.normal(9).reshape(3, 3)
    labels = np.array([0, 2, 1, 1])

    def grad_for(xs, ys):
        t = Tape()
        x = t.input(xs)
        w = t.input(w_val, name="w", trainable=True)
        loss = t.cross_entropy(t.matmul(x, w), t.input(ys))
        return t.backward(loss)["w"]

    whole = grad_for(x_all, labels)
    per_sample = [grad_for(x_all[i : i + 1], labels[i : i + 1]) for i in range(4)]
    assert np.abs(whole - np.mean(per_sample, axis=0)).max() < 1e-12


def _node_bytes(t: Tape) -> list:
    return [(node.value.dtype, node.value.tobytes()) for node in t._nodes]


def test_grad_check_leaves_the_tape_as_it_found_it():
    t, loss = _random_graph(3)
    before = _node_bytes(t)
    leaves = {name: t.value(slot) for name, slot in t.trainable_slots().items()}
    grad_check(t, loss, SeededRng(7))
    assert _node_bytes(t) == before
    assert all(t.value(slot) is leaves[name] for name, slot in t.trainable_slots().items())


def test_forward_from_a_later_leaf_equals_a_full_forward():
    t, loss = _random_graph(4)
    before = float(t.value(loss))
    slot = t.trainable_slots()["w3"]
    t.set_value(slot, t.value(slot) + 0.25)
    t.forward(slot)
    partial = _node_bytes(t)
    t.forward()
    assert _node_bytes(t) == partial
    assert float(t.value(loss)) != before
    # forward() reruns every node, not only those that read slot 0
    t = Tape()
    t.input(np.zeros(1))
    y = t.input(np.ones((1, 1)))
    r = t.relu(y)
    t.set_value(y, np.full((1, 1), 3.0))
    t.forward()
    assert t.value(r)[0, 0] == 3.0


def test_set_value_widens_only_floats_narrower_than_float64():
    t = Tape()
    x = t.input(np.zeros((1, 2)))
    t.set_value(x, np.ones((1, 2), dtype=np.float32))
    assert t.value(x).dtype == np.float64
    wide = np.ones((1, 2), dtype=np.longdouble)
    t.set_value(x, wide)
    assert t.value(x) is wide


def test_forward_recomputes_after_set_value():
    def built_loss(logits):
        fresh = Tape()
        return float(fresh.value(fresh.cross_entropy(fresh.input(logits),
                                                     fresh.input(np.array([0])))))

    t = Tape()
    x = t.input(np.array([[1.0, 2.0]]), name="x", trainable=True)
    loss = t.cross_entropy(x, t.input(np.array([0])))
    t.set_value(x, np.array([[2.0, 2.0]]))
    t.forward()
    assert float(t.value(loss)) == built_loss(np.array([[2.0, 2.0]]))
    # a float64 leaf is its source array, so an in-place update reaches it
    t.value(x)[0, 0] = 0.0
    t.forward()
    assert float(t.value(loss)) == built_loss(np.array([[0.0, 2.0]])) > built_loss(
        np.array([[2.0, 2.0]]))
    w = np.ones((2, 2))
    assert t.value(t.input(w)) is w


def test_second_trainable_leaf_with_a_taken_name_rejected():
    # gradients and grad_check key by name, so a second leaf would shadow the first
    t = Tape()
    t.input(np.ones((2, 2)), name="w", trainable=True)
    t.input(np.ones((2, 2)), name="w")  # frozen leaves may share a name
    t.input(np.ones((2, 2)), name="v", trainable=True)
    with pytest.raises(ContractError, match="'w'"):
        t.input(np.ones((2, 2)), name="w", trainable=True)


def test_group_ops_act_per_block():
    rng = SeededRng(8)
    a, b = rng.normal(12).reshape(4, 3), rng.normal(12).reshape(4, 3)
    t = Tape()
    ab_t = t.matmul(t.input(a), t.input(b), groups=2, transpose_b=True)
    ab_t_b = t.matmul(ab_t, t.input(b), groups=2)
    assert t.value(ab_t).shape == (4, 2) and t.value(ab_t_b).shape == (4, 3)
    for s in range(2):
        blk = slice(2 * s, 2 * s + 2)
        assert np.allclose(t.value(ab_t)[blk], a[blk] @ b[blk].T, atol=1e-15)
        assert np.allclose(t.value(ab_t_b)[blk], t.value(ab_t)[blk] @ b[blk], atol=1e-14)
    mean = t.group_mean(t.input(a), t.input(np.array([[1.0, 1.0], [0.0, 1.0]])))
    assert np.array_equal(t.value(mean), np.stack([a[:2].mean(axis=0), a[3]]))


def _assert_same_bytes(a, b):
    # bytes, not values: the sign of zero counts
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


def _per_block_transpose(w, groups):
    return np.concatenate([blk.T for blk in np.split(w, groups)])


# (rows of x, k, rows of w, groups) -> the linalg.matmul kernel the product runs
_TRANSPOSE_B_SHAPES = {
    "one pass": (8, 16, 6, 1),
    "several passes": (16, 600, 16, 1),   # 256 entries: 256 products per pass
    "row blocks": (100, 20, 80, 1),       # 8,000 entries: too few products per pass
    "grouped, one pass": (8, 5, 6, 2),
    "grouped, several passes": (16, 600, 16, 2),
    "grouped, k-loop": (120, 12, 120, 2),
}


@pytest.mark.parametrize("path", list(_TRANSPOSE_B_SHAPES))
def test_transpose_b_gives_the_bytes_of_a_transposed_operand(path):
    m, k, n, groups = _TRANSPOSE_B_SHAPES[path]
    size = (m // groups) * (n // groups) * groups
    passes = -(-size * k // linalg._BROADCAST_MAX_ELEMS)
    per_pass = linalg._BROADCAST_MAX_ELEMS // size
    kernel = ("one pass" if passes == 1 else "several passes"
              if per_pass >= linalg._MIN_PASS_SLICES else "row blocks"
              if groups == 1 and n >= 2 and n * k <= linalg._BROADCAST_MAX_ELEMS else "k-loop")
    assert path.endswith(kernel)
    rng = SeededRng(21)
    x_val, w_val = rng.normal(m * k).reshape(m, k), rng.normal(n * k).reshape(n, k)
    x_val[0], w_val[:, 1] = -0.0, -0.0
    labels = np.arange(m) % (n // groups)

    def run(transpose_b: bool):
        t = Tape()
        x = t.input(x_val, name="x", trainable=True)
        if transpose_b:
            out = t.matmul(x, t.input(w_val, name="w", trainable=True),
                           groups=groups, transpose_b=True)
        elif groups == 1:
            out = t.matmul(x, t.transpose(t.input(w_val, name="w", trainable=True)))
        else:  # each row block of w transposed, in a leaf of its own
            wt = t.input(_per_block_transpose(w_val, groups), name="w", trainable=True)
            out = t.matmul(x, wt, groups=groups)
        grads = t.backward(t.cross_entropy(out, t.input(labels)))
        gw = grads["w"] if transpose_b or groups == 1 else _per_block_transpose(grads["w"], groups)
        return t.value(out), grads["x"], gw

    for fused, reference in zip(run(True), run(False)):
        _assert_same_bytes(fused, reference)


def _cross_entropy_upstream(logits, labels):
    """The gradient cross_entropy's backward gives its logits, computed as it computes it."""
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)
    onehot = np.zeros_like(p)
    onehot[np.arange(len(p)), labels] = 1.0
    return 1.0 * (p - onehot) / len(p)


def _per_expert_matmul_nodes(z, bs, upstream, z_grad=None):
    """What N separate matmul(z, b_i, transpose_b=True) nodes give, in numpy:
    (forward blocks, b_i gradients, z gradient) for the upstream gradient of
    their column blocks side by side. Backward meets the last node first, so
    the z gradient adds the per-expert products last expert first, into the
    `z_grad` that later consumers of z gave, if any. With one b the tape runs
    exactly such a node, which checks this reference."""
    d = bs[0].shape[0]
    ups = [upstream[:, i * d : (i + 1) * d] for i in range(len(bs))]
    for g, b in zip(reversed(ups), reversed(bs)):
        p = linalg.matmul(g, b)
        z_grad = p if z_grad is None else z_grad + p
    return ([linalg.matmul(z, b.T) for b in bs],
            [linalg.matmul(g.T, z) for g in ups], z_grad)


# (experts, width, rows, z reused): 400 rows of 3 experts runs the grouped z
# gradient on another matmul kernel; a reused z already holds a gradient
@pytest.mark.parametrize("n_experts,width,rows,z_reused", [
    (1, 4, 6, False), (2, 4, 6, False), (3, 4, 6, False), (8, 4, 6, False),
    (3, 1, 6, False), (8, 1, 6, False), (3, 16, 400, False), (3, 4, 6, True),
    (8, 1, 6, True)])
def test_stacked_matmul_gives_the_bytes_of_per_expert_nodes(n_experts, width, rows, z_reused):
    rng = SeededRng(40 + n_experts)
    r = 4
    z_val = rng.normal(rows * r).reshape(rows, r)
    bs_val = [rng.normal(width * r).reshape(width, r) for _ in range(n_experts)]
    z_val[0] = -0.0
    for b in bs_val:
        b[:, 1] = -0.0
    labels = np.arange(rows) % (n_experts * width)
    t = Tape()
    z = t.input(z_val, name="z", trainable=True)
    bs = [t.input(b, name=f"b{i}", trainable=True) for i, b in enumerate(bs_val)]
    ys = t.matmul(z, *bs, transpose_b=True)
    loss = t.cross_entropy(ys, t.input(labels))
    later = None
    if z_reused:  # a node after the experts puts its z gradient first
        z_labels = np.arange(rows)[::-1] % r
        loss = t.add(loss, t.cross_entropy(z, t.input(z_labels)))
        later = _cross_entropy_upstream(z_val, z_labels)
    grads = t.backward(loss)
    outs, b_grads, z_grad = _per_expert_matmul_nodes(
        z_val, bs_val, _cross_entropy_upstream(t.value(ys), labels), later)
    _assert_same_bytes(t.value(ys), np.concatenate(outs, axis=1))
    for i, b_grad in enumerate(b_grads):
        _assert_same_bytes(grads[f"b{i}"], b_grad)
    _assert_same_bytes(grads["z"], z_grad)
    # sums of -0.0 products are +0.0 from the kernel's +0.0 start
    for zeros in (outs[0][0], *([] if z_reused else [z_grad[:, 1]])):
        assert (zeros == 0.0).all() and not np.signbit(zeros).any()


def _slice_mul_add_chain(gate, ys, upstream):
    """The per-expert slice_cols / mul / add nodes expert_mix replaced, in numpy:
    (forward sum, gate gradient, expert gradients) for an upstream gradient."""
    cols = [gate[:, i : i + 1].copy() for i in range(len(ys))]
    out = cols[0] * ys[0]
    for col, y in zip(cols[1:], ys[1:]):
        out = out + col * y
    gate_grad = None
    for i in reversed(range(len(ys))):  # backward meets the last expert first
        col = upstream * ys[i]
        if col.shape[1] != 1:  # mul summed the broadcast axis away
            col = col.sum(axis=1, keepdims=True)
        full = np.zeros_like(gate)  # slice_cols padded its column with zeros
        full[:, i : i + 1] = col
        gate_grad = full if gate_grad is None else gate_grad + full
    return out, gate_grad, [upstream * col for col in cols]


@pytest.mark.parametrize("n_experts,width", [(3, 4), (3, 1), (1, 4), (1, 1), (2, 9)])
def test_expert_mix_gives_the_bytes_of_the_slice_mul_add_chain(n_experts, width):
    rng = SeededRng(5 + n_experts)
    m = 6
    gate_val = rng.uniform(m * n_experts).reshape(m, n_experts)
    gate_val[1, 0] = 0.0
    ys_val = [rng.normal(m * width).reshape(m, width) for _ in range(n_experts)]
    for y in ys_val:
        y[2] = 0.0
    t = Tape()
    gate = t.input(gate_val, name="gate", trainable=True)
    # the experts' outputs side by side, as a stacked matmul gives them
    mix = t.expert_mix(gate, t.input(np.concatenate(ys_val, axis=1), name="y", trainable=True))
    # two logits per row, minus the row sum of mix and 0, under label 1: the
    # gradient reaching mix is -p0 / m < 0 everywhere, so row 2 of each gate
    # column sums -0.0 products
    readout = np.zeros((2, width))
    readout[0] = -1.0
    logits = t.matmul(mix, t.input(readout), transpose_b=True)
    labels = np.ones(m, dtype=np.int64)
    grads = t.backward(t.cross_entropy(logits, t.input(labels)))
    upstream = linalg.matmul(_cross_entropy_upstream(t.value(logits), labels), readout)
    assert (upstream < 0).all()
    out, gate_grad, y_grads = _slice_mul_add_chain(gate_val, ys_val, upstream)
    _assert_same_bytes(t.value(mix), out)
    _assert_same_bytes(grads["gate"], gate_grad)
    _assert_same_bytes(grads["y"], np.concatenate(y_grads, axis=1))
    # a one-wide expert's -0.0 products reach the gate unsummed; the zero padding
    # of two experts or more turned them into +0.0
    assert np.signbit(gate_grad[2]).all() == (n_experts == 1 and width == 1)
    assert np.signbit(y_grads[0][1]).all()
