import inspect

import numpy as np
import pytest

from hydra_peft import linalg
from hydra_peft.autodiff import Tape, grad_check
from hydra_peft.errors import ContractError, ShapeError
from hydra_peft.linalg import SeededRng


def test_quadratic_gradient_is_identity():
    # loss = mean(x^2) over two entries = ||x||^2 / 2, so grad = x
    t = Tape()
    x = t.input(np.array([[3.0, 4.0]]), name="x", trainable=True)
    zero = t.input(np.zeros((1, 2)))
    loss = t.mse(x, zero)
    grads = t.backward(loss)
    assert np.allclose(grads["x"], [[3.0, 4.0]], atol=1e-15)


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
    loss = t.mse(t.scale(x, 0.0), t.input(np.zeros((1, 2))))
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
    gate = t.input(np.ones((4, 2)))
    with pytest.raises(ShapeError):
        t.expert_mix(gate, a)  # two gate columns, one expert
    with pytest.raises(ShapeError):
        t.expert_mix(gate, a, t.input(np.ones((4, 2))))


def _random_graph(seed: int):
    """Small composite graph that uses every node builder except mse."""
    rng = SeededRng(seed)
    t = Tape()
    emb = t.input(rng.normal(15).reshape(5, 3), name="emb", trainable=True)
    x = t.gather_rows(emb, t.input(np.array([0, 2, 2, 4])))
    w1, w2, w3 = (t.input(rng.normal(9).reshape(3, 3) * 0.6, name=f"w{i}", trainable=True)
                  for i in (1, 2, 3))
    gate_w = t.input(rng.normal(9).reshape(3, 3) * 0.5, name="gate", trainable=True)
    h = t.matmul(t.relu(x), w1, transpose_b=True)
    g = t.softmax_rows(t.matmul(h, gate_w))
    e1 = t.matmul(h, w2, transpose_b=True)
    e2 = t.scale(t.matmul(h, w2), 0.5)
    e3 = t.matmul(h, t.transpose(w3))
    mix = t.expert_mix(g, e1, e2, e3)
    # two groups of two rows: per-group attention of mix over h, then a
    # masked per-group mean that drops the last row
    att = t.softmax_rows(t.matmul(mix, h, groups=2, transpose_b=True))
    ctx = t.matmul(att, h, groups=2)
    pooled = t.group_mean(t.add(mix, ctx), t.input(np.array([[1.0, 1.0], [1.0, 0.0]])))
    labels = t.input(np.array([1, 2]))
    loss = t.cross_entropy(pooled, labels)
    return t, loss


def test_random_graph_covers_every_node_builder():
    # a new Tape op must join _random_graph, so test_grad_check_composite_graph checks it
    builders = {name for name, fn in inspect.getmembers(Tape, inspect.isfunction)
                if not name.startswith("_")
                and inspect.signature(fn).return_annotation in (int, "int")}
    assert {"matmul", "expert_mix", "transpose", "gather_rows"} <= builders
    t, _ = _random_graph(0)
    assert builders - {"input", "cross_entropy", "mse"} <= {node.op for node in t._nodes}


def test_grad_check_composite_graph():
    for seed in range(5):
        t, loss = _random_graph(seed)
        report = grad_check(t, loss, SeededRng(100 + seed))
        assert report.max_rel_error <= 1e-6, report.per_param


def test_grad_check_linear_graph_tight():
    rng = SeededRng(12)
    t = Tape()
    x = t.input(rng.normal(8).reshape(2, 4))
    w = t.input(rng.normal(12).reshape(3, 4), name="w", trainable=True)
    y = t.matmul(x, w, transpose_b=True)
    target = t.input(rng.normal(6).reshape(2, 3))
    # mse is quadratic, still exactly differentiated by central differences
    loss = t.mse(y, target)
    report = grad_check(t, loss, SeededRng(0))
    assert report.max_rel_error <= 1e-9


def test_grad_check_gather_rows():
    rng = SeededRng(31)
    t = Tape()
    table = t.input(rng.normal(15).reshape(5, 3), name="emb", trainable=True)
    rows = t.gather_rows(table, t.input(np.array([0, 2, 2, 4])))
    loss = t.cross_entropy(rows, t.input(np.array([0, 1, 2, 1])))
    report = grad_check(t, loss, SeededRng(1))
    assert report.max_rel_error <= 1e-6


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


def test_eval_scalar_override_leaves_state_untouched():
    t, loss = _random_graph(3)
    t.forward()
    before = t.value(loss).copy()
    slot = t.trainable_slots()["w1"]
    bumped = t.value(slot).copy()
    bumped[0, 0] += 0.5
    shifted = t.eval_scalar(loss, {slot: bumped})
    assert shifted != float(before)
    assert float(t.value(loss)) == float(before)


def test_forward_recomputes_after_set_value():
    t = Tape()
    x = t.input(np.array([[1.0, 2.0]]), name="x", trainable=True)
    loss = t.mse(x, t.input(np.zeros((1, 2))))
    t.set_value(x, np.array([[2.0, 2.0]]))
    t.forward()
    assert float(t.value(loss)) == 4.0
    # a float64 leaf is its source array, so an in-place update reaches it
    t.value(x)[0, 0] = 0.0
    t.forward()
    assert float(t.value(loss)) == 2.0
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
    "k-loop": (100, 20, 80, 1),           # 8,000 entries: too few products per pass
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
              if per_pass >= linalg._MIN_PASS_SLICES else "k-loop")
    assert path.endswith(kernel)
    rng = SeededRng(21)
    x_val, w_val = rng.normal(m * k).reshape(m, k), rng.normal(n * k).reshape(n, k)
    x_val[0], w_val[:, 1] = -0.0, -0.0
    target = rng.normal(m * n // groups).reshape(m, n // groups)

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
        grads = t.backward(t.mse(out, t.input(target)))
        gw = grads["w"] if transpose_b or groups == 1 else _per_block_transpose(grads["w"], groups)
        return t.value(out), grads["x"], gw

    for fused, reference in zip(run(True), run(False)):
        _assert_same_bytes(fused, reference)


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
    # out - target < 0 everywhere, so row 2 of each gate column sums -0.0 products
    target = 10.0 + rng.uniform(m * width).reshape(m, width)
    t = Tape()
    gate = t.input(gate_val, name="gate", trainable=True)
    ys = [t.input(y, name=f"y{i}", trainable=True) for i, y in enumerate(ys_val)]
    mix = t.expert_mix(gate, *ys)
    grads = t.backward(t.mse(mix, t.input(target)))
    d = t.value(mix) - target
    out, gate_grad, y_grads = _slice_mul_add_chain(gate_val, ys_val, 1.0 * 2.0 * d / d.size)
    _assert_same_bytes(t.value(mix), out)
    _assert_same_bytes(grads["gate"], gate_grad)
    for i, y_grad in enumerate(y_grads):
        _assert_same_bytes(grads[f"y{i}"], y_grad)
    # a one-wide expert's -0.0 products reach the gate unsummed; the zero padding
    # of two experts or more turned them into +0.0
    assert np.signbit(gate_grad[2]).all() == (n_experts == 1 and width == 1)
    assert np.signbit(y_grads[0][1]).all()
