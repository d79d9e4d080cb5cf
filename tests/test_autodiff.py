import numpy as np
import pytest

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


def _random_graph(seed: int):
    """Small composite graph touching every primitive."""
    rng = SeededRng(seed)
    t = Tape()
    x = t.input(rng.normal(12).reshape(4, 3))
    w1 = t.input(rng.normal(9).reshape(3, 3) * 0.6, name="w1", trainable=True)
    w2 = t.input(rng.normal(9).reshape(3, 3) * 0.6, name="w2", trainable=True)
    gate_w = t.input(rng.normal(6).reshape(3, 2) * 0.5, name="gate", trainable=True)
    h = t.matmul(x, t.transpose(w1))
    h = t.relu(h)
    g = t.softmax_rows(t.matmul(h, gate_w))
    e1 = t.matmul(h, t.transpose(w2))
    e2 = t.scale(t.matmul(h, w2), 0.5)
    mix = t.add(t.mul(t.slice_cols(g, 0, 1), e1), t.mul(t.slice_cols(g, 1, 2), e2))
    # two groups of two rows: per-group attention of mix over h, then a
    # masked per-group mean that drops the last row
    att = t.softmax_rows(t.group_matmul(mix, h, 2, transpose_b=True))
    ctx = t.group_matmul(att, h, 2)
    pooled = t.group_mean(t.add(mix, ctx), np.array([[1.0, 1.0], [1.0, 0.0]]))
    labels = t.input(np.array([1, 2]))
    loss = t.cross_entropy(pooled, labels)
    return t, loss


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
    y = t.matmul(x, t.transpose(w))
    target = t.input(rng.normal(6).reshape(2, 3))
    # mse is quadratic, still exactly differentiated by central differences
    loss = t.mse(y, target)
    report = grad_check(t, loss, SeededRng(0))
    assert report.max_rel_error <= 1e-9


def test_grad_check_gather_rows():
    rng = SeededRng(31)
    t = Tape()
    table = t.input(rng.normal(15).reshape(5, 3), name="emb", trainable=True)
    rows = t.gather_rows(table, np.array([0, 2, 2, 4]))
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
    ab = t.group_matmul(t.input(a), t.input(b), 2, transpose_b=True)
    assert t.value(ab).shape == (4, 2)
    for s in range(2):
        blk = slice(2 * s, 2 * s + 2)
        assert np.allclose(t.value(ab)[blk], a[blk] @ b[blk].T, atol=1e-15)
    mean = t.group_mean(t.input(a), np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert np.array_equal(t.value(mean), np.stack([a[:2].mean(axis=0), a[3]]))
