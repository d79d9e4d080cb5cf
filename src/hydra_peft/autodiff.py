"""Reverse-mode differentiation over a small fixed set of primitives.

A Tape is a re-runnable straight-line program: building an op computes it
immediately, `forward()` recomputes every node from the current leaf values
(`forward(slot)` only those that depend on the leaf at `slot`), and
`backward()` walks the node list in exact reverse. A float64 leaf aliases
the array it was given, so trainer.train re-runs one tape on every step:
parameter leaves see the optimizer's in-place updates and `set_value`
writes each batch into its leaves. The op set is closed on
purpose, so every backward rule is hand-auditable: matmul (a b or a b^T, per
row block if grouped; several equal b^T stacked into one product, so hydra's
experts run as one node while each stays a leaf of its own), expert_mix (the
gate-weighted sum of y's column blocks), add, scale, relu, softmax_rows,
group_mean (row mask operand), gather_rows (row id operand), transpose, and
the loss cross_entropy (fused with softmax).
tests/test_autodiff.py's test_random_graph_covers_every_node_builder fails
on a builder that its grad-checked tape does not use.

Gradients are only accumulated along paths that reach a trainable leaf;
frozen leaves never appear in the returned gradient map.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import ContractError, ShapeError


def _group_matmul(a, b, groups: int, ta: bool = False, tb: bool = False) -> np.ndarray:
    """Row block s of a times row block s of b, each transposed (a view) if asked, stacked."""
    if groups == 1:
        return linalg.matmul(a.T if ta else a, b.T if tb else b)
    a, b = (x.reshape(groups, -1, x.shape[1]) for x in (a, b))
    out = linalg.matmul(a.transpose(0, 2, 1) if ta else a, b.transpose(0, 2, 1) if tb else b)
    return out.reshape(-1, out.shape[2])


def _leaf(value) -> np.ndarray:
    """value as an array, floats narrower than float64 widened to it (wider
    ones, such as grad_check's longdouble, and float64 itself kept as given)."""
    value = np.asarray(value)
    return value.astype(np.float64) if value.dtype.kind == "f" and value.itemsize < 8 else value


def _softmax_rows(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


@dataclass
class _Node:
    op: str
    inputs: tuple[int, ...]
    aux: object
    value: np.ndarray
    needs_grad: bool = False


class Tape:
    """Straight-line computation graph over numpy arrays."""

    def __init__(self):
        self._nodes: list[_Node] = []
        self._trainable: dict[str, int] = {}  # gradient key -> leaf slot

    # -- construction ----------------------------------------------------

    def input(self, value, name: str | None = None, trainable: bool = False) -> int:
        """A leaf holding `value` itself when it is a float64 array (no copy)."""
        slot = len(self._nodes)
        if trainable:  # gradients are keyed by name
            key = name if name is not None else f"slot{slot}"
            if key in self._trainable:
                raise ContractError(f"trainable leaf {key!r} is already on the tape")
            self._trainable[key] = slot
        self._nodes.append(_Node("input", (), None, _leaf(value), trainable))
        return slot

    def _emit(self, op: str, inputs: tuple[int, ...], aux=None) -> int:
        value = self._compute(op, [self._nodes[i].value for i in inputs], aux)
        needs = any(self._nodes[i].needs_grad for i in inputs)
        self._nodes.append(_Node(op, inputs, aux, value, needs))
        return len(self._nodes) - 1

    def matmul(self, a: int, *bs: int, groups: int = 1, transpose_b: bool = False) -> int:
        """a b, or a b^T with transpose_b; with groups > 1, that per row block, stacked.
        Several b of one shape act, with transpose_b, as one b with their rows stacked."""
        if len(bs) != 1 and (groups != 1 or not transpose_b
                             or len({self._nodes[s].value.shape for s in bs}) != 1):
            raise ShapeError("stacked matmul needs b of one shape, transpose_b, one group")
        if groups < 1 or any(len(self._nodes[s].value) % groups for s in (a, *bs)):
            raise ShapeError(f"matmul operand rows do not split into {groups} blocks")
        return self._emit("matmul" if len(bs) == 1 else "stacked_matmul", (a, *bs),
                          (groups, transpose_b))

    def transpose(self, a: int) -> int:
        return self._emit("transpose", (a,))

    def add(self, a: int, b: int) -> int:
        if self._nodes[a].value.shape != self._nodes[b].value.shape:
            raise ShapeError(
                f"add shape mismatch: {self._nodes[a].value.shape} vs "
                f"{self._nodes[b].value.shape}")
        return self._emit("add", (a, b))

    def scale(self, a: int, c: float) -> int:
        return self._emit("scale", (a,), float(c))

    def relu(self, a: int) -> int:
        return self._emit("relu", (a,))

    def softmax_rows(self, a: int) -> int:
        return self._emit("softmax_rows", (a,))

    def group_mean(self, a: int, mask: int) -> int:
        """Per row block s, the mean of the rows that row s of the (blocks, rows)
        float leaf `mask` (0 or 1 per row) keeps."""
        return self._emit("group_mean", (a, mask))

    def expert_mix(self, gate: int, y: int) -> int:
        """Sum over i of gate[:, i:i+1] * column block i of y, added in index order."""
        shapes = [self._nodes[s].value.shape for s in (gate, y)]
        if (len(shapes[0]) != 2 or len(shapes[1]) != 2 or shapes[0][0] != shapes[1][0]
                or not shapes[0][1] or shapes[1][1] % shapes[0][1]):
            raise ShapeError(f"expert_mix needs a gate column per column block of y, got {shapes}")
        return self._emit("expert_mix", (gate, y))

    def gather_rows(self, a: int, indices: int) -> int:
        """Rows of a picked by the 1-D int leaf `indices`, repeats allowed."""
        return self._emit("gather_rows", (a, indices))

    def cross_entropy(self, logits: int, labels: int) -> int:
        """Mean softmax cross-entropy over rows; labels are an int leaf."""
        return self._emit("cross_entropy", (logits, labels))

    # -- evaluation ------------------------------------------------------

    @staticmethod
    def _compute(op: str, vals: list, aux):
        if op == "matmul":
            return _group_matmul(*vals, aux[0], tb=aux[1])
        if op == "expert_mix":
            gate, y = vals
            d = y.shape[1] // gate.shape[1]
            out = gate[:, :1] * y[:, :d]
            for i in range(1, gate.shape[1]):
                out = out + gate[:, i : i + 1] * y[:, i * d : (i + 1) * d]
            return out
        if op == "transpose":
            return vals[0].T.copy()
        if op == "add":
            return vals[0] + vals[1]
        if op == "scale":
            return vals[0] * aux
        if op == "relu":
            return np.maximum(vals[0], 0.0)
        if op == "softmax_rows":
            return _softmax_rows(vals[0])
        if op == "group_mean":
            w = vals[1][:, :, None]
            # sum, then divide: the bytes of mean() when no row is masked
            return np.add.reduce(vals[0].reshape(*vals[1].shape, -1) * w, axis=1) / w.sum(axis=1)
        if op == "gather_rows":
            return vals[0][vals[1]]
        if op == "cross_entropy":
            logits, labels = vals
            shifted = logits - logits.max(axis=1, keepdims=True)
            lse = np.log(np.exp(shifted).sum(axis=1))
            rows = np.arange(logits.shape[0])
            return np.asarray((lse - shifted[rows, labels]).mean())
        if op == "stacked_matmul":  # last, so the other ops dispatch as before it
            return linalg.matmul(vals[0], np.concatenate(vals[1:]).T)
        raise ContractError(f"unknown op {op!r}")

    def value(self, slot: int) -> np.ndarray:
        return self._nodes[slot].value

    def set_value(self, slot: int, value) -> None:
        """Point a leaf at a new value of its shape, held as `input` holds it."""
        node = self._nodes[slot]
        if node.op != "input":
            raise ContractError("set_value only applies to input leaves")
        value = _leaf(value)
        if value.shape != node.value.shape:
            raise ShapeError(
                f"set_value shape mismatch: {value.shape} vs {node.value.shape}")
        node.value = value

    def forward(self, start: int = 0) -> None:
        """Recompute non-leaf nodes from current leaf values: every one, or,
        given the slot of a leaf, those that depend on it. After set_value on
        that leaf alone, forward(slot) gives the bytes of forward(): no node
        before a leaf's slot can depend on it, and the others keep theirs."""
        stale = {start}
        for i in range(start, len(self._nodes)):
            node = self._nodes[i]
            if node.op != "input" and (not start or not stale.isdisjoint(node.inputs)):
                node.value = self._compute(
                    node.op, [self._nodes[j].value for j in node.inputs], node.aux)
                stale.add(i)

    # -- differentiation -------------------------------------------------

    def trainable_slots(self) -> dict[str, int]:
        return dict(self._trainable)

    def backward(self, loss_slot: int) -> dict[str, np.ndarray]:
        """Gradients of the scalar at loss_slot w.r.t. every trainable leaf."""
        loss = self._nodes[loss_slot]
        if np.asarray(loss.value).size != 1:
            raise ContractError(
                f"backward needs a scalar loss, got shape {np.asarray(loss.value).shape}")
        grads: dict[int, np.ndarray] = {loss_slot: np.ones_like(loss.value)}
        for i in range(loss_slot, -1, -1):
            node = self._nodes[i]
            if node.op == "input":
                continue  # leaf gradients stay in the map for collection
            g = grads.pop(i, None)
            if g is None:
                continue
            self._accumulate(node, g, grads)
        return {name: grads[i] if i in grads else np.zeros_like(self._nodes[i].value)
                for name, i in self._trainable.items()}

    def _accumulate(self, node: _Node, g: np.ndarray, grads: dict[int, np.ndarray]) -> None:
        def put(slot: int, contribution: np.ndarray) -> None:
            if not self._nodes[slot].needs_grad:
                return
            if slot in grads:
                grads[slot] = grads[slot] + contribution
            else:
                grads[slot] = contribution

        op, ins, aux = node.op, node.inputs, node.aux
        vals = [self._nodes[i].value for i in ins]
        if op == "matmul":
            (groups, tb), (a, b) = aux, vals  # per block: out = a b, or a b^T with tb
            if self._nodes[ins[0]].needs_grad:
                put(ins[0], _group_matmul(g, b, groups, tb=not tb))
            if self._nodes[ins[1]].needs_grad:  # g^T a with tb, else a^T g
                put(ins[1], _group_matmul(g, a, groups, ta=True) if tb
                            else _group_matmul(a, g, groups, ta=True))
        elif op == "expert_mix":
            gate, y = vals
            # row sums of g * y_i (a 1-wide one is its own); with N > 1 experts,
            # + 0.0 gives each column the bytes of its sum with the others' zeros
            prods = g[:, None, :] * y.reshape(*gate.shape, g.shape[1])
            cols = prods[:, :, 0] if g.shape[1] == 1 else prods.sum(axis=2)
            put(ins[0], cols + 0.0 if gate.shape[1] > 1 else cols)
            put(ins[1], (g[:, None, :] * gate[:, :, None]).reshape(y.shape))
        elif op == "transpose":
            put(ins[0], g.T)
        elif op == "add":
            put(ins[0], g)
            put(ins[1], g)
        elif op == "scale":
            put(ins[0], g * aux)
        elif op == "relu":
            put(ins[0], g * (vals[0] > 0))
        elif op == "softmax_rows":
            p = node.value
            put(ins[0], p * (g - (g * p).sum(axis=1, keepdims=True)))
        elif op == "group_mean":
            w = vals[1][:, :, None]
            rows = g[:, None, :] * w / w.sum(axis=1, keepdims=True)
            put(ins[0], rows.reshape(vals[0].shape))
        elif op == "gather_rows":
            full = np.zeros_like(vals[0])
            np.add.at(full, vals[1], g)
            put(ins[0], full)
        elif op == "cross_entropy":
            logits, labels = vals
            p = _softmax_rows(logits)
            onehot = np.zeros_like(p)
            onehot[np.arange(p.shape[0]), labels] = 1.0
            put(ins[0], float(g) * (p - onehot) / p.shape[0])
        elif op == "stacked_matmul":  # last, as in _compute
            z, bs, d = vals[0], vals[1:], vals[1].shape[0]
            if self._nodes[ins[0]].needs_grad:  # g_i b_i, put last expert first as N nodes put them
                gs = g.reshape(len(g), len(bs), d).transpose(1, 0, 2)
                for p in linalg.matmul(gs, np.stack(bs))[::-1]:
                    put(ins[0], p)
            if any(self._nodes[s].needs_grad for s in ins[1:]):
                gb = linalg.matmul(g.T, z)  # row block i is g_i^T z
                for i, slot in enumerate(ins[1:]):
                    put(slot, gb[i * d : (i + 1) * d])
        else:
            raise ContractError(f"no backward rule for op {op!r}")


@dataclass
class GradReport:
    """Outcome of a finite-difference audit of backward()."""

    eps: float
    per_param: dict[str, float] = field(default_factory=dict)

    @property
    def max_rel_error(self) -> float:
        return max(self.per_param.values()) if self.per_param else 0.0


# Central differences are evaluated in extended precision (80-bit on x86
# Linux). In plain float64 the difference f(x+eps)-f(x-eps) carries ~1e-16
# of evaluation noise, which after division by 2e-6 leaves an absolute noise
# floor near 1e-10 -- enough to blow the relative-error budget on any
# coordinate whose true gradient is small. Extended precision pushes that
# floor below 1e-13.
_FD_DTYPE = np.longdouble
_COORDS_PER_PARAM = 32  # every coordinate of a smaller parameter


def grad_check(tape: Tape, loss_slot: int, rng: linalg.SeededRng,
               eps: float = 1e-6) -> GradReport:
    """Compare backward() against central differences on at most
    _COORDS_PER_PARAM sampled coordinates per parameter.

    Relative error per coordinate is |g_ad - g_fd| / max(1e-12, |g_ad| + |g_fd|);
    the report keeps the max per parameter. Each difference reruns the nodes
    that depend on the perturbed leaf (forward(slot)); afterwards every leaf
    holds its original array again and every node its original value.
    """
    if not (0.0 < eps <= 1e-3):
        raise ContractError(f"eps must be in (0, 1e-3], got {eps}")
    tape.forward()
    grads = tape.backward(loss_slot)
    report = GradReport(eps=eps)

    def loss_with(slot: int, value: np.ndarray) -> np.ndarray:
        tape.set_value(slot, value)
        tape.forward(slot)
        return tape.value(loss_slot)  # a rerun replaces this array, never writes into it

    for name, slot in tape.trainable_slots().items():
        base = tape.value(slot)
        flat_n = base.size
        if flat_n <= _COORDS_PER_PARAM:
            coords = np.arange(flat_n)
        else:
            # distinct coordinates via a seeded partial shuffle
            perm = rng.derive("gradcheck", name).shuffle(list(range(flat_n)))
            coords = np.asarray(perm[:_COORDS_PER_PARAM])
        g_ad_flat = grads[name].ravel()
        worst = 0.0
        for c in coords:
            pert = base.astype(_FD_DTYPE).ravel()
            pert[c] += _FD_DTYPE(eps)
            f_plus = loss_with(slot, pert.reshape(base.shape))
            pert[c] -= _FD_DTYPE(2.0 * eps)
            f_minus = loss_with(slot, pert.reshape(base.shape))
            g_fd = float((f_plus - f_minus) / (_FD_DTYPE(2.0) * _FD_DTYPE(eps)))
            g_ad = float(g_ad_flat[c])
            rel = abs(g_ad - g_fd) / max(1e-12, abs(g_ad) + abs(g_fd))
            worst = max(worst, rel)
        loss_with(slot, base)  # the original array, not a float64 copy
        report.per_param[name] = worst
    return report
