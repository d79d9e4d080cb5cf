"""Reverse-mode differentiation over a small fixed set of primitives.

A Tape is a re-runnable straight-line program: building an op computes it
immediately, `forward()` recomputes every node from the current leaf values,
and `backward()` walks the node list in exact reverse. The op set is closed
on purpose, so every backward rule is hand-auditable: matmul (a b or a b^T,
per row block if grouped), expert_mix (gate-weighted expert sum), add, scale,
relu, softmax_rows, group_mean, gather_rows, transpose, and the losses
cross_entropy (fused with softmax) and mse. tests/test_autodiff.py's
test_random_graph_covers_every_node_builder fails on a builder that its
grad-checked tape does not use.

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


def _softmax_rows(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


@dataclass
class _Node:
    op: str
    inputs: tuple[int, ...]
    aux: object
    value: np.ndarray
    trainable: bool = False
    needs_grad: bool = False
    name: str | None = None


class Tape:
    """Straight-line computation graph over numpy arrays."""

    def __init__(self):
        self._nodes: list[_Node] = []
        self._trainable_names: set[str] = set()

    # -- construction ----------------------------------------------------

    def input(self, value, name: str | None = None, trainable: bool = False) -> int:
        if trainable and name is not None:  # gradients are keyed by name
            if name in self._trainable_names:
                raise ContractError(f"trainable leaf {name!r} is already on the tape")
            self._trainable_names.add(name)
        value = np.asarray(value)
        if value.dtype.kind == "f":
            value = value.astype(np.float64)
        node = _Node("input", (), None, value, trainable, trainable, name)
        self._nodes.append(node)
        return len(self._nodes) - 1

    def _emit(self, op: str, inputs: tuple[int, ...], aux=None) -> int:
        value = self._compute(op, [self._nodes[i].value for i in inputs], aux)
        needs = any(self._nodes[i].needs_grad for i in inputs)
        self._nodes.append(_Node(op, inputs, aux, value, False, needs))
        return len(self._nodes) - 1

    def matmul(self, a: int, b: int, groups: int = 1, transpose_b: bool = False) -> int:
        """a b, or a b^T with transpose_b; with groups > 1, that per row block, stacked."""
        if groups < 1 or any(len(self._nodes[s].value) % groups for s in (a, b)):
            raise ShapeError(f"matmul operand rows do not split into {groups} blocks")
        return self._emit("matmul", (a, b), (groups, transpose_b))

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

    def group_mean(self, a: int, mask: np.ndarray) -> int:
        """Per row block s, the mean of the rows that mask[s] (0 or 1 per row) keeps."""
        return self._emit("group_mean", (a,), np.asarray(mask, dtype=np.float64))

    def expert_mix(self, gate: int, *ys: int) -> int:
        """Sum over i of gate[:, i:i+1] * ys[i], added in index order."""
        shapes = [self._nodes[s].value.shape for s in (gate, *ys)]
        if (len(set(shapes[1:])) != 1 or len(shapes[1]) != 2
                or shapes[0] != (shapes[1][0], len(ys))):
            raise ShapeError(f"expert_mix needs a gate column per equal expert, got {shapes}")
        return self._emit("expert_mix", (gate, *ys))

    def gather_rows(self, a: int, indices) -> int:
        idx = np.asarray(indices, dtype=np.int64)
        return self._emit("gather_rows", (a,), idx)

    def cross_entropy(self, logits: int, labels: int) -> int:
        """Mean softmax cross-entropy over rows; labels are an int leaf."""
        return self._emit("cross_entropy", (logits, labels))

    def mse(self, pred: int, target: int) -> int:
        """Mean squared error over all entries."""
        return self._emit("mse", (pred, target))

    # -- evaluation ------------------------------------------------------

    @staticmethod
    def _compute(op: str, vals: list, aux):
        if op == "matmul":
            return _group_matmul(*vals, aux[0], tb=aux[1])
        if op == "expert_mix":
            gate, *ys = vals
            out = gate[:, :1] * ys[0]
            for i in range(1, len(ys)):
                out = out + gate[:, i : i + 1] * ys[i]
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
            w = aux[:, :, None]
            # sum, then divide: the bytes of mean() when no row is masked
            return np.add.reduce(vals[0].reshape(*aux.shape, -1) * w, axis=1) / w.sum(axis=1)
        if op == "gather_rows":
            return vals[0][aux]
        if op == "cross_entropy":
            logits, labels = vals
            shifted = logits - logits.max(axis=1, keepdims=True)
            lse = np.log(np.exp(shifted).sum(axis=1))
            rows = np.arange(logits.shape[0])
            return np.asarray((lse - shifted[rows, labels]).mean())
        if op == "mse":
            d = vals[0] - vals[1]
            return np.asarray((d * d).mean())
        raise ContractError(f"unknown op {op!r}")

    def value(self, slot: int) -> np.ndarray:
        return self._nodes[slot].value

    def set_value(self, slot: int, value) -> None:
        node = self._nodes[slot]
        if node.op != "input":
            raise ContractError("set_value only applies to input leaves")
        value = np.asarray(value)
        if value.dtype.kind == "f":
            value = value.astype(np.float64)
        if value.shape != node.value.shape:
            raise ShapeError(
                f"set_value shape mismatch: {value.shape} vs {node.value.shape}")
        node.value = value

    def forward(self) -> None:
        """Recompute every non-leaf node from current leaf values."""
        for node in self._nodes:
            if node.op != "input":
                node.value = self._compute(
                    node.op, [self._nodes[i].value for i in node.inputs], node.aux)

    def eval_scalar(self, slot: int, overrides: dict[int, np.ndarray] | None = None):
        """Functional forward pass returning the raw scalar at `slot`.

        `overrides` substitutes leaf values without touching stored state;
        override arrays may be a wider float dtype than the stored leaves
        (grad_check relies on this for low-noise finite differences), so the
        result is returned unconverted to preserve that precision.
        """
        overrides = overrides or {}
        # only nodes downstream of an override need recomputing; everything
        # else reuses its stored value (identical across +eps/-eps evals, so
        # any float64 noise there cancels out of the difference)
        dirty = [False] * len(self._nodes)
        vals: list[np.ndarray | None] = [None] * len(self._nodes)
        for i, node in enumerate(self._nodes):
            if node.op == "input":
                if i in overrides:
                    vals[i] = overrides[i]
                    dirty[i] = True
                else:
                    vals[i] = node.value
            elif any(dirty[j] for j in node.inputs):
                vals[i] = self._compute(node.op, [vals[j] for j in node.inputs], node.aux)
                dirty[i] = True
            else:
                vals[i] = node.value
        out = np.asarray(vals[slot])
        if out.size != 1:
            raise ContractError(f"eval_scalar target has shape {out.shape}")
        return out.reshape(())[()]

    # -- differentiation -------------------------------------------------

    def trainable_slots(self) -> dict[str, int]:
        out = {}
        for i, node in enumerate(self._nodes):
            if node.op == "input" and node.trainable:
                out[node.name or f"slot{i}"] = i
        return out

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
        return {name: grads.get(i, np.zeros_like(self._nodes[i].value))
                for name, i in self.trainable_slots().items()}

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
            gate, *ys = vals
            # row sums of g * y_i (a 1-wide one is its own); with N > 1 experts,
            # + 0.0 gives each column the bytes of its sum with the others' zeros
            cols = np.concatenate([g * y if g.shape[1] == 1 else (g * y).sum(axis=1, keepdims=True)
                                   for y in ys], axis=1)
            put(ins[0], cols + 0.0 if len(ys) > 1 else cols)
            for i, slot in enumerate(ins[1:]):
                put(slot, g * gate[:, i : i + 1])
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
            w = aux[:, :, None]
            rows = g[:, None, :] * w / w.sum(axis=1, keepdims=True)
            put(ins[0], rows.reshape(vals[0].shape))
        elif op == "gather_rows":
            full = np.zeros_like(vals[0])
            np.add.at(full, aux, g)
            put(ins[0], full)
        elif op == "cross_entropy":
            logits, labels = vals
            p = _softmax_rows(logits)
            onehot = np.zeros_like(p)
            onehot[np.arange(p.shape[0]), labels] = 1.0
            put(ins[0], float(g) * (p - onehot) / p.shape[0])
        elif op == "mse":
            d = vals[0] - vals[1]
            put(ins[0], float(g) * 2.0 * d / d.size)
            put(ins[1], float(g) * -2.0 * d / d.size)
        else:
            raise ContractError(f"no backward rule for op {op!r}")


@dataclass
class GradReport:
    """Outcome of a finite-difference audit of backward()."""

    eps: float
    per_param: dict[str, float] = field(default_factory=dict)
    coords_checked: int = 0

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


def grad_check(tape: Tape, loss_slot: int, rng: linalg.SeededRng,
               eps: float = 1e-6, coords_per_param: int = 32) -> GradReport:
    """Compare backward() against central differences on sampled coordinates.

    Relative error per coordinate is |g_ad - g_fd| / max(1e-12, |g_ad| + |g_fd|);
    the report keeps the max per parameter.
    """
    if not (0.0 < eps <= 1e-3):
        raise ContractError(f"eps must be in (0, 1e-3], got {eps}")
    tape.forward()
    grads = tape.backward(loss_slot)
    report = GradReport(eps=eps)
    for name, slot in tape.trainable_slots().items():
        base = tape.value(slot)
        flat_n = base.size
        if flat_n <= coords_per_param:
            coords = np.arange(flat_n)
        else:
            # distinct coordinates via a seeded partial shuffle
            perm = rng.derive("gradcheck", name).shuffle(list(range(flat_n)))
            coords = np.asarray(perm[:coords_per_param])
        g_ad_flat = grads[name].ravel()
        worst = 0.0
        for c in coords:
            pert = base.astype(_FD_DTYPE).ravel()
            pert[c] += _FD_DTYPE(eps)
            f_plus = tape.eval_scalar(loss_slot, {slot: pert.reshape(base.shape)})
            pert[c] -= _FD_DTYPE(2.0 * eps)
            f_minus = tape.eval_scalar(loss_slot, {slot: pert.reshape(base.shape)})
            g_fd = float((f_plus - f_minus) / (_FD_DTYPE(2.0) * _FD_DTYPE(eps)))
            g_ad = float(g_ad_flat[c])
            rel = abs(g_ad - g_fd) / max(1e-12, abs(g_ad) + abs(g_fd))
            worst = max(worst, rel)
            report.coords_checked += 1
        report.per_param[name] = worst
    return report
