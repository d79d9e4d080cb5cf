"""Small frozen base networks that adapters attach to.

Two variants share one weight layout:

* "dense"  -- feature vectors in, treated as length-1 sequences. Attention
              over a single position is exactly the value projection, so the
              graph keeps only the V path (q/k would receive zero gradient).
              Attachment point: v_proj.
* "tokens" -- token-id sequences through an embedding table and a full
              single-head attention block (softmax(Q K^T / sqrt(d)) V) with
              adapters available on q_proj and v_proj, mean-pooled into the
              classifier head. Id 0 is padding: no position attends to it
              and the pool leaves it out.

Base weights are frozen; only adapters (plus, configurably, the classifier
head, or everything for the full-fine-tuning baseline) ever receive updates.
`param_refs` says which, for graphs, runs and checkpoints alike. Every graph
ends in the cross-entropy of its logits against the batch's labels;
`replay` reruns a graph on another batch of the shape it was built for.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .adapters import ADAPTERS, Adapter
from .autodiff import Tape
from .errors import ContractError, ShapeError, UsageError

ATTACH_POINTS = {
    "dense": ("v_proj",),
    "tokens": ("q_proj", "v_proj"),
}


@dataclass
class Batch:
    inputs: np.ndarray   # (B, feat) float or (B, T) int
    labels: np.ndarray   # (B,) int class ids

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs)
        if self.inputs.shape[0] == 0:
            raise ContractError("batch is empty")
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.labels.shape != (self.inputs.shape[0],):
            raise ShapeError(
                f"labels shape {self.labels.shape} does not match batch "
                f"size {self.inputs.shape[0]}")


@dataclass
class ToyModel:
    mode: str
    d_model: int
    input_dim: int            # feature dim (dense) or vocab size (tokens)
    n_classes: int
    weights: dict[str, np.ndarray]
    adapters: dict[str, Adapter] = field(default_factory=dict)

    def attachment_points(self) -> tuple[str, ...]:
        return ATTACH_POINTS[self.mode]


def _trunk_uniform(rows: int, cols: int, rng: linalg.SeededRng) -> np.ndarray:
    """Variance-preserving uniform init (std = 1/sqrt(fan_in)) for the frozen
    trunk, so activations stay near unit scale through the mostly-linear
    stack and training starts from a tame loss."""
    bound = np.sqrt(3.0 / cols)
    return (2.0 * rng.uniform(rows * cols).reshape(rows, cols) - 1.0) * bound


def dense_model(input_dim: int, d_model: int, n_classes: int, seed: int,
                hidden: int | None = None) -> ToyModel:
    hidden = hidden if hidden is not None else 2 * d_model
    rng = linalg.SeededRng(seed).derive("dense-model")
    names = ["embed", "v_proj", "o_proj", "mlp_in", "mlp_out", "head"]
    shapes = [(d_model, input_dim), (d_model, d_model), (d_model, d_model),
              (hidden, d_model), (d_model, hidden), (n_classes, d_model)]
    weights = {n: _trunk_uniform(*s, rng.derive(n)) for n, s in zip(names, shapes)}
    return ToyModel("dense", d_model, input_dim, n_classes, weights)


def token_model(vocab_size: int, d_model: int, n_classes: int, seed: int,
                hidden: int | None = None) -> ToyModel:
    hidden = hidden if hidden is not None else 2 * d_model
    rng = linalg.SeededRng(seed).derive("token-model")
    names = ["embed", "q_proj", "k_proj", "v_proj", "o_proj", "mlp_in", "mlp_out", "head"]
    shapes = [(vocab_size, d_model), (d_model, d_model), (d_model, d_model),
              (d_model, d_model), (d_model, d_model), (hidden, d_model),
              (d_model, hidden), (n_classes, d_model)]
    weights = {n: _trunk_uniform(*s, rng.derive(n)) for n, s in zip(names, shapes)}
    return ToyModel("tokens", d_model, vocab_size, n_classes, weights)


def clone_model(model: ToyModel) -> ToyModel:
    """Independent copy: weights and any installed adapters are deep-copied."""
    return copy.deepcopy(model)


def attach(model: ToyModel, projection: str, scheme: str, rank: int, seed: int,
           n: int = 1, alpha: float | None = None) -> ToyModel:
    """Install an adapter on a projection. Base weights are untouched."""
    if projection not in model.attachment_points():
        raise UsageError(
            f"unknown projection {projection!r}; this model adapts "
            f"{model.attachment_points()}")
    d, k = model.weights[projection].shape
    rng = linalg.SeededRng(seed).derive("attach", projection)
    if scheme not in ADAPTERS:
        raise UsageError(f"unknown scheme {scheme!r}")
    width = () if scheme == "lora" else (n,)  # hydra's expert count
    model.adapters[projection] = ADAPTERS[scheme].init(d, k, rank, *width, rng, alpha)
    return model


# -- graph construction ----------------------------------------------------


@dataclass
class ModelGraph:
    tape: Tape
    loss_slot: int
    logits_slot: int
    gate_slots: dict[str, int]
    feeds: dict[str, int]  # batch_leaves role -> the leaf it fills

    def gate_means(self) -> dict[str, np.ndarray]:
        """Mean router weights per expert, averaged over the rows that are not
        padding (by the pool mask leaf; every row of a dense graph)."""
        pool = self.feeds.get("pool")
        kept = slice(None) if pool is None else self.tape.value(pool).reshape(-1) > 0
        return {proj: self.tape.value(s)[kept].mean(axis=0)
                for proj, s in self.gate_slots.items()}


def batch_leaves(model: ToyModel, batch: Batch) -> dict[str, np.ndarray]:
    """The checked values a batch puts into a graph's leaves, by role: "x" or
    "tokens", "pool" and "pad" (token masks; "pad" is all zeros where no row
    is padded), and "labels". Built and replayed graphs both read batches here."""
    leaves: dict[str, np.ndarray] = {}
    if model.mode == "dense":
        leaves["x"] = np.asarray(batch.inputs, dtype=np.float64)
    elif model.mode == "tokens":
        tokens = np.asarray(batch.inputs, dtype=np.int64)
        if tokens.ndim != 2:
            raise ShapeError(f"token batches must be (B, T), got {tokens.shape}")
        if tokens.min() < 0 or tokens.max() >= model.input_dim:
            raise ContractError("token id out of vocabulary range")
        keep = tokens != 0
        if not keep.any(axis=1).all():
            raise ContractError("a token sample is all padding")
        leaves["tokens"] = tokens.reshape(-1)
        leaves["pool"] = keep.astype(np.float64)
        # adding +0.0 at most turns a -0.0 score into +0.0, which softmax cannot tell apart
        leaves["pad"] = np.where(np.repeat(keep, tokens.shape[1], 0), 0, -np.inf)
    else:
        raise UsageError(f"unknown model mode {model.mode!r}")

    if batch.labels.min() < 0 or batch.labels.max() >= model.n_classes:
        raise ContractError("label out of class range")
    leaves["labels"] = batch.labels
    return leaves


def build_graph(model: ToyModel, batch: Batch, trainable: str = "adapters+head") -> ModelGraph:
    """Build the forward tape for a batch, ending in the cross-entropy of the
    logits against its labels; the leaves `param_refs(model, trainable)` names
    are trainable."""
    refs = param_refs(model, trainable)
    leaves = batch_leaves(model, batch)
    tape = Tape()
    feeds = {role: tape.input(value) for role, value in leaves.items()}
    # both modes use every base weight
    slots = {name: tape.input(w, name=f"base.{name}", trainable=f"base.{name}" in refs)
             for name, w in model.weights.items()}
    gates: dict[str, int] = {}

    def linear(x: int, name: str) -> int:
        """x W^T for a base weight, plus the update of an adapter attached there."""
        out = tape.matmul(x, slots[name], transpose_b=True)
        ad = model.adapters.get(name)
        if ad is None:
            return out
        # param_refs names every adapter tensor or none
        branch, gate = ad.tape_branch(tape, x, name, bool(refs))
        if gate is not None:
            gates[name] = gate
        return tape.add(out, branch)

    if model.mode == "dense":
        xe = linear(feeds["x"], "embed")
        # length-1 attention: softmax over one position is exactly 1, so the
        # block's output equals the (adapted) value projection
        x2 = tape.add(xe, linear(linear(xe, "v_proj"), "o_proj"))
        x3 = tape.add(x2, linear(tape.relu(linear(x2, "mlp_in")), "mlp_out"))
        logits = linear(x3, "head")
    else:  # tokens: one graph over all B*T rows; attention and pooling act per sample
        n = len(batch.inputs)
        x = tape.gather_rows(slots["embed"], feeds["tokens"])
        q, kk, v = (linear(x, name) for name in ("q_proj", "k_proj", "v_proj"))
        scores = tape.add(tape.scale(tape.matmul(q, kk, groups=n, transpose_b=True),
                                     1.0 / np.sqrt(model.d_model)), feeds["pad"])
        x2 = tape.add(x, linear(tape.matmul(tape.softmax_rows(scores), v, groups=n), "o_proj"))
        x3 = tape.add(x2, linear(tape.relu(linear(x2, "mlp_in")), "mlp_out"))
        logits = linear(tape.group_mean(x3, feeds["pool"]), "head")

    return ModelGraph(tape=tape, loss_slot=tape.cross_entropy(logits, feeds["labels"]),
                      logits_slot=logits, gate_slots=gates, feeds=feeds)


def param_refs(model: ToyModel, trainable: str = "adapters+head") -> dict[str, np.ndarray]:
    """Live arrays behind each trainable leaf name; updates mutate in place.
    This is also a run's checkpoint, in this order: projections sorted, each
    in its adapter's named_params order, then the base weights as
    base.<name>, sorted by name.

    trainable: "adapters" | "adapters+head" | "all" | "none".
    """
    if trainable not in ("adapters", "adapters+head", "all", "none"):
        raise UsageError(f"unknown trainable spec {trainable!r}")
    refs: dict[str, np.ndarray] = {}
    if trainable == "none":
        return refs
    for proj in sorted(model.adapters):
        refs.update(model.adapters[proj].named_params(proj))
    base = model.weights if trainable == "all" else (
        ["head"] if trainable == "adapters+head" and "head" in model.weights else [])
    refs.update((f"base.{name}", model.weights[name]) for name in sorted(base))
    return refs


def replay(graph: ModelGraph, model: ToyModel, batch: Batch) -> None:
    """Rerun a built graph on another batch of its shape; a rejected batch writes no leaf."""
    leaves = batch_leaves(model, batch)
    if any(leaves[role].shape != graph.tape.value(s).shape for role, s in graph.feeds.items()):
        raise ShapeError(f"a batch of shape {batch.inputs.shape} does not fit this graph")
    for role, slot in graph.feeds.items():
        graph.tape.set_value(slot, leaves[role])
    graph.tape.forward()
