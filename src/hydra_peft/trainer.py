"""Fine-tuning loop plus the three statistical experiment harnesses.

Training freezes all base weights and updates adapter parameters (and,
configurably, the classifier head; the "full" scheme updates everything and
serves as the full-fine-tuning baseline). Every run is deterministic given
its config seed: batch order, adapter init, and data synthesis all flow from
that one seed.

The harnesses replicate, at desk scale and as seed-majority statistics:

* run_observation1 -- several small task-dedicated adapter heads vs one
  monolithic adapter of the same total parameter count, on a two-task
  corpus whose tasks conflict (same inputs, different label rules).
* run_observation2 -- one adapter trained per task from a shared frozen
  base and shared init; measures how far the down-projections (A) drift
  apart versus the up-projections (B), scale-normalized.
* run_heterogeneity -- full fine-tuning vs a rank-limited adapter across
  corpora mixing 1..L planted components; emits the performance gap per
  mixing level.
"""

from __future__ import annotations

import inspect
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from . import adapters as ad_mod
from .analysis import group_divergence
from . import corpus as corpus_mod
from . import toy_model as tm
from .errors import InvariantError, TrainingAborted, UsageError
from .linalg import SeededRng
from .toy_model import Batch, ToyModel

SCHEMES = ("lora", "split", "hydra", "full")
OPTIMIZERS = ("sgd", "adam")

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# numeric TrainConfig fields and their lower bounds (None: unbounded)
_INT_FIELDS = {"rank": 1, "experts": 1, "steps": 1, "batch_size": 1, "seed": None,
               "eval_interval": 1, "d_model": 1, "hidden": 1, "seq_len": 1,
               "pretrain_steps": 0}
_FLOAT_FIELDS = {"learning_rate": 0, "pretrain_lr": 0, "alpha": None}


@dataclass
class TrainConfig:
    scheme: str = "lora"
    rank: int = 4
    experts: int = 1              # B-matrix count for hydra, head count for split
    alpha: float | None = None    # update scale numerator; defaults to rank
    learning_rate: float = 0.2
    steps: int = 200
    batch_size: int = 16
    seed: int = 0
    optimizer: str = "sgd"
    dataset: dict | str | None = None
    eval_interval: int = 25
    train_head: bool = True
    d_model: int = 24
    hidden: int | None = None
    seq_len: int = 8              # token-mode sequence length
    pretrain_steps: int = 30      # base "pretraining" before adapters attach
    pretrain_lr: float = 0.2

    def validate(self) -> "TrainConfig":
        if self.scheme not in SCHEMES:
            raise UsageError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.optimizer not in OPTIMIZERS:
            raise UsageError(f"optimizer must be one of {OPTIMIZERS}, got {self.optimizer!r}")
        for name, lo in {**_INT_FIELDS, **_FLOAT_FIELDS}.items():
            v = getattr(self, name)
            if v is None and name in ("hidden", "alpha"):
                continue
            integer = name in _INT_FIELDS
            if (isinstance(v, bool) or not isinstance(v, int if integer else (int, float))
                    or not (integer or math.isfinite(v))):
                kind = "an integer" if integer else "a finite number"
                raise UsageError(f"{name} must be {kind}, got {v!r}")
            if lo is not None and v < lo:
                raise UsageError(f"{name} must be >= {lo}, got {v}")
        if not isinstance(self.train_head, bool):
            raise UsageError(f"train_head must be true or false, got {self.train_head!r}")
        if self.scheme != "full" and self.rank > self.d_model:
            raise UsageError(f"rank must be <= d_model ({self.d_model}), got {self.rank}")
        return self

    @classmethod
    def from_json(cls, text: str) -> "TrainConfig":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as e:
            raise UsageError(f"config is not valid JSON: {e.msg}") from e
        if not isinstance(obj, dict):
            raise UsageError("config must be a JSON object")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(obj) - known
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        return cls(**obj).validate()


@dataclass
class TrainReport:
    rows: list[dict]              # step, loss, acc, gates
    final_loss: float
    final_acc: float
    trainable_params: int
    gate_usage: list[float] | None
    flop_tally: int
    seed: int

    def to_csv(self) -> str:
        n_gates = len(self.rows[0]["gates"]) if self.rows else 0
        header = "step,loss,acc" + "".join(f",gate_{i}" for i in range(n_gates))
        lines = [header]
        for row in self.rows:
            cells = [str(row["step"]), repr(row["loss"]), repr(row["acc"])]
            cells += [repr(g) for g in row["gates"]]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def summary(self) -> dict:
        return {
            "final_loss": self.final_loss,
            "final_acc": self.final_acc,
            "trainable_params": self.trainable_params,
            "gate_usage": self.gate_usage,
            "flop_tally": self.flop_tally,
            "seed": self.seed,
        }


@dataclass
class Dataset:
    """Fixed train/eval arrays; loss picks between class labels and targets."""

    train_inputs: np.ndarray
    eval_inputs: np.ndarray
    train_labels: np.ndarray | None = None
    eval_labels: np.ndarray | None = None
    train_targets: np.ndarray | None = None
    eval_targets: np.ndarray | None = None
    train_tasks: np.ndarray | None = None
    eval_tasks: np.ndarray | None = None
    loss: str = "ce"

    def n_train(self) -> int:
        return self.train_inputs.shape[0]

    def train_batch(self, idx: np.ndarray) -> Batch:
        return Batch(
            inputs=self.train_inputs[idx],
            labels=None if self.train_labels is None else self.train_labels[idx],
            targets=None if self.train_targets is None else self.train_targets[idx])

    def eval_batch(self, mask: np.ndarray | None = None) -> Batch:
        if mask is None:
            mask = np.ones(self.eval_inputs.shape[0], dtype=bool)
        return Batch(
            inputs=self.eval_inputs[mask],
            labels=None if self.eval_labels is None else self.eval_labels[mask],
            targets=None if self.eval_targets is None else self.eval_targets[mask])


class _Optimizer:
    """SGD / Adam over live parameter arrays (updates mutate in place).

    Adam's m and v are flat, in refs order. A step runs the arithmetic once
    per run of adjacent parameters that got a gradient (one run when all
    did), so a parameter without one keeps its m and v; each entry sees the
    operations of a per-array update, so the bytes are the same."""

    def __init__(self, refs: dict[str, np.ndarray], lr: float, kind: str):
        self.refs = refs
        self.lr = lr
        self.kind = kind
        self.t = 0
        size = sum(arr.size for arr in refs.values())
        self._m = np.zeros(size) if kind == "adam" else None
        self._v = np.zeros(size) if kind == "adam" else None
        self._runs: dict[tuple[str, ...], list] = {}

    def _runs_for(self, present) -> list[tuple[slice, list[tuple[str, slice]]]]:
        """(flat slice, [(name, slice of the run)]) per run of adjacent refs in present."""
        runs, lo = [], 0  # [start, stop, parts] per run
        for name, arr in self.refs.items():
            hi = lo + arr.size
            if name in present:
                if not runs or runs[-1][1] != lo:
                    runs.append([lo, lo, []])
                runs[-1][1] = hi
                runs[-1][2].append((name, slice(lo - runs[-1][0], hi - runs[-1][0])))
            lo = hi
        return [(slice(start, stop), parts) for start, stop, parts in runs]

    def step(self, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        key = tuple(grads)
        if key not in self._runs:
            self._runs[key] = self._runs_for(key)
        for flat, parts in self._runs[key]:
            g = np.concatenate([grads[name].ravel() for name, _ in parts])
            if self.kind == "sgd":
                upd = self.lr * g
            else:
                m = self._m[flat]
                v = self._v[flat]
                m *= ADAM_BETA1
                m += (1 - ADAM_BETA1) * g
                v *= ADAM_BETA2
                v += (1 - ADAM_BETA2) * g * g
                m_hat = m / (1 - ADAM_BETA1 ** self.t)
                v_hat = v / (1 - ADAM_BETA2 ** self.t)
                upd = self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
            for name, part in parts:
                arr = self.refs[name]
                arr -= upd[part].reshape(arr.shape)


def evaluate(model: ToyModel, data: Dataset, mask: np.ndarray | None = None):
    """(loss, accuracy, gate means) on the eval split."""
    batch = data.eval_batch(mask)
    logits, loss, gates = tm.forward(model, batch, loss=data.loss)
    if data.loss == "ce":
        acc = float((logits.argmax(axis=1) == batch.labels).mean())
    else:
        acc = 0.0
    return loss, acc, gates


def _gate_row(gates: dict[str, np.ndarray]) -> list[float]:
    if not gates:
        return []
    stacked = np.stack(list(gates.values()))
    return [float(v) for v in stacked.mean(axis=0)]


def _tokens_per_sample(model: ToyModel, data: Dataset) -> int:
    return data.train_inputs.shape[1] if model.mode == "tokens" else 1


def _adapter_flops(model: ToyModel, cfg: TrainConfig, tokens_processed: int) -> int:
    """2 FLOPs per MAC, backward costed at twice forward, adapter branches only."""
    if cfg.scheme == "full" or not model.adapters:
        return 0
    d, k = model.weights[model.attachment_points()[0]].shape
    per_matrix = ad_mod.params_per_matrix(
        cfg.scheme, d, k, cfg.rank, cfg.experts)
    macs = per_matrix * len(model.adapters) * tokens_processed
    return 6 * macs


def _step_graph(graphs: dict, model: ToyModel, batch: Batch, loss: str, trainable: str,
                head: int | None) -> tm.ModelGraph:
    """The batch's training graph, run forward: built on the first use of its
    signature (shape, split head, padding), then replayed for later batches."""
    leaves = tm.batch_leaves(model, batch, loss)
    key = (batch.inputs.shape, head, "pad" in leaves)
    graph = graphs.get(key)
    if graph is None:
        graph = graphs[key] = tm.build_graph(model, batch, loss=loss, trainable=trainable,
                                             active_split_head=head)
    else:
        for role, slot in graph.feeds.items():
            graph.tape.set_value(slot, leaves[role])
        graph.tape.forward()
    return graph


def train(model: ToyModel, data: Dataset, cfg: TrainConfig,
          task_schedule: bool = False) -> TrainReport:
    """Optimize the model's trainable parameters on the dataset.

    With task_schedule=True, step s draws its batch from task (s mod n_tasks)
    and, for split adapters, only that task's head receives gradients (the
    dedicated-heads protocol used by run_observation1).
    """
    trainable = "all" if cfg.scheme == "full" else (
        "adapters+head" if cfg.train_head else "adapters")
    rng = SeededRng(cfg.seed).derive("train-loop")
    task_ids = None
    if task_schedule:
        if data.train_tasks is None:
            raise UsageError("task_schedule requires task tags on the dataset")
        task_ids = sorted(set(int(t) for t in data.train_tasks))
    rows = []

    def record(step):
        loss, acc, gates = evaluate(model, data)
        rows.append({"step": step, "loss": loss, "acc": acc, "gates": _gate_row(gates)})
        return rows[-1]

    record(0)
    refs = tm.param_refs(model, trainable)
    n_params = sum(a.size for a in refs.values())
    opt = _Optimizer(refs, cfg.learning_rate, cfg.optimizer)
    graphs: dict[tuple, tm.ModelGraph] = {}
    for step in range(1, cfg.steps + 1):
        if task_ids is not None:
            task = task_ids[(step - 1) % len(task_ids)]
            pool = np.flatnonzero(data.train_tasks == task)
            idx = pool[rng.integers(cfg.batch_size, pool.size)]
            head = task if cfg.scheme == "split" else None
        else:
            idx = rng.integers(cfg.batch_size, data.n_train())
            head = None
        batch = data.train_batch(idx)
        try:
            # divergence shows up as non-finite values below; numpy's own
            # overflow warnings on the way there are just noise
            with np.errstate(all="ignore"):
                graph = _step_graph(graphs, model, batch, data.loss, trainable, head)
                loss_val = float(graph.tape.value(graph.loss_slot))
                if not np.isfinite(loss_val):
                    raise TrainingAborted(step, f"loss became {loss_val}")
                # only leaves present in this step's graph produce gradients; with
                # a task-scheduled split adapter that is exactly the dedicated head
                grads = graph.tape.backward(graph.loss_slot)
        except InvariantError as e:
            raise TrainingAborted(step, str(e)) from e
        opt.step(grads)
        if step % cfg.eval_interval == 0 or step == cfg.steps:
            record(step)

    final = rows[-1]
    gate_usage = final["gates"] if final["gates"] else None
    tokens = cfg.steps * cfg.batch_size * _tokens_per_sample(model, data)
    return TrainReport(rows=rows, final_loss=final["loss"], final_acc=final["acc"],
                       trainable_params=n_params, gate_usage=gate_usage,
                       flop_tally=_adapter_flops(model, cfg, tokens), seed=cfg.seed)


def _checkpoint_meta(cfg: TrainConfig) -> dict[str, str]:
    alpha = float(cfg.alpha if cfg.alpha is not None else cfg.rank)
    return {"scheme": cfg.scheme, "rank": str(cfg.rank), "alpha": repr(alpha),
            "seed": str(cfg.seed)}


def _checkpoint_base(model: ToyModel, cfg: TrainConfig) -> dict[str, np.ndarray]:
    """The base weights a run under cfg trains, so its checkpoint carries them."""
    if cfg.scheme == "full":
        return {name: model.weights[name] for name in sorted(model.weights)}
    if cfg.train_head and model.mode != "linear":
        return {"head": model.weights["head"]}
    return {}


def _shapes(adapters, base: dict[str, np.ndarray]) -> dict[str, tuple[int, ...]]:
    named = ad_mod.all_params(adapters) + [(f"base.{n}", w) for n, w in base.items()]
    return {name: arr.shape for name, arr in named}


def model_checkpoint(path, model: ToyModel, cfg: TrainConfig) -> None:
    ad_mod.write_checkpoint(path, _checkpoint_meta(cfg), model.adapters,
                            _checkpoint_base(model, cfg))


# -- corpus-backed training --------------------------------------------------


def token_dataset_from_corpus(docs, seq_len: int, seed: int,
                              eval_fraction: float = 0.25):
    """Token-classification dataset from a tagged corpus.

    Documents become fixed-length token-id sequences over the corpus
    vocabulary (id 0 is padding) and the task tag is the class label.
    Returns (dataset, vocab, class_names).
    """
    if not docs:
        raise UsageError("corpus is empty")
    if any(d.task is None for d in docs):
        raise UsageError("corpus training uses task tags as labels; every "
                         "document needs one")
    terms = sorted({t for d in docs for t in corpus_mod.tokenize(d.text)})
    vocab = {t: i + 1 for i, t in enumerate(terms)}  # 0 is padding
    classes = sorted({d.task for d in docs})
    class_id = {c: i for i, c in enumerate(classes)}
    seqs = np.zeros((len(docs), seq_len), dtype=np.int64)
    labels = np.zeros(len(docs), dtype=np.int64)
    for i, d in enumerate(docs):
        toks = [vocab[t] for t in corpus_mod.tokenize(d.text)][:seq_len]
        if not toks:
            raise UsageError(f"document {d.id!r} has no tokens")
        seqs[i, : len(toks)] = toks
        labels[i] = class_id[d.task]
    order = np.asarray(SeededRng(seed).derive("split").shuffle(list(range(len(docs)))))
    n_eval = max(1, int(len(docs) * eval_fraction))
    ev, trn = order[:n_eval], order[n_eval:]
    if trn.size == 0:
        raise UsageError("corpus too small to split into train and eval")
    data = Dataset(train_inputs=seqs[trn], train_labels=labels[trn],
                   eval_inputs=seqs[ev], eval_labels=labels[ev])
    return data, vocab, classes


def build_from_config(cfg: TrainConfig):
    """Data, base model, pretraining, and adapter attachment from a config.

    Understands two dataset forms:

    * {"corpus": "<path.jsonl>"} -- token mode over a tagged corpus
    * {"synthetic": "interference" | "components" | "xor-components", ...}
      -- the dense fixtures, with optional keyword overrides
    """
    cfg.validate()
    spec = cfg.dataset
    if isinstance(spec, str):
        spec = {"corpus": spec}
    if not isinstance(spec, dict) or not ({"corpus", "synthetic"} & set(spec)):
        raise UsageError("config needs dataset: a corpus path or a synthetic spec")

    if "corpus" in spec:
        if not isinstance(spec["corpus"], str):
            raise UsageError(f"dataset corpus must be a path, got {spec['corpus']!r}")
        docs = corpus_mod.load_jsonl(spec["corpus"])
        data, vocab, classes = token_dataset_from_corpus(docs, cfg.seq_len, cfg.seed)
        model = tm.token_model(len(vocab) + 1, cfg.d_model, len(classes),
                               seed=SeededRng(cfg.seed).derive("model").seed,
                               hidden=cfg.hidden)
    else:
        kind = spec["synthetic"]
        opts = {k: v for k, v in spec.items() if k != "synthetic"}
        makers = {"interference": interference_data, "components": component_data,
                  "xor-components": xor_component_data}
        if not isinstance(kind, str) or kind not in makers:
            raise UsageError(f"unknown synthetic dataset {kind!r}; "
                             f"expected one of {sorted(makers)}")
        try:
            call = inspect.signature(makers[kind]).bind(seed=cfg.seed, **opts)
        except TypeError as e:
            raise UsageError(f"synthetic dataset {kind!r}: {e}") from e
        for name, v in opts.items():
            want = call.signature.parameters[name].annotation  # "int", "float" or "bool"
            if isinstance(v, bool) != (want == "bool") or not isinstance(
                    v, int if want == "int" else (int, float)):
                raise UsageError(f"synthetic dataset {kind!r}: {name} must be {want}, got {v!r}")
            low = 0 if name == "shared" else 1  # counts and sizes; shared features may be none
            if want == "int" and v < low:
                raise UsageError(f"synthetic dataset {kind!r}: {name} must be >= {low}, got {v!r}")
        data = makers[kind](*call.args, **call.kwargs)
        classes = sorted(set(int(v) for v in data.train_labels))
        model = tm.dense_model(data.train_inputs.shape[1], cfg.d_model, len(classes),
                               seed=SeededRng(cfg.seed).derive("model").seed,
                               hidden=cfg.hidden)

    pretrain_base(model, data, steps=cfg.pretrain_steps, lr=cfg.pretrain_lr,
                  seed=SeededRng(cfg.seed).derive("pretrain").seed)
    if cfg.scheme != "full":
        for proj in model.attachment_points():
            tm.attach(model, proj, cfg.scheme, cfg.rank,
                      seed=SeededRng(cfg.seed).derive("attach", proj).seed,
                      n=cfg.experts, alpha=cfg.alpha)
    return model, data


def run_from_config(cfg: TrainConfig):
    """build_from_config plus the training run; returns (model, data, report)."""
    model, data = build_from_config(cfg)
    report = train(model, data, cfg)
    return model, data, report


def restore_into_model(model: ToyModel, cfg: TrainConfig, meta: dict[str, str],
                       adapters: dict, base: dict[str, np.ndarray]) -> None:
    """Install what adapters.read_checkpoint returned into a model freshly
    built from cfg. A checkpoint written under a different scheme, rank,
    alpha, seed, expert/head count or model shape is a UsageError."""
    want_meta = _checkpoint_meta(cfg)
    for key, parse in (("scheme", str), ("rank", int), ("alpha", float), ("seed", str)):
        if key not in meta or parse(meta[key]) != parse(want_meta[key]):
            raise UsageError(f"checkpoint has {key} {meta.get(key)}, the config "
                             f"{want_meta[key]}")
    want = _shapes(model.adapters, _checkpoint_base(model, cfg))
    got = _shapes(adapters, base)
    differ = sorted(n for n in want.keys() | got.keys() if want.get(n) != got.get(n))
    if differ:
        raise UsageError(f"checkpoint and config (experts={cfg.experts}, d_model="
                         f"{cfg.d_model}) disagree on the presence or shape of {differ}")
    model.adapters.update(adapters)
    for name, arr in base.items():
        model.weights[name][:] = arr


# -- synthetic task fixtures ------------------------------------------------


def _orthonormal_rows(rng: SeededRng, rows: int, cols: int) -> np.ndarray:
    """Modified Gram-Schmidt on seeded gaussian rows (rows <= cols)."""
    if rows > cols:
        raise UsageError(f"cannot build {rows} orthonormal rows in dim {cols}")
    g = rng.normal(rows * cols).reshape(rows, cols)
    for i in range(rows):
        for j in range(i):
            g[i] -= (g[i] @ g[j]) * g[j]
        g[i] /= np.sqrt((g[i] * g[i]).sum())
    return g


def interference_data(seed: int, n_tasks: int = 2, feat: int = 16, classes: int = 4,
                      train_per_task: int = 256, eval_per_task: int = 128,
                      identical_tasks: bool = False) -> Dataset:
    """Tasks share one input distribution but use conflicting label rules,
    so a single shared function must trade them off while task-dedicated
    ones need not. identical_tasks=True gives the homogeneous control."""
    rng = SeededRng(seed).derive("interference")
    maps = _orthonormal_rows(rng.derive("maps"), n_tasks * classes, feat)
    maps = maps.reshape(n_tasks, classes, feat)
    if identical_tasks:
        maps = np.broadcast_to(maps[:1], maps.shape).copy()

    def make(n_per_task, tag):
        r = rng.derive(tag)
        xs, ys, ts = [], [], []
        for t in range(n_tasks):
            x = r.normal(n_per_task * feat).reshape(n_per_task, feat)
            y = (maps[t] @ x.T).argmax(axis=0)
            xs.append(x)
            ys.append(y)
            ts.append(np.full(n_per_task, t))
        return np.concatenate(xs), np.concatenate(ys), np.concatenate(ts)

    xtr, ytr, ttr = make(train_per_task, "train")
    xev, yev, tev = make(eval_per_task, "eval")
    return Dataset(train_inputs=xtr, train_labels=ytr, train_tasks=ttr,
                   eval_inputs=xev, eval_labels=yev, eval_tasks=tev)


def component_data(seed: int, level: int, max_levels: int = 4, block: int = 4,
                   shared: int = 4, classes: int = 4, train_per_comp: int = 192,
                   eval_per_comp: int = 96) -> Dataset:
    """Mixing-level fixture: component c lives on its own feature block and
    carries its own block-to-label map, so the corpus is identifiable (full
    fine-tuning can fit every component) while a rank-limited adapter must
    compress `level` different updates. Feature dim stays fixed across levels."""
    if not (1 <= level <= max_levels):
        raise UsageError(f"level must be in [1, {max_levels}], got {level}")
    rng = SeededRng(seed).derive("components")
    feat = max_levels * block + shared
    maps = [_orthonormal_rows(rng.derive("map", c), min(classes, block), block)
            for c in range(max_levels)]

    def make(n_per_comp, tag):
        r = rng.derive(tag)
        xs, ys, cs = [], [], []
        for c in range(level):
            x = np.zeros((n_per_comp, feat))
            xb = r.normal(n_per_comp * block).reshape(n_per_comp, block)
            x[:, c * block : (c + 1) * block] = xb
            x[:, max_levels * block :] = 0.5 * r.normal(n_per_comp * shared).reshape(
                n_per_comp, shared)
            logits = maps[c] @ xb.T
            y = logits.argmax(axis=0) % classes
            xs.append(x)
            ys.append(y)
            cs.append(np.full(n_per_comp, c))
        return np.concatenate(xs), np.concatenate(ys), np.concatenate(cs)

    xtr, ytr, ctr = make(train_per_comp, "train")
    xev, yev, cev = make(eval_per_comp, "eval")
    return Dataset(train_inputs=xtr, train_labels=ytr, train_tasks=ctr,
                   eval_inputs=xev, eval_labels=yev, eval_tasks=cev)


def xor_component_data(seed: int, level: int, max_levels: int = 4, block: int = 6,
                       shared: int = 2, train_per_comp: int = 512,
                       eval_per_comp: int = 192, margin: float = 0.25) -> Dataset:
    """Mixing-level fixture with XOR-style labels (4 classes from two sign
    parities of projections within the component's own feature block).

    Unlike the linear fixture, these labels are not linearly separable, so a
    frozen random trunk plus classifier head cannot absorb them: solving a
    component requires reshaping its representation, which is exactly where
    a rank-limited adapter runs out of capacity as the number of mixed
    components grows. Samples within `margin` of a decision boundary are
    rejected so both arms can actually converge on what they can express,
    and the training split is large enough that a small adapter cannot just
    memorize it (which would mask the capacity ceiling).
    """
    if not (1 <= level <= max_levels):
        raise UsageError(f"level must be in [1, {max_levels}], got {level}")
    rng = SeededRng(seed).derive("xor-components")
    feat = max_levels * block + shared
    dirs = [_orthonormal_rows(rng.derive("dirs", c), 4, block) for c in range(max_levels)]

    def labelify(xb, c):
        p1 = (xb @ dirs[c][0]) * (xb @ dirs[c][1])
        p2 = (xb @ dirs[c][2]) * (xb @ dirs[c][3])
        ok = (np.abs(p1) > margin) & (np.abs(p2) > margin)
        return 2 * (p1 > 0) + (p2 > 0), ok

    def make(n_per_comp, tag):
        r = rng.derive(tag)
        xs, ys, cs = [], [], []
        for c in range(level):
            need, keep_x, keep_y = n_per_comp, [], []
            while need > 0:
                m = max(2 * need, 32)
                xb = r.normal(m * block).reshape(m, block)
                y, ok = labelify(xb, c)
                keep_x.append(xb[ok][:need])
                keep_y.append(y[ok][:need])
                need -= keep_x[-1].shape[0]
            xb = np.concatenate(keep_x)
            x = np.zeros((n_per_comp, feat))
            x[:, c * block : (c + 1) * block] = xb
            x[:, max_levels * block :] = 0.5 * r.normal(n_per_comp * shared).reshape(
                n_per_comp, shared)
            xs.append(x)
            ys.append(np.concatenate(keep_y))
            cs.append(np.full(n_per_comp, c))
        return np.concatenate(xs), np.concatenate(ys), np.concatenate(cs)

    xtr, ytr, ctr = make(train_per_comp, "train")
    xev, yev, cev = make(eval_per_comp, "eval")
    return Dataset(train_inputs=xtr, train_labels=ytr, train_tasks=ctr,
                   eval_inputs=xev, eval_labels=yev, eval_tasks=cev)


def pretrain_base(model: ToyModel, data: Dataset, steps: int, lr: float, seed: int) -> None:
    """A few full-model steps on the mixture so fine-tuning starts from a
    non-degenerate frozen base (the stand-in for a pretrained backbone)."""
    if steps < 1:
        return
    cfg = TrainConfig(scheme="full", steps=steps, learning_rate=lr, seed=seed,
                      batch_size=32, eval_interval=max(steps, 1))
    train(model, data, cfg)


# -- harness: dedicated small heads vs one monolithic adapter ---------------


@dataclass
class Obs1Report:
    rows: list[dict]        # per seed: losses for both arms, win flag
    wins: int
    seeds: list[int]


def run_observation1(seeds: list[int], cfg_single: TrainConfig, cfg_split: TrainConfig,
                     identical_tasks: bool = False, d_model: int = 24,
                     feat: int = 16, classes: int = 4) -> Obs1Report:
    """Monolithic adapter (pooled training) vs task-dedicated split heads at
    the same trainable-parameter count, on the two-task conflict fixture."""
    n_tasks = cfg_split.experts
    d = k = d_model
    single_count = ad_mod.params_per_matrix("lora", d, k, cfg_single.rank)
    split_count = ad_mod.params_per_matrix("split", d, k, cfg_split.rank, n_tasks)
    if single_count != split_count:
        raise UsageError(
            f"arms are only comparable at equal parameter counts: "
            f"single={single_count}, split={split_count}")
    rows = []
    for seed in seeds:
        data = interference_data(seed, n_tasks=n_tasks, feat=feat, classes=classes,
                                 identical_tasks=identical_tasks)
        base = tm.dense_model(feat, d_model, classes, seed=SeededRng(seed).derive("base").seed)
        pretrain_base(base, data, steps=cfg_single.pretrain_steps,
                      lr=cfg_single.pretrain_lr, seed=seed)

        single = tm.clone_model(base)
        tm.attach(single, "v_proj", "lora", cfg_single.rank,
                  seed=SeededRng(seed).derive("attach-single").seed)
        rep_single = train(single, data, replace(cfg_single, seed=seed, train_head=False),
                           task_schedule=True)

        split = tm.clone_model(base)
        tm.attach(split, "v_proj", "split", cfg_split.rank, n=n_tasks,
                  seed=SeededRng(seed).derive("attach-split").seed)
        train(split, data, replace(cfg_split, seed=seed, train_head=False),
              task_schedule=True)
        # task-routed eval: each task's eval subset through its dedicated head
        losses = []
        weights = []
        for t in range(n_tasks):
            mask = data.eval_tasks == t
            batch = data.eval_batch(mask)
            graph = tm.build_graph(split, batch, loss="ce", trainable="none",
                                   active_split_head=t)
            losses.append(float(graph.tape.value(graph.loss_slot)))
            weights.append(int(mask.sum()))
        loss_split = float(np.average(losses, weights=weights))
        rows.append({"seed": seed, "loss_single": rep_single.final_loss,
                     "loss_split": loss_split,
                     "win": bool(loss_split < rep_single.final_loss)})
    wins = sum(r["win"] for r in rows)
    return Obs1Report(rows=rows, wins=wins, seeds=list(seeds))


# -- harness: drift of A vs B across per-task adapters -----------------------


@dataclass
class Obs2Report:
    rows: list[dict]        # per seed: d_a, d_b, ratio
    seeds: list[int]

    def wins(self) -> int:
        return sum(1 for r in self.rows if r["ratio"] > 1.0)


def run_observation2(seeds: list[int], n_tasks: int = 3, cfg: TrainConfig | None = None,
                     d_model: int = 24, classes: int = 4,
                     identical_tasks: bool = False) -> Obs2Report:
    """Train one plain adapter per task from a shared base and a shared A
    init; report how much further apart the B matrices end up than the A
    matrices (distances scale-normalized per group).

    identical_tasks=True is the control: every "task" trains on task 0's
    data (only batch order differs), so both divergences should be small.
    """
    if n_tasks < 2 or len(seeds) < 1:
        raise UsageError("need >= 2 tasks and >= 1 seed")
    cfg = cfg or TrainConfig(scheme="lora", rank=4, steps=250, learning_rate=0.15,
                             batch_size=16)
    rows = []
    for seed in seeds:
        data = component_data(seed, level=n_tasks, max_levels=n_tasks,
                              block=6, shared=4, classes=classes)
        feat = data.train_inputs.shape[1]
        base = tm.dense_model(feat, d_model, classes,
                              seed=SeededRng(seed).derive("base").seed)
        pretrain_base(base, data, steps=cfg.pretrain_steps, lr=cfg.pretrain_lr, seed=seed)
        a_mats, b_mats = [], []
        for t in range(n_tasks):
            model = tm.clone_model(base)
            # one shared init seed: every task's A starts identical
            tm.attach(model, "v_proj", "lora", cfg.rank,
                      seed=SeededRng(seed).derive("attach-shared").seed)
            task_data = _restrict_to_task(data, 0 if identical_tasks else t)
            train(model, task_data, replace(cfg, seed=SeededRng(seed).derive("run", t).seed,
                                            train_head=False))
            head = model.adapters["v_proj"]
            a_mats.append(head.a.copy())
            b_mats.append(head.b.copy())
        d_a = group_divergence(a_mats)
        d_b = group_divergence(b_mats)
        ratio = d_b / max(d_a, 1e-12)
        rows.append({"seed": seed, "d_a": d_a, "d_b": d_b, "ratio": ratio})
    return Obs2Report(rows=rows, seeds=list(seeds))


def _restrict_to_task(data: Dataset, task: int) -> Dataset:
    tr = data.train_tasks == task
    ev = data.eval_tasks == task
    return Dataset(train_inputs=data.train_inputs[tr], train_labels=data.train_labels[tr],
                   eval_inputs=data.eval_inputs[ev], eval_labels=data.eval_labels[ev],
                   loss=data.loss)


# -- harness: full fine-tuning vs adapter across mixing levels ---------------


def run_heterogeneity(levels: list[int], cfg: TrainConfig,
                      d_model: int = 24, classes: int = 4) -> list[dict]:
    """FFT vs rank-limited adapter per mixing level (one seed, from cfg).

    Each row carries metric = -eval loss for both arms (higher is better)
    and gap = fft_metric - peft_metric; accuracies ride along.
    """
    if sorted(levels) != list(levels):
        raise UsageError("levels must be ordered ascending")
    rows = []
    seed = cfg.seed
    base_seed = SeededRng(seed).derive("het-base").seed
    for level in levels:
        data = xor_component_data(seed, level=level, max_levels=max(levels))
        feat = data.train_inputs.shape[1]

        fft = tm.dense_model(feat, d_model, classes, seed=base_seed)
        fft_cfg = replace(cfg, scheme="full", seed=SeededRng(seed).derive("fft", level).seed)
        train(fft, data, fft_cfg)
        fft_loss, fft_acc, _ = evaluate(fft, data)

        peft = tm.dense_model(feat, d_model, classes, seed=base_seed)
        tm.attach(peft, "v_proj", "lora", cfg.rank,
                  seed=SeededRng(seed).derive("attach", level).seed)
        peft_cfg = replace(cfg, scheme="lora", seed=SeededRng(seed).derive("peft", level).seed)
        train(peft, data, peft_cfg)
        peft_loss, peft_acc, _ = evaluate(peft, data)

        fft_metric = -fft_loss
        peft_metric = -peft_loss
        rows.append({
            "level": level,
            "fft_metric": fft_metric, "peft_metric": peft_metric,
            "gap": fft_metric - peft_metric,
            "fft_loss": fft_loss, "peft_loss": peft_loss,
            "fft_acc": fft_acc, "peft_acc": peft_acc,
        })
    return rows
