"""Fine-tuning loop, its config, the synthetic task fixtures, checkpoint glue.

Training freezes all base weights and updates adapter parameters (and,
configurably, the classifier head; the "full" scheme updates everything and
serves as the full-fine-tuning baseline). Every run is deterministic given
its config seed: batch order, adapter init, and data synthesis all flow from
that one seed.
"""

from __future__ import annotations

import inspect
import json
import math
from dataclasses import dataclass

import numpy as np

from . import adapters as ad_mod
from . import corpus as corpus_mod
from . import toy_model as tm
from .errors import InvariantError, TrainingAborted, UsageError
from .linalg import SeededRng
from .toy_model import Batch, ToyModel

SCHEMES = (*ad_mod.SCHEMES, "full")
OPTIMIZERS = ("sgd", "adam")

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

_EVAL_FRACTION = 0.25   # share of a corpus's documents held out for eval
# rejection draws xor_component_data may spend per kept row; the default
# margin keeps about 1 draw in 3, margin 2 about 1 in 250, margin 4 1 in 25,000
_XOR_DRAWS_PER_ROW = 1000

# numeric TrainConfig fields and their lower bounds (None: unbounded)
_INT_FIELDS = {"rank": 1, "experts": 1, "steps": 1, "batch_size": 1, "seed": None,
               "eval_interval": 1, "d_model": 1, "hidden": 1, "seq_len": 1,
               "pretrain_steps": 0}
_FLOAT_FIELDS = {"learning_rate": 0, "pretrain_lr": 0, "alpha": None}


@dataclass
class TrainConfig:
    scheme: str = "lora"
    rank: int = 4
    experts: int = 1              # B-matrix count for hydra
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
    """Fixed train/eval arrays with their class labels."""

    train_inputs: np.ndarray
    eval_inputs: np.ndarray
    train_labels: np.ndarray
    eval_labels: np.ndarray
    train_tasks: np.ndarray | None = None
    eval_tasks: np.ndarray | None = None

    def n_train(self) -> int:
        return self.train_inputs.shape[0]

    def train_batch(self, idx: np.ndarray) -> Batch:
        return Batch(self.train_inputs[idx], self.train_labels[idx])

    def eval_batch(self, mask: np.ndarray | None = None) -> Batch:
        if mask is None:
            mask = np.ones(self.eval_inputs.shape[0], dtype=bool)
        return Batch(self.eval_inputs[mask], self.eval_labels[mask])


class _Optimizer:
    """SGD / Adam over live parameter arrays (updates mutate in place).

    A step concatenates the gradients in refs order and runs the arithmetic
    once over that flat vector (Adam's m and v are flat too); each entry sees
    the operations of a per-array update, so the bytes are the same."""

    def __init__(self, refs: dict[str, np.ndarray], lr: float, kind: str):
        self.refs = refs
        self.lr = lr
        self.kind = kind
        self.t = 0
        size = sum(arr.size for arr in refs.values())
        self._m = np.zeros(size) if kind == "adam" else None
        self._v = np.zeros(size) if kind == "adam" else None

    def step(self, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        g = np.concatenate([grads[name].ravel() for name in self.refs])
        if self.kind == "sgd":
            upd = self.lr * g
        else:
            m, v = self._m, self._v
            m *= ADAM_BETA1
            m += (1 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1 - ADAM_BETA2) * g * g
            m_hat = m / (1 - ADAM_BETA1 ** self.t)
            v_hat = v / (1 - ADAM_BETA2 ** self.t)
            upd = self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        lo = 0
        for arr in self.refs.values():
            arr -= upd[lo:lo + arr.size].reshape(arr.shape)
            lo += arr.size


def evaluate(model: ToyModel, data: Dataset, mask: np.ndarray | None = None):
    """(loss, accuracy, gate means) on the eval split."""
    batch = data.eval_batch(mask)
    graph = tm.build_graph(model, batch, trainable="none")
    acc = float((graph.tape.value(graph.logits_slot).argmax(axis=1) == batch.labels).mean())
    return float(graph.tape.value(graph.loss_slot)), acc, graph.gate_means()


def _gate_row(gates: dict[str, np.ndarray]) -> list[float]:
    if not gates:
        return []
    stacked = np.stack(list(gates.values()))
    return [float(v) for v in stacked.mean(axis=0)]


def _tokens_per_sample(model: ToyModel, data: Dataset) -> int:
    return data.train_inputs.shape[1] if model.mode == "tokens" else 1


def _adapter_flops(model: ToyModel, tokens_processed: int) -> int:
    """2 FLOPs per MAC, backward costed at twice forward, adapter branches only:
    one MAC per adapter parameter per token."""
    macs = sum(arr.size for arr in tm.param_refs(model, "adapters").values()) * tokens_processed
    return 6 * macs


def _trainable(cfg: TrainConfig) -> str:
    """The param_refs spec of a run under cfg: what it trains and checkpoints."""
    if cfg.scheme == "full":
        return "all"
    return "adapters+head" if cfg.train_head else "adapters"


def train(model: ToyModel, data: Dataset, cfg: TrainConfig) -> TrainReport:
    """Optimize the model's trainable parameters on the dataset."""
    trainable = _trainable(cfg)
    rng = SeededRng(cfg.seed).derive("train-loop")
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
        batch = data.train_batch(rng.integers(cfg.batch_size, data.n_train()))
        try:
            # divergence shows up as non-finite values below; numpy's own
            # overflow warnings on the way there are just noise
            with np.errstate(all="ignore"):
                graph = tm.run_graph(graphs, model, batch, trainable)
                loss_val = float(graph.tape.value(graph.loss_slot))
                if not np.isfinite(loss_val):
                    raise TrainingAborted(step, f"loss became {loss_val}")
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
                       flop_tally=_adapter_flops(model, tokens), seed=cfg.seed)


def _checkpoint_meta(cfg: TrainConfig) -> dict[str, str]:
    alpha = float(cfg.alpha if cfg.alpha is not None else cfg.rank)
    return {"scheme": cfg.scheme, "rank": str(cfg.rank), "alpha": repr(alpha),
            "seed": str(cfg.seed)}


def model_checkpoint(path, model: ToyModel, cfg: TrainConfig) -> None:
    """Write what a run under cfg trains: param_refs, as is and in its order."""
    ad_mod.write_checkpoint(path, _checkpoint_meta(cfg), tm.param_refs(model, _trainable(cfg)))


# -- corpus-backed training --------------------------------------------------


def token_dataset_from_corpus(docs, seq_len: int, seed: int):
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
    n_eval = max(1, int(len(docs) * _EVAL_FRACTION))
    ev, trn = order[:n_eval], order[n_eval:]
    if trn.size == 0:
        raise UsageError("corpus too small to split into train and eval")
    data = Dataset(train_inputs=seqs[trn], train_labels=labels[trn],
                   eval_inputs=seqs[ev], eval_labels=labels[ev])
    return data, vocab, classes


def build_from_config(cfg: TrainConfig):
    """Data, base model, pretraining, and adapter attachment from a config.

    Understands two dataset forms:

    * {"corpus": "<path.jsonl>"} -- token mode over a tagged corpus; no
      other keys
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
        if len(spec) > 1:
            raise UsageError(f"a corpus dataset takes no other keys, got "
                             f"{sorted(set(spec) - {'corpus'})}")
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
        # a few train rows may miss a class that eval rows have
        n_classes = 1 + int(max(data.train_labels.max(), data.eval_labels.max()))
        model = tm.dense_model(data.train_inputs.shape[1], cfg.d_model, n_classes,
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


def restore_into_model(model: ToyModel, cfg: TrainConfig, meta: dict[str, str],
                       tensors: dict[str, np.ndarray]) -> None:
    """Check the metadata adapters.read_checkpoint returned against cfg, then
    copy its tensors, in place, into the param_refs arrays of a model freshly
    built from cfg. A checkpoint written under a different scheme, rank,
    alpha, seed, expert count or model shape is a UsageError."""
    want_meta = _checkpoint_meta(cfg)
    for key, parse in (("scheme", str), ("rank", int), ("alpha", float), ("seed", str)):
        if key not in meta or parse(meta[key]) != parse(want_meta[key]):
            raise UsageError(f"checkpoint has {key} {meta.get(key)}, the config "
                             f"{want_meta[key]}")
    refs = tm.param_refs(model, _trainable(cfg))
    want = {name: arr.shape for name, arr in refs.items()}
    got = {name: arr.shape for name, arr in tensors.items()}
    differ = sorted(n for n in want.keys() | got.keys() if want.get(n) != got.get(n))
    if differ:
        raise UsageError(f"checkpoint and config (experts={cfg.experts}, d_model="
                         f"{cfg.d_model}) disagree on the presence or shape of {differ}")
    for name, arr in refs.items():
        arr[...] = tensors[name]


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


def _fixture(rng: SeededRng, parts: int, n_train: int, n_eval: int, draw) -> Dataset:
    """Train and eval splits of n_train and n_eval rows per task (or
    component) 0 .. parts-1, tagged with it; draw(r, part, n) -> (x, y) draws
    a part's rows from r, the split's stream, in part order."""
    arrays = {}
    for tag, n in (("train", n_train), ("eval", n_eval)):
        r = rng.derive(tag)
        xs, ys = zip(*(draw(r, part, n) for part in range(parts)))
        arrays.update({f"{tag}_inputs": np.concatenate(xs), f"{tag}_labels": np.concatenate(ys),
                       f"{tag}_tasks": np.repeat(np.arange(parts), n)})
    return Dataset(**arrays)


def _in_block(r: SeededRng, xb: np.ndarray, c: int, max_levels: int, shared: int) -> np.ndarray:
    """Rows with xb on feature block c of max_levels, zero on the other blocks,
    and shared trailing features of gaussian noise (std 0.5) drawn from r."""
    n, block = xb.shape
    x = np.zeros((n, max_levels * block + shared))
    x[:, c * block : (c + 1) * block] = xb
    x[:, max_levels * block :] = 0.5 * r.normal(n * shared).reshape(n, shared)
    return x


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

    def draw(r, t, n):
        x = r.normal(n * feat).reshape(n, feat)
        return x, (maps[t] @ x.T).argmax(axis=0)

    return _fixture(rng, n_tasks, train_per_task, eval_per_task, draw)


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
    maps = [_orthonormal_rows(rng.derive("map", c), min(classes, block), block)
            for c in range(max_levels)]

    def draw(r, c, n):
        xb = r.normal(n * block).reshape(n, block)
        return _in_block(r, xb, c, max_levels, shared), (maps[c] @ xb.T).argmax(axis=0) % classes

    return _fixture(rng, level, train_per_comp, eval_per_comp, draw)


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
    memorize it (which would mask the capacity ceiling). A margin that keeps
    fewer than one draw in _XOR_DRAWS_PER_ROW is a UsageError.
    """
    if not (1 <= level <= max_levels):
        raise UsageError(f"level must be in [1, {max_levels}], got {level}")
    if not (math.isfinite(margin) and margin >= 0):
        raise UsageError(f"margin must be a finite number >= 0, got {margin!r}")
    rng = SeededRng(seed).derive("xor-components")
    dirs = [_orthonormal_rows(rng.derive("dirs", c), 4, block) for c in range(max_levels)]

    def labelify(xb, c):
        p1 = (xb @ dirs[c][0]) * (xb @ dirs[c][1])
        p2 = (xb @ dirs[c][2]) * (xb @ dirs[c][3])
        ok = (np.abs(p1) > margin) & (np.abs(p2) > margin)
        return 2 * (p1 > 0) + (p2 > 0), ok

    def draw(r, c, n):
        need, drawn, keep_x, keep_y = n, 0, [], []
        while need > 0:
            if drawn >= _XOR_DRAWS_PER_ROW * n:
                raise UsageError(f"margin {margin} rejects nearly every sample: {drawn} "
                                 f"draws kept {n - need} of {n} rows")
            m = max(2 * need, 32)
            drawn += m
            xb = r.normal(m * block).reshape(m, block)
            y, ok = labelify(xb, c)
            keep_x.append(xb[ok][:need])
            keep_y.append(y[ok][:need])
            need -= keep_x[-1].shape[0]
        return _in_block(r, np.concatenate(keep_x), c, max_levels, shared), np.concatenate(keep_y)

    return _fixture(rng, level, train_per_comp, eval_per_comp, draw)


def pretrain_base(model: ToyModel, data: Dataset, steps: int, lr: float, seed: int) -> None:
    """A few full-model steps on the mixture so fine-tuning starts from a
    non-degenerate frozen base (the stand-in for a pretrained backbone)."""
    if steps < 1:
        return
    cfg = TrainConfig(scheme="full", steps=steps, learning_rate=lr, seed=seed,
                      batch_size=32, eval_interval=max(steps, 1))
    train(model, data, cfg)
