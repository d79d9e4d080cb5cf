"""Low-rank adapter schemes over a frozen weight matrix.

Two schemes share the same contract (y = W0 x at construction, exactly):

* lora   -- one pair (A: r x k, B: d x r), update (alpha/r) * B A x.
* hydra  -- one shared A, N expert matrices B_i, and a router W_g (r x N)
            producing softmax weights over experts from z = A x.

B matrices start at zero and A matrices Kaiming-uniform, so every scheme's
first forward equals the frozen base forward bit-for-bit. The router weight
starts Kaiming-uniform scaled by 0.01: near-uniform gates, but with broken
symmetry so experts can specialize.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import CheckpointError, InvariantError, ShapeError, UsageError

ROUTER_INIT_SCALE = 0.01


def _check_rank(d: int, k: int, r: int) -> None:
    if r < 1 or r > min(d, k):
        raise InvariantError(f"rank {r} outside [1, min({d}, {k})]")


# -- parameter names -------------------------------------------------------
#
# An adapter on projection `proj` names its tensors `proj.<Role><index>`:
# role A, B or Wg, index empty or an expert number. Tape leaves, optimizer
# refs and checkpoints all take names and order from each scheme's named_params,
# by way of toy_model.param_refs.

_NAME_RE = re.compile(r"^([^.]+)\.(A|B|Wg)(\d*)$")


def param_name(proj: str, role: str, index="") -> str:
    return f"{proj}.{role}{index}"


def parse_param_name(name: str) -> tuple[str, str, str] | None:
    """(proj, role, index) of an adapter tensor name; None for any other name."""
    m = _NAME_RE.match(name)
    return m.groups() if m else None


def _take(tensors: dict[str, np.ndarray], proj: str, role: str, index="") -> np.ndarray:
    name = param_name(proj, role, index)
    if name not in tensors:
        raise CheckpointError(f"missing tensor {name}")
    return tensors[name]


def _check_shapes(named: list[tuple[str, np.ndarray]], rank: int) -> None:
    """CheckpointError naming the first of one adapter's tensors whose shape does not
    fit the rank, or a B whose d rows differ from the first B's (the only role with
    several tensors: hydra's experts)."""
    first_b: tuple[str, int] | None = None
    for name, arr in named:
        is_b = parse_param_name(name)[1] == "B"
        # A and Wg have rank rows, B has rank columns
        if arr.shape[1 if is_b else 0] != rank:
            raise CheckpointError(f"tensor {name} has shape {arr.shape}, but rank is {rank}")
        if is_b:
            ref, rows = first_b = first_b or (name, arr.shape[0])
            if arr.shape[0] != rows:
                raise CheckpointError(f"tensor {name} has shape {arr.shape}, but {ref} has {rows} rows")


def _leaves(tape, named: list[tuple[str, np.ndarray]], trainable: bool) -> list[int]:
    return [tape.input(arr, name=name, trainable=trainable) for name, arr in named]


@dataclass
class LoraAdapter:
    a: np.ndarray          # (r, k), down-projection
    b: np.ndarray          # (d, r), up-projection, zero at init
    rank: int
    alpha: float

    @classmethod
    def init(cls, d: int, k: int, r: int, rng: linalg.SeededRng,
             alpha: float | None = None) -> "LoraAdapter":
        _check_rank(d, k, r)
        a = linalg.kaiming_uniform(r, k, rng)
        b = np.zeros((d, r))
        return cls(a=a, b=b, rank=r, alpha=float(alpha if alpha is not None else r))

    @property
    def scaling(self) -> float:
        return self.alpha / self.rank

    def named_params(self, prefix: str) -> list[tuple[str, np.ndarray]]:
        """(name, live array) in checkpoint order: A, B."""
        return [(param_name(prefix, "A"), self.a), (param_name(prefix, "B"), self.b)]

    @classmethod
    def from_params(cls, prefix: str, tensors: dict[str, np.ndarray], rank: int,
                    alpha: float) -> "LoraAdapter":
        return cls(a=_take(tensors, prefix, "A"), b=_take(tensors, prefix, "B"),
                   rank=rank, alpha=alpha)

    def tape_branch(self, tape, x: int, prefix: str, trainable: bool) -> tuple[int, int | None]:
        """Emit the update for the rows at slot x: (update slot, gate slot or None)."""
        a, b = _leaves(tape, self.named_params(prefix), trainable)
        delta = tape.matmul(tape.matmul(x, a, transpose_b=True), b, transpose_b=True)
        return tape.scale(delta, self.scaling), None


@dataclass
class HydraAdapter:
    a_shared: np.ndarray          # (r, k)
    experts: list[np.ndarray]     # N matrices (d, r), zero at init
    w_gate: np.ndarray            # (r, N) router weights
    rank: int
    alpha: float

    @classmethod
    def init(cls, d: int, k: int, r: int, n_experts: int, rng: linalg.SeededRng,
             alpha: float | None = None) -> "HydraAdapter":
        _check_rank(d, k, r)
        if n_experts < 1:
            raise InvariantError(f"hydra needs >= 1 expert, got {n_experts}")
        a = linalg.kaiming_uniform(r, k, rng.derive("a"))
        experts = [np.zeros((d, r)) for _ in range(n_experts)]
        w_gate = linalg.kaiming_uniform(r, n_experts, rng.derive("gate")) * ROUTER_INIT_SCALE
        return cls(a_shared=a, experts=experts, w_gate=w_gate, rank=r,
                   alpha=float(alpha if alpha is not None else r))

    @property
    def scaling(self) -> float:
        return self.alpha / self.rank

    def named_params(self, prefix: str) -> list[tuple[str, np.ndarray]]:
        """(name, live array) in checkpoint order: A, B0 .. B{N-1}, Wg."""
        return ([(param_name(prefix, "A"), self.a_shared)]
                + [(param_name(prefix, "B", i), e) for i, e in enumerate(self.experts)]
                + [(param_name(prefix, "Wg"), self.w_gate)])

    @classmethod
    def from_params(cls, prefix: str, tensors: dict[str, np.ndarray], rank: int,
                    alpha: float) -> "HydraAdapter":
        w_gate = _take(tensors, prefix, "Wg")  # (r, N): one column per expert
        return cls(a_shared=_take(tensors, prefix, "A"),
                   experts=[_take(tensors, prefix, "B", i) for i in range(w_gate.shape[1])],
                   w_gate=w_gate, rank=rank, alpha=alpha)

    def tape_branch(self, tape, x: int, prefix: str, trainable: bool) -> tuple[int, int | None]:
        """Gate-weighted expert sum; the gate slot holds one softmax row per input row."""
        a, *experts, wg = _leaves(tape, self.named_params(prefix), trainable)
        z = tape.matmul(x, a, transpose_b=True)
        gate = tape.softmax_rows(tape.matmul(z, wg))
        ys = tape.matmul(z, *experts, transpose_b=True)
        return tape.scale(tape.expert_mix(gate, ys), self.scaling), gate


ADAPTERS = {"lora": LoraAdapter, "hydra": HydraAdapter}
Adapter = LoraAdapter | HydraAdapter


# -- merged inference ------------------------------------------------------


def merge_infer(x: np.ndarray, w0: np.ndarray, ad: HydraAdapter,
                gates: np.ndarray) -> np.ndarray:
    """Rows of W0 x + (alpha/r) B_bar (A x), with B_bar = sum_i w_i B_i per row.

    `gates` holds one row of router weights per input row, as the gate slot of
    the graph that ran `ad.tape_branch` on `x` holds them. The experts act
    linearly on A x, so this equals that graph's expert sum up to the order
    of the float additions.
    """
    z = linalg.matmul(x, ad.a_shared.T)
    b_bar = np.zeros((len(x), *ad.experts[0].shape))
    for i, b_i in enumerate(ad.experts):
        b_bar = b_bar + gates[:, i, None, None] * b_i
    update = linalg.matmul(b_bar, z[:, :, None])[:, :, 0]
    return linalg.matmul(x, w0.T) + ad.scaling * update


# -- parameter accounting --------------------------------------------------

SCHEMES = tuple(ADAPTERS)


def params_per_matrix(scheme: str, d: int, k: int, r: int, n: int = 1) -> int:
    """Trainable parameters one adapted weight matrix contributes."""
    if scheme == "lora":
        return r * (d + k)
    if scheme == "hydra":
        return r * k + n * d * r + r * n  # shared A + N experts + router
    raise UsageError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")


def param_count(scheme: str, d: int, k: int, r: int, n: int,
                matrices_per_layer: int, layers: int,
                base_total: int) -> tuple[int, float]:
    """Total trainable count and percent of base_total.

    The percent is truncated (not rounded) to 3 decimals; that is the
    arithmetic that reproduces the published %-parameter figures this
    accounting is checked against (e.g. rank 32 at the 6.738B base is
    0.2489...%, reported as 0.248).
    """
    for name, v in [("d", d), ("k", k), ("r", r), ("n", n),
                    ("matrices_per_layer", matrices_per_layer), ("layers", layers)]:
        if v < 1:
            raise UsageError(f"{name} must be >= 1, got {v}")
    if r > min(d, k):  # the rank attach would refuse
        raise UsageError(f"rank {r} outside [1, min({d}, {k})]")
    if base_total <= 0:
        raise UsageError(f"base_total must be positive, got {base_total}")
    total = params_per_matrix(scheme, d, k, r, n) * matrices_per_layer * layers
    percent = (100_000 * total // base_total) / 1000.0
    return total, percent


# -- checkpoint files ------------------------------------------------------
#
# Plain-text container, lossless for float64:
#
#   hydra-peft-checkpoint v1
#   key: value            (metadata lines; scheme, rank and alpha are required)
#   tensor <name> <rows> <cols>
#   <rows*cols little-endian float64 values, hex-encoded, one line>
#   ...
#
# A run's file holds toy_model.param_refs in its order: adapter tensors,
# projections sorted, each in named_params order, then the base weights the
# run trains as base.<name>, sorted. Hex encoding is byte-exact, so
# write/read round trips are bitwise.

FORMAT_TAG = "hydra-peft-checkpoint"
FORMAT_VERSION = "v1"

_TENSOR_RE = re.compile(r"^tensor (\S+) (\d+) (\d+)$")


def write_checkpoint(path, meta: dict[str, str], tensors: dict[str, np.ndarray]) -> None:
    """Write metadata, then every tensor under its name, in the dict's order."""
    lines = [f"{FORMAT_TAG} {FORMAT_VERSION}"]
    for key, value in meta.items():
        lines.append(f"{key}: {value}")
    for name, arr in tensors.items():
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim != 2:
            raise ShapeError(f"checkpoint tensors must be 2-D, {name} has {arr.shape}")
        lines.append(f"tensor {name} {arr.shape[0]} {arr.shape[1]}")
        lines.append(arr.astype("<f8").tobytes().hex())
    with open(path, "w", encoding="ascii", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


def read_checkpoint(path) -> tuple[dict[str, str], dict[str, Adapter], dict[str, np.ndarray]]:
    """(metadata, {projection: adapter}, {tensor name: array} in file order, base.*
    names included); a CheckpointError if the file is malformed or its
    tensors do not form the metadata's scheme."""
    meta, tensors = _parse(path)
    try:
        scheme, rank, alpha = meta["scheme"], int(meta["rank"]), float(meta["alpha"])
    except KeyError as e:
        raise CheckpointError(f"missing metadata line {e.args[0]!r}") from None
    except ValueError as e:
        raise CheckpointError(f"bad rank or alpha metadata: {e}") from None
    if rank < 1 or not math.isfinite(alpha):
        raise CheckpointError(f"rank must be >= 1 and alpha finite, got rank {rank}, "
                              f"alpha {alpha}")
    names = {n for n in tensors if not n.startswith("base.")}
    projs = sorted({parsed[0] for parsed in map(parse_param_name, names) if parsed})
    if projs and scheme not in ADAPTERS:
        raise CheckpointError(f"adapter tensors under unknown scheme {scheme!r}")
    adapters = {p: ADAPTERS[scheme].from_params(p, tensors, rank, alpha) for p in projs}
    extra = names - {n for p, a in adapters.items() for n, _ in a.named_params(p)}
    if extra:
        raise CheckpointError(f"tensor {min(extra)!r} is not part of a {scheme} adapter")
    for proj, adapter in adapters.items():
        _check_shapes(adapter.named_params(proj), rank)
    return meta, adapters, tensors


def _parse(path) -> tuple[dict[str, str], dict[str, np.ndarray]]:
    with open(path, "rb") as f:
        raw = f.read()
    try:
        text = raw.decode("ascii")
    except UnicodeDecodeError as e:
        raise CheckpointError("checkpoint is not ascii text", e.start) from e

    offset = 0
    lines: list[tuple[int, str]] = []
    for line in text.split("\n"):
        lines.append((offset, line))
        offset += len(line) + 1
    while lines and lines[-1][1] == "":
        lines.pop()
    if not lines:
        raise CheckpointError("empty checkpoint", 0)

    off0, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] != FORMAT_TAG:
        raise CheckpointError(f"bad header {header!r}", off0)
    if parts[1] != FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {parts[1]!r} (expected {FORMAT_VERSION})", off0)

    meta: dict[str, str] = {}
    tensors: dict[str, np.ndarray] = {}
    i = 1
    while i < len(lines):
        off, line = lines[i]
        m = _TENSOR_RE.match(line)
        if m:
            name, rows, cols = m.group(1), int(m.group(2)), int(m.group(3))
            if name in tensors:
                raise CheckpointError(f"repeated tensor {name}", off)
            if rows == 0 or cols == 0:
                raise CheckpointError(f"tensor {name} has zero size ({rows}x{cols})", off)
            if i + 1 >= len(lines):
                raise CheckpointError(f"tensor {name} missing data line", off)
            data_off, data_line = lines[i + 1]
            expected = rows * cols * 8 * 2
            if len(data_line) != expected:
                raise CheckpointError(
                    f"tensor {name}: expected {expected} hex chars, got {len(data_line)}",
                    data_off)
            try:
                buf = bytes.fromhex(data_line)
            except ValueError as e:
                raise CheckpointError(f"tensor {name}: invalid hex", data_off) from e
            tensors[name] = np.frombuffer(buf, dtype="<f8").reshape(rows, cols).copy()
            i += 2
        elif ": " in line:
            key, value = line.split(": ", 1)
            if key in meta:
                raise CheckpointError(f"repeated metadata key {key!r}", off)
            meta[key] = value
            i += 1
        else:
            raise CheckpointError(f"unparseable line {line!r}", off)
    return meta, tensors
