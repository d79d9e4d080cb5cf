"""Deterministic dense linear algebra and seeded random draws.

All numeric state is float64. Matrix products accumulate in a fixed order
(each entry sums its products over the contraction index, ascending, from
+0.0) so that repeated runs and different platforms produce bit-identical
results; nothing here calls into BLAS. `matmul` picks one of two kernels by
shape, a broadcast-and-reduce for small products and a loop over the
contraction index for the rest, and both give the same bytes.

Randomness comes from a counter-based splitmix64 generator: draw i under
seed s is a pure integer hash of (s, i), which makes seeds portable across
platforms and lets draws be produced in vectorized blocks without changing
the sequence.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractError, InvariantError, ShapeError

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64 = np.uint64


def _mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 output function on an array of uint64 states."""
    z = (z ^ (z >> _U64(30))) * _MIX1
    z = (z ^ (z >> _U64(27))) * _MIX2
    return z ^ (z >> _U64(31))


def _fold_tag(seed: int, tag) -> int:
    """Hash a str/int tag into a derived 64-bit seed (no reliance on hash())."""
    h = np.array([seed], dtype=np.uint64)
    if isinstance(tag, str):
        data = tag.encode("utf-8")
        for b in data:
            h = _mix64(h ^ _U64(b))
    elif isinstance(tag, (int, np.integer)):
        h = _mix64(h ^ _U64(int(tag) & 0xFFFFFFFFFFFFFFFF))
    else:
        raise ContractError(f"rng tags must be str or int, got {type(tag).__name__}")
    return int(h[0])


class SeededRng:
    """Counter-based splitmix64 stream: output i = mix(seed + (i+1)*golden)."""

    def __init__(self, seed: int):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self._counter = 0

    def derive(self, *tags) -> "SeededRng":
        """Independent child stream keyed by the given tags."""
        s = self.seed
        for t in tags:
            s = _fold_tag(s, t)
        return SeededRng(s)

    def next_uint64(self, n: int) -> np.ndarray:
        ks = np.arange(self._counter + 1, self._counter + n + 1, dtype=np.uint64)
        self._counter += n
        return _mix64(ks * _GOLDEN + _U64(self.seed))

    def uniform(self, n: int) -> np.ndarray:
        """n doubles in [0, 1), 53 random bits each."""
        return (self.next_uint64(n) >> _U64(11)) * (2.0 ** -53)

    def normal(self, n: int) -> np.ndarray:
        """Standard normals via Box-Muller (pairs; surplus draw discarded)."""
        m = (n + 1) // 2
        u1 = (self.next_uint64(m) >> _U64(11)).astype(np.float64)
        u1 = (u1 + 1.0) * (2.0 ** -53)  # (0, 1], keeps log finite
        u2 = self.uniform(m)
        r = np.sqrt(-2.0 * np.log(u1))
        out = np.concatenate([r * np.cos(2.0 * np.pi * u2),
                              r * np.sin(2.0 * np.pi * u2)])
        return out[:n]

    def integers(self, n: int, high: int) -> np.ndarray:
        """n ints uniform on [0, high)."""
        if high <= 0:
            raise ContractError("integers() needs high >= 1")
        return np.minimum((self.uniform(n) * high).astype(np.int64), high - 1)

    def shuffle(self, items: list) -> list:
        """Fisher-Yates; returns a new list."""
        out = list(items)
        for i in range(len(out) - 1, 0, -1):
            j = int(self.integers(1, i + 1)[0])
            out[i], out[j] = out[j], out[i]
        return out


def _check_matrix(a: np.ndarray, name: str) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {a.shape}")
    return a


# Largest m*k*n product buffer the broadcast kernel builds. Above it the
# buffer costs more in memory traffic and peak RSS than the k-loop saves.
_BROADCAST_MAX_ELEMS = 1 << 16


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with fixed accumulation order over the shared index.

    Operands are matrices or equal-length stacks of them, (G, m, k) x
    (G, k, n). Every output entry is ((0.0 + a[i,0]*b[0,j]) + a[i,1]*b[1,j])
    + ..., k ascending, whichever of two kernels runs and whatever G is:

    - small products (output size >= 2, times k <= _BROADCAST_MAX_ELEMS):
      all products go into one C-contiguous (k, [G,] m, n) buffer, reduced
      over axis 0. With k the outermost axis numpy adds whole output-sized
      slices in k order. Any other layout (or a 1-entry output) can put k on
      the inner loop, where numpy switches to pairwise summation and the
      bytes change. The trailing + 0.0 turns the -0.0 a reduce can return
      into the +0.0 the loop's zero start gives.
    - everything else: a loop over k adding rank-1 updates into zeros.
    """
    a, b = np.asarray(a), np.asarray(b)
    if (a.ndim not in (2, 3) or b.ndim != a.ndim or a.shape[:-2] != b.shape[:-2]
            or a.shape[-1] != b.shape[-2]):
        raise ShapeError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    k, n = b.shape[-2:]
    out_shape = a.shape[:-1] + (n,)
    size = math.prod(out_shape)
    dtype = np.result_type(a, b, np.float64)
    with np.errstate(all="ignore"):  # finiteness is checked explicitly below
        if size >= 2 and size * k <= _BROADCAST_MAX_ELEMS:
            # (k, [G,] m) and (k, [G,] n) views of the operands
            at, bt = (a.transpose(2, 0, 1), b.transpose(1, 0, 2)) if a.ndim == 3 else (a.T, b)
            prods = np.multiply(at[..., None], bt[..., None, :],
                                out=np.empty((k, *out_shape), dtype=dtype))
            out = np.add.reduce(prods, axis=0) + 0.0
        else:
            out = np.zeros(out_shape, dtype=dtype)
            for i in range(k):
                out += a[..., i : i + 1] * b[..., i : i + 1, :]
    if not np.isfinite(out).all():
        raise InvariantError("matmul produced non-finite entries")
    return out


def matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """m @ v for a 1-D v, same accumulation order as matmul."""
    m = _check_matrix(m, "m")
    v = np.asarray(v)
    if v.ndim != 1 or m.shape[1] != v.shape[0]:
        raise ShapeError(f"matvec shape mismatch: {m.shape} x {v.shape}")
    return matmul(m, v[:, None])[:, 0]


def kaiming_uniform(rows: int, cols: int, rng: SeededRng) -> np.ndarray:
    """Uniform entries on [-b, b] with b = sqrt(6 / fan_in), fan_in = cols."""
    if rows < 1 or cols < 1:
        raise ShapeError(f"kaiming_uniform needs positive dims, got ({rows}, {cols})")
    bound = np.sqrt(6.0 / cols)
    u = rng.uniform(rows * cols)
    return ((2.0 * u - 1.0) * bound).reshape(rows, cols)


def softmax(v: np.ndarray) -> np.ndarray:
    """Stable softmax of a 1-D vector (max subtracted before exp)."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ShapeError(f"softmax needs a nonempty 1-D vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ContractError("softmax input has non-finite entries")
    e = np.exp(v - v.max())
    return e / e.sum()


def frobenius_distance(a: np.ndarray, b: np.ndarray) -> float:
    a = _check_matrix(a, "a")
    b = _check_matrix(b, "b")
    if a.shape != b.shape:
        raise ShapeError(f"frobenius_distance shape mismatch: {a.shape} vs {b.shape}")
    d = a - b
    return float(np.sqrt((d * d).sum()))
