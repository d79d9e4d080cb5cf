"""Deterministic dense linear algebra and seeded random draws.

All numeric state is float64. Matrix products accumulate in a fixed order
(each entry sums its products over the contraction index, ascending, from
+0.0) so that repeated runs produce bit-identical results; nothing here
calls into BLAS. `matmul` converts both operands to the output dtype, so every
product is formed in that dtype, and contracts them with one `np.einsum` call
whose iterator keeps the contraction index outermost, so each pass over it
adds one rounded product into every output entry. This assumes numpy's
einsum rounds each product before the add, as its x86-64 baseline build does;
where its loop fuses multiply and add (aarch64 NEON), the bytes differ.

Randomness comes from a counter-based splitmix64 generator: draw i under
seed s is a pure integer hash of (s, i), which makes seeds portable across
platforms and lets draws be produced in vectorized blocks without changing
the sequence. `SeededRng.shuffle`, `corpus.synth_corpus` and the k-means++
seeding in `clustering` each take one block per call; `uniform_to_int` is the
one map from uniforms to bounded ints that they and `integers` share.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractError, InvariantError, ShapeError

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64 = np.uint64
_MASK64 = 0xFFFFFFFFFFFFFFFF


def _mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 output function on an array of uint64 states."""
    z = (z ^ (z >> _U64(30))) * _MIX1
    z = (z ^ (z >> _U64(27))) * _MIX2
    return z ^ (z >> _U64(31))


def _mix64_int(z: int) -> int:
    """`_mix64` on one Python int, without numpy's per-call overhead."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _fold_tag(seed: int, tag) -> int:
    """Hash a str/int tag into a derived 64-bit seed (no reliance on hash())."""
    if isinstance(tag, str):
        data = tag.encode("utf-8")
    elif isinstance(tag, (int, np.integer)):
        data = [int(tag) & _MASK64]
    else:
        raise ContractError(f"rng tags must be str or int, got {type(tag).__name__}")
    for b in data:
        seed = _mix64_int(seed ^ b)
    return seed


def uniform_to_int(u, high):
    """Ints on [0, high) from uniforms on [0, 1), elementwise; `high` broadcasts."""
    return np.minimum((u * high).astype(np.int64), high - 1)


class SeededRng:
    """Counter-based splitmix64 stream: output i = mix(seed + (i+1)*golden)."""

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self._counter = 0

    def derive(self, *tags) -> "SeededRng":
        """Independent child stream keyed by the given tags."""
        s = self.seed
        for t in tags:
            s = _fold_tag(s, t)
        return SeededRng(s)

    def next_uint64(self, n: int) -> np.ndarray:
        if not isinstance(n, (int, np.integer)) or n < 0:
            raise ContractError(f"draw counts must be integers >= 0, got {n!r}")
        ks = np.arange(self._counter + 1, self._counter + n + 1, dtype=np.uint64)
        self._counter += n
        return _mix64(ks * _GOLDEN + _U64(self.seed))

    def uniform(self, n: int) -> np.ndarray:
        """n doubles in [0, 1), 53 random bits each."""
        return (self.next_uint64(n) >> _U64(11)) * (2.0 ** -53)

    def normal(self, n: int) -> np.ndarray:
        """Standard normals via Box-Muller (pairs; surplus draw discarded)."""
        m = (n + 1) // 2 if n >= 0 else n  # next_uint64 rejects it; -1 would round to 0
        u1 = (self.next_uint64(m) >> _U64(11)).astype(np.float64)
        u1 = (u1 + 1.0) * (2.0 ** -53)  # (0, 1], keeps log finite
        u2 = self.uniform(m)
        r = np.sqrt(-2.0 * np.log(u1))
        out = np.concatenate([r * np.cos(2.0 * np.pi * u2),
                              r * np.sin(2.0 * np.pi * u2)])
        return out[:n]

    def integers(self, n: int, high: int) -> np.ndarray:
        """n ints uniform on [0, high)."""
        if not isinstance(high, (int, np.integer)) or high <= 0:
            raise ContractError(f"integers() needs an integer high >= 1, got {high!r}")
        return uniform_to_int(self.uniform(n), int(high))  # a np.uint64 high would make floats

    def shuffle(self, items: list) -> list:
        """Fisher-Yates; returns a new list. One block of swaps, bounds n, n - 1, ..., 2."""
        out = list(items)
        swaps = uniform_to_int(self.uniform(max(len(out) - 1, 0)), np.arange(len(out), 1, -1))
        for i, j in zip(range(len(out) - 1, 0, -1), swaps.tolist()):
            out[i], out[j] = out[j], out[i]
        return out


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with fixed accumulation order over the shared index.

    Operands are matrices or equal-length stacks of them, (G, m, k) x
    (G, k, n), converted first to the output dtype (float64, or longdouble
    when an operand is), so float32 and integer operands multiply in float64.
    Every output entry is ((0.0 + a[i,0]*b[0,j]) + a[i,1]*b[1,j]) + ..., k
    ascending, whatever the shape, the layout and G are.

    One np.einsum call forms the product, with order="F" and neither `out`
    nor `optimize` (so nothing reaches tensordot or BLAS). Under a forced F
    order its iterator walks the output axes first-fastest and keeps the
    summed index k outermost: each pass over k adds one rounded product into
    every entry of a +0.0 output. The row operand is made F-contiguous first,
    so the inner loop runs down a whole contiguous output column; when
    n > m the kernel forms out^T = b^T a^T, so that loop runs over the longer
    side, and the F-ordered out^T already is out in C order. Stacks put i
    first in the output labels. The result is C-contiguous, because row
    reductions downstream can sum in another order on other layouts.

    An output of fewer than 2 entries keeps a loop over k: in a 1-entry
    output k would be einsum's inner loop, which numpy sums with several
    accumulators. The product must be rounded before the add, as numpy's
    x86-64 baseline einsum rounds it; a build whose einsum fuses
    multiply-add gives other bytes.
    """
    a, b = np.asarray(a), np.asarray(b)
    if (a.ndim not in (2, 3) or b.ndim != a.ndim or a.shape[:-2] != b.shape[:-2]
            or a.shape[-1] != b.shape[-2]):
        raise ShapeError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    m, n = a.shape[-2], b.shape[-1]
    out_shape = a.shape[:-1] + (n,)
    dtype = np.result_type(a, b, np.float64)
    # products in the output dtype
    a, b = a.astype(dtype, copy=False), b.astype(dtype, copy=False)
    if math.prod(out_shape) < 2:
        out = np.zeros(out_shape, dtype=dtype)
        with np.errstate(all="ignore"):  # finiteness is checked explicitly below
            for i in range(a.shape[-1]):
                out += a[..., i : i + 1] * b[..., i : i + 1, :]
    else:
        flip = n > m
        rows, cols = (b.swapaxes(-1, -2), a.swapaxes(-1, -2)) if flip else (a, b)
        if a.ndim == 2:
            out = np.einsum("ik,kj->ij", np.asfortranarray(rows), cols, order="F")
            out = out.T if flip else np.ascontiguousarray(out)
        else:
            rows = np.asfortranarray(rows.transpose(1, 0, 2))  # (i, g, k)
            out = np.einsum("igk,gkj->igj", rows, cols, order="F")
            out = np.ascontiguousarray(out.transpose(1, 2, 0) if flip else out.transpose(1, 0, 2))
    if not np.isfinite(out).all():
        raise InvariantError("matmul produced non-finite entries")
    return out


def kaiming_uniform(rows: int, cols: int, rng: SeededRng) -> np.ndarray:
    """Uniform entries on [-b, b] with b = sqrt(6 / fan_in), fan_in = cols."""
    if rows < 1 or cols < 1:
        raise ShapeError(f"kaiming_uniform needs positive dims, got ({rows}, {cols})")
    bound = np.sqrt(6.0 / cols)
    u = rng.uniform(rows * cols)
    return ((2.0 * u - 1.0) * bound).reshape(rows, cols)
