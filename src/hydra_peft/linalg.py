"""Deterministic dense linear algebra and seeded random draws.

All numeric state is float64. Matrix products accumulate in a fixed order
(each entry sums its products over the contraction index, ascending, from
+0.0) so that repeated runs produce bit-identical results; nothing here
calls into BLAS. `matmul` converts both operands to the output dtype, so every
product is formed in that dtype, and picks one of three kernels by shape; all
give the same bytes: a broadcast-and-reduce, whose products `np.einsum` writes
in passes of a bounded buffer laid out so numpy's inner loop runs over the
longer side of the output; the same einsum-and-reduce over blocks of rows of a
2-D output too large for a pass to hold enough of the contraction index, each
block holding all of it; and a loop over the contraction index for the rest.

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


# Largest product buffer, in elements, one pass of the broadcast kernel or
# one row block builds. Above it the buffer costs more in memory traffic and
# peak RSS than the k-loop saves.
_BROADCAST_MAX_ELEMS = 1 << 16
# Fewest products per output entry a pass must hold when k needs more than
# one pass. Measured on shapes with k >= 2 passes: at 8 per pass the k-loop
# was as fast or up to 35 % faster (512x16, 256x32, 128x64 outputs); from 10
# per pass the passes tied or won, 2-5x at 16x16 outputs (256 per pass).
# Row blocks, which take 2-D shapes below it, ran 0.88-1.45x the passes'
# time at 10-32 per pass (375x16 to 128x32 outputs).
_MIN_PASS_SLICES = 10


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with fixed accumulation order over the shared index.

    Operands are matrices or equal-length stacks of them, (G, m, k) x
    (G, k, n), converted first to the output dtype (float64, or longdouble
    when an operand is), so float32 and integer operands multiply in float64.
    Every output entry is ((0.0 + a[i,0]*b[0,j]) + a[i,1]*b[1,j]) + ..., k
    ascending, whichever of three kernels runs and whatever G is:

    - broadcast-and-reduce, when the output has size >= 2 entries and either
      all of k fits one pass or a pass holds c = _BROADCAST_MAX_ELEMS // size
      >= _MIN_PASS_SLICES products per entry. Each pass writes its products
      to slices 1.. of a C-contiguous (c + 1, [G,] m, n) buffer with
      np.einsum, one rounded product per entry (it writes a -0.0 product as
      +0.0, which no sum from +0.0 can tell apart); einsum's inner loop walks
      the second operand's last axis, so that operand is made contiguous
      first. The first pass reduces the products over axis 0 from +0.0; each
      later pass puts the running sum (never -0.0) in slice 0 and reduces
      from there. With that axis outermost numpy adds whole output-sized
      slices one after another. Any other layout (or a 1-entry output) can
      put k on the inner loop, where numpy switches to pairwise summation and
      the bytes change. When n < m the buffer holds out^T, as
      (c + 1, [G,] n, m), so numpy's inner loop runs over the longer side;
      the result is copied back to C order, because row reductions
      downstream can sum in another order on other layouts.
    - row blocks, for a 2-D output too large for _MIN_PASS_SLICES per pass
      with n >= 2 and n * k <= _BROADCAST_MAX_ELEMS: the fewest blocks of at
      most _BROADCAST_MAX_ELEMS // (n * k) rows, r rows each (the last may be
      shorter) with r as small as that count allows, write all k products
      per entry to one (k, r, n) buffer, allocated once per call, and reduce
      them over axis 0 from +0.0 into their rows of the result. Never
      transposed: at n = 24..72 that measured slower.
    - everything else (k == 0; n == 1, which includes a 1-entry output and
      where this loop beat row blocks; n * k over the cap; or a stack too
      large for passes): a loop over k adding rank-1 updates into zeros.
    """
    a, b = np.asarray(a), np.asarray(b)
    if (a.ndim not in (2, 3) or b.ndim != a.ndim or a.shape[:-2] != b.shape[:-2]
            or a.shape[-1] != b.shape[-2]):
        raise ShapeError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    k, n = b.shape[-2:]
    out_shape = a.shape[:-1] + (n,)
    size = math.prod(out_shape)
    dtype = np.result_type(a, b, np.float64)
    # products in the output dtype, whichever kernel forms them
    a, b = a.astype(dtype, copy=False), b.astype(dtype, copy=False)
    c = k if size * k <= _BROADCAST_MAX_ELEMS else _BROADCAST_MAX_ELEMS // size
    with np.errstate(all="ignore"):  # finiteness is checked explicitly below
        if size >= 2 and k >= 1 and (c == k or c >= _MIN_PASS_SLICES):
            # (k, [G,] m) and (k, [G,] n) views of the operands
            rows, cols = (a.transpose(2, 0, 1), b.transpose(1, 0, 2)) if a.ndim == 3 else (a.T, b)
            shape, flip = out_shape, n < out_shape[-2]
            if flip:
                rows, cols, shape = cols, rows, out_shape[:-2] + (n, out_shape[-2])
            cols = np.ascontiguousarray(cols)  # einsum's inner loop walks its last axis
            spec = "kgi,kgj->kgij" if a.ndim == 3 else "ki,kj->kij"
            buf = np.empty((c + 1, *shape), dtype)
            out = np.add.reduce(np.einsum(spec, rows[:c], cols[:c], out=buf[1:]), axis=0, initial=0.0)
            for k0 in range(c, k, c):
                w = min(c, k - k0)
                buf[0] = out
                np.einsum(spec, rows[k0 : k0 + w], cols[k0 : k0 + w], out=buf[1 : w + 1])
                out = np.add.reduce(buf[: w + 1], axis=0)
            if flip:
                out = np.ascontiguousarray(out.swapaxes(-1, -2))
        elif a.ndim == 2 and out_shape[0] and n >= 2 and 1 <= k <= _BROADCAST_MAX_ELEMS // n:
            blocks = -(-out_shape[0] // (_BROADCAST_MAX_ELEMS // (n * k)))
            r = -(-out_shape[0] // blocks)  # rows per block, as even as that count allows
            b = np.ascontiguousarray(b)  # einsum's inner loop walks its last axis
            buf, out = np.empty((k, r, n), dtype), np.empty(out_shape, dtype)
            for i0 in range(0, out_shape[0], r):
                rows = a[i0 : i0 + r]
                part = np.einsum("ik,kj->kij", rows, b, out=buf[:, : len(rows)])
                np.add.reduce(part, axis=0, initial=0.0, out=out[i0 : i0 + r])
        else:
            out = np.zeros(out_shape, dtype=dtype)
            for i in range(k):
                out += a[..., i : i + 1] * b[..., i : i + 1, :]
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
