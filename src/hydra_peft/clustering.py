"""k-means over feature vectors and elbow-based selection of the expert count.

Lloyd iterations alternate nearest-center assignment with mean updates;
seeding is k-means++ (deterministic given the seed), empty clusters are
reseeded at the point currently farthest from its own center, and each k is
run with several restarts keeping the best SSE. k-means needs k <= the number
of distinct points; the seeding checks it, since that is where a violation
shows: every point already sits on a chosen center.

The expert count is the knee of the SSE-vs-k curve: after min-max
normalizing both axes, pick the k whose curve point lies farthest below the
chord joining the curve's endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import corpus as corpus_mod
from .errors import UsageError
from .linalg import SeededRng, uniform_to_int

_MAX_ITER = 100   # Lloyd iterations per restart
_RESTARTS = 8     # k-means++ seedings per k, best SSE kept


@dataclass
class KMeansResult:
    k: int
    centers: np.ndarray          # (k, dim)
    assignments: np.ndarray      # (n,) int
    sse: float
    iterations: int
    sse_history: list[float]     # SSE after each assignment phase


def _sq_dists(x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(n, k) squared euclidean distances."""
    diff = x[:, None, :] - centers[None, :, :]
    return (diff * diff).sum(axis=2)


def _kmeanspp_seed(x: np.ndarray, k: int, rng: SeededRng) -> np.ndarray:
    """k centers from the rows of x; UsageError if fewer than k are distinct."""
    n = x.shape[0]
    u = rng.uniform(k)  # one draw per center: an index, then d2-weighted targets
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[int(uniform_to_int(u[0], n))]
    d2 = ((x - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:  # every point sits on one of the j centers chosen so far
            raise UsageError(f"k={k} exceeds the number of distinct points ({j})")
        idx = int(np.searchsorted(np.cumsum(d2), float(u[j]) * total, side="right"))
        centers[j] = x[min(idx, n - 1)]
        d2 = np.minimum(d2, ((x - centers[j]) ** 2).sum(axis=1))
    return centers


def _assign_with_repair(x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Nearest-center assignment; empty clusters get reseeded at the worst-fit
    point (the one farthest from its own assigned center)."""
    k = centers.shape[0]
    while True:
        d2 = _sq_dists(x, centers)
        assign = d2.argmin(axis=1)
        counts = np.bincount(assign, minlength=k)
        empties = np.flatnonzero(counts == 0)
        if empties.size == 0:
            return assign
        point_d2 = d2[np.arange(x.shape[0]), assign]
        for j in empties:
            # only steal from clusters that keep at least one member
            cand = np.where(counts[assign] > 1, point_d2, -np.inf)
            worst = int(cand.argmax())
            centers[j] = x[worst]
            counts[assign[worst]] -= 1
            counts[j] += 1
            point_d2[worst] = 0.0
            assign[worst] = j


def _lloyd(x: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray, float, int, list[float]]:
    centers = centers.copy()
    prev = None
    history: list[float] = []
    # the pass after the last update only refreshes the assignment, so the
    # nearest-center condition holds against the final centers
    for it in range(1, _MAX_ITER + 2):
        assign = _assign_with_repair(x, centers)
        sse = float(((x - centers[assign]) ** 2).sum())
        history.append(sse)
        if it > _MAX_ITER or (prev is not None and np.array_equal(assign, prev)):
            return centers, assign, sse, min(it, _MAX_ITER), history
        prev = assign
        for j in range(centers.shape[0]):
            members = x[assign == j]
            if members.shape[0] > 0:
                centers[j] = members.mean(axis=0)


def _distinct_count(x: np.ndarray) -> int:
    return np.unique(x, axis=0).shape[0]


def kmeans(vectors: np.ndarray, k: int, seed: int,
           warm_start: np.ndarray | None = None) -> KMeansResult:
    """Best-of-restarts Lloyd's algorithm with k-means++ seeding.

    `warm_start` optionally adds one extra restart from the given centers
    (used by sse_curve to keep the curve monotone). A k above the number of
    distinct points is a UsageError, raised by the k-means++ seeding.
    """
    x = np.asarray(vectors, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise UsageError(f"kmeans needs an (n, dim) matrix, got {x.shape}")
    if k < 1:
        raise UsageError(f"k must be >= 1, got {k}")
    rng = SeededRng(seed).derive("kmeans", k)
    seedings = [_kmeanspp_seed(x, k, rng.derive("restart", r)) for r in range(_RESTARTS)]
    if warm_start is not None:
        seedings.append(np.asarray(warm_start, dtype=np.float64))
    best = None
    for centers0 in seedings:
        centers, assign, sse, iters, history = _lloyd(x, centers0)
        if best is None or sse < best.sse - 1e-12:
            best = KMeansResult(k=k, centers=centers, assignments=assign,
                                sse=sse, iterations=iters, sse_history=history)
    return best


def sse_curve(vectors: np.ndarray, k_max: int, seed: int) -> list[KMeansResult]:
    """The best clustering for each k = 1..k_max, the one for k at index k - 1.

    Each k >= 2 also tries a warm start: the previous k's centers plus one at
    its worst-fit point (the one farthest from its own center), which
    guarantees that SSE never increases with k.
    """
    x = np.asarray(vectors, dtype=np.float64)
    distinct = _distinct_count(x)
    if k_max < 2:
        raise UsageError(f"k_max must be >= 2, got {k_max}")
    if k_max > distinct:
        raise UsageError(f"k_max={k_max} exceeds distinct point count ({distinct})")
    results = []
    for k in range(1, k_max + 1):
        warm = None
        if results:
            prev = results[-1]
            d2 = ((x - prev.centers[prev.assignments]) ** 2).sum(axis=1)
            warm = np.vstack([prev.centers, x[int(d2.argmax())]])
        results.append(kmeans(x, k, seed, warm_start=warm))
    return results


def elbow_select(sses: list[float]) -> int:
    """Knee of the SSE curve for k = 1, 2, ..., len(sses): max vertical gap
    to the endpoint chord after min-max normalizing both axes. Ties and
    degenerate (flat or linear) curves resolve toward the smallest k."""
    if len(sses) < 3:
        raise UsageError(f"elbow needs >= 3 curve points, got {len(sses)}")
    sses = np.asarray(sses, dtype=np.float64)
    s_range = sses[0] - sses[-1]
    if s_range <= 0.0:
        return 1
    xn = np.arange(len(sses)) / (len(sses) - 1)
    yn = (sses - sses[-1]) / s_range
    chord = 1.0 - xn  # normalized chord from (0, 1) to (1, 0)
    gaps = chord - yn
    best = 1
    best_gap = 0.0
    for i in range(len(gaps)):
        if gaps[i] > best_gap + 1e-12:
            best_gap = gaps[i]
            best = i + 1
    if best_gap <= 1e-9:  # numerically linear curve: no knee
        return 1
    return best


@dataclass
class CorpusInit:
    """The expert count picked for a corpus; `curve` holds the SSEs for
    k = 1, 2, ... when the elbow picked it, else None."""
    n_components: int
    assignments: dict[str, int]       # doc id -> cluster
    curve: list[float] | None


def init_hydra_from_corpus(docs, k_max: int, seed: int,
                           override: int | None = None) -> CorpusInit:
    """Pick the expert count for a corpus (elbow of the tf-idf SSE curve,
    unless a developer-specified override is given). Assignments are
    diagnostic only; routing is learned during training."""
    if not docs:
        raise UsageError("corpus is empty")
    model = corpus_mod.tfidf_fit(docs)
    x = corpus_mod.tfidf_matrix(model, docs)
    distinct = _distinct_count(x)
    curve = None
    if override is not None:
        if override < 1:
            raise UsageError(f"override must be >= 1, got {override}")
        n = override
        res = kmeans(x, min(n, distinct), seed)
    elif distinct < 3:
        # too few distinct feature vectors for a meaningful curve
        n = 1
        res = kmeans(x, 1, seed)
    else:
        results = sse_curve(x, min(k_max, distinct), seed)
        curve = [r.sse for r in results]
        n = elbow_select(curve)
        res = results[n - 1]
    return CorpusInit(n_components=n,
                      assignments={d.id: int(a) for d, a in zip(docs, res.assignments)},
                      curve=curve)
