"""A full-recompute Lloyd run: the reference that `clustering._lloyd` must match.

Every assignment pass forms all k distance columns and every mean update
recomputes all k means, with empty clusters reseeded at the worst-fit point.
The library reuses the columns and means of clusters whose members did not
change; tests compare its centers, assignments, SSE history and iteration
count with these byte for byte.
"""

import numpy as np

from hydra_peft.clustering import _MAX_ITER


def sq_dists_ref(x, centers):
    """(n, k) squared euclidean distances in the broadcast form."""
    return ((x[:, None] - centers[None]) ** 2).sum(axis=2)


def assign_with_repair_ref(x, centers):
    """Nearest-center assignment; each empty cluster is reseeded (in place in
    `centers`) at the point farthest from its own center, stolen only from
    clusters that keep a member, and all distances are formed again."""
    k = centers.shape[0]
    while True:
        d2 = sq_dists_ref(x, centers)
        assign = d2.argmin(axis=1)
        counts = np.bincount(assign, minlength=k)
        empties = np.flatnonzero(counts == 0)
        if empties.size == 0:
            return assign
        point_d2 = d2[np.arange(x.shape[0]), assign]
        for j in empties:
            cand = np.where(counts[assign] > 1, point_d2, -np.inf)
            worst = int(cand.argmax())
            centers[j] = x[worst]
            counts[assign[worst]] -= 1
            counts[j] += 1
            point_d2[worst] = 0.0
            assign[worst] = j


def lloyd_ref(x, centers):
    """(centers, assignments, sse, iterations, sse history) of a Lloyd run
    from `centers`, stopping when an assignment repeats or after _MAX_ITER
    mean updates, with one last assignment pass after the last update."""
    centers = centers.copy()
    prev = None
    history = []
    for it in range(1, _MAX_ITER + 2):
        assign = assign_with_repair_ref(x, centers)
        sse = float(((x - centers[assign]) ** 2).sum())
        history.append(sse)
        if it > _MAX_ITER or (prev is not None and np.array_equal(assign, prev)):
            return centers, assign, sse, min(it, _MAX_ITER), history
        prev = assign
        for j in range(centers.shape[0]):
            members = x[assign == j]
            if members.shape[0] > 0:
                centers[j] = members.mean(axis=0)
