"""Per-draw references for the consumers that take the seeded stream in blocks.

`SeededRng.shuffle`, `corpus.synth_corpus` and the k-means++ seeding in
`clustering` each take one block of draws per call. These are the loops they
replace, one `integers` or `uniform` call per scalar, in the same counter
order; tests require the same outputs and the same stream position.
"""

import numpy as np

from hydra_peft.corpus import Document
from hydra_peft.linalg import SeededRng

POOL_SIZE = 10


def shuffle_ref(rng: SeededRng, items: list) -> list:
    """Fisher-Yates with one draw per swap, i from n - 1 down to 1."""
    out = list(items)
    for i in range(len(out) - 1, 0, -1):
        j = int(rng.integers(1, i + 1)[0])
        out[i], out[j] = out[j], out[i]
    return out


def synth_corpus_ref(n_components, docs_per_component, disjointness, seed, doc_len=12):
    """The synth_corpus body with three draws per document: coins, own-pool
    picks, shared-pool picks. Returns the documents and the stream it used."""
    rng = SeededRng(seed).derive("synth-corpus")
    shared = [f"common{j}" for j in range(POOL_SIZE)]
    docs = []
    for c in range(n_components):
        own = [f"topic{c}term{j}" for j in range(POOL_SIZE)]
        for d in range(docs_per_component):
            coin = rng.uniform(doc_len)
            own_pick = rng.integers(doc_len, POOL_SIZE)
            shared_pick = rng.integers(doc_len, POOL_SIZE)
            words = [own[own_pick[t]] if coin[t] < disjointness else shared[shared_pick[t]]
                     for t in range(doc_len)]
            docs.append(Document(id=f"c{c}d{d}", text=" ".join(words), task=f"component{c}"))
    return docs, rng


def kmeanspp_seed_ref(x: np.ndarray, k: int, rng: SeededRng) -> np.ndarray:
    """k-means++ with one draw per center: an index for the first center,
    then a d2-weighted target. x needs at least k distinct points."""
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[int(rng.integers(1, n)[0])]
    d2 = ((x - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        target = float(rng.uniform(1)[0]) * d2.sum()
        idx = min(int(np.searchsorted(np.cumsum(d2), target, side="right")), n - 1)
        centers[j] = x[idx]
        d2 = np.minimum(d2, ((x - centers[j]) ** 2).sum(axis=1))
    return centers
