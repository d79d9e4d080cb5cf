"""The seeded stream's block consumers: recorded values and per-draw references.

The golden values were recorded from the per-draw implementations (one
`integers` or `uniform` call per scalar, numpy-array tag folding). They depend
only on the integer stream and `uniform`, which use integer and exactly
rounded float operations, so they hold on any machine.
"""

import hashlib
import re

import numpy as np
import pytest

from hydra_peft import cli
from hydra_peft import clustering as cl
from hydra_peft import corpus as cp
from hydra_peft import linalg
from hydra_peft.errors import UsageError
from hydra_peft.linalg import SeededRng
from rng_refs import kmeanspp_seed_ref, shuffle_ref, synth_corpus_ref

DERIVE_TAGS = [("é漢",), (-1,), (2**70,), (np.int64(-5),), ("kmeans", 3), ("restart", 7)]
DERIVE_GOLDEN = {
    0: [10602414279617962220, 13029008266876403067, 0, 5185122842947594062,
        8612930616962921870, 3612486725538056979],
    12345: [13311204241638321829, 7873902204275907923, 17540659726606785873,
            5412658813395773251, 14661784825649262401, 11390948933540753814],
}
SHUFFLE_GOLDEN = {
    0: [],
    1: [0],
    2: [1, 0],
    37: [31, 35, 29, 24, 27, 10, 28, 30, 33, 17, 11, 15, 1, 5, 21, 14, 20, 23, 34, 3, 19,
         13, 8, 4, 36, 18, 16, 26, 9, 22, 0, 12, 2, 25, 7, 32, 6],
    150: [110, 39, 60, 12, 146, 125, 139, 0, 48, 98, 52, 23, 107, 118, 69, 29, 101, 134, 20,
          31, 56, 132, 74, 99, 37, 147, 13, 84, 19, 15, 35, 109, 144, 122, 91, 27, 142, 54,
          105, 88, 93, 9, 16, 124, 127, 128, 143, 70, 8, 75, 18, 42, 117, 148, 43, 44, 61,
          130, 78, 41, 89, 32, 83, 55, 111, 120, 113, 137, 72, 129, 138, 96, 115, 51, 40, 65,
          145, 38, 14, 5, 17, 77, 103, 90, 119, 76, 66, 63, 1, 64, 62, 28, 121, 85, 112, 95,
          3, 2, 45, 149, 82, 50, 71, 26, 80, 6, 67, 94, 68, 102, 140, 49, 136, 79, 133, 34,
          92, 87, 104, 73, 7, 97, 123, 58, 59, 11, 46, 114, 116, 24, 33, 53, 21, 126, 81,
          141, 22, 36, 100, 86, 131, 47, 106, 4, 57, 10, 108, 30, 135, 25],
}
# the README walkthrough corpus, and `cluster --k-max 8 --seed 7` on it
README_CORPUS_SHA256 = "50ce08d02f85c89dda7b849655428d5d04600be9ce5cf12cbac57a98c31a049b"
README_CLUSTER_SHA256 = "12befbe2ab619750f8d6286a567c3c81c3d2e6154df6523b8477359d2cb48787"

SEEDS = range(20)


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _texts(docs):
    return [(d.id, d.text, d.task) for d in docs]


@pytest.mark.parametrize("seed", sorted(DERIVE_GOLDEN))
def test_derive_golden_seeds(seed):
    got = [SeededRng(seed).derive(*tags).seed for tags in DERIVE_TAGS]
    assert got == DERIVE_GOLDEN[seed]


@pytest.mark.parametrize("n", sorted(SHUFFLE_GOLDEN))
def test_shuffle_golden(n):
    assert SeededRng(3).derive("shuffle").shuffle(list(range(n))) == SHUFFLE_GOLDEN[n]


def test_readme_corpus_and_cluster_golden(tmp_path):
    corpus_path, out = tmp_path / "corpus.jsonl", tmp_path / "cluster.json"
    cp.save_jsonl(corpus_path, cp.synth_corpus(3, 50, 0.8, seed=7))
    assert _sha256(corpus_path) == README_CORPUS_SHA256
    rc = cli.main(["cluster", "--corpus", str(corpus_path), "--k-max", "8",
                   "--seed", "7", "--out", str(out)])
    assert rc == 0
    assert _sha256(out) == README_CLUSTER_SHA256


def test_int_mixer_matches_array_mixer():
    z = np.random.default_rng(0).integers(0, 2**64, size=2000, dtype=np.uint64, endpoint=False)
    z = np.concatenate([z, np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64)])
    assert [linalg._mix64_int(int(v)) for v in z] == [int(v) for v in linalg._mix64(z)]


@pytest.mark.parametrize("seed", SEEDS)
def test_shuffle_block_matches_per_draw_loop(seed):
    lib, ref = SeededRng(seed), SeededRng(seed)
    for n in (0, 1, 2, 3, 17, 64):
        items = [f"item{i}" for i in range(n)]
        assert lib.shuffle(items) == shuffle_ref(ref, items)
        assert lib._counter == ref._counter
    assert lib.uniform(3).tobytes() == ref.uniform(3).tobytes()


@pytest.mark.parametrize("seed", SEEDS)
def test_synth_corpus_block_matches_per_draw_loop(seed, monkeypatch):
    derived = []
    real_derive = SeededRng.derive

    def recording_derive(self, *tags):
        derived.append(real_derive(self, *tags))
        return derived[-1]

    monkeypatch.setattr(SeededRng, "derive", recording_derive)
    for args in [(3, 5, 0.8), (2, 4, 0.0), (2, 4, 1.0), (1, 1, 0.5)]:
        doc_len = 1 + seed % 13
        docs = cp.synth_corpus(*args, seed=seed, doc_len=doc_len)
        lib_rng = derived[-1]
        ref_docs, ref_rng = synth_corpus_ref(*args, seed=seed, doc_len=doc_len)
        assert _texts(docs) == _texts(ref_docs)
        assert lib_rng._counter == ref_rng._counter


def _kmeanspp_cases(seed):
    """(points, distinct point count, k values up to and past that count)"""
    x = SeededRng(seed).derive("points").normal(24).reshape(8, 3)
    x[4:] = x[0]  # repeated points: later draws can land on chosen centers
    yield x, 4, (1, 2, 4, 5)
    yield np.zeros((1, 2)), 1, (1, 3)                        # n = 1: one center only
    yield np.array([[0.0, 0.0], [1.0, 1.0]] * 3), 2, (1, 2, 4)  # total d2 = 0 after two centers


@pytest.mark.parametrize("seed", SEEDS)
def test_kmeanspp_block_matches_per_draw_loop(seed):
    for x, distinct, ks in _kmeanspp_cases(seed):
        for k in ks:
            lib, ref = SeededRng(seed).derive("pp", k), SeededRng(seed).derive("pp", k)
            if k > distinct:
                message = f"k={k} exceeds the number of distinct points ({distinct})"
                with pytest.raises(UsageError, match=re.escape(message)):
                    cl._kmeanspp_seed(x, k, lib)
                assert lib._counter == k
                continue
            got, want = cl._kmeanspp_seed(x, k, lib), kmeanspp_seed_ref(x, k, ref)
            assert got.tobytes() == want.tobytes()
            assert lib._counter == ref._counter == k
