import itertools
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hydra_peft import clustering as cl
from hydra_peft import corpus as cp
from hydra_peft.errors import UsageError
from hydra_peft.linalg import SeededRng


def _blobs(seed, centers, per=30, spread=0.15):
    rng = SeededRng(seed)
    pts, labels = [], []
    for i, c in enumerate(centers):
        c = np.asarray(c, dtype=np.float64)
        pts.append(c + spread * rng.normal(per * c.size).reshape(per, c.size))
        labels += [i] * per
    return np.concatenate(pts), np.asarray(labels)


def test_k1_center_is_mean_and_sse_is_total_deviation():
    x, _ = _blobs(1, [[0.0, 0.0], [4.0, 4.0]], per=20)
    res = cl.kmeans(x, 1, seed=0)
    assert np.abs(res.centers[0] - x.mean(axis=0)).max() < 1e-12
    want = ((x - x.mean(axis=0)) ** 2).sum()
    assert res.sse == pytest.approx(want, rel=1e-12)


def test_two_point_exact_separation():
    x = np.array([[0.0], [10.0]])
    res = cl.kmeans(x, 2, seed=0)
    assert res.sse == 0.0
    assert sorted(res.centers.ravel().tolist()) == [0.0, 10.0]


def test_planted_blobs_recovered():
    x, truth = _blobs(7, [[0, 0], [6, 0], [0, 6]], per=40)
    res = cl.kmeans(x, 3, seed=3)
    best = 0.0
    for perm in itertools.permutations(range(3)):
        mapped = np.asarray(perm)[res.assignments]
        best = max(best, float((mapped == truth).mean()))
    assert best >= 0.95


def test_k_exceeding_distinct_points_rejected():
    x = np.array([[1.0, 2.0]] * 5 + [[3.0, 4.0]] * 5)
    message = "k=3 exceeds the number of distinct points (2)"
    with pytest.raises(UsageError, match=re.escape(message)):
        cl.kmeans(x, 3, seed=0)
    assert cl.kmeans(x, 2, seed=0).sse == 0.0


def test_points_whose_distance_underflows_are_rejected_at_once():
    # np.unique sees two points, but their squared distance is 0.0; in a
    # subprocess, so that a hang fails the test instead of stalling the suite
    code = ("import numpy as np\n"
            "from hydra_peft import clustering as cl\n"
            "from hydra_peft.errors import UsageError\n"
            "try:\n"
            "    cl.kmeans(np.array([[0.0], [1e-200]]), 2, seed=0)\n"
            "except UsageError as e:\n"
            "    print(e)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=30)
    assert proc.stdout == "k=2 exceeds the number of distinct points (1)\n", proc.stderr


def test_identical_points_sse_zero():
    x = np.ones((12, 3))
    res = cl.kmeans(x, 1, seed=0)
    assert res.sse == 0.0


def test_assignments_are_nearest_at_termination():
    x, _ = _blobs(9, [[0, 0, 0], [3, 1, 0], [0, 4, 2]], per=25)
    res = cl.kmeans(x, 3, seed=5)
    d2 = ((x[:, None, :] - res.centers[None, :, :]) ** 2).sum(axis=2)
    assert np.array_equal(res.assignments, d2.argmin(axis=1))


def test_lloyd_iterations_never_increase_sse():
    rng = SeededRng(13)
    for trial in range(10):
        x = rng.normal(60 * 4).reshape(60, 4)
        res = cl.kmeans(x, 4, seed=trial)
        h = res.sse_history
        assert all(h[i + 1] <= h[i] + 1e-9 for i in range(len(h) - 1))


def test_sse_curve_monotone():
    rng = SeededRng(23)
    x = rng.normal(50 * 3).reshape(50, 3)
    results = cl.sse_curve(x, 8, seed=2)
    sses = [r.sse for r in results]
    assert all(sses[i + 1] <= sses[i] + 1e-9 for i in range(len(sses) - 1))
    assert [r.k for r in results] == list(range(1, 9))


def test_sse_curve_validates_k_max():
    x = SeededRng(1).normal(30).reshape(10, 3)
    with pytest.raises(UsageError):
        cl.sse_curve(x, 1, seed=0)
    with pytest.raises(UsageError):
        cl.sse_curve(x, 11, seed=0)


def test_elbow_hand_curve():
    assert cl.elbow_select([100.0, 40.0, 12.0, 10.0, 9.0, 8.5]) == 3


def test_elbow_linear_curve_degenerates_to_one():
    assert cl.elbow_select([100.0 - 10.0 * k for k in range(1, 7)]) == 1


def test_elbow_flat_curve_degenerates_to_one():
    assert cl.elbow_select([5.0] * 4) == 1


def test_elbow_scale_invariant():
    sses = [100.0, 40.0, 12.0, 10.0, 9.0, 8.5]
    base = cl.elbow_select(sses)
    for c in (1e-6, 3.0, 1e9):
        assert cl.elbow_select([c * s for s in sses]) == base


def test_elbow_needs_three_points():
    with pytest.raises(UsageError):
        cl.elbow_select([5.0, 1.0])


def test_planted_corpus_pipeline_selects_three():
    docs = cp.synth_corpus(3, 50, 0.8, seed=11)
    init = cl.init_hydra_from_corpus(docs, k_max=8, seed=11)
    assert init.n_components == 3
    assert set(init.assignments) == {d.id for d in docs}
    sses = init.curve
    assert all(sses[i + 1] <= sses[i] + 1e-9 for i in range(len(sses) - 1))


def test_corpus_init_counts_distinct_points_at_most_twice(monkeypatch):
    calls = []
    count = cl._distinct_count
    monkeypatch.setattr(cl, "_distinct_count", lambda x: calls.append(x) or count(x))
    init = cl.init_hydra_from_corpus(cp.synth_corpus(4, 20, 0.8, seed=2), k_max=8, seed=2)
    assert len(calls) <= 2
    assert len(init.curve) == 8


def test_override_wins_over_curve():
    docs = cp.synth_corpus(3, 20, 0.8, seed=4)
    init = cl.init_hydra_from_corpus(docs, k_max=8, seed=4, override=4)
    assert init.n_components == 4
    assert init.curve is None


def test_single_document_corpus_gives_one():
    init = cl.init_hydra_from_corpus([cp.Document("a", "only text here")],
                                     k_max=8, seed=0)
    assert init.n_components == 1
