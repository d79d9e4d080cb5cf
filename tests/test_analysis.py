import numpy as np
import pytest

from hydra_peft import adapters as ad
from hydra_peft import analysis
from hydra_peft.errors import UsageError
from hydra_peft.linalg import SeededRng


def _lora_tensors(seed, b_scale=1.0, a=None):
    rng = SeededRng(seed)
    a = a if a is not None else rng.normal(16).reshape(4, 4)
    b = b_scale * rng.derive("b").normal(16).reshape(4, 4)
    return {"v_proj.A": a, "v_proj.B": b}


def test_identical_checkpoints_are_degenerate():
    t = _lora_tensors(1)
    report = analysis.breakdown([("x", t), ("y", {k: v.copy() for k, v in t.items()})])
    # every cross-checkpoint distance collapses to zero and the ratio is
    # flagged as meaningless
    for i, lab_i in enumerate(report.labels):
        for j, lab_j in enumerate(report.labels):
            if lab_i.split(":")[1] == lab_j.split(":")[1]:
                assert report.distances[i, j] == 0.0
    assert report.degenerate
    assert report.ratio == 1.0


def test_b_only_difference_shows_in_b_group():
    shared_a = SeededRng(9).normal(16).reshape(4, 4)
    r1 = _lora_tensors(1, a=shared_a)
    r2 = _lora_tensors(2, a=shared_a)
    report = analysis.breakdown([("t1", r1), ("t2", r2)])
    assert report.d_a == 0.0
    assert report.d_b > 0.0
    assert not report.degenerate


def test_breakdown_needs_two_checkpoints():
    with pytest.raises(UsageError):
        analysis.breakdown([("only", _lora_tensors(1))])


def test_breakdown_rejects_mismatched_sizes():
    small = {"v_proj.A": np.zeros((2, 2)), "v_proj.B": np.zeros((2, 2))}
    with pytest.raises(UsageError, match="flattened"):
        analysis.breakdown([("a", _lora_tensors(1)), ("b", small)])


def test_breakdown_skips_router_and_base_tensors():
    t = _lora_tensors(3)
    t["v_proj.Wg"] = np.zeros((4, 2))
    t["base.head"] = np.zeros((3, 4))
    report = analysis.breakdown([("a", t), ("b", _lora_tensors(4))])
    assert all(".Wg" not in lab and "base" not in lab for lab in report.labels)


def test_breakdown_permutation_equivariant():
    ckpts = [("a", _lora_tensors(1)), ("b", _lora_tensors(2)), ("c", _lora_tensors(3))]
    r1 = analysis.breakdown(ckpts)
    r2 = analysis.breakdown(list(reversed(ckpts)))
    order = [r2.labels.index(lab) for lab in r1.labels]
    assert np.abs(r1.distances - r2.distances[np.ix_(order, order)]).max() < 1e-15
    assert r1.ratio == pytest.approx(r2.ratio, rel=1e-12)


def test_pca_preserves_distances_of_planar_data():
    # points on a 2-D affine subspace of a 9-D space: the embedding must
    # reproduce their pairwise distances exactly (up to tolerance)
    rng = SeededRng(5)
    basis = np.linalg.qr(rng.normal(18).reshape(9, 2))[0].T
    coords2 = rng.normal(24).reshape(12, 2) * np.array([3.0, 1.0])
    points = coords2 @ basis + rng.normal(9)
    emb = analysis._power_top2(points)
    want = np.sqrt(((coords2[:, None] - coords2[None, :]) ** 2).sum(axis=2))
    got = np.sqrt(((emb[:, None] - emb[None, :]) ** 2).sum(axis=2))
    assert np.abs(want - got).max() < 1e-6
    # identical rows have no principal direction: every one embeds at the origin
    same = analysis._power_top2(np.tile(points[:1], (3, 1)))
    assert same.shape == (3, 2) and not same.any()


def test_group_divergence_scale_normalized():
    m1 = np.eye(3)
    m2 = np.zeros((3, 3))
    base = analysis.group_divergence([m1, m2])
    scaled = analysis.group_divergence([10 * m1, 10 * m2])
    assert base == pytest.approx(scaled, rel=1e-12)
    assert analysis.group_divergence([m1]) == 0.0


def test_cost_reference_ratio_is_half():
    ratio = (ad.params_per_matrix("hydra", 4096, 4096, 8, 3)
             / ad.params_per_matrix("lora", 4096, 4096, 32))
    assert abs(ratio - 0.500) <= 0.005


def test_cost_square_case_macs():
    # an adapter parameter is one multiply-accumulate per token
    n = 64
    assert ad.params_per_matrix("lora", n, n, 4) == 2 * n * 4


def test_cost_hydra_single_expert_only_adds_router():
    hydra = ad.params_per_matrix("hydra", 32, 32, 4, 1)
    assert hydra - ad.params_per_matrix("lora", 32, 32, 4) == 4 * 1


def test_svg_scatter_emitted():
    report = analysis.breakdown([("a", _lora_tensors(1)), ("b", _lora_tensors(2))])
    svg = analysis.scatter_svg(report)
    assert svg.startswith("<svg")
    assert svg.count("<circle") == len(report.labels)
    assert analysis.scatter_svg(report) == svg  # deterministic bytes


def test_csv_outputs_shape():
    report = analysis.breakdown([("a", _lora_tensors(1)), ("b", _lora_tensors(2))])
    dist_lines = report.distance_csv().strip().split("\n")
    n = len(report.labels)
    assert len(dist_lines) == 1 + n * (n - 1) // 2
    emb_lines = report.embedding_csv().strip().split("\n")
    assert emb_lines[0] == "id,role,layer,x,y"
    assert len(emb_lines) == 1 + n


def test_csv_numeric_cells_parse_as_floats():
    report = analysis.breakdown([("a", _lora_tensors(1)), ("b", _lora_tensors(2)),
                                 ("c", _lora_tensors(3))])
    dists = [float(row.split(",")[2]) for row in report.distance_csv().splitlines()[1:]]
    n = len(report.labels)
    assert dists == [report.distances[i, j] for i in range(n) for j in range(i + 1, n)]
    cells = [row.split(",")[2:] for row in report.embedding_csv().splitlines()[1:]]
    assert [tuple(map(float, c)) for c in cells] == [(0.0, x, y) for x, y in report.coords]
