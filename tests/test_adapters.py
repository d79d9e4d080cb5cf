import numpy as np
import pytest

from hydra_peft import adapters as ad
from hydra_peft import linalg
from hydra_peft.autodiff import Tape
from hydra_peft.errors import CheckpointError, InvariantError, UsageError
from hydra_peft.linalg import SeededRng

from adapter_refs import linear_forward, lora_ref


def _fresh(scheme, d, k, r, n, seed):
    rng = SeededRng(seed)
    if scheme == "lora":
        return ad.LoraAdapter.init(d, k, r, rng)
    return ad.HydraAdapter.init(d, k, r, n, rng)


def _out(x, w0, adapter):
    """The adapted output for one input vector, through the tape graph."""
    return linear_forward(w0, adapter, x)[0][0]


@pytest.mark.parametrize("scheme", ["lora", "hydra"])
def test_zero_init_forward_equals_base_exactly(scheme):
    rng = SeededRng(17)
    for trial in range(25):
        d, k = int(rng.integers(1, 6)[0]) + 2, int(rng.integers(1, 6)[0]) + 2
        w0 = rng.normal(d * k).reshape(d, k)
        x = rng.normal(k)
        adapter = _fresh(scheme, d, k, 2, 3, seed=trial)
        out = _out(x, w0, adapter)
        assert np.array_equal(out, linalg.matmul(x[None], w0.T)[0])


def test_lora_forward_hand_case():
    adapter = ad.LoraAdapter(a=np.array([[1.0, 0.0]]), b=np.array([[1.0], [0.0]]),
                             rank=1, alpha=1.0)
    out = _out(np.array([2.0, 3.0]), np.eye(2), adapter)
    assert np.allclose(out, [4.0, 3.0], atol=1e-15)


def test_alpha_scales_update_linearly():
    rng = SeededRng(3)
    w0 = rng.normal(12).reshape(3, 4)
    x = rng.normal(4)
    a1 = ad.LoraAdapter.init(3, 4, 2, SeededRng(5))
    a1.b[:] = SeededRng(6).normal(6).reshape(3, 2)
    a2 = ad.LoraAdapter(a=a1.a.copy(), b=a1.b.copy(), rank=2, alpha=4.0)
    base = _out(x, w0, None)
    delta1 = _out(x, w0, a1) - base
    delta2 = _out(x, w0, a2) - base
    assert np.allclose(delta2, 2.0 * delta1, atol=1e-12)


def test_summed_lora_heads_equal_one_stacked_lora():
    # n rank-r pairs trained side by side are one rank r*n lora: stack their A
    # rows and B columns and multiply alpha by n
    d, k, r, n, alpha = 7, 6, 2, 3, 1.7
    for seed in range(50):
        rng = SeededRng(seed)
        heads = [ad.LoraAdapter.init(d, k, r, rng.derive("head", i), alpha) for i in range(n)]
        for i, h in enumerate(heads):
            h.b[:] = rng.derive("b", i).normal(d * r).reshape(d, r)
        stacked = ad.LoraAdapter(a=np.vstack([h.a for h in heads]),
                                 b=np.hstack([h.b for h in heads]), rank=r * n, alpha=n * alpha)
        w0 = rng.normal(d * k).reshape(d, k)
        x = rng.normal(4 * k).reshape(4, k)
        # with a zero base weight the forward is the update alone
        summed = linear_forward(w0, None, x)[0] + sum(
            linear_forward(np.zeros((d, k)), h, x)[0] for h in heads)
        got = linear_forward(w0, stacked, x)[0]
        assert np.abs(got - summed).max() <= 1e-15 * np.abs(summed).max(), seed


def test_stacked_lora_budget_equals_summed_heads():
    # the stacked rank r*n lora costs as many parameters as its n rank-r heads
    for rr in (1, 2, 4, 8):
        for nn in (1, 2, 3, 4, 8):
            assert (ad.params_per_matrix("lora", 4096, 4096, rr * nn)
                    == nn * ad.params_per_matrix("lora", 4096, 4096, rr))


def _gates(z, w_gate):
    """Router weights for the rank-space input z: the gate slot of a graph
    whose shared A is the identity, so A x = z."""
    r, n = w_gate.shape
    hy = ad.HydraAdapter(a_shared=np.eye(r), experts=[np.zeros((2, r)) for _ in range(n)],
                         w_gate=w_gate, rank=r, alpha=float(r))
    return linear_forward(np.zeros((2, r)), hy, z)[1][0]


def test_route_uniform_for_zero_gate():
    gate = _gates(np.array([0.3, -0.7]), np.zeros((2, 4)))
    assert np.allclose(gate, 0.25, atol=1e-15)


def test_route_closed_form():
    gate = _gates(np.array([np.log(2.0), 0.0]), np.eye(2))
    assert abs(gate[0] - 2.0 / 3.0) < 1e-12


def test_route_single_expert():
    gate = _gates(np.array([1.0, 2.0]), np.ones((2, 1)))
    assert gate.shape == (1,)
    assert gate[0] == 1.0


def test_route_argmax_invariant_to_input_scale():
    rng = SeededRng(31)
    for _ in range(50):
        z = rng.normal(3)
        w_g = rng.normal(12).reshape(3, 4)
        base = _gates(z, w_g).argmax()
        for c in (0.1, 2.0, 17.0):
            assert _gates(c * z, w_g).argmax() == base


def test_hydra_single_expert_matches_lora():
    hy = ad.HydraAdapter.init(3, 4, 2, 1, SeededRng(1))
    hy.experts[0][:] = SeededRng(2).normal(6).reshape(3, 2)
    lora = ad.LoraAdapter(a=hy.a_shared.copy(), b=hy.experts[0].copy(), rank=2, alpha=hy.alpha)
    w0 = SeededRng(3).normal(12).reshape(3, 4)
    x = SeededRng(4).normal(4)
    y, gate = linear_forward(w0, hy, x)
    assert gate.tolist() == [[1.0]]
    assert np.abs(y[0] - _out(x, w0, lora)).max() < 1e-15


def test_hydra_zero_gate_averages_experts():
    hy = ad.HydraAdapter.init(2, 2, 2, 2, SeededRng(5))
    hy.w_gate[:] = 0.0
    hy.experts[0][:] = np.array([[1.0, 0.0], [0.0, 0.0]])
    hy.experts[1][:] = np.array([[0.0, 0.0], [2.0, 0.0]])
    w0 = np.eye(2)
    x = np.array([1.0, 1.0])
    z = hy.a_shared @ x
    want = x + hy.scaling * 0.5 * (hy.experts[0] + hy.experts[1]) @ z
    got, gate = linear_forward(w0, hy, x)
    assert np.allclose(gate[0], [0.5, 0.5], atol=1e-15)
    assert np.allclose(got[0], want, atol=1e-12)


def test_merge_matches_expert_sum():
    rng = SeededRng(77)
    for trial in range(200):
        d = k = 4
        hy = ad.HydraAdapter.init(d, k, 2, 3, SeededRng(trial))
        for e in hy.experts:
            e[:] = rng.normal(d * 2).reshape(d, 2)
        hy.w_gate[:] = rng.normal(2 * 3).reshape(2, 3)
        w0 = rng.normal(d * k).reshape(d, k)
        x = rng.normal(k)
        y, gate = linear_forward(w0, hy, x)
        assert np.abs(ad.merge_infer(x[None], w0, hy, gate) - y).max() <= 1e-12


def test_merge_of_equal_experts_is_that_expert():
    hy = ad.HydraAdapter.init(3, 3, 2, 4, SeededRng(8))
    b = SeededRng(9).normal(6).reshape(3, 2)
    for e in hy.experts:
        e[:] = b
    hy.w_gate[:] = SeededRng(10).normal(8).reshape(2, 4)
    w0 = SeededRng(11).normal(9).reshape(3, 3)
    x = SeededRng(12).normal(3)
    lora = ad.LoraAdapter(a=hy.a_shared.copy(), b=b.copy(), rank=2, alpha=hy.alpha)
    gate = linear_forward(w0, hy, x)[1]
    assert np.abs(ad.merge_infer(x[None], w0, hy, gate)[0] - lora_ref(x, w0, lora)).max() < 1e-12


def test_rank_bounds_enforced():
    with pytest.raises(InvariantError):
        ad.LoraAdapter.init(4, 3, 4, SeededRng(0))
    with pytest.raises(InvariantError):
        ad.LoraAdapter.init(4, 3, 0, SeededRng(0))
    with pytest.raises(InvariantError):
        ad.HydraAdapter.init(4, 4, 2, 0, SeededRng(0))


# -- parameter accounting ----------------------------------------------------

BASE = 6_738_000_000
DIMS = dict(d=4096, k=4096, matrices_per_layer=2, layers=32, base_total=BASE)


def test_param_count_reference_table():
    assert ad.param_count("lora", r=8, n=1, **DIMS) == (4_194_304, 0.062)
    assert ad.param_count("lora", r=16, n=1, **DIMS) == (8_388_608, 0.124)
    assert ad.param_count("lora", r=32, n=1, **DIMS) == (16_777_216, 0.248)
    assert ad.param_count("hydra", r=8, n=3, **DIMS)[1] == 0.124
    count10, pct10 = ad.param_count("hydra", r=8, n=10, **DIMS)
    assert count10 == 23_073_792
    assert abs(pct10 - 0.341) <= 0.002


def test_param_count_rejects_bad_inputs():
    with pytest.raises(UsageError):
        ad.param_count("dora", r=8, n=1, **DIMS)
    with pytest.raises(UsageError):
        ad.param_count("lora", r=0, n=1, **DIMS)
    with pytest.raises(UsageError):
        ad.param_count("lora", 4096, 4096, 8, 1, 2, 32, 0)
    # a rank attach refuses is not counted either
    with pytest.raises(UsageError, match=r"rank 9 outside \[1, min\(4, 6\)\]"):
        ad.param_count("hydra", 4, 6, 9, 2, 1, 1, 10)


def test_adapter_branch_macs_match_formula(monkeypatch):
    """Brute-force MAC counter: a (G, m, k) x (G, k, n) matmul is G*m*k*n MACs."""
    counted = {"macs": 0}
    real_matmul = linalg.matmul

    def counting_matmul(a, b):
        counted["macs"] += int(np.prod(np.shape(a))) * np.shape(b)[-1]
        return real_matmul(a, b)

    monkeypatch.setattr(linalg, "matmul", counting_matmul)
    d, k, r, n = 7, 5, 2, 3
    w0 = SeededRng(1).normal(d * k).reshape(d, k)
    x = SeededRng(2).normal(k)
    base_macs = d * k

    for scheme in ("lora", "hydra"):
        counted["macs"] = 0
        linear_forward(w0, _fresh(scheme, d, k, r, n, 0), x)
        assert counted["macs"] - base_macs == ad.params_per_matrix(scheme, d, k, r, n)


def test_hydra_expert_products_do_not_grow_with_experts(monkeypatch):
    """The experts run as one stacked product, so a step's matmul calls do not scale with N."""
    counted = {"calls": 0}
    real_matmul = linalg.matmul

    def counting_matmul(a, b):
        counted["calls"] += 1
        return real_matmul(a, b)

    monkeypatch.setattr(linalg, "matmul", counting_matmul)
    d, k, r, rows = 7, 5, 2, 4
    w0 = SeededRng(1).normal(d * k).reshape(d, k)
    x = SeededRng(2).normal(rows * k).reshape(rows, k)
    counts = []
    for n in (1, 3, 8):
        t = Tape()
        xs = t.input(x)
        branch, _ = _fresh("hydra", d, k, r, n, n).tape_branch(t, xs, "proj", True)
        logits = t.add(t.matmul(xs, t.input(w0), transpose_b=True), branch)
        t.backward(t.cross_entropy(logits, t.input(np.arange(rows) % d)))
        counts.append(counted["calls"])
        counted["calls"] = 0
    # forward: base, A, router, experts; backward: experts (z, B), router (z, Wg), A
    assert counts == [9, 9, 9]


# -- checkpoints --------------------------------------------------------------


def _save(path, scheme, adapter, proj="adapter", **base):
    meta = {"scheme": scheme, "rank": str(adapter.rank), "alpha": repr(adapter.alpha),
            "seed": "42"}
    tensors = dict(adapter.named_params(proj))
    tensors.update((f"base.{name}", w) for name, w in base.items())
    ad.write_checkpoint(path, meta, tensors)


@pytest.mark.parametrize("scheme", ["lora", "hydra"])
def test_checkpoint_round_trip_bitwise(tmp_path, scheme):
    adapter = _fresh(scheme, 5, 4, 2, 3, seed=13)
    mats = adapter.experts if scheme == "hydra" else [adapter.b]
    for i, m in enumerate(mats):
        m[:] = SeededRng(100 + i).normal(m.size).reshape(m.shape)
    path = tmp_path / "ck.txt"
    head = SeededRng(7).normal(6).reshape(2, 3)
    _save(path, scheme, adapter, proj="v_proj", head=head)
    meta, loaded, tensors = ad.read_checkpoint(path)
    assert meta == {"scheme": scheme, "rank": "2", "alpha": "2.0", "seed": "42"}
    assert list(loaded) == ["v_proj"]
    assert type(loaded["v_proj"]) is type(adapter)
    pairs = list(zip(adapter.named_params("v_proj"), loaded["v_proj"].named_params("v_proj")))
    assert len(pairs) == len(adapter.named_params("v_proj"))
    for (n1, t1), (n2, t2) in pairs:
        assert n1 == n2
        assert t1.tobytes() == t2.tobytes()
    # every tensor under its full name, in file order
    assert list(tensors) == [n for n, _ in adapter.named_params("v_proj")] + ["base.head"]
    assert tensors["base.head"].tobytes() == head.tobytes()
    # writing what was read gives the same bytes
    again = tmp_path / "again.txt"
    ad.write_checkpoint(again, meta, tensors)
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("scheme,names", [
    ("lora", ["p.A", "p.B"]),
    ("hydra", ["p.A", "p.B0", "p.B1", "p.B2", "p.Wg"]),
], ids=["lora-names0", "hydra-names2"])
def test_named_params_order_and_liveness(scheme, names):
    adapter = _fresh(scheme, 5, 4, 2, 3, seed=1)
    named = adapter.named_params("p")
    assert [n for n, _ in named] == names
    named[-1][1][0, 0] = 123.0   # the arrays are the adapter's own, not copies
    assert adapter.named_params("p")[-1][1][0, 0] == 123.0
    for n, _ in named:
        assert ad.parse_param_name(n)[0] == "p"
    assert ad.parse_param_name("base.head") is None


def test_checkpoint_truncated_file(tmp_path):
    path = tmp_path / "ck.txt"
    _save(path, "lora", _fresh("lora", 3, 3, 1, 1, 0))
    raw = path.read_text()
    path.write_text(raw[: len(raw) - 20])
    with pytest.raises(CheckpointError) as exc:
        ad.read_checkpoint(path)
    assert exc.value.offset > 0


def test_checkpoint_version_mismatch(tmp_path):
    path = tmp_path / "ck.txt"
    _save(path, "lora", _fresh("lora", 3, 3, 1, 1, 0))
    path.write_text(path.read_text().replace("v1", "v9", 1))
    with pytest.raises(CheckpointError, match="version"):
        ad.read_checkpoint(path)


def test_checkpoint_bad_hex(tmp_path):
    path = tmp_path / "ck.txt"
    _save(path, "lora", _fresh("lora", 3, 3, 1, 1, 0))
    lines = path.read_text().split("\n")
    for i, line in enumerate(lines):
        if line.startswith("tensor "):
            lines[i + 1] = "zz" + lines[i + 1][2:]
            break
    path.write_text("\n".join(lines))
    with pytest.raises(CheckpointError, match="hex"):
        ad.read_checkpoint(path)


def _repeat_tensor(text, name):
    """text with a second copy of tensor name's header and data lines after the first"""
    lines = text.split("\n")
    i = lines.index(next(line for line in lines if line.startswith(f"tensor {name} ")))
    return "\n".join(lines[:i + 2] + lines[i:])


@pytest.mark.parametrize("edit,match", [
    (lambda t: t.replace("scheme: hydra\n", ""), "missing metadata line 'scheme'"),
    (lambda t: t.replace("rank: 2\n", "rank: two\n"), "rank"),
    (lambda t: t.replace("scheme: hydra", "scheme: lora"), "missing tensor adapter.B"),
    (lambda t: t.replace("scheme: hydra", "scheme: split"), "unknown scheme 'split'"),
    (lambda t: t.replace("scheme: hydra", "scheme: dense"), "unknown scheme"),
    (lambda t: t.replace("tensor adapter.Wg", "tensor adapter.Wx"), "missing tensor adapter.Wg"),
    (lambda t: t.replace("tensor adapter.B2", "tensor adapter.B7"), "missing tensor adapter.B2"),
    (lambda t: t + "tensor adapter.B3 1 1\n" + "00" * 8 + "\n", "'adapter.B3' is not part"),
    (lambda t: t.replace("tensor base.head", "tensor head"), "'head' is not part"),
    # header (25 bytes) and scheme line (14) come first: the second rank line is at 47
    (lambda t: t.replace("rank: 2\n", "rank: 7\nrank: 2\n"),
     r"repeated metadata key 'rank' \(byte offset 47\)"),
    (lambda t: _repeat_tensor(t, "adapter.A"), r"repeated tensor adapter.A \(byte offset \d+\)"),
])
def test_checkpoint_reader_rejects_inconsistent_files(tmp_path, edit, match):
    path = tmp_path / "ck.txt"
    _save(path, "hydra", _fresh("hydra", 3, 3, 2, 3, 0), head=np.zeros((2, 3)))
    path.write_text(edit(path.read_text()))
    with pytest.raises(CheckpointError, match=match):
        ad.read_checkpoint(path)
