from dataclasses import replace

import numpy as np
import pytest

from hydra_peft import experiments as ex
from hydra_peft import trainer as tr
from hydra_peft.adapters import LoraAdapter
from hydra_peft.errors import UsageError


@pytest.mark.parametrize("n_tasks,cfg,match", [
    (1, tr.TrainConfig(rank=8, steps=6), "need >= 2 tasks"),
    (2, tr.TrainConfig(rank=5, steps=6), "split evenly"),
    (2, tr.TrainConfig(rank=8, steps=5), "split evenly"),
], ids=["one-task", "rank", "steps"])
def test_observation1_requires_tasks_to_split_rank_and_steps(n_tasks, cfg, match):
    with pytest.raises(UsageError, match=match):
        ex.run_observation1(0, n_tasks, cfg)


def test_observation1_trains_one_pooled_adapter_and_one_lora_per_task(monkeypatch):
    cfg = tr.TrainConfig(scheme="lora", rank=8, steps=6, batch_size=8, pretrain_steps=2)
    calls = []
    train = tr.train

    def spy(model, data, cfg):
        calls.append((model.adapters.get("v_proj"), data, cfg))
        return train(model, data, cfg)

    monkeypatch.setattr(tr, "train", spy)
    ex.run_observation1(3, 2, cfg)
    full = tr.interference_data(3, n_tasks=2, classes=4)
    (_, _, pretrain), (pooled, pooled_data, pooled_cfg), *heads = calls
    assert pretrain.scheme == "full"
    assert isinstance(pooled, LoraAdapter) and pooled.rank == cfg.rank
    assert pooled_cfg.steps == cfg.steps
    assert np.array_equal(pooled_data.train_inputs, full.train_inputs)
    assert set(pooled_data.train_tasks) == {0, 1}
    assert len(heads) == 2
    for t, (head, data, head_cfg) in enumerate(heads):
        assert isinstance(head, LoraAdapter) and head.rank == cfg.rank // 2
        assert head_cfg.steps == cfg.steps // 2
        assert np.array_equal(data.train_inputs, full.train_inputs[full.train_tasks == t])
        assert np.array_equal(data.train_labels, full.train_labels[full.train_tasks == t])
        assert np.array_equal(data.eval_inputs, full.eval_inputs[full.eval_tasks == t])


def test_observation1_heads_update_at_the_pooled_scale(monkeypatch):
    cfg = tr.TrainConfig(scheme="lora", rank=8, steps=6, batch_size=8, pretrain_steps=2,
                         alpha=8.0)
    adapters = []
    train = tr.train

    def spy(model, data, cfg):
        adapters.append(model.adapters.get("v_proj"))
        return train(model, data, cfg)

    monkeypatch.setattr(tr, "train", spy)
    ex.run_observation1(3, 2, cfg)
    _, pooled, *heads = adapters
    assert (pooled.rank, pooled.alpha) == (8, 8.0)
    assert [(h.rank, h.alpha) for h in heads] == [(4, 4.0), (4, 4.0)]
    assert all(h.scaling == pooled.scaling for h in heads)


_HARNESSES = {"obs1": (ex.run_observation1, ex.OBS1), "obs2": (ex.run_observation2, ex.OBS2),
              "het": (ex.run_heterogeneity, ex.HET)}


@pytest.mark.parametrize("suite,change,match", [
    *(pytest.param(s, {"rank": 0}, "rank must be >= 1, got 0", id=s) for s in _HARNESSES),
    # every harness attaches loras; under another scheme train would train
    # something else (under full, the loras and every base weight)
    *(pytest.param(s, {"scheme": scheme}, f"cfg.scheme must be 'lora', got '{scheme}'",
                   id=f"{s}-{scheme}") for scheme in ("full", "hydra") for s in _HARNESSES),
])
def test_harnesses_reject_an_invalid_config_as_usage(suite, change, match):
    harness, cfg = _HARNESSES[suite]
    with pytest.raises(UsageError, match=match):
        harness(0, cfg=replace(cfg, **change))


def test_heterogeneity_pretrains_each_levels_shared_base_once(monkeypatch):
    cfg = replace(ex.HET, steps=3, eval_interval=3, pretrain_steps=2)
    calls = []
    train = tr.train

    def spy(model, data, cfg):
        calls.append((model, cfg.scheme, cfg.steps, model.weights["v_proj"].copy()))
        return train(model, data, cfg)

    monkeypatch.setattr(tr, "train", spy)
    ex.run_heterogeneity(0, cfg=cfg, levels=(1, 2))
    assert [c[1:3] for c in calls] == [("full", 2), ("full", 3), ("lora", 3)] * 2
    for pretrain, fft, peft in zip(calls[0::3], calls[1::3], calls[2::3]):
        assert fft[0] is pretrain[0]
        assert not np.array_equal(fft[3], pretrain[3])  # pretraining moved the base
        assert np.array_equal(peft[3], fft[3])  # and the adapter arm starts from it


def test_observation1_smoke():
    cfg = tr.TrainConfig(scheme="lora", rank=8, steps=60, learning_rate=0.2,
                         batch_size=8, pretrain_steps=20, pretrain_lr=0.1)
    for seed in (0, 1):
        row = ex.run_observation1(seed, cfg=cfg)
        assert set(row) == {"seed", "loss_single", "loss_split", "win"}
        assert row["seed"] == seed
        assert row["win"] is (row["loss_split"] < row["loss_single"])


def test_observation1_homogeneous_control_reports_without_asserting():
    # identical tasks: no interference, so no systematic winner is expected;
    # the harness just reports the per-seed losses
    cfg = tr.TrainConfig(scheme="lora", rank=8, steps=40, learning_rate=0.2,
                         batch_size=8, pretrain_steps=10, pretrain_lr=0.1)
    row = ex.run_observation1(0, cfg=cfg, identical_tasks=True)
    assert np.isfinite(row["loss_single"])
    assert np.isfinite(row["loss_split"])


def test_observation2_identical_tasks_control():
    ctrl = ex.run_observation2(0, identical_tasks=True)
    dist = ex.run_observation2(0)
    # same data for every head: both divergences collapse toward zero
    assert ctrl["d_a"] < dist["d_a"]
    assert ctrl["d_b"] < dist["d_b"]
    assert dist["win"] is (dist["ratio"] > 1.0)


def test_observation2_zero_steps_is_degenerate():
    # the untrained control: at learning rate 0 no step moves a weight
    cfg = tr.TrainConfig(scheme="lora", rank=3, steps=1, learning_rate=0.0)
    row = ex.run_observation2(4, n_tasks=3, cfg=cfg)
    assert row["d_a"] == 0.0  # shared init seed: all A identical
    assert row["d_b"] == 0.0  # all B still zero
    assert row["win"] is False


def test_observation2_builds_models_of_cfg_d_model(monkeypatch):
    widths, alphas = [], []
    real_train = tr.train

    def train(model, data, cfg, **kwargs):
        widths.append((model.weights["v_proj"].shape, model.weights["mlp_in"].shape))
        alphas.extend(ad.alpha for ad in model.adapters.values())
        return real_train(model, data, cfg, **kwargs)

    monkeypatch.setattr(tr, "train", train)
    cfg = tr.TrainConfig(scheme="lora", rank=3, steps=1, learning_rate=0.1, d_model=12,
                         hidden=20, alpha=6.0)
    ex.run_observation2(4, n_tasks=3, cfg=cfg)
    assert len(widths) == 4 and set(widths) == {((12, 12), (20, 12))}
    assert alphas == [6.0] * 3  # one adapter per task; pretraining has none


def test_heterogeneity_rows_are_consistent():
    cfg = tr.TrainConfig(scheme="lora", rank=4, steps=40, learning_rate=0.05,
                         optimizer="adam", batch_size=16, eval_interval=40)
    rep = ex.run_heterogeneity(3, cfg, (1, 2))
    rows = rep["rows"]
    assert rep["seed"] == 3
    assert [r["level"] for r in rows] == [1, 2]
    for r in rows:
        assert r["gap"] == r["fft_metric"] - r["peft_metric"]
        assert r["fft_metric"] == -r["fft_loss"]
    assert rep["win"] is (rows[-1]["gap"] > rows[0]["gap"])
    with pytest.raises(UsageError):
        ex.run_heterogeneity(3, cfg, (2, 1))
