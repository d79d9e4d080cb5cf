"""The three statistical experiment harnesses that `bench` runs.

They replicate, at desk scale, three findings that `bench` counts as
seed-majority statistics. Each runs one seed under the protocol config that
sits beside it (OBS1, OBS2, HET), builds every arm from that one config, and
returns that seed's row, with its own "win" flag; each run_* docstring says
what its arms are and when they win.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import toy_model as tm
from . import trainer  # train, pretrain_base by attribute: spies and profiling hooks wrap them
from .analysis import group_divergence
from .errors import UsageError
from .linalg import SeededRng
from .trainer import Dataset, TrainConfig, component_data, interference_data, xor_component_data

_HARNESS_CLASSES = 4    # label count of every harness fixture


def _check_harness_cfg(cfg: TrainConfig) -> None:
    """cfg must be valid and name lora, the adapter every harness attaches."""
    cfg.validate()
    if cfg.scheme != "lora":
        raise UsageError(f"the harnesses train lora adapters; cfg.scheme must be 'lora', "
                         f"got {cfg.scheme!r}")


def _restrict_to_task(data: Dataset, task: int) -> Dataset:
    tr = data.train_tasks == task
    ev = data.eval_tasks == task
    return Dataset(train_inputs=data.train_inputs[tr], train_labels=data.train_labels[tr],
                   eval_inputs=data.eval_inputs[ev], eval_labels=data.eval_labels[ev])


def _pretrained_base(cfg: TrainConfig, data: Dataset, seed: int, base_seed: int) -> tm.ToyModel:
    """A dense model of cfg's widths for data, initialized from base_seed and
    pretrained for cfg.pretrain_steps on data under seed."""
    base = tm.dense_model(data.train_inputs.shape[1], cfg.d_model, _HARNESS_CLASSES,
                          seed=base_seed, hidden=cfg.hidden)
    trainer.pretrain_base(base, data, steps=cfg.pretrain_steps, lr=cfg.pretrain_lr, seed=seed)
    return base


def _lora_run(base: tm.ToyModel, data: Dataset, cfg: TrainConfig, attach_seed: int):
    """Attach a v_proj lora of cfg's rank and alpha, initialized from
    attach_seed, to a clone of base and train it on data under cfg; returns
    the adapter and train's report."""
    model = tm.clone_model(base)
    tm.attach(model, "v_proj", "lora", cfg.rank, seed=attach_seed, alpha=cfg.alpha)
    return model.adapters["v_proj"], trainer.train(model, data, cfg)


OBS1 = TrainConfig(scheme="lora", rank=8, steps=240, learning_rate=0.2, batch_size=16,
                   pretrain_steps=60, pretrain_lr=0.1)


def run_observation1(seed: int, n_tasks: int = 2, cfg: TrainConfig = OBS1,
                     identical_tasks: bool = False) -> dict:
    """One adapter under cfg trained on the pooled tasks vs one lora per
    task, trained and evaluated on that task alone, on the n_tasks-task
    conflict fixture. Each head is cfg with rank, steps and alpha divided by
    n_tasks, so both arms share the base, the update scale, every other
    setting, the trainable-parameter count and the step total. The heads
    win when their mean eval loss, weighted by eval rows, is the lower."""
    _check_harness_cfg(cfg)
    if n_tasks < 2:
        raise UsageError(f"need >= 2 tasks, got {n_tasks}")
    if cfg.rank % n_tasks or cfg.steps % n_tasks:
        raise UsageError(f"cfg.rank ({cfg.rank}) and cfg.steps ({cfg.steps}) must "
                         f"split evenly among {n_tasks} tasks")
    data = interference_data(seed, n_tasks=n_tasks, classes=_HARNESS_CLASSES,
                             identical_tasks=identical_tasks)
    base = _pretrained_base(cfg, data, seed, SeededRng(seed).derive("base").seed)
    _, single = _lora_run(base, data, replace(cfg, seed=seed, train_head=False),
                          SeededRng(seed).derive("attach-single").seed)

    head_cfg = replace(cfg, rank=cfg.rank // n_tasks, steps=cfg.steps // n_tasks,
                       alpha=None if cfg.alpha is None else cfg.alpha / n_tasks,
                       train_head=False)
    losses, weights = [], []
    for t in range(n_tasks):
        task_data = _restrict_to_task(data, t)
        run_cfg = replace(head_cfg, seed=SeededRng(seed).derive("split-run", t).seed)
        _, rep = _lora_run(base, task_data, run_cfg,
                           SeededRng(seed).derive("attach-split", t).seed)
        losses.append(rep.final_loss)
        weights.append(len(task_data.eval_inputs))
    loss_split = float(np.average(losses, weights=weights))
    return {"seed": seed, "loss_single": single.final_loss, "loss_split": loss_split,
            "win": bool(loss_split < single.final_loss)}


OBS2 = TrainConfig(scheme="lora", rank=4, steps=250, learning_rate=0.15, batch_size=16)


def run_observation2(seed: int, n_tasks: int = 3, cfg: TrainConfig = OBS2,
                     identical_tasks: bool = False) -> dict:
    """Train one plain adapter per task from a shared base and a shared A
    init; report how much further apart the B matrices end up than the A
    matrices (distances scale-normalized per group). B wins when it drifted
    further: ratio = D_B / D_A > 1.

    identical_tasks=True is the control: every "task" trains on task 0's
    data (only batch order differs), so both divergences should be small.
    """
    _check_harness_cfg(cfg)
    if n_tasks < 2:
        raise UsageError(f"need >= 2 tasks, got {n_tasks}")
    data = component_data(seed, level=n_tasks, max_levels=n_tasks,
                          block=6, shared=4, classes=_HARNESS_CLASSES)
    base = _pretrained_base(cfg, data, seed, SeededRng(seed).derive("base").seed)
    heads = []
    for t in range(n_tasks):
        task_data = _restrict_to_task(data, 0 if identical_tasks else t)
        run_cfg = replace(cfg, seed=SeededRng(seed).derive("run", t).seed, train_head=False)
        # one shared init seed: every task's A starts identical
        heads.append(_lora_run(base, task_data, run_cfg,
                               SeededRng(seed).derive("attach-shared").seed)[0])
    d_a = group_divergence([head.a for head in heads])
    d_b = group_divergence([head.b for head in heads])
    ratio = d_b / max(d_a, 1e-12)
    return {"seed": seed, "d_a": d_a, "d_b": d_b, "ratio": ratio, "win": bool(ratio > 1.0)}


# het rows read each arm's final eval only; train also records step 0, so it
# evaluates each arm twice. Both arms start from the untrained base
HET = TrainConfig(scheme="lora", rank=6, steps=800, learning_rate=0.01, optimizer="adam",
                  batch_size=24, eval_interval=800, pretrain_steps=0)


def run_heterogeneity(seed: int, cfg: TrainConfig = HET,
                      levels: tuple[int, ...] = (1, 2, 4)) -> dict:
    """FFT vs rank-limited adapter per mixing level, both arms from cfg and
    from one base, pretrained for cfg.pretrain_steps on that level's data.

    Each row carries metric = -eval loss for both arms (higher is better)
    and gap = fft_metric - peft_metric; accuracies ride along. Full fine-
    tuning wins when its gap at the most mixed level exceeds the gap at the
    least mixed one.
    """
    _check_harness_cfg(cfg)
    if sorted(levels) != list(levels):
        raise UsageError("levels must be ordered ascending")
    rows = []
    base_seed = SeededRng(seed).derive("het-base").seed
    for level in levels:
        data = xor_component_data(seed, level=level, max_levels=max(levels))
        fft = _pretrained_base(cfg, data, seed, base_seed)
        base = tm.clone_model(fft)  # the lora arm's base, before the full arm trains fft
        fft_cfg = replace(cfg, scheme="full", seed=SeededRng(seed).derive("fft", level).seed)
        fft_rep = trainer.train(fft, data, fft_cfg)
        peft_cfg = replace(cfg, seed=SeededRng(seed).derive("peft", level).seed)
        _, peft_rep = _lora_run(base, data, peft_cfg, SeededRng(seed).derive("attach", level).seed)

        fft_metric = -fft_rep.final_loss
        peft_metric = -peft_rep.final_loss
        rows.append({
            "level": level,
            "fft_metric": fft_metric, "peft_metric": peft_metric,
            "gap": fft_metric - peft_metric,
            "fft_loss": fft_rep.final_loss, "peft_loss": peft_rep.final_loss,
            "fft_acc": fft_rep.final_acc, "peft_acc": peft_rep.final_acc,
        })
    return {"seed": seed, "rows": rows, "win": bool(rows[-1]["gap"] > rows[0]["gap"])}


# one seed's row, with its "win" flag, per suite
SUITES = {"obs1": run_observation1, "obs2": run_observation2, "het": run_heterogeneity}
