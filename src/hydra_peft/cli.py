"""Command-line surface for the whole pipeline.

Subcommands: cluster, train, eval, params, merge-infer, analyze, bench (which
runs one of the suites in experiments.SUITES).
Machine-readable results go to stdout; progress/diagnostics to stderr.

Exit codes: 0 success, 1 usage error (bad flags or config values), 2 runtime
failure (missing or unparseable files, aborted training, an array too large
to allocate or to size: an OSError, MemoryError, TrainingAborted or any other
ValueError), 3 violated numerical invariant.

All randomness flows from explicit --seed flags or the config seed; reruns
with identical inputs write byte-identical outputs. HYDRA_PEFT_THREADS caps
worker processes for `bench`.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
from pathlib import Path

import numpy as np

from . import adapters as ad_mod
from . import analysis
from . import clustering
from . import corpus as corpus_mod
from . import experiments
from . import trainer
from .autodiff import Tape
from .errors import InvariantError, ParseError, TrainingAborted, UsageError
from .linalg import SeededRng


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse exits 2 by default; flag problems are usage errors here
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _out(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def _note(msg: str) -> None:
    sys.stderr.write(msg + "\n")


def _check_out_file(path) -> None:
    if Path(path).is_dir() or not Path(path).parent.is_dir():
        raise NotADirectoryError(f"--out {path} must be a file in an existing directory")


def _check_out_dir(path) -> None:
    """--out is made later, but its nearest existing path must be a directory."""
    existing = next(p for p in (Path(path), *Path(path).parents) if p.exists())
    if not existing.is_dir():
        raise NotADirectoryError(f"--out {path}: {existing} is not a directory")


# -- subcommands -------------------------------------------------------------


def cmd_cluster(args) -> int:
    _check_out_file(args.out)
    clustering.check_selection(args.k_max, args.k)
    docs = corpus_mod.load_jsonl(args.corpus)
    init = clustering.init_hydra_from_corpus(docs, k_max=args.k_max, seed=args.seed,
                                             override=args.k)
    payload = {
        "k_selected": init.n_components,
        "sse_curve": None if init.curve is None else [[k, s] for k, s in enumerate(init.curve, 1)],
        "assignments": init.assignments,
    }
    Path(args.out).write_text(json.dumps(payload, sort_keys=True) + "\n",
                              encoding="utf-8")
    sys.stdout.write(f"k_selected: {init.n_components}\n")
    return 0


def _config(path) -> trainer.TrainConfig:
    try:
        return trainer.TrainConfig.from_json(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as e:
        raise UsageError(f"config {path} is not UTF-8 text") from e


def cmd_train(args) -> int:
    _check_out_dir(args.out)  # made only once there is a run to write
    cfg = _config(args.config)
    out_dir = Path(args.out)
    _note(f"training scheme={cfg.scheme} rank={cfg.rank} steps={cfg.steps} seed={cfg.seed}")
    model, data = trainer.build_from_config(cfg)
    report = trainer.train(model, data, cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    trainer.model_checkpoint(out_dir / "checkpoint.txt", model, cfg)
    (out_dir / "report.csv").write_text(report.to_csv(), encoding="utf-8")
    summary = {"config": json.loads(json.dumps(cfg.__dict__)), **report.summary()}
    (out_dir / "report.json").write_text(json.dumps(summary, sort_keys=True) + "\n",
                                         encoding="utf-8")
    _out(report.summary())
    return 0


def cmd_eval(args) -> int:
    cfg = _config(args.config)
    meta, _, tensors = ad_mod.read_checkpoint(args.checkpoint)
    model, data = trainer.build_from_config(cfg)
    trainer.restore_into_model(model, cfg, meta, tensors)
    loss, acc, gates = trainer.evaluate(model, data)
    _out({"loss": loss, "acc": acc,
          "gates": {k: list(map(float, v)) for k, v in gates.items()}})
    return 0


def cmd_params(args) -> int:
    count, pct = ad_mod.param_count(args.scheme, args.d, args.k, args.rank, args.experts,
                                    args.matrices_per_layer, args.layers,
                                    args.base_total)
    sys.stdout.write(f"{count} ({pct:.3f}%)\n")
    return 0


def _moe_and_merged(ad, x: np.ndarray, w0: np.ndarray):
    """The expert-sum rows of a one-projection tape, x W0^T plus the adapter's
    branch, and merge_infer's rows for input x, both finite."""
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        tape = Tape()
        xs = tape.input(x[None])
        base = tape.matmul(xs, tape.input(w0), transpose_b=True)
        branch, gate = ad.tape_branch(tape, xs, "proj", False)
        out = (tape.value(tape.add(base, branch)),
               ad_mod.merge_infer(x[None], w0, ad, tape.value(gate)))
    if not np.isfinite(out).all():
        raise InvariantError("merge-infer forward produced non-finite entries")
    return out


def cmd_merge_infer(args) -> int:
    if args.trials < 1:
        raise UsageError(f"--trials must be >= 1, got {args.trials}")
    meta, adapters, _ = ad_mod.read_checkpoint(args.checkpoint)
    if meta["scheme"] != "hydra" or not adapters:
        raise UsageError("merge-infer needs a multi-expert (hydra) checkpoint")
    given = None
    if args.input is not None:
        try:
            raw = corpus_mod.parse_json(Path(args.input).read_text(encoding="utf-8"))
            if not isinstance(raw, list) or any(type(v) not in (int, float) for v in raw):
                raise TypeError("every entry must be a JSON number")
            given = np.asarray(raw, dtype=np.float64)
        except (ValueError, TypeError, OverflowError) as e:
            raise ParseError(f"{args.input}: not a JSON list of numbers ({e})") from e
        if not np.isfinite(given).all():
            raise ParseError(f"{args.input}: input vector has non-finite entries")
    rng = SeededRng(args.seed).derive("merge-infer")
    worst = 0.0
    for proj, ad in sorted(adapters.items()):
        d, k = ad.experts[0].shape[0], ad.a_shared.shape[1]
        if given is not None and given.shape != (k,):
            raise UsageError(f"input vector must have length {k}")
        # the expert sum is the tape forward of one projection under a random
        # base weight; every x is drawn before the trials' base weights
        for x in [given] if given is not None else [rng.normal(k) for _ in range(args.trials)]:
            w0 = rng.normal(d * k).reshape(d, k) * (1.0 / np.sqrt(k))
            try:
                moe, merged = _moe_and_merged(ad, x, w0)
            except InvariantError as e:  # the input's fault if it runs clean scaled into [-1, 1]
                if given is None:
                    raise
                _moe_and_merged(ad, x / max(np.abs(x).max(), 1.0), w0)
                raise ParseError(f"{args.input}: input vector overflows the forward ({e})") from e
            worst = max(worst, float(np.abs(moe - merged).max()))
    sys.stdout.write(f"max |merge - moe|: {worst:.3e}\n")
    if worst > 1e-12:
        raise InvariantError(
            f"merged inference deviates from expert-sum inference by {worst:.3e}")
    return 0


def cmd_analyze(args) -> int:
    _check_out_dir(args.out)
    if len(args.checkpoints) < 2:
        raise UsageError(f"analyze needs >= 2 --checkpoints, got {len(args.checkpoints)}")
    labels = [Path(path).stem for path in args.checkpoints]
    if len(set(labels)) < len(labels):  # run/checkpoint.txt vs run_b/checkpoint.txt
        labels = [str(Path(path).with_suffix("")) for path in args.checkpoints]
    loaded = [(label, ad_mod.read_checkpoint(path)[2])  # every tensor, by name
              for label, path in zip(labels, args.checkpoints)]
    report = analysis.breakdown(loaded)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "distances.csv").write_text(report.distance_csv(), encoding="utf-8")
    (out_dir / "embedding.csv").write_text(report.embedding_csv(), encoding="utf-8")
    if args.svg:
        (out_dir / "embedding.svg").write_text(analysis.scatter_svg(report),
                                               encoding="utf-8")
    _out({"d_a": report.d_a, "d_b": report.d_b, "ratio": report.ratio,
          "degenerate": report.degenerate})
    return 0


def cmd_bench(args) -> int:
    if args.seeds < 1:
        raise UsageError(f"--seeds must be >= 1, got {args.seeds}")
    seeds = list(range(args.seeds))
    raw = os.environ.get("HYDRA_PEFT_THREADS", "1")
    if not raw.isdecimal() or int(raw) < 1:
        raise UsageError(f"HYDRA_PEFT_THREADS must be an integer >= 1, got {raw!r}")
    workers = int(raw)
    if args.out:
        _check_out_file(args.out)
    run = experiments.SUITES[args.suite]
    if workers > 1 and len(seeds) > 1:
        with multiprocessing.Pool(min(workers, len(seeds))) as pool:
            # one seed per task: map's default chunks of two give one of two
            # workers 6 of 10 seeds
            rows = pool.map(run, seeds, chunksize=1)
    else:
        rows = [run(s) for s in seeds]
    wins = sum(r["win"] for r in rows)
    payload = {"suite": args.suite, "seeds": seeds, "wins": wins, "rows": rows}
    if args.out:
        Path(args.out).write_text(json.dumps(payload, sort_keys=True) + "\n",
                                  encoding="utf-8")
    _out({"suite": args.suite, "wins": wins, "n": len(seeds)})
    for r in rows:
        _note(json.dumps(r, sort_keys=True))
    return 0


# -- wiring ------------------------------------------------------------------


def build_parser() -> _Parser:
    p = _Parser(prog="hydra-peft", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("cluster", help="pick the expert count for a corpus")
    c.add_argument("--corpus", required=True)
    c.add_argument("--k-max", type=int, default=8)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--k", type=int, default=None, help="override the selected count")
    c.add_argument("--out", required=True)
    c.set_defaults(func=cmd_cluster)

    t = sub.add_parser("train", help="train from a JSON config")
    t.add_argument("--config", required=True)
    t.add_argument("--out", required=True)
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint against its config")
    e.add_argument("--config", required=True)
    e.add_argument("--checkpoint", required=True)
    e.set_defaults(func=cmd_eval)

    pa = sub.add_parser("params", help="trainable-parameter accounting")
    pa.add_argument("--scheme", required=True, choices=ad_mod.SCHEMES)
    pa.add_argument("--rank", type=int, required=True)
    pa.add_argument("--experts", type=int, default=1, help="expert count (hydra)")
    pa.add_argument("--d", type=int, required=True)
    pa.add_argument("--k", type=int, required=True)
    pa.add_argument("--layers", type=int, required=True)
    pa.add_argument("--matrices-per-layer", type=int, required=True)
    pa.add_argument("--base-total", type=int, required=True)
    pa.set_defaults(func=cmd_params)

    m = sub.add_parser("merge-infer", help="check merged vs expert-sum inference")
    m.add_argument("--checkpoint", required=True)
    m.add_argument("--input", default=None, help="JSON file with one input vector")
    m.add_argument("--trials", type=int, default=16)
    m.add_argument("--seed", type=int, default=0)
    m.set_defaults(func=cmd_merge_infer)

    a = sub.add_parser("analyze", help="distance/embedding breakdown of checkpoints")
    a.add_argument("--checkpoints", nargs="+", required=True)
    a.add_argument("--out", required=True)
    a.add_argument("--svg", action="store_true")
    a.set_defaults(func=cmd_analyze)

    b = sub.add_parser("bench", help="run a statistical suite over seeds")
    b.add_argument("--suite", required=True, choices=tuple(experiments.SUITES))
    b.add_argument("--seeds", type=int, default=10)
    b.add_argument("--out", default=None)
    b.set_defaults(func=cmd_bench)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as e:
        _note(f"usage error: {e}")
        return 1
    except InvariantError as e:
        _note(f"invariant violation: {e}")
        return 3
    except (OSError, ValueError, TrainingAborted, MemoryError) as e:
        _note(f"error: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
