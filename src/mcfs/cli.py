"""Command-line harness: runs, baselines, parameter sweeps, reports.

Each training flag sets one ``engine.TrainConfig`` field (``CONFIG_FLAGS``),
and the field owns the flag's default, type and valid range: a value the
config rejects exits 2 with the field's name, before any data is loaded.
A sweep value is cast by its field's type the same way.

Evaluation protocol: one stratified 80/20 split per seed.  Training
rewards come from a nested 80/20 split of the training fold, so the outer
test fold stays untouched until the final report.  Baselines share the
final forest settings and seed.

A sweep runs one arm per parameter value.  The three reference baselines
depend only on the outer split and the seed, which no sweep parameter
changes, so a sweep fits them once and each arm fits only its selected
subset.  ``MCFS_THREADS`` > 1 runs the arms, and the references beside
them, in that many worker processes, never more than there are arms.
Arms share no state, so the reports equal the sequential ones.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import functools
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import data, engine, forest, info, reports
from .rewards import RewardWeights

TRAIN_RATIO = 0.8
FINAL_TREES = 100

# each config flag and the TrainConfig field it sets; the field's default,
# type hint and range check are the flag's
CONFIG_FLAGS = {
    "--episodes": "episodes",
    "--gamma": "gamma",
    "--epsilon": "epsilon",
    "--stop-threshold": "stop_threshold",
    "--shaping-coeff": "shaping_coeff",
    "--advise-steps": "advise_steps",
    "--seed": "seed",
    "--return-mode": "return_mode",
    "--behavior": "behavior_mode",
    "--state-repr": "state_mode",
    "--utility": "utility_mode",
    "--weights": "weights",
}
_FIELD_TYPES = get_type_hints(engine.TrainConfig)

_STATE_FLAGS = {"meta": "meta", "ae": "autoencoder"}

SWEEP_PARAMS = {
    "stop-threshold": "stop_threshold",
    "behavior": "behavior_mode",
    "advise-steps": "advise_steps",
    "utility-mode": "utility_mode",
}


def _weights_spec(text):
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            "weights must be three comma-separated numbers: WACC,WRV,WRD"
        )
    try:
        w_acc, w_rv, w_rd = (float(p) for p in parts)
        return RewardWeights(w_acc=w_acc, w_rv=w_rv, w_rd=w_rd)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _synth_spec(text):
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            "synthetic spec must be three comma-separated integers: N,D,K"
        )
    try:
        n, d, k = (int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"non-integer in {text!r}")
    if n < 10 or d < 1 or not 1 <= k <= d:
        raise argparse.ArgumentTypeError(
            "need N >= 10, D >= 1, and 1 <= K <= D"
        )
    return n, d, k


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    src = common.add_mutually_exclusive_group(required=True)
    src.add_argument("--data", type=Path, help="CSV dataset path")
    src.add_argument("--synthetic", type=_synth_spec, metavar="N,D,K",
                     help="generate N samples, D features, K informative")
    common.add_argument("--label-col", default="label",
                        help="label column name for --data")
    defaults = engine.TrainConfig()
    for flag, name in CONFIG_FLAGS.items():
        default = getattr(defaults, name)
        if name == "state_mode":
            spelling = {mode: key for key, mode in _STATE_FLAGS.items()}
            kind = {"choices": sorted(_STATE_FLAGS),
                    "default": spelling[default]}
        elif name in engine.MODES:
            kind = {"choices": engine.MODES[name], "default": default}
        elif name == "weights":
            kind = {"type": _weights_spec, "metavar": "WACC,WRV,WRD",
                    "default": default}
        else:
            kind = {"type": _FIELD_TYPES[name], "default": default}
        common.add_argument(flag, dest=name, **kind)
    common.add_argument("--out", type=Path, default=Path("mcfs_out"),
                        help="directory for report files")

    parser = argparse.ArgumentParser(
        prog="mcfs",
        description="Monte Carlo reinforced feature selection",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", parents=[common],
                           help="train once and report")
    run_p.set_defaults(func=functools.partial(cmd_run, parser=run_p))
    sweep_p = sub.add_parser("sweep", parents=[common],
                             help="run once per parameter value")
    sweep_p.add_argument("--param", choices=sorted(SWEEP_PARAMS),
                         required=True)
    sweep_p.add_argument("--values", required=True,
                         help="comma-separated parameter values")
    sweep_p.set_defaults(func=functools.partial(cmd_sweep, parser=sweep_p))
    return parser


def _config_from_args(args, parser) -> engine.TrainConfig:
    values = {name: getattr(args, name) for name in CONFIG_FLAGS.values()}
    values["state_mode"] = _STATE_FLAGS[values["state_mode"]]
    try:
        return engine.TrainConfig(**values)
    except ValueError as exc:
        parser.error(str(exc))


def _load_dataset(args):
    if args.data is not None:
        ds = data.load_csv(args.data, args.label_col)
        meta = {"source": str(args.data)}
    else:
        n, d, k = args.synthetic
        ds, informative = data.synth_classification(n, d, k, seed=args.seed)
        meta = {
            "source": f"synthetic({n},{d},{k})",
            "informative": sorted(informative),
        }
    meta.update(
        n_samples=ds.n_samples,
        n_features=ds.n_features,
        n_classes=ds.n_classes,
        train_ratio=TRAIN_RATIO,
    )
    return ds, meta


def _baseline_entry(split, subset, seed, n_trees=FINAL_TREES) -> dict:
    """Held-out metrics of a final-size forest fitted on one subset."""
    cols = sorted(int(c) for c in subset)
    if cols:
        model = forest.train_forest(split.train, cols, n_trees=n_trees,
                                    seed=seed)
        metrics = forest.evaluate(model, split.test)
    else:
        # no features to train on: score a constant majority-class guess
        majority = int(np.bincount(split.train.labels).argmax())
        k = split.train.n_classes
        cm = np.zeros((k, k), dtype=np.int64)
        np.add.at(cm, (split.test.labels, majority), 1)
        metrics = forest.metrics_from_confusion(cm)
    return {
        "subset": reports.subset_payload(cols, split.train.feature_names),
        "metrics": metrics.as_dict(),
    }


def reference_baselines(split, seed, n_trees=FINAL_TREES) -> dict:
    """Held-out metrics for the three reference subsets.

    all_features, the top half of features by label information, and a
    random subset of the same size drawn deterministically from the seed.
    They depend only on the split and the seed, not on what a run selects.
    """
    d = split.train.n_features
    k = max(1, d // 2)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 104729]))
    entries = {
        "all_features": list(range(d)),
        "kbest": info.kbest_select(split.train, k),
        "random": rng.choice(d, size=k, replace=False),
    }
    return {
        name: _baseline_entry(split, cols, seed, n_trees)
        for name, cols in entries.items()
    }


def compare_baselines(split, selected, seed, n_trees=FINAL_TREES) -> dict:
    """Held-out metrics for the selected subset and the reference subsets."""
    return {
        **reference_baselines(split, seed, n_trees),
        "selected": _baseline_entry(split, selected, seed, n_trees),
    }


def _execute_run(ds, meta, config, references=True):
    """Train on the nested split and attach held-out baselines.

    With ``references`` False the baselines hold only the ``selected``
    entry: a sweep fits the reference subsets once for all of its arms.
    """
    outer = data.split_dataset(ds, TRAIN_RATIO, seed=config.seed)
    inner = data.split_dataset(outer.train, TRAIN_RATIO, seed=config.seed)
    run = engine.train(inner, config)
    if references:
        baselines = compare_baselines(outer, run.best_subset, config.seed)
    else:
        baselines = {
            "selected": _baseline_entry(outer, run.best_subset, config.seed)
        }
    return reports.report_to_dict(run, ds.feature_names, meta, baselines)


def _sweep_references(ds, seed):
    """A sweep's reference baselines, fitted on the outer split of ``ds``."""
    outer = data.split_dataset(ds, TRAIN_RATIO, seed=seed)
    return reference_baselines(outer, seed)


def _print_summary(payload):
    best = payload["best_subset"]
    print(f"selected features ({len(best['indices'])}): "
          + (", ".join(best["names"]) if best["names"] else "(none)"))
    print(f"best training eval: {payload['best_eval']:.4f}")
    parts = [
        f"{name} {entry['metrics']['accuracy']:.4f}"
        for name, entry in sorted(payload["baselines"].items())
    ]
    print("held-out accuracy: " + " | ".join(parts))


def cmd_run(args, parser) -> int:
    config = _config_from_args(args, parser)
    ds, meta = _load_dataset(args)
    payload = _execute_run(ds, meta, config)
    json_path, csv_path = reports.write_report_files(payload, args.out)
    _print_summary(payload)
    print(f"report: {json_path}")
    print(f"curves: {csv_path}")
    return 0


def _sweep_workers(parser) -> int:
    """Worker processes from MCFS_THREADS; values below 1 mean one."""
    raw = os.environ.get("MCFS_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        parser.error(f"MCFS_THREADS must be an integer, got {raw!r}")


def cmd_sweep(args, parser) -> int:
    workers = _sweep_workers(parser)
    base = _config_from_args(args, parser)
    name = SWEEP_PARAMS[args.param]
    raw_values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not raw_values:
        parser.error("--values must list at least one value")
    configs = []
    for raw in raw_values:
        try:
            config = replace(base, **{name: _FIELD_TYPES[name](raw)})
        except ValueError as exc:
            parser.error(f"bad value {raw!r} for --param {args.param}: {exc}")
        if config in configs:
            first = raw_values[configs.index(config)]
            parser.error(f"--values {first!r} and {raw!r} give the same arm")
        configs.append(config)

    ds, meta = _load_dataset(args)
    arm = functools.partial(_execute_run, ds, meta, references=False)
    references = functools.partial(_sweep_references, ds, base.seed)
    # a fork-started pool starts every worker at once: one per arm at most
    workers = min(workers, len(configs))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(workers) as pool:
            ref_job = pool.submit(references)
            payloads = list(pool.map(arm, configs))
            refs = ref_job.result()
    else:
        refs = references()
        payloads = [arm(c) for c in configs]
    for payload in payloads:
        payload["baselines"] = {**refs, **payload["baselines"]}

    out = Path(args.out)
    rows = []
    for raw, payload in zip(raw_values, payloads):
        sub_dir = out / f"{args.param}={raw}"
        reports.write_report_files(payload, sub_dir)
        lengths = [c["length"] for c in payload["curves"]]
        rows.append({
            "param": args.param,
            "value": raw,
            "best_eval": payload["best_eval"],
            "test_accuracy": payload["test_metrics"]["accuracy"],
            "episodes_completed": payload["episodes_completed"],
            "total_steps": payload["total_steps"],
            "mean_length": float(np.mean(lengths)) if lengths else 0.0,
        })
        print(f"{args.param}={raw}: best_eval={payload['best_eval']:.4f} "
              f"test_acc={payload['test_metrics']['accuracy']:.4f}")

    out.mkdir(parents=True, exist_ok=True)
    summary = out / "summary.csv"
    with open(summary, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"summary: {summary}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (data.DataError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
