"""Command-line harness: runs, baselines, parameter sweeps, reports.

Each training flag sets one ``engine.TrainConfig`` field (``CONFIG_FLAGS``),
and the field owns the flag's default, type and valid range: a value the
config rejects exits 2 with the field's name, before any data is loaded.
A sweep value is cast by its field's type the same way.

Evaluation protocol: one stratified 80/20 split per seed.  Training
rewards come from a nested 80/20 split of the training fold, so the outer
test fold stays untouched until the final report.  Baselines share the
final forest settings and seed.

A run is a sweep of one arm.  The three reference baselines depend only
on the outer split and the seed, so they are fitted once and each arm fits
only its selected subset.  ``MCFS_THREADS`` > 1 queues the arms, then one
task per reference subset, on that many worker processes (at most one per
task); the command's process builds every report.  The inner split is made
once per command, and its training fold keeps the reward and utility tables
(``engine._Trainer``): arms in this process share them, and each arm in a
worker gets its own copy.  A reward does not depend on who computes it, so
the reports equal the sequential ones either way.
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
# the outer training fold, round(TRAIN_RATIO * n) rows, is split again and
# so needs two rows; fewer than 3 rows leave it one
MIN_ROWS = 3

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
    "--utility": "utility_mode",
    "--weights": "weights",
}
_FIELD_TYPES = get_type_hints(engine.TrainConfig)

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


def _check_out(parser, out_dir, files):
    """Exit 2 unless directory ``out_dir`` and its ``files`` can be written.

    Checked before the data loads, so that a run is not thrown away at the
    end: the nearest existing path on the way to ``out_dir`` must be a
    directory, and none of the files may exist as one.
    """
    try:
        known = next(p for p in (out_dir, *out_dir.parents) if p.exists())
        if not known.is_dir():
            parser.error(f"{str(known)!r} exists and is not a directory")
        for name in files:
            if (out_dir / name).is_dir():
                parser.error(f"{str(out_dir / name)!r} is a directory")
    except OSError as exc:  # such as a path component that is too long
        parser.error(f"cannot write to {str(out_dir)!r}: {exc.strerror}")


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
        if name in engine.MODES:
            kind = {"choices": engine.MODES[name], "default": default}
        elif name == "weights":
            kind = {"type": _weights_spec, "metavar": "WACC,WRV,WRD",
                    "default": default}
        else:
            kind = {"type": _FIELD_TYPES[name], "default": default}
        common.add_argument(flag, dest=name, **kind)
    common.add_argument("--out", type=Path, default="mcfs_out",
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
    if ds.n_samples < MIN_ROWS:
        raise data.DataError(
            f"{meta['source']} has {ds.n_samples} rows; a run needs at "
            f"least {MIN_ROWS}, because its training fold is split again"
        )
    meta.update(
        n_samples=ds.n_samples,
        n_features=ds.n_features,
        n_classes=ds.n_classes,
        train_ratio=TRAIN_RATIO,
    )
    return ds, meta


def _baseline_entry(split, subset, seed) -> dict:
    """Held-out metrics of a final-size forest fitted on one subset."""
    cols = sorted(int(c) for c in subset)
    if cols:
        model = forest.train_forest(split.train, cols, n_trees=FINAL_TREES,
                                    seed=seed)
        metrics = forest.evaluate(model, split.test)
    else:
        # no features to train on: score a constant majority-class guess
        majority = int(np.bincount(split.train.labels).argmax())
        metrics = forest.metrics_from_confusion(forest.confusion_matrix(
            split.test.labels, majority, split.train.n_classes
        ))
    return {
        "subset": reports.subset_payload(cols, split.train.feature_names),
        "metrics": metrics.as_dict(),
    }


def reference_subsets(train, seed) -> dict:
    """The three reference subsets, by baseline name.

    all_features, the top half of features by label information, and a
    random subset of the same size drawn deterministically from the seed.
    They depend only on the training fold and the seed, not on what a run
    selects.
    """
    d = train.n_features
    k = max(1, d // 2)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 104729]))
    return {
        "all_features": list(range(d)),
        "kbest": info.kbest_select(train, k),
        "random": rng.choice(d, size=k, replace=False),
    }


def compare_baselines(split, subsets, seed, pool=None) -> dict:
    """Held-out metrics of each subset by name; one ``pool`` task each."""
    entry = functools.partial(_baseline_entry, split, seed=seed)
    if pool is None:
        return {name: entry(cols) for name, cols in subsets.items()}
    jobs = {name: pool.submit(entry, cols) for name, cols in subsets.items()}
    return {name: job.result() for name, job in jobs.items()}


def _execute_run(outer, inner, config):
    """One arm: train on ``inner``, the split of ``outer``'s training
    fold, then fit the selected subset on ``outer``; returns the run's
    ``engine.RunReport`` and that ``selected`` baseline entry."""
    run = engine.train(inner, config)
    return run, _baseline_entry(outer, run.best_subset, config.seed)


def _run_arms(ds, meta, configs, workers) -> list:
    """Each config's report payload; the configs share one seed, so one
    outer split, one inner split with its reward and utility tables, and
    one set of reference baselines; each is built here, not in a worker."""
    seed = configs[0].seed
    outer = data.split_dataset(ds, TRAIN_RATIO, seed=seed)
    subsets = reference_subsets(outer.train, seed)
    # only ``arm`` holds the inner split, so dropping it frees the tables
    inner = data.split_dataset(outer.train, TRAIN_RATIO, seed=seed)
    arm = functools.partial(_execute_run, outer, inner)
    del inner
    # a fork-started pool starts every worker at once: one per task at most
    workers = min(workers, len(configs) + len(subsets))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(workers) as pool:
            # the arms go first, so the longest one does not start last
            jobs = [pool.submit(arm, c) for c in configs]
            refs = compare_baselines(outer, subsets, seed, pool)
            arms = [job.result() for job in jobs]
    else:
        arms = [arm(c) for c in configs]
        del arm  # before the reference fits, which set the memory peak
        refs = compare_baselines(outer, subsets, seed)
    return [reports.report_to_dict(run, outer.train.feature_names, meta,
                                   {**refs, "selected": entry})
            for run, entry in arms]


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
    workers = _workers(parser)
    config = _config_from_args(args, parser)
    _check_out(parser, args.out, reports.REPORT_FILES)
    ds, meta = _load_dataset(args)
    [payload] = _run_arms(ds, meta, [config], workers)
    json_path, csv_path = reports.write_report_files(payload, args.out)
    _print_summary(payload)
    print(f"report: {json_path}")
    print(f"curves: {csv_path}")
    return 0


def _workers(parser) -> int:
    """Worker processes from MCFS_THREADS; values below 1 mean one."""
    raw = os.environ.get("MCFS_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        parser.error(f"MCFS_THREADS must be an integer, got {raw!r}")


def cmd_sweep(args, parser) -> int:
    workers = _workers(parser)
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
    arm_dirs = [args.out / f"{args.param}={raw}" for raw in raw_values]
    _check_out(parser, args.out, ["summary.csv"])
    for arm_dir in arm_dirs:
        _check_out(parser, arm_dir, reports.REPORT_FILES)

    ds, meta = _load_dataset(args)
    payloads = _run_arms(ds, meta, configs, workers)

    rows = []
    for raw, arm_dir, payload in zip(raw_values, arm_dirs, payloads):
        reports.write_report_files(payload, arm_dir)
        row = reports.summary_row(args.param, raw, payload)
        rows.append(row)
        print(f"{args.param}={raw}: best_eval={row['best_eval']:.4f} "
              f"test_acc={row['test_accuracy']:.4f}")

    args.out.mkdir(parents=True, exist_ok=True)
    summary = args.out / "summary.csv"
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
