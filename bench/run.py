"""mcfs benchmark: end-to-end run metrics and a traced per-layer breakdown.

Run from the repository root:

    python3 bench/run.py --workload synth-random --seed 0 --seconds 38 --trace 0
    python3 bench/run.py --workload all

Every workload is a ``python3 -m mcfs.cli`` command built from ``src``.
With ``--trace 0`` the run times untraced commands and prints the
end-to-end metrics; with ``--trace 1`` it runs the command once untraced
and once with a probe on every layer (see ``tracer.py``), and prints the
per-layer metrics, the traffic profile and the tracing overhead.  Every
command's outputs are checked.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent

# Set-up is short and noisy, so it is sampled several times per run, after
# the commands: the first seconds after the machine was idle run slower.
SETUP_REPEATS = 5
# Cost depends on the seed far more than on noise, so a run times
# several seeds: the run seed, then sub-seeds far from any seed a caller
# passes in, so that two runs never share an input.  Quality metrics read
# the first MIN_COMMANDS seeds, which every run has.
MIN_COMMANDS = 3
SUB_SEED_STRIDE = 1_000_003
CHILD_TIMEOUT_S = 90.0

BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: tuple  # mcfs subcommand and flags, without --seed and --out
    threads: int = 1  # MCFS_THREADS, the sweep worker count

    def flag(self, name):
        args = list(self.command)
        return args[args.index(name) + 1] if name in args else None

    @property
    def sweep_values(self):
        values = self.flag("--values")
        return None if values is None else values.split(",")


# Random, never-stopped episodes give every seed about the same traffic.
# The greedy baseline command does not: at its 3000-step budget its
# training time ranged from 12 to 23 s across seeds, more than a run of
# this benchmark can average out.  Random runs stay short because their
# importance weights are unbounded: after 40 episodes the target policy
# can reach probability 0 and the run stops with "running weight must be
# positive".  --episodes 1000 lets each sweep arm's 3000-step budget end
# it, so every seed does the same number of steps.
WORKLOADS = {
    w.name: w for w in (
        Workload(
            "synth-random",
            "the baseline shape: 10-tree fits on 320 rows take most of the "
            "time, and more than half of the reward lookups hit the cache",
            ("run", "--synthetic", "500,20,5", "--episodes", "10",
             "--behavior", "random", "--stop-threshold", "0"),
        ),
        Workload(
            "wide-random",
            "4x rows per fit and about 30 columns per subset: every selecting "
            "step fits a new forest, and 100-tree baseline fits on 1600 rows "
            "set the memory peak",
            ("run", "--synthetic", "2000,60,10", "--episodes", "2",
             "--behavior", "random", "--stop-threshold", "0"),
        ),
        Workload(
            "info-sweep",
            "greedy four-arm sweep on two workers with w_acc=0: training "
            "fits no forest, so state, Q-net, learner, MI and traversal "
            "costs show",
            ("sweep", "--synthetic", "500,20,5", "--weights", "0,1,1",
             "--param", "stop-threshold", "--values", "0.0,0.3,0.5,0.7",
             "--episodes", "1000"),
            threads=2,
        ),
    )
}

# metric name -> unit; error_rate and informative_recall are printed but
# not part of the result line, because they can read exactly 0
END_TO_END = {
    "run_wall_s": "s",
    "setup_s": "s",
    "train_s": "s",
    "steps_per_s": "1/s",
    "peak_rss_mb": "MB",
    "test_accuracy": "ratio",
    "informative_recall": "ratio",
    "error_rate": "ratio",
}
RESULT_END_TO_END = (
    "run_wall_s", "setup_s", "train_s", "steps_per_s", "peak_rss_mb",
    "test_accuracy",
)

PER_LAYER = {
    "forest.fit_calls": "count",
    "forest.trees_fit": "count",
    "forest.fit_s": "s",
    "forest.fit10_ms_p50": "ms",
    "forest.fit100_ms_p50": "ms",
    "forest.predict_calls": "count",
    "forest.predict_s": "s",
    "rewards.lookups": "count",
    "rewards.eval_calls": "count",
    "rewards.cache_hit_ratio": "ratio",
    "rewards.eval_self_s": "s",
    "rewards.utility_calls": "count",
    "rewards.utility_s": "s",
    "info.pair_requests": "count",
    "info.pair_computed": "count",
    "info.pairwise_mi_s": "s",
    "info.label_mi_s": "s",
    "state.meta_stats_calls": "count",
    "state.meta_stats_s": "s",
    "qlearner.q_calls": "count",
    "qlearner.q_s": "s",
    "qlearner.train_step_calls": "count",
    "qlearner.train_step_s": "s",
    "qlearner.replay_s": "s",
    "nn.forward_calls": "count",
    "nn.adam_s": "s",
    "engine.episodes": "count",
    "engine.steps": "count",
    "engine.stopped_share": "ratio",
    "engine.traverse_self_s": "s",
    "engine.update_s": "s",
    "engine.final_selection_s": "s",
    "engine.train_s": "s",
    "engine.train_unaccounted_s": "s",
    "cli.baselines_s": "s",
    "cli.arm_wall_s": "s",
    "cli.sweep_overlap": "ratio",
    "reports.write_s": "s",
    "data.synth_s": "s",
    "data.split_s": "s",
    "trace.run_wall_s": "s",
    "trace.overhead_s": "s",
}

# direct children of engine.train that make up the learner update
UPDATE_SPANS = (
    "engine.recalc_weights", "engine.compute_returns",
    "qlearner.replay_push", "qlearner.replay_sample", "qlearner.train_step",
)


class CheckError(Exception):
    """A command's outputs are missing, malformed or inconsistent."""


@dataclass
class Proc:
    code: int
    wall_s: float
    rss_mb: float
    log: Path


def child_env(workload: Workload, work: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update({name: "1" for name in BLAS_THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(work)
    env["MCFS_THREADS"] = str(workload.threads)
    return env


def spawn(cmd, env, log: Path) -> Proc:
    """Run one child to completion; wall time and peak RSS are its own."""
    with open(log, "w") as fh:
        t0 = time.perf_counter()
        p = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=fh,
                             stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, p.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(p.pid, 0)
        except BaseException:
            p.kill()
            p.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return Proc(p.returncode, wall, usage.ru_maxrss / 1024.0, log)


def sub_seed(seed: int, index: int) -> int:
    return seed + SUB_SEED_STRIDE * index


def stable_view(payload: dict) -> str:
    """The report without its wall-time fields, as canonical JSON."""
    view = dict(payload)
    del view["total_wall_ms"]
    view["curves"] = [
        {k: v for k, v in c.items() if k != "wall_ms"}
        for c in payload["curves"]
    ]
    return json.dumps(view, sort_keys=True)


def check_outputs(workload: Workload, seed: int, out: Path) -> list:
    """Load and cross-check every report of one command; return them."""
    from jsonschema import ValidationError

    from mcfs import reports

    values = workload.sweep_values
    dirs = ([out] if values is None else
            [out / f"{workload.flag('--param')}={v}" for v in values])
    payloads = []
    for d in dirs:
        try:
            payload = reports.load_report(d / "report.json")
        except (OSError, ValueError, ValidationError) as exc:
            raise CheckError(f"{d / 'report.json'}: {exc}") from exc
        curves = payload["curves"]
        if payload["seed"] != seed or payload["config"]["seed"] != seed:
            raise CheckError(f"{d}: report seed is not {seed}")
        if payload["episodes_completed"] != len(curves):
            raise CheckError(f"{d}: episodes_completed != len(curves)")
        if payload["total_steps"] != sum(c["length"] for c in curves):
            raise CheckError(f"{d}: total_steps != sum of episode lengths")
        n_features = payload["dataset"]["n_features"]
        if any(not 0 <= i < n_features
               for i in payload["best_subset"]["indices"]):
            raise CheckError(f"{d}: best_subset index out of range")
        csv_lines = (d / "curves.csv").read_text().splitlines()
        if len(csv_lines) != len(curves) + 1:
            raise CheckError(f"{d}: curves.csv has {len(csv_lines)} lines")
        payloads.append(payload)
    if values is not None:
        lines = (out / "summary.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        if [r[1] for r in rows] != values:
            raise CheckError(f"{out}: summary.csv rows {rows} do not match "
                             f"the {len(values)} sweep values")
    return payloads


def command_metrics(proc: Proc, payloads: list) -> dict:
    train_s = sum(p["total_wall_ms"] for p in payloads) / 1000.0
    steps = sum(p["total_steps"] for p in payloads)
    informative = set(payloads[0]["dataset"]["informative"])
    return {
        "run_wall_s": proc.wall_s,
        "train_s": train_s,
        "steps_per_s": steps / train_s,
        "peak_rss_mb": proc.rss_mb,
        "test_accuracy": statistics.fmean(
            p["test_metrics"]["accuracy"] for p in payloads),
        "informative_recall": statistics.fmean(
            len(informative & set(p["best_subset"]["indices"]))
            / len(informative) for p in payloads),
    }


class Runner:
    """Runs the children of one workload and keeps their tallies."""

    def __init__(self, workload: Workload, work: Path):
        self.workload = workload
        self.work = work
        self.env = child_env(workload, work)
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fail(self, what: str, log: Path | None = None):
        self.failed += 1
        tail = ""
        if log is not None and log.exists():
            tail = "\n    " + "\n    ".join(
                log.read_text().splitlines()[-5:])
        self.problems.append(what + tail)

    def setup(self, seed: int):
        """Wall time of one set-up child, or None when it failed."""
        self.attempted += 1
        tag = f"setup-{self.attempted}"
        cmd = [sys.executable, str(BENCH_DIR / "child.py"), "setup", "--",
               "--synthetic", self.workload.flag("--synthetic"),
               "--seed", str(seed)]
        proc = spawn(cmd, self.env, self.work / f"{tag}.log")
        if proc.code != 0:
            self.fail(f"{tag}: exit code {proc.code}", proc.log)
            return None
        return proc.wall_s

    def command(self, seed: int, spans: Path | None = None):
        """One mcfs command, traced when ``spans`` is given.

        Returns (proc, payloads), or None when it failed.
        """
        self.attempted += 1
        tag = f"{'traced' if spans else 'cmd'}-{self.attempted}"
        out = self.work / tag
        args = [*self.workload.command, "--seed", str(seed), "--out", str(out)]
        if spans is None:
            cmd = [sys.executable, "-m", "mcfs.cli", *args]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "child.py"), "trace",
                   str(spans), "--", *args]
        proc = spawn(cmd, self.env, self.work / f"{tag}.log")
        if proc.code != 0:
            self.fail(f"{tag} (seed {seed}): exit code {proc.code}",
                       proc.log)
            return None
        try:
            payloads = check_outputs(self.workload, seed, out)
        except (CheckError, OSError) as exc:
            self.fail(f"{tag} (seed {seed}): {exc}")
            return None
        return proc, payloads

    def same_reports(self, what: str, first: list, second: list) -> bool:
        if [stable_view(p) for p in first] == [stable_view(p) for p in second]:
            return True
        self.fail(f"{what}: reports differ beyond the wall-time fields")
        return False


def measure(runner: Runner, seed: int, seconds: float) -> tuple:
    """Untraced pass: commands until the deadline, then set-up samples."""
    deadline = time.perf_counter() + seconds
    samples = []   # (seed, metrics) of commands that passed
    index = 0
    while index < MIN_COMMANDS or samples and (
            time.perf_counter() + statistics.median(
                m["run_wall_s"] for _, m in samples) <= deadline):
        s = sub_seed(seed, index)
        index += 1
        done = runner.command(s)
        if done is not None:
            samples.append((s, command_metrics(*done)))
    setups = [runner.setup(seed) for _ in range(SETUP_REPEATS)]

    metrics = {}
    if samples:
        for name in ("run_wall_s", "train_s", "steps_per_s", "peak_rss_mb"):
            metrics[name] = statistics.median(m[name] for _, m in samples)
        # the same on every run of a seed, however many commands fit
        first = [m for s, m in samples
                 if s in {sub_seed(seed, i) for i in range(MIN_COMMANDS)}]
        for name in ("test_accuracy", "informative_recall"):
            metrics[name] = statistics.fmean(
                m[name] for m in first or [samples[0][1]])
    ok_setups = [s for s in setups if s is not None]
    if ok_setups:
        metrics["setup_s"] = statistics.median(ok_setups)
    metrics["error_rate"] = runner.failed / max(1, runner.attempted)
    return metrics, samples, ok_setups


def layer_metrics(spans: dict, payloads: list) -> tuple:
    """Per-layer metrics and the traffic profile of one traced command."""
    edges = spans["edges"]
    records = spans["records"]

    def of(name, field="total_s"):
        return sum(e[field] for key, e in edges.items()
                   if key.split(">", 1)[1] == name)

    fits = records.get("forest.train_forest", [])
    fit_ms = {n: [dt * 1000.0 for t, _, dt in fits if t == n]
              for n in (10, 100)}
    episodes = records.get("engine.traverse_episode", [])
    arms = records.get("cli.execute_run", [])
    lookups = of("rewards.lookup", "calls")
    evals = of("rewards.eval_reward", "calls")
    arm_wall = of("cli.execute_run")
    span_wall = (max(e for _, e in arms) - min(s for s, _ in arms)
                 if arms else 0.0)
    train_children = {
        key.split(">", 1)[1]: e for key, e in edges.items()
        if key.startswith("engine.train>")
    }

    m = {
        "forest.fit_calls": len(fits),
        "forest.trees_fit": sum(t for t, _, _ in fits),
        "forest.fit_s": of("forest.train_forest"),
        "forest.fit10_ms_p50": statistics.median(fit_ms[10] or [0.0]),
        "forest.fit100_ms_p50": statistics.median(fit_ms[100] or [0.0]),
        "forest.predict_calls": of("forest.predict", "calls"),
        "forest.predict_s": of("forest.predict"),
        "rewards.lookups": lookups,
        "rewards.eval_calls": evals,
        "rewards.cache_hit_ratio": 1.0 - evals / lookups if lookups else 0.0,
        "rewards.eval_self_s": of("rewards.eval_reward", "self_s"),
        "rewards.utility_calls": of("rewards.utility", "calls"),
        "rewards.utility_s": of("rewards.utility"),
        "info.pair_requests": of("info.pairwise_mi", "calls"),
        "info.pair_computed": edges.get(
            "info.pairwise_mi>info.mutual_information", {}).get("calls", 0),
        "info.pairwise_mi_s": of("info.pairwise_mi"),
        "info.label_mi_s": of("info.feature_label_mi"),
        "state.meta_stats_calls": of("state.meta_stats", "calls"),
        "state.meta_stats_s": of("state.meta_stats"),
        "qlearner.q_calls": of("qlearner.q_values", "calls"),
        "qlearner.q_s": of("qlearner.q_values"),
        "qlearner.train_step_calls": of("qlearner.train_step", "calls"),
        "qlearner.train_step_s": of("qlearner.train_step"),
        "qlearner.replay_s": (of("qlearner.replay_push")
                              + of("qlearner.replay_sample")),
        "nn.forward_calls": of("nn.forward", "calls"),
        "nn.adam_s": of("nn.adam_step"),
        "engine.episodes": len(episodes),
        "engine.steps": sum(n for n, _ in episodes),
        "engine.stopped_share": (sum(1 for _, s in episodes if s)
                                 / len(episodes) if episodes else 0.0),
        "engine.traverse_self_s": of("engine.traverse_episode", "self_s"),
        "engine.update_s": sum(
            train_children[n]["total_s"] for n in UPDATE_SPANS
            if n in train_children),
        "engine.final_selection_s": of("engine.final_selection"),
        "engine.train_s": of("engine.train"),
        "engine.train_unaccounted_s": of("engine.train", "self_s"),
        "cli.baselines_s": of("cli.compare_baselines"),
        "cli.arm_wall_s": arm_wall,
        "cli.sweep_overlap": arm_wall / span_wall if span_wall else 0.0,
        "reports.write_s": of("reports.write_report_files"),
        "data.synth_s": of("data.synth"),
        "data.split_s": of("data.split"),
    }

    lengths = Counter(n for n, _ in episodes)
    traffic = {
        "forest_fits_by_trees": dict(sorted(Counter(
            t for t, _, _ in fits).items())),
        "forest_fits_by_k": dict(sorted(Counter(
            k for _, k, _ in fits).items())),
        "reward_lookups": lookups,
        "reward_evaluations": evals,
        "episode_lengths": dict(sorted(lengths.items())),
        "stopped_early": sum(1 for _, s in episodes if s),
        "episodes": len(episodes),
        "mi_pairs_requested": m["info.pair_requests"],
        "mi_pairs_computed": m["info.pair_computed"],
        "reports_steps": sum(p["total_steps"] for p in payloads),
    }
    train = {
        name: {"calls": e["calls"], "total_s": e["total_s"]}
        for name, e in sorted(train_children.items(),
                              key=lambda kv: -kv[1]["total_s"])
    }
    return m, traffic, train


def trace_pass(runner: Runner, seed: int) -> tuple:
    """One untraced and one traced command on the run seed."""
    plain = runner.command(seed)
    spans_path = runner.work / "spans.json"
    traced = runner.command(seed, spans=spans_path)
    if plain is None or traced is None:
        return {}, {}, {}
    spans = json.loads(spans_path.read_text())
    if spans["unrestored"]:
        runner.fail(f"probes left in place: {spans['unrestored']}")
    runner.same_reports(f"seed {seed} traced against untraced",
                        plain[1], traced[1])
    m, traffic, train = layer_metrics(spans, traced[1])
    m["trace.run_wall_s"] = traced[0].wall_s
    m["trace.overhead_s"] = traced[0].wall_s - plain[0].wall_s
    return m, traffic, train


def run_metadata() -> dict:
    meta = {
        "git_sha": "unknown",
        "git_dirty": None,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
    }
    if (ROOT / ".git").exists():
        try:
            meta["git_sha"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, check=True).stdout.strip()
            meta["git_dirty"] = bool(subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                cwd=ROOT, capture_output=True, text=True,
                check=True).stdout.strip())
        except (OSError, subprocess.CalledProcessError):
            pass
    import numpy

    meta["numpy"] = numpy.__version__
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        meta["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        meta["blas"] = "unknown"
    return meta


def run_workload(workload: Workload, seed: int, seconds: float,
                 trace: bool, work: Path) -> dict:
    runner = Runner(workload, work)
    load_before = os.getloadavg()
    if trace:
        metrics, traffic, train = trace_pass(runner, seed)
        samples, setups = [], []
        units = PER_LAYER
    else:
        metrics, samples, setups = measure(runner, seed, seconds)
        traffic, train = None, None
        units = END_TO_END
    return {
        "workload": workload.name,
        "metrics": metrics,
        "units": units,
        "traffic": traffic,
        "train_spans": train,
        "samples": samples,
        "setups": setups,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems,
        "load_before": load_before,
        "load_after": os.getloadavg(),
    }


def print_workload(res: dict) -> None:
    print(f"== {res['workload']}: {res['attempted']} children, "
          f"{res['failed']} failed; load average "
          f"{res['load_before'][0]:.2f} -> {res['load_after'][0]:.2f}")
    for problem in res["problems"]:
        print(f"  FAILED {problem}")
    metrics = res["metrics"]
    for s, m in res["samples"]:
        print(f"  command seed {s}: {m['run_wall_s']:.3f} s wall, "
              f"{m['train_s']:.3f} s train, {m['steps_per_s']:.1f} steps/s, "
              f"{m['peak_rss_mb']:.1f} MB")
    if res["setups"]:
        print("  set-ups: " + ", ".join(f"{s:.3f}" for s in res["setups"])
              + " s")
    if res["samples"]:
        print(f"  medians over {len(res['samples'])} commands and "
              f"{len(res['setups'])} set-ups")
    for name, unit in res["units"].items():
        value = metrics.get(name)
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"  {name:<28} {shown:>14} {unit}")
    if res["train_spans"]:
        total = metrics.get("engine.train_s", 0.0)
        print(f"  engine.train children ({total:.3f} s traced):")
        for name, e in res["train_spans"].items():
            share = e["total_s"] / total if total else 0.0
            print(f"    {name:<30} {e['calls']:>8} calls "
                  f"{e['total_s']:>9.3f} s {share:>7.1%}")
        rest = metrics.get("engine.train_unaccounted_s", 0.0)
        print(f"    {'(not in a probed span)':<30} {'':>8}       "
              f"{rest:>9.3f} s {rest / total if total else 0.0:>7.1%}")
    if res["traffic"]:
        print("  traffic " + json.dumps(res["traffic"], sort_keys=True))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "mcfs" / "cli.py").is_file():
        print(f"error: no mcfs sources under {ROOT / 'src'}; run from the "
              "repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    work_root = ROOT / ".bench_work"
    work = work_root / str(os.getpid())
    results = []
    try:
        for name in names:
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            results.append(run_workload(
                WORKLOADS[name], args.seed, args.seconds,
                bool(args.trace), work))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    print("meta " + json.dumps(run_metadata(), sort_keys=True))
    for res in results:
        print_workload(res)

    keys = PER_LAYER if args.trace else RESULT_END_TO_END
    out_metrics = {}
    complete = True
    for res in results:
        prefix = "" if len(results) == 1 else res["workload"] + "."
        for name in keys:
            value = res["metrics"].get(name)
            if value is None:
                complete = False
                continue
            unit = PER_LAYER[name] if args.trace else END_TO_END[name]
            out_metrics[prefix + name] = {"value": value, "unit": unit}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0 and complete,
        "attempted": attempted,
        "failed": failed,
        "metrics": out_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
