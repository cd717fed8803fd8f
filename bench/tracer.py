"""Layer spans for one mcfs process, recorded from outside the package.

A probe replaces one public function at the attribute where its callers
look it up, times each call, and then calls the original.  Some names are
bound at import, so the probe must sit on the importing module rather than
the defining one: ``engine`` calls ``rewards.eval_reward`` and
``rewards.utility`` as ``engine._eval_reward`` and ``engine._utility``, and
``rewards`` calls ``info.pairwise_mi`` and ``info.feature_label_mi`` by its
own names.

Spans are aggregated in memory per (parent span, span) edge and per thread,
so sweep workers never share a counter.  A span's self time is its duration
minus the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import threading
import time


class _ThreadLog:
    """Span edges and call records of one thread."""

    def __init__(self):
        self.stack = []    # open spans: [name, time covered by children]
        self.edges = {}    # (parent, name) -> [calls, total_s, child_s]
        self.records = {}  # name -> list of per-call records


class Tracer:
    """Installs probes, collects their spans, and restores the originals."""

    def __init__(self):
        self._local = threading.local()
        self._logs = []
        self._logs_lock = threading.Lock()
        self._patches = []  # (owner, attr, original)

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = _ThreadLog()
            self._local.log = log
            with self._logs_lock:
                self._logs.append(log)
        return log

    def probe(self, owner, attr: str, name: str, record=None) -> None:
        """Wrap ``owner.attr`` in a span called ``name``.

        ``record(args, kwargs, result, seconds)``, when given, returns a
        value kept per call under ``name`` (for example the tree count of a
        forest fit).
        """
        original = vars(owner)[attr]
        log_for = self._log

        @functools.wraps(original)
        def traced(*args, **kwargs):
            log = log_for()
            parent = log.stack[-1] if log.stack else None
            frame = [name, 0.0]
            log.stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                log.stack.pop()
                if parent is not None:
                    parent[1] += dt
                key = (parent[0] if parent is not None else None, name)
                edge = log.edges.get(key)
                if edge is None:
                    edge = log.edges[key] = [0, 0.0, 0.0]
                edge[0] += 1
                edge[1] += dt
                edge[2] += frame[1]
            if record is not None:
                log.records.setdefault(name, []).append(
                    record(args, kwargs, result, dt)
                )
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> list:
        """Put every original back; return the attributes that did not."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        failed = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._patches
            if vars(owner).get(attr) is not original
        ]
        self._patches = []
        return failed

    def edges(self) -> dict:
        """Merged edges: "parent>name" -> {calls, total_s, self_s}."""
        merged = {}
        for log in self._logs:
            for (parent, name), (calls, total, child) in log.edges.items():
                key = f"{parent or ''}>{name}"
                m = merged.setdefault(
                    key, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
                )
                m["calls"] += calls
                m["total_s"] += total
                m["self_s"] += total - child
        return merged

    def records(self) -> dict:
        merged = {}
        for log in self._logs:
            for name, recs in log.records.items():
                merged.setdefault(name, []).extend(recs)
        return merged


def install_layer_probes(tracer: Tracer) -> None:
    """Probe every layer of the mcfs package at its lookup sites."""
    from mcfs import cli, data, engine, forest, info, nn, qlearner, reports
    from mcfs import rewards, state

    def fit_record(args, kwargs, result, dt):
        return [int(kwargs.get("n_trees", 100)), len(set(args[1])), dt]

    def episode_record(args, kwargs, result, dt):
        return [len(result.steps), bool(result.stopped_early)]

    def arm_record(args, kwargs, result, dt):
        end = time.perf_counter()
        return [end - dt, end]

    probes = [
        (data, "synth_classification", "data.synth", None),
        (data, "split_dataset", "data.split", None),
        (forest, "train_forest", "forest.train_forest", fit_record),
        (forest, "predict", "forest.predict", None),
        (info, "feature_label_mi", "info.feature_label_mi", None),
        (info, "mutual_information", "info.mutual_information", None),
        (rewards, "feature_label_mi", "info.feature_label_mi", None),
        (rewards, "pairwise_mi", "info.pairwise_mi", None),
        (engine, "_eval_reward", "rewards.eval_reward", None),
        (engine, "_utility", "rewards.utility", None),
        (engine._Trainer, "reward", "rewards.lookup", None),
        (state, "meta_stats", "state.meta_stats", None),
        (qlearner, "q_values", "qlearner.q_values", None),
        (qlearner, "train_step", "qlearner.train_step", None),
        (qlearner.ReplayMemory, "push", "qlearner.replay_push", None),
        (qlearner.ReplayMemory, "sample", "qlearner.replay_sample", None),
        (nn.MLP, "forward", "nn.forward", None),
        (nn.MLP, "adam_step", "nn.adam_step", None),
        (engine, "train", "engine.train", None),
        (engine, "traverse_episode", "engine.traverse_episode",
         episode_record),
        (engine, "recalc_weights", "engine.recalc_weights", None),
        (engine, "compute_returns", "engine.compute_returns", None),
        (engine, "final_selection", "engine.final_selection", None),
        (cli, "_execute_run", "cli.execute_run", arm_record),
        (cli, "compare_baselines", "cli.compare_baselines", None),
        (reports, "write_report_files", "reports.write_report_files", None),
    ]
    for owner, attr, name, record in probes:
        tracer.probe(owner, attr, name, record)
