"""The span traffic that the benchmark's layer tracer reads off a run.

``bench/tracer.py`` probes package names where their callers look them up,
and ``bench/run.py`` turns the span edges into layer metrics.  These tests
pin the edges of one small ``engine.train`` so that a change to the
training loop that moves a metric fails here.
"""

import sys
from pathlib import Path

from mcfs import data, engine, rewards

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import tracer  # noqa: E402


def traced_train(split, config):
    """``engine.train`` under every layer probe: its report, edges and
    per-call records."""
    t = tracer.Tracer()
    tracer.install_layer_probes(t)
    try:
        report = engine.train(split, config)
    finally:
        assert t.restore() == []
    return report, t.edges(), t.records()


def requests(split, config):
    """How many reward requests ``engine.steps`` makes on ``split``."""
    run = engine.steps(split, config)
    count = 0
    try:
        new = next(run)
        while True:
            count += 1
            new = run.send(rewards.eval_reward(
                new, split, config.weights, config.seed,
                n_trees=config.eval_trees))
    except StopIteration:
        return count


def fresh_split():
    ds, _ = data.synth_classification(100, 6, 2, seed=8)
    return data.split_dataset(ds, 0.8, seed=1)


def calls(edges, name, parent=None):
    """Calls of span ``name``, under ``parent`` or under any parent."""
    return sum(e["calls"] for key, e in edges.items()
               if key.split(">", 1)[1] == name
               and parent in (None, key.split(">", 1)[0]))


class TestTrainTraffic:
    CONFIG = engine.TrainConfig(episodes=12, max_global_steps=200,
                                eval_trees=5, seed=3)

    def test_edge_counts(self):
        report, edges, records = traced_train(fresh_split(), self.CONFIG)
        episodes = len(report.curves)
        steps = sum(c.length for c in report.curves)
        asked = requests(fresh_split(), self.CONFIG)
        # some episode walks only onto subsets that are already scored
        assert 0 < asked < episodes
        # the training walks are children of train, the final walk of
        # final_selection; the benchmark counts every walk as an episode
        assert calls(edges, "engine.traverse_episode",
                     "engine.train") == episodes
        assert calls(edges, "engine.traverse_episode",
                     "engine.final_selection") == 1
        assert len(records["engine.traverse_episode"]) == episodes + 1
        # one reward call per episode with new subsets, made by train
        assert calls(edges, "rewards.eval_reward") == asked
        assert calls(edges, "rewards.eval_reward", "engine.train") == asked
        # one reward lookup per step, inside train
        assert calls(edges, "rewards.lookup") == steps
        assert calls(edges, "rewards.lookup", "engine.train") == steps
        # the benchmark's update time sums these direct children of train
        updates = episodes * self.CONFIG.updates_per_episode
        for name, expected in [("engine.recalc_weights", episodes),
                               ("engine.compute_returns", episodes),
                               ("qlearner.replay_push", episodes),
                               ("qlearner.replay_sample", updates),
                               ("qlearner.train_step", updates)]:
            assert calls(edges, name, "engine.train") == expected, name
