"""Off-policy Monte Carlo training loop for the traversing selector.

One episode first walks the features in a history-derived order, the
behavior policy picking select/deselect per feature.  Importance weights
against the softmax target policy grow incrementally.  Early stopping cuts
degenerate episodes short: a step survives with probability
min(1, importance / stop_threshold) and the walk stops with the
complement.  The walk needs no reward, so the episode is scored after it:
each step gets its subset's reward, advised by an information-theoretic
potential for the first advise_steps environment steps.  Each step's
survival is then computed once, over the episode's importance array, and
it both reweights the steps (rejection control) and feeds the replay
memory's mean survival.  Weighted returns train the value net from
replay.  The final greedy selection is the same walk with an argmax,
never-stopping policy.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import qlearner
from . import state as state_repr
from .rewards import MAX_COEFF, RewardWeights, UTILITY_MODES
from .rewards import eval_reward as _eval_reward
from .rewards import shaped_reward
from .rewards import utility as _utility

RETURN_MODES = ("forward", "reversed")
BEHAVIOR_MODES = ("greedy", "random")
# the allowed values of each TrainConfig mode field
MODES = {
    "return_mode": RETURN_MODES,
    "behavior_mode": BEHAVIOR_MODES,
    "state_mode": state_repr.STATE_MODES,
    "utility_mode": UTILITY_MODES,
}


@dataclass(eq=False)
class EpisodeStep:
    """One visit: the state seen, the decision taken, and its bookkeeping.

    ``importance`` is the running product of target/behavior probability
    ratios up to and including this step.
    """

    feature: int
    state: np.ndarray
    action: int
    importance: float


@dataclass(eq=False)
class Episode:
    steps: list
    stopped_early: bool
    final_subset: frozenset


@dataclass(frozen=True)
class TrainConfig:
    """Everything a run needs.

    The four mode fields pick alternate forms (allowed values in ``MODES``):
    ``return_mode='reversed'`` accumulates past rewards instead of future
    ones, ``behavior_mode='random'`` explores with a fair coin instead of
    epsilon-greedy, ``state_mode`` picks how a subset is described (see
    ``state.make_represent``), and ``utility_mode`` picks the advice
    potential.  Each default is the standard form.
    """

    episodes: int = 300
    gamma: float = 0.9
    epsilon: float = 0.1
    stop_threshold: float = 0.5
    shaping_coeff: float = 1.0
    advise_steps: int = 500
    max_global_steps: int = 3000
    batch_size: int = 16
    memory_capacity: int = 200
    learning_rate: float = 0.01
    updates_per_episode: int = 4
    return_mode: str = "forward"
    behavior_mode: str = "greedy"
    state_mode: str = "meta"
    utility_mode: str = "rvrd"
    weights: RewardWeights = field(default_factory=RewardWeights)
    eval_trees: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.episodes < 1:
            raise ValueError("episodes must be at least 1")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in the range [0, 1]")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(
                "epsilon must lie strictly inside the range (0, 1)"
            )
        if not 0.0 <= self.stop_threshold <= 1.0:
            raise ValueError("stop_threshold must lie in the range [0, 1]")
        if not 0 <= self.shaping_coeff <= MAX_COEFF:
            raise ValueError(
                f"shaping_coeff must lie in the range [0, {MAX_COEFF:g}]"
            )
        if self.advise_steps < 0:
            raise ValueError("advise_steps must be non-negative")
        if self.max_global_steps < 1:
            raise ValueError("max_global_steps must be positive")
        if self.batch_size < 1 or self.memory_capacity < 1:
            raise ValueError("batch_size and memory_capacity must be positive")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be finite and positive")
        if self.updates_per_episode < 1:
            raise ValueError("updates_per_episode must be positive")
        if self.eval_trees < 1:
            raise ValueError("eval_trees must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        for name, allowed in MODES.items():
            if getattr(self, name) not in allowed:
                raise ValueError(f"{name} must be one of {allowed}")


@dataclass(eq=False)
class EpisodeStats:
    episode: int
    eval: float
    length: int
    loss: float
    wall_ms: float


@dataclass(eq=False)
class RunReport:
    """Audited output of one training run."""

    config: TrainConfig
    best_subset: tuple
    best_eval: float
    greedy_subset: tuple
    curves: list
    episodes_completed: int
    total_steps: int
    decision_counts: tuple
    total_wall_ms: float


def survival_probability(importance, stop_threshold: float):
    """Chance that a step survives early stopping.

    That is min(1, importance / stop_threshold), and the walk stops with the
    complement.  A zero threshold disables stopping: every step survives.
    ``importance`` may be a scalar or an array.
    """
    imp = np.asarray(importance, dtype=np.float64)
    if stop_threshold < 0 or (imp < 0).any():
        raise ValueError("importance and stop_threshold must be non-negative")
    if stop_threshold == 0:
        return np.ones_like(imp)
    return np.minimum(1.0, imp / stop_threshold)


def incremental_weight(prev: float, target_prob: float,
                       behavior_prob: float) -> float:
    """Fold one step's probability ratio into the running weight.

    A target probability that underflows to 0 makes the weight 0, and it
    stays 0 for the rest of the episode.
    """
    if behavior_prob <= 0:
        raise ValueError("behavior probability must be positive")
    if prev < 0:
        raise ValueError("running weight must be non-negative")
    if target_prob < 0:
        raise ValueError("target probability must be non-negative")
    return prev * target_prob / behavior_prob


def recalc_weights(importance, survival, survival_mean: float) -> np.ndarray:
    """Per-step training weights after early stopping (rejection control).

    Divides each step's importance by its survival probability and scales
    by the mean survival probability ``survival_mean``; a step of zero
    importance has zero survival and gets weight 0.
    """
    imp = np.asarray(importance, dtype=np.float64)
    return np.divide(survival_mean * imp, survival,
                     out=np.zeros(imp.shape), where=imp > 0)


def compute_returns(rewards, gamma: float,
                    mode: str = "forward") -> np.ndarray:
    """Per-step returns from an episode's per-step rewards.

    forward: discounted sum of this and later rewards.  reversed:
    discounted sum of rewards up to and including this step.  Both run the
    same accumulation; forward runs it over the reversed rewards.
    """
    if mode not in RETURN_MODES:
        raise ValueError(f"mode must be one of {RETURN_MODES}")
    forward = mode == "forward"
    r = np.asarray(rewards, dtype=np.float64)
    out = np.empty_like(r)
    acc = 0.0
    for i, x in enumerate(r[::-1] if forward else r):
        acc = gamma * acc + x
        out[i] = acc
    return out[::-1] if forward else out


def rerank_features(counts: np.ndarray) -> list:
    """Traversal order: least-decided first, index breaking ties.

    ``counts`` holds how many select/deselect decisions each feature has
    received so far.
    """
    order = np.lexsort((np.arange(counts.size), counts))
    return [int(i) for i in order]


def traverse_episode(qnet, order, represent: Callable, choose: Callable,
                     stop: Callable) -> Episode:
    """Walk the features once, recording states, decisions, and weights.

    ``choose(q)`` returns the (action, behavior probability) for the Q
    values of the current state.  ``stop(importance)`` is asked after every
    non-final step and ends the episode when true.  The net does not change
    during a walk and the state changes only with the subset, so the state,
    its Q values and the target policy are computed once at the start and
    again only after a select.  The walk records no rewards: scoring
    happens after it.
    """
    subset = frozenset()
    s = represent(subset)
    q = qlearner.q_values(qnet, s)
    target = qlearner.target_policy(q)
    running = 1.0
    steps = []
    stopped = False
    last = len(order) - 1
    for t, feat in enumerate(order):
        action, b_prob = choose(q)
        running = incremental_weight(running, float(target[action]), b_prob)
        steps.append(EpisodeStep(
            feature=int(feat), state=s, action=action, importance=running,
        ))
        if action == 1:
            subset = subset | {feat}
            s = represent(subset)
            q = qlearner.q_values(qnet, s)
            target = qlearner.target_policy(q)
        if t < last and stop(running):
            stopped = True
            break
    return Episode(steps=steps, stopped_early=stopped, final_subset=subset)


def final_selection(qnet, represent: Callable, n_features: int):
    """Greedy pass over all features in index order with the trained net.

    No stopping, no exploration: each step takes argmax Q, value ties
    falling to deselect.  A net that scores everything equal therefore
    returns the empty subset.
    """
    episode = traverse_episode(
        qnet, range(n_features), represent,
        choose=lambda q: (int(np.argmax(q)), 1.0),
        stop=lambda importance: False,
    )
    return episode.final_subset


class _Trainer:
    """Owns the seeded streams, caches, and learned pieces of one run."""

    def __init__(self, split, config: TrainConfig):
        self.split = split
        self.config = config
        n = split.train.n_features
        net_ss, behavior_ss, replay_ss, ae_ss = (
            np.random.SeedSequence(config.seed).spawn(4)
        )
        self.represent = state_repr.make_represent(
            split.train, config.state_mode,
            seed=int(ae_ss.generate_state(1)[0]),
        )
        state_dim = self.represent(frozenset()).size
        self.qnet = qlearner.q_network(state_dim, seed=net_ss)
        self.behavior_rng = np.random.default_rng(behavior_ss)
        self.replay_rng = np.random.default_rng(replay_ss)
        self.memory = qlearner.ReplayMemory(config.memory_capacity)
        self.survival_window = deque(maxlen=config.memory_capacity)
        self.counts = np.zeros(n, dtype=np.int64)  # decisions per feature
        self.global_step = 0
        self._reward_cache = {}
        self._utility_cache = {}

    def reward(self, subset: frozenset) -> float:
        hit = self._reward_cache.get(subset)
        if hit is None:
            hit = _eval_reward(
                subset, self.split, self.config.weights, self.config.seed,
                n_trees=self.config.eval_trees,
            )
            self._reward_cache[subset] = hit
        return hit

    def utility(self, subset: frozenset) -> float:
        hit = self._utility_cache.get(subset)
        if hit is None:
            hit = _utility(
                subset, self.split.train, self.config.utility_mode
            )
            self._utility_cache[subset] = hit
        return hit

    def score(self, episode: Episode, start_step: int):
        """The episode's final eval and each step's advised reward.

        ``start_step`` is the number of environment steps taken before the
        episode; a step is advised while its global step stays within
        advise_steps, and otherwise gets its raw reward.  The final eval is
        the last step's raw reward, the reward of the final subset.
        """
        cfg = self.config
        advised = np.empty(len(episode.steps))
        subset = frozenset()
        for i, step in enumerate(episode.steps):
            new_subset = (subset | {step.feature} if step.action == 1
                          else subset)
            raw = self.reward(new_subset)
            advised[i] = raw
            if start_step + i + 1 <= cfg.advise_steps:
                advised[i] = shaped_reward(
                    raw, self.utility(subset), self.utility(new_subset),
                    cfg.gamma, cfg.shaping_coeff,
                )
            subset = new_subset
        return raw, advised


def train(split, config: TrainConfig) -> RunReport:
    """Run the full training loop and return the audited report."""
    t_start = time.perf_counter()
    tr = _Trainer(split, config)
    curves = []
    best_subset = frozenset()
    best_eval = 0.0
    rng = tr.behavior_rng
    if config.behavior_mode == "greedy":
        choose = lambda q: qlearner.behavior_policy(q, config.epsilon, rng)
    else:
        choose = lambda q: qlearner.random_policy(rng)
    # the walk asks stop after choose, so each step draws its action first
    stop = lambda importance: rng.random() < 1.0 - survival_probability(
        importance, config.stop_threshold
    )

    for ep in range(1, config.episodes + 1):
        if tr.global_step >= config.max_global_steps:
            break
        ep_start = time.perf_counter()
        episode = traverse_episode(
            tr.qnet, rerank_features(tr.counts), tr.represent, choose, stop
        )
        final_eval, advised = tr.score(episode, tr.global_step)
        # a feature is visited at most once per episode
        tr.counts[[s.feature for s in episode.steps]] += 1
        tr.global_step += len(episode.steps)

        importance = np.array([s.importance for s in episode.steps])
        survival = survival_probability(importance, config.stop_threshold)
        # the mean survival over replay-memory steps, or over the episode's
        # own steps while the memory is still empty
        survival_mean = float(np.mean(tr.survival_window or survival))
        weights = recalc_weights(importance, survival, survival_mean)
        tr.survival_window.extend(survival)
        returns = compute_returns(advised, config.gamma, config.return_mode)
        for s, w, g in zip(episode.steps, weights, returns):
            tr.memory.push(s.state, s.action, w * g)

        losses = []
        for _ in range(config.updates_per_episode):
            batch = tr.memory.sample(tr.replay_rng, config.batch_size)
            losses.append(
                qlearner.train_step(tr.qnet, batch, config.learning_rate)
            )

        if final_eval > best_eval:
            best_eval = final_eval
            best_subset = episode.final_subset
        curves.append(EpisodeStats(
            episode=ep,
            eval=float(final_eval),
            length=len(episode.steps),
            loss=float(np.mean(losses)),
            wall_ms=(time.perf_counter() - ep_start) * 1000.0,
        ))

    greedy = final_selection(tr.qnet, tr.represent, split.train.n_features)
    return RunReport(
        config=config,
        best_subset=tuple(sorted(best_subset)),
        best_eval=float(best_eval),
        greedy_subset=tuple(sorted(greedy)),
        curves=curves,
        episodes_completed=len(curves),
        total_steps=tr.global_step,
        decision_counts=tuple(int(c) for c in tr.counts),
        total_wall_ms=(time.perf_counter() - t_start) * 1000.0,
    )
