"""Off-policy Monte Carlo training loop for the traversing selector.

One episode first walks the features in a history-derived order, the
behavior policy picking select/deselect per feature.  Importance weights
against the softmax target policy grow incrementally.  Early stopping cuts
degenerate episodes short: a step survives with probability
min(1, importance / stop_threshold) and the walk stops with the
complement.  The walk needs no reward.  It returns one ``Episode`` of
per-step columns: ``steps``, ``states``, ``actions``, ``importance``,
``survival`` and ``subsets``.  Once it ends, the generator ``steps``
yields the walk's subsets that the reward table lacks, and its driver sends
their rewards back; ``train`` is the serial driver and the one scorer.
Each step gets its subset's reward, advised by an information-theoretic
potential for the first advise_steps environment steps.  Training reads the
other columns as they are: ``importance`` and ``survival`` reweight the
steps (rejection control) and feed the replay memory's mean survival, and
``states`` and ``actions`` go to replay.  Weighted returns train the value
net from replay.  The final greedy selection is the same walk with an
argmax, never-stopping policy.
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
    "utility_mode": UTILITY_MODES,
}


@dataclass(eq=False)
class Episode:
    """One walk: one column per fact, one entry per step.

    ``steps`` is the walked prefix of the order, and ``states`` holds the
    state each decision saw.  ``importance`` is the running product of
    target/behavior probability ratios up to and including each step,
    ``survival`` its chance of surviving early stopping, and ``subsets``
    the subset after each step's decision.
    """

    steps: np.ndarray
    states: np.ndarray
    actions: np.ndarray
    importance: np.ndarray
    survival: np.ndarray
    subsets: list
    stopped_early: bool


@dataclass(frozen=True)
class TrainConfig:
    """Everything a run needs.

    The three mode fields pick alternate forms (allowed values in ``MODES``):
    ``return_mode='reversed'`` accumulates past rewards instead of future
    ones, ``behavior_mode='random'`` explores with a fair coin instead of
    epsilon-greedy, and ``utility_mode`` picks the advice potential.  Each
    default is the standard form.
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
    decision_counts: tuple
    total_wall_ms: float


def survival_probability(importance: float, stop_threshold: float) -> float:
    """Chance that a step survives early stopping.

    That is min(1, importance / stop_threshold), and the walk stops with the
    complement.  A zero threshold disables stopping: every step survives.
    """
    if importance < 0 or stop_threshold < 0:
        raise ValueError("importance and stop_threshold must be non-negative")
    if stop_threshold == 0:
        return 1.0
    ratio = importance / stop_threshold
    # a NaN ratio stays NaN, as it does under np.minimum
    return 1.0 if ratio > 1.0 else ratio


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


def compute_returns(rewards, gamma: float, mode: str) -> np.ndarray:
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
    return np.argsort(counts, kind="stable").tolist()


def traverse_episode(qnet, order, represent: Callable, choose: Callable,
                     stop_threshold: float, stop: Callable) -> Episode:
    """Walk the features once and return the record of its steps.

    ``choose(q)`` returns the (action, behavior probability) for the Q
    values of the current state.  Each step's survival is computed against
    ``stop_threshold``, and ``stop(survival)`` is asked after every
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
    states, actions, importance, survival, subsets = [], [], [], [], []
    last = len(order) - 1
    for t, feat in enumerate(order):
        action, b_prob = choose(q)
        running = incremental_weight(running, float(target[action]), b_prob)
        states.append(s)
        actions.append(action)
        importance.append(running)
        survival.append(survival_probability(running, stop_threshold))
        if action == 1:
            subset = subset | {feat}
            s = represent(subset)
            q = qlearner.q_values(qnet, s)
            target = qlearner.target_policy(q)
        subsets.append(subset)
        if t < last and stop(survival[-1]):
            break
    n = len(actions)
    return Episode(
        steps=np.asarray(order[:n], dtype=np.int64), states=np.stack(states),
        actions=np.array(actions), importance=np.array(importance),
        survival=np.array(survival), subsets=subsets,
        stopped_early=n < len(order),
    )


def final_selection(qnet, represent: Callable, n_features: int):
    """Greedy pass over all features in index order with the trained net.

    No stopping, no exploration: each step takes argmax Q, value ties
    falling to deselect.  A net that scores everything equal therefore
    returns the empty subset.
    """
    episode = traverse_episode(
        qnet, range(n_features), represent,
        choose=lambda q: (qlearner.greedy_action(q), 1.0),
        stop_threshold=0.0, stop=lambda survival: False,
    )
    return episode.subsets[-1]


def _reward_tables(train) -> dict:
    """Reward by subset, one table per (test fold, weights, seed,
    eval_trees), filled as runs on this training fold ask."""
    return {}


def _utility_tables(train) -> dict:
    """Advice utility by subset, one table per utility mode."""
    return {}


def _state_table(train) -> dict:
    """Read-only state vector by subset."""
    return {}


class _Trainer:
    """Owns the seeded streams and learned pieces of one run.

    Rewards, utilities and states are kept on the training fold
    (``Dataset.derived``), keyed by every input besides the subset, so runs
    on one fold, such as the arms of a sweep, fit each reward forest and
    compute each state once.  The trainer scores nothing: ``steps`` writes
    the rewards its driver sends, and ``reward`` and ``score`` only read
    the table, so a subset never scored raises ``KeyError``.  A subset's
    forest seed depends only on the run seed and the subset, so neither
    call order nor the other subsets of a call change a reward, and a
    shared value equals the one a run would compute itself.
    """

    def __init__(self, split, config: TrainConfig):
        self.split = split
        self.config = config
        n = split.train.n_features
        net_ss, behavior_ss, replay_ss = (
            np.random.SeedSequence(config.seed).spawn(3)
        )
        self.states = split.train.derived(_state_table)
        state_dim = self.represent(frozenset()).size
        self.qnet = qlearner.q_network(state_dim, seed=net_ss)
        self.behavior_rng = np.random.default_rng(behavior_ss)
        self.replay_rng = np.random.default_rng(replay_ss)
        self.memory = qlearner.ReplayMemory(config.memory_capacity)
        self.survival_window = deque(maxlen=config.memory_capacity)
        # decisions per feature; one per step, so they sum to the steps
        self.counts = np.zeros(n, dtype=np.int64)
        self.rewards = split.train.derived(_reward_tables).setdefault(
            (split.test, config.weights, config.seed, config.eval_trees), {}
        )
        self.utilities = split.train.derived(_utility_tables).setdefault(
            config.utility_mode, {}
        )

    def represent(self, subset: frozenset) -> np.ndarray:
        hit = self.states.get(subset)
        if hit is None:
            hit = self.states[subset] = state_repr.meta_stats(
                self.split.train, subset
            )
            hit.flags.writeable = False  # shared by every walk on the fold
        return hit

    def reward(self, subset: frozenset) -> float:
        return self.rewards[subset]

    def utility(self, subset: frozenset) -> float:
        hit = self.utilities.get(subset)
        if hit is None:
            hit = self.utilities[subset] = _utility(
                subset, self.split.train, self.config.utility_mode
            )
        return hit

    def score(self, episode: Episode, start_step: int):
        """The episode's final eval and each step's advised reward.

        ``start_step`` is the number of environment steps taken before the
        episode; a step is advised while its global step stays within
        advise_steps, and otherwise gets its raw reward.  The final eval is
        the last step's raw reward, the reward of the final subset.  Every
        subset must already be in the reward table.
        """
        cfg = self.config
        subsets = episode.subsets
        raw = [self.reward(s) for s in subsets]
        advised = np.array(raw, dtype=np.float64)
        n = min(len(subsets), cfg.advise_steps - start_step)
        if n > 0:
            # the subset before step i is the subset after step i - 1
            u = np.array([self.utility(s)
                          for s in [frozenset(), *subsets[:n]]])
            advised[:n] = shaped_reward(advised[:n], u[:-1], u[1:],
                                        cfg.gamma, cfg.shaping_coeff)
        return raw[-1], advised


def steps(split, config: TrainConfig):
    """The training loop.  Yields each walk's subsets that the reward table
    lacks, first seen first, takes their rewards in that order through
    ``send`` (a reply of another length raises ``ValueError`` and writes
    nothing) and returns the ``RunReport``."""
    t_start = time.perf_counter()
    tr = _Trainer(split, config)
    curves = []
    # the first episode seeds the best, whatever its eval
    best_subset = frozenset()
    best_eval = -math.inf
    rng = tr.behavior_rng
    if config.behavior_mode == "greedy":
        choose = lambda q: qlearner.behavior_policy(q, config.epsilon, rng)
    else:
        choose = lambda q: qlearner.random_policy(rng)
    # the walk asks stop after choose, so each step draws its action first
    stop = lambda survival: rng.random() < 1.0 - survival

    for ep in range(1, config.episodes + 1):
        steps_taken = int(tr.counts.sum())
        if steps_taken >= config.max_global_steps:
            break
        ep_start = time.perf_counter()
        episode = traverse_episode(
            tr.qnet, rerank_features(tr.counts), tr.represent, choose,
            config.stop_threshold, stop,
        )
        new = [s for s in dict.fromkeys(episode.subsets)
               if s not in tr.rewards]
        if new:
            tr.rewards.update(dict(zip(new, (yield new), strict=True)))
        final_eval, advised = tr.score(episode, steps_taken)
        # a feature is visited at most once per episode
        tr.counts[episode.steps] += 1

        # the mean survival over replay-memory steps, or over the episode's
        # own steps while the memory is still empty
        window = np.asarray(tr.survival_window or episode.survival)
        survival_mean = float(np.add.reduce(window) / window.size)
        weights = recalc_weights(episode.importance, episode.survival,
                                 survival_mean)
        tr.survival_window.extend(episode.survival)
        returns = compute_returns(advised, config.gamma, config.return_mode)
        tr.memory.push(episode.states, episode.actions, weights * returns)

        losses = []
        for _ in range(config.updates_per_episode):
            batch = tr.memory.sample(tr.replay_rng, config.batch_size)
            losses.append(
                qlearner.train_step(tr.qnet, batch, config.learning_rate)
            )

        if final_eval > best_eval:
            best_eval = final_eval
            best_subset = episode.subsets[-1]
        curves.append(EpisodeStats(
            episode=ep,
            eval=float(final_eval),
            length=len(episode.steps),
            loss=float(np.add.reduce(losses) / len(losses)),
            wall_ms=(time.perf_counter() - ep_start) * 1000.0,
        ))

    greedy = final_selection(tr.qnet, tr.represent, split.train.n_features)
    return RunReport(
        config=config,
        best_subset=tuple(sorted(best_subset)),
        best_eval=float(best_eval),
        greedy_subset=tuple(sorted(greedy)),
        curves=curves,
        decision_counts=tuple(int(c) for c in tr.counts),
        total_wall_ms=(time.perf_counter() - t_start) * 1000.0,
    )


def train(split, config: TrainConfig) -> RunReport:
    """Drive ``steps`` serially: score each request, return the report."""
    run = steps(split, config)
    try:
        new = next(run)
        while True:
            new = run.send(_eval_reward(
                new, split, config.weights, config.seed,
                n_trees=config.eval_trees))
    except StopIteration as done:
        return done.value
