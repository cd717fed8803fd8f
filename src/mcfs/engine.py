"""Off-policy Monte Carlo training loop for the traversing selector.

One episode walks the features in a history-derived order, the behavior
policy picking select/deselect per feature.  Importance weights against the
softmax target policy grow incrementally; degenerate episodes are cut short
at random with probability rising as the weight falls.  Weighted returns
train the value net from replay; an information-theoretic potential advises
rewards for the first advise_steps environment steps.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import qlearner
from . import state as state_repr
from .rewards import RewardWeights, UTILITY_MODES
from .rewards import eval_reward as _eval_reward
from .rewards import shaped_reward
from .rewards import utility as _utility

RETURN_MODES = ("forward", "reversed")
BEHAVIOR_MODES = ("greedy", "random")
STATE_MODES = ("meta", "autoencoder")
# the allowed values of each TrainConfig mode field
MODES = {
    "return_mode": RETURN_MODES,
    "behavior_mode": BEHAVIOR_MODES,
    "state_mode": STATE_MODES,
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
    reward: float
    raw_reward: float
    target_prob: float
    behavior_prob: float
    importance: float


@dataclass(eq=False)
class Episode:
    steps: list
    stopped_early: bool
    final_subset: frozenset
    final_eval: float


@dataclass(eq=False)
class DecisionHistory:
    """How many times each feature has received a select/deselect decision."""

    counts: np.ndarray

    def record(self, feature: int) -> None:
        self.counts[feature] += 1


@dataclass(frozen=True)
class TrainConfig:
    """Everything a run needs; one alternate-form switch included.

    ``return_mode='reversed'`` accumulates past rewards instead of
    future ones; the default is the standard form.
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
            raise ValueError("gamma must lie in [0, 1]")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie strictly inside (0, 1)")
        if not 0.0 <= self.stop_threshold <= 1.0:
            raise ValueError("stop_threshold must lie in [0, 1]")
        if self.shaping_coeff < 0:
            raise ValueError("shaping_coeff must be non-negative")
        if self.advise_steps < 0:
            raise ValueError("advise_steps must be non-negative")
        if self.max_global_steps < 1:
            raise ValueError("max_global_steps must be positive")
        if self.batch_size < 1 or self.memory_capacity < 1:
            raise ValueError("batch_size and memory_capacity must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
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
    """Audited output of one training run.

    ``test_metrics`` and ``baselines`` stay None at the engine level; the
    command-line harness fills them from the outer evaluation protocol.
    """

    config: TrainConfig
    best_subset: tuple
    best_eval: float
    greedy_subset: tuple
    curves: list
    episodes_completed: int
    total_steps: int
    decision_counts: tuple
    total_wall_ms: float
    test_metrics: dict | None = None
    baselines: dict | None = None


def stop_probability(importance: float, stop_threshold: float) -> float:
    """Chance of cutting the episode: high when the weight has collapsed."""
    if importance < 0 or stop_threshold < 0:
        raise ValueError("importance and stop_threshold must be non-negative")
    if stop_threshold == 0:
        return 0.0
    return max(0.0, 1.0 - importance / stop_threshold)


def survival_probability(importance: float, stop_threshold: float) -> float:
    """Complement of stop_probability, min(1, importance/threshold)."""
    if stop_threshold == 0:
        return 1.0
    return min(1.0, importance / stop_threshold)


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


def recalc_weights(episode: Episode, stop_threshold: float, *,
                   survival_mean: float | None = None) -> np.ndarray:
    """Per-step training weights after early stopping (rejection control).

    Divides each step's importance by its survival probability and scales
    by the mean survival probability (``survival_mean``; when None, the
    mean over this episode's own steps); a step of zero importance has
    zero survival and gets weight 0.
    """
    imp = np.array([s.importance for s in episode.steps])
    surv = np.array(
        [survival_probability(w, stop_threshold) for w in imp]
    )
    if survival_mean is None:
        survival_mean = float(surv.mean())
    return np.divide(survival_mean * imp, surv,
                     out=np.zeros(imp.shape), where=imp > 0)


def compute_returns(episode: Episode, gamma: float,
                    mode: str = "forward") -> np.ndarray:
    """Per-step returns from the episode's rewards.

    forward: discounted sum of this and later rewards.  reversed:
    discounted sum of rewards up to and including this step.
    """
    if mode not in RETURN_MODES:
        raise ValueError(f"mode must be one of {RETURN_MODES}")
    r = np.array([s.reward for s in episode.steps])
    out = np.empty_like(r)
    if mode == "forward":
        acc = 0.0
        for i in range(r.size - 1, -1, -1):
            acc = r[i] + gamma * acc
            out[i] = acc
    else:
        acc = 0.0
        for i in range(r.size):
            acc = gamma * acc + r[i]
            out[i] = acc
    return out


def rerank_features(history: DecisionHistory) -> list:
    """Traversal order: least-decided first, index breaking ties."""
    counts = np.asarray(history.counts)
    order = np.lexsort((np.arange(counts.size), counts))
    return [int(i) for i in order]


def apply_advice(reward: float, u_now: float, u_next: float,
                 config: TrainConfig, global_step: int) -> float:
    """Shape the reward with the utility potential during the early window."""
    if global_step <= config.advise_steps:
        return shaped_reward(
            reward, u_now, u_next, config.gamma, config.shaping_coeff
        )
    return reward


def traverse_episode(
    qnet,
    order,
    config: TrainConfig,
    rng: np.random.Generator,
    start_step: int,
    represent: Callable,
    reward_fn: Callable,
    utility_fn: Callable,
) -> Episode:
    """Walk the features once, recording states, decisions, and weights.

    ``start_step`` is the number of environment steps taken before this
    episode; advising applies while the running global step stays within
    config.advise_steps.  A stop draw happens after every non-final step
    with probability stop_probability(importance, stop_threshold).
    """
    subset = frozenset()
    s = represent(subset)
    running = 1.0
    steps = []
    stopped = False
    n = len(order)
    for t, feat in enumerate(order):
        q = qlearner.q_values(qnet, s)
        probs = qlearner.target_policy(q)
        if config.behavior_mode == "greedy":
            action, b_prob = qlearner.behavior_policy(q, config.epsilon, rng)
        else:
            action, b_prob = qlearner.random_policy(rng)
        pi_prob = float(probs[action])

        new_subset = subset | {feat} if action == 1 else subset
        raw = reward_fn(new_subset)
        g = start_step + t + 1
        if g <= config.advise_steps:
            r = apply_advice(
                raw, utility_fn(subset), utility_fn(new_subset), config, g
            )
        else:
            r = raw

        running = incremental_weight(running, pi_prob, b_prob)
        steps.append(EpisodeStep(
            feature=int(feat),
            state=s,
            action=action,
            reward=r,
            raw_reward=raw,
            target_prob=pi_prob,
            behavior_prob=b_prob,
            importance=running,
        ))
        subset = new_subset
        s = represent(subset)
        if t < n - 1:
            if rng.random() < stop_probability(running, config.stop_threshold):
                stopped = True
                break

    return Episode(
        steps=steps,
        stopped_early=stopped,
        final_subset=subset,
        final_eval=reward_fn(subset),
    )


def make_represent(ds, mode: str, autoencoder=None) -> Callable:
    """State function for a dataset: descriptive stats or bottleneck codes."""
    if mode == "meta":
        return lambda subset: state_repr.meta_stats(ds, subset)
    if mode == "autoencoder":
        if autoencoder is None:
            raise ValueError("autoencoder state mode needs a trained model")
        return lambda subset: state_repr.autoencode_state(
            autoencoder, ds, subset
        )
    raise ValueError(f"state mode must be one of {STATE_MODES}")


def final_selection(qnet, ds, config: TrainConfig, autoencoder=None):
    """Greedy pass over all features in index order with the trained net.

    No stopping, no exploration: each step takes argmax Q, value ties
    falling to deselect.  A net that scores everything equal therefore
    returns the empty subset.
    """
    represent = make_represent(ds, config.state_mode, autoencoder)
    subset = frozenset()
    s = represent(subset)
    for feat in range(ds.n_features):
        q = qlearner.q_values(qnet, s)
        if int(np.argmax(q)) == 1:
            subset = subset | {feat}
            s = represent(subset)
    return subset


class _Trainer:
    """Owns the seeded streams, caches, and learned pieces of one run."""

    def __init__(self, split, config: TrainConfig):
        self.split = split
        self.config = config
        n = split.train.n_features
        net_ss, behavior_ss, replay_ss, ae_ss = (
            np.random.SeedSequence(config.seed).spawn(4)
        )
        self.autoencoder = None
        if config.state_mode == "autoencoder":
            self.autoencoder, _ = state_repr.train_autoencoder(
                split.train, seed=int(ae_ss.generate_state(1)[0])
            )
        self.represent = make_represent(
            split.train, config.state_mode, self.autoencoder
        )
        state_dim = self.represent(frozenset()).size
        self.qnet = qlearner.QNetwork(state_dim, seed=net_ss)
        self.behavior_rng = np.random.default_rng(behavior_ss)
        self.replay_rng = np.random.default_rng(replay_ss)
        self.memory = qlearner.ReplayMemory(config.memory_capacity)
        self.survival_window = deque(maxlen=config.memory_capacity)
        self.history = DecisionHistory(np.zeros(n, dtype=np.int64))
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

    def window_survival_mean(self, episode: Episode) -> float:
        """Mean survival over replay-memory steps; the fresh episode's own
        steps stand in while the memory is still empty."""
        if self.survival_window:
            return float(np.mean(self.survival_window))
        return float(np.mean([
            survival_probability(s.importance, self.config.stop_threshold)
            for s in episode.steps
        ]))


def train(split, config: TrainConfig) -> RunReport:
    """Run the full training loop and return the audited report."""
    t_start = time.perf_counter()
    tr = _Trainer(split, config)
    curves = []
    best_subset = frozenset()
    best_eval = 0.0

    for ep in range(1, config.episodes + 1):
        if tr.global_step >= config.max_global_steps:
            break
        ep_start = time.perf_counter()
        order = rerank_features(tr.history)
        episode = traverse_episode(
            tr.qnet, order, config, tr.behavior_rng, tr.global_step,
            tr.represent, tr.reward, tr.utility,
        )
        for s in episode.steps:
            tr.history.record(s.feature)
        tr.global_step += len(episode.steps)

        weights = recalc_weights(
            episode, config.stop_threshold,
            survival_mean=tr.window_survival_mean(episode),
        )
        returns = compute_returns(episode, config.gamma, config.return_mode)
        for s, w, g in zip(episode.steps, weights, returns):
            tr.memory.push(s.state, s.action, w * g)
            tr.survival_window.append(
                survival_probability(s.importance, config.stop_threshold)
            )

        losses = []
        for _ in range(config.updates_per_episode):
            batch = tr.memory.sample(tr.replay_rng, config.batch_size)
            losses.append(
                qlearner.train_step(tr.qnet, batch, config.learning_rate)
            )

        if episode.final_eval > best_eval:
            best_eval = episode.final_eval
            best_subset = episode.final_subset
        curves.append(EpisodeStats(
            episode=ep,
            eval=float(episode.final_eval),
            length=len(episode.steps),
            loss=float(np.mean(losses)),
            wall_ms=(time.perf_counter() - ep_start) * 1000.0,
        ))

    greedy = final_selection(
        tr.qnet, split.train, config, autoencoder=tr.autoencoder
    )
    return RunReport(
        config=config,
        best_subset=tuple(sorted(best_subset)),
        best_eval=float(best_eval),
        greedy_subset=tuple(sorted(greedy)),
        curves=curves,
        episodes_completed=len(curves),
        total_steps=tr.global_step,
        decision_counts=tuple(int(c) for c in tr.history.counts),
        total_wall_ms=(time.perf_counter() - t_start) * 1000.0,
    )
