"""Subset rewards and advice shaping."""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from . import forest
from .info import feature_label_mi, pairwise_mi

UTILITY_MODES = ("rv", "rd", "rvrd")
# Upper bound on the reward weights and the shaping coefficient.  Rewards
# and utilities are O(1), so a coefficient near 1e160 squares to inf in the
# replay loss and near 1e308 makes the training targets non-finite; 1e6
# leaves every such product far inside float range.
MAX_COEFF = 1e6


@dataclass(frozen=True)
class RewardWeights:
    """Mixing weights for accuracy, relevance, and redundancy terms."""

    w_acc: float = 1.0
    w_rv: float = 0.1
    w_rd: float = 0.1

    def __post_init__(self):
        for w in (self.w_acc, self.w_rv, self.w_rd):
            if not 0 <= w <= MAX_COEFF:
                raise ValueError("reward weights must lie in the range "
                                 f"[0, {MAX_COEFF:g}]")
        if self.w_acc == self.w_rv == self.w_rd == 0:
            raise ValueError("at least one reward weight must be positive")


def relevance(subset, ds) -> float:
    """Mean mutual information between selected columns and the labels."""
    cols = sorted(int(c) for c in set(subset))
    if not cols:
        return 0.0
    mi = feature_label_mi(ds)
    return float(mi[cols].mean())


def redundancy(subset, ds) -> float:
    """Mean pairwise mutual information inside the subset; 0 below 2 columns."""
    cols = sorted(int(c) for c in set(subset))
    if len(cols) < 2:
        return 0.0
    total = 0.0
    pairs = 0
    for i, a in enumerate(cols):
        for b in cols[i + 1:]:
            total += pairwise_mi(ds, a, b)
            pairs += 1
    return total / pairs


def utility(subset, ds, mode: str) -> float:
    """Advice potential of a subset: relevance, redundancy, or rv - rd."""
    if mode not in UTILITY_MODES:
        raise ValueError(f"utility mode must be one of {UTILITY_MODES}")
    if mode == "rv":
        return relevance(subset, ds)
    if mode == "rd":
        return redundancy(subset, ds)
    return relevance(subset, ds) - redundancy(subset, ds)


def _subset_seed(seed: int, cols) -> np.random.SeedSequence:
    tag = zlib.crc32(np.asarray(sorted(cols), dtype=np.int64).tobytes())
    return np.random.SeedSequence(entropy=[seed, tag])


def eval_reward(subset, split, weights: RewardWeights, seed: int,
                n_trees: int) -> float:
    """Score a subset: held-out forest accuracy plus information terms.

    The forest trains on the split's train fold and scores on its test
    fold; relevance and redundancy come from the train fold only.  The
    forest seed mixes in the subset so caching never depends on call
    order.  The empty subset scores 0.
    """
    cols = sorted(int(c) for c in set(subset))
    if not cols:
        return 0.0
    acc = 0.0
    if weights.w_acc > 0:
        sub_seed = _subset_seed(seed, cols)
        model = forest.train_forest(split.train, cols, n_trees=n_trees,
                                    seed=sub_seed.generate_state(1)[0])
        acc = forest.evaluate(model, split.test).accuracy
    rv = relevance(cols, split.train) if weights.w_rv else 0.0
    rd = redundancy(cols, split.train) if weights.w_rd else 0.0
    return weights.w_acc * acc + weights.w_rv * rv - weights.w_rd * rd


def shaped_reward(reward: float, u_now: float, u_next: float,
                  gamma: float, coeff: float) -> float:
    """Potential-based advice: add coeff * (gamma * u_next - u_now)."""
    return reward + coeff * (gamma * u_next - u_now)
