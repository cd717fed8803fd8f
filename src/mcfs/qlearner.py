"""Action-value network, derived policies, and replay memory."""

from __future__ import annotations

from collections import deque

import numpy as np

from .nn import MLP

N_ACTIONS = 2  # 0 = leave the feature out, 1 = take it
DEFAULT_HIDDEN = (64, 8)
DEFAULT_CAPACITY = 200
DEFAULT_BATCH = 16
DEFAULT_LR = 0.01


class QNetwork:
    """Two-output value net: Q(state, deselect) and Q(state, select)."""

    def __init__(self, state_dim: int, hidden=DEFAULT_HIDDEN, seed: int = 0):
        if state_dim < 1:
            raise ValueError("state_dim must be positive")
        self.state_dim = state_dim
        self.net = MLP([state_dim, *hidden, N_ACTIONS], seed=seed)


def q_values(qnet: QNetwork, state: np.ndarray) -> np.ndarray:
    state = np.asarray(state, dtype=np.float64)
    if state.shape != (qnet.state_dim,):
        raise ValueError(
            f"state has shape {state.shape}, expected ({qnet.state_dim},)"
        )
    out, _ = qnet.net.forward(state[None, :])
    return out[0]


def target_policy(q: np.ndarray) -> np.ndarray:
    """Softmax over the action values ``q``; safe for large magnitudes."""
    z = q - q.max()
    e = np.exp(z)
    return e / e.sum()


def behavior_policy(q: np.ndarray, epsilon: float, rng: np.random.Generator):
    """Epsilon-greedy draw over the action values ``q``.  Returns (action,
    probability of that action).

    Greedy action (value ties go to action 0) with probability 1 - epsilon,
    the other action with probability epsilon.  Epsilon must lie strictly
    inside (0, 1) so both actions keep positive probability.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    greedy = int(np.argmax(q))
    if rng.random() < 1.0 - epsilon:
        return greedy, 1.0 - epsilon
    return 1 - greedy, epsilon


def random_policy(rng: np.random.Generator):
    """Uniform coin over the two actions."""
    return int(rng.integers(0, N_ACTIONS)), 1.0 / N_ACTIONS


def train_step(qnet: QNetwork, batch, lr: float = DEFAULT_LR) -> float:
    """One Adam update toward the stored weighted returns.

    ``batch`` holds (state, action, weighted_return) triples.  The loss is
    the mean squared gap between Q(state, action) and the target, measured
    before the update; that pre-update value is returned.
    """
    if len(batch) == 0:
        raise ValueError("empty training batch")
    states = np.stack([np.asarray(b[0], dtype=np.float64) for b in batch])
    actions = np.array([int(b[1]) for b in batch])
    targets = np.array([float(b[2]) for b in batch])
    if not np.all(np.isfinite(targets)):
        raise ValueError("non-finite training targets")
    if not np.all((actions >= 0) & (actions < N_ACTIONS)):
        raise ValueError("actions must be 0 or 1")

    out, cache = qnet.net.forward(states)
    rows = np.arange(len(batch))
    err = out[rows, actions] - targets
    loss = float(np.mean(np.square(err)))
    dout = np.zeros_like(out)
    dout[rows, actions] = 2.0 * err / len(batch)
    grads = qnet.net.backward(cache, dout)
    qnet.net.adam_step(grads, lr)
    return loss


class ReplayMemory:
    """Bounded FIFO of (state, action, weighted_return) tuples."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._items = deque(maxlen=capacity)

    def push(self, state, action, weighted_return) -> None:
        self._items.append(
            (np.asarray(state, dtype=np.float64), int(action),
             float(weighted_return))
        )

    def sample(self, rng: np.random.Generator, k: int = DEFAULT_BATCH):
        """Uniform draw without replacement; clamps k to the current size."""
        if len(self._items) == 0:
            raise ValueError("cannot sample from an empty replay memory")
        k = min(k, len(self._items))
        idx = rng.choice(len(self._items), size=k, replace=False)
        return [self._items[i] for i in idx]

    def __len__(self) -> int:
        return len(self._items)
