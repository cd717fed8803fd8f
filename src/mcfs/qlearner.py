"""Action-value network, derived policies, and replay memory.

The Q-net is a plain ``nn.MLP`` mapping a state to the values of the two
actions.  The replay memory is a ring of preallocated arrays, so an
episode's push and a sample are one fancy index per array, and a sample
comes out in the batch form ``train_step`` takes.
"""

from __future__ import annotations

import numpy as np

from .nn import MLP

N_ACTIONS = 2  # 0 = leave the feature out, 1 = take it
HIDDEN = (64, 8)


def q_network(state_dim: int, seed: int = 0) -> MLP:
    """Two-output value net: Q(state, deselect) and Q(state, select)."""
    if state_dim < 1:
        raise ValueError("state_dim must be positive")
    return MLP([state_dim, *HIDDEN, N_ACTIONS], seed=seed)


def q_values(qnet: MLP, state: np.ndarray) -> np.ndarray:
    state = np.asarray(state, dtype=np.float64)
    width = qnet.sizes[0]
    if state.shape != (width,):
        raise ValueError(f"state has shape {state.shape}, expected ({width},)")
    out, _ = qnet.forward(state[None, :])
    return out[0]


def greedy_action(q: np.ndarray) -> int:
    """``int(np.argmax(q))`` over the two action values, on Python floats:
    ties go to action 0, and the first NaN wins."""
    q0, q1 = q.tolist()
    return int(q0 == q0 and (q1 > q0 or q1 != q1))


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
    greedy = greedy_action(q)
    if rng.random() < 1.0 - epsilon:
        return greedy, 1.0 - epsilon
    return 1 - greedy, epsilon


def random_policy(rng: np.random.Generator):
    """Uniform coin over the two actions."""
    return int(rng.integers(0, N_ACTIONS)), 1.0 / N_ACTIONS


def train_step(qnet: MLP, batch, lr: float) -> float:
    """One Adam update toward the stored weighted returns.

    ``batch`` is a (states, actions, weighted_returns) triple of arrays, one
    row per sample, as ``ReplayMemory.sample`` returns it.  The loss is the
    mean squared gap between Q(state, action) and the target, measured
    before the update; that pre-update value is returned.  A batch whose
    arrays differ in length, or whose actions are not the integers 0 or 1,
    raises ``ValueError`` before the forward pass.
    """
    states, actions, targets = batch
    states = np.asarray(states, dtype=np.float64)
    actions = np.asarray(actions)
    targets = np.asarray(targets, dtype=np.float64)
    if len(targets) == 0:
        raise ValueError("empty training batch")
    if not len(states) == len(actions) == len(targets):
        raise ValueError("states, actions and targets differ in length")
    if actions.dtype.kind not in "iu":
        raise ValueError("actions must be integers")
    if not np.isfinite(targets).all():
        raise ValueError("non-finite training targets")
    if not (actions.min() >= 0 and actions.max() < N_ACTIONS):
        raise ValueError("actions must be 0 or 1")

    out, cache = qnet.forward(states)
    rows = np.arange(len(targets))
    err = out[rows, actions] - targets
    sq = np.square(err)
    loss = float(np.add.reduce(sq) / sq.size)
    dout = np.zeros_like(out)
    dout[rows, actions] = 2.0 * err / len(targets)
    qnet.adam_step(qnet.backward(cache, dout), lr)
    return loss


class ReplayMemory:
    """Bounded FIFO of (state, action, weighted_return) rows.

    The rows sit in ring arrays; ``_head`` is the slot the next row goes
    to, and once the ring is full it also holds the oldest row.  ``states``
    is allocated on the first push, when the state width is known.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.states = None
        self.actions = np.zeros(capacity, dtype=np.int64)
        self.targets = np.zeros(capacity)
        self._head = 0
        self._size = 0

    def push(self, states, actions, weighted_returns) -> None:
        """Append rows in order, oldest first, in one write per array.

        ``states`` holds one state per row.  More rows than the capacity
        keep only the last ``capacity`` of them, as one push per row would.
        """
        states = np.asarray(states, dtype=np.float64)
        if states.ndim < 2:
            raise ValueError("states must hold one state per row")
        n = len(states)
        if not n == len(actions) == len(weighted_returns):
            raise ValueError("states, actions and targets differ in length")
        if self.states is None:
            self.states = np.zeros((self.capacity, *states.shape[1:]))
        if states.shape[1:] != self.states.shape[1:]:
            raise ValueError(
                f"states have shape {states.shape[1:]}, memory holds "
                f"{self.states.shape[1:]}"
            )
        keep = min(n, self.capacity)
        slots = (self._head + np.arange(n - keep, n)) % self.capacity
        self.states[slots] = states[n - keep:]
        self.actions[slots] = actions[n - keep:]
        self.targets[slots] = weighted_returns[n - keep:]
        self._head = (self._head + n) % self.capacity
        self._size = min(self._size + n, self.capacity)

    def sample(self, rng: np.random.Generator, k: int):
        """Uniform draw without replacement; clamps k to the current size.

        Returns (states, actions, weighted_returns) arrays.  Draw i is the
        i-th oldest row, so equal rngs draw the same rows as a FIFO list.
        """
        if self._size == 0:
            raise ValueError("cannot sample from an empty replay memory")
        k = min(k, self._size)
        idx = rng.choice(self._size, size=k, replace=False)
        rows = (idx + (self._head - self._size)) % self.capacity
        return self.states[rows], self.actions[rows], self.targets[rows]
