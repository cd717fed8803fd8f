"""Tabular control oracle for the advice-shaping tests.

A finite deterministic MDP solved exactly by value iteration, and a check
that potential-based advice shifts every optimal action value by the
potential of its state and leaves greedy choices unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(eq=False)
class TabularMDP:
    """Finite deterministic MDP: reward and successor tables per (s, a)."""

    rewards: np.ndarray      # (n_states, n_actions)
    next_state: np.ndarray   # (n_states, n_actions) int
    gamma: float

    def __post_init__(self):
        self.rewards = np.asarray(self.rewards, dtype=np.float64)
        self.next_state = np.asarray(self.next_state, dtype=np.int64)
        if self.rewards.ndim != 2 or self.rewards.shape != self.next_state.shape:
            raise ValueError("reward and successor tables must match (S, A)")
        s = self.rewards.shape[0]
        if self.next_state.min() < 0 or self.next_state.max() >= s:
            raise ValueError("successor states out of range")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must lie in [0, 1)")

    @property
    def n_states(self) -> int:
        return self.rewards.shape[0]

    @property
    def n_actions(self) -> int:
        return self.rewards.shape[1]


def value_iteration(mdp: TabularMDP, tol: float = 1e-12,
                    max_iter: int = 100_000) -> np.ndarray:
    """Optimal Q table by fixed-point iteration to sup-norm residual tol."""
    q = np.zeros_like(mdp.rewards)
    for _ in range(max_iter):
        v = q.max(axis=1)
        nq = mdp.rewards + mdp.gamma * v[mdp.next_state]
        if np.abs(nq - q).max() <= tol:
            return nq
        q = nq
    raise RuntimeError("value iteration did not converge")


def shape_mdp(mdp: TabularMDP, potential: np.ndarray, coeff: float) -> TabularMDP:
    """Same dynamics with advice folded into the reward table."""
    potential = np.asarray(potential, dtype=np.float64)
    if potential.shape != (mdp.n_states,):
        raise ValueError("potential must give one value per state")
    shaped = (
        mdp.rewards
        + coeff * (mdp.gamma * potential[mdp.next_state] - potential[:, None])
    )
    return TabularMDP(shaped, mdp.next_state.copy(), mdp.gamma)


@dataclass(eq=False)
class InvarianceReport:
    """How the advice-shaped problem compares with the base problem."""

    max_offset_error: float
    policies_agree: bool
    decisive_states: int
    q_base: np.ndarray
    q_shaped: np.ndarray


def check_invariance(mdp: TabularMDP, potential: np.ndarray, coeff: float,
                     tol: float = 1e-12, gap: float = 1e-8) -> InvarianceReport:
    """Solve both problems and compare.

    The shaped optimum should equal the base optimum minus coeff times the
    potential of the state, and greedy choices should match wherever the
    base action values are separated by more than ``gap``.
    """
    q_base = value_iteration(mdp, tol=tol)
    q_shaped = value_iteration(shape_mdp(mdp, potential, coeff), tol=tol)
    potential = np.asarray(potential, dtype=np.float64)
    expected = q_base - coeff * potential[:, None]
    max_err = float(np.abs(q_shaped - expected).max())

    q_sorted = np.sort(q_base, axis=1)
    decisive = q_sorted[:, -1] - q_sorted[:, -2] > gap
    agree = bool(
        np.all(
            q_base[decisive].argmax(axis=1) == q_shaped[decisive].argmax(axis=1)
        )
    )
    return InvarianceReport(
        max_offset_error=max_err,
        policies_agree=agree,
        decisive_states=int(decisive.sum()),
        q_base=q_base,
        q_shaped=q_shaped,
    )
