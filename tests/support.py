"""Helpers that only the tests need: flat parameter views of an MLP, a CSV
writer for datasets, the entropy of a code sequence, and the plain forms
that the fast state statistics, Adam step, replay ring, stop rule,
weight recalculation and returns are pinned against."""

import csv
from collections import deque

import numpy as np

from mcfs import data, nn


def get_flat(net) -> np.ndarray:
    """Every weight, then every bias, of ``net`` as one vector (a copy)."""
    return net.params.copy()


def set_flat(net, flat: np.ndarray) -> None:
    """Write a vector laid out as ``get_flat`` back into ``net`` in place."""
    if flat.shape != net.params.shape:
        raise ValueError("flat vector does not match parameter count")
    net.params[...] = flat


def flat_grads(grads) -> np.ndarray:
    """``MLP.backward`` gradients laid out as ``get_flat``."""
    return np.concatenate([g.ravel() for g in grads])


def write_csv(ds, path, label_col: str = "label") -> None:
    """Write a dataset to CSV; inverse of ``data.load_csv`` up to float text."""
    if label_col in ds.feature_names:
        raise data.DataError(
            f"label column name {label_col!r} clashes with a feature"
        )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(ds.feature_names) + [label_col])
        for i in range(ds.n_samples):
            writer.writerow(
                [repr(float(v)) for v in ds.features[i]] + [int(ds.labels[i])]
            )


def entropy(codes: np.ndarray) -> float:
    """Shannon entropy of a code sequence, in nats."""
    codes = np.asarray(codes, dtype=np.int64)
    counts = np.bincount(codes - codes.min())
    p = counts[counts > 0] / codes.size
    return float(-(p * np.log(p)).sum())


def percentile_seven(matrix: np.ndarray) -> np.ndarray:
    """``state._seven`` written with ``np.percentile``: its reference."""
    q = np.percentile(matrix, [25.0, 50.0, 75.0], axis=-1)
    return np.stack([
        matrix.mean(axis=-1),
        matrix.std(axis=-1),
        matrix.min(axis=-1),
        q[0],
        q[1],
        q[2],
        matrix.max(axis=-1),
    ])


class ListAdam:
    """Adam run one parameter array at a time on copies of ``params``: the
    reference for ``MLP.adam_step``."""

    def __init__(self, params):
        self.params = [np.array(p) for p in params]
        self._m = [np.zeros_like(p) for p in self.params]
        self._v = [np.zeros_like(p) for p in self.params]
        self._t = 0

    def step(self, grads, lr: float) -> None:
        self._t += 1
        t = self._t
        for p, g, m, v in zip(self.params, grads, self._m, self._v):
            m *= nn.ADAM_BETA1
            m += (1 - nn.ADAM_BETA1) * g
            v *= nn.ADAM_BETA2
            v += (1 - nn.ADAM_BETA2) * np.square(g)
            mhat = m / (1 - nn.ADAM_BETA1 ** t)
            vhat = v / (1 - nn.ADAM_BETA2 ** t)
            p -= lr * mhat / (np.sqrt(vhat) + nn.ADAM_EPS)


class DequeReplay:
    """Bounded FIFO of (state, action, weighted_return) tuples: the
    reference for ``qlearner.ReplayMemory``."""

    def __init__(self, capacity: int):
        self._items = deque(maxlen=capacity)

    def push(self, state, action, weighted_return) -> None:
        self._items.append(
            (np.asarray(state, dtype=np.float64), int(action),
             float(weighted_return))
        )

    def sample(self, rng: np.random.Generator, k: int):
        k = min(k, len(self._items))
        idx = rng.choice(len(self._items), size=k, replace=False)
        return [self._items[i] for i in idx]


def stop_probability(importance: float, stop_threshold: float) -> float:
    """The walk's chance of stopping after a step, one scalar at a time: the
    reference for ``1 - engine.survival_probability``."""
    if importance < 0 or stop_threshold < 0:
        raise ValueError("importance and stop_threshold must be non-negative")
    if stop_threshold == 0:
        return 0.0
    return max(0.0, 1.0 - importance / stop_threshold)


def step_recalc_weights(importances, stop_threshold: float,
                        survival_mean: float | None = None) -> np.ndarray:
    """Rejection-control weights with each step's survival computed on its
    own, and the episode's own mean survival when ``survival_mean`` is
    None: the reference for ``engine.recalc_weights``."""
    imp = np.array(importances, dtype=np.float64)
    surv = np.array([
        1.0 if stop_threshold == 0 else min(1.0, w / stop_threshold)
        for w in imp
    ])
    if survival_mean is None:
        survival_mean = float(surv.mean())
    return np.divide(survival_mean * imp, surv,
                     out=np.zeros(imp.shape), where=imp > 0)


def two_loop_returns(rewards, gamma: float, mode: str) -> np.ndarray:
    """Returns with one loop per mode: the reference for
    ``engine.compute_returns``."""
    r = np.asarray(rewards, dtype=np.float64)
    out = np.empty_like(r)
    acc = 0.0
    if mode == "forward":
        for i in range(r.size - 1, -1, -1):
            acc = r[i] + gamma * acc
            out[i] = acc
    else:
        for i in range(r.size):
            acc = gamma * acc + r[i]
            out[i] = acc
    return out
