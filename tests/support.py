"""Helpers that only the tests need: flat parameter views of an MLP, a CSV
writer for datasets, the entropy of a code sequence, and the plain forms
that the fast state statistics, Adam step and replay ring are pinned
against."""

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
