"""Fixed-length state descriptions of a selected feature subset.

``make_represent`` turns a dataset and a state mode into the function the
walk calls on each subset: ``"meta"`` describes the subset by descriptive
statistics, and ``"autoencoder"`` trains an autoencoder on the dataset and
describes the subset by its bottleneck code.  A dataset's column statistics
and column means are computed once and kept on the dataset itself
(``Dataset.derived``).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .nn import MLP, mse_loss_grad

STATE_MODES = ("meta", "autoencoder")
META_STATS_LEN = 49
LATENT_DIM = 32
AE_HIDDEN = 128
_QUARTILES = np.array([0.25, 0.5, 0.75])


def _seven(matrix: np.ndarray) -> np.ndarray:
    """mean, std, min, 25%, median, 75%, max along the last axis.

    The quartiles are ``np.percentile``'s default linear interpolation,
    written out on one sort so that they come out bit for bit the same:
    numpy interpolates from the upper neighbour when the weight is at
    least one half.
    """
    ordered = np.sort(matrix, axis=-1)
    n = ordered.shape[-1]
    pos = (n - 1) * _QUARTILES
    below = np.floor(pos)
    t = pos - below
    below = below.astype(np.intp)
    lo = ordered[..., below]
    # a single value (n = 1) has no upper neighbour, and its weight t is 0
    hi = ordered[..., np.minimum(below + 1, n - 1)]
    diff = hi - lo
    q = np.where(t >= 0.5, hi - diff * (1 - t), lo + diff * t)
    return np.stack([
        matrix.mean(axis=-1),
        matrix.std(axis=-1),
        ordered[..., 0],
        q[..., 0],
        q[..., 1],
        q[..., 2],
        ordered[..., -1],
    ])


def _column_stats(ds) -> np.ndarray:
    return _seven(ds.features.T)  # (7, n_features)


def meta_stats(ds, subset) -> np.ndarray:
    """Descriptive-statistics state vector of the selected sub-matrix.

    Seven statistics are taken down each selected column, then the same
    seven are taken across columns of each per-column statistic, giving a
    flat 7 x 7 = 49 vector.  The empty subset maps to all zeros.
    """
    cols = sorted(int(c) for c in set(subset))
    if not cols:
        return np.zeros(META_STATS_LEN)
    if cols[0] < 0 or cols[-1] >= ds.n_features:
        raise ValueError("subset contains out-of-range column ids")
    per_col = ds.derived(_column_stats)[:, cols]  # (7, k)
    return _seven(per_col).T.ravel()  # row-major over column-stat


def _column_means(ds) -> np.ndarray:
    return ds.features.mean(axis=0)


def subset_mean_vector(ds, subset) -> np.ndarray:
    """Column means of the selected columns, zero-padded to full width."""
    v = np.zeros(ds.n_features)
    cols = sorted(int(c) for c in set(subset))
    if cols:
        if cols[0] < 0 or cols[-1] >= ds.n_features:
            raise ValueError("subset contains out-of-range column ids")
        v[cols] = ds.derived(_column_means)[cols]
    return v


def train_autoencoder(ds, seed: int = 0, n_subsets: int = 256,
                      epochs: int = 120, batch: int = 32,
                      lr: float = 0.01):
    """Fit an autoencoder on mean vectors of random subsets of ``ds``.

    The net is symmetric: two ReLU layers on each side (128 wide, 32-dim
    code) and a linear output layer.  Returns the net and the per-epoch mean
    loss curve.
    """
    root = np.random.SeedSequence(seed)
    init_ss, data_ss, shuffle_ss = root.spawn(3)
    rng = np.random.default_rng(data_ss)
    d = ds.n_features
    means = ds.derived(_column_means)

    masks = rng.random((n_subsets, d)) < rng.uniform(
        0.1, 0.9, size=(n_subsets, 1)
    )
    masks[~masks.any(axis=1), rng.integers(0, d)] = True
    inputs = masks * means[None, :]

    ae = MLP([d, AE_HIDDEN, LATENT_DIM, AE_HIDDEN, d], seed=init_ss)
    shuffle_rng = np.random.default_rng(shuffle_ss)
    losses = []
    for _ in range(epochs):
        order = shuffle_rng.permutation(n_subsets)
        epoch_losses = []
        for start in range(0, n_subsets, batch):
            xb = inputs[order[start:start + batch]]
            out, cache = ae.forward(xb)
            loss, dout = mse_loss_grad(out, xb)
            grads = ae.backward(cache, dout)
            ae.adam_step(grads, lr)
            epoch_losses.append(loss)
        losses.append(float(np.mean(epoch_losses)))
    return ae, losses


def autoencode_state(ae: MLP, ds, subset) -> np.ndarray:
    """Bottleneck code of the subset's padded mean vector."""
    if ds.n_features != ae.sizes[0]:
        raise ValueError("autoencoder width does not match the dataset")
    _, (_, acts) = ae.forward(subset_mean_vector(ds, subset))
    return acts[2][0]  # the activation after the bottleneck layer


def make_represent(ds, mode: str, seed: int = 0) -> Callable:
    """State function for ``ds``: descriptive statistics or bottleneck codes.

    ``"autoencoder"`` trains its autoencoder here, seeded by ``seed``.
    """
    if mode == "meta":
        return lambda subset: meta_stats(ds, subset)
    if mode == "autoencoder":
        ae, _ = train_autoencoder(ds, seed=seed)
        return lambda subset: autoencode_state(ae, ds, subset)
    raise ValueError(f"state mode must be one of {STATE_MODES}")
