"""Helpers that only the tests need: flat parameter views of an MLP, a CSV
writer for datasets, and the entropy of a code sequence."""

import csv

import numpy as np

from mcfs import data


def get_flat(net) -> np.ndarray:
    """Every weight, then every bias, of ``net`` as one vector."""
    return np.concatenate([p.ravel() for p in net.weights + net.biases])


def set_flat(net, flat: np.ndarray) -> None:
    """Write a vector laid out as ``get_flat`` back into ``net`` in place."""
    pos = 0
    for p in net.weights + net.biases:
        p[...] = flat[pos:pos + p.size].reshape(p.shape)
        pos += p.size
    if pos != flat.size:
        raise ValueError("flat vector does not match parameter count")


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
