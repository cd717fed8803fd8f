"""Histogram mutual information and filter-style feature ranking.

A dataset's column codes, label MI and the pairwise MI asked of it so far
are kept on the dataset itself (``Dataset.derived``).
"""

from __future__ import annotations

import numpy as np

MAX_INTEGER_LEVELS = 32
N_BINS = 10


def discretize(values: np.ndarray) -> np.ndarray:
    """Map a numeric column to small integer codes.

    Integer-valued columns with at most MAX_INTEGER_LEVELS distinct values
    are used as-is (each level one code).  Anything else gets equal-frequency
    binning into N_BINS bins; duplicated quantiles collapse, so fewer bins
    may come back.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError("discretize expects a 1-d column")
    uniq = np.unique(values)
    if uniq.size <= MAX_INTEGER_LEVELS and np.all(uniq == np.round(uniq)):
        return np.searchsorted(uniq, values).astype(np.int64)
    qs = np.arange(1, N_BINS) / N_BINS
    edges = np.unique(np.quantile(values, qs))
    return np.searchsorted(edges, values, side="right").astype(np.int64)


def mutual_information(x: np.ndarray, y: np.ndarray) -> float:
    """Mutual information of two discrete code sequences, in nats.

    Estimated from the empirical joint distribution.  Symmetric, and equals
    the entropy of the column when both arguments are the same sequence.
    """
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("inputs must be 1-d sequences of equal length")
    if x.size == 0:
        raise ValueError("inputs are empty")
    x = x - x.min()
    y = y - y.min()
    nx = int(x.max()) + 1
    ny = int(y.max()) + 1
    joint = np.bincount(x * ny + y, minlength=nx * ny).reshape(nx, ny)
    n = x.size
    pj = joint / n
    px = pj.sum(axis=1)
    py = pj.sum(axis=0)
    mask = pj > 0
    ix, iy = np.nonzero(mask)
    vals = pj[mask]
    mi = float((vals * (np.log(vals) - np.log(px[ix]) - np.log(py[iy]))).sum())
    return max(mi, 0.0)


def _column_codes(ds) -> np.ndarray:
    """Every column's ``discretize`` codes, one uint8 row per column.

    There are at most MAX_INTEGER_LEVELS codes, so a byte holds one;
    int64 rows would cost 8 bytes per cell of the dataset.
    """
    codes = np.empty(ds.features.shape[::-1], dtype=np.uint8)
    for c, col in enumerate(ds.features.T):
        codes[c] = discretize(col)
    return codes


def _label_mi(ds) -> np.ndarray:
    return np.array([mutual_information(codes, ds.labels)
                     for codes in ds.derived(_column_codes)])


def _pair_table(ds) -> dict:
    """Pairwise MI by (i, j) with i <= j, filled as pairs are asked for."""
    return {}


def feature_label_mi(ds) -> np.ndarray:
    """Per-column mutual information with the labels (kept on the dataset)."""
    return ds.derived(_label_mi)


def pairwise_mi(ds, i: int, j: int) -> float:
    """Mutual information between two feature columns (kept, symmetric)."""
    if i > j:
        i, j = j, i
    table = ds.derived(_pair_table)
    if (i, j) not in table:
        codes = ds.derived(_column_codes)
        table[i, j] = mutual_information(codes[i], codes[j])
    return table[i, j]


def kbest_select(ds, k: int) -> list[int]:
    """Indices of the k columns with highest label MI, ties to lower index."""
    if not 1 <= k <= ds.n_features:
        raise ValueError(f"k must be in [1, {ds.n_features}], got {k}")
    mi = feature_label_mi(ds)
    order = np.argsort(-mi, kind="stable")
    return sorted(int(i) for i in order[:k])
