"""Fixed-length state description of a selected feature subset.

``meta_stats`` describes a subset by descriptive statistics of its
columns.  A dataset's column statistics are computed once and kept on the
dataset itself (``Dataset.derived``).
"""

from __future__ import annotations

import numpy as np

META_STATS_LEN = 49
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
