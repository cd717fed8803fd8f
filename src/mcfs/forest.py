"""Random forest of CART trees on binned columns, plus test metrics.

Trees grow level by level on uint8 bin codes, all trees of a batch at
once, and a fitted forest is one flat set of node arrays (see
``ForestModel``).  Neither growing nor predicting loops over nodes in
Python; the only per-tree loops draw each tree's random numbers.  A
training fold's bin edges and codes are computed once for all its columns
and kept on the dataset (``Dataset.derived``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MAX_BINS = 32

# level-wise growth and prediction touch units = trees * rows at once;
# batches of trees keep the per-level scratch arrays bounded
_UNIT_BUDGET = 60_000


@dataclass(eq=False)
class ForestModel:
    """Bagged CART trees in flat structure-of-arrays form.

    Tree t owns the nodes from ``roots[t]`` up to the next tree's root,
    root first, then level by level, each level in the order its parents
    split.  ``feature[i]`` is the original column id tested at node i, or
    -1 for a leaf.  Rows whose binned code in that column is
    <= ``split_bin[i]`` go to ``left[i]`` and the others to
    ``left[i] + 1``: siblings are adjacent, so there is no right array.
    A leaf has ``split_bin`` and ``left`` -1 and votes for ``leaf_class``,
    the argmax of its class histogram; inner nodes have ``leaf_class`` -1.
    ``edges`` maps each subset column to its bin edges.
    """

    feature: np.ndarray
    split_bin: np.ndarray
    left: np.ndarray
    leaf_class: np.ndarray
    roots: np.ndarray
    subset: tuple
    n_classes: int
    edges: dict


@dataclass(eq=False)
class MetricReport:
    accuracy: float
    f1_macro: float
    f1_micro: float
    confusion: np.ndarray
    n_samples: int

    def as_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "f1_macro": self.f1_macro,
            "f1_micro": self.f1_micro,
            "confusion": self.confusion.tolist(),
            "n_samples": self.n_samples,
        }


def _column_edges(values: np.ndarray) -> np.ndarray:
    """Candidate split values: all midpoints when the column has few levels,
    interior quantiles otherwise.  A code is the count of edges < value, so
    code <= b exactly when value <= edges[b]."""
    uniq = np.unique(values)
    if uniq.size <= MAX_BINS:
        return (uniq[:-1] + uniq[1:]) / 2.0
    qs = np.arange(1, MAX_BINS) / MAX_BINS
    return np.unique(np.quantile(values, qs))


def _binned(ds):
    """Every column's edges, its uint8 codes as one (rows, columns) matrix,
    and its bin count; kept on the dataset by ``Dataset.derived``."""
    edges = [_column_edges(col) for col in ds.features.T]
    codes = np.empty(ds.features.shape, dtype=np.uint8)
    for c, e in enumerate(edges):
        codes[:, c] = np.searchsorted(e, ds.features[:, c], side="left")
    nbins = np.array([e.size + 1 for e in edges], dtype=np.int64)
    return edges, codes, nbins


def _grow_batch(codes_sub, y, n_classes, cols, n_bins, rngs,
                max_depth, min_leaf):
    """Grow one bootstrap tree per rng, all trees level by level at once.

    Every per-tree random draw comes from that tree's own generator in a
    fixed order: the bootstrap, then one ``random((splittable nodes, k))``
    per level that has splittable nodes.  The result therefore does not
    depend on how trees are batched together.  ``n_bins`` is the largest
    bin count among the columns.

    Returns the node arrays ``(tree, feature, split_bin, left,
    leaf_class)``, where ``tree`` is the batch-local tree id.  Node ids
    are batch-global in append order (level, then slot within the level),
    and ``left`` holds such ids.
    """
    T = len(rngs)
    n, k = codes_sub.shape
    C = n_classes

    # units are (tree, bootstrap row) pairs still at an open node; a unit
    # points at its node by slot in the current level's node table
    u_row = np.concatenate([rng.integers(0, n, size=n) for rng in rngs])
    u_y = y[u_row]
    u_slot = np.repeat(np.arange(T, dtype=np.int64), n)
    # tree of each slot; slots stay sorted by tree from level to level
    act_tree = np.arange(T, dtype=np.int64)
    base = 0  # global id of the level's first node
    levels = []

    for depth in range(max_depth + 1):
        n_act = act_tree.size
        hist = np.bincount(
            u_slot * C + u_y, minlength=n_act * C
        ).reshape(n_act, C)
        sizes = hist.sum(axis=1)
        is_leaf = (
            (depth >= max_depth or n_bins <= 1)
            | (sizes < 2 * min_leaf)
            | (hist.max(axis=1) == sizes)
        )
        split = np.flatnonzero(~is_leaf)
        if split.size:
            split, col, sbin = _best_splits(
                codes_sub, hist, sizes, split, act_tree, u_row, u_y, u_slot,
                n_bins, rngs, min_leaf,
            )
        S = split.size

        feature = np.full(n_act, -1, dtype=np.int64)
        split_bin = np.full(n_act, -1, dtype=np.int64)
        left = np.full(n_act, -1, dtype=np.int64)
        leaf_class = np.argmax(hist, axis=1)
        leaf_class[split] = -1
        if S:
            feature[split] = cols[col]
            split_bin[split] = sbin
            left[split] = base + n_act + 2 * np.arange(S)
        levels.append((act_tree, feature, split_bin, left, leaf_class))
        if S == 0:
            break

        # route the units of split nodes to their children; drop the rest
        rank = np.full(n_act, -1, dtype=np.int64)
        rank[split] = np.arange(S)
        u_rank = rank[u_slot]
        live = u_rank >= 0
        u_row, u_y, u_rank = u_row[live], u_y[live], u_rank[live]
        go_right = codes_sub[u_row, col[u_rank]] > sbin[u_rank]
        u_slot = 2 * u_rank + go_right
        act_tree = np.repeat(act_tree[split], 2)
        base += n_act

    return tuple(np.concatenate(parts) for parts in zip(*levels))


def _best_splits(codes_sub, hist, sizes, split, act_tree, u_row, u_y, u_slot,
                 B, rngs, min_leaf):
    """Best Gini split of each splittable slot over its candidate columns.

    Returns the slots that gain, with the subset position of their column
    and their split bin.  Scores are computed from integer counts, and the
    argmin runs over (candidate, bin) in that order, so ties go to the
    first candidate drawn, then the lowest bin.
    """
    C = hist.shape[1]
    S = split.size
    k = codes_sub.shape[1]
    m = max(1, math.isqrt(k))

    # candidate draws in slot order: one block per tree, trees ascending
    counts = np.bincount(act_tree[split], minlength=len(rngs)).tolist()
    noise = np.concatenate(
        [rngs[t].random((c, k)) for t, c in enumerate(counts) if c]
    )
    cand = np.argsort(noise, axis=1, kind="stable")[:, :m]

    rank = np.full(hist.shape[0], -1, dtype=np.int64)
    rank[split] = np.arange(S)
    u_rank = rank[u_slot]
    live = u_rank >= 0
    rank_l = u_rank[live]
    code_l = np.take(
        codes_sub, (u_row[live] * k)[:, None] + np.take(cand, rank_l, axis=0)
    )

    # class-major histogram (class, slot, candidate, bin): each class is
    # one contiguous slab, so sums over classes are slab-wise adds
    key = ((u_y[live] * S + rank_l) * (m * B))[:, None] + np.arange(m) * B
    key += code_l
    jh = np.bincount(key.ravel(), minlength=C * S * m * B).reshape(C, S, m, B)
    cum = np.cumsum(jh[..., :-1], axis=3)
    nl = cum.sum(axis=0)
    nr = sizes[split][:, None, None] - nl
    left_sq = np.square(cum).sum(axis=0)
    right = hist[split].T[:, :, None, None] - cum
    right_sq = np.square(right, out=right).sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        score = (nl - left_sq / nl) + (nr - right_sq / nr)
    score[np.minimum(nl, nr) < min_leaf] = np.inf

    score = score.reshape(S, -1)
    flat_best = np.argmin(score, axis=1)
    j_best, b_best = np.divmod(flat_best, B - 1)
    best = score[np.arange(S), flat_best]
    sz = sizes[split]
    parent = sz - np.square(hist[split]).sum(axis=1) / sz
    gain = np.isfinite(best) & (best < parent - 1e-12)
    return split[gain], cand[gain, j_best[gain]], b_best[gain]


def train_forest(train, subset, n_trees: int = 100, seed: int = 0,
                 max_depth: int = 12, min_leaf: int = 2) -> ForestModel:
    """Fit a bagged CART forest on the given feature columns.

    Each tree draws its own bootstrap resample and rng stream derived from
    ``seed`` and considers sqrt(|subset|) random candidate columns per
    split (Gini).  Training on a single-class fold yields constant trees.
    """
    cols = np.array(sorted(int(c) for c in set(subset)), dtype=np.int64)
    if cols.size == 0:
        raise ValueError("cannot train a forest on an empty feature subset")
    if cols[0] < 0 or cols[-1] >= train.n_features:
        raise ValueError("subset contains out-of-range column ids")
    if n_trees < 1:
        raise ValueError("n_trees must be positive")
    if max_depth < 1 or min_leaf < 1:
        raise ValueError("max_depth and min_leaf must be positive")

    edges, codes, nbins = train.derived(_binned)
    codes_sub = np.ascontiguousarray(codes[:, cols])
    n_bins = int(nbins[cols].max())

    streams = np.random.SeedSequence(seed).spawn(n_trees)
    batch = max(1, _UNIT_BUDGET // max(1, train.n_samples))
    parts = []
    n_nodes = 0
    for start in range(0, n_trees, batch):
        rngs = [np.random.default_rng(s) for s in streams[start:start + batch]]
        tree, feature, split_bin, left, leaf_class = _grow_batch(
            codes_sub, train.labels, train.n_classes,
            cols, n_bins, rngs, max_depth, min_leaf,
        )
        left[left >= 0] += n_nodes
        parts.append((tree + start, feature, split_bin, left, leaf_class))
        n_nodes += tree.size
    tree, feature, split_bin, left, leaf_class = (
        np.concatenate(p) for p in zip(*parts)
    )

    # a stable sort by tree keeps each tree's nodes in (level, slot) order
    order = np.argsort(tree, kind="stable")
    new_id = np.empty_like(order)
    new_id[order] = np.arange(order.size)
    left = left[order]
    inner = left >= 0
    left[inner] = new_id[left[inner]]
    return ForestModel(
        feature=feature[order],
        split_bin=split_bin[order],
        left=left,
        leaf_class=leaf_class[order],
        roots=np.searchsorted(tree[order], np.arange(n_trees)),
        subset=tuple(int(c) for c in cols),
        n_classes=train.n_classes,
        edges={int(c): edges[c] for c in cols},
    )


def predict(model: ForestModel, ds) -> np.ndarray:
    """Majority-vote class per row; vote ties resolve to the smallest id.

    All trees of a batch walk down together, one level per step, over a
    (trees x rows) node matrix.
    """
    cols = np.array(model.subset, dtype=np.int64)
    if cols[-1] >= ds.n_features:
        raise ValueError("dataset has fewer columns than the model subset")
    n = ds.n_samples
    codes = np.zeros((n, int(cols[-1]) + 1), dtype=np.uint8)
    for c in cols:
        codes[:, c] = np.searchsorted(
            model.edges[int(c)], ds.features[:, c], side="left"
        ).astype(np.uint8)
    C = model.n_classes
    votes = np.zeros(n * C, dtype=np.int64)
    batch = max(1, _UNIT_BUDGET // max(1, n))
    for start in range(0, model.roots.size, batch):
        roots = model.roots[start:start + batch]
        node = np.repeat(roots, n)
        row = np.tile(np.arange(n), roots.size)
        walk = np.arange(node.size)
        while True:
            feat = model.feature[node[walk]]
            inner = feat >= 0
            walk = walk[inner]
            if walk.size == 0:
                break
            at = node[walk]
            go_right = codes[row[walk], feat[inner]] > model.split_bin[at]
            node[walk] = model.left[at] + go_right
        votes += np.bincount(
            row * C + model.leaf_class[node], minlength=n * C
        )
    return np.argmax(votes.reshape(n, C), axis=1)


def evaluate(model: ForestModel, test) -> MetricReport:
    """Score the model on a held-out fold, on the columns it was fitted on."""
    pred = predict(model, test)
    cm = np.zeros((model.n_classes, model.n_classes), dtype=np.int64)
    np.add.at(cm, (test.labels, pred), 1)
    return metrics_from_confusion(cm)


def metrics_from_confusion(cm: np.ndarray) -> MetricReport:
    """Accuracy plus macro/micro F1 from a (true x predicted) count matrix.

    Macro-F1 averages per-class F1 over classes that occur in either the
    labels or the predictions.  With one label per row, micro-F1 equals
    accuracy.
    """
    cm = np.asarray(cm, dtype=np.int64)
    total = cm.sum()
    if total == 0:
        raise ValueError("empty confusion matrix")
    tp = np.diag(cm)
    support = cm.sum(axis=1)
    predicted = cm.sum(axis=0)
    accuracy = float(tp.sum() / total)
    seen = (support + predicted) > 0
    denom = 2 * tp + (predicted - tp) + (support - tp)
    f1 = np.zeros(cm.shape[0])
    nz = seen & (denom > 0)
    f1[nz] = 2 * tp[nz] / denom[nz]
    f1_macro = float(f1[seen].mean())
    return MetricReport(
        accuracy=accuracy,
        f1_macro=f1_macro,
        f1_micro=accuracy,
        confusion=cm,
        n_samples=int(total),
    )
