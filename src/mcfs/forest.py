"""Random forest of CART trees on binned columns, plus test metrics.

Trees grow level by level on uint8 bin codes, all trees of a batch at
once, and a fitted forest is one flat set of node arrays (see
``ForestModel``).  Neither growing nor predicting loops over nodes in
Python; the only per-tree loops draw each tree's random numbers.  A
training fold's bin edges and codes are computed once for all its columns
and kept on the dataset (``Dataset.derived``).

Nodes stay in growth order, so a batch's trees interleave; prediction
starts at each tree's root and follows child links only.

Each level's split search counts one joint (class, slot, candidate, bin)
histogram, then scores it in blocks of consecutive slots, the cache-aware
blocks of XGBoost (Chen & Guestrin, KDD 2016, section 4.2).  Scored a
whole level at a time, the cumulative counts, squares and scores of a
100-tree fit on 1600 rows were ~10 MB arrays each; a block keeps them
small enough to stay in the L2 cache.  A slot's counts, arithmetic and
tie order do not depend on its block, so neither do the trees.

A unit is a distinct (tree, bootstrap row) pair, weighted by how often
the tree drew the row; about 63% of the draws are distinct.  Histograms
are weighted counts, converted back to exact integers.  They, and the
cumulative counts and squares that score a split, are int32 while a
node's squared counts fit in it (folds of up to 46,340 rows), int64
beyond.  Every count and square is exact either way, so the scores, and
so the trees, do not depend on the width.

Trees grow in batches whose largest per-level temporaries, the (units x
candidates) arrays of histogram keys and weights, hold at most about
``_UNIT_BUDGET`` elements: the budget bounds bootstrap draws, and units
are never more than draws.  A split has isqrt(columns) candidates.  So
a fit's working set does not grow with the column count.  Trees do not
depend on their batch either.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

MAX_BINS = 32

# elements per (units x candidates) temporary of a growing batch, counted
# as if every bootstrap draw were a unit (about 63% are distinct), or per
# (trees x rows) walk array of a predicting batch: 65,536 8-byte elements
# are 512 KiB.  That holds 10 trees x 1280 rows x 5 candidates, so a
# 10-tree reward fit on up to 35 columns is one batch; a flat 8,192
# slowed such fits by a quarter
_UNIT_BUDGET = 65_536

# cells per split-scoring block: 128 KiB per int64 temporary fits in L2.
# Blocks of 4,096 to 32,768 cells fitted equally fast; from 262,144 cells
# on, the speed-up over whole-level scoring was gone
_SCORE_CELLS = 16_384


@dataclass(eq=False)
class ForestModel:
    """Bagged CART trees in flat structure-of-arrays form.

    Nodes are in growth order: batch, then level, then parent split order.
    ``roots[t]`` is tree t's root, and tree t is the nodes reachable from
    it.  ``feature[i]`` is the original column id tested at node i, or -1
    for a leaf.  Rows whose binned code in that column is <=
    ``split_bin[i]`` go to ``left[i]`` and the others to ``left[i] + 1``:
    siblings are adjacent, so there is no right array.  A leaf has
    ``split_bin`` and ``left`` -1 and votes for ``leaf_class``, the argmax
    of its class histogram; inner nodes have ``leaf_class`` -1.  ``edges``
    maps each subset column to its bin edges.
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
        return {**asdict(self), "confusion": self.confusion.tolist()}


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

    Returns the node arrays ``(feature, split_bin, left, leaf_class)``.
    Node ids are batch-global in append order (level, then slot within
    the level), and ``left`` holds such ids; the first level is the
    roots, tree t's at id t.
    """
    T = len(rngs)
    n, k = codes_sub.shape
    C = n_classes
    # a node's counts, and the sums of their squares, are at most n**2;
    # int32 holds that up to n = 46,340 and sums faster than int64
    count = np.int32 if n * n <= np.iinfo(np.int32).max else np.int64

    # units are distinct (tree, bootstrap row) pairs still at an open
    # node, weighted by how often the tree drew the row; a unit points at
    # its node by slot in the current level's node table
    draws = np.concatenate([rng.integers(0, n, size=n) for rng in rngs])
    draws += np.repeat(np.arange(T, dtype=np.int64) * n, n)
    tally = np.bincount(draws, minlength=T * n)
    unit = np.flatnonzero(tally)
    u_w = tally[unit].astype(np.float64)  # bincount weights are floats
    u_slot, u_row = np.divmod(unit, n)
    u_y = y[u_row]
    # tree of each slot; slots stay sorted by tree from level to level
    act_tree = np.arange(T, dtype=np.int64)
    base = 0  # global id of the level's first node
    levels = []

    for depth in range(max_depth + 1):
        n_act = act_tree.size
        hist = np.bincount(
            u_slot * C + u_y, weights=u_w, minlength=n_act * C
        ).astype(count).reshape(n_act, C)
        sizes = hist.sum(axis=1)
        is_leaf = (
            (depth >= max_depth or n_bins <= 1)
            | (sizes < 2 * min_leaf)
            | (hist.max(axis=1) == sizes)
        )
        split = np.flatnonzero(~is_leaf)
        if split.size:
            # keep the units of splittable slots only, pointing at their
            # slot's rank among them
            rank = np.full(n_act, -1, dtype=np.int64)
            rank[split] = np.arange(split.size)
            u_rank = rank[u_slot]
            if split.size < n_act:
                live = u_rank >= 0
                u_row, u_y, u_w, u_rank = (
                    a[live] for a in (u_row, u_y, u_w, u_rank)
                )
            gain, col, sbin = _best_splits(
                codes_sub, hist[split], act_tree[split], u_row, u_y, u_w,
                u_rank, n_bins, rngs, min_leaf,
            )
            split, col, sbin = split[gain], col[gain], sbin[gain]
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
        levels.append((feature, split_bin, left, leaf_class))
        if S == 0:
            break

        # route the units of split nodes to their children; drop those of
        # splittable slots that found no gain
        if S < gain.size:
            live = gain[u_rank]
            u_row, u_y, u_w = u_row[live], u_y[live], u_w[live]
            u_rank = (np.cumsum(gain) - 1)[u_rank[live]]
        go_right = codes_sub[u_row, col[u_rank]] > sbin[u_rank]
        u_slot = 2 * u_rank + go_right
        act_tree = np.repeat(act_tree[split], 2)
        base += n_act

    return tuple(np.concatenate(parts) for parts in zip(*levels))


def _best_splits(codes_sub, h_split, split_tree, u_row, u_y, u_w, u_rank,
                 B, rngs, min_leaf):
    """Best Gini split of each splittable slot over its candidate columns.

    ``h_split`` holds the splittable slots' class counts, and ``u_rank``
    points each unit at its slot's row there.  Returns, per slot, whether
    its best split gains, the subset position of its column and its split
    bin.  Scores are computed from integer counts of ``h_split``'s dtype,
    and the argmin runs over (candidate, bin) in that order, so ties go
    to the first candidate drawn, then the lowest bin.
    """
    S, C = h_split.shape
    count = h_split.dtype
    k = codes_sub.shape[1]
    m = max(1, math.isqrt(k))

    # candidate draws in slot order: one block per tree, trees ascending
    counts = np.bincount(split_tree, minlength=len(rngs)).tolist()
    noise = np.concatenate(
        [rngs[t].random((c, k)) for t, c in enumerate(counts) if c]
    )
    cand = np.argsort(noise, axis=1, kind="stable")[:, :m]
    code = np.take(
        codes_sub, (u_row * k)[:, None] + np.take(cand, u_rank, axis=0)
    )

    # class-major histogram (class, slot, candidate, bin): each class is
    # one contiguous slab, so sums over classes are slab-wise adds
    key = ((u_y * S + u_rank) * (m * B))[:, None] + np.arange(m) * B
    key += code
    jh = np.bincount(
        key.ravel(), weights=np.repeat(u_w, m), minlength=C * S * m * B
    ).astype(count).reshape(C, S, m, B)

    # score blocks of consecutive slots (see the module docstring)
    sz = h_split.sum(axis=1, dtype=count)
    flat_best = np.empty(S, dtype=np.int64)
    best = np.empty(S)
    step = max(1, _SCORE_CELLS // (C * m * B))
    for lo in range(0, S, step):
        blk = slice(lo, lo + step)
        cum = np.cumsum(jh[:, blk, :, :-1], axis=3, dtype=count)
        nl = cum.sum(axis=0, dtype=count)
        nr = sz[blk, None, None] - nl
        left_sq = np.square(cum).sum(axis=0, dtype=count)
        right = h_split[blk].T[:, :, None, None] - cum
        right_sq = np.square(right, out=right).sum(axis=0, dtype=count)
        with np.errstate(divide="ignore", invalid="ignore"):
            score = (nl - left_sq / nl) + (nr - right_sq / nr)
        score[np.minimum(nl, nr) < min_leaf] = np.inf
        score = score.reshape(nl.shape[0], -1)
        fb = flat_best[blk] = np.argmin(score, axis=1)
        best[blk] = score[np.arange(fb.size), fb]

    j_best, b_best = np.divmod(flat_best, B - 1)
    parent = sz - np.square(h_split).sum(axis=1, dtype=count) / sz
    gain = np.isfinite(best) & (best < parent - 1e-12)
    return gain, cand[np.arange(S), j_best], b_best


def train_forest(train, subset, n_trees: int, seed: int,
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
    m = max(1, math.isqrt(cols.size))  # split candidates, as _best_splits
    batch = max(1, _UNIT_BUDGET // (train.n_samples * m))
    parts = []
    n_nodes = 0
    for start in range(0, n_trees, batch):
        rngs = [np.random.default_rng(s) for s in streams[start:start + batch]]
        feature, split_bin, left, leaf_class = _grow_batch(
            codes_sub, train.labels, train.n_classes,
            cols, n_bins, rngs, max_depth, min_leaf,
        )
        left[left >= 0] += n_nodes
        roots = n_nodes + np.arange(len(rngs))  # the batch's first level
        parts.append((feature, split_bin, left, leaf_class, roots))
        n_nodes += feature.size
    feature, split_bin, left, leaf_class, roots = (
        np.concatenate(p) for p in zip(*parts)
    )
    return ForestModel(
        feature=feature, split_bin=split_bin, left=left,
        leaf_class=leaf_class, roots=roots,
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
    # codes hold the subset's columns only; node_col is each node's
    # position in the subset, or -1 at a leaf
    codes = np.empty((n, cols.size), dtype=np.uint8)
    for j, c in enumerate(model.subset):
        codes[:, j] = np.searchsorted(
            model.edges[c], ds.features[:, c], side="left"
        )
    tested = model.feature >= 0
    node_col = np.full(model.feature.size, -1, dtype=np.int64)
    node_col[tested] = np.searchsorted(cols, model.feature[tested])
    C = model.n_classes
    votes = np.zeros(n * C, dtype=np.int64)
    batch = max(1, _UNIT_BUDGET // max(1, n))
    for start in range(0, model.roots.size, batch):
        roots = model.roots[start:start + batch]
        node = np.repeat(roots, n)
        row = np.tile(np.arange(n), roots.size)
        walk = np.arange(node.size)
        while True:
            feat = node_col[node[walk]]
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
    return metrics_from_confusion(
        confusion_matrix(test.labels, pred, model.n_classes)
    )


def confusion_matrix(labels, pred, n_classes: int) -> np.ndarray:
    """(true x predicted) counts; ``pred`` may be one class for all rows."""
    return np.bincount(
        labels * n_classes + pred, minlength=n_classes * n_classes
    ).reshape(n_classes, n_classes)


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
