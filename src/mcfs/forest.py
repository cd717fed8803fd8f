"""Random forest of CART trees on binned columns, plus test metrics.

Trees grow level by level on uint8 bin codes, all trees of a batch at
once, and a fitted forest is one flat set of node arrays (see
``ForestModel``).  Neither growing nor predicting loops over nodes in
Python; the only per-tree loops draw each tree's random numbers.  A
training fold's bin edges and codes are computed once for all its columns
and kept on the dataset (``Dataset.derived``); ``_fold_codes`` codes every
fold, training or test, by those edges.

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
a fit's working set does not grow with the column count.
``_grow_forests`` works that count out and hands it to the kernel.

A batch's trees need not share their columns: each tree has its own row
in a column table over the codes the batch reads, and its own bin count.
``_grow_forests`` grows the trees of one or many forests together,
queued by candidate count, so a batch may hold several forests and a
forest may span batches.  ``train_forest`` is its one-forest case, and
``holdout_accuracy`` walks the test fold with each batch at once.
Every tree draws only from its own stream, so neither the order of the
calls nor the makeup of a batch changes a tree, a vote or a reward.
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

# cells per split-scoring block: on folds of up to 46,340 rows its integer
# temporaries are int32, 64 KiB each (int64 beyond), and its float scores
# 128 KiB; they fit in L2.  Blocks of 4,096 to 32,768 cells fitted equally
# fast; from 262,144 cells on, the speed-up over whole-level scoring was
# gone
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


def _fold_codes(edges, ds, cols) -> np.ndarray:
    """A fold's codes on the given columns, by the training fold's edges."""
    codes = np.empty((ds.n_samples, len(cols)), dtype=np.uint8)
    for j, c in enumerate(cols):
        codes[:, j] = np.searchsorted(edges[c], ds.features[:, c],
                                      side="left")
    return codes


def _binned(ds):
    """Every column's edges, its uint8 codes as one (rows, columns) matrix,
    and its bin count; kept on the dataset by ``Dataset.derived``."""
    edges = [_column_edges(col) for col in ds.features.T]
    codes = _fold_codes(edges, ds, range(ds.n_features))
    nbins = np.array([e.size + 1 for e in edges], dtype=np.int64)
    return edges, codes, nbins


def _grow_batch(codes, y, n_classes, tree_cols, tree_bins, rngs, m,
                max_depth, min_leaf):
    """Grow one bootstrap tree per rng, all trees level by level at once.

    Tree t splits on the columns of ``codes`` listed in ``tree_cols[t]``,
    whose largest bin count is ``tree_bins[t]``.  Every split draws ``m``
    candidates, the count ``_grow_forests`` queued the batch's trees by.
    Every per-tree random draw comes from that tree's own generator in a
    fixed order: the bootstrap, then one ``random((splittable nodes,
    columns))`` per level that has splittable nodes.  A tree therefore
    does not depend on which other trees share its batch, nor on the
    columns of ``codes`` it does not use.

    Returns the node arrays ``(feature, split_bin, left, leaf_class)``, where
    ``feature`` holds positions in ``codes``.  Node ids are batch-global in
    append order (level, then slot within the level), and ``left`` holds
    such ids; the first level is the roots, tree t's at id t.
    """
    T = len(rngs)
    n = codes.shape[0]
    C = n_classes
    widths = np.array([c.size for c in tree_cols], dtype=np.int64)
    table = np.zeros((T, int(widths.max())), dtype=np.int64)
    for t, c in enumerate(tree_cols):
        table[t, :c.size] = c
    # a larger bin count than a tree's own only adds bins no unit reaches,
    # which score as empty children and never win
    B = int(tree_bins.max())
    # a node's counts, and the sums of their squares, are at most n**2;
    # int32 holds that up to n = 46,340 and sums faster than int64
    count = np.int32 if n * n <= np.iinfo(np.int32).max else np.int64

    # units are distinct (tree, bootstrap row) pairs still at an open
    # node, weighted by how often the tree drew the row; a unit points at
    # its node by slot in the current level's node table
    u_w, u_slot, u_row = _bootstrap_units(rngs, n)
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
            (depth >= max_depth)
            | (tree_bins[act_tree] <= 1)
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
            del u_slot  # routing sets the next level's
            if split.size < n_act:
                live = u_rank >= 0
                u_row, u_y, u_w, u_rank = (
                    a[live] for a in (u_row, u_y, u_w, u_rank)
                )
            gain, col, sbin = _best_splits(
                codes, hist[split], act_tree[split], u_row, u_y, u_w,
                u_rank, table, widths, m, B, rngs, min_leaf,
            )
            split, col, sbin = split[gain], col[gain], sbin[gain]
        S = split.size

        feature = np.full(n_act, -1, dtype=np.int64)
        split_bin = np.full(n_act, -1, dtype=np.int64)
        left = np.full(n_act, -1, dtype=np.int64)
        leaf_class = np.argmax(hist, axis=1)
        leaf_class[split] = -1
        if S:
            feature[split] = col
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
        go_right = codes[u_row, col[u_rank]] > sbin[u_rank]
        u_slot = 2 * u_rank + go_right
        act_tree = np.repeat(act_tree[split], 2)
        base += n_act

    return tuple(np.concatenate(parts) for parts in zip(*levels))


def _bootstrap_units(rngs, n):
    """Each tree's n bootstrap draws of n rows as distinct (tree, row)
    units: their draw counts (floats, as ``bincount`` weights), trees and
    rows."""
    draws = np.concatenate([rng.integers(0, n, size=n) for rng in rngs])
    draws += np.repeat(np.arange(len(rngs), dtype=np.int64) * n, n)
    tally = np.bincount(draws, minlength=len(rngs) * n)
    unit = np.flatnonzero(tally)
    return (tally[unit].astype(np.float64), *np.divmod(unit, n))


def _best_splits(codes, h_split, split_tree, u_row, u_y, u_w, u_rank,
                 table, widths, m, B, rngs, min_leaf):
    """Best Gini split of each splittable slot over its candidate columns.

    ``h_split`` holds the splittable slots' class counts, and ``u_rank``
    points each unit at its slot's row there.  Tree t's columns are the
    first ``widths[t]`` positions of ``table[t]``, and a slot's ``m``
    candidates are the first of them in its tree's random order.  Returns,
    per slot, whether its best split gains, its column's position in
    ``codes`` and its split bin.  Scores are computed from integer counts of
    ``h_split``'s dtype, and the argmin runs over (candidate, bin) in that
    order, so ties go to the first candidate drawn, then the lowest bin.
    """
    S, C = h_split.shape
    count = h_split.dtype

    # candidate draws in slot order: one (slots, width) block per tree,
    # trees ascending; columns past a tree's own width never rank among
    # its candidates
    counts = np.bincount(split_tree, minlength=len(rngs)).tolist()
    drawn = np.concatenate([rngs[t].random(c * w) for t, (c, w)
                            in enumerate(zip(counts, widths.tolist())) if c])
    K = table.shape[1]
    noise = np.full((S, K), np.inf)
    noise[np.arange(K) < widths[split_tree, None]] = drawn
    cand = table[split_tree[:, None],
                 np.argsort(noise, axis=1, kind="stable")[:, :m]]
    jh = _joint_histogram(codes, cand, C, B, u_row, u_y, u_w, u_rank)
    jh = jh.astype(count).reshape(C, S, m, B)

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


def _joint_histogram(codes, cand, C, B, u_row, u_y, u_w, u_rank):
    """Weighted unit counts by (class, slot, candidate, bin), flat, as
    floats.  Class-major: each class is one contiguous slab, so sums over
    classes are slab-wise adds."""
    S, m = cand.shape
    key = ((u_y * S + u_rank) * (m * B))[:, None] + np.arange(m) * B
    key += np.take(codes, (u_row * codes.shape[1])[:, None]
                   + np.take(cand, u_rank, axis=0))
    return np.bincount(key.ravel(), weights=np.repeat(u_w, m),
                       minlength=C * S * m * B)


def _columns(train, subset) -> np.ndarray:
    """A subset's distinct column ids, ascending; rejects empty and
    out-of-range subsets."""
    cols = np.array(sorted(int(c) for c in set(subset)), dtype=np.int64)
    if cols.size == 0:
        raise ValueError("cannot train a forest on an empty feature subset")
    if cols[0] < 0 or cols[-1] >= train.n_features:
        raise ValueError("subset contains out-of-range column ids")
    return cols


def _grow_forests(train, subsets, seeds, n_trees, max_depth, min_leaf):
    """Check a call that grows one forest per (subset, seed) pair, and
    set it up: the call's column ids, ascending, and an iterator over its
    batches.  Each forest's tree streams are spawned from its seed, and
    the (forest, tree) pairs are queued by candidate count, the isqrt of
    the subset's size, and cut into batches of about ``_UNIT_BUDGET``
    draws times candidates; ``_grow_batch`` is handed that count.  A batch
    is each tree's forest, ascending, and ``_grow_batch``'s node arrays,
    with ``feature`` a position among the call's column ids.
    """
    if len(subsets) != len(seeds):
        raise ValueError("subsets and seeds must have the same length")
    cols = [_columns(train, s) for s in subsets]
    if n_trees < 1:
        raise ValueError("n_trees must be positive")
    if max_depth < 1 or min_leaf < 1:
        raise ValueError("max_depth and min_leaf must be positive")
    _, codes, nbins = train.derived(_binned)
    # every batch reads the codes of the call's columns, and each tree
    # its forest's positions among them
    used = np.unique(np.concatenate(cols))
    used_codes = np.ascontiguousarray(codes[:, used])
    places = [np.searchsorted(used, c) for c in cols]
    bins = np.array([nbins[c].max() for c in cols])

    queues = {}  # candidate count -> [(forest, stream)]
    for f, (c, seed) in enumerate(zip(cols, seeds)):
        queue = queues.setdefault(math.isqrt(c.size), [])
        queue.extend((f, s) for s in
                     np.random.SeedSequence(seed).spawn(n_trees))

    def batches():
        for m, queue in queues.items():
            size = max(1, _UNIT_BUDGET // (train.n_samples * m))
            for start in range(0, len(queue), size):
                owner, streams = zip(*queue[start:start + size])
                yield np.array(owner), _grow_batch(
                    used_codes, train.labels, train.n_classes,
                    [places[f] for f in owner], bins[list(owner)],
                    [np.random.default_rng(s) for s in streams], m,
                    max_depth, min_leaf,
                )

    return used, batches()


def train_forest(train, subset, *, n_trees: int, seed: int,
                 max_depth: int = 12, min_leaf: int = 2) -> ForestModel:
    """Fit a bagged CART forest on the given feature columns.

    Each tree draws its own bootstrap resample and rng stream derived from
    ``seed`` and considers sqrt(|subset|) random candidate columns per
    split (Gini).  Training on a single-class fold yields constant trees.
    """
    cols, batches = _grow_forests(train, [subset], [seed], n_trees,
                                  max_depth, min_leaf)
    parts = []
    n_nodes = 0
    for owner, (feature, split_bin, left, leaf_class) in batches:
        feature = np.where(feature >= 0, cols[feature], -1)
        left[left >= 0] += n_nodes
        roots = n_nodes + np.arange(owner.size)  # the batch's first level
        parts.append((feature, split_bin, left, leaf_class, roots))
        n_nodes += feature.size
    feature, split_bin, left, leaf_class, roots = (
        np.concatenate(p) for p in zip(*parts)
    )
    edges = train.derived(_binned)[0]
    return ForestModel(
        feature=feature, split_bin=split_bin, left=left,
        leaf_class=leaf_class, roots=roots,
        subset=tuple(int(c) for c in cols),
        n_classes=train.n_classes,
        edges={int(c): edges[c] for c in cols},
    )


def _add_votes(votes, node_col, split_bin, left, leaf_class, roots, owner,
               codes):
    """Walk each root's tree over every row of ``codes`` and count its
    leaf's class in ``votes[owner[tree], row]``.

    ``node_col`` is each node's column in ``codes``, or -1 at a leaf.  All
    trees of a walk batch step down together, one level per step, over a
    (trees x rows) node matrix.
    """
    n = codes.shape[0]
    C = votes.shape[-1]
    batch = max(1, _UNIT_BUDGET // max(1, n))
    for start in range(0, roots.size, batch):
        tops = roots[start:start + batch]
        node = np.repeat(tops, n)
        row = np.tile(np.arange(n), tops.size)
        walk = np.arange(node.size)
        while True:
            feat = node_col[node[walk]]
            inner = feat >= 0
            walk = walk[inner]
            if walk.size == 0:
                break
            at = node[walk]
            go_right = codes[row[walk], feat[inner]] > split_bin[at]
            node[walk] = left[at] + go_right
        key = np.repeat(owner[start:start + batch], n) * n + row
        votes += np.bincount(
            key * C + leaf_class[node], minlength=votes.size
        ).reshape(votes.shape)


def predict(model: ForestModel, ds) -> np.ndarray:
    """Majority-vote class per row; vote ties resolve to the smallest id."""
    cols = np.array(model.subset, dtype=np.int64)
    if cols[-1] >= ds.n_features:
        raise ValueError("dataset has fewer columns than the model subset")
    # codes hold the subset's columns only; node_col is each node's
    # position in the subset, or -1 at a leaf
    codes = _fold_codes(model.edges, ds, model.subset)
    tested = model.feature >= 0
    node_col = np.full(model.feature.size, -1, dtype=np.int64)
    node_col[tested] = np.searchsorted(cols, model.feature[tested])
    votes = np.zeros((1, ds.n_samples, model.n_classes), dtype=np.int64)
    _add_votes(votes, node_col, model.split_bin, model.left,
               model.leaf_class, model.roots,
               np.zeros(model.roots.size, dtype=np.int64), codes)
    return np.argmax(votes[0], axis=1)


def holdout_accuracy(train, test, subsets, seeds, *, n_trees: int,
                     max_depth: int = 12, min_leaf: int = 2) -> list:
    """Test-fold accuracy of one forest per subset, grown together.

    Forest i is ``train_forest(train, subsets[i], n_trees=n_trees,
    seed=seeds[i], ...)`` scored by ``evaluate`` on ``test``, tree for tree
    and vote for vote.  Its trees are grown in ``_grow_forests``' batches,
    which may mix forests; each batch walks the test fold at once and adds
    its trees' votes to their forests.  A tree draws only from its own
    stream, so neither the other subsets of the call nor their order
    change an accuracy.
    """
    used, batches = _grow_forests(train, subsets, seeds, n_trees,
                                  max_depth, min_leaf)
    test_codes = _fold_codes(train.derived(_binned)[0], test, used.tolist())
    C = train.n_classes
    votes = np.zeros((len(subsets), test.n_samples, C), dtype=np.int64)
    for owner, nodes in batches:
        # a batch votes into one range of forests; its nodes are dropped
        # once they have voted, before the next batch grows
        lo, hi = owner[0], owner[-1] + 1
        _add_votes(votes[lo:hi], *nodes, np.arange(owner.size), owner - lo,
                   test_codes)
        del nodes
    return [
        metrics_from_confusion(
            confusion_matrix(test.labels, np.argmax(v, axis=1), C)
        ).accuracy
        for v in votes
    ]


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
