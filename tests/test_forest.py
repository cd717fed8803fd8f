"""The from-scratch forest: fitting, prediction, metrics, determinism."""

import functools
import hashlib
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from mcfs import data, forest
from support import LEVEL_SUBSETS, levels_split


def separable_dataset(n=200, seed=0):
    # two well-separated Gaussian blobs on 2 of 4 columns
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=n)
    x = rng.normal(size=(n, 4))
    x[:, 1] += 4.0 * y
    x[:, 3] -= 4.0 * y
    return data.Dataset(x, y, ["a", "b", "c", "d"], 2)


NODE_FIELDS = ("feature", "split_bin", "left", "leaf_class", "roots")


def tree_nodes(model):
    """Each tree's (feature, split_bin, left, leaf_class) rows, numbered
    from 0 at its root breadth-first, left child before right: level by
    level, each level in the order its parents split."""
    for root in model.roots.tolist():
        order = [root]
        for node in order:  # the list grows while it is walked
            left = int(model.left[node])
            if left >= 0:
                order += [left, left + 1]
        local = {node: i for i, node in enumerate(order)}
        yield np.stack([
            model.feature[order],
            model.split_bin[order],
            [local.get(child, -1) for child in model.left[order].tolist()],
            model.leaf_class[order],
        ])


class TestTrainForest:
    def test_fits_separable_data(self):
        ds = separable_dataset()
        model = forest.train_forest(ds, [1, 3], n_trees=20, seed=0)
        report = forest.evaluate(model, ds)
        assert report.accuracy >= 0.95

    def test_deterministic_per_seed(self):
        ds = separable_dataset(150, seed=2)
        a = forest.train_forest(ds, [0, 1, 2, 3], n_trees=10, seed=5)
        b = forest.train_forest(ds, [0, 1, 2, 3], n_trees=10, seed=5)
        assert_array_equal(forest.predict(a, ds), forest.predict(b, ds))

    def test_seed_changes_model(self):
        ds = separable_dataset(150, seed=2)
        a = forest.train_forest(ds, [0, 2], n_trees=5, seed=1)
        b = forest.train_forest(ds, [0, 2], n_trees=5, seed=2)
        pa, pb = forest.predict(a, ds), forest.predict(b, ds)
        # different bootstrap draws; identical output would be suspicious
        assert not (
            np.array_equal(a.feature, b.feature) and np.array_equal(pa, pb)
        )

    def test_batch_size_does_not_change_trees(self, monkeypatch):
        # growing trees one per batch must give the exact same trees; the
        # stored node order follows the batches, so compare tree by tree
        ds = separable_dataset(120, seed=3)
        grow = forest._grow_batch
        batch_sizes = []

        def spy(*args):
            batch_sizes.append(len(args[5]))  # one rng per tree
            return grow(*args)

        monkeypatch.setattr(forest, "_grow_batch", spy)
        full = forest.train_forest(ds, [0, 1, 2, 3], n_trees=8, seed=9)
        pred = forest.predict(full, ds)
        monkeypatch.setattr(forest, "_UNIT_BUDGET", 1)
        single = forest.train_forest(ds, [0, 1, 2, 3], n_trees=8, seed=9)
        assert batch_sizes == [8] + [1] * 8
        for a, b in zip(tree_nodes(full), tree_nodes(single), strict=True):
            assert_array_equal(a, b)
        # prediction walks one tree per batch here
        assert_array_equal(forest.predict(single, ds), pred)

    def test_nodes_in_growth_order(self, monkeypatch):
        # 120 rows x 2 candidates per unit: a budget of 500 grows the 7
        # trees in batches of 2, 2, 2 and 1
        ds = separable_dataset(120, seed=7)
        monkeypatch.setattr(forest, "_UNIT_BUDGET", 500)
        model = forest.train_forest(ds, [0, 1, 2, 3], n_trees=7, seed=4)
        assert model.roots.size == 7
        inner = model.feature >= 0
        assert_array_equal(model.left >= 0, inner)
        # walk each tree from its root through left and left + 1: every
        # node must be reached, and from one root only
        owner = np.full(model.feature.size, -1)
        for t, root in enumerate(model.roots):
            level = np.array([root])
            while level.size:
                assert (owner[level] == -1).all()
                owner[level] = t
                at = level[inner[level]]
                level = np.concatenate([model.left[at], model.left[at] + 1])
        assert (owner >= 0).all()
        # a batch's trees interleave: nodes are not in per-tree blocks
        assert (np.diff(owner) < 0).any()

    @pytest.mark.parametrize("n_classes", [2, 3, 4])
    @pytest.mark.parametrize("min_leaf", [1, 2, 5])
    def test_score_block_size_does_not_change_trees(self, monkeypatch,
                                                    n_classes, min_leaf):
        # scoring the slots in small blocks must pick the same splits as
        # scoring each level in one pass
        ds, _ = data.synth_classification(300, 9, 4, seed=n_classes,
                                          n_classes=n_classes)
        fit = functools.partial(forest.train_forest, ds, range(9),
                                n_trees=6, seed=min_leaf, min_leaf=min_leaf)
        monkeypatch.setattr(forest, "_SCORE_CELLS", 10**9)
        whole = fit()
        monkeypatch.setattr(forest, "_SCORE_CELLS", 1000)
        blocked = fit()
        for name in NODE_FIELDS:
            assert_array_equal(getattr(whole, name), getattr(blocked, name))
        assert_array_equal(forest.predict(blocked, ds),
                           forest.predict(whole, ds))

    def test_units_are_distinct_weighted_draws(self, monkeypatch):
        # the root level of a 10-tree fit on 320 rows: one unit per
        # distinct (tree, row) draw, weighted by its repeats
        ds = separable_dataset(320, seed=8)
        best_splits = forest._best_splits
        calls = []

        def spy(*args):
            calls.append(args)
            return best_splits(*args)

        monkeypatch.setattr(forest, "_best_splits", spy)
        forest.train_forest(ds, [0, 1, 2, 3], n_trees=10, seed=3)
        _, h_split, split_tree, u_row, _, u_w, u_rank = calls[0][:7]
        assert_array_equal(split_tree, np.arange(10))  # every root splits
        assert u_row.size < 10 * 320
        assert u_w.sum() == 10 * 320
        assert h_split.sum() == 10 * 320
        pair = split_tree[u_rank] * 320 + u_row
        assert np.unique(pair).size == pair.size

    def test_scores_exact_past_int32_squares(self):
        # a stump on 50,000 rows, 95% of them class 0: the root's squared
        # class counts pass 2**31, so int32 scores would wrap.  Its split
        # must be the best of a brute-force int64 Gini search over the
        # tree's own bootstrap
        n, seed = 50_000, 4
        rng = np.random.default_rng(0)
        y = (rng.random(n) < 0.05).astype(np.int64)
        x = (3.0 * y + rng.normal(size=n))[:, None]
        ds = data.Dataset(x, y, ["a"], 2)
        model = forest.train_forest(ds, [0], n_trees=1, seed=seed,
                                    max_depth=1)

        tree_rng = np.random.default_rng(
            np.random.SeedSequence(seed).spawn(1)[0])
        draw = tree_rng.integers(0, n, size=n)
        codes = forest._binned(ds)[1][draw, 0].astype(np.int64)
        counts = np.zeros((codes.max() + 1, 2), dtype=np.int64)
        np.add.at(counts, (codes, y[draw]), 1)
        total = counts.sum(axis=0)
        assert total.max() ** 2 > 2**31
        cum = np.cumsum(counts, axis=0)[:-1]
        nl = cum.sum(axis=1)
        nr = n - nl
        score = ((nl - (cum**2).sum(axis=1) / nl)
                 + (nr - ((total - cum)**2).sum(axis=1) / nr))
        score[np.minimum(nl, nr) < 2] = np.inf
        b = int(np.argmin(score))
        assert score[b] < n - (total**2).sum() / n  # the split gains

        assert_array_equal(model.feature, [0, -1, -1])
        assert_array_equal(model.split_bin, [b, -1, -1])
        assert_array_equal(model.leaf_class,
                           [-1, cum[b].argmax(), (total - cum[b]).argmax()])

    def test_rejects_bad_subsets(self):
        ds = separable_dataset(50)
        with pytest.raises(ValueError):
            forest.train_forest(ds, [], n_trees=2, seed=0)
        with pytest.raises(ValueError):
            forest.train_forest(ds, [0, 9], n_trees=2, seed=0)

    def test_duplicate_columns_collapse(self):
        # subsets have set semantics: repeats change nothing
        ds = separable_dataset(80, seed=6)
        a = forest.train_forest(ds, [1, 1, 3], n_trees=4, seed=2)
        b = forest.train_forest(ds, [1, 3], n_trees=4, seed=2)
        assert_array_equal(forest.predict(a, ds), forest.predict(b, ds))

    def test_predictions_are_valid_classes(self):
        ds = separable_dataset(80, seed=4)
        model = forest.train_forest(ds, [0, 1, 2], n_trees=5, seed=1)
        preds = forest.predict(model, ds)
        assert preds.shape == (80,)
        assert set(np.unique(preds)) <= {0, 1}

    def test_single_feature_tree(self):
        ds = separable_dataset(100, seed=5)
        model = forest.train_forest(ds, [1], n_trees=10, seed=0)
        report = forest.evaluate(model, ds)
        assert report.accuracy >= 0.9

    def test_vote_tie_goes_to_smallest_class(self):
        # tree 0 splits column 0 at its only edge: class 2 left, 0 right;
        # tree 1 is a single leaf voting 1, so every row is a 1-1 tie
        model = forest.ForestModel(
            feature=np.array([0, -1, -1, -1]),
            split_bin=np.array([0, -1, -1, -1]),
            left=np.array([1, -1, -1, -1]),
            leaf_class=np.array([-1, 2, 0, 1]),
            roots=np.array([0, 3]),
            subset=(0,),
            n_classes=3,
            edges={0: np.array([0.0])},
        )
        ds = data.Dataset(np.array([[-1.0], [1.0]]), np.array([0, 1]),
                          ["a"], 3)
        assert_array_equal(forest.predict(model, ds), [1, 0])


@functools.lru_cache(maxsize=None)
def golden_split(name):
    if name == "levels":
        # few-level integer columns and one constant column
        rng = np.random.default_rng(21)
        x = rng.integers(0, 5, size=(260, 6)).astype(float)
        x[:, 5] = 1.0
        y = (x[:, 0] + x[:, 1] + rng.integers(0, 3, size=260)) % 3
        ds = data.Dataset(x, y.astype(np.int64), list("abcdef"), 3)
    else:
        n, d, k, seed, c = {
            "bin": (240, 12, 4, 1, 2),
            "tri": (300, 10, 5, 2, 3),
            "quad": (360, 8, 6, 3, 4),
            "wide": (1300, 30, 10, 4, 2),
        }[name]
        ds, _ = data.synth_classification(n, d, k, seed=seed, n_classes=c)
    return data.split_dataset(ds, 0.8, seed=0)


def node_digest(model):
    h = hashlib.sha256()
    for nodes in tree_nodes(model):
        h.update(np.int64(nodes.shape[1]).tobytes())
        h.update(np.ascontiguousarray(nodes, dtype="<i8").tobytes())
    return h.hexdigest()[:16]


# Forests grown by the per-node reference implementation this one
# replaced: dataset, subset, seed, n_trees, max_depth, min_leaf, digest of
# the node arrays in tree-local numbering, node count, and the predicted
# classes of the test fold.  At the default unit budget, "wide" grows its
# 50 trees in three batches.
GOLDEN = [
    ('bin', range(12), 0, 10, 12, 2, '68bb8eb33df60954', 500,
     '001100111110011001110000011100010011001000110000'),
    ('bin', (0, 3, 5), 7, 5, 4, 1, '9756429a785b2f83', 107,
     '111101010111001111110010111100100110101011011110'),
    ('bin', (2,), 3, 3, 12, 5, 'ce529d86fb5f2f35', 149,
     '000010110000110110100100111101110010000100001001'),
    ('tri', range(10), 11, 10, 12, 2, '76676e353ddced7e', 776,
     '000210011000110020001000011002000100112022100000100000111120'),
    ('tri', (1, 4, 6, 8), 2, 25, 12, 1, '361734667d8c70bd', 3127,
     '200112001000111010101020010020000120012212100010122000121120'),
    ('quad', range(8), 5, 10, 12, 2, '0f4ceabd96238eb2', 1122,
     '322223020210332002202021222223022001120302202223130122210000'
     '302200220120'),
    ('quad', (0, 2, 5), 9, 4, 4, 5, 'fd9462dcf5a2322d', 110,
     '200023030232010123200333203233000000320300222023323033200000'
     '001200012310'),
    ('levels', range(6), 1, 10, 12, 2, 'a45c00bf45e0eee7', 996,
     '0101000120010000000000010101020000002100012000102000'),
    ('levels', (5,), 0, 3, 12, 2, '779e43cf0cb80212', 3,
     '0000000000000000000000000000000000000000000000000000'),
    ('wide', range(0, 30, 2), 13, 50, 12, 2, '160c0dadccb3009e', 14414,
     '010010111010000111100010111001101100001011011001101000110100'
     '111101110010000110000100001111001000011000110101011011010010'
     '011101010101100101111011000111000000100101011010001110000010'
     '011100100000111101001001010000111110110111010011100010110011'
     '10100111000010011100'),
]


class TestHoldoutAccuracy:
    def test_equals_each_forest_fitted_and_scored_alone(self, monkeypatch):
        # 160 rows: 12, 6, 4 and 3 trees per batch at isqrt 1 to 4, so
        # 5-tree forests span batches and batches mix forests
        sp = levels_split()
        grow = forest._grow_batch
        batches = []

        def spy(*args):
            batches.append({tuple(c) for c in args[3]})
            return grow(*args)

        monkeypatch.setattr(forest, "_grow_batch", spy)
        monkeypatch.setattr(forest, "_UNIT_BUDGET", 2000)
        seeds = range(10, 10 + len(LEVEL_SUBSETS))
        got = forest.holdout_accuracy(sp.train, sp.test, LEVEL_SUBSETS,
                                      seeds, n_trees=5)
        assert any(len(b) > 1 for b in batches)
        monkeypatch.setattr(forest, "_UNIT_BUDGET", 65_536)
        want = [forest.evaluate(forest.train_forest(sp.train, s, n_trees=5,
                                                    seed=seed), sp.test)
                .accuracy for s, seed in zip(LEVEL_SUBSETS, seeds)]
        assert got == want

    def test_rejects_bad_subsets(self):
        sp = levels_split()
        for bad in ([], [0, 18]):
            with pytest.raises(ValueError):
                forest.holdout_accuracy(sp.train, sp.test, [(0,), bad],
                                        [0, 1], n_trees=2)


class TestBinnedView:
    def test_matches_per_column_edges_and_codes(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(90, 3))
        # a column with three integer levels gets midpoint edges
        x[:, 1] = np.arange(90) % 3
        ds = data.Dataset(x, np.arange(90) % 2, ["a", "b", "c"], 2)
        edges, codes, nbins = forest._binned(ds)
        assert codes.dtype == np.uint8
        assert_array_equal(edges[1], [0.5, 1.5])
        for c in range(ds.n_features):
            col = ds.features[:, c]
            want = forest._column_edges(col)
            assert_array_equal(edges[c], want)
            assert_array_equal(codes[:, c], np.searchsorted(want, col))
            assert nbins[c] == want.size + 1


class TestGoldenForest:
    # one slot per scoring block, the default blocks, and one whole-level
    # block must all grow the pinned forests; so must one tree per batch,
    # the default batches, and one batch for the whole forest
    @pytest.mark.parametrize(
        "unit_budget", [1, forest._UNIT_BUDGET, 10**9],
        ids=["tree", "batch", "forest"],
    )
    @pytest.mark.parametrize(
        "score_cells", [1, forest._SCORE_CELLS, 10**9],
        ids=["slot", "default", "level"],
    )
    @pytest.mark.parametrize(
        "name, subset, seed, n_trees, max_depth, min_leaf, digest, n_nodes,"
        " predictions",
        GOLDEN,
    )
    def test_same_forest_as_reference(self, name, subset, seed, n_trees,
                                      max_depth, min_leaf, digest, n_nodes,
                                      predictions, score_cells, unit_budget,
                                      monkeypatch):
        monkeypatch.setattr(forest, "_SCORE_CELLS", score_cells)
        monkeypatch.setattr(forest, "_UNIT_BUDGET", unit_budget)
        sp = golden_split(name)
        model = forest.train_forest(
            sp.train, subset, n_trees=n_trees, seed=seed,
            max_depth=max_depth, min_leaf=min_leaf,
        )
        assert model.roots.size == n_trees
        assert model.feature.size == n_nodes
        assert node_digest(model) == digest
        pred = forest.predict(model, sp.test)
        assert "".join(map(str, pred)) == predictions


class TestGeneralization:
    def test_holdout_beats_chance(self):
        accs = []
        for seed in range(3):
            ds, _ = data.synth_classification(300, 8, 3, seed=seed, noise=0.3)
            sp = data.split_dataset(ds, 0.8, seed=seed)
            model = forest.train_forest(
                sp.train, list(range(8)), n_trees=30, seed=seed
            )
            accs.append(forest.evaluate(model, sp.test).accuracy)
        assert np.median(accs) > 0.7

    def test_three_class_problem(self):
        rng = np.random.default_rng(11)
        y = rng.integers(0, 3, size=240)
        x = rng.normal(size=(240, 3))
        x[:, 0] += 3.0 * y
        ds = data.Dataset(x, y, ["a", "b", "c"], 3)
        sp = data.split_dataset(ds, 0.8, seed=0)
        model = forest.train_forest(sp.train, [0, 1, 2], n_trees=20, seed=0)
        report = forest.evaluate(model, sp.test)
        assert report.accuracy >= 0.8
        assert report.confusion.shape == (3, 3)


class TestMetrics:
    def test_perfect_confusion(self):
        cm = np.diag([7, 5])
        report = forest.metrics_from_confusion(cm)
        assert report.accuracy == 1.0
        assert report.f1_macro == 1.0
        assert report.f1_micro == 1.0
        assert report.n_samples == 12

    def test_known_confusion_by_hand(self):
        # rows true, cols predicted
        cm = np.array([[8, 2], [1, 9]])
        report = forest.metrics_from_confusion(cm)
        assert_allclose(report.accuracy, 17 / 20)
        p0, r0 = 8 / 9, 8 / 10
        p1, r1 = 9 / 11, 9 / 10
        f0 = 2 * p0 * r0 / (p0 + r0)
        f1 = 2 * p1 * r1 / (p1 + r1)
        assert_allclose(report.f1_macro, (f0 + f1) / 2, rtol=1e-12)
        assert_allclose(report.f1_micro, 17 / 20, rtol=1e-12)

    def test_micro_equals_accuracy(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            cm = rng.integers(0, 20, size=(3, 3))
            cm[0, 0] += 1  # keep at least one sample
            report = forest.metrics_from_confusion(cm)
            assert_allclose(report.f1_micro, report.accuracy, rtol=1e-12)

    def test_confusion_matrix_counts_true_by_predicted(self):
        labels = np.array([0, 0, 1, 2, 2, 2])
        assert_array_equal(
            forest.confusion_matrix(labels, np.array([0, 1, 1, 2, 0, 2]), 3),
            [[1, 1, 0], [0, 1, 0], [1, 0, 2]])
        # one predicted class for every row, as the empty-subset baseline
        assert_array_equal(forest.confusion_matrix(labels, 2, 3),
                           [[0, 0, 2], [0, 0, 1], [0, 0, 3]])

    def test_as_dict_round_trips(self):
        cm = np.array([[3, 1], [0, 4]])
        d = forest.metrics_from_confusion(cm).as_dict()
        assert d["n_samples"] == 8
        assert d["confusion"] == [[3, 1], [0, 4]]


def traced(call):
    """``call()``'s result and the peak bytes tracemalloc saw meanwhile."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestFitMemory:
    @pytest.mark.parametrize("n_features", [60, 240])
    def test_large_fit_peak_stays_bounded(self, n_features):
        # a 100-tree reference fit on a wide shape's outer training fold
        # (1600 rows).  Batches sized by rows alone peaked at 11.9 MiB on
        # 60 columns and 21.0 MiB on 240, growing with the candidates per
        # split; sized by rows times candidates, at 4.7 and 4.6 MiB.  The
        # pass that renumbered each tree's nodes into a block set that
        # peak; nodes kept in growth order peak at 3.4 and 3.3 MiB, split
        # searches over distinct (tree, row) units at 2.7 and 2.8, and
        # with the bootstrap draws freed before the first level at 2.5
        ds, _ = data.synth_classification(2000, n_features, 10, seed=0)
        train = data.split_dataset(ds, 0.8, seed=0).train
        train.derived(forest._binned)
        _, peak = traced(lambda: forest.train_forest(
            train, range(n_features), n_trees=100, seed=0))
        assert peak < 4 * 2**20


class TestRewardBatchMemory:
    def test_twenty_forest_call_peak_stays_bounded(self):
        # 20 reward forests of 10 trees, 30 of 60 columns each, on a wide
        # shape's inner training fold (1280 rows): growing batches hold
        # about 10 trees, and the 20 forests' votes are 20 x 320 x 10.
        # It peaked at 1.9 MiB
        ds, _ = data.synth_classification(2000, 60, 10, seed=0)
        outer = data.split_dataset(ds, 0.8, seed=0)
        inner = data.split_dataset(outer.train, 0.8, seed=0)
        assert inner.train.n_samples == 1280
        inner.train.derived(forest._binned)
        rng = np.random.default_rng(1)
        subsets = [rng.choice(60, size=30, replace=False) for _ in range(20)]
        accs, peak = traced(lambda: forest.holdout_accuracy(
            inner.train, inner.test, subsets, range(20), n_trees=10))
        assert len(accs) == 20
        assert peak < 4 * 2**20


class TestPredictMemory:
    def test_scratch_sized_by_subset(self):
        # a one-column model on the last of 5000 columns: a code matrix as
        # wide as the highest column id peaked at 10.7 MiB.  The same
        # column alone grows the same trees, so predicts the same classes
        rng = np.random.default_rng(3)
        y = rng.integers(0, 2, size=2000)
        col = (y + rng.normal(size=2000))[:, None]
        alone = data.Dataset(col, y, ["f"], 2)
        want = forest.predict(
            forest.train_forest(alone, [0], n_trees=10, seed=0), alone)
        x = np.zeros((2000, 5000))
        x[:, -1:] = col
        ds = data.Dataset(x, y, [f"f{i}" for i in range(5000)], 2)
        model = forest.train_forest(ds, [4999], n_trees=10, seed=0)
        got, peak = traced(lambda: forest.predict(model, ds))
        assert peak < 2 * 2**20
        assert_array_equal(got, want)
