"""The from-scratch forest: fitting, prediction, metrics, determinism."""

import functools
import hashlib

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from mcfs import data, forest


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
    from 0 at its root as in the flat layout's per-tree order."""
    ends = np.append(model.roots[1:], model.feature.size)
    for start, end in zip(model.roots, ends):
        left = model.left[start:end]
        yield np.stack([
            model.feature[start:end],
            model.split_bin[start:end],
            np.where(left >= 0, left - start, -1),
            model.leaf_class[start:end],
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
        # growing trees one per batch must give the exact same forest
        ds = separable_dataset(120, seed=3)
        full = forest.train_forest(ds, [0, 1, 2, 3], n_trees=8, seed=9)
        pred = forest.predict(full, ds)
        monkeypatch.setattr(forest, "_UNIT_BUDGET", 1)
        single = forest.train_forest(ds, [0, 1, 2, 3], n_trees=8, seed=9)
        for name in NODE_FIELDS:
            assert_array_equal(getattr(full, name), getattr(single, name))
        # prediction walks one tree per batch here
        assert_array_equal(forest.predict(single, ds), pred)

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
# classes of the test fold.  "wide" grows its 50 trees in two batches.
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
    @pytest.mark.parametrize(
        "name, subset, seed, n_trees, max_depth, min_leaf, digest, n_nodes,"
        " predictions",
        GOLDEN,
    )
    def test_same_forest_as_reference(self, name, subset, seed, n_trees,
                                      max_depth, min_leaf, digest, n_nodes,
                                      predictions):
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

    def test_as_dict_round_trips(self):
        cm = np.array([[3, 1], [0, 4]])
        d = forest.metrics_from_confusion(cm).as_dict()
        assert d["n_samples"] == 8
        assert d["confusion"] == [[3, 1], [0, 4]]
