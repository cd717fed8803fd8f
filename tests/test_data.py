"""Dataset container, CSV loading, splitting, and the synthetic generator."""

import pickle
import re
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from mcfs import data, forest, info, state
from support import write_csv


def tiny_dataset(n=12, d=3, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    y = rng.integers(0, 2, size=n)
    y[:2] = [0, 1]  # both classes present
    return data.Dataset(x, y, [f"f{i}" for i in range(d)], 2)


class TestDataset:
    def test_basic_properties(self):
        ds = tiny_dataset(10, 4)
        assert ds.n_samples == 10
        assert ds.n_features == 4
        assert ds.labels.dtype == np.int64

    def test_take_keeps_names_and_classes(self):
        ds = tiny_dataset()
        sub = ds.take(np.array([0, 2, 4]))
        assert sub.n_samples == 3
        assert sub.feature_names == ds.feature_names
        assert sub.n_classes == ds.n_classes
        assert_array_equal(sub.features, ds.features[[0, 2, 4]])

    def test_rejects_non_finite(self):
        x = np.ones((4, 2))
        x[1, 0] = np.nan
        with pytest.raises(data.DataError):
            data.Dataset(x, [0, 1, 0, 1], ["a", "b"], 2)

    def test_rejects_magnitudes_beyond_bound(self):
        x = np.ones((4, 2))
        x[2, 1] = data.MAX_ABS_FEATURE
        data.Dataset(x, [0, 1, 0, 1], ["a", "b"], 2)
        x[2, 1] = -np.nextafter(data.MAX_ABS_FEATURE, np.inf)
        cap = re.escape(f"{data.MAX_ABS_FEATURE:g}")
        with pytest.raises(data.DataError, match=cap):
            data.Dataset(x, [0, 1, 0, 1], ["a", "b"], 2)

    def test_rejects_label_out_of_range(self):
        with pytest.raises(data.DataError):
            data.Dataset(np.ones((3, 2)), [0, 1, 2], ["a", "b"], 2)

    def test_rejects_single_class_count(self):
        with pytest.raises(data.DataError):
            data.Dataset(np.ones((3, 2)), [0, 0, 0], ["a", "b"], 1)

    def test_rejects_duplicate_names(self):
        with pytest.raises(data.DataError):
            data.Dataset(np.ones((3, 2)), [0, 1, 0], ["a", "a"], 2)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(data.DataError):
            data.Dataset(np.ones((3, 2)), [0, 1], ["a", "b"], 2)


def used_dataset():
    """A fold with every derived view built: bins, MI and state."""
    ds, _ = data.synth_classification(80, 5, 2, seed=3)
    model = forest.train_forest(ds, [0, 2, 4], n_trees=4, seed=1)
    info.feature_label_mi(ds)
    info.pairwise_mi(ds, 1, 3)
    state.meta_stats(ds, {0, 1})
    return ds, model


class TestDerivedViews:
    def test_built_once_and_kept(self):
        ds = tiny_dataset()
        calls = []

        def build(d):
            calls.append(d)
            return d.features.sum(axis=0)

        first = ds.derived(build)
        assert ds.derived(build) is first
        assert calls == [ds]

    def test_take_copies_share_no_views(self):
        ds, _ = used_dataset()
        sub = ds.take(np.arange(40))
        assert sub._derived == {}
        # a kept view of the parent would give the parent's column mean
        assert_allclose(
            state.meta_stats(sub, {0})[0], sub.features[:, 0].mean()
        )

    def test_freed_with_last_reference(self):
        ds, _ = used_dataset()
        assert len(ds._derived) == 5
        ref = weakref.ref(ds)
        del ds
        assert ref() is None

    def test_pickle_round_trip_keeps_views(self):
        ds, model = used_dataset()
        back = pickle.loads(pickle.dumps(ds))
        assert set(back._derived) == set(ds._derived)
        again = forest.train_forest(back, [0, 2, 4], n_trees=4, seed=1)
        for name in ("feature", "split_bin", "left", "leaf_class", "roots"):
            assert_array_equal(getattr(again, name), getattr(model, name))
        assert info.pairwise_mi(back, 3, 1) == info.pairwise_mi(ds, 1, 3)


class TestCsv:
    def test_round_trip(self, tmp_path):
        ds = tiny_dataset(15, 4, seed=3)
        path = tmp_path / "ds.csv"
        write_csv(ds, path)
        back = data.load_csv(path, "label")
        assert back.feature_names == ds.feature_names
        assert back.n_classes == ds.n_classes
        assert_allclose(back.features, ds.features)
        assert_array_equal(back.labels, ds.labels)

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "ds.csv"
        path.write_text("a,b\n1,2\n3,4\n")
        with pytest.raises(data.DataError, match="label column"):
            data.load_csv(path, "label")

    def test_empty_cell_points_at_row_and_column(self, tmp_path):
        path = tmp_path / "ds.csv"
        path.write_text("a,b,label\n1,2,0\n1,,1\n")
        with pytest.raises(data.DataError, match="row 2, column 'b'"):
            data.load_csv(path, "label")

    def test_empty_label_points_at_row_and_column(self, tmp_path):
        # an empty label is a missing value, not a class of its own
        path = tmp_path / "ds.csv"
        path.write_text("a,b,label\n1,2,0\n3,4,1\n1,1,0\n4,3,1\n"
                        "0,2,0\n2,2,\n")
        with pytest.raises(data.DataError,
                           match="row 6, column 'label': empty cell"):
            data.load_csv(path, "label")

    @pytest.mark.parametrize("text", [
        "a,b,label\n1,2,x\n3,4,y\n5,6,x\n7,8,y\n\n",
        "a,b,label\n1,2,x\n3,4,y\n\n5,6,x\n\n\n7,8,y\n",
        "\n\na,b,label\n1,2,x\n3,4,y\n5,6,x\n7,8,y\n",
    ], ids=["trailing", "inside", "before-header"])
    def test_blank_lines_are_skipped(self, tmp_path, text):
        path = tmp_path / "ds.csv"
        path.write_text(text)
        ds = data.load_csv(path, "label")
        assert_array_equal(ds.features, [[1, 2], [3, 4], [5, 6], [7, 8]])
        assert_array_equal(ds.labels, [0, 1, 0, 1])

    def test_only_blank_lines_is_empty(self, tmp_path):
        path = tmp_path / "ds.csv"
        path.write_text("\n\n")
        with pytest.raises(data.DataError, match="is empty"):
            data.load_csv(path, "label")

    def test_rows_after_a_blank_line_keep_their_number(self, tmp_path):
        # the blank line is row 2, so the row with the empty cell is row 3,
        # and a row of empty cells is still rejected
        path = tmp_path / "ds.csv"
        path.write_text("a,b,label\n1,2,0\n\n1,,1\n")
        with pytest.raises(data.DataError, match="row 3, column 'b'"):
            data.load_csv(path, "label")
        path.write_text("a,b,label\n1,2,0\n3,4,1\n\n,,\n")
        with pytest.raises(data.DataError, match="row 4, column 'a'"):
            data.load_csv(path, "label")

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "ds.csv"
        path.write_text("a,b,label\n1,2,0\nx,3,1\n")
        with pytest.raises(data.DataError, match="non-numeric"):
            data.load_csv(path, "label")

    def test_duplicate_header(self, tmp_path):
        path = tmp_path / "ds.csv"
        path.write_text("a,a,label\n1,2,0\n3,4,1\n")
        with pytest.raises(data.DataError, match="duplicate"):
            data.load_csv(path, "label")

    def test_single_class_file(self, tmp_path):
        path = tmp_path / "ds.csv"
        path.write_text("a,label\n1,0\n2,0\n")
        with pytest.raises(data.DataError, match="single label class"):
            data.load_csv(path, "label")

    def test_labels_factorized_in_first_appearance_order(self, tmp_path):
        path = tmp_path / "ds.csv"
        path.write_text("a,label\n1,spam\n2,ham\n3,spam\n4,eggs\n")
        ds = data.load_csv(path, "label")
        assert_array_equal(ds.labels, [0, 1, 0, 2])
        assert ds.n_classes == 3

    @pytest.mark.parametrize("first", ["label", "a"])
    def test_byte_order_mark_is_not_part_of_a_name(self, tmp_path, first):
        # spreadsheets save "CSV UTF-8" with a BOM before the first name
        others = [c for c in ("label", "a", "b") if c != first]
        header = ",".join([first, *others])
        path = tmp_path / "bom.csv"
        path.write_bytes(("\ufeff" + header + "\n1,2,0\n3,4,1\n")
                         .encode("utf-8"))
        ds = data.load_csv(path, "label")
        assert ds.feature_names == [c for c in (first, *others)
                                    if c != "label"]
        assert ds.n_samples == 2

    @pytest.mark.parametrize("text", ["caf\xe9,label\n1,0\n2,1\n",
                                      "a,label\n1,caf\xe9\n2,1\n"],
                             ids=["header", "cell"])
    def test_latin1_file_is_data_error_naming_it(self, tmp_path, text):
        # a Latin-1 "é" is byte 0xe9, which starts no valid UTF-8 sequence
        path = tmp_path / "latin.csv"
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(data.DataError) as exc:
            data.load_csv(path, "label")
        assert repr(str(path)) in str(exc.value)
        assert "not UTF-8" in str(exc.value) and "0xe9" in str(exc.value)

    def test_missing_file_is_data_error(self, tmp_path):
        with pytest.raises((data.DataError, OSError)):
            data.load_csv(tmp_path / "absent.csv", "label")


def row_ids(part):
    """Row ids of a split part built from ``indexed_dataset``."""
    return part.features[:, 0].astype(np.int64)


def indexed_dataset(n, d, seed):
    """``tiny_dataset`` with each row's id in column 0."""
    ds = tiny_dataset(n, d, seed=seed)
    x = ds.features.copy()
    x[:, 0] = np.arange(n)
    return data.Dataset(x, ds.labels, ds.feature_names, ds.n_classes)


class TestSplit:
    def test_partitions_rows(self):
        ds = indexed_dataset(20, 3, seed=1)
        sp = data.split_dataset(ds, 0.8, seed=5)
        both = np.concatenate([row_ids(sp.train), row_ids(sp.test)])
        assert_array_equal(np.sort(both), np.arange(20))
        assert_array_equal(sp.train.labels, ds.labels[row_ids(sp.train)])
        assert_array_equal(sp.test.labels, ds.labels[row_ids(sp.test)])
        assert sp.train.n_samples == 16
        assert sp.test.n_samples == 4

    def test_stratified_class_balance(self):
        rng = np.random.default_rng(0)
        y = np.array([0] * 30 + [1] * 10)
        ds = data.Dataset(rng.normal(size=(40, 2)), y, ["a", "b"], 2)
        sp = data.split_dataset(ds, 0.75, seed=2)
        # 3:1 class ratio should survive the split almost exactly
        train_share = (sp.train.labels == 1).mean()
        assert abs(train_share - 0.25) < 0.05

    def test_deterministic(self):
        ds = indexed_dataset(25, 3, seed=4)
        a = data.split_dataset(ds, 0.8, seed=9)
        b = data.split_dataset(ds, 0.8, seed=9)
        assert_array_equal(row_ids(a.train), row_ids(b.train))
        assert_array_equal(row_ids(a.test), row_ids(b.test))

    def test_seed_changes_partition(self):
        ds = indexed_dataset(30, 3, seed=4)
        a = data.split_dataset(ds, 0.8, seed=1)
        b = data.split_dataset(ds, 0.8, seed=2)
        assert not np.array_equal(row_ids(a.train), row_ids(b.train))

    def test_every_class_keeps_a_test_row_over_the_target_size(self):
        # 5 classes of 2 rows: the target is round(0.8 * 10) = 8 training
        # rows, but each class keeps one row for each fold
        labels = np.repeat(np.arange(5), 2)
        x = np.column_stack([np.arange(10.0), np.zeros(10)])
        ds = data.Dataset(x, labels, ["id", "f"], 5)
        sp = data.split_dataset(ds, 0.8, seed=3)
        assert sp.train.n_samples == 5 and sp.test.n_samples == 5
        assert_array_equal(np.sort(sp.train.labels), np.arange(5))
        assert_array_equal(np.sort(sp.test.labels), np.arange(5))

    def test_single_row_class_falls_back_to_a_shuffle(self):
        # class 2 has one row, so the split is not stratified: the training
        # fold is the first round(0.8 * n) rows of the seeded permutation
        labels = np.array([0, 0, 0, 0, 0, 1, 1, 1, 1, 2])
        x = np.column_stack([np.arange(10.0), np.zeros(10)])
        ds = data.Dataset(x, labels, ["id", "f"], 3)
        for seed in range(4):
            sp = data.split_dataset(ds, 0.8, seed=seed)
            perm = np.random.default_rng(seed).permutation(10)
            assert_array_equal(row_ids(sp.train), np.sort(perm[:8]))
            assert_array_equal(row_ids(sp.test), np.sort(perm[8:]))

    def test_rejects_bad_ratio(self):
        ds = tiny_dataset()
        for ratio in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                data.split_dataset(ds, ratio, seed=0)


class TestSynthetic:
    def test_shapes_and_informative_set(self):
        ds, informative = data.synth_classification(100, 12, 4, seed=0)
        assert ds.n_samples == 100
        assert ds.n_features == 12
        assert len(informative) == 4
        assert all(0 <= f < 12 for f in informative)
        assert ds.n_classes == 2

    def test_deterministic(self):
        a, ia = data.synth_classification(60, 8, 3, seed=7)
        b, ib = data.synth_classification(60, 8, 3, seed=7)
        assert ia == ib
        assert_allclose(a.features, b.features)
        assert_array_equal(a.labels, b.labels)

    def test_both_classes_present(self):
        for seed in range(10):
            ds, _ = data.synth_classification(40, 6, 2, seed=seed)
            assert len(np.unique(ds.labels)) == 2

    def test_informative_columns_carry_signal(self):
        # informative columns should correlate with the label far more
        # strongly than noise columns, on average over seeds
        gaps = []
        for seed in range(5):
            ds, informative = data.synth_classification(
                400, 10, 3, seed=seed, noise=0.3
            )
            y = ds.labels - ds.labels.mean()
            corr = np.abs([
                np.corrcoef(ds.features[:, j], y)[0, 1] for j in range(10)
            ])
            inf = sorted(informative)
            rest = [j for j in range(10) if j not in informative]
            gaps.append(corr[inf].mean() - corr[rest].mean())
        assert np.median(gaps) > 0.1

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            data.synth_classification(50, 5, 6, seed=0)
