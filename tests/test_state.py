"""State vectors: descriptive statistics of the selected columns."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mcfs import data, state
from support import percentile_seven


def toy_dataset(n=60, d=6, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d)) * np.arange(1, d + 1)
    y = rng.integers(0, 2, size=n)
    y[:2] = [0, 1]
    return data.Dataset(x, y, [f"f{i}" for i in range(d)], 2)


class TestMetaStats:
    def test_length_and_finiteness(self):
        ds = toy_dataset()
        v = state.meta_stats(ds, {0, 2, 4})
        assert v.shape == (49,)
        assert np.isfinite(v).all()

    def test_empty_subset_all_zeros(self):
        ds = toy_dataset()
        assert_allclose(state.meta_stats(ds, frozenset()), np.zeros(49))

    def test_single_column_structure(self):
        ds = toy_dataset()
        col = ds.features[:, 3]
        v = state.meta_stats(ds, {3})
        stats = [
            col.mean(), col.std(), col.min(),
            np.percentile(col, 25), np.percentile(col, 50),
            np.percentile(col, 75), col.max(),
        ]
        for i, s in enumerate(stats):
            block = v[i * 7:(i + 1) * 7]
            # across a single column: spread collapses, location equals s
            assert_allclose(block[0], s, rtol=1e-12)
            assert_allclose(block[1], 0.0, atol=1e-15)
            assert_allclose(block[2:], s, rtol=1e-12)

    def test_differs_between_subsets(self):
        ds = toy_dataset()
        a = state.meta_stats(ds, {0, 1})
        b = state.meta_stats(ds, {4, 5})
        assert not np.allclose(a, b)

    def test_subset_order_irrelevant(self):
        ds = toy_dataset()
        assert_allclose(
            state.meta_stats(ds, [2, 0, 5]), state.meta_stats(ds, [5, 2, 0])
        )

    def test_rejects_out_of_range(self):
        ds = toy_dataset(d=4)
        with pytest.raises(ValueError):
            state.meta_stats(ds, {7})

    def test_rejects_negative_column(self):
        ds = toy_dataset(d=4)
        with pytest.raises(ValueError):
            state.meta_stats(ds, [-1, 2])

    def test_repeated_ids_count_once(self):
        ds = toy_dataset()
        assert_allclose(
            state.meta_stats(ds, [1, 3, 1, 3]), state.meta_stats(ds, {1, 3})
        )

    def test_column_stats_built_once_per_dataset(self, monkeypatch):
        built = []
        column_stats = state._column_stats

        def counting(ds):
            built.append(ds)
            return column_stats(ds)

        monkeypatch.setattr(state, "_column_stats", counting)
        ds = toy_dataset()
        for subset in ({0}, {1, 2}, {0, 3, 5}):
            state.meta_stats(ds, subset)
        assert built == [ds]


class TestSevenStats:
    """The sorted-row statistics equal the ``np.percentile`` form bit for
    bit."""

    @pytest.mark.parametrize("kind", ["random", "rounded", "constant"])
    def test_matches_percentile_form(self, kind):
        rng = np.random.default_rng(["random", "rounded",
                                     "constant"].index(kind))
        for k in range(1, 121):
            m = rng.normal(size=(7, k)) * rng.uniform(0.1, 100.0)
            if kind == "rounded":
                m = np.round(m)  # many ties
            elif kind == "constant":
                m = np.full((7, k), m[0, 0])
            got = state._seven(m)
            assert got.shape == (7, 7)
            assert np.array_equal(got, percentile_seven(m))

    def test_column_stats_shape(self):
        for seed, (n, d) in enumerate([(60, 6), (2, 5), (3, 1), (257, 40)]):
            ds = toy_dataset(n=n, d=d, seed=seed)
            got = state._column_stats(ds)
            assert got.shape == (7, d)
            assert np.array_equal(got, percentile_seven(ds.features.T))

