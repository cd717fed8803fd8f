"""Discretization, entropy, mutual information, and K-Best ranking."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from mcfs import data, info
from support import entropy


class TestDiscretize:
    def test_few_distinct_integers_keep_levels(self):
        vals = np.array([3.0, 7.0, 3.0, 9.0, 7.0, 3.0])
        codes = info.discretize(vals)
        # one code per distinct level, order-preserving
        assert len(np.unique(codes)) == 3
        assert codes[0] == codes[2] == codes[5]
        assert codes[1] == codes[4]

    def test_continuous_quantile_codes(self):
        rng = np.random.default_rng(0)
        vals = rng.normal(size=500)
        codes = info.discretize(vals)
        assert codes.min() >= 0
        assert len(np.unique(codes)) <= 10
        # equal-frequency bins should be roughly balanced
        counts = np.bincount(codes)
        assert counts.max() <= 2 * counts.min() + 5

    def test_constant_column_single_code(self):
        codes = info.discretize(np.full(20, 1.5))
        assert len(np.unique(codes)) == 1

    def test_monotone_in_value(self):
        rng = np.random.default_rng(3)
        vals = rng.uniform(size=200)
        codes = info.discretize(vals)
        order = np.argsort(vals)
        diffs = np.diff(codes[order])
        assert np.all(diffs >= 0)


class TestEntropyMi:
    def test_entropy_fair_coin(self):
        codes = np.array([0, 1] * 50)
        assert_allclose(entropy(codes), np.log(2), rtol=1e-12)

    def test_entropy_constant_zero(self):
        assert entropy(np.zeros(10, dtype=np.int64)) == 0.0

    def test_mi_with_self_equals_entropy(self):
        rng = np.random.default_rng(1)
        x = rng.integers(0, 4, size=300)
        assert_allclose(
            info.mutual_information(x, x), entropy(x), rtol=1e-12
        )

    def test_mi_independent_near_zero(self):
        rng = np.random.default_rng(2)
        x = rng.integers(0, 2, size=5000)
        y = rng.integers(0, 2, size=5000)
        assert info.mutual_information(x, y) < 0.01

    def test_mi_symmetric_and_non_negative(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            x = rng.integers(0, 3, size=100)
            y = rng.integers(0, 3, size=100)
            a = info.mutual_information(x, y)
            b = info.mutual_information(y, x)
            assert a >= 0.0
            assert_allclose(a, b, rtol=1e-12)

    def test_mi_known_joint(self):
        # perfectly dependent pair of fair bits: MI = H = ln 2
        x = np.array([0, 0, 1, 1] * 25)
        y = 1 - x
        assert_allclose(info.mutual_information(x, y), np.log(2), rtol=1e-12)


class TestCachedViews:
    def test_feature_label_mi_matches_direct(self):
        ds, _ = data.synth_classification(200, 6, 2, seed=5)
        cached = info.feature_label_mi(ds)
        direct = np.array([
            info.mutual_information(
                info.discretize(ds.features[:, j]), ds.labels
            )
            for j in range(6)
        ])
        assert_allclose(cached, direct, rtol=1e-12)

    def test_pairwise_symmetric(self):
        ds, _ = data.synth_classification(150, 5, 2, seed=6)
        codes = [info.discretize(ds.features[:, j]) for j in range(5)]
        for i in range(5):
            for j in range(5):
                assert info.pairwise_mi(ds, i, j) == info.pairwise_mi(ds, j, i)
                assert info.pairwise_mi(ds, i, j) == info.mutual_information(
                    codes[min(i, j)], codes[max(i, j)]
                )

    def test_codes_are_bytes_with_unchanged_mi(self):
        # one byte per cell; MI equals that of discretize's int64 codes,
        # also for a column with the most integer levels kept as-is
        rng = np.random.default_rng(8)
        x = rng.normal(size=(300, 4))
        x[:, 2] = rng.integers(0, info.MAX_INTEGER_LEVELS, size=300)
        ds = data.Dataset(x, rng.integers(0, 3, size=300), list("abcd"), 3)
        view = ds.derived(info._column_codes)
        assert view.dtype == np.uint8
        assert view.shape == (4, 300)
        direct = [info.discretize(x[:, j]) for j in range(4)]
        assert direct[2].max() == info.MAX_INTEGER_LEVELS - 1
        for j in range(4):
            assert_array_equal(view[j], direct[j])
            assert info.feature_label_mi(ds)[j] == info.mutual_information(
                direct[j], ds.labels
            )
            for i in range(j + 1):
                assert info.pairwise_mi(ds, i, j) == info.mutual_information(
                    direct[i], direct[j]
                )

    def test_repeat_calls_identical(self):
        ds, _ = data.synth_classification(100, 4, 2, seed=7)
        a = info.feature_label_mi(ds).copy()
        b = info.feature_label_mi(ds)
        assert_array_equal(a, b)


class TestKBest:
    def test_label_copy_ranks_first(self):
        rng = np.random.default_rng(8)
        y = rng.integers(0, 2, size=120)
        x = np.column_stack([
            rng.normal(size=120),
            y + 0.01 * rng.normal(size=120),  # near-copy of the label
            rng.normal(size=120),
        ])
        ds = data.Dataset(x, y, ["a", "b", "c"], 2)
        assert info.kbest_select(ds, 1) == [1]

    def test_tie_prefers_lower_index(self):
        y = np.array([0, 1] * 30)
        col = np.arange(60, dtype=np.float64)
        ds = data.Dataset(
            np.column_stack([col, col]), y, ["a", "b"], 2
        )
        assert info.kbest_select(ds, 1) == [0]

    def test_returns_k_columns(self):
        ds, _ = data.synth_classification(80, 9, 3, seed=9)
        assert len(info.kbest_select(ds, 4)) == 4

    def test_k_is_required(self):
        # the half-size rule lives in cli.reference_subsets alone
        ds, _ = data.synth_classification(80, 9, 3, seed=9)
        with pytest.raises(TypeError):
            info.kbest_select(ds)

    def test_result_sorted_and_valid(self):
        ds, _ = data.synth_classification(80, 7, 3, seed=10)
        sel = info.kbest_select(ds, 3)
        assert sel == sorted(sel)
        assert all(0 <= j < 7 for j in sel)

    def test_recovers_informative_on_strong_signal(self):
        hits = []
        for seed in range(5):
            ds, informative = data.synth_classification(
                500, 10, 3, seed=seed, noise=0.1
            )
            sel = set(info.kbest_select(ds, 3))
            hits.append(len(sel & informative))
        assert np.median(hits) == 3
