"""Subset scoring, reward shaping, and the tabular planning oracle."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mcfs import data, forest, rewards
from tabular_oracle import TabularMDP, check_invariance, value_iteration


def labeled_dataset(n=120, seed=0):
    # column 0 copies the label, column 1 is noise, column 2 copies column 0
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=n)
    y[:2] = [0, 1]
    x = np.column_stack([
        y.astype(np.float64),
        rng.normal(size=n),
        y.astype(np.float64),
    ])
    return data.Dataset(x, y, ["copy", "noise", "copy2"], 2)


def label_entropy(y):
    p = np.bincount(y) / y.size
    p = p[p > 0]
    return float(-(p * np.log(p)).sum())


class TestRewardWeights:
    def test_defaults(self):
        w = rewards.RewardWeights()
        assert (w.w_acc, w.w_rv, w.w_rd) == (1.0, 0.1, 0.1)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            rewards.RewardWeights(w_acc=-0.5)

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            rewards.RewardWeights(w_acc=0.0, w_rv=0.0, w_rd=0.0)


class TestRelevanceRedundancy:
    def test_empty_subset_zero(self):
        ds = labeled_dataset()
        assert rewards.relevance(frozenset(), ds) == 0.0
        assert rewards.redundancy(frozenset(), ds) == 0.0

    def test_label_copy_has_full_relevance(self):
        ds = labeled_dataset()
        h = label_entropy(ds.labels)
        assert_allclose(rewards.relevance({0}, ds), h, rtol=1e-10)

    def test_noise_column_low_relevance(self):
        ds = labeled_dataset()
        assert rewards.relevance({1}, ds) < 0.1

    def test_single_column_no_redundancy(self):
        ds = labeled_dataset()
        assert rewards.redundancy({0}, ds) == 0.0

    def test_duplicate_columns_fully_redundant(self):
        ds = labeled_dataset()
        h = label_entropy(ds.labels)
        assert_allclose(rewards.redundancy({0, 2}, ds), h, rtol=1e-10)

    def test_redundancy_averages_pairs(self):
        ds = labeled_dataset()
        pair_sum = (
            rewards.redundancy({0, 1}, ds)
            + rewards.redundancy({0, 2}, ds)
            + rewards.redundancy({1, 2}, ds)
        )
        assert_allclose(
            rewards.redundancy({0, 1, 2}, ds), pair_sum / 3, rtol=1e-10
        )


class TestUtility:
    def test_modes(self):
        ds = labeled_dataset()
        sub = {0, 2}
        rv = rewards.relevance(sub, ds)
        rd = rewards.redundancy(sub, ds)
        assert rewards.utility(sub, ds, "rv") == rv
        assert rewards.utility(sub, ds, "rd") == rd
        assert_allclose(rewards.utility(sub, ds, "rvrd"), rv - rd, rtol=1e-12)

    def test_rejects_unknown_mode(self):
        ds = labeled_dataset()
        with pytest.raises(ValueError):
            rewards.utility({0}, ds, "accuracy")


class TestEvalReward:
    def test_empty_subset_scores_zero(self):
        ds = labeled_dataset()
        sp = data.split_dataset(ds, 0.8, seed=0)
        w = rewards.RewardWeights()
        assert rewards.eval_reward(frozenset(), sp, w, seed=0) == 0.0

    def test_decomposes_into_components(self):
        ds, _ = data.synth_classification(150, 6, 2, seed=3)
        sp = data.split_dataset(ds, 0.8, seed=1)
        sub = {1, 4}
        full = rewards.eval_reward(
            sub, sp, rewards.RewardWeights(), seed=2, n_trees=10
        )
        mi_only = rewards.eval_reward(
            sub, sp, rewards.RewardWeights(w_acc=0.0), seed=2, n_trees=10
        )
        rv = rewards.relevance(sub, sp.train)
        rd = rewards.redundancy(sub, sp.train)
        assert_allclose(mi_only, 0.1 * rv - 0.1 * rd, rtol=1e-12)
        acc = full - mi_only
        assert 0.0 <= acc <= 1.0
        # the accuracy part reproduces a forest scored with the mixed seed
        sub_seed = rewards._subset_seed(2, sorted(sub))
        model = forest.train_forest(
            sp.train, sorted(sub), n_trees=10,
            seed=sub_seed.generate_state(1)[0], max_depth=12, min_leaf=2,
        )
        direct = forest.evaluate(model, sp.test).accuracy
        assert_allclose(acc, direct, rtol=1e-10)

    def test_call_order_does_not_matter(self):
        ds, _ = data.synth_classification(120, 5, 2, seed=4)
        sp = data.split_dataset(ds, 0.8, seed=2)
        w = rewards.RewardWeights()
        a1 = rewards.eval_reward({0, 1}, sp, w, seed=5, n_trees=10)
        b1 = rewards.eval_reward({2, 3}, sp, w, seed=5, n_trees=10)
        # fresh order, same answers
        b2 = rewards.eval_reward({2, 3}, sp, w, seed=5, n_trees=10)
        a2 = rewards.eval_reward({0, 1}, sp, w, seed=5, n_trees=10)
        assert a1 == a2
        assert b1 == b2

    def test_informative_beats_noise_subset(self):
        ds = labeled_dataset(200, seed=6)
        sp = data.split_dataset(ds, 0.8, seed=3)
        w = rewards.RewardWeights()
        good = rewards.eval_reward({0}, sp, w, seed=0, n_trees=10)
        bad = rewards.eval_reward({1}, sp, w, seed=0, n_trees=10)
        assert good > bad


class TestShapedReward:
    def test_arithmetic(self):
        assert_allclose(
            rewards.shaped_reward(1.0, 0.0, 3.0, 0.9, 1.0), 3.7, rtol=1e-12
        )

    def test_zero_coefficient_identity(self):
        assert rewards.shaped_reward(2.5, 1.0, -4.0, 0.9, 0.0) == 2.5

    def test_constant_potential_discount_gap(self):
        # same potential now and next: advice shrinks by (gamma - 1) * u
        out = rewards.shaped_reward(0.0, 2.0, 2.0, 0.5, 1.0)
        assert_allclose(out, -1.0, rtol=1e-12)


def chain_mdp():
    # state 0 can harvest reward 1 forever or fall into absorbing state 1
    rew = np.array([[1.0, 0.0], [0.0, 0.0]])
    nxt = np.array([[0, 1], [1, 1]])
    return TabularMDP(rew, nxt, 0.5)


class TestTabularOracle:
    def test_validates_tables(self):
        with pytest.raises(ValueError):
            TabularMDP(np.zeros((2, 2)), np.array([[0, 2], [0, 0]]), 0.9)
        with pytest.raises(ValueError):
            TabularMDP(np.zeros((2, 2)), np.zeros((2, 2), int), 1.0)

    def test_value_iteration_analytic_chain(self):
        q = value_iteration(chain_mdp())
        # V(0) = 1/(1-gamma) = 2, V(1) = 0
        assert_allclose(q[0, 0], 2.0, atol=1e-9)
        assert_allclose(q[0, 1], 0.0, atol=1e-9)
        assert_allclose(q[1], [0.0, 0.0], atol=1e-9)

    def test_self_loop_geometric_sum(self):
        rew = np.array([[3.0, 3.0]])
        nxt = np.zeros((1, 2), dtype=int)
        q = value_iteration(TabularMDP(rew, nxt, 0.9))
        assert_allclose(q, 30.0, rtol=1e-9)

    def test_shaping_offset_exact_on_chain(self):
        mdp = chain_mdp()
        potential = np.array([3.0, -1.0])
        report = check_invariance(mdp, potential, 2.0)
        assert report.max_offset_error <= 1e-9
        assert report.policies_agree

    def test_shaping_invariance_random_mdps(self):
        rng = np.random.default_rng(13)
        for trial in range(10):
            s = int(rng.integers(2, 6))
            mdp = TabularMDP(
                rng.normal(size=(s, 2)),
                rng.integers(0, s, size=(s, 2)),
                0.9,
            )
            potential = rng.normal(size=s)
            coeff = float(rng.choice([0.5, 1.0, 2.0]))
            report = check_invariance(mdp, potential, coeff)
            assert report.max_offset_error <= 1e-6
            assert report.policies_agree
