"""Engine pieces: stopping, weights, returns, traversal, and training."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mcfs import data, engine, qlearner, rewards


def make_episode(rewards_seq=None, importances=None):
    """Episode scaffold carrying only the fields a given op reads."""
    n = len(rewards_seq or importances)
    rewards_seq = rewards_seq or [0.0] * n
    importances = importances or [1.0] * n
    steps = [
        engine.EpisodeStep(
            feature=t, state=np.zeros(1), action=1,
            reward=float(r), raw_reward=float(r), target_prob=0.5,
            behavior_prob=0.5, importance=float(w),
        )
        for t, (r, w) in enumerate(zip(rewards_seq, importances))
    ]
    return engine.Episode(
        steps=steps, stopped_early=False,
        final_subset=frozenset(range(n)), final_eval=0.0,
    )


def zeroed_qnet(state_dim):
    net = qlearner.QNetwork(state_dim, seed=0)
    net.net.set_flat(np.zeros_like(net.net.get_flat()))
    return net


class TestStopProbability:
    def test_known_values(self):
        assert_allclose(engine.stop_probability(0.3, 0.6), 0.5, rtol=1e-12)
        assert engine.stop_probability(1.0, 0.5) == 0.0
        assert engine.stop_probability(0.0, 0.5) == 1.0

    def test_zero_threshold_disables(self):
        for w in (0.0, 0.2, 5.0):
            assert engine.stop_probability(w, 0.0) == 0.0

    def test_always_a_probability(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            p = engine.stop_probability(rng.uniform(0, 3), rng.uniform(0, 1))
            assert 0.0 <= p <= 1.0

    def test_rejects_negative_inputs(self):
        with pytest.raises(ValueError):
            engine.stop_probability(-0.1, 0.5)
        with pytest.raises(ValueError):
            engine.stop_probability(0.5, -0.1)

    def test_complements_survival(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            w, v = rng.uniform(0, 2), rng.uniform(0.05, 1)
            total = (engine.stop_probability(w, v)
                     + engine.survival_probability(w, v))
            assert_allclose(total, 1.0, rtol=1e-12)


class TestIncrementalWeight:
    def test_known_value(self):
        assert_allclose(engine.incremental_weight(1.0, 0.8, 0.5), 1.6,
                        rtol=1e-12)

    def test_equal_probs_leave_weight(self):
        assert engine.incremental_weight(0.7, 0.3, 0.3) == 0.7

    def test_rejects_zero_behavior_prob(self):
        with pytest.raises(ValueError):
            engine.incremental_weight(1.0, 0.5, 0.0)

    def test_rejects_negative_running_weight(self):
        with pytest.raises(ValueError):
            engine.incremental_weight(-0.1, 0.5, 0.5)

    def test_zero_running_weight_stays_zero(self):
        # a target probability that underflowed to 0 earlier in the episode
        assert engine.incremental_weight(0.0, 0.5, 0.5) == 0.0
        assert engine.incremental_weight(1.0, 0.0, 0.5) == 0.0

    def test_matches_direct_product_over_long_episodes(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(2, 51))
            pi = rng.uniform(0.05, 1.0, size=n)
            b = rng.uniform(0.05, 1.0, size=n)
            running = 1.0
            for t in range(n):
                running = engine.incremental_weight(running, pi[t], b[t])
                direct = np.prod(pi[:t + 1] / b[:t + 1])
                assert abs(running - direct) <= 1e-9 * abs(direct)


class TestComputeReturns:
    def test_forward_frozen_example(self):
        ep = make_episode(rewards_seq=[1.0, 2.0, 4.0])
        assert_allclose(
            engine.compute_returns(ep, 0.5, "forward"), [3.0, 4.0, 4.0],
            rtol=1e-12,
        )

    def test_backward_looking_frozen_example(self):
        ep = make_episode(rewards_seq=[1.0, 2.0, 4.0])
        got = engine.compute_returns(ep, 0.5, "reversed")
        assert_allclose(got, [1.0, 2.5, 5.25], rtol=1e-12)

    def test_zero_gamma_forward_is_immediate_reward(self):
        ep = make_episode(rewards_seq=[0.3, -1.0, 2.0, 0.5])
        assert_allclose(
            engine.compute_returns(ep, 0.0, "forward"),
            [0.3, -1.0, 2.0, 0.5],
        )

    def test_rejects_unknown_mode(self):
        ep = make_episode(rewards_seq=[1.0])
        with pytest.raises(ValueError):
            engine.compute_returns(ep, 0.9, "sideways")


class TestRecalcWeights:
    def test_full_survival_keeps_weights(self):
        ep = make_episode(importances=[0.8, 1.3, 2.0])
        got = engine.recalc_weights(ep, 0.5)
        assert_allclose(got, [0.8, 1.3, 2.0], rtol=1e-12)

    def test_rejection_control_by_hand(self):
        # survivals [0.8, 0.4], own-episode mean 0.6
        ep = make_episode(importances=[0.4, 0.2])
        got = engine.recalc_weights(ep, 0.5)
        assert_allclose(got, [0.3, 0.3], rtol=1e-12)

    def test_zero_importance_gets_zero_weight(self):
        # survivals [0.8, 0.0], own-episode mean 0.4; 0/0 would be nan
        ep = make_episode(importances=[0.4, 0.0])
        got = engine.recalc_weights(ep, 0.5)
        assert_allclose(got, [0.2, 0.0], rtol=1e-12)

    def test_explicit_survival_mean_scales(self):
        ep = make_episode(importances=[0.4, 0.2])
        got = engine.recalc_weights(ep, 0.5, survival_mean=1.2)
        assert_allclose(got, [0.6, 0.6], rtol=1e-12)


class TestRerankFeatures:
    def test_least_decided_first(self):
        h = engine.DecisionHistory(np.array([5, 2, 4]))
        assert engine.rerank_features(h) == [1, 2, 0]

    def test_equal_counts_keep_index_order(self):
        h = engine.DecisionHistory(np.zeros(5, dtype=np.int64))
        assert engine.rerank_features(h) == [0, 1, 2, 3, 4]

    def test_ties_break_by_index(self):
        h = engine.DecisionHistory(np.array([3, 1, 3, 1]))
        assert engine.rerank_features(h) == [1, 3, 0, 2]

    def test_record_bookkeeping(self):
        h = engine.DecisionHistory(np.zeros(4, dtype=np.int64))
        for f in (2, 0, 2):
            h.record(f)
        assert list(h.counts) == [1, 0, 2, 0]


class TestApplyAdvice:
    def test_frozen_arithmetic(self):
        cfg = engine.TrainConfig(advise_steps=100, gamma=0.9,
                                 shaping_coeff=1.0)
        assert_allclose(
            engine.apply_advice(1.0, 0.0, 3.0, cfg, 1), 3.7, rtol=1e-12
        )

    def test_window_zero_never_shapes(self):
        cfg = engine.TrainConfig(advise_steps=0)
        assert engine.apply_advice(1.0, 5.0, -5.0, cfg, 1) == 1.0

    def test_zero_coefficient_never_shapes(self):
        cfg = engine.TrainConfig(advise_steps=100, shaping_coeff=0.0)
        assert engine.apply_advice(2.0, 5.0, -5.0, cfg, 10) == 2.0

    def test_outside_window_unshaped(self):
        cfg = engine.TrainConfig(advise_steps=3)
        assert engine.apply_advice(1.5, 0.0, 9.0, cfg, 4) == 1.5


def toy_traverse(config, n=6, qnet=None, seed=0, reward_fn=None,
                 utility_fn=None):
    qnet = qnet or qlearner.QNetwork(n, seed=1)
    represent = lambda sub: np.isin(np.arange(n), sorted(sub)).astype(float)
    reward_fn = reward_fn or (lambda sub: len(sub) / n)
    utility_fn = utility_fn or (lambda sub: 0.0)
    rng = np.random.default_rng(seed)
    return engine.traverse_episode(
        qnet, list(range(n)), config, rng, 0, represent, reward_fn,
        utility_fn,
    )


class TestTraverseEpisode:
    def test_disabled_stopping_visits_everything(self):
        cfg = engine.TrainConfig(stop_threshold=0.0)
        for seed in range(5):
            ep = toy_traverse(cfg, n=6, seed=seed)
            assert len(ep.steps) == 6
            assert not ep.stopped_early

    def test_uniform_policies_keep_weight_at_one(self):
        # zeroed net: softmax target is uniform and so is the random
        # behavior, hence every ratio is exactly 1 and nothing stops
        cfg = engine.TrainConfig(behavior_mode="random", stop_threshold=0.5)
        ep = toy_traverse(cfg, n=8, qnet=zeroed_qnet(8), seed=3)
        assert len(ep.steps) == 8
        for s in ep.steps:
            assert s.importance == 1.0
            assert s.target_prob == 0.5
            assert s.behavior_prob == 0.5

    def test_importance_recurrence_and_prob_values(self):
        cfg = engine.TrainConfig(epsilon=0.2, stop_threshold=0.3)
        ep = toy_traverse(cfg, n=10, seed=7)
        prev = 1.0
        for s in ep.steps:
            assert s.behavior_prob in (0.8, 0.2)
            assert 0.0 < s.target_prob < 1.0
            expected = prev * s.target_prob / s.behavior_prob
            assert abs(s.importance - expected) <= 1e-12 * abs(expected)
            prev = s.importance

    def test_subset_tracks_select_actions(self):
        cfg = engine.TrainConfig(stop_threshold=0.0)
        ep = toy_traverse(cfg, n=7, seed=11)
        taken = {s.feature for s in ep.steps if s.action == 1}
        assert ep.final_subset == frozenset(taken)
        assert ep.final_eval == len(taken) / 7

    def test_early_stop_shortens_episode(self):
        cfg = engine.TrainConfig(stop_threshold=1.0, epsilon=0.4)
        lengths = [len(toy_traverse(cfg, n=12, seed=s).steps)
                   for s in range(30)]
        assert min(lengths) < 12
        for s in range(5):
            ep = toy_traverse(cfg, n=12, seed=s)
            assert ep.stopped_early == (len(ep.steps) < 12)

    def test_one_q_forward_per_greedy_step(self, monkeypatch):
        calls = []
        q_values = qlearner.q_values

        def counting(qnet, state):
            calls.append(1)
            return q_values(qnet, state)

        monkeypatch.setattr(qlearner, "q_values", counting)
        cfg = engine.TrainConfig(stop_threshold=0.0)
        ep = toy_traverse(cfg, n=6, seed=0)
        assert len(ep.steps) == 6
        assert len(calls) == len(ep.steps)

    def test_deterministic_per_seed(self):
        cfg = engine.TrainConfig(stop_threshold=0.6)
        a = toy_traverse(cfg, n=9, seed=21)
        b = toy_traverse(cfg, n=9, seed=21)
        assert [s.action for s in a.steps] == [s.action for s in b.steps]
        assert_allclose([s.importance for s in a.steps],
                        [s.importance for s in b.steps], rtol=0)

    def test_advice_window_shapes_rewards(self):
        shaped_cfg = engine.TrainConfig(
            advise_steps=1000, shaping_coeff=1.0, stop_threshold=0.0
        )
        plain_cfg = engine.TrainConfig(
            advise_steps=0, shaping_coeff=1.0, stop_threshold=0.0
        )
        # constant offset keeps the discount gap nonzero on every step
        util = lambda sub: float(len(sub)) + 1.0
        shaped = toy_traverse(shaped_cfg, n=6, seed=2, utility_fn=util)
        plain = toy_traverse(plain_cfg, n=6, seed=2, utility_fn=util)
        assert any(s.reward != s.raw_reward for s in shaped.steps)
        assert all(s.reward == s.raw_reward for s in plain.steps)
        # identical draws, so the underlying rewards agree
        assert_allclose([s.raw_reward for s in shaped.steps],
                        [s.raw_reward for s in plain.steps])


def small_split():
    ds, _ = data.synth_classification(100, 6, 2, seed=8)
    return data.split_dataset(ds, 0.8, seed=1)


def quick_config(**kw):
    base = dict(episodes=12, max_global_steps=200, eval_trees=5, seed=3)
    base.update(kw)
    return engine.TrainConfig(**base)


class TestTrainLoop:
    def test_report_shape_and_invariants(self):
        sp = small_split()
        rep = engine.train(sp, quick_config())
        assert rep.episodes_completed == len(rep.curves) == 12
        assert rep.best_eval == max(c.eval for c in rep.curves)
        assert sum(rep.decision_counts) == rep.total_steps
        assert all(1 <= c.length <= 6 for c in rep.curves)
        assert all(np.isfinite(c.loss) for c in rep.curves)
        assert set(rep.best_subset) <= set(range(6))

    def test_no_stop_no_advice_plain_reduction(self):
        sp = small_split()
        cfg = quick_config(stop_threshold=0.0, shaping_coeff=0.0)
        rep = engine.train(sp, cfg)
        assert all(c.length == 6 for c in rep.curves)

    def test_deterministic_per_seed(self):
        sp = small_split()
        a = engine.train(sp, quick_config())
        b = engine.train(sp, quick_config())
        assert a.best_subset == b.best_subset
        assert a.best_eval == b.best_eval
        assert [c.eval for c in a.curves] == [c.eval for c in b.curves]
        assert [c.length for c in a.curves] == [c.length for c in b.curves]
        assert a.greedy_subset == b.greedy_subset

    def test_seed_changes_trajectories(self):
        sp = small_split()
        a = engine.train(sp, quick_config(seed=1))
        b = engine.train(sp, quick_config(seed=2))
        assert ([c.eval for c in a.curves] != [c.eval for c in b.curves]
                or a.best_subset != b.best_subset)

    def test_best_eval_reproducible_from_subset(self):
        sp = small_split()
        cfg = quick_config()
        rep = engine.train(sp, cfg)
        direct = rewards.eval_reward(
            frozenset(rep.best_subset), sp, cfg.weights, cfg.seed,
            n_trees=cfg.eval_trees,
        )
        assert_allclose(rep.best_eval, direct, rtol=1e-12)

    def test_step_budget_caps_episodes(self):
        sp = small_split()
        rep = engine.train(sp, quick_config(episodes=200,
                                            max_global_steps=30))
        assert rep.episodes_completed < 200
        # the budget check runs between episodes, so one may overshoot
        assert rep.total_steps <= 30 + 6

    def test_reranking_moves_skipped_features_forward(self):
        sp = small_split()
        cfg = quick_config(episodes=20, stop_threshold=0.9, epsilon=0.3)
        rep = engine.train(sp, cfg)
        if min(c.length for c in rep.curves) < 6:
            counts = np.array(rep.decision_counts)
            # stopping leaves uneven counts; all-equal would mean the
            # re-ranking never had anything to balance
            assert counts.max() - counts.min() <= 20
            assert counts.min() >= 1


class TestFinalSelection:
    def test_zero_network_selects_nothing(self):
        sp = small_split()
        cfg = quick_config()
        subset = engine.final_selection(zeroed_qnet(49), sp.train, cfg)
        assert subset == frozenset()

    def test_biased_network_selects_everything(self):
        sp = small_split()
        cfg = quick_config()
        net = zeroed_qnet(49)
        net.net.biases[-1][1] = 5.0  # constant preference for taking
        subset = engine.final_selection(net, sp.train, cfg)
        assert subset == frozenset(range(6))

    def test_idempotent(self):
        sp = small_split()
        cfg = quick_config()
        net = qlearner.QNetwork(49, seed=17)
        a = engine.final_selection(net, sp.train, cfg)
        b = engine.final_selection(net, sp.train, cfg)
        assert a == b
