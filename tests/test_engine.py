"""Engine pieces: stopping, weights, returns, traversal, and training."""

import hashlib

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from mcfs import data, engine, qlearner, rewards, state
from support import (get_flat, set_flat, step_recalc_weights,
                     stop_probability, two_loop_returns)


def random_importances(rng, n):
    """Importances spread around the thresholds, with exact zeros mixed in."""
    imp = rng.uniform(0.0, 2.0, size=n)
    imp[rng.random(n) < 0.2] = 0.0
    return imp


# thresholds that hit the edge cases: disabled, and ratios of exactly 1
# against the importances 0.5 and 1.0 placed below
EDGE_THRESHOLDS = (0.0, 0.5, 1.0)


def zeroed_qnet(state_dim):
    net = qlearner.q_network(state_dim, seed=0)
    set_flat(net, np.zeros_like(get_flat(net)))
    return net


class TestTrainConfig:
    @pytest.mark.parametrize("name", ["shaping_coeff", "learning_rate"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite(self, name, value):
        with pytest.raises(ValueError, match=name):
            engine.TrainConfig(**{name: value})


def stop_chance(importance, stop_threshold):
    """The walk's stop rule: the complement of the survival probability."""
    return 1.0 - engine.survival_probability(importance, stop_threshold)


class TestStopProbability:
    def test_known_values(self):
        assert_allclose(stop_chance(0.3, 0.6), 0.5, rtol=1e-12)
        assert stop_chance(1.0, 0.5) == 0.0
        assert stop_chance(0.0, 0.5) == 1.0

    def test_zero_threshold_disables(self):
        for w in (0.0, 0.2, 5.0):
            assert stop_chance(w, 0.0) == 0.0
        assert_array_equal(
            engine.survival_probability(np.array([0.0, 0.2, 5.0]), 0.0),
            [1.0, 1.0, 1.0],
        )

    def test_always_a_probability(self):
        rng = np.random.default_rng(0)
        surv = engine.survival_probability(rng.uniform(0, 3, size=200),
                                           rng.uniform(0, 1))
        assert np.all((0.0 <= surv) & (surv <= 1.0))

    def test_rejects_negative_inputs(self):
        with pytest.raises(ValueError):
            engine.survival_probability(-0.1, 0.5)
        with pytest.raises(ValueError):
            engine.survival_probability(0.5, -0.1)
        with pytest.raises(ValueError):
            engine.survival_probability(np.array([0.3, -0.1]), 0.5)

    def test_complements_survival(self):
        # the same stop decision, bit for bit, as the scalar stop rule
        rng = np.random.default_rng(1)
        cases = [(w, v) for w in (0.0, 0.5, 1.0) for v in EDGE_THRESHOLDS]
        cases += [(rng.uniform(0, 2), rng.uniform(0, 1)) for _ in range(500)]
        for w, v in cases:
            assert stop_chance(w, v) == stop_probability(w, v)

    def test_array_matches_scalar_calls(self):
        rng = np.random.default_rng(2)
        for v in (*EDGE_THRESHOLDS, 0.37):
            imp = np.append(random_importances(rng, 60), [0.5, 1.0])
            surv = engine.survival_probability(imp, v)
            assert_array_equal(
                surv, [engine.survival_probability(w, v) for w in imp]
            )


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
        assert_allclose(
            engine.compute_returns([1.0, 2.0, 4.0], 0.5, "forward"),
            [3.0, 4.0, 4.0], rtol=1e-12,
        )

    def test_backward_looking_frozen_example(self):
        got = engine.compute_returns([1.0, 2.0, 4.0], 0.5, "reversed")
        assert_allclose(got, [1.0, 2.5, 5.25], rtol=1e-12)

    def test_zero_gamma_forward_is_immediate_reward(self):
        assert_allclose(
            engine.compute_returns([0.3, -1.0, 2.0, 0.5], 0.0, "forward"),
            [0.3, -1.0, 2.0, 0.5],
        )

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            engine.compute_returns([1.0], 0.9, "sideways")

    def test_matches_two_loop_reference(self):
        rng = np.random.default_rng(3)
        for n in (0, 1, 2, 7, 40):
            r = rng.normal(size=n)
            for gamma in (0.0, 0.9, 1.0, rng.uniform()):
                for mode in engine.RETURN_MODES:
                    assert_array_equal(engine.compute_returns(r, gamma, mode),
                                       two_loop_returns(r, gamma, mode))


def weights_of(importances, stop_threshold, survival_mean=None):
    """Recalculated weights as ``train`` computes them for one episode."""
    imp = np.asarray(importances, dtype=np.float64)
    surv = engine.survival_probability(imp, stop_threshold)
    if survival_mean is None:
        survival_mean = float(surv.mean())
    return engine.recalc_weights(imp, surv, survival_mean)


class TestRecalcWeights:
    def test_full_survival_keeps_weights(self):
        got = weights_of([0.8, 1.3, 2.0], 0.5)
        assert_allclose(got, [0.8, 1.3, 2.0], rtol=1e-12)

    def test_rejection_control_by_hand(self):
        # survivals [0.8, 0.4], own-episode mean 0.6
        got = weights_of([0.4, 0.2], 0.5)
        assert_allclose(got, [0.3, 0.3], rtol=1e-12)

    def test_zero_importance_gets_zero_weight(self):
        # survivals [0.8, 0.0], own-episode mean 0.4; 0/0 would be nan
        got = weights_of([0.4, 0.0], 0.5)
        assert_allclose(got, [0.2, 0.0], rtol=1e-12)

    def test_explicit_survival_mean_scales(self):
        got = weights_of([0.4, 0.2], 0.5, survival_mean=1.2)
        assert_allclose(got, [0.6, 0.6], rtol=1e-12)

    def test_matches_per_step_reference(self):
        rng = np.random.default_rng(4)
        for v in (*EDGE_THRESHOLDS, 0.37):
            for n in (1, 5, 30):
                imp = np.append(random_importances(rng, n), [0.5, 1.0])
                assert_array_equal(weights_of(imp, v),
                                   step_recalc_weights(imp, v))
                mean = rng.uniform(0.1, 1.0)
                assert_array_equal(weights_of(imp, v, mean),
                                   step_recalc_weights(imp, v, mean))


class TestRerankFeatures:
    def test_least_decided_first(self):
        assert engine.rerank_features(np.array([5, 2, 4])) == [1, 2, 0]

    def test_equal_counts_keep_index_order(self):
        counts = np.zeros(5, dtype=np.int64)
        assert engine.rerank_features(counts) == [0, 1, 2, 3, 4]

    def test_ties_break_by_index(self):
        assert engine.rerank_features(np.array([3, 1, 3, 1])) == [1, 3, 0, 2]


def assert_importance_recurrence(ep, qnet, epsilon,
                                 q_values=qlearner.q_values):
    """Each step's importance is the last one times pi/b, with the softmax
    target pi and the epsilon-greedy behavior b recomputed from the net at
    the step's state."""
    prev = 1.0
    for s in ep.steps:
        q = q_values(qnet, s.state)
        pi = float(qlearner.target_policy(q)[s.action])
        b = 1.0 - epsilon if s.action == int(np.argmax(q)) else epsilon
        assert 0.0 < pi < 1.0
        assert s.importance == prev * pi / b
        prev = s.importance


def toy_traverse(config, n=6, qnet=None, seed=0, represent=None):
    """One training-style walk over n features with a one-hot state."""
    qnet = qnet or qlearner.q_network(n, seed=1)
    represent = represent or (
        lambda sub: np.isin(np.arange(n), sorted(sub)).astype(float)
    )
    rng = np.random.default_rng(seed)
    if config.behavior_mode == "greedy":
        choose = lambda q: qlearner.behavior_policy(q, config.epsilon, rng)
    else:
        choose = lambda q: qlearner.random_policy(rng)
    stop = lambda w: rng.random() < stop_chance(w, config.stop_threshold)
    return engine.traverse_episode(qnet, list(range(n)), represent, choose,
                                   stop)


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
        qnet = zeroed_qnet(8)
        ep = toy_traverse(cfg, n=8, qnet=qnet, seed=3)
        assert len(ep.steps) == 8
        for s in ep.steps:
            assert s.importance == 1.0
            pi = qlearner.target_policy(qlearner.q_values(qnet, s.state))
            assert pi[s.action] == 0.5

    def test_importance_recurrence_and_prob_values(self):
        cfg = engine.TrainConfig(epsilon=0.2, stop_threshold=0.3)
        qnet = qlearner.q_network(10, seed=1)
        ep = toy_traverse(cfg, n=10, qnet=qnet, seed=7)
        assert_importance_recurrence(ep, qnet, cfg.epsilon)

    def test_subset_tracks_select_actions(self):
        tr = engine._Trainer(small_split(), quick_config())
        ep = random_walk(tr, seed=11)
        taken = {s.feature for s in ep.steps if s.action == 1}
        assert ep.final_subset == frozenset(taken)

    def test_early_stop_shortens_episode(self):
        cfg = engine.TrainConfig(stop_threshold=1.0, epsilon=0.4)
        lengths = [len(toy_traverse(cfg, n=12, seed=s).steps)
                   for s in range(30)]
        assert min(lengths) < 12
        for s in range(5):
            ep = toy_traverse(cfg, n=12, seed=s)
            assert ep.stopped_early == (len(ep.steps) < 12)

    def test_stop_asked_after_every_non_final_step(self):
        asked = []
        rng = np.random.default_rng(0)
        ep = engine.traverse_episode(
            qlearner.q_network(4, seed=1), range(4),
            lambda sub: np.zeros(4),
            lambda q: qlearner.random_policy(rng),
            lambda w: asked.append(w) or False,
        )
        assert asked == [s.importance for s in ep.steps[:-1]]

    def test_one_q_forward_per_state(self, monkeypatch):
        calls = []
        q_values = qlearner.q_values

        def counting(qnet, state):
            calls.append(1)
            return q_values(qnet, state)

        monkeypatch.setattr(qlearner, "q_values", counting)
        cfg = engine.TrainConfig(epsilon=0.3, stop_threshold=0.2)
        qnet = qlearner.q_network(8, seed=1)
        for seed in range(6):
            calls.clear()
            ep = toy_traverse(cfg, n=8, qnet=qnet, seed=seed)
            selects = sum(s.action for s in ep.steps)
            assert 0 < selects < len(ep.steps)
            assert len(calls) == 1 + selects
            # each step's weight uses the policies of the state it saw
            assert_importance_recurrence(ep, qnet, cfg.epsilon,
                                         q_values=q_values)

    def test_state_computed_only_when_subset_changes(self):
        n = 8
        calls = []

        def represent(sub):
            calls.append(sub)
            return np.isin(np.arange(n), sorted(sub)).astype(float)

        cfg = engine.TrainConfig(behavior_mode="random", stop_threshold=0.0)
        for seed in range(4):
            calls.clear()
            ep = toy_traverse(cfg, n=n, seed=seed, represent=represent)
            selects = sum(s.action for s in ep.steps)
            assert 0 < selects < n
            assert len(calls) == 1 + selects
            # each step's state is the state of the subset it saw
            seen = frozenset()
            for s in ep.steps:
                assert_allclose(s.state, represent(seen))
                if s.action == 1:
                    seen = seen | {s.feature}

    def test_deterministic_per_seed(self):
        cfg = engine.TrainConfig(stop_threshold=0.6)
        a = toy_traverse(cfg, n=9, seed=21)
        b = toy_traverse(cfg, n=9, seed=21)
        assert [s.action for s in a.steps] == [s.action for s in b.steps]
        assert_allclose([s.importance for s in a.steps],
                        [s.importance for s in b.steps], rtol=0)


def small_split():
    ds, _ = data.synth_classification(100, 6, 2, seed=8)
    return data.split_dataset(ds, 0.8, seed=1)


def quick_config(**kw):
    base = dict(episodes=12, max_global_steps=200, eval_trees=5, seed=3)
    base.update(kw)
    return engine.TrainConfig(**base)


def random_walk(tr, seed):
    """A never-stopping walk over every feature with fair-coin decisions."""
    rng = np.random.default_rng(seed)
    return engine.traverse_episode(
        tr.qnet, range(tr.split.train.n_features), tr.represent,
        lambda q: qlearner.random_policy(rng), lambda w: False,
    )


def one_step_episode(feature=0, action=1):
    step = engine.EpisodeStep(
        feature=feature, state=np.zeros(1), action=action, importance=1.0,
    )
    return engine.Episode(steps=[step], stopped_early=False,
                          final_subset=frozenset({feature} if action else ()))


class TestScore:
    @pytest.mark.parametrize("advise_steps, start_step, expected", [
        pytest.param(100, 0, 3.7, id="inside"),  # 1 + 0.9 * 3 - 0
        pytest.param(3, 10, 1.0, id="after"),
        pytest.param(5, 4, 3.7, id="at_end"),  # global step 5
        pytest.param(0, 0, 1.0, id="past_end"),  # global step 1, window 0
    ])
    def test_advice_window(self, advise_steps, start_step, expected):
        tr = engine._Trainer(small_split(), quick_config(
            advise_steps=advise_steps, gamma=0.9, shaping_coeff=1.0,
        ))
        looked_up = []
        tr.reward = lambda sub: 1.0
        tr.utility = lambda sub: looked_up.append(sub) or 3.0 * len(sub)
        final_eval, advised = tr.score(one_step_episode(), start_step)
        assert final_eval == 1.0
        assert_allclose(advised, [expected], rtol=1e-12)
        # no utility lookup outside the window
        assert bool(looked_up) == (start_step + 1 <= advise_steps)

    def test_advice_window_shapes_rewards(self):
        shaped = engine._Trainer(small_split(), quick_config(
            advise_steps=1000, shaping_coeff=1.0
        ))
        plain = engine._Trainer(small_split(), quick_config(
            advise_steps=0, shaping_coeff=1.0
        ))
        # constant offset keeps the discount gap nonzero on every step
        shaped.utility = plain.utility = lambda sub: float(len(sub)) + 1.0
        ep = toy_traverse(engine.TrainConfig(stop_threshold=0.0), n=6,
                          seed=2)
        shaped_eval, shaped_r = shaped.score(ep, 0)
        plain_eval, plain_r = plain.score(ep, 0)
        assert np.any(shaped_r != plain_r)
        # the same subsets, so the underlying rewards agree
        assert shaped_eval == plain_eval

    def test_unadvised_rewards_are_the_subsets_rewards(self):
        # the walk's subset after each step is what scoring rewards, and
        # the final eval is the final subset's reward
        tr = engine._Trainer(small_split(), quick_config(advise_steps=0))
        ep = random_walk(tr, seed=11)
        final_eval, advised = tr.score(ep, 0)
        sub = frozenset()
        for s, r in zip(ep.steps, advised):
            if s.action == 1:
                sub = sub | {s.feature}
            assert r == tr.reward(sub)
        assert final_eval == rewards.eval_reward(
            ep.final_subset, tr.split, tr.config.weights, tr.config.seed,
            n_trees=tr.config.eval_trees,
        )


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

    def test_one_autoencoder_per_run(self, monkeypatch):
        calls = []
        train_autoencoder = state.train_autoencoder

        def counting(*args, **kwargs):
            calls.append(1)
            return train_autoencoder(*args, **kwargs)

        monkeypatch.setattr(state, "train_autoencoder", counting)
        engine.train(small_split(),
                     quick_config(episodes=3, state_mode="autoencoder"))
        assert len(calls) == 1

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


# (config overrides, curve lengths, digest of the curve evals and losses,
# best_subset, greedy_subset, decision_counts); pinned before the walk was
# split from the scoring
GOLDEN_RUNS = {
    "greedy": (
        dict(stop_threshold=0.5),
        [3, 2, 3, 6, 4, 6, 2, 2, 2, 4, 4, 6], "dee7aa15b81ac312",
        (0, 1, 2, 4, 5), (), (8, 8, 7, 7, 7, 7),
    ),
    "random": (
        dict(behavior_mode="random", stop_threshold=0.0),
        [6] * 12, "ee16a7bb4a527779",
        (1, 3, 5), (0, 1, 2, 3, 4, 5), (12,) * 6,
    ),
    "autoencoder_reversed": (
        dict(state_mode="autoencoder", return_mode="reversed"),
        [3, 2, 3, 6, 3, 6, 2, 3, 2, 4, 4, 6], "cf8ffce74d3dc860",
        (2, 3), (), (8, 8, 7, 7, 7, 7),
    ),
    # the window closes at step 3 of the third episode
    "advice_ends_mid_episode": (
        dict(advise_steps=15, stop_threshold=0.0),
        [6] * 12, "d50c05c9419ac08d",
        (0, 1, 2, 3, 5), (0,), (12,) * 6,
    ),
}


class TestGoldenRuns:
    @pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
    def test_same_report_as_reference(self, name):
        overrides, lengths, digest, best, greedy, counts = GOLDEN_RUNS[name]
        rep = engine.train(small_split(), quick_config(**overrides))
        assert [c.length for c in rep.curves] == lengths
        values = np.array([[c.eval for c in rep.curves],
                           [c.loss for c in rep.curves]])
        assert hashlib.sha256(values.tobytes()).hexdigest()[:16] == digest
        assert rep.best_subset == best
        assert rep.greedy_subset == greedy
        assert rep.decision_counts == counts


def meta_represent():
    return state.make_represent(small_split().train, "meta")


class TestFinalSelection:
    def test_zero_network_selects_nothing(self):
        subset = engine.final_selection(zeroed_qnet(49), meta_represent(), 6)
        assert subset == frozenset()

    def test_biased_network_selects_everything(self):
        net = zeroed_qnet(49)
        net.biases[-1][1] = 5.0  # constant preference for taking
        subset = engine.final_selection(net, meta_represent(), 6)
        assert subset == frozenset(range(6))

    def test_idempotent(self):
        represent = meta_represent()
        net = qlearner.q_network(49, seed=17)
        a = engine.final_selection(net, represent, 6)
        b = engine.final_selection(net, represent, 6)
        assert a == b
