"""Engine pieces: stopping, weights, returns, traversal, and training."""

import hashlib
from dataclasses import replace

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

    def test_state_mode_is_not_a_field(self):
        # the autoencoder state was deleted with its switch
        assert "state_mode" not in engine.MODES
        with pytest.raises(TypeError):
            engine.TrainConfig(state_mode="meta")


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

    def test_always_a_probability(self):
        rng = np.random.default_rng(0)
        v = rng.uniform(0, 1)
        for w in rng.uniform(0, 3, size=200).tolist():
            assert 0.0 <= engine.survival_probability(w, v) <= 1.0

    def test_rejects_negative_inputs(self):
        with pytest.raises(ValueError):
            engine.survival_probability(-0.1, 0.5)
        with pytest.raises(ValueError):
            engine.survival_probability(0.5, -0.1)

    def test_complements_survival(self):
        # the same stop decision, bit for bit, as the scalar stop rule
        rng = np.random.default_rng(1)
        cases = [(w, v) for w in (0.0, 0.5, 1.0) for v in EDGE_THRESHOLDS]
        cases += [(rng.uniform(0, 2), rng.uniform(0, 1)) for _ in range(500)]
        for w, v in cases:
            assert stop_chance(w, v) == stop_probability(w, v)

    # importances at 0, below, at and above each threshold
    FLOAT_IMPORTANCES = (0.0, 0.2, 0.5, 0.7, 1.4, 3.0)

    def test_float_matches_clipped_ratio_and_scalar_rule(self):
        for v in (0.0, 0.5, 0.7):
            for w in self.FLOAT_IMPORTANCES:
                got = engine.survival_probability(w, v)
                assert type(got) is float
                assert got == (1.0 if v == 0 else min(1.0, w / v))
                assert 1.0 - got == stop_probability(w, v)

    def test_float_nan_propagates(self):
        assert np.isnan(engine.survival_probability(float("nan"), 0.5))
        assert engine.survival_probability(float("nan"), 0.0) == 1.0

    def test_float_rejects_negative_inputs(self):
        for w, v in ((-0.1, 0.5), (0.5, -0.1), (-0.1, 0.0)):
            with pytest.raises(ValueError):
                engine.survival_probability(w, v)


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
    surv = np.array([engine.survival_probability(w, stop_threshold)
                     for w in imp.tolist()])
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
    for state, action, importance in zip(ep.states, ep.actions,
                                         ep.importance.tolist()):
        q = q_values(qnet, state)
        pi = float(qlearner.target_policy(q)[action])
        b = 1.0 - epsilon if action == int(np.argmax(q)) else epsilon
        assert 0.0 < pi < 1.0
        assert importance == prev * pi / b
        prev = importance


def one_hot(n):
    """The one-hot state of a subset of n features."""
    return lambda sub: np.isin(np.arange(n), sorted(sub)).astype(float)


def toy_traverse(config, n=6, qnet=None, seed=0, represent=None,
                 order=None):
    """One training-style walk over n features, in index order unless
    ``order`` is given, with a one-hot state."""
    qnet = qnet or qlearner.q_network(n, seed=1)
    represent = represent or one_hot(n)
    rng = np.random.default_rng(seed)
    if config.behavior_mode == "greedy":
        choose = lambda q: qlearner.behavior_policy(q, config.epsilon, rng)
    else:
        choose = lambda q: qlearner.random_policy(rng)
    stop = lambda survival: rng.random() < 1.0 - survival
    order = list(range(n)) if order is None else order
    return engine.traverse_episode(qnet, order, represent, choose,
                                   config.stop_threshold, stop)


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
        assert_array_equal(ep.importance, 1.0)
        for state, action in zip(ep.states, ep.actions):
            pi = qlearner.target_policy(qlearner.q_values(qnet, state))
            assert pi[action] == 0.5

    def test_importance_recurrence_and_prob_values(self):
        cfg = engine.TrainConfig(epsilon=0.2, stop_threshold=0.3)
        qnet = qlearner.q_network(10, seed=1)
        ep = toy_traverse(cfg, n=10, qnet=qnet, seed=7)
        assert_importance_recurrence(ep, qnet, cfg.epsilon)

    @pytest.mark.parametrize("stop_threshold", [0.0, 1.0])
    def test_subsets_are_the_running_union_of_selects(self, stop_threshold):
        n = 12
        represent = one_hot(n)
        cfg = engine.TrainConfig(stop_threshold=stop_threshold, epsilon=0.4)
        stopped = []
        for seed in range(8):
            order = np.random.default_rng(seed).permutation(n).tolist()
            ep = toy_traverse(cfg, n=n, seed=seed, represent=represent,
                              order=order)
            k = len(ep.steps)
            # every column holds one entry per step
            assert ep.states.shape == (k, n)
            for column in (ep.actions, ep.importance, ep.survival,
                           ep.subsets):
                assert len(column) == k
            # the features walked are the first k of the order
            assert ep.steps.dtype.kind == "i"
            assert ep.steps.tolist() == order[:k]
            before = [frozenset(), *ep.subsets[:-1]]
            for i, sub in enumerate(ep.subsets):
                taken = {f for f, a in zip(order[:i + 1], ep.actions) if a}
                assert sub == frozenset(taken)
                # the state a decision saw is that of the subset before it
                assert_array_equal(ep.states[i], represent(before[i]))
                # a select, and only a select, grows the subset
                assert ep.actions[i] == int(sub != before[i])
            stopped.append(ep.stopped_early)
        # the record holds on stopped walks and on full ones
        assert any(stopped) == (stop_threshold > 0)
        assert not all(stopped)

    def test_early_stop_shortens_episode(self):
        cfg = engine.TrainConfig(stop_threshold=1.0, epsilon=0.4)
        lengths = [len(toy_traverse(cfg, n=12, seed=s).steps)
                   for s in range(30)]
        assert min(lengths) < 12
        for s in range(5):
            ep = toy_traverse(cfg, n=12, seed=s)
            assert ep.stopped_early == (len(ep.steps) < 12)

    def test_stop_asked_after_every_non_final_step(self):
        rng = np.random.default_rng(0)
        qnet = qlearner.q_network(4, seed=1)
        for v in (0.0, 0.7):
            asked = []
            ep = engine.traverse_episode(
                qnet, range(4), lambda sub: np.zeros(4),
                lambda q: qlearner.behavior_policy(q, 0.3, rng), v,
                lambda survival: asked.append(survival) or False,
            )
            assert asked == ep.survival[:-1].tolist()
            # every step's survival is recorded, the last one included
            for importance, survival in zip(ep.importance.tolist(),
                                            ep.survival.tolist()):
                assert survival == engine.survival_probability(
                    importance, v
                )
            # the behavior differs from the target, so the weights move
            assert len(set(ep.importance.tolist())) > 1

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
            selects = int(ep.actions.sum())
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
            selects = int(ep.actions.sum())
            assert 0 < selects < n
            assert len(calls) == 1 + selects
            # each step's state is the state of the subset it saw
            seen = frozenset()
            for feature, state, action in zip(ep.steps.tolist(), ep.states,
                                              ep.actions):
                assert_allclose(state, represent(seen))
                if action == 1:
                    seen = seen | {feature}

    def test_deterministic_per_seed(self):
        cfg = engine.TrainConfig(stop_threshold=0.6)
        a = toy_traverse(cfg, n=9, seed=21)
        b = toy_traverse(cfg, n=9, seed=21)
        assert_array_equal(a.actions, b.actions)
        assert_array_equal(a.importance, b.importance)


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
        lambda q: qlearner.random_policy(rng), 0.0, lambda survival: False,
    )


def scripted_episode(decisions, subsets):
    """An episode of (feature, action) steps and the subset after each."""
    steps, actions = np.array(decisions, dtype=np.int64).T
    n = len(decisions)
    return engine.Episode(
        steps=steps, states=np.zeros((n, 1)), actions=actions,
        importance=np.ones(n), survival=np.ones(n),
        subsets=[frozenset(sub) for sub in subsets], stopped_early=False,
    )


ONE_SELECT = ([(0, 1)], [{0}])
SELECT_SKIP_SELECT = ([(0, 1), (1, 0), (2, 1)], [{0}, {0}, {0, 2}])


class TestScore:
    @pytest.mark.parametrize("walk, advise_steps, start_step, expected", [
        pytest.param(ONE_SELECT, 100, 0, [3.7], id="inside"),  # 1 + 0.9 * 3
        pytest.param(ONE_SELECT, 3, 10, [1.0], id="after"),
        pytest.param(ONE_SELECT, 5, 4, [3.7], id="at_end"),  # global step 5
        # global step 1, window 0
        pytest.param(ONE_SELECT, 0, 0, [1.0], id="past_end"),
        # global steps 2 and 3 are advised, 4 is not: 1 + 0.9 * 3 - 0,
        # 1 + 0.9 * 3 - 3, then the raw reward
        pytest.param(SELECT_SKIP_SELECT, 3, 1, [3.7, 0.7, 1.0],
                     id="closes_mid_episode"),
    ])
    def test_advice_window(self, walk, advise_steps, start_step, expected):
        tr = engine._Trainer(small_split(), quick_config(
            advise_steps=advise_steps, gamma=0.9, shaping_coeff=1.0,
        ))
        looked_up = []
        tr.reward = lambda sub: 1.0
        tr.utility = lambda sub: looked_up.append(sub) or 3.0 * len(sub)
        ep = scripted_episode(*walk)
        final_eval, advised = tr.score(ep, start_step)
        assert final_eval == 1.0
        assert_allclose(advised, expected, rtol=1e-12)
        # utilities only of the subsets before and after advised steps
        window = ep.subsets[:max(0, advise_steps - start_step)]
        assert set(looked_up) == ({frozenset(), *window} if window else set())

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
        for feature, action, r in zip(ep.steps.tolist(), ep.actions,
                                      advised):
            if action == 1:
                sub = sub | {feature}
            assert r == tr.reward(sub)
        assert [final_eval] == rewards.eval_reward(
            [ep.subsets[-1]], tr.split, tr.config.weights, tr.config.seed,
            n_trees=tr.config.eval_trees,
        )

    def test_rewards_looked_up_once_per_step_in_walk_order(self):
        tr = engine._Trainer(small_split(), quick_config(advise_steps=0))
        ep = random_walk(tr, seed=11)
        looked_up = []
        reward = tr.reward
        tr.reward = lambda sub: looked_up.append(sub) or reward(sub)
        tr.score(ep, 0)
        assert looked_up == ep.subsets

    def test_new_subsets_evaluated_once_in_first_seen_order(
            self, monkeypatch):
        calls = []

        def spy(subsets, split, weights, seed, n_trees):
            calls.append(list(subsets))
            return [float(len(s)) for s in subsets]

        monkeypatch.setattr(engine, "_eval_reward", spy)
        # a fresh split, so its reward table starts empty
        tr = engine._Trainer(small_split(), quick_config(advise_steps=0))
        walks = [random_walk(tr, seed) for seed in (11, 12, 13)]
        for ep in walks:
            before = len(calls)
            tr.score(ep, 0)
            # one call scores all of the episode's new subsets
            batch = [s for s in dict.fromkeys(ep.subsets)
                     if not any(s in c for c in calls[:before])]
            assert calls[before:] == ([batch] if batch else [])
        seen = [sub for ep in walks for sub in ep.subsets]
        assert len(set(seen)) < len(seen)  # deselects repeat a subset
        assert [s for c in calls for s in c] == list(dict.fromkeys(seen))



class TestTables:
    """Rewards and utilities live on the training fold, keyed by every
    input besides the subset.  Each test patches the scoring function, so
    it needs a fresh split: a cached split would keep its tables."""

    SUBSET = frozenset({0, 2})

    def test_reward_keys_are_complete(self, monkeypatch):
        calls = []

        def spy(subsets, split, weights, seed, n_trees):
            [subset] = subsets  # a lookup miss is scored alone
            calls.append((subset, split.test, weights, seed, n_trees))
            return [0.5]

        monkeypatch.setattr(engine, "_eval_reward", spy)
        sp = small_split()
        other_test = data.Split(sp.train, sp.test.take(np.arange(5)))
        base = quick_config()
        weights = rewards.RewardWeights(w_acc=0.5)
        runs = [
            (sp, base),
            # no reward input differs: the table answers
            (sp, replace(base, stop_threshold=0.0, utility_mode="rv")),
            (sp, replace(base, weights=weights)),
            (sp, replace(base, eval_trees=7)),
            (sp, replace(base, seed=4)),
            (other_test, base),
        ]
        for split, config in runs:
            assert engine._Trainer(split, config).reward(self.SUBSET) == 0.5
        assert calls == [
            (self.SUBSET, sp.test, base.weights, 3, 5),
            (self.SUBSET, sp.test, weights, 3, 5),
            (self.SUBSET, sp.test, base.weights, 3, 7),
            (self.SUBSET, sp.test, base.weights, 4, 5),
            (self.SUBSET, other_test.test, base.weights, 3, 5),
        ]

    def test_utility_keys_are_complete(self, monkeypatch):
        calls = []

        def spy(subset, ds, mode):
            calls.append((subset, mode))
            return 0.25

        monkeypatch.setattr(engine, "_utility", spy)
        sp = small_split()
        base = quick_config()
        # seed, weights and eval_trees are no utility input
        for config in (replace(base, utility_mode="rv"),
                       replace(base, utility_mode="rd"),
                       base,
                       replace(base, utility_mode="rv", seed=4,
                               eval_trees=7)):
            assert engine._Trainer(sp, config).utility(self.SUBSET) == 0.25
        assert calls == [(self.SUBSET, m) for m in ("rv", "rd", "rvrd")]


class TestTrainLoop:
    def test_report_shape_and_invariants(self):
        sp = small_split()
        rep = engine.train(sp, quick_config())
        assert len(rep.curves) == 12
        assert rep.best_eval == max(c.eval for c in rep.curves)
        # one decision per step, so the counts add up to the steps taken
        assert sum(rep.decision_counts) == sum(c.length for c in rep.curves)
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
        [direct] = rewards.eval_reward(
            [frozenset(rep.best_subset)], sp, cfg.weights, cfg.seed,
            n_trees=cfg.eval_trees,
        )
        assert_allclose(rep.best_eval, direct, rtol=1e-12)

    def test_step_budget_caps_episodes(self):
        sp = small_split()
        rep = engine.train(sp, quick_config(episodes=200,
                                            max_global_steps=30))
        assert len(rep.curves) < 200
        assert sum(rep.decision_counts) == sum(c.length for c in rep.curves)
        # the budget check runs between episodes, so one may overshoot
        assert sum(rep.decision_counts) <= 30 + 6

    def test_state_is_the_training_folds_meta_stats(self):
        sp = small_split()
        tr = engine._Trainer(sp, quick_config())
        for subset in (frozenset(), frozenset({0}), frozenset({1, 3, 5})):
            assert_array_equal(tr.represent(subset),
                               state.meta_stats(sp.train, subset))

    def test_state_function_looked_up_per_call(self, monkeypatch):
        # a wrapper installed after the trainer is built still sees every
        # state the table computes, as a call-counting probe needs; the
        # split is fresh, so its table holds only the empty subset
        sp = small_split()
        tr = engine._Trainer(sp, quick_config())
        seen = []
        meta_stats = state.meta_stats

        def counting(ds, subset):
            seen.append((ds, subset))
            return meta_stats(ds, subset)

        monkeypatch.setattr(state, "meta_stats", counting)
        tr.represent(frozenset({2}))
        engine.train(sp, quick_config(episodes=3, behavior_mode="random",
                                      stop_threshold=0.0))
        assert len(seen) > 1
        assert all(ds is sp.train for ds, _ in seen)
        # each subset's state is computed once per fold
        assert len({subset for _, subset in seen}) == len(seen)

    def test_states_are_read_only_and_kept(self):
        tr = engine._Trainer(small_split(), quick_config())
        s = tr.represent(frozenset({1, 4}))
        assert not s.flags.writeable
        with pytest.raises(ValueError):
            s[0] = 1.0
        # a second trainer on the fold reads the same vector
        other = engine._Trainer(tr.split, quick_config(seed=5))
        assert other.represent(frozenset({4, 1})) is s

    def test_all_negative_evals_keep_the_best_episode(self):
        # redundancy alone scores every subset of two or more features
        # below zero; the best is still an episode the run trained, not
        # an empty subset that no episode ended on
        rep = engine.train(small_split(), quick_config(
            weights=rewards.RewardWeights(0, 0, 1), behavior_mode="random",
            stop_threshold=0.0,
        ))
        evals = [c.eval for c in rep.curves]
        assert max(evals) < 0.0
        assert rep.best_eval == max(evals)
        assert len(rep.best_subset) >= 2
        assert [rep.best_eval] == rewards.eval_reward(
            [frozenset(rep.best_subset)], small_split(),
            rep.config.weights, rep.config.seed, n_trees=5,
        )

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
    # pinned on the commit before the autoencoder state was deleted
    "reversed": (
        dict(return_mode="reversed"),
        [3, 2, 3, 6, 4, 6, 2, 2, 2, 4, 4, 4], "450a1a43ebbef669",
        (0, 1, 2, 4, 5), (), (7,) * 6,
    ),
    # the window closes at step 3 of the third episode
    "advice_ends_mid_episode": (
        dict(advise_steps=15, stop_threshold=0.0),
        [6] * 12, "d50c05c9419ac08d",
        (0, 1, 2, 3, 5), (0,), (12,) * 6,
    ),
    # information terms only, so no reward forest is fitted, and early
    # stopping; pinned on the commit before the learner's per-step path
    # was rewritten (one state per subset, scalar stop rule, flat
    # gradient, one replay write per episode)
    "mi_only_stopping": (
        dict(weights=rewards.RewardWeights(0, 1, 1), stop_threshold=0.7),
        [3, 2, 3, 6, 3, 6, 2, 1, 2, 2, 2, 2], "682247290366e73b",
        (5,), (), (6, 6, 6, 6, 5, 5),
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
    train = small_split().train
    return lambda subset: state.meta_stats(train, subset)


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
