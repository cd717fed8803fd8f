"""Value network, policies, replay memory, and weighted training steps."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mcfs import qlearner


def make_net(state_dim=6, seed=0):
    return qlearner.QNetwork(state_dim, seed=seed)


def zeroed_net(state_dim=6):
    net = make_net(state_dim)
    net.net.set_flat(np.zeros_like(net.net.get_flat()))
    return net


class TestQValues:
    def test_two_actions_out(self):
        net = make_net(5)
        q = qlearner.q_values(net, np.zeros(5))
        assert q.shape == (2,)
        assert np.isfinite(q).all()

    def test_rejects_wrong_width(self):
        net = make_net(5)
        with pytest.raises(ValueError):
            qlearner.q_values(net, np.zeros(4))


class TestTargetPolicy:
    def test_sums_to_one_over_random_states(self):
        net = make_net(8, seed=3)
        rng = np.random.default_rng(0)
        for _ in range(50):
            q = qlearner.q_values(net, rng.normal(size=8))
            probs = qlearner.target_policy(q)
            assert probs.shape == (2,)
            assert np.all(probs > 0.0)
            assert_allclose(probs.sum(), 1.0, rtol=1e-12)

    def test_softmax_of_known_values(self):
        net = zeroed_net(3)
        # zero net: equal values, uniform target policy
        assert_allclose(
            qlearner.target_policy(qlearner.q_values(net, np.ones(3))),
            [0.5, 0.5],
        )

    def test_prefers_higher_value(self):
        net = make_net(4, seed=1)
        rng = np.random.default_rng(5)
        for _ in range(20):
            s = rng.normal(size=4)
            q = qlearner.q_values(net, s)
            probs = qlearner.target_policy(q)
            assert probs[np.argmax(q)] >= probs[np.argmin(q)]

    def test_safe_under_large_magnitudes(self):
        net = make_net(2, seed=2)
        net.net.set_flat(net.net.get_flat() * 500.0)
        q = qlearner.q_values(net, np.array([30.0, -40.0]))
        probs = qlearner.target_policy(q)
        assert np.isfinite(probs).all()
        assert_allclose(probs.sum(), 1.0, rtol=1e-12)


class TestBehaviorPolicy:
    def test_probabilities_are_epsilon_split(self):
        net = make_net(4, seed=4)
        rng = np.random.default_rng(1)
        q = qlearner.q_values(net, np.ones(4))
        greedy = int(np.argmax(q))
        seen = set()
        for _ in range(200):
            action, prob = qlearner.behavior_policy(q, 0.2, rng)
            if action == greedy:
                assert prob == 0.8
            else:
                assert prob == 0.2
            seen.add(action)
        assert seen == {0, 1}

    def test_frequencies_match_probabilities(self):
        net = make_net(3, seed=6)
        rng = np.random.default_rng(2)
        q = qlearner.q_values(net, np.full(3, 0.5))
        greedy = int(np.argmax(q))
        draws = [
            qlearner.behavior_policy(q, 0.1, rng)[0]
            for _ in range(4000)
        ]
        share = np.mean([a == greedy for a in draws])
        assert abs(share - 0.9) < 0.02

    def test_rejects_degenerate_epsilon(self):
        net = make_net(2)
        rng = np.random.default_rng(0)
        for eps in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                qlearner.behavior_policy(
                    qlearner.q_values(net, np.zeros(2)), eps, rng
                )

    def test_random_policy_uniform(self):
        rng = np.random.default_rng(3)
        draws = [qlearner.random_policy(rng) for _ in range(4000)]
        assert all(p == 0.5 for _, p in draws)
        share = np.mean([a for a, _ in draws])
        assert abs(share - 0.5) < 0.03


class TestTrainStep:
    def test_loss_decreases_on_fixed_batch(self):
        net = make_net(5, seed=7)
        rng = np.random.default_rng(4)
        batch = [
            (rng.normal(size=5), int(rng.integers(0, 2)), rng.normal())
            for _ in range(16)
        ]
        first = qlearner.train_step(net, batch, lr=0.01)
        for _ in range(200):
            last = qlearner.train_step(net, batch, lr=0.01)
        assert last < 0.2 * first

    def test_loss_uses_only_taken_actions(self):
        # identical states/targets fit perfectly regardless of the value
        # the untaken action holds
        net = zeroed_net(3)
        batch = [(np.zeros(3), 0, 0.0)] * 4
        loss = qlearner.train_step(net, batch, lr=0.01)
        assert loss < 1e-20

    def test_rejects_bad_targets_and_actions(self):
        net = make_net(2)
        with pytest.raises(ValueError):
            qlearner.train_step(net, [(np.zeros(2), 0, np.nan)])
        with pytest.raises(ValueError):
            qlearner.train_step(net, [(np.zeros(2), 3, 1.0)])
        with pytest.raises(ValueError):
            qlearner.train_step(net, [])

    def test_returns_pre_update_loss(self):
        net = make_net(4, seed=8)
        batch = [(np.ones(4), 1, 2.0)]
        q_before = qlearner.q_values(net, np.ones(4))[1]
        loss = qlearner.train_step(net, batch, lr=0.01)
        assert_allclose(loss, (q_before - 2.0) ** 2, rtol=1e-10)


class TestReplayMemory:
    def test_capacity_evicts_oldest(self):
        mem = qlearner.ReplayMemory(capacity=3)
        for i in range(5):
            mem.push(np.array([float(i)]), 0, float(i))
        assert len(mem) == 3
        rng = np.random.default_rng(0)
        kept = {int(s[0]) for s, _, _ in mem.sample(rng, 3)}
        assert kept == {2, 3, 4}

    def test_sample_without_replacement(self):
        mem = qlearner.ReplayMemory(capacity=10)
        for i in range(10):
            mem.push(np.array([float(i)]), 1, 0.0)
        rng = np.random.default_rng(1)
        got = [int(s[0]) for s, _, _ in mem.sample(rng, 10)]
        assert sorted(got) == list(range(10))

    def test_sample_clamps_to_size(self):
        mem = qlearner.ReplayMemory(capacity=10)
        mem.push(np.zeros(2), 0, 1.0)
        rng = np.random.default_rng(2)
        assert len(mem.sample(rng, 16)) == 1

    def test_empty_sample_raises(self):
        mem = qlearner.ReplayMemory(capacity=4)
        with pytest.raises(ValueError):
            mem.sample(np.random.default_rng(0), 2)

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            qlearner.ReplayMemory(capacity=0)
