"""Value network, policies, replay memory, and weighted training steps."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mcfs import qlearner
from support import DequeReplay, get_flat, set_flat


def make_net(state_dim=6, seed=0):
    return qlearner.q_network(state_dim, seed=seed)


def as_batch(rows):
    """(state, action, target) rows in ``train_step``'s array form."""
    states, actions, targets = zip(*rows)
    return np.stack(states), np.array(actions), np.array(targets)


def zeroed_net(state_dim=6):
    net = make_net(state_dim)
    set_flat(net, np.zeros_like(get_flat(net)))
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
        set_flat(net, get_flat(net) * 500.0)
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
        batch = as_batch([
            (rng.normal(size=5), int(rng.integers(0, 2)), rng.normal())
            for _ in range(16)
        ])
        first = qlearner.train_step(net, batch, lr=0.01)
        for _ in range(200):
            last = qlearner.train_step(net, batch, lr=0.01)
        assert last < 0.2 * first

    def test_loss_uses_only_taken_actions(self):
        # identical states/targets fit perfectly regardless of the value
        # the untaken action holds
        net = zeroed_net(3)
        batch = as_batch([(np.zeros(3), 0, 0.0)] * 4)
        loss = qlearner.train_step(net, batch, lr=0.01)
        assert loss < 1e-20

    def test_rejects_bad_targets_and_actions(self):
        net = make_net(2)
        with pytest.raises(ValueError):
            qlearner.train_step(net, as_batch([(np.zeros(2), 0, np.nan)]),
                                lr=0.01)
        with pytest.raises(ValueError):
            qlearner.train_step(net, as_batch([(np.zeros(2), 3, 1.0)]),
                                lr=0.01)
        with pytest.raises(ValueError):
            qlearner.train_step(
                net, (np.zeros((0, 2)), np.zeros(0, dtype=int), np.zeros(0)),
                lr=0.01,
            )

    @pytest.mark.parametrize("batch", [
        # fractional actions passed the range check, then failed to index
        (np.zeros((2, 2)), np.array([0.5, 1.0]), np.zeros(2)),
        # boolean actions indexed the output as a mask and trained
        (np.zeros((2, 2)), np.array([True, False]), np.zeros(2)),
        # an extra state was dropped without a word
        (np.zeros((3, 2)), np.array([0, 1]), np.zeros(2)),
    ], ids=["fractional-actions", "boolean-actions", "length-mismatch"])
    def test_rejects_malformed_batch_before_forward(self, batch):
        net = make_net(2)
        before = get_flat(net)
        with pytest.raises(ValueError):
            qlearner.train_step(net, batch, lr=0.01)
        assert np.array_equal(get_flat(net), before)

    def test_returns_pre_update_loss(self):
        net = make_net(4, seed=8)
        batch = as_batch([(np.ones(4), 1, 2.0)])
        q_before = qlearner.q_values(net, np.ones(4))[1]
        loss = qlearner.train_step(net, batch, lr=0.01)
        assert_allclose(loss, (q_before - 2.0) ** 2, rtol=1e-10)


class TestGreedyAction:
    @pytest.mark.parametrize("q", [
        [0.3, 0.3], [-1.0, -1.0], [0.0, -0.0], [np.inf, np.inf],
        [np.nan, 0.2], [0.2, np.nan], [np.nan, np.nan],
        [np.nan, np.inf], [-np.inf, np.nan], [0.1, 0.4], [0.4, 0.1],
    ])
    def test_matches_argmax(self, q):
        # ties and a NaN in q[0] go to action 0, as np.argmax has them
        q = np.array(q)
        assert qlearner.greedy_action(q) == int(np.argmax(q))

    def test_matches_argmax_on_random_values(self):
        rng = np.random.default_rng(8)
        for q in rng.normal(size=(500, 2)):
            assert qlearner.greedy_action(q) == int(np.argmax(q))


def rows(values, action=0):
    """Replay rows holding one-element states ``values``, as one push."""
    values = np.asarray(values, dtype=np.float64)
    return values[:, None], np.full(values.size, action), values


class TestReplayMemory:
    def test_capacity_evicts_oldest(self):
        mem = qlearner.ReplayMemory(capacity=3)
        mem.push(*rows([0.0, 1.0]))
        mem.push(*rows([2.0, 3.0, 4.0]))
        rng = np.random.default_rng(0)
        states, _, _ = mem.sample(rng, 5)
        assert len(states) == 3
        kept = {int(s[0]) for s in states}
        assert kept == {2, 3, 4}

    def test_push_longer_than_capacity_keeps_last_rows(self):
        mem = qlearner.ReplayMemory(capacity=3)
        mem.push(*rows([0.0]))
        mem.push(*rows(np.arange(1.0, 8.0)))
        states, _, targets = mem.sample(np.random.default_rng(0), 3)
        assert sorted(targets) == [5.0, 6.0, 7.0]
        # the oldest row is still the one after the next push's slot
        mem.push(*rows([8.0]))
        states, _, _ = mem.sample(np.random.default_rng(0), 3)
        assert sorted(int(s[0]) for s in states) == [6, 7, 8]

    def test_sample_without_replacement(self):
        mem = qlearner.ReplayMemory(capacity=10)
        mem.push(*rows(np.arange(10.0), action=1))
        rng = np.random.default_rng(1)
        states, _, _ = mem.sample(rng, 10)
        got = [int(s[0]) for s in states]
        assert sorted(got) == list(range(10))

    def test_sample_clamps_to_size(self):
        mem = qlearner.ReplayMemory(capacity=10)
        mem.push(np.zeros((1, 2)), [0], [1.0])
        rng = np.random.default_rng(2)
        states, actions, targets = mem.sample(rng, 16)
        assert len(states) == len(actions) == len(targets) == 1

    def test_empty_sample_raises(self):
        mem = qlearner.ReplayMemory(capacity=4)
        with pytest.raises(ValueError):
            mem.sample(np.random.default_rng(0), 2)

    def test_same_rows_as_fifo_list(self):
        # episodes of 1 to 60 rows into a ring of 40: it fills, wraps past
        # its start, and takes one push longer than itself
        cap = 40
        mem, ref = qlearner.ReplayMemory(cap), DequeReplay(cap)
        rng_mem = np.random.default_rng(12)
        rng_ref = np.random.default_rng(12)
        data_rng = np.random.default_rng(13)
        for n in (1, 7, 16, 3, 25, 60, 2, 11, 40, 5):
            states = data_rng.normal(size=(n, 3))
            actions = data_rng.integers(0, 2, size=n)
            targets = data_rng.normal(size=n)
            mem.push(states, actions, targets)
            for row in zip(states, actions, targets):
                ref.push(*row)
            for k in (1, 16, cap):
                states, actions, targets = mem.sample(rng_mem, k)
                want = ref.sample(rng_ref, k)
                assert np.array_equal(states, np.stack([w[0] for w in want]))
                assert np.array_equal(actions, [w[1] for w in want])
                assert np.array_equal(targets, [w[2] for w in want])

    def test_rejects_state_of_another_shape(self):
        mem = qlearner.ReplayMemory(capacity=4)
        mem.push(np.zeros((1, 3)), [0], [1.0])
        with pytest.raises(ValueError):
            mem.push(np.zeros((1, 1)), [0], [1.0])

    def test_rejects_malformed_rows(self):
        mem = qlearner.ReplayMemory(capacity=4)
        with pytest.raises(ValueError):
            mem.push(np.zeros(3), [0], [1.0])  # one state, not a row of them
        with pytest.raises(ValueError):
            mem.push(np.zeros((2, 3)), [0, 1], [1.0])
        assert mem.states is None

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            qlearner.ReplayMemory(capacity=0)
