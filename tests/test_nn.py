"""Hand-rolled MLP: initialization, gradients, and Adam updates."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mcfs import nn
from support import ListAdam, get_flat, mse_loss_grad, set_flat


def finite_difference_grads(net, x, target, h=1e-6):
    """Central differences on the flattened parameter vector."""
    base = get_flat(net)
    grads = np.empty_like(base)
    for i in range(base.size):
        probe = base.copy()
        probe[i] = base[i] + h
        set_flat(net, probe)
        out, _ = net.forward(x)
        lo_plus, _ = mse_loss_grad(out, target)
        probe[i] = base[i] - h
        set_flat(net, probe)
        out, _ = net.forward(x)
        lo_minus, _ = mse_loss_grad(out, target)
        grads[i] = (lo_plus - lo_minus) / (2 * h)
    set_flat(net, base)
    return grads


class TestInit:
    def test_glorot_bounds_and_zero_biases(self):
        net = nn.MLP([5, 8, 2], seed=0)
        for w, (fi, fo) in zip(net.weights, [(5, 8), (8, 2)]):
            lim = np.sqrt(6.0 / (fi + fo))
            assert w.shape == (fi, fo)
            assert np.abs(w).max() <= lim
        for b in net.biases:
            assert np.all(b == 0.0)

    def test_seeded_init_deterministic(self):
        a = nn.MLP([4, 6, 3], seed=42)
        b = nn.MLP([4, 6, 3], seed=42)
        assert_allclose(get_flat(a), get_flat(b))

    def test_rejects_too_few_sizes(self):
        with pytest.raises(ValueError):
            nn.MLP([3])


class TestForward:
    def test_shapes(self):
        net = nn.MLP([4, 7, 2], seed=1)
        out, cache = net.forward(np.zeros((5, 4)))
        assert out.shape == (5, 2)

    def test_single_row_matches_batch(self):
        net = nn.MLP([3, 5, 2], seed=2)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 3))
        full, _ = net.forward(x)
        for i in range(4):
            row, _ = net.forward(x[i])
            assert_allclose(row[0], full[i], atol=1e-8)

    def test_relu_hidden_linear_output(self):
        net = nn.MLP([2, 4, 1], seed=3)
        x = np.array([[50.0, -50.0]])
        out, (pre, acts) = net.forward(x)
        assert np.all(acts[1] >= 0.0)  # hidden activations clipped at 0
        # output layer is linear: scaling hidden weights scales output
        assert np.isfinite(out).all()


class TestGradients:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for trial in range(5):
            sizes = [int(rng.integers(2, 5)) for _ in range(3)]
            net = nn.MLP(sizes, seed=trial)
            x = rng.normal(size=(3, sizes[0]))
            target = rng.normal(size=(3, sizes[-1]))
            out, cache = net.forward(x)
            _, dout = mse_loss_grad(out, target)
            flat = net.backward(cache, dout)
            fd = finite_difference_grads(net, x, target)
            err = np.abs(flat - fd) / np.maximum(1e-8, np.abs(flat) + np.abs(fd))
            assert err.max() < 1e-5

    def test_one_new_vector_laid_out_like_params(self):
        net = nn.MLP([3, 5, 4, 2], seed=3)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(6, 3))
        out, cache = net.forward(x)
        _, dout = mse_loss_grad(out, rng.normal(size=out.shape))
        first = net.backward(cache, dout)
        kept = first.copy()
        second = net.backward(cache, 2.0 * dout)
        assert first.shape == net.params.shape and first.dtype == np.float64
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(first, net.params)
        assert np.array_equal(first, kept)
        # linear in dout, and exactly so for a factor of 2
        assert np.array_equal(second, 2.0 * first)
        # the last bias gradient is the batch sum of the output gradient
        assert np.array_equal(first[-2:], dout.sum(axis=0))

    def test_mse_loss_grad_formula(self):
        out = np.array([[1.0, 2.0], [3.0, 4.0]])
        target = np.array([[0.0, 2.0], [2.0, 6.0]])
        loss, grad = mse_loss_grad(out, target)
        err = out - target
        assert_allclose(loss, np.mean(err ** 2), rtol=1e-12)
        assert_allclose(grad, 2 * err / err.size, rtol=1e-12)


class TestAdam:
    def test_fits_small_regression(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(64, 3))
        target = (x @ np.array([[1.0], [-2.0], [0.5]])) + 0.3
        net = nn.MLP([3, 16, 1], seed=0)
        losses = []
        for _ in range(300):
            out, cache = net.forward(x)
            loss, dout = mse_loss_grad(out, target)
            net.adam_step(net.backward(cache, dout), lr=0.01)
            losses.append(loss)
        assert losses[-1] < 0.05 * losses[0]

    def test_updates_are_deterministic(self):
        def run():
            net = nn.MLP([2, 4, 1], seed=5)
            x = np.array([[1.0, -1.0], [0.5, 2.0]])
            t = np.array([[1.0], [0.0]])
            for _ in range(10):
                out, cache = net.forward(x)
                _, dout = mse_loss_grad(out, t)
                net.adam_step(net.backward(cache, dout), lr=0.05)
            return get_flat(net)

        assert_allclose(run(), run())

    @pytest.mark.parametrize("sizes", [[49, 64, 8, 2], [12, 128, 32, 128, 12]])
    def test_matches_per_parameter_loop(self, sizes):
        # the Q-net shape and a deeper, wider one
        net = nn.MLP(sizes, seed=4)
        ref = ListAdam(net.weights + net.biases)
        rng = np.random.default_rng(6)
        for _ in range(50):
            x = rng.normal(size=(16, sizes[0]))
            target = rng.normal(size=(16, sizes[-1]))
            out, cache = net.forward(x)
            _, dout = mse_loss_grad(out, target)
            grads = net.backward(cache, dout)
            net.adam_step(grads, lr=0.01)
            ref.step(grads, lr=0.01)
            for p, r in zip(net.weights + net.biases, ref.params):
                assert np.array_equal(p, r)

    def test_parameter_views_write_through(self):
        net = nn.MLP([3, 4, 2], seed=1)
        x = np.ones((2, 3))
        before, _ = net.forward(x)
        net.biases[-1][1] += 5.0
        after, _ = net.forward(x)
        assert_allclose(after[:, 1] - before[:, 1], 5.0)
        assert np.array_equal(after[:, 0], before[:, 0])

    def test_flat_round_trip(self):
        net = nn.MLP([3, 4, 2], seed=8)
        flat = get_flat(net)
        set_flat(net, flat * 2.0)
        assert_allclose(get_flat(net), flat * 2.0)
