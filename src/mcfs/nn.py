"""Minimal fully-connected network with analytic gradients and Adam."""

from __future__ import annotations

import numpy as np

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class MLP:
    """ReLU hidden layers, linear output, Glorot-uniform init.

    Weights are updated in place by ``adam_step``.  ``forward`` returns the
    output batch plus the cache ``backward`` needs; ``backward`` maps an
    output gradient to parameter gradients.
    """

    def __init__(self, sizes, seed: int = 0):
        if len(sizes) < 2:
            raise ValueError("need at least input and output sizes")
        rng = np.random.default_rng(seed)
        self.sizes = list(sizes)
        self.weights = []
        self.biases = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            lim = np.sqrt(6.0 / (fan_in + fan_out))
            self.weights.append(rng.uniform(-lim, lim, size=(fan_in, fan_out)))
            self.biases.append(np.zeros(fan_out))
        self._m = [np.zeros_like(w) for w in self._params()]
        self._v = [np.zeros_like(w) for w in self._params()]
        self._t = 0

    def _params(self):
        return self.weights + self.biases

    def forward(self, x: np.ndarray):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        pre = []
        acts = [x]
        h = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = h @ w + b
            pre.append(z)
            h = z if i == last else np.maximum(z, 0.0)
            acts.append(h)
        return h, (pre, acts)

    def backward(self, cache, dout: np.ndarray):
        """Parameter gradients for d(loss)/d(output) ``dout``."""
        pre, acts = cache
        grads_w = [None] * len(self.weights)
        grads_b = [None] * len(self.biases)
        delta = np.asarray(dout, dtype=np.float64)
        for i in range(len(self.weights) - 1, -1, -1):
            grads_w[i] = acts[i].T @ delta
            grads_b[i] = delta.sum(axis=0)
            if i > 0:
                delta = (delta @ self.weights[i].T) * (pre[i - 1] > 0.0)
        return grads_w + grads_b

    def adam_step(self, grads, lr: float):
        self._t += 1
        t = self._t
        for p, g, m, v in zip(self._params(), grads, self._m, self._v):
            m *= ADAM_BETA1
            m += (1 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1 - ADAM_BETA2) * np.square(g)
            mhat = m / (1 - ADAM_BETA1 ** t)
            vhat = v / (1 - ADAM_BETA2 ** t)
            p -= lr * mhat / (np.sqrt(vhat) + ADAM_EPS)


def mse_loss_grad(out: np.ndarray, target: np.ndarray):
    """Mean squared error over every output entry, and d(loss)/d(out)."""
    err = out - target
    loss = float(np.mean(np.square(err)))
    return loss, 2.0 * err / err.size
