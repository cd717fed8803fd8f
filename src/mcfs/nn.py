"""Minimal fully-connected network with analytic gradients and Adam.

Every parameter lives in one flat float64 vector, every weight matrix first
and then every bias.  ``weights`` and ``biases`` are reshaped views into it,
so an in-place edit of either is an edit of the vector.  ``backward`` writes
the gradient in the same layout, so one Adam step is a single pass of
elementwise operations over the whole vector.
"""

from __future__ import annotations

import numpy as np

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class MLP:
    """ReLU hidden layers, linear output, Glorot-uniform init.

    Weights are updated in place by ``adam_step``.  ``forward`` returns the
    output batch plus the cache ``backward`` needs; ``backward`` maps an
    output gradient to one gradient vector laid out like ``params``.
    """

    def __init__(self, sizes, seed: int = 0):
        if len(sizes) < 2:
            raise ValueError("need at least input and output sizes")
        rng = np.random.default_rng(seed)
        self.sizes = list(sizes)
        shapes = list(zip(sizes[:-1], sizes[1:]))
        n_weights = sum(fan_in * fan_out for fan_in, fan_out in shapes)
        self.params = np.zeros(n_weights + sum(sizes[1:]))
        self.weights = []
        self.biases = []
        # each layer's (weight slice, weight shape, bias slice) in params
        self._layout = []
        w_pos, b_pos = 0, n_weights
        for fan_in, fan_out in shapes:
            w_slice = slice(w_pos, w_pos + fan_in * fan_out)
            b_slice = slice(b_pos, b_pos + fan_out)
            w = self.params[w_slice].reshape(fan_in, fan_out)
            lim = np.sqrt(6.0 / (fan_in + fan_out))
            w[...] = rng.uniform(-lim, lim, size=(fan_in, fan_out))
            self.weights.append(w)
            self.biases.append(self.params[b_slice])
            self._layout.append((w_slice, (fan_in, fan_out), b_slice))
            w_pos += fan_in * fan_out
            b_pos += fan_out
        self._m = np.zeros_like(self.params)
        self._v = np.zeros_like(self.params)
        self._t = 0

    def forward(self, x: np.ndarray):
        if not (type(x) is np.ndarray and x.ndim == 2
                and x.dtype == np.float64):
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

    def backward(self, cache, dout: np.ndarray) -> np.ndarray:
        """Parameter gradients for d(loss)/d(output) ``dout``, as a new
        vector laid out like ``params``."""
        pre, acts = cache
        grad = np.empty_like(self.params)
        delta = np.asarray(dout, dtype=np.float64)
        for i in range(len(self.weights) - 1, -1, -1):
            w_slice, w_shape, b_slice = self._layout[i]
            np.matmul(acts[i].T, delta, out=grad[w_slice].reshape(w_shape))
            delta.sum(axis=0, out=grad[b_slice])
            if i > 0:
                delta = (delta @ self.weights[i].T) * (pre[i - 1] > 0.0)
        return grad

    def adam_step(self, g: np.ndarray, lr: float):
        """One Adam update from ``backward``'s gradient vector."""
        self._t += 1
        t = self._t
        m, v = self._m, self._v
        m *= ADAM_BETA1
        m += (1 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1 - ADAM_BETA2) * np.square(g)
        mhat = m / (1 - ADAM_BETA1 ** t)
        vhat = v / (1 - ADAM_BETA2 ** t)
        self.params -= lr * mhat / (np.sqrt(vhat) + ADAM_EPS)
