"""A dense layer as three tape ops, kept as the reference for ``ad.dense``.

``hmlc`` runs each MLP layer, act(x @ w + b), as one ``dense`` op. Before
that, a layer was ``matmul``, then ``add`` with the bias broadcast over every
leading row, then the activation; ``dense`` runs the same numpy calls in the
same order, and tests require the two to agree bit for bit, values and
gradients. The bias broadcast and ``tanh`` are defined here, on the tape's
own node helpers, because ``hmlc`` has no other use for them; ``matmul`` and
``relu`` come from ``per_op``.
"""

from __future__ import annotations

import numpy as np

from hmlc import autodiff as ad
from hmlc.autodiff import _accum, _emit

import per_op


def add(a: ad.Tensor, b: ad.Tensor) -> ad.Tensor:
    """``ad.add``, plus a bias (n,) broadcast over every leading row of (..., n)."""
    if a.shape == b.shape:
        return ad.add(a, b)
    if not (a.ndim >= 2 and b.ndim == 1 and a.shape[-1] == b.shape[0]):
        raise ad.ShapeMismatch(f"add {a.shape} + {b.shape}")

    def backward(g):
        _accum(a, g)
        _accum(b, g.reshape(-1, b.shape[0]).sum(axis=0))

    return _emit(a.data + b.data, backward)


def tanh(a: ad.Tensor) -> ad.Tensor:
    data = np.tanh(a.data)

    def backward(g):
        _accum(a, g * (1.0 - data * data))

    return _emit(data, backward)


ACTIVATIONS = {"relu": per_op.relu, "tanh": tanh, "identity": lambda t: t}


def dense(x: ad.Tensor, w: ad.Tensor, b: ad.Tensor, activation: str = "identity") -> ad.Tensor:
    """What ``ad.dense`` computes, in three tape nodes (two for identity)."""
    return ACTIVATIONS[activation](add(per_op.matmul(x, w), b))
