"""Elementary tape ops and the loss chains built from them, kept as the
references for the fused loss ops of ``hmlc.autodiff``.

``hmlc`` computes each loss as one op: the focal loss as ``focal``, the path
regularizer as ``hinge`` and the contrastive loss as
``weighted_log_sigmoid``. Before that, each was a chain of the small ops
below; every fused op runs the numpy calls of its chain in the same order,
and tests require the two to agree bit for bit, values and gradients. The
other references (``per_layer``, ``per_head``, ``per_record``) build on the
same ops. They are defined here, on the tape's own node helpers, because
``hmlc`` has no other use for them. Targets and weights enter the chains as
ordinary tensors; the gradients they collect are never read.
"""

from __future__ import annotations

import numpy as np

from hmlc import autodiff as ad
from hmlc.autodiff import _accum, _emit


def matmul(a: ad.Tensor, b: ad.Tensor) -> ad.Tensor:
    """Matrix product (..., k) @ (k, n) as one GEMM over every leading row; a
    vector (k,) is one row."""
    if a.ndim < 1 or b.ndim != 2 or a.shape[-1] != b.shape[0]:
        raise ad.ShapeMismatch(f"matmul {a.shape} @ {b.shape}")
    k, n = b.shape
    a2 = a.data.reshape(-1, k)
    data = (a2 @ b.data).reshape(a.shape[:-1] + (n,))

    def backward(g):
        g2 = g.reshape(-1, n)
        _accum(a, (g2 @ b.data.T).reshape(a.shape))
        _accum(b, a2.T @ g2)

    return _emit(data, backward)


def sub(a: ad.Tensor, b: ad.Tensor) -> ad.Tensor:
    if a.shape != b.shape:
        raise ad.ShapeMismatch(f"sub {a.shape} - {b.shape}")

    def backward(g):
        _accum(a, g)
        _accum(b, -g)

    return _emit(a.data - b.data, backward)


def mul(a: ad.Tensor, b: ad.Tensor) -> ad.Tensor:
    if a.shape != b.shape:
        raise ad.ShapeMismatch(f"mul {a.shape} * {b.shape}")

    def backward(g):
        _accum(a, g * b.data)
        _accum(b, g * a.data)

    return _emit(a.data * b.data, backward)


def shift(a: ad.Tensor, c: float) -> ad.Tensor:
    return _emit(a.data + float(c), lambda g: _accum(a, g))


def pow_const(a: ad.Tensor, p: float) -> ad.Tensor:
    p = float(p)

    def backward(g):
        if p != 0.0:
            _accum(a, g * p * a.data ** (p - 1.0))

    return _emit(a.data**p, backward)


def log(a: ad.Tensor) -> ad.Tensor:
    with np.errstate(divide="raise", invalid="raise"):
        try:
            data = np.log(a.data)
        except FloatingPointError as e:
            raise ad.NonFiniteValue("log of a non-positive value") from e
    return _emit(data, lambda g: _accum(a, g / a.data))


def clip(a: ad.Tensor, lo: float, hi: float) -> ad.Tensor:
    return _emit(np.clip(a.data, lo, hi),
                 lambda g: _accum(a, g * ((a.data > lo) & (a.data < hi))))


def relu(a: ad.Tensor) -> ad.Tensor:
    return _emit(np.maximum(a.data, 0.0), lambda g: _accum(a, g * (a.data > 0)))


def log_sigmoid(a: ad.Tensor) -> ad.Tensor:
    """log(sigmoid(x)), computed stably; note log(1-sigmoid(x)) = log_sigmoid(-x)."""
    return _emit(-np.logaddexp(0.0, -a.data),
                 lambda g: _accum(a, g * np.exp(-np.logaddexp(0.0, a.data))))  # sigmoid(-x)


# ---------------------------------------------------------------------------
# the loss chains, with the signatures of the fused ops


def focal(z: ad.Tensor, y, alpha: float, gamma: float, eps: float) -> ad.Tensor:
    """What ``ad.focal`` computes, in 14 tape nodes."""
    y = np.asarray(y, dtype=z.data.dtype)
    zc = clip(z, eps, 1.0 - eps)
    one_minus = shift(ad.scale(zc, -1.0), 1.0)
    pos = mul(ad.tensor(y, y.dtype), mul(pow_const(one_minus, gamma), log(zc)))
    neg = mul(ad.tensor(1.0 - y, y.dtype), mul(pow_const(zc, gamma), log(one_minus)))
    return ad.scale(ad.sum_all(ad.add(pos, neg)), -alpha)


def hinge(z: ad.Tensor, child, parent) -> ad.Tensor:
    """What ``ad.hinge`` computes, in 5 tape nodes: child and parent
    likelihoods gathered by products with two m×E one-hot matrices."""
    edges = np.arange(len(child))
    child_sel, parent_sel = (np.zeros((z.shape[-1], len(child)), dtype=z.data.dtype)
                             for _ in range(2))
    child_sel[child, edges] = 1.0
    parent_sel[parent, edges] = 1.0
    gap = sub(matmul(z, ad.tensor(child_sel, z.data.dtype)),
              matmul(z, ad.tensor(parent_sel, z.data.dtype)))
    return ad.sum_all(relu(gap))


def weighted_log_sigmoid(s: ad.Tensor, c: float, w_pos, w_neg, norm: float) -> ad.Tensor:
    """What ``ad.weighted_log_sigmoid`` computes, in 10 tape nodes."""
    dtype = s.data.dtype
    scores = ad.scale(s, c)
    pos = mul(ad.tensor(w_pos, dtype), log_sigmoid(scores))
    neg = mul(ad.tensor(w_neg, dtype), log_sigmoid(ad.scale(scores, -1.0)))
    return ad.scale(ad.add(ad.sum_all(pos), ad.sum_all(neg)), norm)
