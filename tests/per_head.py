"""Multi-head attention one head at a time, kept as the reference for
``ad.attention``.

Each head is its own chain of tape ops: three projections, the score
matrix, its scale, a masked softmax and the weighted sum of the values;
then the heads are joined by column and mapped by the output projection.
The batched product and the masked softmax this needs are defined here,
on the tape's own node helpers, because ``hmlc`` computes attention as one
op and has no other use for them; ``matmul_nt`` comes from ``per_op``.
Tests compare ``ad.attention`` against ``multihead_attention`` below in f64.
"""

from __future__ import annotations

import math

import numpy as np

from hmlc import autodiff as ad
from hmlc.autodiff import _accum, _emit
from hmlc.nn import AttentionParams

import per_op


def matmul(a: ad.Tensor, b: ad.Tensor) -> ad.Tensor:
    """``per_op.matmul``, plus a batch of products (B, r, k) @ (B, k, s)."""
    if a.ndim != 3 or b.ndim != 3:
        return per_op.matmul(a, b)
    if a.shape[0] != b.shape[0] or a.shape[2] != b.shape[1]:
        raise ad.ShapeMismatch(f"matmul {a.shape} @ {b.shape}")

    def backward(g):
        _accum(a, g @ b.data.transpose(0, 2, 1))
        _accum(b, a.data.transpose(0, 2, 1) @ g)

    return _emit(a.data @ b.data, backward)


def softmax(a: ad.Tensor, key_mask: np.ndarray | None = None) -> ad.Tensor:
    """Softmax over the last axis of a 2D (r, s) or 3D (B, r, s) tensor.
    ``key_mask`` (bool, (s,) or (B, s)) restricts each distribution to the
    valid columns of its matrix; masked columns get probability exactly 0."""
    if a.ndim not in (2, 3):
        raise ad.ShapeMismatch(f"softmax expects 2D or 3D rows, got {a.shape}")
    if key_mask is None:
        e = np.exp(a.data - a.data.max(axis=-1, keepdims=True))
    else:
        key_mask = np.asarray(key_mask, dtype=bool)
        if key_mask.shape != a.shape[:-2] + a.shape[-1:]:
            raise ad.ShapeMismatch(f"key_mask shape {key_mask.shape} vs scores {a.shape}")
        if not key_mask.any(axis=-1).all():
            raise ad.ShapeMismatch("softmax with all columns masked")
        keep = key_mask[..., None, :]
        x = a.data - np.where(keep, a.data, -np.inf).max(axis=-1, keepdims=True)
        e = np.exp(np.where(keep, x, -np.inf))
    p = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        _accum(a, p * (g - (g * p).sum(axis=-1, keepdims=True)))

    return _emit(p, backward)


def multihead_attention(q: ad.Tensor, k: ad.Tensor, v: ad.Tensor, p: AttentionParams,
                        key_mask: np.ndarray | None = None) -> ad.Tensor:
    """What ``nn.multihead_attention`` computes, in seven tape nodes per head
    and two more to join and project the heads, instead of one node."""
    dh = q.shape[-1] // p.heads
    outs = []
    for h in range(p.heads):
        qh = matmul(q, p.wq[h])
        kh = matmul(k, p.wk[h])
        vh = matmul(v, p.wv[h])
        scores = ad.scale(per_op.matmul_nt(qh, kh), 1.0 / math.sqrt(dh))
        outs.append(matmul(softmax(scores, key_mask=key_mask), vh))
    merged = outs[0] if len(outs) == 1 else ad.concat(outs, dim=-1)
    return matmul(merged, p.wo)
