"""Small neural building blocks: MLPs and multi-head attention.

Everything is expressed through the ops in :mod:`hmlc.autodiff`, so a single
``Tape`` captures whole-model gradients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import ACTIVATIONS, ShapeMismatch, Tensor, attention, default_dtype, dense, tensor


@dataclass
class MlpParams:
    """Fully connected layers; the final layer is linear, hidden layers use
    ``activation``."""

    weights: list[Tensor] = field(default_factory=list)
    biases: list[Tensor] = field(default_factory=list)
    activation: str = "relu"

    def named(self, prefix: str) -> dict[str, Tensor]:
        out = {}
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            out[f"{prefix}.w{i}"] = w
            out[f"{prefix}.b{i}"] = b
        return out


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(default_dtype())


def init_mlp(rng: np.random.Generator, sizes: list[int], activation: str = "relu") -> MlpParams:
    """``sizes`` gives the unit counts layer by layer, input first."""
    if len(sizes) < 2:
        raise ShapeMismatch("an MLP needs at least input and output sizes")
    if activation not in ACTIVATIONS:
        raise ShapeMismatch(f"unknown activation {activation!r}")
    p = MlpParams(activation=activation)
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        p.weights.append(tensor(xavier_uniform(rng, fan_in, fan_out)))
        p.biases.append(tensor(np.zeros(fan_out, dtype=default_dtype())))
    return p


def mlp_forward(x: Tensor, p: MlpParams) -> Tensor:
    """Apply the MLP to a single vector (1D) or along the last axis of a
    matrix or a batch of matrices (2D, 3D), one ``dense`` op per layer."""
    last = len(p.weights) - 1
    for i, (w, b) in enumerate(zip(p.weights, p.biases)):
        x = dense(x, w, b, p.activation if i != last else "identity")
    return x


@dataclass
class AttentionParams:
    heads: int
    wq: list[Tensor] = field(default_factory=list)
    wk: list[Tensor] = field(default_factory=list)
    wv: list[Tensor] = field(default_factory=list)
    wo: Tensor = None

    def named(self, prefix: str) -> dict[str, Tensor]:
        out = {}
        for h in range(self.heads):
            out[f"{prefix}.q{h}"] = self.wq[h]
            out[f"{prefix}.k{h}"] = self.wk[h]
            out[f"{prefix}.v{h}"] = self.wv[h]
        out[f"{prefix}.o"] = self.wo
        return out


def init_attention(rng: np.random.Generator, d: int, heads: int) -> AttentionParams:
    if heads < 1 or d % heads != 0:
        raise ShapeMismatch(f"width {d} not divisible by {heads} heads")
    dh = d // heads
    p = AttentionParams(heads=heads)
    for _ in range(heads):
        p.wq.append(tensor(xavier_uniform(rng, d, dh)))
        p.wk.append(tensor(xavier_uniform(rng, d, dh)))
        p.wv.append(tensor(xavier_uniform(rng, d, dh)))
    p.wo = tensor(xavier_uniform(rng, d, d))
    return p


def multihead_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    p: AttentionParams,
    key_mask: np.ndarray | None = None,
) -> Tensor:
    """Scaled dot-product attention with per-head projections, as one
    ``attention`` tape op.

    ``q`` is (r, d); ``k`` and ``v`` are (s, d) with matching s. A leading
    batch axis attends each of B matrices independently: ``q`` (B, r, d),
    ``k`` and ``v`` (B, s, d); 2D operands are the B=1 case. ``key_mask``,
    (s,) or (B, s), marks which key rows may be attended to; masked keys
    receive exactly zero weight.
    """
    return attention(q, k, v, p.wq, p.wk, p.wv, p.wo, key_mask=key_mask)
