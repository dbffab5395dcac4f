"""Adam with bias correction.

The update follows the original formulation:

    m_t = b1*m + (1-b1)*g          m_hat = m_t / (1 - b1^t)
    v_t = b2*v + (1-b2)*g^2        v_hat = v_t / (1 - b2^t)
    p  -= lr * m_hat / (sqrt(v_hat) + eps)

Parameters with a ``None`` gradient are treated as having zero gradient:
their moments still decay and the bias-corrected step is applied.

One step is one update over flat buffers: the gradients are concatenated
into one array, and the moments and the step are a handful of in-place
ufuncs over all parameters at once, each parameter then subtracting its
slice. The elementwise operations are those of the formulas above in the
same order, so the result is bit for bit that of updating each parameter
on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import ShapeMismatch, Tensor


@dataclass
class AdamState:
    """Step count and moments. The first step fixes the layout (parameter
    names and shapes in iteration order, and their one dtype); ``m[name]``
    and ``v[name]`` are views, in the parameter's shape, into flat buffers."""

    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    layout: tuple = ()
    # rows: m, v, then two work rows for the gradient and the step
    flat: np.ndarray | None = None
    updates: list[np.ndarray] = field(default_factory=list)


def _allocate(state: AdamState, layout: tuple) -> None:
    dtypes = {dtype for _, _, dtype in layout}
    if len(dtypes) != 1:
        raise ShapeMismatch(f"Adam needs parameters of one dtype, got {sorted(map(str, dtypes))}")
    sizes = [int(np.prod(shape)) for _, shape, _ in layout]
    state.flat = np.zeros((4, sum(sizes)), dtype=dtypes.pop())
    state.layout = layout
    start = 0
    for (name, shape, _), size in zip(layout, sizes):
        span = slice(start, start + size)
        state.m[name] = state.flat[0, span].reshape(shape)
        state.v[name] = state.flat[1, span].reshape(shape)
        state.updates.append(state.flat[2, span].reshape(shape))
        start += size


def adam_step(
    params: dict[str, Tensor],
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    grads = []
    for name, p in params.items():
        g = p.grad
        if g is None:
            g = np.zeros_like(p.data)
        elif g.shape != p.data.shape:
            raise ShapeMismatch(f"gradient shape {g.shape} vs parameter {p.data.shape} for {name}")
        grads.append(g.ravel())
    layout = tuple((name, p.data.shape, p.data.dtype) for name, p in params.items())
    if state.flat is None:
        _allocate(state, layout)
    elif layout != state.layout:
        raise ShapeMismatch("parameter names, shapes or dtype differ from Adam's first step")
    state.step += 1
    t = state.step
    c1 = 1.0 - beta1**t
    c2 = 1.0 - beta2**t
    m, v, g, tmp = state.flat
    np.concatenate(grads, out=g)
    np.multiply(g, 1.0 - beta1, out=tmp)
    m *= beta1
    m += tmp
    np.multiply(g, g, out=g)
    g *= 1.0 - beta2
    v *= beta2
    v += g
    # g becomes lr·(m/c1) / (sqrt(v/c2) + eps), the step state.updates views
    np.divide(m, c1, out=g)
    g *= lr
    np.divide(v, c2, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += eps
    g /= tmp
    for p, update in zip(params.values(), state.updates):
        p.data -= update
