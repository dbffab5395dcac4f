"""Adam with bias correction, and the one mini-batch loop that runs it.

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

from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .autodiff import NonFiniteValue, ShapeMismatch, Tape, Tensor, zero_grads


class NonFiniteLoss(NonFiniteValue):
    """A NaN or an inf in a training step's loss or gradient, naming the step."""


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


def descend(params: dict[str, Tensor], loss_of: Callable[[np.ndarray], Tensor | None], n: int,
            rng: np.random.Generator, epochs: int, batch_size: int, lr: float, lr_decay: float,
            decay_every: int, max_steps: int | None = None) -> Iterator[tuple[float, float]]:
    """Mini-batch Adam over ``n`` items, reshuffled by ``rng`` each epoch, yielding
    ``(loss, lr)`` after each step. ``loss_of(idx)`` records a batch's scalar loss,
    or returns ``None`` to skip the batch, which is then not a step. lr decays by
    ``lr_decay`` every ``decay_every`` steps; at most ``max_steps`` steps run."""
    state = AdamState()
    done = 0
    for epoch in range(1, epochs + 1):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            if max_steps is not None and done >= max_steps:
                return
            zero_grads(params)
            try:
                with Tape() as tape:
                    loss = loss_of(order[start:start + batch_size])
                    if loss is None:
                        continue
                    tape.backward(loss)
            except NonFiniteValue as e:
                raise NonFiniteLoss(
                    f"non-finite loss at epoch {epoch}, step {done + 1}: {e}") from e
            adam_step(params, state, lr)
            done += 1
            yield loss.item(), lr  # outside the tape: the caller may stop here
            if done % decay_every == 0:
                lr *= lr_decay
