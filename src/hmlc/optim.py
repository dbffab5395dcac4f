"""Adam with bias correction, and the one mini-batch loop that runs it.

The update of Kingma & Ba (2015), at their default b1, b2, eps (BETA1, BETA2, EPS):

    m_t = b1*m + (1-b1)*g          m_hat = m_t / (1 - b1^t)
    v_t = b2*v + (1-b2)*g^2        v_hat = v_t / (1 - b2^t)
    p  -= lr * m_hat / (sqrt(v_hat) + eps)

The first step packs the parameters into one buffer of five rows (values,
gradients, m, v, work): each parameter's ``data`` and ``grad`` become views
of its slices of the first two rows, and a ``None`` gradient packs as zeros
(its moments still decay). The tape then adds gradients straight into the
buffer, and a step is a handful of in-place ufuncs over whole rows, the
formulas' operations in their order, so bit for bit a per-parameter update.
A step leaves the gradient row at zero. Assign a packed ``data`` or ``grad``
in place: a step raises ``ShapeMismatch`` if one was rebound.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .autodiff import NonFiniteValue, ShapeMismatch, Tape, Tensor, zero_grads


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class NonFiniteLoss(NonFiniteValue):
    """A NaN or an inf in a training step's loss or gradient, naming the step."""


@dataclass
class AdamState:
    """Step count and the packed parameters: ``flat`` holds the rows values,
    gradients, m, v and work; ``packed`` lists ``(name, tensor, data, grad)``
    in iteration order, ``data`` and ``grad`` being the tensor's two views."""

    step: int = 0
    flat: np.ndarray | None = None
    packed: list[tuple[str, Tensor, np.ndarray, np.ndarray]] = field(default_factory=list)


def _pack(params: dict[str, Tensor], state: AdamState) -> None:
    dtypes = {p.data.dtype for p in params.values()}
    if len(dtypes) != 1:
        raise ShapeMismatch(f"Adam needs parameters of one dtype, got {sorted(map(str, dtypes))}")
    for name, p in params.items():
        if p.grad is not None and p.grad.shape != p.data.shape:
            raise ShapeMismatch(f"gradient shape {p.grad.shape} vs parameter {p.data.shape} "
                                f"for {name}")
    state.flat = np.zeros((5, sum(p.data.size for p in params.values())), dtype=dtypes.pop())
    start = 0
    for name, p in params.items():
        span = slice(start, start + p.data.size)
        data, grad = (row[span].reshape(p.data.shape) for row in state.flat[:2])
        data[...] = p.data
        grad[...] = 0.0 if p.grad is None else p.grad
        p.data, p.grad = data, grad
        state.packed.append((name, p, data, grad))
        start += p.data.size


def adam_step(params: dict[str, Tensor], state: AdamState, lr: float) -> None:
    if state.flat is None:
        _pack(params, state)
    elif len(params) != len(state.packed) or any(
            p is not packed or p.data is not data or p.grad is not grad or name != packed_name
            for (name, p), (packed_name, packed, data, grad) in zip(params.items(), state.packed)):
        raise ShapeMismatch("parameters differ from those Adam packed at its first step, "
                            "or a packed data or grad was rebound rather than assigned in place")
    state.step += 1
    t = state.step
    c1 = 1.0 - BETA1**t
    c2 = 1.0 - BETA2**t
    values, g, m, v, tmp = state.flat
    np.multiply(g, 1.0 - BETA1, out=tmp)
    m *= BETA1
    m += tmp
    np.multiply(g, g, out=g)
    g *= 1.0 - BETA2
    v *= BETA2
    v += g
    # g becomes the step lr·(m/c1) / (sqrt(v/c2) + EPS)
    np.divide(m, c1, out=g)
    g *= lr
    np.divide(v, c2, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += EPS
    g /= tmp
    values -= g
    g.fill(0.0)


def descend(params: dict[str, Tensor], loss_of: Callable[[np.ndarray], Tensor | None], n: int,
            rng: np.random.Generator, epochs: int, batch_size: int, lr: float, lr_decay: float,
            decay_every: int, max_steps: int | None = None) -> Iterator[tuple[float, float]]:
    """Mini-batch Adam over ``n`` items, reshuffled by ``rng`` each epoch, yielding
    ``(loss, lr)`` after each step. ``loss_of(idx)`` records a batch's scalar loss,
    or returns ``None`` to skip the batch, which is then not a step. lr decays by
    ``lr_decay`` every ``decay_every`` steps; at most ``max_steps`` steps run.
    However the loop ends (run out, capped, closed or failed), each parameter
    gets its own copy of its values and no gradient, so the packed buffer goes."""
    state = AdamState()
    zero_grads(params)  # once: from the first step on, each step leaves them at zero
    done = 0
    try:
        for epoch in range(1, epochs + 1):
            order = rng.permutation(n)
            for start in range(0, n, batch_size):
                if max_steps is not None and done >= max_steps:
                    return
                try:
                    with Tape() as tape:
                        loss = loss_of(order[start:start + batch_size])
                        if loss is None:
                            continue
                        tape.backward(loss)
                except (NonFiniteValue, FloatingPointError) as e:  # the latter under np.errstate
                    raise NonFiniteLoss(
                        f"non-finite loss at epoch {epoch}, step {done + 1}: {e}") from e
                adam_step(params, state, lr)
                done += 1
                yield loss.item(), lr  # outside the tape: the caller may stop here
                if done % decay_every == 0:
                    lr *= lr_decay
    finally:
        for _name, p, data, _grad in state.packed:
            p.data, p.grad = data.copy(), None
