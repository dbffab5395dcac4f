"""Dense-array reverse-mode autodiff on numpy, define-by-run. Ops: matmul,
matmul_nt, add, sub, mul, scale, shift, pow_const, log, clip, sigmoid,
log_sigmoid, relu, dense (one MLP layer), attention (multi-head),
l2_normalize, concat, reshape, sum_all and embed.

Each op computes its value and hands it, with one backward closure mapping
the value's gradient into its inputs' gradients, to ``_emit``. While a
``Tape`` is active, ``_emit`` appends the closure to it; creation order is
already a topological order of the compute graph, so ``Tape.backward``
replays the list once, in reverse. Without an active tape the closure is
dropped and the op runs forward-only (inference mode).

Every op validates that its result is finite and raises ``NonFiniteValue``
otherwise; numerical trouble is an error state here, never a silent NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class TensorError(ValueError):
    pass


class ShapeMismatch(TensorError):
    pass


class NonFiniteValue(TensorError):
    pass


_DTYPES = {"f32": np.float32, "f64": np.float64}
_default_dtype = np.dtype(np.float32)


def set_default_dtype(name: str) -> None:
    """Select the working precision, "f32" (default) or "f64"."""
    global _default_dtype
    if name not in _DTYPES:
        raise TensorError(f"unknown precision {name!r}; expected one of {sorted(_DTYPES)}")
    _default_dtype = np.dtype(_DTYPES[name])


def default_dtype() -> np.dtype:
    return _default_dtype


class Tensor:
    """A dense array plus an accumulated gradient of the same shape."""

    __slots__ = ("data", "grad", "constant")

    def __init__(self, data: np.ndarray, constant: bool = False):
        self.data = data
        self.grad = None
        self.constant = constant

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"


def tensor(values, dtype=None, constant: bool = False) -> Tensor:
    data = np.asarray(values, dtype=dtype or _default_dtype)
    _check_finite(data)
    return Tensor(data, constant=constant)


def const(values, dtype=None) -> Tensor:
    """A tensor excluded from gradient accumulation (targets, masks, selectors)."""
    return tensor(values, dtype=dtype, constant=True)


_TAPES: list["Tape"] = []


class Tape:
    """Recording scope for one forward pass. Use as a context manager."""

    def __init__(self):
        self.nodes: list[tuple[Tensor, object]] = []

    def __enter__(self) -> "Tape":
        _TAPES.append(self)
        return self

    def __exit__(self, *exc):
        _TAPES.pop()
        return False

    def backward(self, loss: Tensor) -> None:
        """Seed d(loss)/d(loss)=1 and accumulate grads into every reachable
        input. Each recorded node's closure runs at most once, in reverse
        creation order; nodes off the path to ``loss`` have no gradient and
        are skipped."""
        if loss.data.shape != ():
            raise ShapeMismatch(f"backward needs a scalar loss, got shape {loss.data.shape}")
        loss.grad = np.ones((), dtype=loss.data.dtype)
        for out, fn in reversed(self.nodes):
            if out.grad is not None:
                fn(out.grad)


def _active() -> Tape | None:
    return _TAPES[-1] if _TAPES else None


def _check_finite(data: np.ndarray) -> None:
    # the method call skips np.all's dispatch, a large share of a small op
    if not np.isfinite(data).all():
        raise NonFiniteValue("operation produced NaN or Inf")


def _accum(t: Tensor, g: np.ndarray) -> None:
    if t.constant:
        return
    if t.grad is None:
        t.grad = np.array(g)  # own a copy; g may alias another node's grad
    else:
        t.grad += g


def _emit(data: np.ndarray, backward, checked: bool = False) -> Tensor:
    """Wrap an op's result; under an active tape, record ``backward``, which
    maps the result's gradient into its inputs' gradients."""
    if not checked:
        _check_finite(data)
    out = Tensor(data)
    tape = _active()
    if tape is not None:
        tape.nodes.append((out, backward))
    return out


def zero_grads(tensors) -> None:
    for t in tensors.values() if isinstance(tensors, dict) else tensors:
        t.grad = None


# ---------------------------------------------------------------------------
# arithmetic


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product (..., k) @ (k, n) as one GEMM over every leading row; a
    vector (k,) is one row."""
    if a.ndim < 1 or b.ndim != 2 or a.shape[-1] != b.shape[0]:
        raise ShapeMismatch(f"matmul {a.shape} @ {b.shape}")
    k, n = b.shape
    a2 = a.data.reshape(-1, k)
    data = (a2 @ b.data).reshape(a.shape[:-1] + (n,))

    def backward(g):
        g2 = g.reshape(-1, n)
        _accum(a, (g2 @ b.data.T).reshape(a.shape))
        _accum(b, a2.T @ g2)

    return _emit(data, backward)


def matmul_nt(a: Tensor, b: Tensor) -> Tensor:
    """a @ b.T for 2D operands."""
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ShapeMismatch(f"matmul_nt {a.shape} @ {b.shape}.T")

    def backward(g):
        _accum(a, g @ b.data)
        _accum(b, g.T @ a.data)

    return _emit(a.data @ b.data.T, backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeMismatch(f"add {a.shape} + {b.shape}")

    def backward(g):
        _accum(a, g)
        _accum(b, g)

    return _emit(a.data + b.data, backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeMismatch(f"sub {a.shape} - {b.shape}")

    def backward(g):
        _accum(a, g)
        _accum(b, -g)

    return _emit(a.data - b.data, backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeMismatch(f"mul {a.shape} * {b.shape}")

    def backward(g):
        _accum(a, g * b.data)
        _accum(b, g * a.data)

    return _emit(a.data * b.data, backward)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _emit(a.data * c, lambda g: _accum(a, g * c))


def shift(a: Tensor, c: float) -> Tensor:
    return _emit(a.data + float(c), lambda g: _accum(a, g))


def pow_const(a: Tensor, p: float) -> Tensor:
    p = float(p)

    def backward(g):
        if p != 0.0:
            _accum(a, g * p * a.data ** (p - 1.0))

    return _emit(a.data**p, backward)


def log(a: Tensor) -> Tensor:
    with np.errstate(divide="raise", invalid="raise"):
        try:
            data = np.log(a.data)
        except FloatingPointError as e:
            raise NonFiniteValue("log of a non-positive value") from e
    return _emit(data, lambda g: _accum(a, g / a.data))


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    return _emit(np.clip(a.data, lo, hi),
                 lambda g: _accum(a, g * ((a.data > lo) & (a.data < hi))))


# ---------------------------------------------------------------------------
# nonlinearities

_SIGMOID_CLAMP = 15.0  # keeps sigmoid outputs away from exact 0/1 in f32


def sigmoid(a: Tensor) -> Tensor:
    x = np.clip(a.data, -_SIGMOID_CLAMP, _SIGMOID_CLAMP)
    s = 1.0 / (1.0 + np.exp(-x))
    return _emit(s, lambda g: _accum(a, g * s * (1.0 - s) * (np.abs(a.data) < _SIGMOID_CLAMP)))


def log_sigmoid(a: Tensor) -> Tensor:
    """log(sigmoid(x)), computed stably; note log(1-sigmoid(x)) = log_sigmoid(-x)."""
    return _emit(-np.logaddexp(0.0, -a.data),
                 lambda g: _accum(a, g * np.exp(-np.logaddexp(0.0, a.data))))  # sigmoid(-x)


def relu(a: Tensor) -> Tensor:
    return _emit(np.maximum(a.data, 0.0), lambda g: _accum(a, g * (a.data > 0)))


ACTIVATIONS = ("relu", "tanh", "identity")


def dense(x: Tensor, w: Tensor, b: Tensor, activation: str = "identity") -> Tensor:
    """act(x @ w + b) along the last axis of (..., k), with ``w`` (k, n) and
    ``b`` (n,); a vector (k,) is one row. A matmul, a bias add and an
    activation as one op, with the same numpy calls in the same order as
    those three."""
    if activation not in ACTIVATIONS or w.ndim != 2 or x.ndim not in (1, 2, 3) \
            or x.shape[-1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ShapeMismatch(f"dense {x.shape} @ {w.shape} + {b.shape}, {activation!r}")
    k, n = w.shape
    x2 = x.data.reshape(-1, k)
    z = (x2 @ w.data).reshape(x.shape[:-1] + (n,)) + b.data
    # relu(-inf) = 0 and tanh(±inf) = ±1, so the check comes before the activation
    _check_finite(z)
    data = np.maximum(z, 0.0) if activation == "relu" else \
        np.tanh(z) if activation == "tanh" else z

    def backward(g):
        if activation == "relu":
            g = g * (z > 0)
        elif activation == "tanh":
            g = g * (1.0 - data * data)
        g2 = g.reshape(-1, n)
        _accum(b, g2.sum(axis=0))
        _accum(x, (g2 @ w.data.T).reshape(x.shape))
        _accum(w, x2.T @ g2)

    return _emit(data, backward, checked=True)


def attention(q: Tensor, k: Tensor, v: Tensor, wq: list[Tensor], wk: list[Tensor],
              wv: list[Tensor], wo: Tensor, key_mask: np.ndarray | None = None) -> Tensor:
    """Multi-head scaled dot-product attention as one op (Vaswani et al., 2017).

    ``q`` is (r, d), ``k`` and ``v`` are (s, d); a leading batch axis
    (B, r, d) and (B, s, d) attends each of B matrices on its own. Head h
    projects with ``wq[h]``, ``wk[h]``, ``wv[h]`` (each (d, dh)); the heads'
    outputs are joined by column and mapped by ``wo`` ((H·dh, d_out)).
    ``key_mask`` (bool, (s,) or (B, s)) marks the keys each matrix may attend
    to; masked keys get weight exactly 0, as if their rows were removed."""
    if q.ndim not in (2, 3) or k.ndim != q.ndim or v.ndim != q.ndim:
        raise ShapeMismatch("attention operands must all be 2D or all be 3D")
    if q.shape[:-2] != k.shape[:-2] or k.shape[:-2] != v.shape[:-2]:
        raise ShapeMismatch(f"attention batch sizes differ: {q.shape}, {k.shape}, {v.shape}")
    d = q.shape[-1]
    if k.shape[-1] != d or v.shape[-1] != d:
        raise ShapeMismatch(f"attention widths differ: {q.shape}, {k.shape}, {v.shape}")
    if k.shape[-2] != v.shape[-2]:
        raise ShapeMismatch(f"key/value row counts differ: {k.shape} vs {v.shape}")
    heads = len(wq)
    if not heads or len(wk) != heads or len(wv) != heads:
        raise ShapeMismatch(f"attention needs one q, k and v weight per head, got "
                            f"{len(wq)}, {len(wk)}, {len(wv)}")
    dh = wq[0].shape[-1]
    if any(w.shape != (d, dh) for w in (*wq, *wk, *wv)) or wo.ndim != 2 \
            or wo.shape[0] != heads * dh:
        raise ShapeMismatch(f"attention weights do not fit {heads} heads of width {dh} "
                            f"over inputs of width {d}")
    r, s = q.shape[-2], k.shape[-2]
    if key_mask is not None:
        key_mask = np.asarray(key_mask, dtype=bool)
        if key_mask.shape != q.shape[:-2] + (s,):
            raise ShapeMismatch(f"key_mask shape {key_mask.shape} vs keys {k.shape}")
        if not key_mask.any(axis=-1).all():
            raise ShapeMismatch("attention with all keys masked")
    n = q.shape[0] if q.ndim == 3 else 1
    q2, k2, v2 = (x.data.reshape(-1, d) for x in (q, k, v))

    def split(x, rows):  # (n·rows, H·dh) -> (n, H, rows, dh)
        return x.reshape(n, rows, heads, dh).transpose(0, 2, 1, 3)

    def merge(x):  # (n, H, rows, dh) -> (n·rows, H·dh)
        return x.transpose(0, 2, 1, 3).reshape(-1, heads * dh)

    # one gather of every head's weights: columns [q heads | k heads | v heads]
    w_all = np.concatenate([w.data for w in (*wq, *wk, *wv)], axis=1)
    hd = heads * dh
    wq_all, wk_all, wv_all = w_all[:, :hd], w_all[:, hd:2 * hd], w_all[:, 2 * hd:]
    if k is v:  # self or cross attention over one key/value matrix: one GEMM
        kv = k2 @ w_all[:, hd:]
        kp, vp = kv[:, :hd], kv[:, hd:]
    else:
        kp, vp = k2 @ wk_all, v2 @ wv_all
    qh, kh, vh = split(q2 @ wq_all, r), split(kp, s), split(vp, s)
    # a Python float keeps f32 scores f32 (an np.float64 scalar would promote them)
    c = 1.0 / math.sqrt(dh)
    scores = qh @ kh.transpose(0, 1, 3, 2)
    scores *= c
    if key_mask is not None:
        # out of every row's max, and exp(-inf) is exactly 0
        np.copyto(scores, -np.inf, where=~key_mask.reshape(n, 1, 1, s))
    scores -= scores.max(axis=-1, keepdims=True)
    p = np.exp(scores, out=scores)
    p /= p.sum(axis=-1, keepdims=True)
    merged = merge(p @ vh)
    data = (merged @ wo.data).reshape(q.shape[:-1] + (wo.shape[1],))

    def backward(g):
        g2 = g.reshape(-1, wo.shape[1])
        _accum(wo, merged.T @ g2)
        g_heads = split(g2 @ wo.data.T, r)
        g_p = g_heads @ vh.transpose(0, 1, 3, 2)
        g_scores = p * (g_p - (g_p * p).sum(axis=-1, keepdims=True)) * c
        for x, x2, w_all, ws, gh in (
                (q, q2, wq_all, wq, g_scores @ kh),
                (k, k2, wk_all, wk, g_scores.transpose(0, 1, 3, 2) @ qh),
                (v, v2, wv_all, wv, p.transpose(0, 1, 3, 2) @ g_heads)):
            gh = merge(gh)
            g_w = x2.T @ gh
            for h, w in enumerate(ws):
                _accum(w, g_w[:, h * dh:(h + 1) * dh])
            _accum(x, (gh @ w_all.T).reshape(x.shape))

    return _emit(data, backward)



def l2_normalize(a: Tensor) -> Tensor:
    """Scale the rows of (r, d) to unit Euclidean norm; a vector (d,) is one row."""
    if a.ndim not in (1, 2):
        raise ShapeMismatch(f"l2_normalize expects 1D or 2D, got {a.shape}")
    a2 = a.data.reshape(-1, a.shape[-1])
    # the sum np.linalg.norm(a2, axis=1) takes, without its per-call overhead
    n = np.sqrt((a2 * a2).sum(axis=1, keepdims=True))
    if not n.all():
        zero = np.flatnonzero(n == 0)
        raise NonFiniteValue(f"l2_normalize: row {zero[0]} of {len(a2)} has zero norm "
                             f"({zero.size} such rows)")
    y = a2 / n

    def backward(g):
        g2 = g.reshape(y.shape)
        _accum(a, ((g2 - y * (y * g2).sum(axis=1, keepdims=True)) / n).reshape(a.shape))

    return _emit(y.reshape(a.shape), backward)


# ---------------------------------------------------------------------------
# structure

def concat(parts: list[Tensor], dim: int = 0) -> Tensor:
    if not parts:
        raise ShapeMismatch("concat of nothing")
    nd = parts[0].ndim
    if any(p.ndim != nd for p in parts) or not -nd <= dim < nd:
        raise ShapeMismatch("concat rank/dim mismatch")
    dim %= nd

    def backward(g):
        start = 0
        for p in parts:
            sl = [slice(None)] * nd
            sl[dim] = slice(start, start + p.shape[dim])
            _accum(p, g[tuple(sl)])
            start += p.shape[dim]

    return _emit(np.concatenate([p.data for p in parts], axis=dim), backward)


def reshape(a: Tensor, shape) -> Tensor:
    return _emit(a.data.reshape(shape), lambda g: _accum(a, g.reshape(a.shape)))


def sum_all(a: Tensor) -> Tensor:
    return _emit(np.asarray(a.data.sum(), dtype=a.data.dtype),
                 lambda g: _accum(a, np.broadcast_to(g, a.shape)))


def embed(table: Tensor, ids) -> Tensor:
    """Gather table rows for an id array of any shape: the result has shape
    ``ids.shape + (d,)``. Backward scatter-adds into the table, as one
    scatter over the flat gradient: element (i, j) is at ``i·d + j``."""
    ids = np.asarray(ids, dtype=np.intp)
    if table.ndim != 2:
        raise ShapeMismatch(f"embed table must be 2D, got {table.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ShapeMismatch("token id outside embedding table")

    def backward(g):
        if table.constant:
            return
        grad = np.zeros(table.shape, table.data.dtype) if table.grad is None else table.grad
        # the flat view below must alias the gradient it adds into
        table.grad = grad = np.ascontiguousarray(grad)
        d = table.shape[1]
        np.add.at(grad.reshape(-1), (ids[..., None] * d + np.arange(d)).reshape(-1),
                  g.reshape(-1))

    return _emit(table.data[ids], backward)


# ---------------------------------------------------------------------------
# gradient checking


@dataclass
class GradCheckReport:
    ok: bool
    max_abs_err: float
    max_rel_err: float
    checked: int

    def assert_ok(self):
        if not self.ok:
            raise AssertionError(
                f"gradient check failed: max_abs_err={self.max_abs_err:.3e} "
                f"max_rel_err={self.max_rel_err:.3e} over {self.checked} coords"
            )


def grad_check(f, wrt: list[Tensor], rtol: float = 1e-3, atol: float = 1e-5,
               step: float = 1e-5) -> GradCheckReport:
    """Compare tape gradients of the scalar ``f()`` against central finite
    differences over every coordinate of the ``wrt`` tensors. ``f`` must be a
    pure function of the current tensor values. Run in f64 for headroom."""
    zero_grads(wrt)
    with Tape() as tape:
        out = f()
        tape.backward(out)
    analytic = [np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in wrt]
    zero_grads(wrt)

    ok = True
    max_abs = 0.0
    max_rel = 0.0
    checked = 0
    for t, a in zip(wrt, analytic):
        flat = t.data.reshape(-1)
        aflat = a.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            h = step * max(1.0, abs(float(orig)))
            flat[j] = orig + h
            fp = f().item()
            flat[j] = orig - h
            fm = f().item()
            flat[j] = orig
            num = (fp - fm) / (2.0 * h)
            err = abs(float(aflat[j]) - num)
            rel = err / max(abs(num), 1e-12)
            max_abs = max(max_abs, err)
            max_rel = max(max_rel, rel)
            if err > atol + rtol * abs(num):
                ok = False
            checked += 1
    return GradCheckReport(ok=ok, max_abs_err=max_abs, max_rel_err=max_rel, checked=checked)
