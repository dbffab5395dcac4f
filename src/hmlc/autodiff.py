"""Dense-array reverse-mode autodiff on numpy, define-by-run. Ops: add, scale,
sigmoid, dense (one MLP layer), attention (multi-head), l2_normalize, concat,
reshape, sum_all, embed, and one op per loss, each on what the model outputs:
focal (on the likelihoods), hinge (the path regularizer) and
weighted_log_sigmoid (the contrastive loss, which forms its anchor-by-record
scores from the projected rows). Targets, weights, masks and indices reach the
ops as plain arrays; every tensor is differentiable.

Each op computes its value and hands it, with one backward closure mapping
the value's gradient into its inputs' gradients, to ``_emit``. While a
``Tape`` is active, ``_emit`` appends the closure to it; creation order is
already a topological order of the compute graph, so ``Tape.backward``
replays the list once, in reverse. Without an active tape the closure is
dropped and the op runs forward-only (inference mode).

Every op validates that its result is finite and raises ``NonFiniteValue``
naming the op otherwise; numerical trouble is an error state here, never a
silent NaN.
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

    __slots__ = ("data", "grad")

    def __init__(self, data: np.ndarray):
        self.data = data
        self.grad = None

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


def tensor(values, dtype=None) -> Tensor:
    data = np.asarray(values, dtype=dtype or _default_dtype)
    _check_finite(data, tensor)
    return Tensor(data)


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


def _check_finite(data: np.ndarray, fn) -> None:
    """Raise ``NonFiniteValue`` on a NaN or an inf in ``data``, naming the op:
    ``fn`` is the op or a closure it defines (``embed.<locals>.backward``)."""
    # the method call skips np.all's dispatch, a large share of a small op
    if not np.isfinite(data).all():
        raise NonFiniteValue(f"{fn.__qualname__.partition('.')[0]} produced NaN or Inf")


def _accum(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:
        t.grad = np.array(g)  # own a copy; g may alias another node's grad
    else:
        t.grad += g  # in place: a parameter Adam packed holds a view of its buffer


def _emit(data: np.ndarray, backward, checked: bool = False) -> Tensor:
    """Wrap an op's result; under an active tape, record ``backward``, which
    maps the result's gradient into its inputs' gradients."""
    if not checked:
        _check_finite(data, backward)
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


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeMismatch(f"add {a.shape} + {b.shape}")

    def backward(g):
        _accum(a, g)
        _accum(b, g)

    return _emit(a.data + b.data, backward)


def scale(a: Tensor, c) -> Tensor:
    """``a`` times a constant: a float, or an array that broadcasts against
    ``a`` (a 0/1 mask, say)."""
    c = c if isinstance(c, np.ndarray) else float(c)
    return _emit(a.data * c, lambda g: _accum(a, g * c))


# ---------------------------------------------------------------------------
# nonlinearities

_SIGMOID_CLAMP = 15.0  # keeps sigmoid outputs away from exact 0/1 in f32


def sigmoid(a: Tensor) -> Tensor:
    x = np.clip(a.data, -_SIGMOID_CLAMP, _SIGMOID_CLAMP)
    s = 1.0 / (1.0 + np.exp(-x))
    return _emit(s, lambda g: _accum(a, g * s * (1.0 - s) * (np.abs(a.data) < _SIGMOID_CLAMP)))


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
    _check_finite(z, dense)
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
        grad = np.zeros(table.shape, table.data.dtype) if table.grad is None else table.grad
        # the flat view below must alias the gradient it adds into
        table.grad = grad = np.ascontiguousarray(grad)
        d = table.shape[1]
        np.add.at(grad.reshape(-1), (ids[..., None] * d + np.arange(d)).reshape(-1),
                  g.reshape(-1))

    return _emit(table.data[ids], backward)


# ---------------------------------------------------------------------------
# losses: each one op that runs the numpy calls of the small-op chain it
# replaced in the same order, so values and gradients match it bit for bit


def focal(z: Tensor, y, alpha: float, gamma: float, eps: float) -> Tensor:
    """−α Σ [y (1−ẑ)^γ log ẑ + (1−y) ẑ^γ log(1−ẑ)] with ẑ = clip(z, eps, 1−eps)
    and targets ``y`` shaped like ``z``; a ``z`` outside the clamp gets no
    gradient."""
    y = np.asarray(y, dtype=z.data.dtype)
    if y.shape != z.shape:
        raise ShapeMismatch(f"focal {z.shape} vs targets {y.shape}")
    alpha, gamma = float(alpha), float(gamma)
    lo, hi = eps, 1.0 - eps
    zc = np.clip(z.data, lo, hi)
    om = zc * -1.0 + 1.0  # 1 − ẑ
    pw1, lg1, pw2, lg2, yn = om**gamma, np.log(zc), zc**gamma, np.log(om), 1.0 - y
    total = np.asarray((y * (pw1 * lg1) + yn * (pw2 * lg2)).sum(), dtype=z.data.dtype)

    def backward(g):
        g = g * -alpha
        g1, g2 = g * y, g * yn
        # the chain's order: 1−ẑ gets its log term's share before its power
        # term's, ẑ its power term's before its log term's, then 1−ẑ's total
        g_om = g2 * pw2 / om
        g_zc = g1 * pw1 / zc
        if gamma != 0.0:
            g_zc = g2 * lg2 * gamma * zc ** (gamma - 1.0) + g_zc
            g_om += g1 * lg1 * gamma * om ** (gamma - 1.0)
        g_zc += g_om * -1.0
        _accum(z, g_zc * ((z.data > lo) & (z.data < hi)))

    return _emit(total * -alpha, backward)


def hinge(z: Tensor, child, parent) -> Tensor:
    """Σ max(0, z[..., child] − z[..., parent]) over edges and rows; the
    gradient at a gap of exactly 0 is 0."""
    gap = z.data[..., child] - z.data[..., parent]

    def backward(g):
        # one product with the (E, m) edge incidence: +1 at the child, −1 at the parent
        inc = np.zeros((len(child), z.shape[-1]), dtype=z.data.dtype)
        rows = np.arange(len(child))
        inc[rows, child] = 1.0
        inc[rows, parent] = -1.0
        _accum(z, (g * (gap > 0)) @ inc)

    return _emit(np.asarray(np.maximum(gap, 0.0).sum(), dtype=z.data.dtype), backward)


def weighted_log_sigmoid(rows: Tensor, anchors, c: float, w_pos, w_neg,
                         norm: float) -> Tensor:
    """norm · Σ [W⁺ ⊙ log σ(c·S) + W⁻ ⊙ log σ(−c·S)] over the scores
    S = rows[anchors] @ rows.T of the (R, p) ``rows``, for (A, R) weight
    arrays; log(1 − σ(x)) = log σ(−x). The backward adds S's gradient into
    ``rows`` as the row gather and the product did: ``g_S.T @ rows[anchors]``
    first, then ``g_S @ rows`` scattered into the anchor rows."""
    anchors = np.asarray(anchors, dtype=np.intp)
    if rows.ndim != 2 or anchors.ndim != 1:
        raise ShapeMismatch(f"scores of anchors {anchors.shape} against rows {rows.shape}")
    if anchors.size and (anchors.min() < 0 or anchors.max() >= rows.shape[0]):
        raise ShapeMismatch("anchor outside rows")
    dtype = rows.data.dtype
    w_pos, w_neg = np.asarray(w_pos, dtype=dtype), np.asarray(w_neg, dtype=dtype)
    shape = (len(anchors), rows.shape[0])
    if w_pos.shape != shape or w_neg.shape != shape:
        raise ShapeMismatch(f"weights {w_pos.shape}, {w_neg.shape} vs scores {shape}")
    c, norm = float(c), float(norm)
    anchor_rows = rows.data[anchors]
    s = anchor_rows @ rows.data.T
    _check_finite(s, weighted_log_sigmoid)
    x = s * c
    neg_x = x * -1.0
    pos = np.asarray((w_pos * -np.logaddexp(0.0, -x)).sum(), dtype=dtype)
    neg = np.asarray((w_neg * -np.logaddexp(0.0, -neg_x)).sum(), dtype=dtype)

    def backward(g):
        g = g * norm
        g_x = g * w_neg * np.exp(-np.logaddexp(0.0, neg_x)) * -1.0  # σ(x) = σ(−(−x))
        g_x += g * w_pos * np.exp(-np.logaddexp(0.0, x))  # σ(−x)
        g_s = g_x * c
        _accum(rows, g_s.T @ anchor_rows)
        np.add.at(rows.grad, anchors, g_s @ rows.data)

    return _emit((pos + neg) * norm, backward)


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
