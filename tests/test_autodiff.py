"""Tape engine: forward values, error states, and finite-difference checks."""

from __future__ import annotations

import numpy as np
import pytest

from hmlc import autodiff as ad
from hmlc.model import CLAMP_EPS

import per_layer
import per_op


def _t(rng, *shape, lo=-1.0, hi=1.0):
    return ad.tensor(rng.uniform(lo, hi, size=shape))


# ---------------------------------------------------------------------------
# forward values and error states


def test_sigmoid_at_zero_value_and_grad():
    x = ad.tensor(0.0)
    with ad.Tape() as tape:
        s = ad.sigmoid(x)
        tape.backward(s)
    assert s.item() == pytest.approx(0.5)
    assert float(x.grad) == pytest.approx(0.25)


def test_concat_shape_rule():
    a = ad.tensor(np.zeros((3, 4)))
    b = ad.tensor(np.ones((3, 4)))
    assert ad.concat([a, b], dim=0).shape == (6, 4)
    assert ad.concat([a, b], dim=1).shape == (3, 8)
    with pytest.raises(ad.ShapeMismatch):
        ad.concat([a, ad.tensor(np.zeros(4))], dim=0)
    with pytest.raises(ad.ShapeMismatch):
        ad.concat([], dim=0)


def _attention_params(rng, d, heads, dh):
    """Per-head q, k, v weights (d, dh) and the output map (heads·dh, d)."""
    return ([_t(rng, d, dh) for _ in range(heads)], [_t(rng, d, dh) for _ in range(heads)],
            [_t(rng, d, dh) for _ in range(heads)], _t(rng, heads * dh, d))


def test_attention_uniform_weights_average_the_values():
    # zero query weights make every score 0: each row averages the mapped values
    rng = np.random.default_rng(0)
    wq, wk, wv, wo = _attention_params(rng, 4, 2, 2)
    for w in wq:
        w.data[...] = 0.0
    q, kv = _t(rng, 3, 4), _t(rng, 5, 4)
    out = ad.attention(q, kv, kv, wq, wk, wv, wo)
    mapped = np.concatenate([kv.data @ w.data for w in wv], axis=1) @ wo.data
    assert np.allclose(out.data, np.tile(mapped.mean(axis=0), (3, 1)))


def test_masked_attention_matches_physical_removal():
    rng = np.random.default_rng(0)
    wq, wk, wv, wo = _attention_params(rng, 4, 2, 2)
    q, kv = rng.normal(size=(3, 4)), rng.normal(size=(5, 4))
    mask = np.array([True, False, True, True, False])
    masked = ad.attention(ad.tensor(q), ad.tensor(kv), ad.tensor(kv), wq, wk, wv, wo, mask)
    removed = ad.tensor(kv[mask])
    assert np.allclose(masked.data, ad.attention(ad.tensor(q), removed, removed,
                                                 wq, wk, wv, wo).data, atol=1e-6)

    # a batch takes one mask per matrix; a huge masked key stays harmless
    qs, kvs = np.stack([q, q]), np.stack([kv, kv])
    kvs[1, 1] = 1e4
    masks = np.stack([mask, ~mask])
    masks[1, 1] = False
    out = ad.attention(ad.tensor(qs), ad.tensor(kvs), ad.tensor(kvs), wq, wk, wv, wo, masks)
    for i in range(2):
        kept = ad.tensor(kv[masks[i]])
        one = ad.attention(ad.tensor(q), kept, kept, wq, wk, wv, wo)
        assert np.allclose(out.data[i], one.data, atol=1e-6)


def test_attention_mask_errors():
    rng = np.random.default_rng(1)
    wq, wk, wv, wo = _attention_params(rng, 3, 1, 3)
    row, cube = ad.tensor(np.zeros((1, 3))), ad.tensor(np.zeros((2, 1, 3)))
    with pytest.raises(ad.ShapeMismatch):
        ad.attention(row, row, row, wq, wk, wv, wo, key_mask=np.zeros(1, dtype=bool))
    # one fully masked matrix in a batch is enough
    with pytest.raises(ad.ShapeMismatch):
        ad.attention(cube, cube, cube, wq, wk, wv, wo, key_mask=np.array([[True], [False]]))
    with pytest.raises(ad.ShapeMismatch):
        ad.attention(cube, cube, cube, wq, wk, wv, wo, key_mask=np.ones(1, dtype=bool))


def test_attention_weight_shape_errors():
    rng = np.random.default_rng(2)
    wq, wk, wv, wo = _attention_params(rng, 4, 2, 2)
    x = _t(rng, 3, 4)
    with pytest.raises(ad.ShapeMismatch):
        ad.attention(x, x, x, wq, wk[:1], wv, wo)
    with pytest.raises(ad.ShapeMismatch):
        ad.attention(x, x, x, [], [], [], wo)
    with pytest.raises(ad.ShapeMismatch):
        ad.attention(x, x, x, wq, wk, [wv[0], _t(rng, 4, 3)], wo)
    with pytest.raises(ad.ShapeMismatch):
        ad.attention(x, x, x, wq, wk, wv, _t(rng, 3, 4))
    with pytest.raises(ad.ShapeMismatch):
        ad.attention(_t(rng, 3, 5), x, x, wq, wk, wv, wo)


def test_focal_takes_no_log_of_zero():
    # the clamp keeps ẑ and 1 − ẑ positive, so z at 0 or 1 gives a finite loss
    z = ad.tensor([0.0, 1.0, 0.0, 1.0])
    assert np.isfinite(ad.focal(z, [0, 0, 1, 1], 0.25, 2.0, CLAMP_EPS).item())


def test_tensor_rejects_nonfinite():
    with pytest.raises(ad.NonFiniteValue):
        ad.tensor([1.0, np.inf])


def test_backward_needs_scalar():
    x = ad.tensor([1.0, 2.0])
    with ad.Tape() as tape:
        y = ad.scale(x, 2.0)
        with pytest.raises(ad.ShapeMismatch):
            tape.backward(y)


def test_no_tape_is_inference_mode():
    x = ad.tensor([1.0, 2.0])
    y = ad.sum_all(per_op.mul(x, x))
    assert y.item() == pytest.approx(5.0)
    assert x.grad is None


def test_nested_tapes_record_independently():
    x = ad.tensor(2.0)
    with ad.Tape() as outer:
        a = ad.scale(x, 3.0)
        with ad.Tape() as inner:
            b = ad.scale(x, 5.0)
            inner.backward(b)
        assert len(inner.nodes) == 1
        assert float(x.grad) == pytest.approx(5.0)
        x.grad = None
        outer.backward(a)
    assert len(outer.nodes) == 1
    assert float(x.grad) == pytest.approx(3.0)


def test_clip_grad_zero_outside_bounds():
    # focal clamps z to [eps, 1 − eps]: a z on or outside a bound gets exactly 0
    eps = 0.01
    z = ad.tensor([-1.0, 0.0, eps, 0.5, 1.0 - eps, 1.0, 2.0])
    with ad.Tape() as tape:
        tape.backward(ad.focal(z, [1, 0, 1, 1, 0, 1, 0], 0.25, 2.0, eps))
    assert np.flatnonzero(z.grad).tolist() == [3]


def test_embed_scatter_add_repeated_ids():
    table = ad.tensor(np.ones((3, 2)))
    with ad.Tape() as tape:
        tape.backward(ad.sum_all(ad.embed(table, [0, 0, 2])))
    assert np.allclose(table.grad, [[2, 2], [0, 0], [1, 1]])
    with pytest.raises(ad.ShapeMismatch):
        ad.embed(table, [3])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_embed_flat_scatter_matches_2d_add_at(dtype):
    # repeated ids, several id shapes, and a non-zero gradient already in
    # the table, C- or Fortran-ordered: bit for bit the 2-D np.add.at result
    rng = np.random.default_rng(40)
    for case in range(40):
        rows, d = int(rng.integers(1, 9)), int(rng.integers(1, 6))
        ids = rng.integers(0, rows, size=tuple(rng.integers(1, 5, size=case % 3 + 1)))
        upstream = rng.normal(size=ids.shape + (d,)).astype(dtype)
        start = rng.normal(size=(rows, d)).astype(dtype)
        table = ad.Tensor(rng.normal(size=(rows, d)).astype(dtype))
        table.grad = start.copy(order="F" if case % 2 else "C")
        with ad.Tape() as tape:
            tape.backward(ad.sum_all(per_op.mul(ad.tensor(upstream, dtype), ad.embed(table, ids))))
        want = start.copy()
        np.add.at(want, ids, upstream)
        assert table.grad.dtype == dtype
        assert np.array_equal(table.grad, want)


def test_zero_grads_dict_and_list():
    a, b = ad.tensor(1.0), ad.tensor(2.0)
    a.grad = np.ones(())
    b.grad = np.ones(())
    ad.zero_grads({"a": a})
    ad.zero_grads([b])
    assert a.grad is None and b.grad is None


def test_set_default_dtype_validation():
    with pytest.raises(ad.TensorError):
        ad.set_default_dtype("f16")
    ad.set_default_dtype("f64")
    assert ad.tensor([1.0]).data.dtype == np.float64
    ad.set_default_dtype("f32")
    assert ad.tensor([1.0]).data.dtype == np.float32


def test_matmul_shape_errors():
    a = ad.tensor(np.zeros((2, 3)))
    with pytest.raises(ad.ShapeMismatch):
        per_op.matmul(a, ad.tensor(np.zeros((4, 2))))
    with pytest.raises(ad.ShapeMismatch):
        per_op.matmul(a, ad.tensor(np.zeros(3)))  # a matrix times a vector: use (3, 1)
    cube = ad.tensor(np.zeros((2, 2, 3)))
    with pytest.raises(ad.ShapeMismatch):
        per_op.matmul(cube, ad.tensor(np.zeros((2, 2))))
    with pytest.raises(ad.ShapeMismatch):
        per_op.matmul(cube, ad.tensor(np.zeros((2, 3, 2))))  # batched products are attention's
    with pytest.raises(ad.ShapeMismatch):
        ad.add(a, ad.tensor(np.zeros(2)))
    with pytest.raises(ad.ShapeMismatch):
        ad.add(a, ad.tensor(np.zeros(3)))  # a bias add is part of dense


def test_dense_shape_errors():
    x, w, b = ad.tensor(np.zeros((2, 3))), ad.tensor(np.zeros((3, 4))), ad.tensor(np.zeros(4))
    for args in ((x, w, ad.tensor(np.zeros(3))), (x, ad.tensor(np.zeros((2, 4))), b),
                 (ad.tensor(np.zeros((1, 2, 2, 3))), w, b), (x, ad.tensor(np.zeros(3)), b)):
        with pytest.raises(ad.ShapeMismatch):
            ad.dense(*args)
    with pytest.raises(ad.ShapeMismatch):
        ad.dense(x, w, b, "gelu")


def _value_and_grads(layer, x, w, b, upstream):
    params = [x, w, b]
    ad.zero_grads(params)
    with ad.Tape() as tape:
        y = layer(x, w, b)
        tape.backward(ad.sum_all(per_op.mul(y, upstream)))
    grads = [t.grad for t in params]
    ad.zero_grads(params)
    return y.data, grads, len(tape.nodes)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("activation", ["relu", "tanh", "identity"])
@pytest.mark.parametrize("lead", [(), (5,), (3, 4)])
def test_dense_matches_three_ops_bit_for_bit(dtype, activation, lead):
    rng = np.random.default_rng(len(lead) + 10 * len(activation))
    x = ad.tensor(rng.normal(size=lead + (6,)), dtype=dtype)
    w = ad.tensor(rng.normal(size=(6, 7)), dtype=dtype)
    b = ad.tensor(rng.normal(size=7), dtype=dtype)
    upstream = ad.tensor(rng.normal(size=lead + (7,)), dtype=dtype)
    got, got_grads, nodes = _value_and_grads(
        lambda *a: ad.dense(*a, activation), x, w, b, upstream)
    want, want_grads, _ = _value_and_grads(
        lambda *a: per_layer.dense(*a, activation), x, w, b, upstream)
    assert nodes == 3  # dense, mul, sum_all
    assert got.dtype == dtype and np.array_equal(got, want)
    for g, ref in zip(got_grads, want_grads):
        assert g.dtype == dtype and g.shape == ref.shape and np.array_equal(g, ref)


@pytest.mark.parametrize("activation", ["relu", "tanh", "identity"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["x", "w", "b"])
def test_dense_rejects_nonfinite_before_the_activation(activation, bad, where):
    # tanh(±inf) = ±1 and relu(-inf) = 0: only the pre-activation shows these
    rng = np.random.default_rng(3)
    arrays = {"x": rng.normal(size=(2, 3)), "w": rng.normal(size=(3, 4)),
              "b": rng.normal(size=4)}
    arrays[where].flat[1] = bad
    x, w, b = (ad.Tensor(arrays[k].astype(np.float32)) for k in "xwb")
    with pytest.raises(ad.NonFiniteValue), np.errstate(invalid="ignore"):
        ad.dense(x, w, b, activation)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("activation", ["relu", "tanh", "identity", None])
def test_vector_is_one_row_bit_for_bit(dtype, activation):
    # a vector (k,) runs as the one-row matrix (1, k): the value and every
    # gradient match that call, and the vector products x @ w, w @ g and
    # outer(x, g); None is a bare matmul, else a dense layer
    rng = np.random.default_rng(40 + len(str(activation)))
    x_row = rng.normal(size=(1, 6)).astype(dtype)
    w = ad.tensor(rng.normal(size=(6, 7)), dtype=dtype)
    b = ad.tensor(rng.normal(size=7), dtype=dtype)
    g_row = rng.normal(size=(1, 7)).astype(dtype)
    layer = (lambda x, w, b: per_op.matmul(x, w)) if activation is None else \
        (lambda x, w, b: ad.dense(x, w, b, activation))
    vec, (gx, gw, gb), _ = _value_and_grads(layer, ad.tensor(x_row[0], dtype), w, b,
                                            ad.tensor(g_row[0], dtype))
    row, (rx, rw, rb), _ = _value_and_grads(layer, ad.tensor(x_row, dtype), w, b,
                                            ad.tensor(g_row, dtype))
    assert vec.shape == (7,) and gx.shape == (6,)
    assert np.array_equal(vec, row[0]) and np.array_equal(gx, rx[0])
    assert np.array_equal(gw, rw) and (gb is rb is None or np.array_equal(gb, rb))
    x, g = x_row[0], g_row[0]
    z = x @ w.data + (0 if activation is None else b.data)
    if activation == "relu":
        vec_want, g = np.maximum(z, 0.0), g * (z > 0)
    elif activation == "tanh":
        vec_want = np.tanh(z)
        g = g * (1.0 - vec_want * vec_want)
    else:
        vec_want = z
    assert vec.dtype == gx.dtype == dtype and np.array_equal(vec, vec_want)
    assert np.array_equal(gx, w.data @ g) and np.array_equal(gw, np.outer(x, g))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_l2_normalize_vector_is_one_row(dtype):
    rng = np.random.default_rng(8)
    x = ad.tensor(rng.normal(size=(1, 5)), dtype=dtype)
    v = ad.tensor(x.data[0], dtype)
    upstream = rng.normal(size=(1, 5)).astype(dtype)
    grads = []
    for t, g in ((v, upstream[0]), (x, upstream)):
        with ad.Tape() as tape:
            y = ad.l2_normalize(t)
            tape.backward(ad.sum_all(per_op.mul(y, ad.tensor(g, dtype))))
        grads.append((y.data, t.grad))
    (yv, gv), (yx, gx) = grads
    assert yv.shape == gv.shape == (5,) and yv.dtype == dtype
    assert np.array_equal(yv, yx[0]) and np.array_equal(gv, gx[0])
    rows = rng.normal(size=(4, 5)).astype(dtype)  # rows divide by np.linalg.norm's value
    assert np.array_equal(ad.l2_normalize(ad.tensor(rows, dtype)).data,
                          rows / np.linalg.norm(rows, axis=1, keepdims=True))
    with pytest.raises(ad.NonFiniteValue, match="row 0 of 1 has zero norm"):
        ad.l2_normalize(ad.tensor(np.zeros(3)))


# ---------------------------------------------------------------------------
# fused losses against the chains in per_op.py


def _loss_and_grad(loss, x, upstream):
    """The value of ``loss(x)`` and x's gradient when ``upstream`` reaches it."""
    x.grad = None
    with ad.Tape() as tape:
        out = loss(x)
        tape.backward(ad.scale(out, upstream))
    return np.asarray(out.data), x.grad


def _assert_same_bits(fused, chain, x, upstream):
    got, got_grad = _loss_and_grad(fused, x, upstream)
    want, want_grad = _loss_and_grad(chain, x, upstream)
    assert got.dtype == want.dtype == x.data.dtype and np.array_equal(got, want)
    assert got_grad.dtype == x.data.dtype and np.array_equal(got_grad, want_grad)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("gamma", [0.0, 1.5, 2.0])
def test_focal_matches_chain_bit_for_bit(dtype, gamma):
    # z exactly at both clamp bounds, outside them and inside; soft targets
    # send gradient down both branches, so their order of arrival shows
    rng = np.random.default_rng(50 + int(10 * gamma))
    eps = 1e-7
    z = rng.uniform(0.0, 1.0, size=60).astype(dtype)
    z[:6] = [eps, 1.0 - eps, 0.0, 1.0, -0.5, 1.5]
    y = rng.integers(0, 2, size=60).astype(float)
    y[::3] = rng.uniform(0.0, 1.0, size=20)
    for upstream in (1.0, -0.37):
        _assert_same_bits(lambda t: ad.focal(t, y, 0.25, gamma, eps),
                          lambda t: per_op.focal(t, y, 0.25, gamma, eps),
                          ad.tensor(z, dtype), upstream)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("lead", [(), (8,)])
def test_hinge_matches_chain_bit_for_bit(demo, dtype, lead):
    # on the demo taxonomy a label's gradient adds at most three terms of one
    # magnitude, which every summation order rounds alike
    rng = np.random.default_rng(60 + len(lead))
    child = np.flatnonzero(demo.parent_index >= 0)
    parent = demo.parent_index[child]
    z = rng.uniform(0.0, 1.0, size=lead + (demo.m,)).astype(dtype)
    z[..., child[0]] = z[..., parent[0]]  # one gap exactly 0: the kink
    z[..., child[1]] = z[..., parent[1]] + 0.25
    for upstream in (1.0, 0.7):
        _assert_same_bits(lambda t: ad.hinge(t, child, parent),
                          lambda t: per_op.hinge(t, child, parent),
                          ad.tensor(z, dtype), upstream)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_weighted_log_sigmoid_matches_chain_bit_for_bit(dtype):
    # the op forms S = rows[anchors] @ rows.T itself; the chain gathers the
    # anchor rows with embed and multiplies with the retired matmul_nt.
    # Repeated draws (weights that add up), all-zero weight rows, an anchor
    # twice and |c·s| > 30
    rng = np.random.default_rng(70)
    rows = rng.uniform(-1.0, 1.0, size=(9, 4)).astype(dtype)
    rows[0] *= 3.0
    anchors = np.array([0, 4, 8, 4, 2])
    draws = rng.integers(0, 3, size=(2, 5, 9))
    draws[:, 2] = 0
    w_pos, w_neg = draws / rng.integers(1, 4, size=(2, 5, 1))

    def chain(t):
        scores = per_op.matmul_nt(ad.embed(t, anchors), t)
        return per_op.weighted_log_sigmoid(scores, 10.0, w_pos, w_neg, 1.0 / 15)

    for upstream in (1.0, -0.3):
        _assert_same_bits(lambda t: ad.weighted_log_sigmoid(t, anchors, 10.0, w_pos, w_neg,
                                                            1.0 / 15),
                          chain, ad.tensor(rows, dtype), upstream)


def test_fused_loss_shape_errors():
    z = ad.tensor(np.full(3, 0.5))
    with pytest.raises(ad.ShapeMismatch):
        ad.focal(z, [1, 0], 0.25, 2.0, 1e-7)
    rows, w = ad.tensor(np.zeros((3, 2))), np.zeros((2, 3))
    with pytest.raises(ad.ShapeMismatch, match="weights"):
        ad.weighted_log_sigmoid(rows, [0, 1], 1.0, w, w.T, 1.0)
    with pytest.raises(ad.ShapeMismatch, match="anchor outside rows"):
        ad.weighted_log_sigmoid(rows, [0, 3], 1.0, w, w, 1.0)
    with pytest.raises(ad.ShapeMismatch, match="anchor outside rows"):
        ad.weighted_log_sigmoid(rows, [-1, 0], 1.0, w, w, 1.0)
    with pytest.raises(ad.ShapeMismatch):
        ad.weighted_log_sigmoid(ad.tensor(np.zeros(3)), [0, 1], 1.0, w, w, 1.0)


def test_weighted_log_sigmoid_names_non_finite_scores():
    # finite rows whose products overflow f32: the op scans S itself
    rows = ad.tensor(np.array([[1e20, 0.0], [0.0, 1.0]]), np.float32)
    w = np.ones((1, 2))
    with np.errstate(over="ignore"), \
            pytest.raises(ad.NonFiniteValue, match="weighted_log_sigmoid"):
        ad.weighted_log_sigmoid(rows, [0], 1.0, w, w, 1.0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("lead", [(), (3,)])
def test_attention_shared_key_value_projection_bit_for_bit(dtype, lead):
    # k is v takes one GEMM against the k|v weights; a copy of the same
    # matrix as v takes two: values and every gradient agree exactly
    rng = np.random.default_rng(41)
    wq, wk, wv = ([ad.tensor(rng.normal(size=(8, 4)), dtype=dtype) for _ in range(2)]
                  for _ in range(3))
    wo = ad.tensor(rng.normal(size=(8, 8)), dtype=dtype)
    q = ad.tensor(rng.normal(size=lead + (3, 8)), dtype=dtype)
    kv = ad.tensor(rng.normal(size=lead + (5, 8)), dtype=dtype)
    mask = np.ones(lead + (5,), dtype=bool)
    mask[..., -1] = False
    upstream = ad.tensor(rng.normal(size=q.shape), dtype=dtype)
    params = [q, kv, *wq, *wk, *wv, wo]

    def run(v):
        ad.zero_grads(params + [v])
        with ad.Tape() as tape:
            y = ad.attention(q, kv, v, wq, wk, wv, wo, key_mask=mask)
            tape.backward(ad.sum_all(per_op.mul(y, upstream)))
        return y.data, [t.grad for t in params], v.grad

    shared, shared_grads, _ = run(kv)
    copy = ad.tensor(kv.data.copy(), dtype=dtype)
    split, split_grads, v_grad = run(copy)
    split_grads[1] = split_grads[1] + v_grad  # the value path's share of kv.grad
    assert shared.dtype == dtype and np.array_equal(shared, split)
    for g, ref in zip(shared_grads, split_grads):
        assert np.array_equal(g, ref)


# ---------------------------------------------------------------------------
# gradient oracle


def test_sum_of_squares_grad_exact(f64):
    x = ad.tensor(np.linspace(-2, 2, 7))
    report = ad.grad_check(lambda: ad.sum_all(per_op.mul(x, x)), [x])
    assert report.ok
    assert report.max_abs_err < 1e-6


@pytest.mark.parametrize("seed", range(20))
def test_every_op_passes_grad_check(f64, seed):
    rng = np.random.default_rng(1000 + seed)
    a = _t(rng, 2, 3)
    b = _t(rng, 3, 2)
    c = _t(rng, 2, 3)
    vec = _t(rng, 3)
    pos = _t(rng, 4, lo=0.3, hi=2.0)      # keep log/pow/l2 away from kinks
    cube = _t(rng, 2, 2, 3)   # a batch of two 2x3 matrices
    bias = _t(rng, 2)
    prob = _t(rng, 4, lo=0.05, hi=0.95)  # inside focal's clamp
    mask = (rng.uniform(size=(2, 2, 1)) < 0.5).astype(float)
    w_pos, w_neg = rng.uniform(0.0, 1.0, size=(2, 3, 2))  # anchors [1, 0, 1] of a's 2 rows
    sq = lambda y: ad.sum_all(per_op.mul(y, y))

    cases = {
        "matmul_22": lambda: ad.sum_all(per_op.matmul(a, b)),
        "matmul_12": lambda: ad.sum_all(per_op.matmul(vec, b)),
        "matmul_32": lambda: sq(per_op.matmul(cube, b)),
        "add_bias_3d": lambda: sq(per_layer.add(cube, vec)),
        "add": lambda: ad.sum_all(ad.add(a, c)),
        "add_bias": lambda: ad.sum_all(per_layer.add(a, vec)),
        "dense_1d_relu": lambda: sq(ad.dense(vec, b, bias, "relu")),
        "dense_2d_tanh": lambda: sq(ad.dense(a, b, bias, "tanh")),
        "dense_3d": lambda: sq(ad.dense(cube, b, bias)),
        "sub": lambda: ad.sum_all(per_op.sub(a, c)),
        "mul": lambda: ad.sum_all(per_op.mul(a, c)),
        "scale_shift": lambda: ad.sum_all(per_op.shift(ad.scale(a, -1.7), 0.4)),
        "scale_mask": lambda: sq(ad.scale(cube, mask)),
        "pow": lambda: ad.sum_all(per_op.pow_const(pos, 2.5)),
        "log": lambda: ad.sum_all(per_op.log(pos)),
        "clip": lambda: ad.sum_all(per_op.clip(pos, 0.01, 10.0)),
        "sigmoid": lambda: ad.sum_all(ad.sigmoid(a)),
        "log_sigmoid": lambda: ad.sum_all(per_op.log_sigmoid(a)),
        "relu": lambda: ad.sum_all(per_op.relu(per_op.shift(pos, 0.05))),
        "tanh": lambda: ad.sum_all(per_layer.tanh(a)),
        "l2_norm_1d": lambda: ad.sum_all(per_op.mul(ad.l2_normalize(pos), pos)),
        "l2_norm_2d": lambda: ad.sum_all(per_op.mul(ad.l2_normalize(a), c)),
        "concat": lambda: ad.sum_all(per_op.mul(ad.concat([a, c], dim=1),
                                                ad.concat([c, a], dim=1))),
        "reshape": lambda: ad.sum_all(per_op.mul(ad.reshape(a, (3, 2)), b)),
        "flatten": lambda: ad.sum_all(ad.reshape(a, (-1,))),
        "embed": lambda: ad.sum_all(ad.embed(a, [0, 1, 0])),
        "embed_2d": lambda: sq(ad.embed(a, [[0, 1], [1, 1]])),
        "focal": lambda: ad.focal(prob, [1, 0, 0, 1], 0.25, 1.5, 1e-7),
        "focal_gamma_0": lambda: ad.focal(prob, [0, 1, 1, 0], 0.4, 0.0, 1e-7),
        "hinge_1d": lambda: ad.hinge(vec, [1, 2], [0, 0]),
        "hinge_2d": lambda: ad.hinge(a, [1, 2], [0, 1]),
        "weighted_log_sigmoid":
            lambda: ad.weighted_log_sigmoid(a, [1, 0, 1], 1.7, w_pos, w_neg, 0.3),
    }
    for name, f in cases.items():
        report = ad.grad_check(f, [a, b, c, vec, pos, cube, bias, prob])
        assert report.ok, f"{name} (seed {seed}): {report}"


@pytest.mark.parametrize("seed", range(5))
def test_attention_passes_grad_check(f64, seed):
    # two heads of width 2 over inputs of width 3; the query rows differ from
    # the key rows, and keys double as values, as in the encoder's field attention
    rng = np.random.default_rng(2000 + seed)
    wq, wk, wv, wo = _attention_params(rng, 3, 2, 2)
    q, kv, other = _t(rng, 2, 2, 3), _t(rng, 2, 3, 3), _t(rng, 3, 3)
    row = _t(rng, 1, 3)
    mask = np.array([[True, False, True], [True, True, False]])
    sq = lambda y: ad.sum_all(per_op.mul(y, y))
    cases = {
        "batched_masked": lambda: sq(ad.attention(q, kv, kv, wq, wk, wv, wo, mask)),
        "self_2d": lambda: sq(ad.attention(other, other, other, wq, wk, wv, wo)),
        "single_key": lambda: sq(ad.attention(other, row, row, wq, wk, wv, wo)),
    }
    for name, f in cases.items():
        report = ad.grad_check(f, [q, kv, other, row, *wq, *wk, *wv, wo])
        assert report.ok, f"{name} (seed {seed}): {report}"


def test_grad_check_report_assert_ok():
    bad = ad.GradCheckReport(ok=False, max_abs_err=1.0, max_rel_err=1.0, checked=3)
    with pytest.raises(AssertionError):
        bad.assert_ok()
    ad.GradCheckReport(ok=True, max_abs_err=0.0, max_rel_err=0.0, checked=3).assert_ok()
