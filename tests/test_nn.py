"""MLP and multihead attention blocks."""

from __future__ import annotations

import numpy as np
import pytest

from hmlc import autodiff as ad
from hmlc.nn import (
    MlpParams,
    init_attention,
    init_mlp,
    mlp_forward,
    multihead_attention,
)

import per_head
import per_op


def _identity_mlp(d):
    return MlpParams(
        weights=[ad.tensor(np.eye(d))],
        biases=[ad.tensor(np.zeros(d))],
    )


def test_identity_layer_is_identity():
    x = np.array([0.3, -1.2, 4.0])
    out = mlp_forward(ad.tensor(x), _identity_mlp(3))
    assert np.allclose(out.data, x)


def test_zero_weights_broadcast_bias():
    p = MlpParams(weights=[ad.tensor(np.zeros((3, 2)))],
                  biases=[ad.tensor(np.array([5.0, -7.0]))])
    out = mlp_forward(ad.tensor(np.ones((4, 3))), p)
    assert np.allclose(out.data, np.tile([5.0, -7.0], (4, 1)))


def test_final_layer_is_linear():
    # single layer, negative outputs survive because no activation is applied
    p = MlpParams(weights=[ad.tensor(np.eye(2))],
                  biases=[ad.tensor(np.array([-5.0, -5.0]))])
    out = mlp_forward(ad.tensor(np.array([1.0, 2.0])), p)
    assert np.allclose(out.data, [-4.0, -3.0])


def test_rowwise_matches_per_vector():
    rng = np.random.default_rng(0)
    p = init_mlp(rng, [4, 5, 2])
    x1, x2 = rng.normal(size=4), rng.normal(size=4)
    stacked = mlp_forward(ad.tensor(np.stack([x1, x2])), p)
    assert np.allclose(stacked.data[0], mlp_forward(ad.tensor(x1), p).data, atol=1e-6)
    assert np.allclose(stacked.data[1], mlp_forward(ad.tensor(x2), p).data, atol=1e-6)
    batched = mlp_forward(ad.tensor(np.stack([[x1, x2], [x2, x1]])), p)
    assert batched.shape == (2, 2, 2)
    assert np.allclose(batched.data[1, 0], stacked.data[1], atol=1e-6)


def test_init_mlp_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ad.ShapeMismatch):
        init_mlp(rng, [4])
    with pytest.raises(ad.ShapeMismatch):
        init_mlp(rng, [4, 2], activation="swish")
    p = init_mlp(rng, [4, 3, 2], activation="tanh")
    assert [w.shape for w in p.weights] == [(4, 3), (3, 2)]
    assert all(np.all(b.data == 0) for b in p.biases)


def test_mlp_named_parameters():
    p = init_mlp(np.random.default_rng(0), [2, 3, 1])
    assert set(p.named("head")) == {"head.w0", "head.b0", "head.w1", "head.b1"}


def test_attention_output_shape():
    rng = np.random.default_rng(1)
    p = init_attention(rng, 8, 2)
    q = ad.tensor(rng.normal(size=(5, 8)))
    kv = ad.tensor(rng.normal(size=(3, 8)))
    assert multihead_attention(q, kv, kv, p).shape == (5, 8)


def test_single_key_row_ignores_query():
    rng = np.random.default_rng(2)
    p = init_attention(rng, 8, 2)
    kv = ad.tensor(rng.normal(size=(1, 8)))
    out1 = multihead_attention(ad.tensor(rng.normal(size=(3, 8))), kv, kv, p)
    out2 = multihead_attention(ad.tensor(rng.normal(size=(3, 8))), kv, kv, p)
    assert np.allclose(out1.data, out2.data, atol=1e-6)
    # softmax over one element is 1: every output row is the same mapped value row
    assert np.allclose(out1.data[0], out1.data[1], atol=1e-6)
    assert np.allclose(out1.data[0], out1.data[2], atol=1e-6)


def test_attention_validation():
    rng = np.random.default_rng(3)
    with pytest.raises(ad.ShapeMismatch):
        init_attention(rng, 6, 4)  # width not divisible
    with pytest.raises(ad.ShapeMismatch):
        init_attention(rng, 4, 0)
    p = init_attention(rng, 4, 2)
    q = ad.tensor(rng.normal(size=(2, 4)))
    with pytest.raises(ad.ShapeMismatch):
        multihead_attention(q, ad.tensor(rng.normal(size=(2, 6))), q, p)
    with pytest.raises(ad.ShapeMismatch):
        multihead_attention(q, q, ad.tensor(rng.normal(size=(3, 4))), p)
    with pytest.raises(ad.ShapeMismatch):
        multihead_attention(ad.tensor(np.zeros(4)), q, q, p)
    batch = ad.tensor(rng.normal(size=(3, 2, 4)))
    with pytest.raises(ad.ShapeMismatch):
        multihead_attention(batch, q, q, p)  # batched query, unbatched keys
    with pytest.raises(ad.ShapeMismatch):
        multihead_attention(batch, ad.tensor(np.zeros((2, 2, 4))), batch, p)


def test_attention_named_parameters():
    p = init_attention(np.random.default_rng(0), 4, 2)
    assert set(p.named("x")) == {
        "x.q0", "x.k0", "x.v0", "x.q1", "x.k1", "x.v1", "x.o"}


def test_mlp_grad_check(f64):
    rng = np.random.default_rng(4)
    p = init_mlp(rng, [3, 4, 2], activation="tanh")
    x = ad.tensor(rng.normal(size=(2, 3)))
    wrt = [x, *p.weights, *p.biases]
    ad.grad_check(lambda: ad.sum_all(mlp_forward(x, p)), wrt).assert_ok()


def test_attention_grad_check(f64):
    # random 2x8 inputs, every parameter and both operands checked
    rng = np.random.default_rng(5)
    p = init_attention(rng, 8, 2)
    q = ad.tensor(rng.normal(size=(2, 8)))
    kv = ad.tensor(rng.normal(size=(2, 8)))
    wrt = [q, kv, *p.wq, *p.wk, *p.wv, p.wo]
    ad.grad_check(
        lambda: ad.sum_all(multihead_attention(q, kv, kv, p)), wrt
    ).assert_ok()


def test_masked_attention_matches_removal():
    rng = np.random.default_rng(6)
    p = init_attention(rng, 4, 2)
    q = ad.tensor(rng.normal(size=(2, 4)))
    kv = rng.normal(size=(3, 4))
    mask = np.array([True, False, True])
    masked = multihead_attention(q, ad.tensor(kv), ad.tensor(kv), p, key_mask=mask)
    removed = multihead_attention(q, ad.tensor(kv[mask]), ad.tensor(kv[mask]), p)
    assert np.allclose(masked.data, removed.data, atol=1e-6)


def test_batched_attention_matches_each_matrix():
    # every matrix of the batch attends on its own, over its unmasked keys
    rng = np.random.default_rng(7)
    p = init_attention(rng, 4, 2)
    q = rng.normal(size=(3, 2, 4))
    kv = rng.normal(size=(3, 5, 4))
    mask = np.array([[True] * 5,
                     [True, True, False, False, False],
                     [False, True, False, True, False]])
    batched = multihead_attention(ad.tensor(q), ad.tensor(kv), ad.tensor(kv), p, key_mask=mask)
    assert batched.shape == (3, 2, 4)
    for i in range(3):
        kv_i = ad.tensor(kv[i][mask[i]])
        one = multihead_attention(ad.tensor(q[i]), kv_i, kv_i, p)
        assert np.allclose(batched.data[i], one.data, atol=1e-6)


def _attention_value_and_grads(attend, q, k, v, p, mask, w):
    params = [q, k, v, *p.wq, *p.wk, *p.wv, p.wo]
    ad.zero_grads(params)
    with ad.Tape() as tape:
        y = attend(q, k, v, p, key_mask=mask)
        tape.backward(ad.sum_all(per_op.mul(y, w)))
    grads = [t.grad.copy() for t in params]
    ad.zero_grads(params)
    return y.data, grads, len(tape.nodes)


@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("batch", [(), (3,)])
@pytest.mark.parametrize("keys", [1, 5])
@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("shared", ["kv", "qkv", "none"])
def test_attention_op_matches_per_head(f64, heads, batch, keys, masked, shared):
    # one op against seven nodes per head: values and every gradient, 2D and
    # batched, with padded (masked) key rows and a single key
    rng = np.random.default_rng(heads + 10 * keys + 100 * len(batch))
    p = init_attention(rng, 8, heads)
    k = ad.tensor(rng.normal(size=batch + (keys, 8)))
    v = k if shared != "none" else ad.tensor(rng.normal(size=batch + (keys, 8)))
    q = k if shared == "qkv" else ad.tensor(rng.normal(size=batch + (3, 8)))
    mask = None
    if masked:
        mask = np.ones(batch + (keys,), dtype=bool)
        mask[..., 1:] = rng.random(batch + (keys - 1,)) < 0.5
        if keys > 1:
            mask[..., -1] = False  # padding at the end of every matrix
    w = ad.tensor(rng.normal(size=q.shape))
    got, got_grads, nodes = _attention_value_and_grads(multihead_attention, q, k, v, p, mask, w)
    want, want_grads, _ = _attention_value_and_grads(
        per_head.multihead_attention, q, k, v, p, mask, w)
    assert nodes == 3  # attention, mul, sum_all
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)
    for g, ref in zip(got_grads, want_grads):
        np.testing.assert_allclose(g, ref, rtol=0, atol=1e-10)
