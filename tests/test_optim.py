"""Adam optimizer state handling and hand-computed step values."""

from __future__ import annotations

import numpy as np
import pytest

from hmlc import autodiff as ad
from hmlc.optim import AdamState, adam_step


def _params(value=1.0):
    return {"p": ad.tensor(np.array([value]))}


def test_zero_grad_fresh_state_is_noop():
    params = _params()
    params["p"].grad = np.zeros(1)
    st = AdamState()
    adam_step(params, st, lr=0.1)
    assert params["p"].data[0] == pytest.approx(1.0)
    assert st.step == 1


def test_none_grad_treated_as_zero():
    params = _params()
    params["p"].grad = None
    adam_step(params, AdamState(), lr=0.1)
    assert params["p"].data[0] == pytest.approx(1.0)


def test_moments_decay_after_zero_grad_step(f64):
    params = _params()
    st = AdamState()
    params["p"].grad = np.array([0.5])
    adam_step(params, st, lr=0.1)
    m_before = st.m["p"].copy()
    params["p"].grad = np.zeros(1)
    p_before = params["p"].data.copy()
    adam_step(params, st, lr=0.1)
    # first moment decays by beta1 and the parameter still moves on momentum
    assert np.allclose(st.m["p"], 0.9 * m_before)
    assert params["p"].data[0] != p_before[0]


def test_hand_computed_scalar_steps(f64):
    # [DERIVED] plain-python Adam with lr=0.1, betas (0.9, 0.999), eps=1e-8,
    # starting at p=1.0 with gradients 0.5 then 0.25.
    params = _params(1.0)
    st = AdamState()
    params["p"].grad = np.array([0.5])
    adam_step(params, st, lr=0.1)
    assert params["p"].data[0] == pytest.approx(0.9000000019999999, abs=1e-12)
    params["p"].grad = np.array([0.25])
    adam_step(params, st, lr=0.1)
    assert params["p"].data[0] == pytest.approx(0.8067820404774622, abs=1e-12)


def test_constant_gradient_step_size_approaches_lr(f64):
    params = _params(0.0)
    st = AdamState()
    last = params["p"].data[0]
    for _ in range(200):
        params["p"].grad = np.array([3.0])
        adam_step(params, st, lr=0.01)
    delta = last - params["p"].data[0]
    # with a constant gradient the bias-corrected update tends to lr per step
    assert delta == pytest.approx(200 * 0.01, rel=0.05)


def test_shape_mismatch_between_steps():
    params = _params()
    st = AdamState()
    params["p"].grad = np.array([0.5])
    adam_step(params, st, lr=0.1)
    params["p"].grad = np.array([0.5, 0.5])
    with pytest.raises(ad.ShapeMismatch):
        adam_step(params, st, lr=0.1)


def test_multiple_parameters_independent(f64):
    params = {"a": ad.tensor(np.array([1.0])), "b": ad.tensor(np.array([2.0]))}
    st = AdamState()
    params["a"].grad = np.array([1.0])
    params["b"].grad = np.array([-1.0])
    adam_step(params, st, lr=0.1)
    assert params["a"].data[0] < 1.0
    assert params["b"].data[0] > 2.0
    assert set(st.m) == {"a", "b"}


def reference_adam_step(params, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The per-parameter loop the flat update replaced, kept as its reference;
    ``state`` is a plain {"step", "m", "v"} dict."""
    state["step"] += 1
    t = state["step"]
    c1 = 1.0 - beta1**t
    c2 = 1.0 - beta2**t
    for name, p in params.items():
        g = p.grad
        if g is None:
            g = np.zeros_like(p.data)
        m = state["m"].get(name)
        v = state["v"].get(name)
        if m is None:
            m = np.zeros_like(p.data)
            v = np.zeros_like(p.data)
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * (g * g)
        state["m"][name] = m
        state["v"][name] = v
        p.data -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


def _parity_params(rng, dtype):
    shapes = {"table": (300, 8), "w": (8, 5), "b": (5,), "scale": (), "unused": (3, 4),
              "stack": (2, 3, 4)}
    return {name: ad.Tensor(rng.normal(size=shape).astype(dtype)) for name, shape in shapes.items()}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_flat_update_bitwise_equals_per_parameter_loop(dtype):
    rng = np.random.default_rng(3)
    params = _parity_params(rng, dtype)
    ref = {name: ad.Tensor(p.data.copy()) for name, p in params.items()}
    state, ref_state = AdamState(), {"step": 0, "m": {}, "v": {}}
    lr = 0.01
    for step in range(60):
        for name, p in params.items():
            if name == "unused" or (name == "b" and step % 3 == 0):
                g = None
            elif name == "table":
                # an embedding table's gradient: a few touched rows, the rest zero
                g = np.zeros(p.shape, dtype)
                rows = rng.integers(0, p.shape[0], size=6)
                np.add.at(g, rows, rng.normal(size=(6, p.shape[1])).astype(dtype))
            else:
                g = rng.normal(scale=10.0 ** rng.integers(-4, 3), size=p.shape).astype(dtype)
            p.grad = g
            ref[name].grad = None if g is None else g.copy()
        adam_step(params, state, lr)
        reference_adam_step(ref, ref_state, lr)
        if step % 20 == 19:
            lr *= 0.8
    assert state.step == ref_state["step"] == 60
    for name, p in params.items():
        assert p.data.dtype == dtype
        assert np.array_equal(p.data, ref[name].data), name
        assert np.array_equal(state.m[name], ref_state["m"][name]), name
        assert np.array_equal(state.v[name], ref_state["v"][name]), name


@pytest.mark.parametrize("change", ["added", "removed", "renamed", "reshaped", "dtype"])
def test_changed_parameter_set_raises(change):
    params = {"a": ad.tensor(np.ones(3)), "b": ad.tensor(np.ones((2, 2)))}
    st = AdamState()
    adam_step(params, st, lr=0.1)
    if change == "added":
        params["c"] = ad.tensor(np.ones(1))
    elif change == "removed":
        del params["b"]
    elif change == "renamed":
        params["c"] = params.pop("b")
    elif change == "reshaped":
        params["b"] = ad.tensor(np.ones(4))
    else:
        params["b"] = ad.tensor(np.ones((2, 2)), dtype=np.float64)
    with pytest.raises(ad.ShapeMismatch):
        adam_step(params, st, lr=0.1)
    assert st.step == 1


def test_mixed_dtype_parameters_raise():
    params = {"a": ad.tensor(np.ones(3), dtype=np.float32),
              "b": ad.tensor(np.ones(3), dtype=np.float64)}
    with pytest.raises(ad.ShapeMismatch):
        adam_step(params, AdamState(), lr=0.1)
