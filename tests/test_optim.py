"""Adam optimizer state handling, hand-computed step values, and the training loop."""

from __future__ import annotations

import numpy as np
import pytest

from hmlc import autodiff as ad
from hmlc import contrastive as hc
from hmlc import model as hm
from hmlc.contrastive import HmclConfig
from hmlc.corpus import Corpus, Record
from hmlc.encoder import EncoderConfig
from hmlc.hierarchy import parse_hierarchy
from hmlc.model import ModelConfig, TrainConfig, init_model
from hmlc.optim import AdamState, adam_step
from hmlc.synthetic import make_synthetic_corpus

import per_loop


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
    m = st.flat[2]  # the first moments
    m_before = m.copy()
    assert params["p"].grad[0] == 0.0  # the step left the gradient at zero
    p_before = params["p"].data.copy()
    adam_step(params, st, lr=0.1)
    # first moment decays by beta1 and the parameter still moves on momentum
    assert np.allclose(m, 0.9 * m_before)
    assert params["p"].data[0] != p_before[0]


def test_hand_computed_scalar_steps(f64):
    # [DERIVED] plain-python Adam with lr=0.1, betas (0.9, 0.999), eps=1e-8,
    # starting at p=1.0 with gradients 0.5 then 0.25.
    params = _params(1.0)
    st = AdamState()
    params["p"].grad = np.array([0.5])
    adam_step(params, st, lr=0.1)
    assert params["p"].data[0] == pytest.approx(0.9000000019999999, abs=1e-12)
    params["p"].grad[...] = 0.25  # packed: assigned in place
    adam_step(params, st, lr=0.1)
    assert params["p"].data[0] == pytest.approx(0.8067820404774622, abs=1e-12)


def test_constant_gradient_step_size_approaches_lr(f64):
    params = _params(0.0)
    st = AdamState()
    last = params["p"].data[0]
    params["p"].grad = np.zeros(1)
    for _ in range(200):
        params["p"].grad += 3.0
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
    assert [name for name, *_ in st.packed] == ["a", "b"]


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
    for step in range(500):
        for name, p in params.items():
            # after the first step each gradient is a view of the packed buffer,
            # at zero, and is written in place; a None one is left at zero
            if name == "unused" or (name == "b" and step % 3 == 0):
                g = None
            elif name == "table":
                # an embedding table's gradient: a few rows scatter-added into zeros
                g = np.zeros(p.shape, dtype) if step == 0 else p.grad
                rows = rng.integers(0, p.shape[0], size=6)
                np.add.at(g, rows, rng.normal(size=(6, p.shape[1])).astype(dtype))
            else:
                g = rng.normal(scale=10.0 ** rng.integers(-4, 3), size=p.shape).astype(dtype)
                if step:
                    p.grad[...] = g
            if step == 0:
                p.grad = g
            ref[name].grad = None if g is None else g.copy()
        adam_step(params, state, lr)
        per_loop.adam_step(ref, ref_state, lr)
        assert not state.flat[1].any()  # the step left every gradient at zero
        if step % 100 == 99:
            lr *= 0.8
    assert state.step == ref_state["step"] == 500
    for name, p in params.items():
        assert p.data.dtype == dtype
        assert np.shares_memory(p.data, state.flat[0]) and np.shares_memory(p.grad, state.flat[1])
        assert np.array_equal(p.data, ref[name].data), name
    for row, moments in ((2, ref_state["m"]), (3, ref_state["v"])):
        assert np.array_equal(state.flat[row],
                              np.concatenate([moments[name].ravel() for name in params]))


@pytest.mark.parametrize("rebound", ["data", "grad"])
def test_rebinding_a_packed_parameter_raises(rebound):
    params = {"a": ad.tensor(np.ones(3)), "b": ad.tensor(np.ones((2, 2)))}
    st = AdamState()
    params["b"].grad = np.full((2, 2), 0.5)
    adam_step(params, st, lr=0.1)
    before = st.flat.copy()
    # the same shape, dtype and values, but no longer the packed view
    setattr(params["b"], rebound, getattr(params["b"], rebound).copy())
    with pytest.raises(ad.ShapeMismatch, match="rebound"):
        adam_step(params, st, lr=0.1)
    assert st.step == 1 and np.array_equal(st.flat, before)


def test_wrong_gradient_shape_at_the_first_step_packs_nothing():
    params = {"a": ad.tensor(np.ones(3)), "b": ad.tensor(np.ones((2, 2)))}
    params["b"].grad = np.ones(4)
    st = AdamState()
    with pytest.raises(ad.ShapeMismatch, match="for b"):
        adam_step(params, st, lr=0.1)
    assert st.flat is None and st.step == 0 and params["b"].grad.shape == (4,)


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


# ------------------------------------------------------------ the one loop


LOOP_MODEL = ModelConfig(encoder=EncoderConfig(vocab_buckets=32, d=4, heads=1, max_tokens=4),
                         head_hidden=4, cross_heads=1)


def _loop_setup(unlabeled_every=0):
    """24 records of a depth-2 taxonomy with an only child (B1), so "sibling"
    skips draws; with ``unlabeled_every`` k, records 0, k, 2k, ... carry no
    label, and a batch of only those raises ``EmptyBatch``."""
    h = parse_hierarchy([("ROOT", "A"), ("ROOT", "B"), ("A", "A1"), ("A", "A2"), ("B", "B1")])
    records = make_synthetic_corpus(h, 24, seed=13).records
    if unlabeled_every:
        records = [Record(r.id, r.fields, r.labels * bool(i % unlabeled_every))
                   for i, r in enumerate(records)]
    model = init_model(np.random.default_rng(12), h, LOOP_MODEL)
    return Corpus(h, records), model


LOOP_CASES = {
    # train: decay every 2 epochs, a ragged last batch (24 = 3·7 + 3)
    "train-decay": (TrainConfig(epochs=5, batch_size=7, lr=5e-3, lr_decay=0.5,
                                decay_every_epochs=2, seed=11), 0),
    # train: early stop after a few epochs, at a bar the first ones miss
    "train-early-stop": (TrainConfig(epochs=8, batch_size=8, lr=2e-2, decay_every_epochs=1,
                                     seed=12, early_stop_f1=0.6), 0),
    "pretrain-cap-0": (HmclConfig(strategy="all", repeats_per_level=(1, 2), batch_size=4,
                                  max_batches=0, proj_hidden=4, proj_dim=4, seed=11), 0),
    # six batches an epoch, a cap of 8 ends the run inside epoch 2; decay every 3
    "pretrain-cap-across-epoch": (HmclConfig(
        strategy="sibling", repeats_per_level=(1, 2), batch_size=4, lr=1e-2, lr_decay=0.5,
        decay_every_batches=3, epochs=3, max_batches=8, proj_hidden=4, proj_dim=4, seed=12), 0),
    # every other record unlabeled: batches of two unlabeled records are skipped
    "pretrain-empty-batches": (HmclConfig(
        strategy="level", repeats_per_level=(2, 1), batch_size=2, lr=1e-2, lr_decay=0.5,
        decay_every_batches=4, epochs=2, proj_hidden=8, proj_dim=8, seed=13), 2),
}


@pytest.mark.parametrize("precision", ["f32", "f64"])
@pytest.mark.parametrize("case", list(LOOP_CASES))
def test_descend_matches_the_hand_written_loops(precision, case):
    ad.set_default_dtype(precision)
    cfg, unlabeled_every = LOOP_CASES[case]
    runs = []
    for module in (per_loop, hm if isinstance(cfg, TrainConfig) else hc):
        corpus, model = _loop_setup(unlabeled_every)
        if isinstance(cfg, TrainConfig):
            result, arrays = module.train(corpus, model, cfg), {}
        else:
            result = module.pretrain(corpus, model, cfg)
            arrays = {k: v.data for k, v in result.head.named().items()}
            result = (result.history, result.skipped_empty_space, result.skipped_unsatisfiable,
                      result.before, result.after)
        arrays.update({k: v.data for k, v in model.named().items()})
        runs.append((result, arrays))
    (ref, ref_arrays), (new, new_arrays) = runs
    assert new == ref
    assert ref_arrays.keys() == new_arrays.keys()
    for name in ref_arrays:
        assert ref_arrays[name].dtype == ad.default_dtype(), name
        assert np.array_equal(ref_arrays[name], new_arrays[name]), name
    history = ref if isinstance(cfg, TrainConfig) else ref[0]
    lrs = [s.lr for s in history]
    # each case reaches the corner it is named for
    if case == "train-decay":
        assert lrs == [5e-3, 5e-3, 2.5e-3, 2.5e-3, 1.25e-3]
    elif case == "train-early-stop":
        assert 1 < len(history) < cfg.epochs
    elif case == "pretrain-cap-0":
        assert history == []
    elif case == "pretrain-cap-across-epoch":
        assert len(history) == 8 and lrs[2:4] == [1e-2, 5e-3] and ref[1] > 0
    else:
        assert len(history) == 19 and len(set(lrs)) == 5  # 5 of 24 batches skipped


@pytest.mark.parametrize("precision", ["f32", "f64"])
def test_train_after_pretrain_repacks_the_encoder(precision):
    # pretrain packs the encoder with its projection head, train then packs the
    # whole model again; stale gradients from before either run are cleared
    ad.set_default_dtype(precision)
    runs = []
    for pretrain, train in ((per_loop.pretrain, per_loop.train), (hc.pretrain, hm.train)):
        corpus, model = _loop_setup()
        params = model.named()
        for p in params.values():
            p.grad = np.ones_like(p.data)
        result = pretrain(corpus, model, LOOP_CASES["pretrain-cap-across-epoch"][0])
        history = train(corpus, model, LOOP_CASES["train-decay"][0])
        runs.append((result.history, history, {k: v.data for k, v in params.items()}))
    (ref_pre, ref_train, ref_arrays), (pre, train_history, arrays) = runs
    assert pre == ref_pre and train_history == ref_train
    for name in ref_arrays:
        assert np.array_equal(ref_arrays[name], arrays[name]), name


@pytest.mark.parametrize("case", ["train-decay", "train-early-stop", "pretrain-cap-across-epoch"])
def test_parameters_own_their_memory_after_the_loop(case):
    # the loop packs the parameters into one buffer; when it ends (run out,
    # stopped early with the loop suspended, or capped) each parameter gets
    # its own copy back, and the buffer can go
    cfg = LOOP_CASES[case][0]
    corpus, model = _loop_setup()
    if isinstance(cfg, TrainConfig):
        history = hm.train(corpus, model, cfg)
        params = model.named()
    else:
        result = hc.pretrain(corpus, model, cfg)
        history = result.history
        params = {**model.encoder.named("encoder"), **result.head.named()}
    assert history  # at least one step packed the parameters
    for name, p in params.items():
        assert p.data.base is None and p.data.flags.owndata, name
        assert p.grad is None, name
