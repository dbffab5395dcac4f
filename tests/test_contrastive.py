"""Contrastive pretraining: pair probabilities, batch loss, training loop."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from hmlc import autodiff as ad
from hmlc import contrastive as ct
from hmlc.contrastive import (
    EmptyBatch,
    HmclConfig,
    contrastive_loss,
    encode_batch,
    init_projection,
    pretrain,
    project,
    project_corpus,
)
from hmlc.corpus import Corpus, CorpusError
from hmlc.encoder import EncoderConfig, encode_record
from hmlc.hierarchy import parse_hierarchy
from hmlc.metrics import NonUnitInput
from hmlc.model import ModelConfig, init_model
from hmlc.optim import NonFiniteLoss
from hmlc.sampling import ContrastiveBatch, LevelDraws, SamplingError, build_batch
from hmlc.synthetic import make_synthetic_corpus

from conftest import make_record
from per_record import pair_probability

TINY_ENC = EncoderConfig(vocab_buckets=32, d=4, heads=1, max_tokens=4,
                         fields=("name", "description"))
TINY_CFG = ModelConfig(encoder=TINY_ENC, head_hidden=4, cross_heads=1)


def _tiny_setup(n=12, seed=0):
    h = parse_hierarchy([
        ("ROOT", "A"), ("ROOT", "B"), ("A", "A1"), ("A", "A2"), ("B", "B1"),
    ])
    corpus = make_synthetic_corpus(h, n, seed=seed)
    model = init_model(np.random.default_rng(seed), h, TINY_CFG)
    return h, corpus, model


# ------------------------------------------------------- pair probabilities


def test_pair_probability_orthogonal_is_half():
    s = np.array([1.0, 0.0])
    t = np.array([0.0, 1.0])
    assert pair_probability(s, t, "positive") == pytest.approx(0.5)
    assert pair_probability(s, t, "negative") == pytest.approx(0.5)


def test_pair_probability_identical():
    # [DERIVED] sigma(1/0.1) = sigma(10)
    s = np.array([0.6, 0.8])
    assert pair_probability(s, s, "positive") == pytest.approx(
        0.9999546021312976, abs=1e-12)
    assert pair_probability(s, s, "negative") == pytest.approx(
        4.5397868702434395e-05, abs=1e-12)


def test_pair_probability_antipodal():
    s = np.array([0.6, 0.8])
    assert pair_probability(s, -s, "positive") == pytest.approx(
        4.5397868702434395e-05, abs=1e-12)


def test_pair_probability_polarities_sum_to_one():
    rng = np.random.default_rng(19)
    for _ in range(20):
        s = rng.normal(size=5)
        s /= np.linalg.norm(s)
        t = rng.normal(size=5)
        t /= np.linalg.norm(t)
        total = (pair_probability(s, t, "positive")
                 + pair_probability(s, t, "negative"))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_pair_probability_validation():
    unit = np.array([1.0, 0.0])
    with pytest.raises(NonUnitInput):
        pair_probability(2 * unit, unit, "positive")
    with pytest.raises(ValueError, match="alpha"):
        pair_probability(unit, unit, "positive", alpha=0.0)
    with pytest.raises(ValueError, match="polarity"):
        pair_probability(unit, unit, "both")


# -------------------------------------------------------------- projection


def test_projection_is_unit_norm():
    rng = np.random.default_rng(20)
    head = init_projection(rng, 8, 4, 4)
    h0 = ad.tensor(rng.normal(size=(2, 4)))
    s = project(h0, head)
    assert s.shape == (4,)
    assert abs(np.linalg.norm(s.data) - 1.0) < 1e-6


def test_project_corpus_shape_and_norms():
    _, corpus, model = _tiny_setup()
    head = init_projection(np.random.default_rng(0), 8, 4, 4)
    emb = project_corpus(corpus, model.encoder, head)
    assert emb.shape == (len(corpus), 4)
    assert np.allclose(np.linalg.norm(emb, axis=1), 1.0, atol=1e-5)


# ------------------------------------------------------------------- loss


def test_loss_is_nonpositive_log_probability():
    _, corpus, model = _tiny_setup()
    cfg = HmclConfig(strategy="all", repeats_per_level=(2, 2),
                     proj_hidden=4, proj_dim=4)
    head = init_projection(np.random.default_rng(1), 8, 4, 4)
    batch = build_batch(corpus, [0, 1, 2], cfg.repeats_per_level, cfg.strategy,
                        np.random.default_rng(2))
    loss = contrastive_loss(batch, corpus, model.encoder, head, cfg)
    assert loss.item() <= 0.0


def test_loss_closed_form_orthogonal(monkeypatch, f64):
    # [DERIVED] with every embedding orthogonal to every other, each pair
    # score is 0 and every log term is log(1/2); the loss is then
    # (1/(|B|·L)) Σ_i Σ_ℓ (n_pos + n_neg)/|V⁺| · log(1/2)
    h = parse_hierarchy([("ROOT", "A"), ("ROOT", "B"), ("A", "A1")])
    records = [
        make_record(h, "r0", ["A", "A1"]),
        make_record(h, "r1", ["B"]),
        make_record(h, "r2", ["A", "A1"]),
        make_record(h, "r3", ["B"]),
    ]
    corpus = Corpus(hierarchy=h, records=records)
    draws = [
        [  # anchor r0: level 1 has V+ = {A}, level 2 has V+ = {A1}
            LevelDraws(level=1, anchor_labels=("A",), positives=[2],
                       negatives=[("A", "B", 1)]),
            LevelDraws(level=2, anchor_labels=("A1",), positives=[2],
                       negatives=[("A1", "B", 3)]),
        ],
        [  # anchor r1: only level 1, two positive draws
            LevelDraws(level=1, anchor_labels=("B",), positives=[3, 3],
                       negatives=[("B", "A", 2)]),
            LevelDraws(level=2, anchor_labels=(), positives=[], negatives=[]),
        ],
    ]
    batch = ContrastiveBatch(anchors=[0, 1], draws=draws)

    eye = np.eye(len(records))
    monkeypatch.setattr(
        ct, "encode_batch", lambda b, c, e, hd, tokens: ad.tensor(eye[b.record_indices()]))
    cfg = HmclConfig(strategy="all", repeats_per_level=(1, 1))
    loss = contrastive_loss(batch, corpus, None, None, cfg)
    # anchor 0: levels contribute (1+1)/1 + (1+1)/1 = 4 log-half terms;
    # anchor 1: (2+1)/1 = 3; scaled by 1/(2 anchors * 2 levels)
    expected = (4 + 3) * math.log(0.5) / 4.0
    assert loss.item() == pytest.approx(expected, abs=1e-9)


def test_loss_gradient_check(f64):
    _, corpus, model = _tiny_setup(n=8, seed=3)
    cfg = HmclConfig(strategy="all", repeats_per_level=(1, 1),
                     proj_hidden=4, proj_dim=4)
    head = init_projection(np.random.default_rng(4), 8, 4, 4)
    batch = build_batch(corpus, [0, 1, 2, 3], cfg.repeats_per_level,
                        cfg.strategy, np.random.default_rng(5))
    params = {**model.encoder.named("encoder"), **head.named()}

    def f():
        return ad.scale(
            contrastive_loss(batch, corpus, model.encoder, head, cfg), -1.0)

    ad.grad_check(f, list(params.values())).assert_ok()


def test_pretrain_step_tape_node_count(demo, demo_corpus):
    # the encoder (two gathers, field attention, reshape, empty-field mask,
    # fusion attention), the projection (flatten, two dense, l2_normalize),
    # the anchor gather, the score product, the loss op and the negation
    model = init_model(np.random.default_rng(0), demo, ModelConfig())
    head = init_projection(np.random.default_rng(1), 3 * 16, 32, 16)
    cfg = HmclConfig(strategy="sibling", repeats_per_level=(1, 2, 3), batch_size=4)
    batch = build_batch(demo_corpus, [0, 1, 2, 3], cfg.repeats_per_level, cfg.strategy,
                        np.random.default_rng(2))
    with ad.Tape() as tape:
        ad.scale(contrastive_loss(batch, demo_corpus, model.encoder, head, cfg), -1.0)
    assert len(tape.nodes) == 14


def test_loss_requires_anchors():
    _, corpus, model = _tiny_setup()
    head = init_projection(np.random.default_rng(6), 8, 4, 4)
    empty = ContrastiveBatch(anchors=[], draws=[])
    with pytest.raises(EmptyBatch):
        contrastive_loss(empty, corpus, model.encoder, head, HmclConfig())


def test_loss_requires_active_labels():
    h = parse_hierarchy([("ROOT", "A")])
    records = [make_record(h, "r0", []), make_record(h, "r1", ["A"])]
    corpus = Corpus(hierarchy=h, records=records)
    model = init_model(np.random.default_rng(7), h, TINY_CFG)
    head = init_projection(np.random.default_rng(7), 8, 4, 4)
    batch = build_batch(corpus, [0], (1,), "all", np.random.default_rng(8))
    with pytest.raises(EmptyBatch):
        contrastive_loss(batch, corpus, model.encoder, head, HmclConfig())


def test_encode_batch_covers_batch_records():
    # one unit row per touched record, in record_indices() order
    _, corpus, model = _tiny_setup()
    head = init_projection(np.random.default_rng(9), 8, 4, 4)
    batch = build_batch(corpus, [0, 1], (1, 1), "all", np.random.default_rng(10))
    rows = encode_batch(batch, corpus, model.encoder, head)
    assert rows.shape == (len(batch.record_indices()), 4)
    assert np.allclose(np.linalg.norm(rows.data, axis=1), 1.0, atol=1e-5)
    for j, i in enumerate(batch.record_indices()):
        single = project(encode_record(corpus.records[i], model.encoder), head)
        assert np.allclose(rows.data[j], single.data, atol=1e-5)


def test_zero_projection_names_l2_normalize_and_row():
    # zeroed first-layer weights and a negative bias switch every hidden ReLU
    # off, so the head maps each record to the exact zero vector
    _, corpus, model = _tiny_setup()
    head = init_projection(np.random.default_rng(9), 8, 4, 4)
    head.mlp.weights[0].data[...] = 0.0
    head.mlp.biases[0].data[...] = -1.0
    batch = build_batch(corpus, [0, 1], (1, 1), "all", np.random.default_rng(10))
    n_rows = len(batch.record_indices())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ad.NonFiniteValue,
                           match=rf"l2_normalize: row 0 of {n_rows} has zero norm \({n_rows} such"):
            encode_batch(batch, corpus, model.encoder, head)
        with pytest.raises(ad.NonFiniteValue, match=r"l2_normalize: row 0 of 1 has zero norm"):
            project_corpus(corpus, model.encoder, head)


# --------------------------------------------------------------- pretrain


def test_pretrain_zero_steps_keeps_encoder():
    _, corpus, model = _tiny_setup()
    before = {k: v.data.copy() for k, v in model.encoder.named().items()}
    cfg = HmclConfig(strategy="all", repeats_per_level=(1, 1), max_batches=0,
                     proj_hidden=4, proj_dim=4)
    result = pretrain(corpus, model, cfg)
    assert result.batch_losses == []
    for k, v in model.encoder.named().items():
        assert np.array_equal(before[k], v.data), k
    assert result.before == result.after


def test_pretrain_on_no_records_raises_corpus_error(monkeypatch):
    # once "need at least one array to stack" from the diagnostics before training
    h, _, model = _tiny_setup()

    def no_work(*args):
        raise AssertionError("pretrain did work before rejecting the corpus")

    monkeypatch.setattr(ct, "init_projection", no_work)
    monkeypatch.setattr(ct, "project_corpus", no_work)
    with pytest.raises(CorpusError, match="no records"):
        pretrain(Corpus(h, []), model, HmclConfig(proj_hidden=4, proj_dim=4))


def test_pretrain_updates_encoder_and_logs_losses():
    _, corpus, model = _tiny_setup()
    before = {k: v.data.copy() for k, v in model.encoder.named().items()}
    cfg = HmclConfig(strategy="all", repeats_per_level=(2, 2), batch_size=4,
                     lr=1e-3, max_batches=3, proj_hidden=4, proj_dim=4, seed=1)
    result = pretrain(corpus, model, cfg)
    assert len(result.batch_losses) == 3
    assert all(loss >= 0.0 for loss in result.batch_losses)  # minimizing −L_cl
    changed = any(
        not np.array_equal(before[k], v.data)
        for k, v in model.encoder.named().items()
    )
    assert changed


def test_pretrain_nonfinite_names_epoch_and_step(monkeypatch):
    # a NaN lands in the encoder table as the first batch is drawn, after the
    # "before" diagnostics; the message once named the first step "step 0"
    _, corpus, model = _tiny_setup()
    draw = ct.build_batch

    def planting(*args):
        model.encoder.table.data[...] = np.nan
        return draw(*args)

    monkeypatch.setattr(ct, "build_batch", planting)
    cfg = HmclConfig(strategy="all", repeats_per_level=(1, 1), batch_size=4, max_batches=2,
                     proj_hidden=4, proj_dim=4)
    with pytest.raises(NonFiniteLoss, match=r"^non-finite loss at epoch 1, step 1: "):
        pretrain(corpus, model, cfg)


def test_pretrain_deterministic():
    losses = []
    for _ in range(2):
        _, corpus, model = _tiny_setup(seed=4)
        cfg = HmclConfig(strategy="level", repeats_per_level=(2, 2),
                         batch_size=4, lr=1e-3, max_batches=2,
                         proj_hidden=4, proj_dim=4, seed=9)
        losses.append(pretrain(corpus, model, cfg).batch_losses)
    assert losses[0] == losses[1]


def test_hmcl_config_validation():
    with pytest.raises(SamplingError):
        HmclConfig(strategy="hardest")
    with pytest.raises(ValueError):
        HmclConfig(contrastive_alpha=0.0)
    with pytest.raises(ValueError):
        HmclConfig(repeats_per_level=())
    with pytest.raises(ValueError):
        HmclConfig(repeats_per_level=(1, 0))
