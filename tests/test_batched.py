"""Batched forward against the per-record reference, in f64.

A mini-batch's ``_predict`` on ``encode_ids`` of its ``token_ids`` rows,
``total_loss``, the batched ``encode_batch`` and the score-matrix
``contrastive_loss`` must compute what the per-record path and the per-pair
loop in ``per_record.py`` compute, up to the order of floating-point sums:
outputs, losses and every parameter gradient agree to 1e-10.
"""

from __future__ import annotations

import numpy as np
import pytest

from hmlc import autodiff as ad
from hmlc.contrastive import HmclConfig, contrastive_loss, encode_batch, init_projection
from hmlc.corpus import Corpus, Record
from hmlc.encoder import EncoderConfig, encode_ids, token_ids, tokenize
from hmlc.hierarchy import labels_to_bits
from hmlc.model import (SCORE_CHUNK, LossConfig, ModelConfig, _predict, forward, init_model,
                        predict_labels, predict_proba, score_ids, total_loss)
from hmlc.sampling import build_batch

import per_record

TOL = 1e-10
ENC = EncoderConfig(vocab_buckets=64, d=8, heads=2, max_tokens=5)
CFG = ModelConfig(encoder=ENC, head_hidden=8, cross_heads=2)


def _records(h):
    def rec(rid, labels, name, description, comments):
        return Record(id=rid, labels=labels_to_bits(h, labels),
                      fields={"name": name, "description": description, "comments": comments})

    return [
        rec("padded-short", ["Finance"], "alpha", "beta", "gamma"),
        rec("padded-long", ["Game", "Game-RPG"], "alpha beta gamma", "delta epsilon", "zeta"),
        rec("empty-field", ["Video"], "eta theta", "", "iota kappa"),
        rec("single-field", ["Finance", "Finance-Loan"], "", "lambda mu nu", ""),
        rec("past-max-tokens", ["Finance", "Finance-Loan", "Finance-Loan-Credit Loan"],
            "xi", " ".join(f"w{i}" for i in range(3 * ENC.max_tokens)), "omicron pi"),
        rec("game-two", ["Game", "Game-Moba"], "rho sigma", "tau", ""),
    ]


@pytest.fixture()
def setup(demo, f64):
    model = init_model(np.random.default_rng(11), demo, CFG)
    for t in model.named().values():  # off the zero-bias init, as a trained model is
        if t.data.ndim == 1:
            t.data += np.random.default_rng(12).uniform(-0.1, 0.1, size=t.data.shape)
    records = _records(demo)
    token_counts = [len(tokenize(r.fields[f], ENC)) for r in records for f in ENC.fields]
    assert 0 in token_counts and max(token_counts) == ENC.max_tokens
    return model, records


def _loss_and_grads(params, loss_fn):
    ad.zero_grads(params)
    with ad.Tape() as tape:
        loss = loss_fn()
        tape.backward(loss)
    grads = {k: np.zeros_like(t.data) if t.grad is None else t.grad.copy()
             for k, t in params.items()}
    ad.zero_grads(params)
    return loss.item(), grads


def _assert_grads_match(got, want):
    assert got.keys() == want.keys()
    for name in want:
        np.testing.assert_allclose(got[name], want[name], rtol=0, atol=TOL, err_msg=name)


def test_batch_graph_matches_per_record(setup):
    model, records = setup
    batch = _predict(encode_ids(*token_ids(records, ENC), model.encoder), model)
    for i, record in enumerate(records):
        want = per_record.forward(record, model)
        single = forward(record, model)
        for field in ("local_logits", "global_logits", "z_final"):
            ref = getattr(want, field).data
            np.testing.assert_allclose(getattr(batch, field).data[i], ref, rtol=0, atol=TOL)
            np.testing.assert_allclose(getattr(single, field).data, ref, rtol=0, atol=TOL)


@pytest.mark.parametrize("lambda_reg", [0.0, 1.0])
def test_total_loss_and_gradients_match_per_record(setup, lambda_reg):
    model, records = setup
    cfg = LossConfig(lambda_reg=lambda_reg)
    params = model.named()
    got, got_grads = _loss_and_grads(params, lambda: total_loss(records, model, cfg))
    want, want_grads = _loss_and_grads(params, lambda: per_record.total_loss(records, model, cfg))
    assert got == pytest.approx(want, rel=0, abs=TOL)
    _assert_grads_match(got_grads, want_grads)


def test_encode_ids_on_corpus_rows_matches_own_token_ids(setup):
    # rows picked out of one corpus-wide table, out of order and repeated,
    # with ragged, empty and truncated fields in the same batch, against the
    # token_ids of those records alone
    model, records = setup
    ids, keys = token_ids(records, ENC)
    assert ids.shape == keys.shape == (len(records), len(ENC.fields), 1 + ENC.max_tokens)
    for rows in ([4, 0, 2], [2], [5, 1, 1, 3, 0, 4, 2]):
        got = encode_ids(ids[rows], keys[rows], model.encoder)
        want = encode_ids(*token_ids([records[i] for i in rows], ENC), model.encoder)
        assert got.shape == want.shape and np.array_equal(got.data, want.data)


def _contrastive_parity(model, corpus, cfg, anchors, seed):
    head = init_projection(np.random.default_rng(13), len(ENC.fields) * ENC.d, 8, 4)
    batch = build_batch(corpus, anchors, cfg.repeats_per_level, cfg.strategy,
                        np.random.default_rng(seed))
    params = {**model.encoder.named("encoder"), **head.named()}
    rows = encode_batch(batch, corpus, model.encoder, head)
    want_rows = per_record.encode_batch(batch, corpus, model.encoder, head)
    assert list(want_rows) == batch.record_indices()
    np.testing.assert_allclose(rows.data, np.stack([r.data for r in want_rows.values()]),
                               rtol=0, atol=TOL)
    got, got_grads = _loss_and_grads(
        params, lambda: contrastive_loss(batch, corpus, model.encoder, head, cfg))
    want, want_grads = _loss_and_grads(
        params, lambda: per_record.contrastive_loss(batch, corpus, model.encoder, head, cfg))
    assert got == pytest.approx(want, rel=0, abs=TOL)
    _assert_grads_match(got_grads, want_grads)
    _tokens_parity(model, corpus, head, batch, cfg)
    return batch


def _tokens_parity(model, corpus, head, batch, cfg):
    """``encode_batch`` and ``contrastive_loss`` give the same bits, rows,
    loss and every gradient, with the corpus's ``token_ids`` passed in as
    without them."""
    params = {**model.encoder.named("encoder"), **head.named()}
    tokens = token_ids(corpus.records, model.encoder.cfg)
    rows = [encode_batch(batch, corpus, model.encoder, head, t).data for t in (None, tokens)]
    assert rows[0].dtype == model.encoder.table.data.dtype
    assert np.array_equal(rows[0], rows[1])
    (loss, grads), (loss_t, grads_t) = (
        _loss_and_grads(params, lambda t=t: contrastive_loss(batch, corpus, model.encoder,
                                                             head, cfg, t))
        for t in (None, tokens))
    assert loss == loss_t
    assert grads.keys() == grads_t.keys()
    for name in grads:
        assert np.array_equal(grads[name], grads_t[name]), name


@pytest.mark.parametrize("strategy", ["all", "sibling", "level"])
def test_contrastive_tokens_optional_bit_identical_in_f32(demo, strategy):
    model = init_model(np.random.default_rng(11), demo, CFG)
    corpus = Corpus(demo, _records(demo))
    head = init_projection(np.random.default_rng(13), len(ENC.fields) * ENC.d, 8, 4)
    cfg = HmclConfig(strategy=strategy, repeats_per_level=(2, 3, 3), contrastive_alpha=0.3)
    batch = build_batch(corpus, [0, 1, 3, 4, 5], cfg.repeats_per_level, cfg.strategy,
                        np.random.default_rng(21))
    assert model.encoder.table.data.dtype == np.float32
    _tokens_parity(model, corpus, head, batch, cfg)


def test_score_ids_across_chunks_matches_per_record(setup):
    # past two chunk boundaries, with ragged fields, fields past max_tokens and
    # records that lose one field
    model, records = setup
    rng = np.random.default_rng(13)
    words = [f"w{i}" for i in range(40)]
    many = list(records)
    while len(many) < 2 * SCORE_CHUNK + 3:
        lengths = rng.integers(1, 2 * ENC.max_tokens, size=len(ENC.fields))
        lengths[rng.integers(len(lengths))] *= rng.integers(2)
        many.append(Record(id=f"r{len(many)}", labels=records[0].labels, fields={
            f: " ".join(rng.choice(words, size=k)) for f, k in zip(ENC.fields, lengths)}))
    ids, keys = token_ids(many, ENC)
    assert (keys[:, :, 1:].sum(axis=2) == 0).any() and keys.all(axis=2).any()
    z = score_ids(ids, keys, model)
    want = np.stack([predict_proba(r, model) for r in many])
    np.testing.assert_allclose(z, want, rtol=0, atol=TOL)
    cfg = LossConfig()
    assert np.array_equal((z >= cfg.threshold).astype(np.uint8),
                          np.stack([predict_labels(r, model, cfg) for r in many]))
    assert score_ids(ids[:0], keys[:0], model).shape == (0, model.hierarchy.m)


def test_contrastive_loss_and_gradients_match_per_record(setup):
    model, records = setup
    corpus = Corpus(model.hierarchy, records)
    cfg = HmclConfig(strategy="all", repeats_per_level=(1, 2, 2))
    batch = _contrastive_parity(model, corpus, cfg, [0, 3, 4], seed=14)
    assert len(batch.record_indices()) > len(batch.anchors)


def _has_repeated_draw(batch):
    return any(len(set(ids)) < len(ids)
               for per_anchor in batch.draws for ld in per_anchor
               for ids in (ld.positives, ld.negative_indices()))


@pytest.mark.parametrize("strategy", ["all", "sibling", "level"])
@pytest.mark.parametrize("seed", [21, 22])
def test_contrastive_matrix_loss_matches_per_pair_loop(setup, strategy, seed):
    # repeated draws must add up in the weights, and the anchor "padded-short"
    # (Finance only) has levels with no active label, which carry no weight
    model, records = setup
    corpus = Corpus(model.hierarchy, records)
    cfg = HmclConfig(strategy=strategy, repeats_per_level=(2, 3, 3), contrastive_alpha=0.3)
    batch = _contrastive_parity(model, corpus, cfg, [0, 1, 3, 4, 5], seed=seed)
    assert _has_repeated_draw(batch)
    assert any(ld.n_pos_labels == 0 for ld in batch.draws[0])


def test_train_step_records_one_small_graph(demo):
    # the point of batching: the tape of a step does not grow with the batch
    model = init_model(np.random.default_rng(0), demo, CFG)
    sizes = []
    for n in (1, 6):
        with ad.Tape() as tape:
            total_loss(_records(demo)[:n], model, LossConfig())
        sizes.append(len(tape.nodes))
    assert sizes[0] == sizes[1] < 200


def _tape_dtypes(params, loss_fn):
    """The dtype of every tape node's output and gradient and of every
    parameter gradient after one backward pass."""
    ad.zero_grads(params)
    with ad.Tape() as tape:
        tape.backward(loss_fn())
    dtypes = {}
    for i, (out, _) in enumerate(tape.nodes):
        dtypes[f"node {i} output"] = out.data.dtype
        if out.grad is not None:
            dtypes[f"node {i} grad"] = out.grad.dtype
    dtypes.update({name: t.grad.dtype for name, t in params.items() if t.grad is not None})
    ad.zero_grads(params)
    return dtypes


def test_f32_steps_stay_f32(demo):
    # a float64 scalar anywhere in an op would promote f32 arrays to f64 under NEP 50
    model = init_model(np.random.default_rng(11), demo, CFG)
    records = _records(demo)
    corpus = Corpus(demo, records)
    head = init_projection(np.random.default_rng(13), len(ENC.fields) * ENC.d, 8, 4)
    cfg = HmclConfig(strategy="all", repeats_per_level=(1, 2, 2))
    batch = build_batch(corpus, [0, 3, 4], cfg.repeats_per_level, cfg.strategy,
                        np.random.default_rng(14))
    steps = {
        "total_loss": (model.named(), lambda: total_loss(records, model, LossConfig())),
        "contrastive_loss": ({**model.encoder.named("encoder"), **head.named()},
                             lambda: contrastive_loss(batch, corpus, model.encoder, head, cfg)),
    }
    for step, (params, loss_fn) in steps.items():
        dtypes = _tape_dtypes(params, loss_fn)
        assert sum(name in dtypes for name in params) == len(params), step
        wrong = {name: dt for name, dt in dtypes.items() if dt != np.float32}
        assert not wrong, f"{step}: {wrong}"
