"""Hashed multi-field encoder: tokenization, masking, permutation structure."""

from __future__ import annotations

import numpy as np
import pytest

from hmlc import autodiff as ad
from hmlc.encoder import (
    AllFieldsEmpty,
    EncoderConfig,
    EncoderError,
    encode_record,
    encode_records,
    init_encoder,
    special_id,
    tokenize,
)
from hmlc.corpus import Record
from hmlc.nn import multihead_attention

from per_record import encode_field, fuse_fields, stack

CFG = EncoderConfig(vocab_buckets=64, d=8, heads=2, max_tokens=16,
                    fields=("name", "description", "comments"))


def _record(name="alpha beta", description="gamma", comments=""):
    return Record(
        id="r0",
        fields={"name": name, "description": description, "comments": comments},
        labels=np.zeros(1, dtype=np.uint8),
    )


# ---------------------------------------------------------------- tokenize


def test_tokenize_deterministic_and_offset():
    ids = tokenize("Alpha beta alpha", CFG)
    assert ids == tokenize("alpha BETA alpha", CFG)
    assert ids[0] == ids[2]
    assert all(i >= len(CFG.fields) for i in ids)
    assert all(i < CFG.table_rows for i in ids)


def test_tokenize_empty_and_punctuation():
    assert tokenize("", CFG) == []
    assert tokenize("...!??", CFG) == []
    assert len(tokenize("one,two;three", CFG)) == 3
    assert tokenize("one,two", CFG) == tokenize("one two", CFG)


def test_tokenize_truncation():
    text = " ".join(f"w{i}" for i in range(20))
    assert len(tokenize(text, CFG)) == CFG.max_tokens
    assert tokenize(text, CFG) == tokenize(" ".join(f"w{i}" for i in range(16)), CFG)


def test_hash_spreads_like_uniform():
    # [DERIVED] expected occupied buckets for n balls in B bins is
    # B*(1 - (1-1/B)^n); a good hash should land within a few percent on
    # unstructured words (seed 0 gives 3718 vs 3739.6 expected)
    cfg = EncoderConfig(vocab_buckets=4096, d=8, heads=2)
    rng = np.random.default_rng(0)
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    words = {"".join(rng.choice(letters, size=8)) for _ in range(10_000)}
    ids = {tokenize(w, cfg)[0] for w in words}
    expected_occupied = 4096 * (1.0 - (1.0 - 1.0 / 4096) ** len(words))
    assert abs(len(ids) - expected_occupied) < 0.05 * expected_occupied


def test_special_ids():
    assert special_id(CFG, "name") == 0
    assert special_id(CFG, "comments") == 2
    with pytest.raises(EncoderError):
        special_id(CFG, "title")


def test_config_validation():
    with pytest.raises(EncoderError, match="heads"):
        EncoderConfig(d=9, heads=2)
    with pytest.raises(EncoderError, match="heads"):
        EncoderConfig(d=8, heads=0)  # not a ZeroDivisionError
    with pytest.raises(EncoderError):
        EncoderConfig(d=0, heads=1)
    with pytest.raises(EncoderError):
        EncoderConfig(max_tokens=0)
    with pytest.raises(EncoderError):
        EncoderConfig(fields=())
    with pytest.raises(EncoderError):
        EncoderConfig(vocab_buckets=0)
    # a repeated field once encoded twice under one special id, the second
    # special row never used
    with pytest.raises(EncoderError, match=r"^fields repeat 'description', 'name'$"):
        EncoderConfig(fields=("name", "description", "name", "description", "comments"))
    assert CFG.table_rows == 3 + 64


# ------------------------------------------------------------- field level


def test_empty_field_zero_and_absent():
    params = init_encoder(np.random.default_rng(0), CFG)
    emb = encode_field([], "name", params)
    assert not emb.present
    assert np.all(emb.h_field.data == 0)


def test_field_vector_deterministic():
    params = init_encoder(np.random.default_rng(0), CFG)
    a = encode_record(_record(name="alpha beta", description="", comments=""), params).data
    b = encode_record(_record(name="alpha beta", description="", comments=""), params).data
    assert np.array_equal(a, b)
    c = encode_record(_record(name="", description="", comments="alpha beta"), params).data
    assert not np.allclose(a, c)  # special token distinguishes fields


def test_equal_logit_attention_is_permutation_invariant():
    # zeroed query projections make every attention weight uniform, so the
    # special-token row reduces to a mean over value projections
    params = init_encoder(np.random.default_rng(1), CFG)
    for wq in params.field_attn.wq:
        wq.data[:] = 0.0
    a = encode_record(_record(name="alpha beta gamma"), params).data
    b = encode_record(_record(name="gamma alpha beta"), params).data
    assert np.allclose(a, b, atol=1e-6)


# -------------------------------------------------------------- fuse level


def test_encode_record_shape():
    params = init_encoder(np.random.default_rng(2), CFG)
    h0 = encode_record(_record(), params)
    assert h0.shape == (3, CFG.d)


def test_all_fields_empty_raises():
    params = init_encoder(np.random.default_rng(2), CFG)
    with pytest.raises(AllFieldsEmpty):
        encode_record(_record(name="", description="", comments=""), params)


def test_fuse_wrong_arity():
    params = init_encoder(np.random.default_rng(2), CFG)
    emb = encode_field(tokenize("alpha", CFG), "name", params)
    with pytest.raises(ad.ShapeMismatch):
        fuse_fields([emb, emb], params)


def test_missing_field_key_treated_as_empty():
    params = init_encoder(np.random.default_rng(2), CFG)
    rec = Record(id="r", fields={"name": "alpha"}, labels=np.zeros(1, dtype=np.uint8))
    h0 = encode_record(rec, params)
    assert h0.shape == (3, CFG.d)


def test_fuse_mask_matches_physical_removal():
    # with comments empty, the fused rows must match attention over only the
    # two present field vectors
    params = init_encoder(np.random.default_rng(3), CFG)
    rec = _record(comments="")
    embs = [
        encode_field(tokenize(rec.fields[f], CFG), f, params)
        for f in CFG.fields
    ]
    fused = encode_record(rec, params)
    present_rows = stack([embs[0].h_field, embs[1].h_field])
    all_rows = stack([e.h_field for e in embs])
    reference = multihead_attention(all_rows, present_rows, present_rows,
                                    params.fuse_attn)
    assert np.allclose(fused.data, reference.data, atol=1e-6)


def test_absent_field_content_does_not_leak():
    # two records identical in present fields, empty comments either way
    params = init_encoder(np.random.default_rng(4), CFG)
    a = encode_record(_record(comments=""), params)
    b = encode_record(_record(comments="   ...  "), params)  # no word chars
    assert np.array_equal(a.data, b.data)


def test_encode_records_pads_without_leaking(f64):
    # a record's rows in a padded batch are its own encoding: longer fields,
    # empty fields and cut-off fields elsewhere in the batch change nothing
    params = init_encoder(np.random.default_rng(6), CFG)
    records = [
        _record(name="alpha", description="beta", comments=""),
        _record(name="", description=" ".join(f"w{i}" for i in range(40)), comments="x y"),
        _record(name="gamma delta epsilon", description="", comments=""),
    ]
    batch = encode_records(records, params)
    assert batch.shape == (3, 3, CFG.d)
    for i, rec in enumerate(records):
        assert np.allclose(batch.data[i], encode_record(rec, params).data, rtol=0, atol=1e-12)
    with pytest.raises(AllFieldsEmpty):
        encode_records([records[0], _record(name="", description="", comments="")], params)
    with pytest.raises(EncoderError):
        encode_records([], params)


def test_encoder_grad_check(f64):
    cfg = EncoderConfig(vocab_buckets=16, d=4, heads=1, max_tokens=4,
                        fields=("name", "description"))
    params = init_encoder(np.random.default_rng(5), cfg)
    rec = Record(id="r", fields={"name": "alpha beta", "description": "gamma"},
                 labels=np.zeros(1, dtype=np.uint8))
    wrt = list(params.named().values())

    def f():
        return ad.sum_all(encode_record(rec, params))

    ad.grad_check(f, wrt).assert_ok()
