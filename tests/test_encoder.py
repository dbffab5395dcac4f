"""Hashed multi-field encoder: tokenization, masking, permutation structure."""

from __future__ import annotations

import re
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hmlc import autodiff as ad
from hmlc.encoder import (
    AllFieldsEmpty,
    EncoderConfig,
    EncoderError,
    encode_ids,
    encode_record,
    init_encoder,
    token_ids,
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


def _tokenize_per_word(text, cfg):
    """tokenize as it was before words were read as bytes and kept per call:
    a str regex, and every word encoded and hashed where it occurs."""
    n = len(cfg.fields)
    words = re.findall(r"[0-9a-z]+", text.lower())[: cfg.max_tokens]
    return [n + (zlib.crc32(w.encode("utf-8")) % cfg.vocab_buckets) for w in words]


def _token_ids_per_field(records, cfg):
    """token_ids as it was before it wrote one flat array: two slice
    assignments per field, every word hashed where it occurs."""
    n_fields = len(cfg.fields)
    ids = np.zeros((len(records), n_fields, 1 + cfg.max_tokens), dtype=np.intp)
    keys = np.zeros(ids.shape, dtype=bool)
    ids[:, :, 0] = [cfg.fields.index(f) for f in cfg.fields]  # each field's special id
    keys[:, :, 0] = True
    for i, r in enumerate(records):
        for j, f in enumerate(cfg.fields):
            t = _tokenize_per_word(r.fields.get(f, ""), cfg)
            ids[i, j, 1:1 + len(t)] = t
            keys[i, j, 1:1 + len(t)] = True
    return ids, keys


# a few words, so that they repeat across fields and records, in mixed case and
# with characters WORD drops: non-ASCII letters (some that lowercase to ASCII,
# such as the Kelvin sign and the dotted capital I), a lone surrogate, U+2028
_WORDS = st.sampled_from(["alpha", "Beta", "GAMMA", "a1", "42", "zz", "café", "naïve", "straße",
                          "\u212a", "\u0130x", "\ud800", "x\u2028y", "日本", "ε"])
_TEXT = st.lists(_WORDS, max_size=24).flatmap(
    lambda ws: st.lists(st.sampled_from([" ", ", ", "-", "!", "\t", "é", "?"]),
                        min_size=len(ws), max_size=len(ws)).map(
        lambda seps: "".join(w + sep for w, sep in zip(ws, seps))))
_FIELDS = ("name", "description", "comments", "other")
_RECORDS = st.lists(st.dictionaries(st.sampled_from(_FIELDS), _TEXT, max_size=4).map(
    lambda fields: Record(id="r", fields=fields, labels=np.zeros(1, dtype=np.uint8))),
    max_size=6)


@settings(max_examples=120, deadline=None)
@given(text=_TEXT)
@example(text=" ".join(f"W{i}" for i in range(40)))
def test_tokenize_matches_the_per_word_hash(text):
    for cfg in (CFG, EncoderConfig(vocab_buckets=5, max_tokens=3, fields=("a",))):
        want = _tokenize_per_word(text, cfg)
        assert tokenize(text, cfg) == want


@settings(max_examples=80, deadline=None)
@given(first=_RECORDS, second=_RECORDS)
def test_token_ids_match_the_per_field_reference(first, second):
    # more words than max_tokens, words repeated across fields and records,
    # empty and missing fields; two calls in a row under other buckets and
    # fields each match, so no state survives a call
    other = EncoderConfig(vocab_buckets=7, max_tokens=3, fields=("comments", "other", "name"))
    for records, cfg in ((first, CFG), (second, other), (first, other), (second, CFG)):
        ids, keys = token_ids(records, cfg)
        want_ids, want_keys = _token_ids_per_field(records, cfg)
        assert ids.dtype == want_ids.dtype and keys.dtype == want_keys.dtype
        assert np.array_equal(ids, want_ids) and np.array_equal(keys, want_keys)


def test_special_ids():
    # every field's row starts with the id reserved for it, its place in fields
    ids, keys = token_ids([_record(), _record(name="", comments="delta")], CFG)
    assert ids[:, :, 0].tolist() == [[0, 1, 2], [0, 1, 2]]
    assert keys[:, :, 0].all()


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


def test_encode_ids_pads_without_leaking(f64):
    # a record's rows in a padded batch are its own encoding: longer fields,
    # empty fields and cut-off fields elsewhere in the batch change nothing
    params = init_encoder(np.random.default_rng(6), CFG)
    records = [
        _record(name="alpha", description="beta", comments=""),
        _record(name="", description=" ".join(f"w{i}" for i in range(40)), comments="x y"),
        _record(name="gamma delta epsilon", description="", comments=""),
    ]
    batch = encode_ids(*token_ids(records, CFG), params)
    assert batch.shape == (3, 3, CFG.d)
    for i, rec in enumerate(records):
        assert np.allclose(batch.data[i], encode_record(rec, params).data, rtol=0, atol=1e-12)
    with pytest.raises(AllFieldsEmpty):
        encode_ids(*token_ids([records[0], _record(name="", description="", comments="")], CFG),
                   params)
    with pytest.raises(EncoderError):
        encode_ids(*token_ids([], CFG), params)


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
