"""Multi-field text encoder.

Each field is tokenized by a stable hash into a shared embedding table, a
per-field special token is prepended, and one self-attention layer runs over
the sequence; the special-token row is the field vector. Field vectors are
stacked and fused by a second self-attention into the root embedding
``h_0`` of shape (F, d). Empty fields contribute a zero vector and are
masked out of the fusion attention keys.

``token_ids`` turns records into padded token-id and key-mask arrays once;
``encode_ids`` encodes any rows of them as one graph, in which key masks give
the padding exactly zero attention weight.
"""

from __future__ import annotations

import zlib
from array import array
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, default_dtype, embed, reshape, scale, tensor
from .corpus import DEFAULT_FIELDS, Record, words
from .nn import AttentionParams, init_attention, multihead_attention


class EncoderError(ValueError):
    pass


class AllFieldsEmpty(EncoderError):
    pass


@dataclass(frozen=True)
class EncoderConfig:
    vocab_buckets: int = 4096
    d: int = 16
    heads: int = 2
    max_tokens: int = 16
    fields: tuple[str, ...] = DEFAULT_FIELDS

    def __post_init__(self):
        if self.heads < 1 or self.d % self.heads != 0:
            raise EncoderError(f"heads must be >= 1 and divide d={self.d}, got {self.heads}")
        if self.d < 1 or self.max_tokens < 1 or not self.fields or self.vocab_buckets < 1:
            raise EncoderError("d >= 1, max_tokens >= 1, vocab_buckets >= 1, at least one field")
        repeated = sorted({f for f in self.fields if self.fields.count(f) > 1})
        if repeated:
            raise EncoderError(f"fields repeat {', '.join(map(repr, repeated))}")

    @property
    def table_rows(self) -> int:
        # one reserved special id per field, its place in fields, then the hash buckets
        return len(self.fields) + self.vocab_buckets


def tokenize(text: str, cfg: EncoderConfig) -> list[int]:
    """The first ``max_tokens`` words of ``text``, each hashed into the bucket
    range. crc32 rather than ``hash()`` because the latter is salted per
    process."""
    n = len(cfg.fields)
    return [n + zlib.crc32(w) % cfg.vocab_buckets for w in words(text)[: cfg.max_tokens]]


@dataclass
class EncoderParams:
    cfg: EncoderConfig
    table: Tensor
    field_attn: AttentionParams
    fuse_attn: AttentionParams

    def named(self, prefix: str = "encoder") -> dict[str, Tensor]:
        out = {f"{prefix}.table": self.table}
        out.update(self.field_attn.named(f"{prefix}.field_attn"))
        out.update(self.fuse_attn.named(f"{prefix}.fuse_attn"))
        return out


def init_encoder(rng: np.random.Generator, cfg: EncoderConfig) -> EncoderParams:
    table = rng.normal(0.0, 1.0 / np.sqrt(cfg.d), size=(cfg.table_rows, cfg.d))
    return EncoderParams(
        cfg=cfg,
        table=tensor(table.astype(default_dtype())),
        field_attn=init_attention(rng, cfg.d, cfg.heads),
        fuse_attn=init_attention(rng, cfg.d, cfg.heads),
    )


def token_ids(records: list[Record], cfg: EncoderConfig) -> tuple[np.ndarray, np.ndarray]:
    """Records -> (ids, keys), both (N, F, 1+max_tokens): per field, its
    special id, then its tokens, then zero padding; ``keys`` is True on the
    special id and the tokens.

    The rows are written into one flat int64 array, so no Python int list
    outlives a field."""
    padding = array("q", bytes(8 * cfg.max_tokens))
    flat = array("q")
    for r in records:
        for j, f in enumerate(cfg.fields):
            t = tokenize(r.fields.get(f, ""), cfg)
            flat.append(j)
            flat.fromlist(t)
            flat.extend(padding[len(t):])
    ids = np.frombuffer(flat, dtype=np.int64).reshape(len(records), len(cfg.fields),
                                                      1 + cfg.max_tokens)
    keys = ids != 0  # only padding and the first field's special id are 0
    keys[:, :, 0] = True
    return ids, keys


def encode_ids(ids: np.ndarray, keys: np.ndarray, params: EncoderParams) -> Tensor:
    """``token_ids`` rows -> h_0 of shape (B, F, d), one graph for the batch.

    Every field of every record is one row of a (B·F, 1+T) id matrix, cut to
    the batch's longest field T. One self-attention with the special-token
    rows as queries gives the field vectors; padding is masked out of the
    keys. Empty fields become the zero vector and are masked out of the
    fusion attention keys, so each record's h_0 is the same function of its
    own fields whatever else is in the batch."""
    cfg = params.cfg
    if not len(ids):
        raise EncoderError("no records to encode")
    batch, n_fields = ids.shape[:2]
    present = keys[:, :, 1]
    if not present.any(axis=1).all():
        raise AllFieldsEmpty("record has no non-empty field")
    width = int(keys.sum(axis=2).max())
    ids = ids[:, :, :width].reshape(batch * n_fields, width)
    keys = keys[:, :, :width].reshape(batch * n_fields, width)
    seq = embed(params.table, ids)
    field_vecs = multihead_attention(embed(params.table, ids[:, :1]), seq, seq,
                                     params.field_attn, key_mask=keys)
    keep = present[:, :, None].astype(params.table.data.dtype)
    hstar = scale(reshape(field_vecs, (batch, n_fields, cfg.d)), keep)
    return multihead_attention(hstar, hstar, hstar, params.fuse_attn, key_mask=present)


def encode_record(record: Record, params: EncoderParams) -> Tensor:
    """Record -> h_0 of shape (F, d): ``encode_ids`` on a batch of one."""
    h_0 = encode_ids(*token_ids([record], params.cfg), params)
    return reshape(h_0, h_0.shape[1:])
