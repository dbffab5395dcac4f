"""The per-record forward path and the per-pair contrastive loss, kept as
the references for the batched ones, with likelihood-space references: the
branch likelihoods, the integration MLP applied to likelihoods and one
pair's probability.

Each record builds its own graph: one self-attention per non-empty field
over exactly its [special ∥ tokens] rows, the special-token row taken as the
field vector, the field vectors stacked and fused, then the heads on one
flattened (F·d) input. The contrastive loss is summed pair group by pair
group, one anchor and level at a time. ``hmlc`` encodes and scores whole
batches in one graph and writes the loss as one weighted score matrix;
tests compare it against these functions in f64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hmlc import autodiff as ad
from hmlc.contrastive import EmptyBatch
from hmlc.encoder import AllFieldsEmpty, EncoderParams, tokenize
from hmlc.metrics import NonUnitInput
from hmlc.model import (
    HmcnModel,
    LossConfig,
    Prediction,
    _integrate_logits,
    focal_loss,
    local_embeddings,
    path_regularization,
)
from hmlc.nn import mlp_forward, multihead_attention

import per_op


def stack(vectors: list[ad.Tensor]) -> ad.Tensor:
    """Equal-length vectors as the rows of one matrix."""
    return ad.concat([ad.reshape(v, (1, -1)) for v in vectors], dim=0)


@dataclass
class FieldEmbedding:
    h_field: ad.Tensor
    present: bool


def encode_field(tokens: list[int], field: str, params: EncoderParams) -> FieldEmbedding:
    """Self-attention over [special ∥ tokens]; the special-token row is the
    field vector. An empty token sequence yields the zero vector."""
    cfg = params.cfg
    if not tokens:
        zero = ad.tensor(np.zeros(cfg.d), params.table.data.dtype)
        return FieldEmbedding(h_field=zero, present=False)
    ids = [cfg.fields.index(field)] + list(tokens)  # the field's special id, then its tokens
    seq = ad.embed(params.table, ids)
    attended = multihead_attention(seq, seq, seq, params.field_attn)
    return FieldEmbedding(h_field=ad.embed(attended, 0), present=True)


def fuse_fields(embs: list[FieldEmbedding], params: EncoderParams) -> ad.Tensor:
    """Stack the F field vectors and self-attend; absent fields are masked out
    of the keys so they receive exactly zero weight."""
    if len(embs) != len(params.cfg.fields):
        raise ad.ShapeMismatch(
            f"expected {len(params.cfg.fields)} field embeddings, got {len(embs)}")
    present = np.array([e.present for e in embs], dtype=bool)
    if not present.any():
        raise AllFieldsEmpty("record has no non-empty field")
    hstar = stack([e.h_field for e in embs])
    return multihead_attention(hstar, hstar, hstar, params.fuse_attn, key_mask=present)


def encode_record(record, params: EncoderParams) -> ad.Tensor:
    """Record -> h_0 of shape (F, d)."""
    cfg = params.cfg
    embs = [encode_field(tokenize(record.fields.get(f, ""), cfg), f, params)
            for f in cfg.fields]
    return fuse_fields(embs, params)


def forward(record, model: HmcnModel) -> Prediction:
    h_0 = encode_record(record, model.encoder)
    levels = local_embeddings(h_0, model)
    local_logits = ad.concat(
        [mlp_forward(ad.reshape(h, (-1,)), model.level_heads[lvl])
         for lvl, h in enumerate(levels)], dim=0)
    global_logits = mlp_forward(ad.reshape(h_0, (-1,)), model.global_head)
    x = ad.concat([local_logits, global_logits], dim=0)
    return Prediction(local_logits, global_logits, ad.sigmoid(mlp_forward(x, model.integration)))


def total_loss(batch, model: HmcnModel, cfg: LossConfig) -> ad.Tensor:
    """Σ over the batch, record by record, of focal loss + λ·path
    regularization on ẑ."""
    total = None
    for record in batch:
        z = forward(record, model).z_final
        term = focal_loss(z, record.labels, cfg)
        if cfg.lambda_reg > 0.0:
            reg = path_regularization(z, model.hierarchy)
            term = ad.add(term, ad.scale(reg, cfg.lambda_reg))
        total = term if total is None else ad.add(total, term)
    return total


def encode_batch(batch, corpus, encoder: EncoderParams, head) -> dict[int, ad.Tensor]:
    """Each record the batch touches, encoded and projected on its own."""
    return {
        i: ad.l2_normalize(mlp_forward(
            ad.reshape(encode_record(corpus.records[i], encoder), (-1,)), head.mlp))
        for i in batch.record_indices()
    }


def contrastive_loss(batch, corpus, encoder: EncoderParams, head, cfg) -> ad.Tensor:
    """L_cl for the batch (a scalar ≤ 0). Levels where the anchor has no
    active label are skipped; minimize the negation."""
    if not batch.anchors:
        raise EmptyBatch("batch has no anchors")
    emb = encode_batch(batch, corpus, encoder, head)
    inv_alpha = 1.0 / cfg.contrastive_alpha
    depth = corpus.hierarchy.depth
    total = None
    for i, per_anchor in zip(batch.anchors, batch.draws):
        s_i = emb[i]
        for ld in per_anchor:
            if ld.n_pos_labels == 0:
                continue
            parts = []
            if ld.positives:
                scores = ad.matmul_nt(stack([emb[p] for p in ld.positives]), stack([s_i]))
                parts.append(ad.sum_all(per_op.log_sigmoid(ad.scale(scores, inv_alpha))))
            negs = ld.negative_indices()
            if negs:
                scores = ad.matmul_nt(stack([emb[p] for p in negs]), stack([s_i]))
                # log(1 − σ(z)) = log σ(−z)
                parts.append(ad.sum_all(per_op.log_sigmoid(ad.scale(scores, -inv_alpha))))
            if not parts:
                continue
            term = parts[0] if len(parts) == 1 else ad.add(parts[0], parts[1])
            term = ad.scale(term, 1.0 / ld.n_pos_labels)
            total = term if total is None else ad.add(total, term)
    if total is None:
        raise EmptyBatch("no anchor in the batch has any active label")
    return ad.scale(total, 1.0 / (len(batch.anchors) * depth))


def z_local(pred: Prediction) -> ad.Tensor:
    """The local branch's likelihoods, which no loss reads."""
    return ad.sigmoid(pred.local_logits)


def z_global(pred: Prediction) -> ad.Tensor:
    """The global branch's likelihoods, which no loss reads."""
    return ad.sigmoid(pred.global_logits)


def integrate(z_local: ad.Tensor, z_global: ad.Tensor, model: HmcnModel) -> ad.Tensor:
    """Final likelihoods from the two branch likelihood vectors: the
    integration MLP reads logits, and the logit inverts the sigmoid."""
    if z_local.shape != (model.hierarchy.m,) or z_global.shape != (model.hierarchy.m,):
        raise ad.ShapeMismatch("integrate expects two length-m likelihood vectors")
    return _integrate_logits(_logit(z_local), _logit(z_global), model)


def _logit(z: ad.Tensor) -> ad.Tensor:
    one_minus = per_op.shift(ad.scale(z, -1.0), 1.0)
    return per_op.sub(per_op.log(z), per_op.log(one_minus))


def pair_probability(s, s_prime, polarity: str, alpha: float = 0.1) -> float:
    """σ(s·s'/α) for a positive pair, 1−σ(s·s'/α) for a negative one."""
    s = np.asarray(s, dtype=float)
    s_prime = np.asarray(s_prime, dtype=float)
    for vec in (s, s_prime):
        if abs(np.linalg.norm(vec) - 1.0) > 1e-4:
            raise NonUnitInput(f"pair_probability input norm {np.linalg.norm(vec):.6f}")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    z = float(s @ s_prime) / alpha
    if polarity == "positive":
        return float(np.exp(-np.logaddexp(0.0, -z)))
    if polarity == "negative":
        return float(np.exp(-np.logaddexp(0.0, z)))
    raise ValueError(f"polarity must be 'positive' or 'negative', got {polarity!r}")
