"""Global/local hierarchical classifier.

Per level ℓ the field matrix h_ℓ is produced from h_0 — a row-wise MLP at
level 1, cross-attention (query h_0, key/value h_{ℓ-1}) below — and a
per-level head emits likelihoods for that level's labels. A global head
reads h_0 directly, and an integration MLP combines the two likelihood
vectors into the final prediction. Training minimizes focal loss plus a
hinge penalty on child-above-parent likelihood violations.

The heads take one record's h_0 (F, d) or a batch's (B, F, d) alike:
``forward`` scores one record, ``forward_batch`` a mini-batch in one graph.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import Corpus, Record
from .encoder import (EncoderConfig, EncoderParams, encode_ids, encode_record, encode_records,
                      init_encoder, token_ids)
from .hierarchy import LabelHierarchy, LengthMismatch, repair_bits, validate_assignment
from .metrics import micro_macro_f1
from .nn import AttentionParams, MlpParams, init_attention, init_mlp, mlp_forward, multihead_attention
from .optim import AdamState, adam_step


class NonFiniteLoss(RuntimeError):
    pass


@dataclass(frozen=True)
class LossConfig:
    focal_alpha: float = 0.25
    focal_gamma: float = 2.0
    lambda_reg: float = 1.0
    threshold: float = 0.5
    clamp_eps: float = 1e-7

    def __post_init__(self):
        ok = (0.0 < self.focal_alpha < 1.0 and 0.0 <= self.focal_gamma < math.inf
              and 0.0 <= self.lambda_reg < math.inf and 0.0 < self.threshold < 1.0)
        if not ok:
            raise ValueError("focal_alpha in (0,1), focal_gamma >= 0, "
                             "lambda_reg >= 0, threshold in (0,1)")


@dataclass(frozen=True)
class ModelConfig:
    encoder: EncoderConfig = EncoderConfig()
    head_hidden: int = 32
    cross_heads: int = 2

    def __post_init__(self):
        if self.head_hidden < 1:
            raise ValueError(f"head_hidden must be >= 1, got {self.head_hidden}")


@dataclass
class HmcnModel:
    hierarchy: LabelHierarchy
    cfg: ModelConfig
    encoder: EncoderParams
    prior_mlp: MlpParams                 # level 1, applied row-wise to h_0
    cross_attn: list[AttentionParams]    # levels 2..L
    level_heads: list[MlpParams]         # one per level, width |V^(l)|
    global_head: MlpParams
    integration: MlpParams
    # constant selector matrices picking child/parent coordinates per edge
    child_sel: Tensor = None
    parent_sel: Tensor = None

    def named(self) -> dict[str, Tensor]:
        out = self.encoder.named("encoder")
        out.update(self.prior_mlp.named("prior"))
        for i, attn in enumerate(self.cross_attn):
            out.update(attn.named(f"cross{i + 2}"))
        for i, head in enumerate(self.level_heads):
            out.update(head.named(f"level{i + 1}"))
        out.update(self.global_head.named("global"))
        out.update(self.integration.named("integrate"))
        return out


@dataclass
class Prediction:
    """Scores in level-major order, length m for one record or (B, m) for a
    batch; no loss reads the branch likelihoods, so they are made when read."""

    local_logits: Tensor
    global_logits: Tensor
    z_final: Tensor

    @property
    def z_local(self) -> Tensor:
        return ad.sigmoid(self.local_logits)

    @property
    def z_global(self) -> Tensor:
        return ad.sigmoid(self.global_logits)


def edge_selectors(h: LabelHierarchy):
    """(child_sel, parent_sel): m×E one-hot columns so that z @ sel gathers
    the child/parent likelihood per edge."""
    edges = h.edges()
    child = np.zeros((h.m, len(edges)))
    parent = np.zeros((h.m, len(edges)))
    for i, (u, v) in enumerate(edges):
        parent[h.index[u], i] = 1.0
        child[h.index[v], i] = 1.0
    return ad.const(child), ad.const(parent)


def init_model(rng: np.random.Generator, h: LabelHierarchy,
               cfg: ModelConfig | None = None) -> HmcnModel:
    cfg = cfg or ModelConfig()
    d = cfg.encoder.d
    flat = len(cfg.encoder.fields) * d
    hidden = cfg.head_hidden
    m = h.m
    child_sel, parent_sel = edge_selectors(h)
    return HmcnModel(
        hierarchy=h,
        cfg=cfg,
        encoder=init_encoder(rng, cfg.encoder),
        prior_mlp=init_mlp(rng, [d, d, d]),
        cross_attn=[init_attention(rng, d, cfg.cross_heads) for _ in range(h.depth - 1)],
        level_heads=[
            init_mlp(rng, [flat, hidden, len(h.level_index[lvl])])
            for lvl in range(1, h.depth + 1)
        ],
        global_head=init_mlp(rng, [flat, hidden, m]),
        integration=init_mlp(rng, [2 * m, 2 * m, m]),
        child_sel=child_sel,
        parent_sel=parent_sel,
    )


def local_embeddings(h_0: Tensor, model: HmcnModel) -> list[Tensor]:
    """[h_1 .. h_L], each shaped like h_0: F×d, or B×F×d for a batch. h_0 is
    the query at every level; key/value is the previous level's output."""
    levels = [mlp_forward(h_0, model.prior_mlp)]
    for attn in model.cross_attn:
        levels.append(multihead_attention(h_0, levels[-1], levels[-1], attn))
    return levels


def _flat_fields(h: Tensor) -> Tensor:
    """(..., F, d) -> (..., F·d): one input row per record for the heads."""
    return ad.reshape(h, h.shape[:-2] + (-1,))


def _integrate_logits(local_logits: Tensor, global_logits: Tensor, model: HmcnModel) -> Tensor:
    # the integration MLP consumes the two branches' pre-sigmoid scores
    x = ad.concat([local_logits, global_logits], dim=-1)
    return ad.sigmoid(mlp_forward(x, model.integration))


def _predict(h_0: Tensor, model: HmcnModel) -> Prediction:
    local_logits = ad.concat([mlp_forward(_flat_fields(h), head) for h, head
                              in zip(local_embeddings(h_0, model), model.level_heads)], dim=-1)
    global_logits = mlp_forward(_flat_fields(h_0), model.global_head)
    return Prediction(local_logits, global_logits,
                      _integrate_logits(local_logits, global_logits, model))


def forward(record: Record, model: HmcnModel) -> Prediction:
    """One record's likelihoods, each of length m."""
    return _predict(encode_record(record, model.encoder), model)


def forward_batch(records: list[Record], model: HmcnModel) -> Prediction:
    """A mini-batch's likelihoods, each (B, m), from one graph."""
    return _predict(encode_records(records, model.encoder), model)


def path_regularization(z: Tensor, h: LabelHierarchy,
                        selectors: tuple[Tensor, Tensor] | None = None) -> Tensor:
    """R = Σ_edges max(0, ẑ_child − ẑ_parent), summed over the rows of a
    (B, m) batch; zero iff no child outranks its parent."""
    if z.ndim not in (1, 2) or z.shape[-1] != h.m:
        raise LengthMismatch(f"likelihood shape {z.shape} vs m={h.m}")
    child_sel, parent_sel = selectors if selectors is not None else edge_selectors(h)
    gap = ad.sub(ad.matmul(z, child_sel), ad.matmul(z, parent_sel))
    return ad.sum_all(ad.relu(gap))


def focal_loss(z: Tensor, y: np.ndarray, cfg: LossConfig) -> Tensor:
    """FL = Σ_v −α[y(1−ẑ)^γ log ẑ + (1−y) ẑ^γ log(1−ẑ)], with ẑ clamped to
    [eps, 1−eps]."""
    y = np.asarray(y, dtype=z.data.dtype)
    if z.ndim != 1 or y.shape != z.shape:
        raise LengthMismatch(f"focal_loss shapes {z.shape} vs {y.shape}")
    zc = ad.clip(z, cfg.clamp_eps, 1.0 - cfg.clamp_eps)
    one_minus = ad.shift(ad.scale(zc, -1.0), 1.0)
    pos = ad.mul(ad.const(y), ad.mul(ad.pow_const(one_minus, cfg.focal_gamma), ad.log(zc)))
    neg = ad.mul(ad.const(1.0 - y), ad.mul(ad.pow_const(zc, cfg.focal_gamma), ad.log(one_minus)))
    return ad.scale(ad.sum_all(ad.add(pos, neg)), -cfg.focal_alpha)


def total_loss(batch: list[Record], model: HmcnModel, cfg: LossConfig,
               pred: Prediction | None = None) -> Tensor:
    """Σ over the batch of focal loss + λ·path regularization on ẑ. ``pred``
    is the batch's ``forward_batch`` output when the caller already has it."""
    if not batch:
        raise ValueError("empty batch")
    z = (pred if pred is not None else forward_batch(batch, model)).z_final
    labels = np.stack([r.labels for r in batch])
    total = focal_loss(ad.reshape(z, (-1,)), labels.ravel(), cfg)
    if cfg.lambda_reg > 0.0:
        reg = path_regularization(z, model.hierarchy, (model.child_sel, model.parent_sel))
        total = ad.add(total, ad.scale(reg, cfg.lambda_reg))
    return total


def predict_proba(record: Record, model: HmcnModel) -> np.ndarray:
    return forward(record, model).z_final.data


def predict_labels(record: Record, model: HmcnModel, cfg: LossConfig,
                   repair: bool = False) -> np.ndarray:
    """Threshold ẑ at cfg.threshold (active when ẑ_v ≥ threshold). With
    ``repair``, children of inactive parents are deactivated top-down so the
    output is always path-consistent."""
    z = predict_proba(record, model)
    bits = (z >= cfg.threshold).astype(np.uint8)
    return repair_bits(model.hierarchy, bits) if repair else bits


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    batch_size: int = 8
    lr: float = 5e-3
    lr_decay: float = 0.8
    decay_every_epochs: int = 2
    seed: int = 0
    early_stop_f1: float | None = None  # stop once train micro-F1 reaches this

    def __post_init__(self):
        if not (min(self.epochs, self.batch_size, self.decay_every_epochs) >= 1
                and 0.0 <= self.lr < math.inf and 0.0 <= self.lr_decay < math.inf):
            raise ValueError("epochs, batch_size, decay_every_epochs >= 1; "
                             "lr, lr_decay finite and >= 0")


@dataclass
class EpochStats:
    epoch: int
    loss: float
    micro_f1: float
    macro_f1: float
    violations: int
    lr: float

    def to_json(self) -> str:
        return json.dumps({
            "epoch": self.epoch, "loss": self.loss, "micro_f1": self.micro_f1,
            "macro_f1": self.macro_f1, "violations": self.violations, "lr": self.lr,
        }, sort_keys=True)


def count_violations(h: LabelHierarchy, bits: np.ndarray) -> int:
    """Total number of violated parent-child edges across rows."""
    if bits.ndim == 1:
        bits = bits[None, :]
    return sum(len(validate_assignment(h, row)) for row in bits)


def train(corpus: Corpus, model: HmcnModel, schedule: TrainConfig,
          loss_cfg: LossConfig | None = None) -> list[EpochStats]:
    """Mini-batch Adam over shuffled record batches. History metrics are
    computed from the thresholded predictions made during each epoch's
    forward passes (training-time estimates, no extra inference sweep)."""
    loss_cfg = loss_cfg or LossConfig()
    rng = np.random.default_rng(schedule.seed)
    params = model.named()
    state = AdamState()
    lr = schedule.lr
    n = len(corpus)
    ids, keys = token_ids(corpus.records, model.encoder.cfg)
    threshold = loss_cfg.threshold
    history: list[EpochStats] = []
    for epoch in range(1, schedule.epochs + 1):
        order = rng.permutation(n)
        epoch_loss = 0.0
        preds = np.zeros((n, model.hierarchy.m), dtype=np.uint8)
        for start in range(0, n, schedule.batch_size):
            batch_idx = order[start:start + schedule.batch_size]
            batch = [corpus.records[i] for i in batch_idx]
            ad.zero_grads(params)
            try:
                with ad.Tape() as tape:
                    pred = _predict(encode_ids(ids[batch_idx], keys[batch_idx], model.encoder),
                                    model)
                    loss = total_loss(batch, model, loss_cfg, pred=pred)
                    tape.backward(loss)
            except ad.NonFiniteValue as e:
                raise NonFiniteLoss(
                    f"non-finite loss at epoch {epoch}, batch starting {start}: {e}") from e
            preds[batch_idx] = pred.z_final.data >= threshold
            epoch_loss += loss.item()
            adam_step(params, state, lr)
        report = micro_macro_f1(corpus.label_matrix, preds)
        stats = EpochStats(
            epoch=epoch,
            loss=epoch_loss / n,
            micro_f1=report.micro_f1,
            macro_f1=report.macro_f1,
            violations=count_violations(model.hierarchy, preds),
            lr=lr,
        )
        history.append(stats)
        if schedule.early_stop_f1 is not None and stats.micro_f1 >= schedule.early_stop_f1:
            break
        if epoch % schedule.decay_every_epochs == 0:
            lr *= schedule.lr_decay
    return history


def evaluate(corpus: Corpus, model: HmcnModel, cfg: LossConfig):
    """{"raw": (F1Report, violation count), "repaired": (...)} for the
    thresholded predictions over a corpus. Each record is scored once; the
    repaired rows are the raw ones after top-down ``repair_bits``."""
    z = np.stack([predict_proba(r, model) for r in corpus.records])
    raw = (z >= cfg.threshold).astype(np.uint8)
    h = model.hierarchy
    return {name: (micro_macro_f1(corpus.label_matrix, bits), count_violations(h, bits))
            for name, bits in (("raw", raw), ("repaired", repair_bits(h, raw)))}
