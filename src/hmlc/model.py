"""Global/local hierarchical classifier.

Per level ℓ the field matrix h_ℓ is produced from h_0 — a row-wise MLP at
level 1, cross-attention (query h_0, key/value h_{ℓ-1}) below — and a
per-level head emits likelihoods for that level's labels. A global head
reads h_0 directly, and an integration MLP combines the two likelihood
vectors into the final prediction. Training minimizes focal loss plus a
hinge penalty on child-above-parent likelihood violations.

The heads take one record's h_0 (F, d) or a batch's (B, F, d) alike, and
every h_0 is ``encode_ids`` on ``token_ids`` rows: ``train`` builds one
graph per mini-batch, ``score_ids`` scores any number of records,
SCORE_CHUNK to a graph, and ``forward`` scores one record as a batch of one.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from itertools import islice

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import Corpus, CorpusError, Record
from .encoder import EncoderConfig, EncoderParams, encode_ids, encode_record, init_encoder, token_ids
from .hierarchy import LabelHierarchy, LengthMismatch, repair_bits, validate_assignment
from .metrics import micro_macro_f1
from .nn import AttentionParams, MlpParams, init_attention, init_mlp, mlp_forward, multihead_attention
from .optim import descend


CLAMP_EPS = 1e-7  # focal loss clamps ẑ this far inside (0, 1), so it never takes the log of 0


@dataclass(frozen=True)
class LossConfig:
    focal_alpha: float = 0.25
    focal_gamma: float = 2.0
    lambda_reg: float = 1.0
    threshold: float = 0.5

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
        if self.cross_heads < 1 or self.encoder.d % self.cross_heads:
            raise ValueError(f"cross_heads must be >= 1 and divide d={self.encoder.d}, "
                             f"got {self.cross_heads}")


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
    batch: the two branches' logits and the final likelihoods."""

    local_logits: Tensor
    global_logits: Tensor
    z_final: Tensor


def init_model(rng: np.random.Generator, h: LabelHierarchy, cfg: ModelConfig) -> HmcnModel:
    d = cfg.encoder.d
    flat = len(cfg.encoder.fields) * d
    hidden = cfg.head_hidden
    m = h.m
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


SCORE_CHUNK = 256  # rows per scoring graph: larger chunks cost peak memory, not speed


def score_ids(ids: np.ndarray, keys: np.ndarray, model: HmcnModel) -> np.ndarray:
    """``token_ids`` rows -> their final likelihoods ẑ, (N, m), scored
    forward-only SCORE_CHUNK rows at a time. Zero rows give a (0, m) array."""
    z = np.empty((len(ids), model.hierarchy.m), dtype=model.encoder.table.data.dtype)
    for start in range(0, len(ids), SCORE_CHUNK):
        rows = slice(start, start + SCORE_CHUNK)
        z[rows] = _predict(encode_ids(ids[rows], keys[rows], model.encoder), model).z_final.data
    return z


def forward(record: Record, model: HmcnModel) -> Prediction:
    """One record's likelihoods, each of length m."""
    return _predict(encode_record(record, model.encoder), model)


def path_regularization(z: Tensor, h: LabelHierarchy) -> Tensor:
    """R = Σ_edges max(0, ẑ_child − ẑ_parent), summed over the rows of a
    (B, m) batch; zero iff no child outranks its parent."""
    if z.ndim not in (1, 2) or z.shape[-1] != h.m:
        raise LengthMismatch(f"likelihood shape {z.shape} vs m={h.m}")
    child = np.flatnonzero(h.parent_index >= 0)  # h.edges() order
    return ad.hinge(z, child, h.parent_index[child])


def focal_loss(z: Tensor, y: np.ndarray, cfg: LossConfig) -> Tensor:
    """FL = Σ_v −α[y(1−ẑ)^γ log ẑ + (1−y) ẑ^γ log(1−ẑ)], with ẑ clamped to
    [CLAMP_EPS, 1−CLAMP_EPS], summed over every entry of a ``z`` shaped like
    its targets: one record's (m,) or a batch's (B, m)."""
    y = np.asarray(y, dtype=z.data.dtype)
    if y.shape != z.shape:
        raise LengthMismatch(f"focal_loss shapes {z.shape} vs {y.shape}")
    return ad.focal(z, y, cfg.focal_alpha, cfg.focal_gamma, CLAMP_EPS)


def total_loss(batch: list[Record], model: HmcnModel, cfg: LossConfig,
               pred: Prediction | None = None) -> Tensor:
    """Σ over the batch of focal loss + λ·path regularization on ẑ. ``pred``
    is the batch's ``_predict`` output when the caller already has it."""
    if not batch:
        raise ValueError("empty batch")
    pred = pred or _predict(encode_ids(*token_ids(batch, model.encoder.cfg), model.encoder), model)
    z = pred.z_final
    total = focal_loss(z, np.stack([r.labels for r in batch]), cfg)
    if cfg.lambda_reg > 0.0:
        reg = path_regularization(z, model.hierarchy)
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
        return json.dumps(asdict(self), sort_keys=True)


def count_violations(h: LabelHierarchy, bits: np.ndarray) -> int:
    """Total number of violated parent-child edges across rows."""
    return len(validate_assignment(h, bits))


def train(corpus: Corpus, model: HmcnModel, schedule: TrainConfig,
          loss_cfg: LossConfig | None = None) -> list[EpochStats]:
    """Mini-batch Adam over shuffled record batches. History metrics are
    computed from the thresholded predictions made during each epoch's
    forward passes (training-time estimates, no extra inference sweep)."""
    loss_cfg = loss_cfg or LossConfig()
    n = len(corpus)
    if not n:
        raise CorpusError("cannot train on a corpus with no records")
    ids, keys = token_ids(corpus.records, model.encoder.cfg)
    preds = np.zeros((n, model.hierarchy.m), dtype=np.uint8)

    def loss_of(idx: np.ndarray) -> Tensor:
        pred = _predict(encode_ids(ids[idx], keys[idx], model.encoder), model)
        preds[idx] = pred.z_final.data >= loss_cfg.threshold
        return total_loss([corpus.records[i] for i in idx], model, loss_cfg, pred=pred)

    per_epoch = math.ceil(n / schedule.batch_size)
    steps = descend(model.named(), loss_of, n, np.random.default_rng(schedule.seed),
                    schedule.epochs, schedule.batch_size, schedule.lr, schedule.lr_decay,
                    schedule.decay_every_epochs * per_epoch)
    history: list[EpochStats] = []
    for epoch in range(1, schedule.epochs + 1):
        losses, lrs = zip(*islice(steps, per_epoch))  # an epoch is per_epoch steps
        report = micro_macro_f1(corpus.label_matrix, preds)
        history.append(EpochStats(epoch, sum(losses) / n, report.micro_f1, report.macro_f1,
                                  count_violations(model.hierarchy, preds), lrs[-1]))
        if schedule.early_stop_f1 is not None and report.micro_f1 >= schedule.early_stop_f1:
            break
    return history


def evaluate(corpus: Corpus, model: HmcnModel, cfg: LossConfig):
    """{"raw": (F1Report, violation count), "repaired": (...)} for the
    thresholded predictions over a corpus. Each record is scored once, by
    ``score_ids``; the repaired rows are the raw ones after top-down
    ``repair_bits``."""
    if not len(corpus):
        raise CorpusError("cannot evaluate a corpus with no records")
    z = score_ids(*token_ids(corpus.records, model.encoder.cfg), model)
    raw = (z >= cfg.threshold).astype(np.uint8)
    h = model.hierarchy
    return {name: (micro_macro_f1(corpus.label_matrix, bits), count_violations(h, bits))
            for name, bits in (("raw", raw), ("repaired", repair_bits(h, raw)))}
