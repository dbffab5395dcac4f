"""Contrastive pretraining of the encoder.

Each record is encoded to h_0, projected by a small MLP head, and length
normalized. Per anchor and per level, sampled positive partners are pushed
toward the anchor and sampled negatives away, through sigmoid pair
probabilities: the batch objective

    L_cl = (1/(|B|·L)) Σ_i Σ_ℓ (1/|V_iℓ⁺|) [Σ log σ(s·s⁺/α) + Σ log(1−σ(s·s⁻/α))]

is a sum of log-probabilities (≤ 0); training minimizes −L_cl. The head is
discarded after pretraining, leaving the encoder weights for the classifier.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import Corpus, CorpusError
from .encoder import EncoderParams, encode_ids, encode_record, token_ids
from .metrics import EmbeddingDiagnostics, embedding_diagnostics
from .model import HmcnModel
from .nn import MlpParams, init_mlp, mlp_forward
from .optim import descend
from .sampling import STRATEGIES, ContrastiveBatch, SamplingError, build_batch


class EmptyBatch(ValueError):
    pass


@dataclass(frozen=True)
class HmclConfig:
    strategy: str = "sibling"
    contrastive_alpha: float = 0.1
    repeats_per_level: tuple[int, ...] = (10, 20, 50)
    batch_size: int = 8
    lr: float = 1e-5
    lr_decay: float = 0.8
    decay_every_batches: int = 4000
    epochs: int = 1
    max_batches: int | None = None  # cap for short calibration runs
    proj_hidden: int = 32
    proj_dim: int = 16
    seed: int = 0

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise SamplingError(f"unknown strategy {self.strategy!r}")
        if not 0.0 < self.contrastive_alpha < math.inf:
            raise ValueError("contrastive_alpha must be positive and finite")
        if not self.repeats_per_level or any(r < 1 for r in self.repeats_per_level):
            raise ValueError("repeats_per_level entries must be >= 1")
        if not (min(self.batch_size, self.epochs, self.decay_every_batches, self.proj_hidden,
                    self.proj_dim) >= 1 and 0.0 <= self.lr < math.inf
                and 0.0 <= self.lr_decay < math.inf and (self.max_batches or 0) >= 0):
            raise ValueError("batch_size, epochs, decay_every_batches, proj_hidden, proj_dim >= 1; "
                             "lr, lr_decay finite and >= 0; max_batches >= 0")


@dataclass
class ProjectionHead:
    mlp: MlpParams

    def named(self, prefix: str = "proj") -> dict[str, Tensor]:
        return self.mlp.named(prefix)


def init_projection(rng: np.random.Generator, in_dim: int, hidden: int,
                    out_dim: int) -> ProjectionHead:
    return ProjectionHead(mlp=init_mlp(rng, [in_dim, hidden, out_dim]))


def project(h_0: Tensor, head: ProjectionHead) -> Tensor:
    """Flattened h_0 through the head, always unit-normalized: one record's
    (F, d) gives a vector, a batch's (B, F, d) one unit row per record."""
    return ad.l2_normalize(mlp_forward(ad.reshape(h_0, h_0.shape[:-2] + (-1,)), head.mlp))


def encode_batch(batch: ContrastiveBatch, corpus: Corpus, encoder: EncoderParams,
                 head: ProjectionHead, tokens: tuple[np.ndarray, np.ndarray] | None = None
                 ) -> Tensor:
    """Each record the batch touches is encoded and projected exactly once,
    all of them in one graph; reuse keeps the tape small and still
    accumulates every gradient path. ``tokens`` is the corpus's
    ``token_ids``, computed here when the caller has none. Returns the (R, p)
    unit rows in ``batch.record_indices()`` order."""
    rows = batch.record_indices()
    ids, keys = tokens or token_ids(corpus.records, encoder.cfg)
    return project(encode_ids(ids[rows], keys[rows], encoder), head)


def contrastive_loss(batch: ContrastiveBatch, corpus: Corpus, encoder: EncoderParams,
                     head: ProjectionHead, cfg: HmclConfig,
                     tokens: tuple[np.ndarray, np.ndarray] | None = None) -> Tensor:
    """L_cl for the batch (a scalar ≤ 0); minimize the negation.

    One weighted sum over the anchor-by-record score matrix S = s_a·s_r/α:
    each positive draw adds 1/|V⁺| to its record's column of the anchor's
    row of W⁺, each negative draw the same to W⁻ (repeated draws add up),
    and L_cl = (Σ W⁺⊙log σ(S) + Σ W⁻⊙log σ(−S)) / (|B|·L). Levels where the
    anchor has no active label carry no weight. ``tokens`` is passed on to
    ``encode_batch``."""
    if not batch.anchors:
        raise EmptyBatch("batch has no anchors")
    col = {i: j for j, i in enumerate(batch.record_indices())}
    shape = (2, len(batch.anchors), len(col))  # W⁺ then W⁻
    at, weight = [], []  # one scatter, draw by draw in batch order
    for a, per_anchor in enumerate(batch.draws):
        for ld in per_anchor:
            for k, drawn in enumerate((ld.positives, ld.negative_indices())):
                if drawn and ld.n_pos_labels:
                    at += [(k * shape[1] + a) * shape[2] + col[i] for i in drawn]
                    weight += [1.0 / ld.n_pos_labels] * len(drawn)
    w_pos, w_neg = np.bincount(np.array(at, dtype=np.intp), np.array(weight, dtype=np.float64),
                               minlength=np.prod(shape)).reshape(shape)
    if not (w_pos.any() or w_neg.any()):
        raise EmptyBatch("no anchor in the batch has any active label")
    rows = encode_batch(batch, corpus, encoder, head, tokens)
    return ad.weighted_log_sigmoid(rows, [col[i] for i in batch.anchors],
                                   1.0 / cfg.contrastive_alpha, w_pos, w_neg,
                                   1.0 / (len(batch.anchors) * corpus.hierarchy.depth))


def project_corpus(corpus: Corpus, encoder: EncoderParams,
                   head: ProjectionHead) -> np.ndarray:
    """Projected unit embedding per record, forward-only. A record the head
    maps to the zero vector is named in the ``NonFiniteValue`` raised."""
    rows = []
    for i, r in enumerate(corpus.records):
        try:
            rows.append(project(encode_record(r, encoder), head).data)
        except ad.NonFiniteValue as e:
            raise ad.NonFiniteValue(f"record {i} (id {r.id!r}): {e}") from e
    return np.stack(rows)


@dataclass
class PretrainStep:
    """One optimizer step (numbered from 1): the minimized objective −L_cl,
    the lr it ran at, and the sampler's skip counters over every batch drawn
    so far, this one included."""
    step: int
    objective: float
    lr: float
    skipped_empty_space: int
    skipped_unsatisfiable: int

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


@dataclass
class PretrainResult:
    head: ProjectionHead
    history: list[PretrainStep]
    before: EmbeddingDiagnostics
    after: EmbeddingDiagnostics
    skipped_empty_space: int
    skipped_unsatisfiable: int

    @property
    def batch_losses(self) -> list[float]:
        """The minimized objective, −L_cl, per step."""
        return [s.objective for s in self.history]


def pretrain(corpus: Corpus, model: HmcnModel, cfg: HmclConfig) -> PretrainResult:
    """Adam ascent on L_cl over shuffled anchor batches, updating the encoder
    in place. Embedding diagnostics are measured with identical pair sampling
    before and after."""
    if not len(corpus):
        raise CorpusError("cannot pretrain on a corpus with no records")
    encoder = model.encoder
    rng = np.random.default_rng(cfg.seed)
    in_dim = len(encoder.cfg.fields) * encoder.cfg.d
    head = init_projection(rng, in_dim, cfg.proj_hidden, cfg.proj_dim)

    def diagnostics() -> EmbeddingDiagnostics:
        return embedding_diagnostics(corpus, project_corpus(corpus, encoder, head),
                                     corpus.hierarchy, seed=cfg.seed)

    before = diagnostics()
    tokens = token_ids(corpus.records, encoder.cfg)
    skipped = [0, 0]  # empty space, unsatisfiable: over every batch drawn so far

    def loss_of(anchors: np.ndarray) -> Tensor | None:
        batch = build_batch(corpus, anchors, cfg.repeats_per_level, cfg.strategy, rng)
        skipped[0] += batch.skipped_empty_space
        skipped[1] += batch.skipped_unsatisfiable
        try:
            return ad.scale(contrastive_loss(batch, corpus, encoder, head, cfg, tokens), -1.0)
        except EmptyBatch:
            return None

    steps = descend({**encoder.named("encoder"), **head.named()}, loss_of, len(corpus), rng,
                    cfg.epochs, cfg.batch_size, cfg.lr, cfg.lr_decay, cfg.decay_every_batches,
                    cfg.max_batches)
    history = [PretrainStep(step, objective, lr, *skipped)
               for step, (objective, lr) in enumerate(steps, start=1)]
    return PretrainResult(head, history, before, diagnostics(), *skipped)
