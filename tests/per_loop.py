"""The training loops as two hand-written copies, kept as the reference for
``optim.descend``.

``model.train`` and ``contrastive.pretrain`` each used to run their own
mini-batch Adam loop: shuffle, cut batches, zero the gradients, record and
back-propagate one tape, step Adam and decay the learning rate. Both now
drive ``optim.descend``. The two loops below are the earlier ones line for
line, apart from their docstrings and imports, and tests require the two
paths to agree bit for bit: histories, skip counters and every parameter.
"""

from __future__ import annotations

import numpy as np

from hmlc import autodiff as ad
from hmlc.contrastive import (EmptyBatch, HmclConfig, PretrainResult, PretrainStep,
                              contrastive_loss, init_projection, project_corpus)
from hmlc.corpus import Corpus
from hmlc.encoder import encode_ids, token_ids
from hmlc.metrics import embedding_diagnostics, micro_macro_f1
from hmlc.model import (EpochStats, HmcnModel, LossConfig, TrainConfig, _predict,
                        count_violations, total_loss)
from hmlc.optim import AdamState, NonFiniteLoss, adam_step
from hmlc.sampling import build_batch


def train(corpus: Corpus, model: HmcnModel, schedule: TrainConfig,
          loss_cfg: LossConfig | None = None) -> list[EpochStats]:
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


def pretrain(corpus: Corpus, model: HmcnModel, cfg: HmclConfig) -> PretrainResult:
    encoder = model.encoder
    h = corpus.hierarchy
    rng = np.random.default_rng(cfg.seed)
    in_dim = len(encoder.cfg.fields) * encoder.cfg.d
    head = init_projection(rng, in_dim, cfg.proj_hidden, cfg.proj_dim)
    params = {**encoder.named("encoder"), **head.named()}
    before = embedding_diagnostics(corpus, project_corpus(corpus, encoder, head),
                                   h, seed=cfg.seed)
    tokens = token_ids(corpus.records, encoder.cfg)
    state = AdamState()
    lr = cfg.lr
    history: list[PretrainStep] = []
    skipped_empty = 0
    skipped_unsat = 0
    done = 0
    capped = False
    for _ in range(cfg.epochs):
        if capped:
            break
        order = rng.permutation(len(corpus))
        for start in range(0, len(corpus), cfg.batch_size):
            if cfg.max_batches is not None and done >= cfg.max_batches:
                capped = True
                break
            anchors = order[start:start + cfg.batch_size]
            batch = build_batch(corpus, anchors, cfg.repeats_per_level, cfg.strategy, rng)
            skipped_empty += batch.skipped_empty_space
            skipped_unsat += batch.skipped_unsatisfiable
            ad.zero_grads(params)
            try:
                with ad.Tape() as tape:
                    objective = ad.scale(
                        contrastive_loss(batch, corpus, encoder, head, cfg, tokens), -1.0)
                    tape.backward(objective)
            except EmptyBatch:
                continue
            except ad.NonFiniteValue as e:
                raise NonFiniteLoss(f"non-finite contrastive loss at step {done}: {e}") from e
            adam_step(params, state, lr)
            done += 1
            history.append(PretrainStep(done, objective.item(), lr, skipped_empty, skipped_unsat))
            if done % cfg.decay_every_batches == 0:
                lr *= cfg.lr_decay
    after = embedding_diagnostics(corpus, project_corpus(corpus, encoder, head),
                                  h, seed=cfg.seed)
    return PretrainResult(head=head, history=history, before=before, after=after,
                          skipped_empty_space=skipped_empty,
                          skipped_unsatisfiable=skipped_unsat)
