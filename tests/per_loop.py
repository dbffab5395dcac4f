"""The training loops as two hand-written copies, kept as the reference for
``optim.descend``.

``model.train`` and ``contrastive.pretrain`` each used to run their own
mini-batch Adam loop: shuffle, cut batches, zero the gradients, record and
back-propagate one tape, step Adam and decay the learning rate. Both now
drive ``optim.descend``. The two loops below are the earlier ones line for
line, apart from their docstrings and imports, and tests require the two
paths to agree bit for bit: histories, skip counters and every parameter.

The loops clear the gradients with ``zero_grads`` before every step, so they
keep the Adam they ran with: ``AdamState``, ``_allocate`` and ``adam_step``
below are that optimizer line for line. It laid out flat moment buffers at
its first step and, at every step, concatenated the gradients into one row
and subtracted each parameter's slice of the update; ``optim.adam_step``
packs the parameters themselves instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from hmlc import autodiff as ad
from hmlc.autodiff import ShapeMismatch, Tensor
from hmlc.contrastive import (EmptyBatch, HmclConfig, PretrainResult, PretrainStep,
                              contrastive_loss, init_projection, project_corpus)
from hmlc.corpus import Corpus
from hmlc.encoder import encode_ids, token_ids
from hmlc.metrics import embedding_diagnostics, micro_macro_f1
from hmlc.model import (EpochStats, HmcnModel, LossConfig, TrainConfig, _predict,
                        count_violations, total_loss)
from hmlc.optim import NonFiniteLoss
from hmlc.sampling import build_batch


@dataclass
class AdamState:
    """Step count and moments. The first step fixes the layout (parameter
    names and shapes in iteration order, and their one dtype); ``m[name]``
    and ``v[name]`` are views, in the parameter's shape, into flat buffers."""

    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    layout: tuple = ()
    # rows: m, v, then two work rows for the gradient and the step
    flat: np.ndarray | None = None
    updates: list[np.ndarray] = field(default_factory=list)


def _allocate(state: AdamState, layout: tuple) -> None:
    dtypes = {dtype for _, _, dtype in layout}
    if len(dtypes) != 1:
        raise ShapeMismatch(f"Adam needs parameters of one dtype, got {sorted(map(str, dtypes))}")
    sizes = [int(np.prod(shape)) for _, shape, _ in layout]
    state.flat = np.zeros((4, sum(sizes)), dtype=dtypes.pop())
    state.layout = layout
    start = 0
    for (name, shape, _), size in zip(layout, sizes):
        span = slice(start, start + size)
        state.m[name] = state.flat[0, span].reshape(shape)
        state.v[name] = state.flat[1, span].reshape(shape)
        state.updates.append(state.flat[2, span].reshape(shape))
        start += size


def adam_step(
    params: dict[str, Tensor],
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    grads = []
    for name, p in params.items():
        g = p.grad
        if g is None:
            g = np.zeros_like(p.data)
        elif g.shape != p.data.shape:
            raise ShapeMismatch(f"gradient shape {g.shape} vs parameter {p.data.shape} for {name}")
        grads.append(g.ravel())
    layout = tuple((name, p.data.shape, p.data.dtype) for name, p in params.items())
    if state.flat is None:
        _allocate(state, layout)
    elif layout != state.layout:
        raise ShapeMismatch("parameter names, shapes or dtype differ from Adam's first step")
    state.step += 1
    t = state.step
    c1 = 1.0 - beta1**t
    c2 = 1.0 - beta2**t
    m, v, g, tmp = state.flat
    np.concatenate(grads, out=g)
    np.multiply(g, 1.0 - beta1, out=tmp)
    m *= beta1
    m += tmp
    np.multiply(g, g, out=g)
    g *= 1.0 - beta2
    v *= beta2
    v += g
    # g becomes lr·(m/c1) / (sqrt(v/c2) + eps), the step state.updates views
    np.divide(m, c1, out=g)
    g *= lr
    np.divide(v, c2, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += eps
    g /= tmp
    for p, update in zip(params.values(), state.updates):
        p.data -= update



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
