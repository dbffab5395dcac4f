"""The three benchmark workloads: train, infer and pretrain.

Each workload builds its inputs from the seed in ``setup`` and then runs
identical rounds of fixed work. A round returns its timings and checks its
own outputs; every round after the first must reproduce the first one's
outputs exactly. Calls into the program go through the module attribute
(``hm.train``, ``cli.main``) so that the trace, which rebinds those names,
sees them; the checks use functions bound at import, which the trace never
wraps.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import hmlc.cli as cli
import hmlc.contrastive as hc
import hmlc.model as hm
from hmlc.checkpoint import load_checkpoint
from hmlc.config import component_seeds
from hmlc.contrastive import HmclConfig
from hmlc.corpus import Corpus, Record, load_corpus
from hmlc.encoder import EncoderConfig
from hmlc.hierarchy import labels_to_bits, parse_hierarchy, validate_assignment
from hmlc.metrics import micro_macro_f1
from hmlc.model import LossConfig, ModelConfig, TrainConfig, init_model
from hmlc.synthetic import demo_hierarchy, make_synthetic_corpus

from tracing import Tracer, patched

# The acceptance downstream protocol (criteria 6 and 7): demo taxonomy, 2,000
# training and 500 held-out records, d=16, one epoch of batch 8 at lr 5e-3, λ=1.
N_TRAIN, N_TEST, TRAIN_BATCH = 2000, 500, 8
MODEL_CFG = ModelConfig(encoder=EncoderConfig(vocab_buckets=4096, d=16, heads=2, max_tokens=16),
                        head_hidden=32)
LOSS = LossConfig(lambda_reg=1.0)

# The calibrated pretraining protocol of criterion 6, cut to a fixed step count.
PRETRAIN_STEPS, PRETRAIN_BATCH = 150, 4


def _train_config(seeds) -> TrainConfig:
    return TrainConfig(epochs=1, batch_size=TRAIN_BATCH, lr=5e-3, seed=seeds["train"])


def _pretrain_config(seeds) -> HmclConfig:
    return HmclConfig(strategy="sibling", contrastive_alpha=0.5, repeats_per_level=(1, 2, 3),
                      batch_size=PRETRAIN_BATCH, lr=3e-4, max_batches=PRETRAIN_STEPS, epochs=3,
                      seed=seeds["pretrain"])


@dataclass
class Round:
    wall_s: float
    records: int  # records processed in the part of the round records_per_s times
    records_s: float  # the time of that part
    latencies_s: list[float]
    attempted: int
    failed: int


def _step_clock(marks: list[float]):
    """Note the end of every optimizer step; each train() or pretrain() step
    ends in exactly one adam_step call."""
    def make(fn):
        @functools.wraps(fn)
        def clocked(*args, **kwargs):
            result = fn(*args, **kwargs)
            marks.append(perf_counter())
            return result
        return clocked
    return patched("optim.adam_step", make)


def _scores(corpus: Corpus, model) -> np.ndarray:
    return np.stack([hm.predict_proba(r, model) for r in corpus.records])


def _micro_f1(corpus: Corpus, bits: np.ndarray) -> float:
    return micro_macro_f1(corpus.label_matrix, bits.astype(np.uint8)).micro_f1


class _AcceptanceWorkload:
    """Set-up shared by train and pretrain: the criterion-6/7 corpora and a
    freshly initialized model. Each round trains a fresh model, so rounds
    repeat the same work."""

    def setup(self, seed: int, work: Path) -> None:
        h = demo_hierarchy()
        self.seeds = component_seeds(seed)
        split = np.random.SeedSequence(self.seeds["synthetic"]).spawn(2)
        self.train_set = make_synthetic_corpus(h, N_TRAIN, int(split[0].generate_state(1)[0]))
        self.test_set = make_synthetic_corpus(h, N_TEST, int(split[1].generate_state(1)[0]))
        self.model = self._fresh_model()
        self.first = None  # the first round's outputs

    def _fresh_model(self):
        return init_model(np.random.default_rng(self.seeds["init"]),
                          self.train_set.hierarchy, MODEL_CFG)


class TrainWorkload(_AcceptanceWorkload):
    """One acceptance training epoch, then scoring of the held-out records."""

    expected_spans = (
        "model.train", "model.forward", "model.focal_loss", "model.path_regularization",
        "model.count_violations", "model.predict_proba", "hierarchy.validate_assignment",
        "encoder.encode_record", "encoder.tokenize", "nn.multihead_attention", "nn.mlp_forward",
        "autodiff.Tape.backward", "optim.adam_step",
    )

    def run_round(self) -> Round:
        model, self.model = self.model or self._fresh_model(), None
        marks: list[float] = []
        start = perf_counter()
        with _step_clock(marks):
            history = hm.train(self.train_set, model, _train_config(self.seeds), LOSS)
        train_s = perf_counter() - start
        z = _scores(self.test_set, model)
        wall_s = perf_counter() - start
        if self.first is None:
            self.first = z
        steps = math.ceil(N_TRAIN / TRAIN_BATCH)
        ok = (len(marks) == steps and all(math.isfinite(s.loss) for s in history)
              and np.array_equal(z, self.first))
        attempted = steps + N_TEST
        return Round(wall_s, N_TRAIN, train_s, np.diff(marks).tolist(),
                     attempted, 0 if ok else attempted)

    def test_micro_f1(self) -> float:
        return _micro_f1(self.test_set, self.first >= 0.5)

    def step_counts(self, t: Tracer) -> tuple[int, int]:
        return t.calls("optim.adam_step"), t.calls("encoder.encode_record", root="model.train")


# The infer checkpoint comes from a short ``hmlc train`` run: 1,000 records,
# one epoch at lr 1e-2, INI defaults otherwise. Of the held-out records sent
# to ``hmlc infer``, about a third keep their shape, a third lose one field and
# a third get a description longer than max_tokens, so padding and masking
# costs show.
N_CHECKPOINT_TRAIN, N_INFER = 1000, 1000
EXTRA_WORDS = (MODEL_CFG.encoder.max_tokens + 1, 2 * MODEL_CFG.encoder.max_tokens)
INFER_THRESHOLD = LossConfig(threshold=0.5)  # hmlc infer's default --threshold
INFER_INI = """\
[paths]
hierarchy = {data}/hierarchy.tsv
train = {data}/train.jsonl

[run]
seed = {seed}

[train]
epochs = 1
lr = 0.01
"""


def _restore(path: Path):
    """The model stored in a checkpoint, rebuilt from its recorded scope."""
    arrays, header = load_checkpoint(path)
    scope = header["meta"]["scope"]
    encoder = EncoderConfig(**{**scope["encoder"], "fields": tuple(scope["encoder"]["fields"])})
    model = init_model(np.random.default_rng(0),
                       parse_hierarchy([tuple(e) for e in scope["hierarchy"]]),
                       ModelConfig(encoder=encoder, **scope["model"]))
    for name, param in model.named().items():
        param.data = arrays[name]
    return model


def _reshape(record: Record, rng: np.random.Generator) -> Record:
    fields = dict(record.fields)
    kind = rng.integers(3)
    if kind == 1:
        fields[MODEL_CFG.encoder.fields[rng.integers(len(MODEL_CFG.encoder.fields))]] = ""
    elif kind == 2:
        extra = rng.integers(0, 64, size=rng.integers(*EXTRA_WORDS, endpoint=True))
        fields["description"] += "".join(f" pad{j}" for j in extra)
    return Record(id=record.id, fields=fields, labels=record.labels)


class InferWorkload:
    """One ``hmlc infer --repair`` call over ragged held-out records, then a
    closed loop of one caller sending single-record predict_labels requests."""

    expected_spans = (
        "cli.main", "cli.cmd_infer", "checkpoint.load_checkpoint", "model.forward",
        "model.predict_labels", "model.predict_proba", "encoder.encode_record",
        "encoder.tokenize", "nn.multihead_attention", "nn.mlp_forward",
    )

    def setup(self, seed: int, work: Path) -> None:
        data, run = work / "data", work / "run"
        work.mkdir(parents=True)
        ini = work / "run.ini"
        ini.write_text(INFER_INI.format(data=data, seed=seed))
        for argv in (["gen-synthetic", "--out", str(data), "--seed", str(seed),
                      "--n-train", str(N_CHECKPOINT_TRAIN), "--n-val", "0",
                      "--n-test", str(N_INFER)],
                     ["train", "--config", str(ini), "--out", str(run)]):
            if cli.main(argv) != 0:
                raise RuntimeError(f"hmlc {argv[0]} failed during set-up")
        self.checkpoint = run / "model.ckpt"
        self.model = _restore(self.checkpoint)
        held_out = load_corpus(data / "test.jsonl", self.model.hierarchy)
        rng = np.random.default_rng(seed)
        self.corpus = Corpus(self.model.hierarchy, [_reshape(r, rng) for r in held_out.records])
        self.input = work / "infer.jsonl"
        self.input.write_text("".join(
            json.dumps({"id": r.id, "fields": r.fields}) + "\n" for r in self.corpus.records))
        self.out = work / "infer"
        self.first = None  # the first round's predicted bits

    def run_round(self) -> Round:
        h = self.model.hierarchy
        records = self.corpus.records
        argv = ["infer", "--checkpoint", str(self.checkpoint), "--input", str(self.input),
                "--out", str(self.out), "--repair"]
        start = perf_counter()
        code = cli.main(argv)
        cli_s = perf_counter() - start
        outputs = ([json.loads(line) for line in
                    (self.out / "predictions.jsonl").read_text().splitlines()]
                   if code == 0 else [])
        latencies, predicted = [], []
        for record in records:
            t0 = perf_counter()
            predicted.append(hm.predict_labels(record, self.model, INFER_THRESHOLD, repair=True))
            latencies.append(perf_counter() - t0)
        predicted = np.stack(predicted)
        if self.first is None:
            self.first = predicted
        # every request path-consistent; one CLI line per input line, carrying
        # the same bits as the request for that record
        failed = sum(bool(validate_assignment(h, bits)) for bits in predicted)
        failed += len(records) if len(outputs) != len(records) else sum(
            not (out["id"] == r.id and np.array_equal(labels_to_bits(h, out["labels"]), bits))
            for out, r, bits in zip(outputs, records, predicted))
        if not np.array_equal(predicted, self.first):
            failed = 2 * len(records)
        return Round(perf_counter() - start, len(records), cli_s, latencies,
                     2 * len(records), failed)

    def test_micro_f1(self) -> float:
        return _micro_f1(self.corpus, self.first)

    def step_counts(self, t: Tracer) -> tuple[int, int]:
        return t.calls("model.forward"), t.calls("encoder.encode_record")


class PretrainWorkload(_AcceptanceWorkload):
    """pretrain() at the calibrated protocol for a fixed step count, with its
    before and after diagnostics."""

    expected_spans = (
        "contrastive.pretrain", "contrastive.contrastive_loss", "contrastive.encode_batch",
        "contrastive.project_corpus", "sampling.build_batch", "metrics.embedding_diagnostics",
        "encoder.encode_record", "encoder.tokenize", "nn.multihead_attention", "nn.mlp_forward",
        "autodiff.Tape.backward", "optim.adam_step",
    )

    def run_round(self) -> Round:
        model, self.model = self.model or self._fresh_model(), None
        marks: list[float] = []
        start = perf_counter()
        with _step_clock(marks):
            result = hc.pretrain(self.train_set, model, _pretrain_config(self.seeds))
        wall_s = perf_counter() - start
        if self.first is None:
            self.first = (model, result.batch_losses)
        losses = result.batch_losses
        diagnostics = (result.before.alignment, result.before.uniformity,
                       result.after.alignment, result.after.uniformity)
        failed = PRETRAIN_STEPS - sum(math.isfinite(x) for x in losses)
        if not all(math.isfinite(x) for x in diagnostics) or losses != self.first[1]:
            failed = PRETRAIN_STEPS
        return Round(wall_s, PRETRAIN_STEPS * PRETRAIN_BATCH, wall_s, np.diff(marks).tolist(),
                     PRETRAIN_STEPS, failed)

    def test_micro_f1(self) -> float:
        """Held-out micro-F1 after the train workload's epoch on the
        pretrained encoder (criterion 6b)."""
        model = self.first[0]
        hm.train(self.train_set, model, _train_config(self.seeds), LOSS)
        return _micro_f1(self.test_set, _scores(self.test_set, model) >= 0.5)

    def step_counts(self, t: Tracer) -> tuple[int, int]:
        return (t.calls("optim.adam_step"),
                t.calls("encoder.encode_record", parent="contrastive.encode_batch"))


WORKLOADS = {"train": TrainWorkload, "infer": InferWorkload, "pretrain": PretrainWorkload}
