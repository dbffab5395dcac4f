#!/usr/bin/env python3
"""Timing and quality experiments on the synthetic corpus.

Three modes:

  train            one classifier run; per-epoch wall time, train/test F1
  pretrain-compare paired runs per seed: plain training vs contrastive
                   pretraining followed by the same training budget
  lambda-compare   paired runs per seed: lambda_reg 1 vs 0, held-out
                   path violations

Every result is printed as one JSON line so runs can be collected with
standard shell tools.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from hmlc.config import component_seeds
from hmlc.contrastive import HmclConfig, pretrain
from hmlc.encoder import EncoderConfig
from hmlc.model import (
    LossConfig,
    ModelConfig,
    TrainConfig,
    evaluate,
    init_model,
    train,
)
from hmlc.synthetic import demo_hierarchy, make_synthetic_corpus


def emit(payload) -> None:
    print(json.dumps(payload, sort_keys=True), flush=True)


def build(args, seed: int):
    h = demo_hierarchy()
    seeds = component_seeds(seed)
    syn = np.random.SeedSequence(seeds["synthetic"]).spawn(2)
    train_corpus = make_synthetic_corpus(h, args.n_train, int(syn[0].generate_state(1)[0]))
    test_corpus = make_synthetic_corpus(h, args.n_test, int(syn[1].generate_state(1)[0]))
    encoder = EncoderConfig(vocab_buckets=args.vocab_buckets, d=args.d,
                            heads=args.heads, max_tokens=args.max_tokens)
    cfg = ModelConfig(encoder=encoder, head_hidden=args.head_hidden)
    model = init_model(np.random.default_rng(seeds["init"]), h, cfg)
    schedule = TrainConfig(epochs=args.epochs, batch_size=args.batch_size,
                           lr=args.lr, seed=seeds["train"],
                           early_stop_f1=args.early_stop_f1)
    return h, train_corpus, test_corpus, model, cfg, schedule, seeds


def hmcl_config(args, seed: int) -> HmclConfig:
    return HmclConfig(strategy=args.strategy,
                      contrastive_alpha=args.alpha,
                      repeats_per_level=tuple(args.repeats),
                      batch_size=args.pretrain_batch_size,
                      lr=args.pretrain_lr,
                      max_batches=args.pretrain_batches,
                      epochs=args.pretrain_epochs,
                      seed=seed)


def mode_train(args) -> None:
    for seed in args.seeds:
        _, train_corpus, test_corpus, model, _, schedule, _ = build(args, seed)
        loss_cfg = LossConfig(lambda_reg=args.lambda_reg)
        t0 = time.perf_counter()
        history = train(train_corpus, model, schedule, loss_cfg)
        wall = time.perf_counter() - t0
        report, violations = evaluate(test_corpus, model, loss_cfg)["raw"]
        emit({
            "mode": "train", "seed": seed, "epochs_run": len(history),
            "wall_s": round(wall, 2),
            "s_per_epoch": round(wall / max(len(history), 1), 2),
            "train_f1": [round(s.micro_f1, 4) for s in history],
            "loss": [round(s.loss, 4) for s in history],
            "test_micro_f1": round(report.micro_f1, 4),
            "test_macro_f1": round(report.macro_f1, 4),
            "test_violations": violations,
        })


def mode_pretrain_compare(args) -> None:
    for seed in args.seeds:
        _, train_corpus, test_corpus, model, cfg, schedule, seeds = build(args, seed)
        loss_cfg = LossConfig(lambda_reg=args.lambda_reg)
        t0 = time.perf_counter()
        plain_history = train(train_corpus, model, schedule, loss_cfg)
        plain_wall = time.perf_counter() - t0
        plain_report, _ = evaluate(test_corpus, model, loss_cfg)["raw"]

        _, train_corpus, test_corpus, model, cfg, schedule, seeds = build(args, seed)
        t0 = time.perf_counter()
        result = pretrain(train_corpus, model, hmcl_config(args, seeds["pretrain"]))
        pre_wall = time.perf_counter() - t0
        t0 = time.perf_counter()
        pre_history = train(train_corpus, model, schedule, loss_cfg)
        pre_train_wall = time.perf_counter() - t0
        pre_report, _ = evaluate(test_corpus, model, loss_cfg)["raw"]
        emit({
            "mode": "pretrain-compare", "seed": seed,
            "strategy": args.strategy,
            "plain_test_f1": round(plain_report.micro_f1, 4),
            "pretrained_test_f1": round(pre_report.micro_f1, 4),
            "plain_final_train_f1": round(plain_history[-1].micro_f1, 4),
            "pre_final_train_f1": round(pre_history[-1].micro_f1, 4),
            "alignment_before": round(result.before.alignment, 4),
            "alignment_after": round(result.after.alignment, 4),
            "uniformity_before": round(result.before.uniformity, 4),
            "uniformity_after": round(result.after.uniformity, 4),
            "pretrain_steps": len(result.batch_losses),
            "objective_first": round(result.batch_losses[0], 4) if result.batch_losses else None,
            "objective_last": round(result.batch_losses[-1], 4) if result.batch_losses else None,
            "wall_plain_s": round(plain_wall, 2),
            "wall_pretrain_s": round(pre_wall, 2),
            "wall_pretrained_train_s": round(pre_train_wall, 2),
        })


def mode_lambda_compare(args) -> None:
    for seed in args.seeds:
        results = {}
        for lam in (1.0, 0.0):
            _, train_corpus, test_corpus, model, _, schedule, _ = build(args, seed)
            loss_cfg = LossConfig(lambda_reg=lam)
            t0 = time.perf_counter()
            train(train_corpus, model, schedule, loss_cfg)
            wall = time.perf_counter() - t0
            report, violations = evaluate(test_corpus, model, loss_cfg)["raw"]
            results[lam] = (violations, report.micro_f1, wall)
        emit({
            "mode": "lambda-compare", "seed": seed,
            "violations_lambda1": results[1.0][0],
            "violations_lambda0": results[0.0][0],
            "test_f1_lambda1": round(results[1.0][1], 4),
            "test_f1_lambda0": round(results[0.0][1], 4),
            "wall_s": round(results[1.0][2] + results[0.0][2], 2),
        })


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("mode", choices=("train", "pretrain-compare", "lambda-compare"))
    p.add_argument("--n-train", type=int, default=2000)
    p.add_argument("--n-test", type=int, default=500)
    p.add_argument("--seeds", type=int, nargs="+", default=[0])
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--batch-size", type=int, default=8)
    p.add_argument("--lr", type=float, default=5e-3)
    p.add_argument("--early-stop-f1", type=float, default=None)
    p.add_argument("--lambda-reg", type=float, default=1.0)
    p.add_argument("--d", type=int, default=16)
    p.add_argument("--heads", type=int, default=2)
    p.add_argument("--vocab-buckets", type=int, default=4096)
    p.add_argument("--max-tokens", type=int, default=16)
    p.add_argument("--head-hidden", type=int, default=32)
    p.add_argument("--strategy", choices=("all", "level", "sibling"), default="sibling")
    p.add_argument("--repeats", type=int, nargs="+", default=[10, 20, 50])
    p.add_argument("--pretrain-batches", type=int, default=None)
    p.add_argument("--pretrain-epochs", type=int, default=1)
    p.add_argument("--pretrain-batch-size", type=int, default=8)
    p.add_argument("--pretrain-lr", type=float, default=1e-5)
    p.add_argument("--alpha", type=float, default=0.1)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    {"train": mode_train,
     "pretrain-compare": mode_pretrain_compare,
     "lambda-compare": mode_lambda_compare}[args.mode](args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
