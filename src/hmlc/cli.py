"""Command-line front end.

Subcommands: pretrain, train, eval, infer, sample-audit, gen-synthetic.
Every command is deterministic given (config, seed): artifacts are
byte-identical across repeated runs; wall-clock timestamps appear only in
the sidecar ``run.log``.

Exit codes: 0 success, 1 runtime numeric failure, 2 input/file error,
3 config/checkpoint mismatch.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .checkpoint import CheckpointError, ConfigHashMismatch, load_checkpoint, save_checkpoint
from .config import (
    ConfigError,
    RunConfig,
    canonical_json,
    component_seeds,
    config_hash,
    effective_dict,
    encoder_scope,
    load_run_config,
    model_scope,
    scope_hash,
)
from .contrastive import pretrain
from .corpus import Corpus, CorpusError, Record, field_texts, load_corpus, write_corpus
from .encoder import AllFieldsEmpty, EncoderConfig
from .hierarchy import HierarchyError, LabelHierarchy, load_hierarchy, parse_hierarchy, repair_bits
from .metrics import MetricsError, ks_statistic
from .model import (
    HmcnModel,
    LossConfig,
    ModelConfig,
    NonFiniteLoss,
    evaluate,
    forward,
    init_model,
    train,
)
from .sampling import (
    STRATEGIES,
    audit_instance_draws,
    audit_label_draws,
    write_audit_csv,
)
from .synthetic import DEMO_EDGES, make_synthetic_corpus

EXIT_OK = 0
EXIT_NUMERIC = 1
EXIT_INPUT = 2
EXIT_MISMATCH = 3

log = logging.getLogger("hmlc")


def _out_dir(path: str | None) -> Path | None:
    if path is None:
        return None
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


@contextmanager
def _sidecar(out: Path | None):
    """Timestamped log lines go to ``out/run.log`` while the block runs; the
    file stays out of the artifact set and is closed on the way out."""
    if out is None:
        yield
        return
    handler = logging.FileHandler(out / "run.log")
    handler.setFormatter(logging.Formatter("%(asctime)s %(levelname)s %(name)s: %(message)s"))
    root = logging.getLogger()
    root.addHandler(handler)
    root.setLevel(logging.INFO)
    try:
        yield
    finally:
        root.removeHandler(handler)
        handler.close()


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_config(out: Path | None, cfg: RunConfig) -> None:
    if out is not None:
        _write_json(out / "config.json",
                    {"config": effective_dict(cfg), "hash": config_hash(cfg)})


def _load_inputs(cfg: RunConfig, split: str = "train",
                 repair: bool = False) -> tuple[LabelHierarchy, Corpus]:
    h = load_hierarchy(cfg.hierarchy_path)
    path = {"train": cfg.train_path, "val": cfg.val_path, "test": cfg.test_path}[split]
    if path is None:
        raise ConfigError(f"config does not name a {split} corpus")
    return h, load_corpus(path, h, fields=cfg.encoder.fields, repair=repair)


def _build_model(cfg: RunConfig, h: LabelHierarchy) -> HmcnModel:
    rng = np.random.default_rng(component_seeds(cfg.seed)["init"])
    return init_model(rng, h, cfg.model)


def _assign_arrays(params: dict, arrays: dict, where: str) -> None:
    for name, arr in arrays.items():
        if name not in params:
            raise CheckpointError(f"{where}: unexpected parameter {name!r}")
        if tuple(params[name].data.shape) != tuple(arr.shape):
            raise ad.ShapeMismatch(
                f"{where}: parameter {name!r} has shape {arr.shape}, "
                f"model expects {params[name].data.shape}")
        params[name].data = arr.astype(ad.default_dtype(), copy=True)


def _restore_model(ckpt_path: str, precision: str | None = None) -> tuple[HmcnModel, dict]:
    """Rebuild a model purely from a checkpoint's stored scope. A model runs
    at the precision it was trained at: a requested ``precision`` that
    differs is a mismatch."""
    arrays, header = load_checkpoint(ckpt_path)
    try:
        scope = header["meta"].get("scope")
        if header["meta"].get("kind") != "model" or scope is None:
            raise CheckpointError(f"{ckpt_path}: not a model checkpoint")
        if precision is not None and precision != scope["precision"]:
            raise ConfigHashMismatch(f"{ckpt_path}: precision {precision} differs from the "
                                     f"checkpoint's precision {scope['precision']}")
        ad.set_default_dtype(scope["precision"])
        h = parse_hierarchy([tuple(e) for e in scope["hierarchy"]])
        enc = dict(scope["encoder"])
        enc["fields"] = tuple(enc["fields"])
        model_cfg = ModelConfig(encoder=EncoderConfig(**enc), **scope["model"])
    except (KeyError, TypeError, AttributeError) as e:  # a field missing or of the wrong type
        raise CheckpointError(f"{ckpt_path}: malformed model scope ({e!r})") from e
    model = init_model(np.random.default_rng(0), h, model_cfg)
    _assign_arrays(model.named(), arrays, ckpt_path)
    return model, header


# ---------------------------------------------------------------------------
# commands


def cmd_gen_synthetic(args) -> int:
    out = _out_dir(args.out)
    if out is None:
        raise ConfigError("gen-synthetic requires --out")
    with _sidecar(out):
        if args.hierarchy:
            h = load_hierarchy(args.hierarchy)
            edges = h.canonical_edges()
        else:
            edges = [list(e) for e in DEMO_EDGES]
            h = parse_hierarchy([tuple(e) for e in edges])
        hier_path = out / "hierarchy.tsv"
        hier_path.write_text("".join(f"{p}\t{c}\n" for p, c in edges))
        if args.seed is None:
            raise ConfigError("gen-synthetic requires --seed")
        split_seeds = [int(s.generate_state(1)[0]) for s in
                       np.random.SeedSequence(component_seeds(args.seed)["synthetic"]).spawn(3)]
        manifest = {"seed": args.seed, "hierarchy": hier_path.name, "splits": {}}
        for name, n, seed in (("train", args.n_train, split_seeds[0]),
                              ("val", args.n_val, split_seeds[1]),
                              ("test", args.n_test, split_seeds[2])):
            if n <= 0:
                continue
            corpus = make_synthetic_corpus(h, n, seed)
            write_corpus(out / f"{name}.jsonl", corpus)
            manifest["splits"][name] = {"file": f"{name}.jsonl", "n": n, "seed": seed}
        _write_json(out / "manifest.json", manifest)
        log.info("generated synthetic corpus into %s", out)
        return EXIT_OK


def cmd_pretrain(args) -> int:
    cfg = load_run_config(args.config, _overrides(args))
    ad.set_default_dtype(cfg.precision)
    out = _out_dir(args.out or cfg.out)
    with _sidecar(out):
        h, corpus = _load_inputs(cfg, "train", repair=args.repair)
        model = _build_model(cfg, h)
        result = pretrain(corpus, model, cfg.hmcl)
        scope = encoder_scope(h.canonical_edges(), cfg.encoder, cfg.precision)
        diagnostics = {
            "strategy": cfg.hmcl.strategy,
            "steps": len(result.history),
            "final_objective": result.history[-1].objective if result.history else None,
            "alignment_before": result.before.alignment,
            "alignment_after": result.after.alignment,
            "uniformity_before": result.before.uniformity,
            "uniformity_after": result.after.uniformity,
            "skipped_empty_space": result.skipped_empty_space,
            "skipped_unsatisfiable": result.skipped_unsatisfiable,
        }
        if out is not None:
            _write_config(out, cfg)
            arrays = {k: v.data for k, v in model.encoder.named("encoder").items()}
            save_checkpoint(out / "encoder.ckpt", arrays, scope_hash(scope),
                            meta={"kind": "encoder", "scope": scope})
            _write_json(out / "pretrain_diagnostics.json", diagnostics)
            (out / "pretrain_history.jsonl").write_text(
                "".join(s.to_json() + "\n" for s in result.history))
        else:
            print(json.dumps(diagnostics, sort_keys=True))
        log.info("pretraining finished: %s", diagnostics)
        return EXIT_OK


def cmd_train(args) -> int:
    cfg = load_run_config(args.config, _overrides(args))
    ad.set_default_dtype(cfg.precision)
    out = _out_dir(args.out or cfg.out)
    with _sidecar(out):
        h, corpus = _load_inputs(cfg, "train", repair=args.repair)
        model = _build_model(cfg, h)
        scope = model_scope(h.canonical_edges(), cfg.model, cfg.precision)
        init_mode = "random"
        if args.init_checkpoint:
            enc_scope = encoder_scope(h.canonical_edges(), cfg.encoder, cfg.precision)
            arrays, _ = load_checkpoint(args.init_checkpoint,
                                        expect_config_hash=scope_hash(enc_scope))
            _assign_arrays(model.encoder.named("encoder"), arrays, args.init_checkpoint)
            init_mode = "pretrained"
        elif args.resume:
            arrays, _ = load_checkpoint(args.resume,
                                        expect_config_hash=scope_hash(scope))
            _assign_arrays(model.named(), arrays, args.resume)
            init_mode = "resume"
        history = train(corpus, model, cfg.train, cfg.loss)
        summary = {
            "init": init_mode,
            "config_hash": config_hash(cfg),
            "epochs_run": len(history),
            "final": json.loads(history[-1].to_json()) if history else None,
        }
        if out is not None:
            _write_config(out, cfg)
            (out / "history.jsonl").write_text(
                "".join(s.to_json() + "\n" for s in history))
            arrays = {k: v.data for k, v in model.named().items()}
            save_checkpoint(out / "model.ckpt", arrays, scope_hash(scope),
                            meta={"kind": "model", "scope": scope, "init": init_mode})
            _write_json(out / "summary.json", summary)
        else:
            print(json.dumps(summary, sort_keys=True))
        log.info("training finished: %s", summary)
        return EXIT_OK


def cmd_eval(args) -> int:
    cfg = load_run_config(args.config, _overrides(args))
    model, _header = _restore_model(args.checkpoint, cfg.precision if cfg.precision_given else None)
    out = _out_dir(args.out or cfg.out)
    with _sidecar(out):
        h, corpus = _load_inputs(cfg, args.split, repair=args.repair)
        if h.canonical_edges() != model.hierarchy.canonical_edges():
            # same labels in another order would be scored on the wrong columns
            raise ConfigHashMismatch(
                f"{args.checkpoint}: the config's hierarchy differs from the checkpoint's")
        payload = {"split": args.split, "threshold": cfg.loss.threshold}
        for name, (report, violations) in evaluate(corpus, model, cfg.loss).items():
            payload[name] = {**report.to_dict(), "violations": violations}
        if args.scores:
            scores = json.loads(Path(args.scores).read_text())
            if not (isinstance(scores, dict) and all(
                    isinstance(scores.get(k), list)
                    and all(type(x) in (int, float) for x in scores[k]) for k in ("pos", "neg"))):
                raise MetricsError(f"{args.scores}: expected an object whose 'pos' and 'neg' "
                                   f"are lists of numbers")
            ks = ks_statistic(scores["pos"], scores["neg"])
            payload["ks"] = ks.to_dict()
        if out is not None:
            _write_json(out / "eval.json", payload)
        else:
            print(json.dumps(payload, sort_keys=True))
        return EXIT_OK


def cmd_infer(args) -> int:
    model, _header = _restore_model(args.checkpoint, args.precision)
    h = model.hierarchy
    loss_cfg = LossConfig(threshold=args.threshold)
    out = _out_dir(args.out)
    skipped = 0
    lines_out = []
    with _sidecar(out):
        with open(args.input, "r", encoding="utf-8") as f:
            for lineno, line in enumerate(f, start=1):
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                    if not isinstance(obj, dict):
                        raise TypeError("a record must be a JSON object")
                    fields = obj.get("fields", {})
                    if not isinstance(fields, dict):
                        raise TypeError("fields must be a JSON object")
                    rec = Record(
                        id=str(obj["id"]),
                        fields=field_texts(fields, model.cfg.encoder.fields),
                        labels=np.zeros(h.m, dtype=np.uint8),
                    )
                    pred = forward(rec, model)
                except (KeyError, ValueError, TypeError, AllFieldsEmpty) as e:
                    skipped += 1
                    print(f"warning: skipped line {lineno}: {e}", file=sys.stderr)
                    continue
                z = pred.z_final.data
                bits = (z >= loss_cfg.threshold).astype(np.uint8)
                if args.repair:
                    bits = repair_bits(h, bits)
                lines_out.append(json.dumps({
                    "id": rec.id,
                    "labels": [v for v in h.labels if bits[h.index[v]]],
                    "scores": {v: float(z[h.index[v]]) for v in h.labels},
                }, sort_keys=True))
        text = "".join(s + "\n" for s in lines_out)
        if out is not None:
            (out / "predictions.jsonl").write_text(text)
        else:
            sys.stdout.write(text)
        if skipped and args.strict:
            print(f"error: {skipped} malformed input lines skipped", file=sys.stderr)
            return EXIT_INPUT
        return EXIT_OK


def cmd_sample_audit(args) -> int:
    if args.config:
        cfg = load_run_config(args.config, _overrides(args))
        h = load_hierarchy(cfg.hierarchy_path)
        strategy = cfg.hmcl.strategy
        seed = cfg.seed
        corpus_path = args.corpus or cfg.train_path
        fields = cfg.encoder.fields
    else:
        if not args.hierarchy:
            raise ConfigError("sample-audit needs --config or --hierarchy")
        if args.seed is None:
            raise ConfigError("sample-audit requires --seed")
        h = load_hierarchy(args.hierarchy)
        strategy = args.strategy or "sibling"
        seed = args.seed
        corpus_path = args.corpus
        fields = EncoderConfig().fields
    if args.strategy:
        strategy = args.strategy
    out = _out_dir(args.out)
    with _sidecar(out):
        label_counts = audit_label_draws(h, strategy, args.draws, seed)
        if out is not None:
            write_audit_csv(out / "label_stage.csv", label_counts, strategy, stage="label")
        if corpus_path:
            corpus = load_corpus(corpus_path, h, fields=fields)
            inst_counts = audit_instance_draws(corpus, strategy, args.draws, seed)
            if out is not None:
                write_audit_csv(out / "instance_stage.csv", inst_counts, strategy,
                                stage="instance")
        if out is None:
            for (v, u), n in sorted(label_counts.items()):
                print(f"{strategy},label,{v},{u},{n}")
        return EXIT_OK


# ---------------------------------------------------------------------------
# wiring


def _overrides(args) -> dict:
    return {
        "seed": getattr(args, "seed", None),
        "out": getattr(args, "out", None),
        "strategy": getattr(args, "strategy", None),
        "precision": getattr(args, "precision", None),
    }


def _add_common(sp) -> None:
    sp.add_argument("--config", help="INI run configuration")
    sp.add_argument("--seed", type=int, help="run seed (mandatory here or in config)")
    sp.add_argument("--out", help="output directory for artifacts")
    sp.add_argument("--strategy", choices=STRATEGIES, help="negative sampling strategy")
    sp.add_argument("--repair", action="store_true",
                    help="activate ancestor repair on corpus load / prediction output")
    sp.add_argument("--precision", choices=("f32", "f64"), help="float width")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hmlc",
        description="Hierarchical multilabel text classification with contrastive pretraining")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("pretrain", help="contrastive pretraining of the encoder")
    _add_common(sp)
    sp.set_defaults(fn=cmd_pretrain, needs_config=True)

    sp = sub.add_parser("train", help="train the classifier")
    _add_common(sp)
    sp.add_argument("--init-checkpoint", help="encoder checkpoint from pretraining")
    sp.add_argument("--resume", help="model checkpoint to continue training from")
    sp.set_defaults(fn=cmd_train, needs_config=True)

    sp = sub.add_parser("eval", help="evaluate a checkpoint on a corpus split")
    _add_common(sp)
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--split", choices=("train", "val", "test"), default="test")
    sp.add_argument("--scores", help="JSON file {'pos': [...], 'neg': [...]} for a KS report")
    sp.set_defaults(fn=cmd_eval, needs_config=True)

    sp = sub.add_parser("infer", help="streaming inference over a record file")
    _add_common(sp)
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--input", required=True, help="line-delimited JSON records")
    sp.add_argument("--threshold", type=float, default=0.5)
    sp.add_argument("--strict", action="store_true",
                    help="exit nonzero when malformed lines were skipped")
    sp.set_defaults(fn=cmd_infer, needs_config=False)

    sp = sub.add_parser("sample-audit", help="tabulate negative-sampling draw frequencies")
    _add_common(sp)
    sp.add_argument("--hierarchy", help="hierarchy file (when no --config given)")
    sp.add_argument("--corpus", help="record file for the instance-stage audit")
    sp.add_argument("--draws", type=int, default=100_000,
                    help="label-stage draws per anchor label / minimum instance draws")
    sp.set_defaults(fn=cmd_sample_audit, needs_config=False)

    sp = sub.add_parser("gen-synthetic", help="generate a synthetic corpus")
    _add_common(sp)
    sp.add_argument("--hierarchy", help="hierarchy file; a demo taxonomy is written if omitted")
    sp.add_argument("--n-train", type=int, default=2000)
    sp.add_argument("--n-val", type=int, default=0)
    sp.add_argument("--n-test", type=int, default=500)
    sp.set_defaults(fn=cmd_gen_synthetic, needs_config=False)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.needs_config and not args.config:
        print("error: --config is required for this command", file=sys.stderr)
        return EXIT_INPUT
    try:
        return args.fn(args)
    except ConfigHashMismatch as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_MISMATCH
    except ad.ShapeMismatch as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_MISMATCH
    except (NonFiniteLoss, ad.NonFiniteValue) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ConfigError, CheckpointError, CorpusError, HierarchyError, MetricsError,
            FileNotFoundError, IsADirectoryError, json.JSONDecodeError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
