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
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict
from itertools import compress
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
from .contrastive import HmclConfig, pretrain
from .corpus import (Corpus, CorpusError, MalformedLine, Record, load_corpus, parse_line,
                     write_corpus)
from .encoder import EncoderConfig, token_ids
from .hierarchy import HierarchyError, LabelHierarchy, load_hierarchy, parse_hierarchy, repair_bits
from .metrics import MetricsError, ks_statistic
from .model import (
    HmcnModel,
    LossConfig,
    ModelConfig,
    evaluate,
    init_model,
    score_ids,
    train,
)
from .sampling import (
    STRATEGIES,
    audit_instance_draws,
    audit_label_draws,
    write_audit_csv,
)
from .synthetic import demo_hierarchy, make_synthetic_corpus

EXIT_OK = 0
EXIT_NUMERIC = 1
EXIT_INPUT = 2
EXIT_MISMATCH = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

log = logging.getLogger("hmlc")


def _out_dir(path: str | None) -> Path | None:
    if path is None:
        return None
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:  # a file in the way: the path itself, or one of its parents
        raise ConfigError(f"--out {path}: {e.strerror}") from e
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
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        log.info("numpy %s, BLAS %s %s, threads %s", np.__version__, blas.get("name"),
                 blas.get("version"), {v: os.environ.get(v) for v in BLAS_THREAD_VARS})
        yield
    finally:
        root.removeHandler(handler)
        handler.close()


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _report(out: Path | None, name: str, payload) -> None:
    """A command's JSON result: written to ``out/name``, or printed without ``--out``."""
    if out is not None:
        _write_json(out / name, payload)
    else:
        print(json.dumps(payload, sort_keys=True))


def _require(ok: bool, flag: str, rule: str, value) -> None:
    if not ok:  # an input error that names the flag, not a traceback
        raise ConfigError(f"{flag} must be {rule}, got {value}")


def _write_config(out: Path, cfg: RunConfig) -> None:
    _write_json(out / "config.json", {"config": effective_dict(cfg), "hash": config_hash(cfg)})


def _load_inputs(cfg: RunConfig, split: str = "train",
                 repair: bool = False) -> tuple[LabelHierarchy, Corpus]:
    h = load_hierarchy(cfg.hierarchy_path)
    path = {"train": cfg.train_path, "val": cfg.val_path, "test": cfg.test_path}[split]
    if path is None:
        raise ConfigError(f"config does not name a {split} corpus")
    corpus = load_corpus(path, h, fields=cfg.model.encoder.fields, repair=repair)
    if not corpus.records:
        raise CorpusError(f"{path}: no records")
    return h, corpus


def _build_model(cfg: RunConfig, h: LabelHierarchy) -> HmcnModel:
    if cfg.seed is None:
        raise ConfigError("seed is mandatory: set [run] seed")
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


def _load_kind(path, kind: str) -> tuple[dict, dict]:
    """``load_checkpoint`` of a ``kind`` ("model" or "encoder") checkpoint that
    records its scope."""
    arrays, header = load_checkpoint(path)
    meta = header.get("meta")
    if not (isinstance(meta, dict) and meta.get("kind") == kind
            and isinstance(meta.get("scope"), dict)):
        raise CheckpointError(f"{path}: not {'an' if kind == 'encoder' else 'a'} {kind} checkpoint")
    return arrays, header


def _load_under(path, kind: str, cfg: RunConfig, model: HmcnModel) -> None:
    """Load the ``kind`` checkpoint at ``path`` into ``model``, built from
    ``cfg``: the whole model, or its encoder. The checkpoint's stored scope
    must equal the config's, so its hierarchy, encoder and model settings and
    precision all match."""
    edges = model.hierarchy.canonical_edges()
    if kind == "encoder":
        scope = encoder_scope(edges, cfg.model.encoder, cfg.precision)
        params = model.encoder.named("encoder")
    else:
        scope, params = model_scope(edges, cfg.model, cfg.precision), model.named()
    arrays, header = _load_kind(path, kind)
    stored, want = header["meta"]["scope"], json.loads(canonical_json(scope))
    differ = [k for k in {**want, **stored} if stored.get(k) != want.get(k)]
    if differ:
        raise ConfigHashMismatch(f"{path}: the config's {' and '.join(differ)} "
                                 f"differ{'s' * (len(differ) == 1)} from the checkpoint's")
    _assign_arrays(params, arrays, path)


def _restore_model(ckpt_path) -> tuple[HmcnModel, dict]:
    """Rebuild a model purely from a checkpoint's stored scope, at the
    precision it was trained at."""
    arrays, header = _load_kind(ckpt_path, "model")
    scope = header["meta"]["scope"]
    try:
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


def cmd_gen_synthetic(args, out: Path) -> int:
    sizes = {"train": args.n_train, "val": args.n_val, "test": args.n_test}
    for name, n in sizes.items():
        _require(n >= 0, f"--n-{name}", ">= 0", n)
    h = load_hierarchy(args.hierarchy) if args.hierarchy else demo_hierarchy()
    hier_path = out / "hierarchy.tsv"
    hier_path.write_text("".join(f"{p}\t{c}\n" for p, c in h.canonical_edges()))
    split_seeds = [int(s.generate_state(1)[0]) for s in
                   np.random.SeedSequence(component_seeds(args.seed)["synthetic"]).spawn(3)]
    manifest = {"seed": args.seed, "hierarchy": hier_path.name, "splits": {}}
    for (name, n), seed in zip(sizes.items(), split_seeds):
        if n <= 0:
            continue
        corpus = make_synthetic_corpus(h, n, seed)
        write_corpus(out / f"{name}.jsonl", corpus)
        manifest["splits"][name] = {"file": f"{name}.jsonl", "n": n, "seed": seed}
    _write_json(out / "manifest.json", manifest)
    log.info("generated synthetic corpus into %s", out)
    return EXIT_OK


def cmd_pretrain(args, out: Path | None) -> int:
    cfg = load_run_config(args.config)
    ad.set_default_dtype(cfg.precision)
    h, corpus = _load_inputs(cfg, "train", repair=args.repair)
    model = _build_model(cfg, h)
    result = pretrain(corpus, model, cfg.hmcl)
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
        scope = encoder_scope(h.canonical_edges(), cfg.model.encoder, cfg.precision)
        arrays = {k: v.data for k, v in model.encoder.named("encoder").items()}
        save_checkpoint(out / "encoder.ckpt", arrays, scope_hash(scope),
                        meta={"kind": "encoder", "scope": scope})
        (out / "pretrain_history.jsonl").write_text(
            "".join(s.to_json() + "\n" for s in result.history))
    _report(out, "pretrain_diagnostics.json", diagnostics)
    log.info("pretraining finished: %s", diagnostics)
    return EXIT_OK


def cmd_train(args, out: Path | None) -> int:
    cfg = load_run_config(args.config)
    ad.set_default_dtype(cfg.precision)
    h, corpus = _load_inputs(cfg, "train", repair=args.repair)
    model = _build_model(cfg, h)
    init_mode = "random"
    if args.init_checkpoint:
        _load_under(args.init_checkpoint, "encoder", cfg, model)
        init_mode = "pretrained"
    elif args.resume:
        _load_under(args.resume, "model", cfg, model)
        init_mode = "resume"
    history = train(corpus, model, cfg.train, cfg.loss)
    summary = {
        "init": init_mode,
        "config_hash": config_hash(cfg),
        "epochs_run": len(history),
        "final": asdict(history[-1]) if history else None,
    }
    if out is not None:
        _write_config(out, cfg)
        (out / "history.jsonl").write_text(
            "".join(s.to_json() + "\n" for s in history))
        scope = model_scope(h.canonical_edges(), cfg.model, cfg.precision)
        arrays = {k: v.data for k, v in model.named().items()}
        save_checkpoint(out / "model.ckpt", arrays, scope_hash(scope),
                        meta={"kind": "model", "scope": scope, "init": init_mode})
    _report(out, "summary.json", summary)
    log.info("training finished: %s", summary)
    return EXIT_OK


def cmd_eval(args, out: Path | None) -> int:
    cfg = load_run_config(args.config)
    ad.set_default_dtype(cfg.precision)
    h, corpus = _load_inputs(cfg, args.split, repair=args.repair)
    model = init_model(np.random.default_rng(0), h, cfg.model)  # weights from the checkpoint
    _load_under(args.checkpoint, "model", cfg, model)
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
    _report(out, "eval.json", payload)
    return EXIT_OK


def cmd_infer(args, out: Path | None) -> int:
    _require(0.0 < args.threshold < 1.0, "--threshold", "in (0, 1)", args.threshold)
    model, _header = _restore_model(args.checkpoint)
    h = model.hierarchy
    skipped = 0
    records = []  # one per line to score, in input order; their labels go unread
    for lineno, raw in enumerate(Path(args.input).read_bytes().splitlines(), start=1):
        try:
            parsed = parse_line(raw, model.cfg.encoder.fields)
        except MalformedLine as e:
            skipped += 1
            print(f"warning: skipped line {args.input}:{lineno}: {e}", file=sys.stderr)
            continue
        if parsed is not None:
            obj, fields = parsed
            records.append(Record(obj["id"], fields, np.zeros(h.m, dtype=np.uint8)))
    z = score_ids(*token_ids(records, model.cfg.encoder), model)
    bits = (z >= args.threshold).astype(np.uint8)
    if args.repair:
        bits = repair_bits(h, bits)
    # each line is json.dumps({"id", "labels", "scores"}, sort_keys=True): label
    # names quoted by json.dumps once, scores in sorted-name order, each written
    # as its repr, which is what json.dumps writes for a finite float
    quoted = [json.dumps(v) for v in h.labels]
    order = sorted(range(h.m), key=h.labels.__getitem__)
    line = ('{"id": %s, "labels": [%s], "scores": {'
            + ", ".join(quoted[i].replace("%", "%%") + ": %r" for i in order) + "}}\n")
    scores = z[:, order].tolist()
    text = "".join(line % (json.dumps(r.id), ", ".join(compress(quoted, row_bits)), *row_z)
                   for r, row_z, row_bits in zip(records, scores, bits.tolist()))
    if out is not None:
        (out / "predictions.jsonl").write_text(text)
    else:
        sys.stdout.write(text)
    if skipped and args.strict:
        print(f"error: {skipped} malformed input lines skipped", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK


def cmd_sample_audit(args, out: Path | None) -> int:
    _require(args.draws >= 1, "--draws", ">= 1", args.draws)
    h = load_hierarchy(args.hierarchy)
    counts = {"label": audit_label_draws(h, args.strategy, args.draws, args.seed)}
    if args.corpus:
        corpus = load_corpus(args.corpus, h, repair=args.repair)
        if not corpus.records:
            raise CorpusError(f"{args.corpus}: no records")
        counts["instance"] = audit_instance_draws(corpus, args.strategy, args.draws, args.seed)
    for stage, stage_counts in counts.items():
        if out is not None:
            write_audit_csv(out / f"{stage}_stage.csv", stage_counts, args.strategy, stage)
        else:
            for (v, u), n in sorted(stage_counts.items()):
                print(f"{args.strategy},{stage},{v},{u},{n}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring


# flags that several subcommands read; each subcommand names the ones it takes
_SHARED_FLAGS = {
    "--config": dict(help="INI run configuration"),
    "--seed": dict(type=int, help="seed of the generated corpus or of the draws"),
    "--out": dict(help="output directory for artifacts"),
    "--repair": dict(action="store_true", help="add missing ancestors to a loaded corpus's "
                     "labels; in infer, clear predicted labels under an inactive parent"),
}


def _add_shared(sp, *flags: str, required: tuple[str, ...] = ()) -> None:
    for flag in flags:
        sp.add_argument(flag, required=flag in required, **_SHARED_FLAGS[flag])


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hmlc",
        description="Hierarchical multilabel text classification with contrastive pretraining")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("pretrain", help="contrastive pretraining of the encoder")
    _add_shared(sp, "--config", "--out", "--repair", required=("--config",))
    sp.set_defaults(fn=cmd_pretrain)

    sp = sub.add_parser("train", help="train the classifier")
    _add_shared(sp, "--config", "--out", "--repair", required=("--config",))
    sp.add_argument("--init-checkpoint", help="encoder checkpoint from pretraining")
    sp.add_argument("--resume", help="model checkpoint to continue training from")
    sp.set_defaults(fn=cmd_train)

    sp = sub.add_parser("eval", help="evaluate a checkpoint on a corpus split")
    _add_shared(sp, "--config", "--out", "--repair", required=("--config",))
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--split", choices=("train", "val", "test"), default="test")
    sp.add_argument("--scores", help="JSON file {'pos': [...], 'neg': [...]} for a KS report")
    sp.set_defaults(fn=cmd_eval)

    sp = sub.add_parser("infer", help="read a record file whole, score every record in it "
                        "and write all their predictions at once")
    _add_shared(sp, "--out", "--repair")
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--input", required=True, help="line-delimited JSON records")
    sp.add_argument("--threshold", type=float, default=LossConfig.threshold)
    sp.add_argument("--strict", action="store_true",
                    help="exit nonzero when malformed lines were skipped")
    sp.set_defaults(fn=cmd_infer)

    sp = sub.add_parser("sample-audit", help="tabulate negative-sampling draw frequencies")
    _add_shared(sp, "--seed", "--out", "--repair", required=("--seed",))
    sp.add_argument("--strategy", choices=STRATEGIES, default=HmclConfig.strategy,
                    help="negative sampling strategy")
    sp.add_argument("--hierarchy", required=True, help="hierarchy file")
    sp.add_argument("--corpus", help="record file for the instance-stage audit")
    sp.add_argument("--draws", type=int, default=100_000,
                    help="label-stage draws per anchor label / minimum instance draws")
    sp.set_defaults(fn=cmd_sample_audit)

    sp = sub.add_parser("gen-synthetic", help="generate a synthetic corpus")
    _add_shared(sp, "--seed", "--out", required=("--seed", "--out"))
    sp.add_argument("--hierarchy", help="hierarchy file; a demo taxonomy is written if omitted")
    sp.add_argument("--n-train", type=int, default=2000)
    sp.add_argument("--n-val", type=int, default=0)
    sp.add_argument("--n-test", type=int, default=500)
    sp.set_defaults(fn=cmd_gen_synthetic)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        out = _out_dir(args.out)
        # a numpy overflow, invalid operation or division by zero fails the
        # command instead of going on with an inf or a NaN
        with _sidecar(out), np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.fn(args, out)
    except (ConfigHashMismatch, ad.ShapeMismatch) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_MISMATCH
    except (ad.NonFiniteValue, FloatingPointError) as e:  # NonFiniteLoss among them
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    # OSError: a path that cannot be opened, for whatever reason
    except (ConfigError, CheckpointError, CorpusError, HierarchyError, MetricsError,
            OSError, json.JSONDecodeError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
