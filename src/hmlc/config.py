"""Run configuration: an INI file plus command-line overrides.

The effective configuration is serialized to canonical JSON (sorted keys) and
hashed; checkpoints carry the hash of the *structural* scope they depend on
(hierarchy, encoder/model dimensions, precision) so a checkpoint written
under one architecture refuses to load into another.
"""

from __future__ import annotations

import configparser
import dataclasses
import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .contrastive import HmclConfig
from .encoder import EncoderConfig
from .model import LossConfig, ModelConfig, TrainConfig

PRECISIONS = ("f32", "f64")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    hierarchy_path: str
    train_path: str | None
    val_path: str | None
    test_path: str | None
    encoder: EncoderConfig
    model: ModelConfig
    loss: LossConfig
    train: TrainConfig
    hmcl: HmclConfig
    seed: int
    precision: str = "f32"
    out: str | None = None
    precision_given: bool = False  # set by a flag or the INI; not in effective_dict


def component_seeds(seed: int) -> dict[str, int]:
    """Independent per-component streams derived from the single run seed."""
    names = ("init", "train", "pretrain", "synthetic")
    children = np.random.SeedSequence(seed).spawn(len(names))
    return {n: int(c.generate_state(1)[0]) for n, c in zip(names, children)}


def _take(section, key: str, cast, default):
    raw = section.get(key)
    if raw is None or raw.strip() == "":
        return default
    try:
        return cast(raw.strip())
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad value for {key!r}: {raw!r} ({e})") from e


def _csv_names(raw: str) -> tuple[str, ...]:
    parts = tuple(p.strip() for p in raw.split(",") if p.strip())
    if not parts:
        raise ValueError("empty list")
    return parts


def _csv_ints(raw: str) -> tuple[int, ...]:
    return tuple(int(p.strip()) for p in raw.split(",") if p.strip())


def load_run_config(path, overrides: dict | None = None) -> RunConfig:
    """Parse the INI file; ``overrides`` may carry seed/out/strategy/precision
    values from command-line flags, which win over the file."""
    try:
        return _load_run_config(path, overrides or {})
    except configparser.Error as e:  # duplicate sections or options, bad syntax or %
        raise ConfigError(f"{path}: {e}") from e


def _load_run_config(path, overrides: dict) -> RunConfig:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise FileNotFoundError(f"config file not found: {path}")

    paths = parser["paths"] if parser.has_section("paths") else {}
    hierarchy_path = _take(paths, "hierarchy", str, None)
    if hierarchy_path is None:
        raise ConfigError("config is missing [paths] hierarchy")

    enc = parser["encoder"] if parser.has_section("encoder") else {}
    encoder = EncoderConfig(
        vocab_buckets=_take(enc, "vocab_buckets", int, 4096),
        d=_take(enc, "d", int, 16),
        heads=_take(enc, "heads", int, 2),
        max_tokens=_take(enc, "max_tokens", int, 16),
        fields=_take(enc, "fields", _csv_names, EncoderConfig().fields),
    )

    mod = parser["model"] if parser.has_section("model") else {}
    model = ModelConfig(
        encoder=encoder,
        head_hidden=_take(mod, "head_hidden", int, 32),
        cross_heads=_take(mod, "cross_heads", int, 2),
    )

    los = parser["loss"] if parser.has_section("loss") else {}
    loss = LossConfig(
        focal_alpha=_take(los, "focal_alpha", float, 0.25),
        focal_gamma=_take(los, "focal_gamma", float, 2.0),
        lambda_reg=_take(los, "lambda_reg", float, 1.0),
        threshold=_take(los, "threshold", float, 0.5),
    )

    run = parser["run"] if parser.has_section("run") else {}
    seed = overrides.get("seed")
    if seed is None:
        seed = _take(run, "seed", int, None)
    if seed is None:
        raise ConfigError("seed is mandatory: set [run] seed or pass --seed")
    given = overrides.get("precision") or _take(run, "precision", str, None)
    precision = given or "f32"
    if precision not in PRECISIONS:
        raise ConfigError(f"precision must be one of {PRECISIONS}, got {precision!r}")
    out = overrides.get("out") or _take(run, "out", str, None)

    seeds = component_seeds(seed)

    tr = parser["train"] if parser.has_section("train") else {}
    train = TrainConfig(
        epochs=_take(tr, "epochs", int, 20),
        batch_size=_take(tr, "batch_size", int, 8),
        lr=_take(tr, "lr", float, 5e-3),
        lr_decay=_take(tr, "lr_decay", float, 0.8),
        decay_every_epochs=_take(tr, "decay_every_epochs", int, 2),
        seed=seeds["train"],
        early_stop_f1=_take(tr, "early_stop_f1", float, None),
    )

    hm = parser["hmcl"] if parser.has_section("hmcl") else {}
    hmcl = HmclConfig(
        strategy=overrides.get("strategy") or _take(hm, "strategy", str, "sibling"),
        contrastive_alpha=_take(hm, "contrastive_alpha", float, 0.1),
        repeats_per_level=_take(hm, "repeats_per_level", _csv_ints, (10, 20, 50)),
        batch_size=_take(hm, "batch_size", int, 8),
        lr=_take(hm, "lr", float, 1e-5),
        lr_decay=_take(hm, "lr_decay", float, 0.8),
        decay_every_batches=_take(hm, "decay_every_batches", int, 4000),
        epochs=_take(hm, "epochs", int, 1),
        max_batches=_take(hm, "max_batches", int, None),
        proj_hidden=_take(hm, "proj_hidden", int, 32),
        proj_dim=_take(hm, "proj_dim", int, 16),
        seed=seeds["pretrain"],
    )

    return RunConfig(
        hierarchy_path=hierarchy_path,
        train_path=_take(paths, "train", str, None),
        val_path=_take(paths, "val", str, None),
        test_path=_take(paths, "test", str, None),
        encoder=encoder,
        model=model,
        loss=loss,
        train=train,
        hmcl=hmcl,
        seed=seed,
        precision=precision,
        out=out,
        precision_given=given is not None,
    )


def effective_dict(cfg: RunConfig) -> dict:
    d = dataclasses.asdict(cfg)
    d["model"].pop("encoder")  # nested duplicate of the top-level encoder block
    d.pop("precision_given")
    return d


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(canonical_json(effective_dict(cfg)).encode("utf-8")).hexdigest()


def encoder_scope(hierarchy_edges: list[list[str]], encoder: EncoderConfig,
                  precision: str) -> dict:
    return {
        "hierarchy": hierarchy_edges,
        "encoder": dataclasses.asdict(encoder),
        "precision": precision,
    }


def model_scope(hierarchy_edges: list[list[str]], model: ModelConfig,
                precision: str) -> dict:
    scope = encoder_scope(hierarchy_edges, model.encoder, precision)
    scope["model"] = {"head_hidden": model.head_hidden, "cross_heads": model.cross_heads}
    return scope


def scope_hash(scope: dict) -> str:
    return hashlib.sha256(canonical_json(scope).encode("utf-8")).hexdigest()
