"""Run configuration: an INI file.

The config dataclasses declare the INI keys (``SECTIONS``): each field of
``EncoderConfig``, ``ModelConfig``, ``LossConfig``, ``TrainConfig`` and
``HmclConfig`` is a key of its section, read by the field's annotation and
defaulted by the dataclass, except the fields the program sets. An unknown
section or key is an error.

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
import typing
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
    model: ModelConfig
    loss: LossConfig
    train: TrainConfig
    hmcl: HmclConfig
    seed: int | None = None  # only commands that build a model require it
    precision: str = "f32"

    def __post_init__(self):
        if self.precision not in PRECISIONS:
            raise ConfigError(f"precision must be one of {PRECISIONS}, got {self.precision!r}")


def component_seeds(seed: int) -> dict[str, int]:
    """Independent per-component streams derived from the single run seed."""
    names = ("init", "train", "pretrain", "synthetic")
    children = np.random.SeedSequence(seed).spawn(len(names))
    return {n: int(c.generate_state(1)[0]) for n, c in zip(names, children)}


def _keys(cls, *code_set: str) -> dict[str, type]:
    """A key per field of the dataclass ``cls``, typed by its annotation,
    leaving out the fields the program sets."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls) if f.name not in code_set}


# every INI key by section, with the type its value is read as
SECTIONS = {
    "paths": dict.fromkeys(("hierarchy", "train", "val", "test"), str),
    "run": {"seed": int, "precision": str},
    "encoder": _keys(EncoderConfig),
    "model": _keys(ModelConfig, "encoder"),
    "loss": _keys(LossConfig),
    "train": _keys(TrainConfig, "seed"),
    "hmcl": _keys(HmclConfig, "seed"),
}


def _parse(kind, raw: str):
    """``raw`` read as a value of the annotation ``kind``: int, float, str, a
    comma list ``tuple[X, ...]`` or ``X | None``."""
    args = typing.get_args(kind)
    if type(None) in args:
        return _parse(args[0], raw)
    if typing.get_origin(kind) is tuple:
        items = tuple(args[0](p.strip()) for p in raw.split(",") if p.strip())
        if not items:
            raise ValueError("empty list")
        return items
    return kind(raw)


def _section(parser, name: str) -> dict:
    """The values of section ``name``. An empty or absent key is left out, so
    its field keeps the dataclass default."""
    section = parser[name] if parser.has_section(name) else {}
    values = {}
    for key, kind in SECTIONS[name].items():
        raw = (section.get(key) or "").strip()
        if raw:
            try:
                values[key] = _parse(kind, raw)
            except (TypeError, ValueError) as e:
                raise ConfigError(f"bad value for [{name}] {key}: {raw!r} ({e})") from e
    return values


def _check_keys(parser) -> None:
    defaults = parser.defaults().keys()  # [DEFAULT] keys fall back into every section
    unknown = [f"[DEFAULT] {key}" for key in defaults - set().union(*SECTIONS.values())]
    for name in parser.sections():
        if name not in SECTIONS:
            raise ConfigError(f"unknown section [{name}]")
        unknown += [f"[{name}] {key}"
                    for key in parser[name].keys() - defaults - SECTIONS[name].keys()]
    if unknown:
        raise ConfigError(f"unknown key {', '.join(sorted(unknown))}")


def load_run_config(path) -> RunConfig:
    """Parse the INI file at ``path``."""
    parser = configparser.ConfigParser()
    try:
        if not parser.read(path):
            raise FileNotFoundError(f"config file not found: {path}")
        _check_keys(parser)
        ini = {name: _section(parser, name) for name in SECTIONS}
    except configparser.Error as e:  # duplicate sections or options, bad syntax or %
        raise ConfigError(f"{path}: {e}") from e

    paths, run = ini["paths"], ini["run"]
    if "hierarchy" not in paths:
        raise ConfigError("config is missing [paths] hierarchy")
    if "seed" in run:
        seeds = component_seeds(run["seed"])
        ini["train"]["seed"], ini["hmcl"]["seed"] = seeds["train"], seeds["pretrain"]
    return RunConfig(
        **{f"{key}_path": paths.get(key) for key in SECTIONS["paths"]},
        model=ModelConfig(encoder=EncoderConfig(**ini["encoder"]), **ini["model"]),
        loss=LossConfig(**ini["loss"]),
        train=TrainConfig(**ini["train"]),
        hmcl=HmclConfig(**ini["hmcl"]),
        **run,
    )


def effective_dict(cfg: RunConfig) -> dict:
    d = dataclasses.asdict(cfg)
    d["encoder"] = d["model"].pop("encoder")  # its own block, as in the INI
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
    scope["model"] = dataclasses.asdict(model)
    scope["model"].pop("encoder")  # already the scope's "encoder"
    return scope


def scope_hash(scope: dict) -> str:
    return hashlib.sha256(canonical_json(scope).encode("utf-8")).hexdigest()
