"""INI run configuration and scope hashing."""

from __future__ import annotations

import configparser
import json
import re
from pathlib import Path

import pytest

from hmlc.cli import _build_model
from hmlc.config import (
    SECTIONS,
    ConfigError,
    canonical_json,
    component_seeds,
    config_hash,
    effective_dict,
    encoder_scope,
    load_run_config,
    model_scope,
    scope_hash,
)
from hmlc.contrastive import HmclConfig
from hmlc.encoder import EncoderConfig
from hmlc.model import LossConfig, ModelConfig, TrainConfig
from hmlc.sampling import SamplingError

FULL_INI = """
[paths]
hierarchy = taxo.tsv
train = train.jsonl
val = val.jsonl
test = test.jsonl

[encoder]
vocab_buckets = 128
d = 8
heads = 2
max_tokens = 12
fields = name, description

[model]
head_hidden = 16
cross_heads = 2

[loss]
focal_alpha = 0.3
focal_gamma = 1.5
lambda_reg = 0.5
threshold = 0.4

[run]
seed = 7
precision = f64

[train]
epochs = 3
batch_size = 4
lr = 0.001
early_stop_f1 = 0.9

[hmcl]
strategy = level
contrastive_alpha = 0.2
repeats_per_level = 2, 3, 4
max_batches = 5
"""


def _write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_full_parse(tmp_path):
    cfg = load_run_config(_write(tmp_path, FULL_INI))
    assert cfg.hierarchy_path == "taxo.tsv"
    assert cfg.train_path == "train.jsonl"
    assert cfg.model.encoder == EncoderConfig(vocab_buckets=128, d=8, heads=2,
                                              max_tokens=12,
                                              fields=("name", "description"))
    assert cfg.model.head_hidden == 16
    assert cfg.loss.focal_alpha == 0.3
    assert cfg.loss.threshold == 0.4
    assert cfg.seed == 7
    assert cfg.precision == "f64"
    assert cfg.train.epochs == 3
    assert cfg.train.early_stop_f1 == 0.9
    assert cfg.hmcl.strategy == "level"
    assert cfg.hmcl.repeats_per_level == (2, 3, 4)
    assert cfg.hmcl.max_batches == 5


def test_defaults_fill_missing_sections(tmp_path):
    cfg = load_run_config(_write(tmp_path, "[paths]\nhierarchy = t.tsv\n"
                                           "[run]\nseed = 1\n"))
    assert cfg.model.encoder == EncoderConfig()
    assert cfg.loss.focal_alpha == 0.25
    assert cfg.train.epochs == 20
    assert cfg.hmcl.strategy == "sibling"
    assert cfg.hmcl.repeats_per_level == (10, 20, 50)
    assert cfg.precision == "f32"


def test_component_seeds_fill_train_and_pretrain(tmp_path):
    cfg = load_run_config(_write(tmp_path, "[paths]\nhierarchy = t.tsv\n"
                                           "[run]\nseed = 1\n"))
    seeds = component_seeds(1)
    assert cfg.train.seed == seeds["train"]
    assert cfg.hmcl.seed == seeds["pretrain"]


def test_seed_mandatory(tmp_path, demo):
    # mandatory where it is read, in building a model; eval loads without one
    path = _write(tmp_path, "[paths]\nhierarchy = t.tsv\n")
    cfg = load_run_config(path)
    assert cfg.seed is None
    with pytest.raises(ConfigError, match=r"seed is mandatory: set \[run\] seed$"):
        _build_model(cfg, demo)
    assert load_run_config(_write(tmp_path, "[paths]\nhierarchy = t.tsv\n"
                                            "[run]\nseed = 3\n")).seed == 3


def test_missing_hierarchy(tmp_path):
    with pytest.raises(ConfigError, match="hierarchy"):
        load_run_config(_write(tmp_path, "[run]\nseed = 1\n"))


def test_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_run_config(tmp_path / "absent.ini")


def test_bad_values(tmp_path):
    with pytest.raises(ConfigError, match="precision"):
        load_run_config(_write(tmp_path, "[paths]\nhierarchy = t.tsv\n"
                                         "[run]\nseed = 1\nprecision = f16\n"))
    with pytest.raises(ConfigError, match="epochs"):
        load_run_config(_write(tmp_path, "[paths]\nhierarchy = t.tsv\n"
                                         "[run]\nseed = 1\n"
                                         "[train]\nepochs = many\n"))
    for section, key in (("encoder", "fields"), ("hmcl", "repeats_per_level")):
        with pytest.raises(ConfigError, match=rf"\[{section}\] {key}"):
            load_run_config(_write(tmp_path, "[paths]\nhierarchy = t.tsv\n[run]\nseed = 1\n"
                                             f"[{section}]\n{key} = ,\n"))


def test_component_seeds_deterministic_and_distinct():
    a = component_seeds(42)
    b = component_seeds(42)
    c = component_seeds(43)
    assert a == b
    assert set(a) == {"init", "train", "pretrain", "synthetic"}
    assert len(set(a.values())) == 4
    assert a != c


def test_config_hash_deterministic_and_sensitive(tmp_path):
    p1 = _write(tmp_path, FULL_INI, "a.ini")
    p2 = _write(tmp_path, FULL_INI, "b.ini")
    h1 = config_hash(load_run_config(p1))
    h2 = config_hash(load_run_config(p2))
    assert h1 == h2
    bumped = load_run_config(_write(tmp_path, FULL_INI.replace("seed = 7", "seed = 8"), "c.ini"))
    assert config_hash(bumped) != h1
    # the encoder block is stored once, beside the model block, as in the INI
    d = effective_dict(load_run_config(p1))
    assert "encoder" not in d["model"] and d["encoder"]["d"] == 8


def test_canonical_json_is_sorted_and_compact():
    s = canonical_json({"b": 1, "a": {"d": 2, "c": 3}})
    assert s == '{"a":{"c":3,"d":2},"b":1}'
    assert json.loads(s) == {"a": {"c": 3, "d": 2}, "b": 1}


def test_scope_hashes_distinguish_encoder_from_model():
    edges = [["ROOT", "A"], ["A", "B"]]
    enc = EncoderConfig(vocab_buckets=32, d=8, heads=2)
    model = ModelConfig(encoder=enc, head_hidden=16, cross_heads=2)
    e_scope = encoder_scope(edges, enc, "f32")
    m_scope = model_scope(edges, model, "f32")
    assert scope_hash(e_scope) != scope_hash(m_scope)
    # checkpoints written before the scope was read off ModelConfig still load
    assert m_scope["model"] == {"head_hidden": 16, "cross_heads": 2}
    assert scope_hash(e_scope) == scope_hash(encoder_scope(edges, enc, "f32"))
    assert scope_hash(e_scope) != scope_hash(encoder_scope(edges, enc, "f64"))
    other = EncoderConfig(vocab_buckets=32, d=16, heads=2)
    assert scope_hash(encoder_scope(edges, other, "f32")) != scope_hash(e_scope)


MINIMAL_INI = "[paths]\nhierarchy = t.tsv\n[run]\nseed = 1\n"


def test_unknown_keys_are_all_named(tmp_path):
    with pytest.raises(ConfigError, match=r"unknown key \[train\] batchsize, \[train\] epoch$"):
        load_run_config(_write(tmp_path, MINIMAL_INI + "[train]\nepoch = 1\nbatchsize = 2\n"))
    with pytest.raises(ConfigError, match=r"unknown key \[model\] epochs"):
        load_run_config(_write(tmp_path, MINIMAL_INI + "[model]\nepochs = 1\n"))


@pytest.mark.parametrize("section,key", [
    ("train", "seed"), ("hmcl", "seed"), ("model", "encoder")])
def test_fields_the_program_sets_are_not_keys(tmp_path, section, key):
    with pytest.raises(ConfigError, match=rf"unknown key \[{section}\] {key}"):
        load_run_config(_write(tmp_path, MINIMAL_INI + f"[{section}]\n{key} = 1\n"))


def test_default_section_fills_the_sections_present(tmp_path):
    cfg = load_run_config(_write(tmp_path, "[DEFAULT]\nlr = 0.25\n" + MINIMAL_INI + "[train]\n"))
    assert cfg.train.lr == 0.25
    assert cfg.hmcl.lr == HmclConfig.lr  # no [hmcl] section to fall back into
    with pytest.raises(ConfigError, match=r"unknown key \[DEFAULT\] bogus"):
        load_run_config(_write(tmp_path, "[DEFAULT]\nbogus = 1\n" + MINIMAL_INI))


def test_invalid_strategy_fails_on_load(tmp_path):
    path = _write(tmp_path, MINIMAL_INI + "[hmcl]\nstrategy = nonsense\n")
    with pytest.raises(SamplingError, match="nonsense"):
        load_run_config(path)


def test_readme_example_loads_and_sets_every_key(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```ini\n(.*?)```", readme, re.S)
    cfg = load_run_config(_write(tmp_path, block))
    parser = configparser.ConfigParser()
    parser.read_string(block)
    assert {name: set(parser[name]) for name in parser.sections()} == \
        {name: set(keys) for name, keys in SECTIONS.items()}
    # the example shows the defaults
    seeds = component_seeds(cfg.seed)
    assert cfg.model.encoder == EncoderConfig()
    assert cfg.model == ModelConfig()
    assert cfg.loss == LossConfig()
    assert cfg.train == TrainConfig(seed=seeds["train"])
    assert cfg.hmcl == HmclConfig(seed=seeds["pretrain"])
    assert cfg.precision == "f32"
