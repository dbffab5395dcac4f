"""End-to-end command-line behavior on a small synthetic workspace."""

from __future__ import annotations

import argparse
import configparser
import contextlib
import csv
import io
import json
import logging
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hmlc import autodiff as ad
from hmlc import contrastive
from hmlc import model as hm
from hmlc.checkpoint import load_checkpoint, save_checkpoint
from hmlc.cli import EXIT_NUMERIC, _build_model, _restore_model, build_parser, main
from hmlc.config import load_run_config, model_scope, scope_hash
from hmlc.encoder import EncoderConfig, token_ids
from hmlc.hierarchy import ROOT, load_hierarchy, parse_hierarchy, repair_bits
from hmlc.corpus import MalformedLine, Record, load_corpus, parse_line
from hmlc.model import ModelConfig, init_model, predict_proba, total_loss, train

BASE_INI = """\
[paths]
hierarchy = {data}/hierarchy.tsv
train = {data}/train.jsonl
test = {data}/test.jsonl

[encoder]
vocab_buckets = 64
d = 8
heads = 2
max_tokens = 8

[model]
head_hidden = 8
cross_heads = 2

[run]
seed = 5
{run_extra}
[train]
epochs = {epochs}
batch_size = 8
lr = 0.005

[hmcl]
strategy = all
repeats_per_level = 1, 2, 2
batch_size = 4
lr = 0.001
max_batches = 3
proj_hidden = 8
proj_dim = 8
"""


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Generated data, a pretrained encoder, and two identical training runs."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert main(["gen-synthetic", "--out", str(data), "--seed", "5",
                 "--n-train", "48", "--n-val", "0", "--n-test", "16"]) == 0

    def write_ini(name, epochs=2, run_extra=""):
        path = root / name
        path.write_text(BASE_INI.format(data=data, epochs=epochs,
                                        run_extra=run_extra))
        return path

    ini = write_ini("run.ini")
    ini_quick = write_ini("quick.ini", epochs=1)
    ini_f64 = write_ini("f64.ini", epochs=1, run_extra="precision = f64\n")
    ini_wide = root / "wide.ini"
    ini_wide.write_text(BASE_INI.format(data=data, epochs=1, run_extra="")
                        .replace("d = 8", "d = 16"))

    pre = root / "pre"
    assert main(["pretrain", "--config", str(ini), "--out", str(pre)]) == 0
    tr1, tr1b = root / "tr1", root / "tr1b"
    for out in (tr1, tr1b):
        assert main(["train", "--config", str(ini), "--out", str(out),
                     "--init-checkpoint", str(pre / "encoder.ckpt")]) == 0
    return {"root": root, "data": data, "ini": ini, "ini_quick": ini_quick,
            "ini_f64": ini_f64, "ini_wide": ini_wide, "pre": pre,
            "tr1": tr1, "tr1b": tr1b}


# ------------------------------------------------------------ gen-synthetic


def test_gen_synthetic_artifacts(ws):
    data = ws["data"]
    h = load_hierarchy(data / "hierarchy.tsv")
    assert h.m == 10 and h.depth == 3
    manifest = json.loads((data / "manifest.json").read_text())
    assert manifest["seed"] == 5
    assert set(manifest["splits"]) == {"train", "test"}  # n-val 0 omitted
    assert manifest["splits"]["train"]["n"] == 48
    assert len((data / "train.jsonl").read_text().splitlines()) == 48
    assert len((data / "test.jsonl").read_text().splitlines()) == 16
    assert not (data / "val.jsonl").exists()
    corpus = load_corpus(data / "train.jsonl", h)
    assert len(corpus) == 48


def test_gen_synthetic_deterministic(ws, tmp_path):
    again = tmp_path / "again"
    assert main(["gen-synthetic", "--out", str(again), "--seed", "5",
                 "--n-train", "48", "--n-val", "0", "--n-test", "16"]) == 0
    for name in ("hierarchy.tsv", "train.jsonl", "test.jsonl", "manifest.json"):
        assert (again / name).read_bytes() == (ws["data"] / name).read_bytes()


def test_gen_synthetic_seed_changes_corpus(ws, tmp_path):
    other = tmp_path / "other"
    assert main(["gen-synthetic", "--out", str(other), "--seed", "6",
                 "--n-train", "48", "--n-val", "0", "--n-test", "16"]) == 0
    assert (other / "train.jsonl").read_bytes() != (ws["data"] / "train.jsonl").read_bytes()


def _rejected_by_argparse(argv, capsys) -> str:
    """Exit 2 from argparse, before any command runs; its stderr."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    return capsys.readouterr().err


def test_gen_synthetic_requires_seed(tmp_path, capsys):
    err = _rejected_by_argparse(["gen-synthetic", "--out", str(tmp_path / "x")], capsys)
    assert "the following arguments are required: --seed" in err
    assert not (tmp_path / "x").exists()


# ----------------------------------------------------------------- pretrain


def test_pretrain_artifacts(ws):
    pre = ws["pre"]
    diag = json.loads((pre / "pretrain_diagnostics.json").read_text())
    assert diag["strategy"] == "all"
    assert diag["steps"] == 3
    assert diag["final_objective"] >= 0.0
    for key in ("alignment_before", "alignment_after",
                "uniformity_before", "uniformity_after"):
        assert isinstance(diag[key], float)
    arrays, header = load_checkpoint(pre / "encoder.ckpt")
    assert header["meta"]["kind"] == "encoder"
    assert set(header["meta"]["scope"]) == {"hierarchy", "encoder", "precision"}
    assert all(name.startswith("encoder.") for name in arrays)
    config = json.loads((pre / "config.json").read_text())
    assert (pre / "run.log").exists()
    assert config["config"]["seed"] == 5


def test_pretrain_history_one_line_per_step(ws):
    pre = ws["pre"]
    diag = json.loads((pre / "pretrain_diagnostics.json").read_text())
    steps = [json.loads(line)
             for line in (pre / "pretrain_history.jsonl").read_text().splitlines()]
    assert len(steps) == diag["steps"]
    for number, step in enumerate(steps, start=1):
        assert set(step) == {"step", "objective", "lr",
                             "skipped_empty_space", "skipped_unsatisfiable"}
        assert step["step"] == number
        assert step["lr"] == 0.001
    assert steps[-1]["objective"] == diag["final_objective"]
    for key in ("skipped_empty_space", "skipped_unsatisfiable"):
        counts = [step[key] for step in steps]
        assert counts == sorted(counts) and counts[-1] <= diag[key]


def test_pretrain_dead_projection_head_exits_numeric(ws, tmp_path, monkeypatch, capsys):
    # every hidden ReLU of the head off: each record projects to the zero vector
    fresh = contrastive.init_projection

    def dead_head(rng, in_dim, hidden, out_dim):
        head = fresh(rng, in_dim, hidden, out_dim)
        head.mlp.weights[0].data[...] = 0.0
        head.mlp.biases[0].data[...] = -1.0
        return head

    monkeypatch.setattr(contrastive, "init_projection", dead_head)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["pretrain", "--config", str(ws["ini"]), "--out", str(tmp_path / "pre")])
    assert code == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "l2_normalize" in err and "zero norm" in err
    # the before-diagnostics project record 0 first; the message names it
    first = load_corpus(ws["data"] / "train.jsonl", load_hierarchy(ws["data"] / "hierarchy.tsv"))
    assert f"record 0 (id {first.records[0].id!r})" in err
    assert "Traceback" not in err


def test_pretrain_stdout_mode(ws, capsys):
    assert main(["pretrain", "--config", str(ws["ini"])]) == 0
    diag = json.loads(capsys.readouterr().out)
    assert diag["steps"] == 3


def test_pretrain_requires_config(capsys):
    assert "required: --config" in _rejected_by_argparse(["pretrain"], capsys)


# -------------------------------------------------------------------- train


def test_train_artifacts(ws):
    tr1 = ws["tr1"]
    summary = json.loads((tr1 / "summary.json").read_text())
    assert summary["init"] == "pretrained"
    assert summary["epochs_run"] == 2
    history = [json.loads(line) for line in
               (tr1 / "history.jsonl").read_text().splitlines()]
    assert len(history) == 2
    assert [h["epoch"] for h in history] == [1, 2]
    assert summary["final"] == history[-1]
    _, header = load_checkpoint(tr1 / "model.ckpt")
    assert header["meta"]["kind"] == "model"
    assert header["meta"]["init"] == "pretrained"
    assert set(header["meta"]["scope"]) == {
        "hierarchy", "encoder", "precision", "model"}


def test_train_byte_identical_reruns(ws):
    # one INI, two --out dirs: every artifact matches byte for byte, the config
    # and its hash too, since the output directory is no setting of the run
    # (config.json and the summary's hash once recorded it)
    artifacts = [{p.name: p.read_bytes() for p in out.iterdir() if p.name != "run.log"}
                 for out in (ws["tr1"], ws["tr1b"])]
    assert set(artifacts[0]) == {"config.json", "history.jsonl", "model.ckpt", "summary.json"}
    assert artifacts[0] == artifacts[1]
    assert "out" not in json.loads(artifacts[0]["config.json"])["config"]


def test_train_random_init(ws, tmp_path):
    out = tmp_path / "rand"
    assert main(["train", "--config", str(ws["ini_quick"]), "--out", str(out)]) == 0
    assert json.loads((out / "summary.json").read_text())["init"] == "random"


def test_train_f64_precision(ws, tmp_path):
    out = tmp_path / "wide"
    assert main(["train", "--config", str(ws["ini_f64"]), "--out", str(out)]) == 0
    _, header = load_checkpoint(out / "model.ckpt")
    assert {e["dtype"] for e in header["arrays"]} == {"<f8"}
    assert header["meta"]["scope"]["precision"] == "f64"


def test_init_checkpoint_scope_mismatch(ws, tmp_path, capsys):
    rc = main(["train", "--config", str(ws["ini_wide"]), "--out",
               str(tmp_path / "x"), "--init-checkpoint",
               str(ws["pre"] / "encoder.ckpt")])
    assert rc == 3
    assert "the config's encoder differs from the checkpoint's" in capsys.readouterr().err


def test_init_checkpoint_rejects_model_checkpoint(ws, tmp_path, capsys):
    # once read as a scope-hash mismatch (exit 3)
    rc = main(["train", "--config", str(ws["ini"]), "--out", str(tmp_path / "x"),
               "--init-checkpoint", str(ws["tr1"] / "model.ckpt")])
    assert rc == 2
    assert "not an encoder checkpoint" in capsys.readouterr().err
    assert not (tmp_path / "x" / "model.ckpt").exists()


def test_resume_precision_mismatch(ws, tmp_path):
    rc = main(["train", "--config", str(ws["ini_f64"]), "--out",
               str(tmp_path / "x"), "--resume", str(ws["tr1"] / "model.ckpt")])
    assert rc == 3


def test_resume_runs(ws, tmp_path):
    out = tmp_path / "resumed"
    assert main(["train", "--config", str(ws["ini_quick"]), "--out", str(out),
                 "--resume", str(ws["tr1"] / "model.ckpt")]) == 0
    assert json.loads((out / "summary.json").read_text())["init"] == "resume"


def test_checkpoint_restores_training_state(ws):
    # retrace the CLI run in process and compare against the restored model
    cfg = load_run_config(ws["ini"])
    ad.set_default_dtype(cfg.precision)
    h = load_hierarchy(cfg.hierarchy_path)
    corpus = load_corpus(cfg.train_path, h, fields=cfg.model.encoder.fields)
    model = _build_model(cfg, h)
    enc_arrays, _ = load_checkpoint(ws["pre"] / "encoder.ckpt")
    for name, arr in enc_arrays.items():
        model.encoder.named("encoder")[name].data = arr.astype(ad.default_dtype())
    train(corpus, model, cfg.train, cfg.loss)

    restored, _ = _restore_model(ws["tr1"] / "model.ckpt")
    named = restored.named()
    for name, tensor in model.named().items():
        assert np.array_equal(tensor.data, named[name].data), name
    batch = list(corpus.records[:4])
    a = total_loss(batch, model, cfg.loss).item()
    b = total_loss(batch, restored, cfg.loss).item()
    assert abs(a - b) <= 1e-6


# --------------------------------------------------------------------- eval


def test_eval_artifacts(ws, tmp_path):
    out = tmp_path / "ev"
    assert main(["eval", "--config", str(ws["ini"]), "--checkpoint",
                 str(ws["tr1"] / "model.ckpt"), "--out", str(out)]) == 0
    payload = json.loads((out / "eval.json").read_text())
    assert payload["split"] == "test"
    assert payload["threshold"] == 0.5
    for block in ("raw", "repaired"):
        assert 0.0 <= payload[block]["micro_f1"] <= 1.0
        assert "violations" in payload[block]
    assert payload["repaired"]["violations"] == 0


def test_eval_scores_ks(ws, tmp_path, capsys):
    scores = tmp_path / "scores.json"
    scores.write_text(json.dumps({"pos": [0.9, 0.4], "neg": [0.6, 0.1]}))
    assert main(["eval", "--config", str(ws["ini"]), "--checkpoint",
                 str(ws["tr1"] / "model.ckpt"), "--split", "train",
                 "--scores", str(scores)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["split"] == "train"
    assert payload["ks"]["ks_exhaustive"] == pytest.approx(0.5)
    assert payload["ks"]["ks"] <= 0.5


@pytest.mark.parametrize("payload", [[0.9, 0.1], {"pos": [0.1]}, {"pos": [None], "neg": [0.1]}])
def test_eval_malformed_scores_exit_input(ws, tmp_path, capsys, payload):
    # a list once raised TypeError and a missing key KeyError, out of main
    scores = tmp_path / "scores.json"
    scores.write_text(json.dumps(payload))
    assert main(["eval", "--config", str(ws["ini"]), "--checkpoint",
                 str(ws["tr1"] / "model.ckpt"), "--scores", str(scores)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "lists of numbers" in err
    assert "Traceback" not in err


def test_eval_rejects_encoder_checkpoint(ws, capsys):
    rc = main(["eval", "--config", str(ws["ini"]), "--checkpoint",
               str(ws["pre"] / "encoder.ckpt")])
    assert rc == 2
    assert "not a model checkpoint" in capsys.readouterr().err


def _reordered_hierarchy_ini(ws, tmp_path):
    # the same taxonomy with its top-level edges declared in reverse order,
    # which reorders the label columns
    lines = (ws["data"] / "hierarchy.tsv").read_text().splitlines(keepends=True)
    top = [line for line in lines if line.startswith("ROOT\t")]
    assert len(top) > 1
    reordered = tmp_path / "hierarchy.tsv"
    reordered.write_text("".join(top[::-1] + [line for line in lines if line not in top]))
    ini = tmp_path / "reordered.ini"
    ini.write_text(ws["ini"].read_text().replace(
        str(ws["data"] / "hierarchy.tsv"), str(reordered)))
    return ini


def test_eval_rejects_reordered_hierarchy(ws, tmp_path, capsys):
    ini = _reordered_hierarchy_ini(ws, tmp_path)
    assert load_hierarchy(tmp_path / "hierarchy.tsv").labels != \
        load_hierarchy(ws["data"] / "hierarchy.tsv").labels
    rc = main(["eval", "--config", str(ini), "--checkpoint", str(ws["tr1"] / "model.ckpt")])
    assert rc == 3
    assert "hierarchy differs" in capsys.readouterr().err


def test_eval_precision_mismatch(ws, capsys):
    ckpt = str(ws["tr1"] / "model.ckpt")  # trained in f32
    assert main(["eval", "--config", str(ws["ini_f64"]), "--checkpoint", ckpt]) == 3
    assert "the config's precision differs" in capsys.readouterr().err
    assert main(["eval", "--config", str(ws["ini"]), "--checkpoint", ckpt]) == 0


def test_eval_config_precision_mismatch(ws, tmp_path, capsys):
    # trained in f32; an INI that names f32 loads it, one that names f64 does not
    ckpt = str(ws["tr1"] / "model.ckpt")
    for precision, code in (("f32", 0), ("f64", 3)):
        ini = _ini_with(ws, tmp_path / f"{precision}.ini", {("run", "precision"): precision})
        assert main(["eval", "--config", str(ini), "--checkpoint", ckpt,
                     "--out", str(tmp_path / precision)]) == code
    assert capsys.readouterr().err == \
        f"error: {ckpt}: the config's precision differs from the checkpoint's\n"
    assert (tmp_path / "f32" / "eval.json").exists()
    assert not (tmp_path / "f64" / "eval.json").exists()


def test_eval_config_precision_omitted_or_matching(ws, tmp_path, capsys):
    f64_run = tmp_path / "f64"
    assert main(["train", "--config", str(ws["ini_f64"]), "--out", str(f64_run)]) == 0
    ckpt = str(f64_run / "model.ckpt")
    # eval runs at the config's precision, f32 when the INI names none, as
    # train --resume does: an f64 checkpoint under it is a mismatch
    assert main(["eval", "--config", str(ws["ini"]), "--checkpoint", ckpt]) == 3
    assert "the config's precision differs" in capsys.readouterr().err
    out = tmp_path / "eval"
    assert main(["eval", "--config", str(ws["ini_f64"]), "--checkpoint", ckpt,
                 "--out", str(out)]) == 0
    assert (out / "eval.json").exists()


def test_eval_rejects_other_encoder_fields(ws, tmp_path, capsys):
    # the records were once parsed with the INI's fields and scored, exit 0
    ini = tmp_path / "fields.ini"
    ini.write_text(ws["ini"].read_text().replace("[encoder]\n", "[encoder]\nfields = name\n"))
    rc = main(["eval", "--config", str(ini), "--checkpoint", str(ws["tr1"] / "model.ckpt"),
               "--out", str(tmp_path / "ev")])
    assert rc == 3
    assert "the config's encoder differs from the checkpoint's" in capsys.readouterr().err
    assert not (tmp_path / "ev" / "eval.json").exists()


def test_only_commands_that_build_a_model_need_a_seed(ws, tmp_path, capsys):
    # eval once exited 2 without a seed, though its output never depended on one
    ini = tmp_path / "noseed.ini"
    ini.write_text(ws["ini_quick"].read_text().replace("seed = 5\n", ""))
    assert "seed" not in ini.read_text()
    ckpt = str(ws["tr1"] / "model.ckpt")
    for name, config in (("noseed", ini), ("seeded", ws["ini_quick"])):
        assert main(["eval", "--config", str(config), "--checkpoint", ckpt,
                     "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "noseed" / "eval.json").read_bytes() == \
        (tmp_path / "seeded" / "eval.json").read_bytes()
    assert main(["train", "--config", str(ini), "--out", str(tmp_path / "tr")]) == 2
    assert capsys.readouterr().err == "error: seed is mandatory: set [run] seed\n"


def test_sidecar_log_is_closed_and_detached(ws, tmp_path, monkeypatch):
    opened = []

    class RecordingHandler(logging.FileHandler):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            opened.append(self)

    monkeypatch.setattr(logging, "FileHandler", RecordingHandler)
    root = logging.getLogger()
    before = list(root.handlers)
    assert main(["gen-synthetic", "--out", str(tmp_path / "gen"), "--seed", "3",
                 "--n-train", "4", "--n-test", "0"]) == 0
    # a command that fails inside the sidecar block
    assert main(["eval", "--config", str(_reordered_hierarchy_ini(ws, tmp_path)),
                 "--checkpoint", str(ws["tr1"] / "model.ckpt"),
                 "--out", str(tmp_path / "ev")]) == 3
    assert root.handlers == before
    assert len(opened) == 2
    assert all(h.stream is None for h in opened)  # FileHandler.close() drops the stream


def test_out_in_the_way_of_a_file_exits_input(ws, tmp_path, capsys):
    # each once ended in a FileExistsError or NotADirectoryError traceback
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    for command, argv in (
            ("gen-synthetic", ["--seed", "1"]),
            ("train", ["--config", str(ws["ini_quick"])]),
            ("infer", ["--checkpoint", str(ws["tr1"] / "model.ckpt"),
                       "--input", str(ws["data"] / "test.jsonl")])):
        for out, reason in ((afile, "File exists"), (afile / "sub", "Not a directory")):
            assert main([command, *argv, "--out", str(out)]) == 2, (command, out)
            assert capsys.readouterr().err == f"error: --out {out}: {reason}\n"
    assert afile.read_text() == "kept\n"


# -------------------------------------------------------------------- infer


def test_infer_predictions(ws, tmp_path):
    out1, out2 = tmp_path / "inf1", tmp_path / "inf2"
    for out in (out1, out2):
        assert main(["infer", "--checkpoint", str(ws["tr1"] / "model.ckpt"),
                     "--input", str(ws["data"] / "test.jsonl"),
                     "--out", str(out)]) == 0
    lines = (out1 / "predictions.jsonl").read_text().splitlines()
    assert len(lines) == 16
    h = load_hierarchy(ws["data"] / "hierarchy.tsv")
    for line in lines:
        obj = json.loads(line)
        assert set(obj) == {"id", "labels", "scores"}
        assert set(obj["labels"]) <= set(h.labels)
        assert set(obj["scores"]) == set(h.labels)
        assert all(0.0 < s < 1.0 for s in obj["scores"].values())
        for v in obj["labels"]:
            assert obj["scores"][v] >= 0.5
    assert (out1 / "predictions.jsonl").read_bytes() == \
        (out2 / "predictions.jsonl").read_bytes()


def test_infer_reads_null_fields_as_the_corpus_does(ws, tmp_path):
    # infer once read a null field as the text "None"; load_corpus reads it as empty
    obj = json.loads((ws["data"] / "test.jsonl").read_text().splitlines()[0])
    obj["fields"]["comments"] = None
    src = tmp_path / "null.jsonl"
    src.write_text(json.dumps(obj) + "\n")
    out = tmp_path / "inf"
    ckpt = ws["tr1"] / "model.ckpt"
    assert main(["infer", "--checkpoint", str(ckpt), "--input", str(src),
                 "--out", str(out)]) == 0
    got = json.loads((out / "predictions.jsonl").read_text())["scores"]
    model, _ = _restore_model(ckpt)
    h = model.hierarchy
    record = load_corpus(src, h).records[0]
    assert record.fields["comments"] == ""
    want = predict_proba(record, model)
    assert got == {v: float(want[h.index[v]]) for v in h.labels}


def test_infer_precision_mismatch(ws, tmp_path, capsys):
    # infer runs at the checkpoint's precision; --precision could only mismatch it
    args = ["infer", "--checkpoint", str(ws["tr1"] / "model.ckpt"),
            "--input", str(ws["data"] / "test.jsonl")]
    err = _rejected_by_argparse(args + ["--out", str(tmp_path / "f64"), "--precision", "f64"],
                                capsys)
    assert "unrecognized arguments: --precision" in err
    assert not (tmp_path / "f64").exists()
    assert main(args + ["--out", str(tmp_path / "f32")]) == 0
    assert len((tmp_path / "f32" / "predictions.jsonl").read_text().splitlines()) == 16


def test_infer_threshold_monotonicity(ws, capsys):
    # lowering the threshold can only grow each record's label set
    by_threshold = {}
    for t in ("0.5", "0.01"):
        assert main(["infer", "--checkpoint", str(ws["tr1"] / "model.ckpt"),
                     "--input", str(ws["data"] / "test.jsonl"),
                     "--threshold", t]) == 0
        lines = capsys.readouterr().out.splitlines()
        by_threshold[t] = {
            obj["id"]: set(obj["labels"])
            for obj in map(json.loads, lines)
        }
    for rid, labels in by_threshold["0.5"].items():
        assert labels <= by_threshold["0.01"][rid]


def test_infer_invalid_threshold(ws, capsys):
    # each exits 2 naming the flag, not with the whole loss-config rule
    for value in ("0.0", "2", "nan", "-1", "inf"):
        rc = main(["infer", "--checkpoint", str(ws["tr1"] / "model.ckpt"),
                   "--input", str(ws["data"] / "test.jsonl"),
                   "--threshold", value])
        assert rc == 2, value
        err = capsys.readouterr().err
        assert "--threshold" in err and "focal_alpha" not in err, value


def test_gen_synthetic_negative_split_size_exits_input(tmp_path, capsys):
    # -3 once exited 0, writing the test split and the manifest but no train split
    for flag in ("--n-train", "--n-val", "--n-test"):
        out = tmp_path / flag
        assert main(["gen-synthetic", "--out", str(out), "--seed", "1", flag, "-3"]) == 2
        assert flag in capsys.readouterr().err
        assert not list(out.glob("*.jsonl")) and not (out / "manifest.json").exists()


def test_sample_audit_bad_draws_exits_input(ws, capsys):
    # -5 once exited 2 with numpy's "negative dimensions are not allowed"
    for value in ("-5", "0"):
        assert main(["sample-audit", "--hierarchy", str(ws["data"] / "hierarchy.tsv"),
                     "--seed", "2", "--draws", value]) == 2
        err = capsys.readouterr().err
        assert "--draws" in err and "negative dimensions" not in err


def test_infer_malformed_lines(ws, tmp_path, capsys):
    bad = tmp_path / "mixed.jsonl"
    bad.write_text("\n".join([
        json.dumps({"id": "ok", "fields": {"name": "alpha beta"}}),
        "{not json",
        json.dumps({"fields": {"name": "no id"}}),
        json.dumps({"id": "empty", "fields": {"name": "", "description": ""}}),
        json.dumps({"id": "nofields"}),
    ]) + "\n")
    out = tmp_path / "inf"
    assert main(["infer", "--checkpoint", str(ws["tr1"] / "model.ckpt"),
                 "--input", str(bad), "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert err.count("warning: skipped line") == 4
    lines = (out / "predictions.jsonl").read_text().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["id"] == "ok"

    rc = main(["infer", "--checkpoint", str(ws["tr1"] / "model.ckpt"),
               "--input", str(bad), "--out", str(out), "--strict"])
    assert rc == 2


def test_infer_skips_fields_that_are_not_objects(ws, tmp_path, capsys):
    bad = tmp_path / "fields.jsonl"
    bad.write_text("\n".join([
        json.dumps({"id": "list", "fields": ["alpha", "beta"]}),
        json.dumps({"id": "null", "fields": None}),
        json.dumps({"id": "string", "fields": "alpha beta"}),
        json.dumps(["not", "an", "object"]),
        json.dumps({"id": "ok", "fields": {"name": "alpha beta"}}),
    ]) + "\n")
    out = tmp_path / "inf"
    argv = ["infer", "--checkpoint", str(ws["tr1"] / "model.ckpt"),
            "--input", str(bad), "--out", str(out)]
    assert main(argv) == 0
    assert capsys.readouterr().err.count("warning: skipped line") == 4
    lines = (out / "predictions.jsonl").read_text().splitlines()
    assert [json.loads(line)["id"] for line in lines] == ["ok"]
    assert main(argv + ["--strict"]) == 2


def test_infer_skips_ids_that_are_not_strings(ws, tmp_path, capsys):
    # infer once wrote the ids "None" and "5" here; load_corpus rejects both
    bad = tmp_path / "ids.jsonl"
    bad.write_text("\n".join(json.dumps({"id": rid, "fields": {"name": "alpha beta"}})
                             for rid in (None, 5, "ok")) + "\n")
    out = tmp_path / "inf"
    argv = ["infer", "--checkpoint", str(ws["tr1"] / "model.ckpt"),
            "--input", str(bad), "--out", str(out)]
    assert main(argv) == 0
    assert capsys.readouterr().err.count("warning: skipped line") == 2
    lines = (out / "predictions.jsonl").read_text().splitlines()
    assert [json.loads(line)["id"] for line in lines] == ["ok"]
    assert main(argv + ["--strict"]) == 2


def test_infer_skips_a_line_that_is_not_utf8(ws, tmp_path, capsys):
    # one undecodable line once cost every other line: exit 2 and no predictions
    good = [json.dumps({"id": rid, "fields": {"name": "alpha beta"}}).encode() for rid in "ab"]
    src = tmp_path / "bytes.jsonl"
    src.write_bytes(good[0] + b"\n" + b'{"id": "c", "fields": {"name": "\xff"}}\n' + good[1] + b"\n")
    out = tmp_path / "inf"
    argv = ["infer", "--checkpoint", str(ws["tr1"] / "model.ckpt"), "--input", str(src),
            "--out", str(out)]
    assert main(argv) == 0
    err = capsys.readouterr().err
    assert err.count("warning: skipped line") == 1
    assert f"{src}:2: invalid UTF-8" in err
    lines = (out / "predictions.jsonl").read_text().splitlines()
    assert [json.loads(line)["id"] for line in lines] == ["a", "b"]
    assert main(argv + ["--strict"]) == 2


def test_infer_warnings_name_file_and_line(ws, tmp_path, capsys):
    src = tmp_path / "where.jsonl"
    src.write_text("\n".join([json.dumps({"id": "ok", "fields": {"name": "alpha"}}), "",
                              "{not json", json.dumps({"id": "x", "fields": {"name": "!!"}})]))
    assert main(["infer", "--checkpoint", str(ws["tr1"] / "model.ckpt"),
                 "--input", str(src)]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith(f"warning: skipped line {src}:3: invalid JSON")
    assert err[1] == f"warning: skipped line {src}:4: record has no non-empty field"


def test_infer_keeps_order_across_chunks(ws, tmp_path, capsys, monkeypatch):
    # chunks of 3 rows: lines are skipped inside the first two chunks and
    # between them, and every kept line is scored as predict_proba scores it
    monkeypatch.setattr(hm, "SCORE_CHUNK", 3)
    good = (ws["data"] / "test.jsonl").read_text().splitlines()[:9]
    bad = ["{not json", json.dumps({"id": "wordless", "fields": {"name": "!!"}}), ""]
    lines = good[:2] + bad[:1] + good[2:3] + bad[1:2] + good[3:4] + bad[2:] + good[4:]
    src = tmp_path / "mixed.jsonl"
    src.write_text("".join(line + "\n" for line in lines))
    out = tmp_path / "inf"
    ckpt = ws["tr1"] / "model.ckpt"
    assert main(["infer", "--checkpoint", str(ckpt), "--input", str(src),
                 "--out", str(out), "--repair"]) == 0
    assert capsys.readouterr().err.count("warning: skipped line") == 2
    preds = [json.loads(line) for line in (out / "predictions.jsonl").read_text().splitlines()]
    model, _ = _restore_model(ckpt)
    h = model.hierarchy
    records = load_corpus(ws["data"] / "test.jsonl", h).records[:9]
    assert [p["id"] for p in preds] == [r.id for r in records]
    for p, r in zip(preds, records):
        want = predict_proba(r, model)
        np.testing.assert_allclose([p["scores"][v] for v in h.labels], want, rtol=0, atol=1e-6)


def test_infer_with_no_line_to_score(ws, tmp_path, capsys, monkeypatch):
    # encode_ids raises on zero rows, so it must not be reached
    def no_rows(*args):
        raise AssertionError("encode_ids called")

    monkeypatch.setattr(hm, "encode_ids", no_rows)
    src = tmp_path / "bad.jsonl"
    src.write_text("{not json\n\n" + json.dumps({"id": "x", "fields": {"name": "?"}}) + "\n")
    out = tmp_path / "inf"
    argv = ["infer", "--checkpoint", str(ws["tr1"] / "model.ckpt"), "--input", str(src),
            "--out", str(out)]
    assert main(argv) == 0
    assert (out / "predictions.jsonl").read_text() == ""
    assert main(argv + ["--strict"]) == 2
    assert capsys.readouterr().err.count("warning: skipped line") == 4


def test_infer_ignores_labels(ws, tmp_path, capsys):
    # labels that load_corpus rejects (unknown, a child without its parent, not
    # a list) do not stop a line from being scored
    labels = [["Nowhere"], ["Finance-Loan"], "Finance", None]
    src = tmp_path / "labels.jsonl"
    src.write_text("".join(json.dumps({"id": f"r{i}", "fields": {"name": "alpha beta"},
                                       "labels": lab}) + "\n" for i, lab in enumerate(labels)))
    out = tmp_path / "inf"
    assert main(["infer", "--checkpoint", str(ws["tr1"] / "model.ckpt"), "--input", str(src),
                 "--out", str(out), "--strict"]) == 0
    assert "warning" not in capsys.readouterr().err
    preds = [json.loads(line) for line in (out / "predictions.jsonl").read_text().splitlines()]
    assert [p["id"] for p in preds] == ["r0", "r1", "r2", "r3"]
    assert len({json.dumps(p["scores"], sort_keys=True) for p in preds}) == 1


def _json_dumps_lines(h, records, z, bits) -> str:
    """hmlc infer's writer before it filled one precompiled line format: a
    json.dumps per line, keys sorted."""
    return "".join(json.dumps({
        "id": r.id,
        "labels": [v for v in h.labels if row_bits[h.index[v]]],
        "scores": {v: float(row_z[h.index[v]]) for v in h.labels},
    }, sort_keys=True) + "\n" for r, row_z, row_bits in zip(records, z, bits))


def _reference_predictions(ckpt, src, repair: bool, threshold: float = 0.5) -> str:
    """What hmlc infer writes for ``src``, through the json.dumps writer."""
    model, _ = _restore_model(ckpt)
    h = model.hierarchy
    records = []
    for raw in Path(src).read_bytes().splitlines():
        try:
            parsed = parse_line(raw, model.cfg.encoder.fields)
        except MalformedLine:
            continue
        if parsed is not None:
            records.append(Record(parsed[0]["id"], parsed[1], np.zeros(h.m, dtype=np.uint8)))
    z = hm.score_ids(*token_ids(records, model.cfg.encoder), model)
    bits = (z >= threshold).astype(np.uint8)
    return _json_dumps_lines(h, records, z, repair_bits(h, bits) if repair else bits)


@pytest.fixture(scope="module")
def f64_ckpt(ws):
    out = ws["root"] / "tr64"
    assert main(["train", "--config", str(ws["ini_f64"]), "--out", str(out)]) == 0
    return out / "model.ckpt"


@pytest.mark.parametrize("precision", ["f32", "f64"])
@pytest.mark.parametrize("repair", [False, True])
@pytest.mark.parametrize("to", ["out", "stdout"])
def test_infer_lines_match_the_json_dumps_writer(ws, f64_ckpt, tmp_path, capsys, precision,
                                                 repair, to):
    ckpt = {"f32": ws["tr1"] / "model.ckpt", "f64": f64_ckpt}[precision]
    src = ws["data"] / "test.jsonl"
    argv = ["infer", "--checkpoint", str(ckpt), "--input", str(src)] + ["--repair"] * repair
    capsys.readouterr()
    if to == "out":
        assert main(argv + ["--out", str(tmp_path / "inf")]) == 0
        got = (tmp_path / "inf" / "predictions.jsonl").read_bytes()
    else:
        assert main(argv) == 0
        got = capsys.readouterr().out.encode()
    want = _reference_predictions(ckpt, src, repair).encode()
    assert got == want
    assert len(want.splitlines()) == 16


# label names that JSON escapes or that a %-format would read as a directive,
# declared so that their sorted order differs from the hierarchy's
_ESCAPED_EDGES = [(ROOT, "zeta\"quote"), (ROOT, "back\\slash"), ("zeta\"quote", "ctl\x01\x1f"),
                  ("zeta\"quote", "ünï"), ("back\\slash", "line\u2028sep"),
                  ("ctl\x01\x1f", "100%"), ("line\u2028sep", "%r %s %%"), (ROOT, "tab\there")]


@pytest.fixture(scope="module")
def escaped_ckpt(tmp_path_factory):
    h = parse_hierarchy(_ESCAPED_EDGES)
    cfg = ModelConfig(encoder=EncoderConfig(vocab_buckets=64, d=8, heads=2, max_tokens=8),
                      head_hidden=8, cross_heads=2)
    model = init_model(np.random.default_rng(3), h, cfg)
    scope = model_scope(h.canonical_edges(), cfg, "f32")
    path = tmp_path_factory.mktemp("escaped") / "model.ckpt"
    save_checkpoint(path, {k: v.data for k, v in model.named().items()}, scope_hash(scope),
                    meta={"kind": "model", "scope": scope})
    return path


_ID = st.text(max_size=6) | st.sampled_from(["\ud800", 'q"u\\o\x00\u2028', "ünï", "%s"])


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(lines=st.lists(st.tuples(_ID, st.sampled_from(["alpha beta", "Gamma", "delta eps zeta"])),
                      max_size=5),
       repair=st.booleans())
@example(lines=[], repair=True)  # no line to score
def test_infer_escapes_ids_and_label_names_as_json_dumps(escaped_ckpt, tmp_path_factory, lines,
                                                         repair):
    src = tmp_path_factory.mktemp("escaped_infer") / "in.jsonl"
    src.write_text("{not json\n\n" + "".join(
        json.dumps({"id": rid, "fields": {"name": text}}) + "\n" for rid, text in lines))
    out = src.parent / "out"
    with contextlib.redirect_stderr(io.StringIO()):
        assert main(["infer", "--checkpoint", str(escaped_ckpt), "--input", str(src),
                     "--out", str(out)] + ["--repair"] * repair) == 0
    got = (out / "predictions.jsonl").read_bytes()
    assert got == _reference_predictions(escaped_ckpt, src, repair).encode()
    assert len(got.splitlines()) == len(lines)


_JSON = st.recursive(st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
                     lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(st.text(max_size=8), inner, max_size=3), max_leaves=6)
_INFER_LINE = st.one_of(
    st.fixed_dictionaries({"id": st.text(max_size=6) | _JSON, "fields": st.fixed_dictionaries(
        {}, optional={f: st.one_of(st.text(max_size=20), _JSON)
                      for f in ("name", "description", "comments", "other")})}),
    st.fixed_dictionaries({}, optional={"id": _JSON, "fields": _JSON}),
    _JSON,
).map(json.dumps) | st.text(max_size=20)


def _json_or_none(line):
    try:
        return json.loads(line)
    except ValueError:
        return None


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(lines=st.lists(_INFER_LINE, max_size=6), strict=st.booleans())
def test_fuzzed_infer_lines_predict_or_warn(ws, tmp_path_factory, lines, strict):
    # every non-blank line yields one prediction or one warning; exit 0, or 2
    # under --strict when a line was skipped; never a traceback
    lines = [line.replace("\n", " ").replace("\r", " ") for line in lines]
    root = tmp_path_factory.mktemp("infer_fuzz")
    src = root / "in.jsonl"
    src.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["infer", "--checkpoint", str(ws["tr1"] / "model.ckpt"), "--input", str(src),
                     "--out", str(root / "out")] + ["--strict"] * strict)
    predicted = [json.loads(line)["id"]
                 for line in (root / "out" / "predictions.jsonl").read_text().splitlines()]
    warned = err.getvalue().count("warning: skipped line")
    assert len(predicted) + warned == sum(bool(line.strip()) for line in lines)
    assert set(predicted) <= {obj["id"] for obj in map(_json_or_none, lines)
                              if isinstance(obj, dict) and isinstance(obj.get("id"), str)}
    assert code == (2 if strict and warned else 0)


@pytest.mark.parametrize("keep", [9, 15])
def test_infer_truncated_checkpoint(ws, tmp_path, capsys, keep):
    # cut inside the 8-byte header length that follows the 8-byte magic
    ckpt = tmp_path / "cut.ckpt"
    ckpt.write_bytes((ws["tr1"] / "model.ckpt").read_bytes()[:keep])
    rc = main(["infer", "--checkpoint", str(ckpt),
               "--input", str(ws["data"] / "test.jsonl")])
    assert rc == 2
    assert "truncated" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["infer", "eval", "train"])
@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_non_finite_checkpoint_array_exits_input(ws, tmp_path, capsys, command, bad):
    # each once exited 1 with "operation produced NaN or Inf" (train: "non-finite
    # loss at epoch 1, step 1"), naming neither the file nor the array
    arrays, header = load_checkpoint(ws["tr1"] / "model.ckpt")
    arrays["global.b0"][1] = bad
    path = tmp_path / "bad.ckpt"
    save_checkpoint(path, arrays, header["config_hash"], meta=header["meta"])
    out = tmp_path / "out"
    argv = {"infer": ["--checkpoint", str(path), "--input", str(ws["data"] / "test.jsonl")],
            "eval": ["--config", str(ws["ini"]), "--checkpoint", str(path)],
            "train": ["--config", str(ws["ini_quick"]), "--resume", str(path)]}[command]
    assert main([command, "--out", str(out)] + argv) == 2
    assert capsys.readouterr().err == f"error: {path}: array 'global.b0' holds a NaN or an inf\n"
    assert not list(out.glob("*.ckpt")) and not list(out.glob("*.json*"))


def test_overflow_in_a_training_step_names_the_step(ws, tmp_path, capsys):
    # under main's np.errstate the overflow raises FloatingPointError, which
    # once exited 1 with numpy's message alone, naming no epoch or step
    arrays, header = load_checkpoint(ws["tr1"] / "model.ckpt")
    arrays["encoder.field_attn.q0"][...] = 3e38
    path = tmp_path / "overflow.ckpt"
    save_checkpoint(path, arrays, header["config_hash"], meta=header["meta"])
    assert main(["train", "--config", str(ws["ini_quick"]), "--resume", str(path),
                 "--out", str(tmp_path / "out")]) == EXIT_NUMERIC
    assert capsys.readouterr().err.startswith(
        "error: non-finite loss at epoch 1, step 1: overflow encountered in")


def test_infer_empty_input(ws, tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main(["infer", "--checkpoint", str(ws["tr1"] / "model.ckpt"),
                 "--input", str(empty)]) == 0
    assert capsys.readouterr().out == ""


def test_infer_missing_checkpoint(ws, tmp_path, capsys):
    rc = main(["infer", "--checkpoint", str(tmp_path / "nope.ckpt"),
               "--input", str(ws["data"] / "test.jsonl")])
    assert rc == 2


# ------------------------------------------------------------- sample-audit


def _read_audit(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["strategy", "stage", "anchor_label", "negative_label", "count"]
    return {(r[2], r[3]): int(r[4]) for r in rows[1:]}


def test_sample_audit_label_frequencies(ws, tmp_path):
    hier = str(ws["data"] / "hierarchy.tsv")
    draws = 2000

    out = tmp_path / "all"
    assert main(["sample-audit", "--hierarchy", hier, "--seed", "1",
                 "--strategy", "all", "--draws", str(draws),
                 "--out", str(out)]) == 0
    counts = _read_audit(out / "label_stage.csv")
    # anchor Finance draws uniformly over its 5 eligible labels
    finance = {u: n for (v, u), n in counts.items() if v == "Finance"}
    assert set(finance) == {"Video", "Game", "Game-Moba", "Game-RPG", "Game-Strategy"}
    sigma = np.sqrt(draws * 0.2 * 0.8)
    for n in finance.values():
        assert abs(n - draws / 5) < 4 * sigma

    out = tmp_path / "level"
    assert main(["sample-audit", "--hierarchy", hier, "--seed", "1",
                 "--strategy", "level", "--draws", str(draws),
                 "--out", str(out)]) == 0
    counts = _read_audit(out / "label_stage.csv")
    finance = {u: n for (v, u), n in counts.items() if v == "Finance"}
    assert set(finance) == {"Video", "Game"}
    assert sum(finance.values()) == draws

    out = tmp_path / "sibling"
    assert main(["sample-audit", "--hierarchy", hier, "--seed", "1",
                 "--strategy", "sibling", "--draws", str(draws),
                 "--out", str(out)]) == 0
    counts = _read_audit(out / "label_stage.csv")
    assert counts[("Finance-Investment", "Finance-Loan")] == draws


def test_sample_audit_instance_stage(ws, tmp_path):
    out = tmp_path / "aud"
    assert main(["sample-audit", "--hierarchy", str(ws["data"] / "hierarchy.tsv"),
                 "--seed", "5", "--corpus", str(ws["data"] / "train.jsonl"),
                 "--strategy", "level", "--draws", "200",
                 "--out", str(out)]) == 0
    counts = _read_audit(out / "instance_stage.csv")
    assert sum(counts.values()) >= 200
    assert (out / "label_stage.csv").exists()


def test_sample_audit_empty_corpus_exits_input(ws, tmp_path, capsys):
    # once exit 0 with a header-only instance_stage.csv
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    out = tmp_path / "aud"
    assert main(["sample-audit", "--hierarchy", str(ws["data"] / "hierarchy.tsv"),
                 "--seed", "5", "--corpus", str(empty), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {empty}: no records\n"
    assert not list(out.glob("*.csv"))


def test_sample_audit_stdout(ws, capsys):
    assert main(["sample-audit", "--hierarchy",
                 str(ws["data"] / "hierarchy.tsv"), "--seed", "2",
                 "--strategy", "sibling", "--draws", "10"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines
    for line in lines:
        strategy, stage, v, u, n = line.split(",")
        assert strategy == "sibling" and stage == "label"
        assert int(n) > 0


def test_sample_audit_requires_inputs(capsys):
    assert "required: --seed, --hierarchy" in _rejected_by_argparse(["sample-audit"], capsys)
    assert "required: --hierarchy" in _rejected_by_argparse(["sample-audit", "--seed", "1"],
                                                            capsys)


def test_sample_audit_stdout_has_both_stages(ws, tmp_path, capsys):
    # the instance-stage audit once ran without --out and its rows were dropped
    argv = ["sample-audit", "--hierarchy", str(ws["data"] / "hierarchy.tsv"), "--seed", "5",
            "--corpus", str(ws["data"] / "train.jsonl"), "--strategy", "level", "--draws", "200"]
    assert main(argv) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()]
    stages = [stage for _, stage, *_ in rows]
    assert stages == sorted(stages, key=["label", "instance"].index)  # label rows first
    assert set(stages) == {"label", "instance"}
    assert main(argv + ["--out", str(tmp_path / "aud")]) == 0
    for stage in ("label", "instance"):
        printed = {(v, u): int(n) for _, s, v, u, n in rows if s == stage}
        assert printed == _read_audit(tmp_path / "aud" / f"{stage}_stage.csv")


def test_sample_audit_repair_reaches_the_corpus(ws, tmp_path, capsys):
    # --repair was once accepted and ignored: the corpus always loaded strictly
    src = tmp_path / "orphan.jsonl"
    src.write_text(json.dumps({"id": "o", "fields": {"name": "alpha"},
                               "labels": ["Finance-Loan"]}) + "\n"
                   + (ws["data"] / "train.jsonl").read_text())
    argv = ["sample-audit", "--hierarchy", str(ws["data"] / "hierarchy.tsv"), "--seed", "1",
            "--corpus", str(src), "--draws", "50", "--out", str(tmp_path / "aud")]
    assert main(argv) == 2
    assert f"{src}:1" in capsys.readouterr().err
    assert main(argv + ["--repair"]) == 0
    assert sum(_read_audit(tmp_path / "aud" / "instance_stage.csv").values()) >= 50


@pytest.mark.parametrize("command,flag", [
    ("infer", "--config"), ("infer", "--seed"), ("infer", "--strategy"),
    ("gen-synthetic", "--config"), ("gen-synthetic", "--strategy"),
    ("gen-synthetic", "--repair"), ("gen-synthetic", "--precision"),
    ("sample-audit", "--precision"), ("eval", "--strategy"),
    ("eval", "--seed"), ("sample-audit", "--config"),
    # run settings that only the INI sets
    ("pretrain", "--seed"), ("pretrain", "--strategy"), ("pretrain", "--precision"),
    ("train", "--seed"), ("train", "--strategy"), ("train", "--precision"),
    ("eval", "--precision"),
])
def test_flags_a_command_does_not_read_are_rejected(capsys, command, flag):
    required = {"infer": ["--checkpoint", "c", "--input", "i"],
                "eval": ["--config", "run.ini", "--checkpoint", "c"],
                "gen-synthetic": ["--seed", "1", "--out", "o"],
                "sample-audit": ["--hierarchy", "h", "--seed", "1"],
                "pretrain": ["--config", "run.ini"], "train": ["--config", "run.ini"]}
    value = {"--config": ["run.ini"], "--seed": ["1"], "--strategy": ["all"],
             "--precision": ["f64"], "--repair": []}[flag]
    with pytest.raises(SystemExit) as exc:
        main([command, *required.get(command, []), flag, *value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_readme_flag_table_matches_the_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = dict(re.findall(r"^\| `([a-z-]+)` \| (.*) \|$", readme, re.M))
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert rows.keys() == sub.choices.keys()
    for command, parser in sub.choices.items():
        options = [a for a in parser._actions if a.option_strings and a.dest != "help"]
        assert sorted(re.findall(r"`(--[a-z-]+)`", rows[command])) == \
            sorted(a.option_strings[0] for a in options), command
        # bold marks the required ones
        assert sorted(re.findall(r"\*\*`(--[a-z-]+)`\*\*", rows[command])) == \
            sorted(a.option_strings[0] for a in options if a.required), command


def test_missing_hierarchy_path_fails_cleanly(ws, tmp_path, capsys):
    ini = tmp_path / "broken.ini"
    ini.write_text("[paths]\nhierarchy = {0}\ntrain = {1}\n[run]\nseed = 1\n"
                   .format(tmp_path / "absent.tsv", ws["data"] / "train.jsonl"))
    assert main(["train", "--config", str(ini)]) == 2
    assert "absent.tsv" in capsys.readouterr().err


@pytest.mark.parametrize("command,split", [("train", "train"), ("pretrain", "train"),
                                           ("eval", "test")])
def test_empty_corpus_exits_input(ws, tmp_path, capsys, command, split):
    # train once ended in a ZeroDivisionError traceback, pretrain and eval in
    # "need at least one array to stack"
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    ini = _ini_with(ws, tmp_path / "empty.ini", {("paths", split): str(empty)})
    extra = ["--checkpoint", str(ws["tr1"] / "model.ckpt")] if command == "eval" else []
    out = tmp_path / "out"
    assert main([command, "--config", str(ini), "--out", str(out)] + extra) == 2
    assert capsys.readouterr().err == f"error: {empty}: no records\n"
    assert not list(out.glob("*.ckpt")) and not list(out.glob("*.json"))


@pytest.mark.parametrize("command", ["train", "pretrain"])
def test_record_without_a_word_exits_input_naming_its_line(ws, tmp_path, capsys, command):
    # once "error: record has no non-empty field", naming no file or line
    corpus = tmp_path / "wordless.jsonl"
    lines = (ws["data"] / "train.jsonl").read_text().splitlines()[:3]
    obj = json.loads(lines[1])
    obj["fields"] = {f: "!!! ??" for f in obj["fields"]}
    corpus.write_text("".join(line + "\n" for line in (lines[0], json.dumps(obj), lines[2])))
    ini = _ini_with(ws, tmp_path / "wordless.ini", {("paths", "train"): str(corpus)})
    assert main([command, "--config", str(ini)]) == 2
    assert capsys.readouterr().err == f"error: {corpus}:2: record has no non-empty field\n"


def test_empty_hierarchy_exits_input(tmp_path, capsys):
    # gen-synthetic once ended in a KeyError traceback, and sample-audit
    # exited 0 with no output
    empty = tmp_path / "empty.tsv"
    empty.write_text("# comments only\n\n")
    assert main(["gen-synthetic", "--hierarchy", str(empty), "--seed", "1",
                 "--out", str(tmp_path / "gen")]) == 2
    assert main(["sample-audit", "--hierarchy", str(empty), "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the hierarchy declares no label\n" * 2


def test_run_log_names_numpy_blas_and_threads(ws):
    head = (ws["pre"] / "run.log").read_text().splitlines()[0]
    assert f"numpy {np.__version__}, BLAS " in head
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        assert repr(var) in head


_HIERARCHY = [b"ROOT\tA", b"ROOT\tB", b"A\tA1", b"A\tA2", b"B\tB1"]
_HIERARCHY_JUNK = [
    b"A1\tA", b"B1\tB1", b"ROOT\tROOT", b"A\tROOT", b"B\tA1", b"ROOT\tA",  # cycles, duplicates
    b"A", b"A\tB\tC", b"\tA", b"A\t", b"A B", b"# comment", b"", b"  ",     # tab counts, comments
    b"ROOT\t\xff", b"\xffA\tB",                                             # not UTF-8
]
# records whose labels a fuzzed hierarchy may or may not declare
_HIERARCHY_FUZZ_CORPUS = "".join(json.dumps({"id": f"r{i}", "fields": {"name": text},
                                             "labels": labels}) + "\n"
                                 for i, (text, labels) in enumerate([
                                     ("alpha beta", ["A"]), ("beta gamma", ["A", "A1"]),
                                     ("gamma delta", ["A", "A2"]), ("delta alpha", [])] * 2))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(keep=st.lists(st.booleans(), min_size=len(_HIERARCHY), max_size=len(_HIERARCHY)),
       inserts=st.lists(st.tuples(st.integers(min_value=0), st.sampled_from(_HIERARCHY_JUNK)),
                        max_size=2))
def test_fuzzed_hierarchy_runs_or_exits_input(fuzz_data, keep, inserts):
    # a valid taxonomy with lines dropped, and junk inserted anywhere: empty,
    # comments only, cycles, self-loops, duplicate children, ROOT as a child,
    # wrong tab counts and non-UTF-8 bytes, through every command that reads
    # a hierarchy: each exits 0, or 2 with an error line; never a traceback
    lines = [line for line, kept in zip(_HIERARCHY, keep) if kept]
    for at, line in inserts:
        lines.insert(at % (len(lines) + 1), line)
    root = fuzz_data / "hierarchy_fuzz"
    root.mkdir(exist_ok=True)
    tsv = root / "hierarchy.tsv"
    tsv.write_bytes(b"".join(line + b"\n" for line in lines))
    corpus = root / "corpus.jsonl"
    corpus.write_text(_HIERARCHY_FUZZ_CORPUS)
    ini = root / "run.ini"
    ini.write_text(f"[paths]\nhierarchy = {tsv}\ntrain = {corpus}\ntest = {corpus}\n"
                   "[encoder]\nvocab_buckets = 16\nd = 4\nheads = 1\nmax_tokens = 4\n"
                   "[model]\nhead_hidden = 4\ncross_heads = 1\n[run]\nseed = 3\n"
                   "[train]\nepochs = 1\nbatch_size = 4\n"
                   "[hmcl]\nstrategy = all\nrepeats_per_level = 1, 1\nbatch_size = 4\n"
                   "max_batches = 2\nproj_hidden = 4\nproj_dim = 4\n")
    for out in ("gen", "pre", "tr", "ev"):
        for path in (root / out).glob("*"):
            path.unlink()
    commands = [
        ["gen-synthetic", "--hierarchy", str(tsv), "--seed", "1", "--n-train", "6",
         "--n-test", "2", "--out", str(root / "gen")],
        ["sample-audit", "--hierarchy", str(tsv), "--seed", "1", "--draws", "20"],
        ["pretrain", "--config", str(ini), "--out", str(root / "pre")],
        ["train", "--config", str(ini), "--out", str(root / "tr")],
        # the model trained just now, under the same hierarchy
        ["eval", "--config", str(ini), "--checkpoint", str(root / "tr" / "model.ckpt"),
         "--out", str(root / "ev")],
    ]
    codes = []
    for argv in commands:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            codes.append(main(argv))
        assert codes[-1] in (0, 2), (argv[0], codes[-1], err.getvalue())
        assert (codes[-1] == 2) == err.getvalue().startswith("error: "), err.getvalue()
    # gen-synthetic and sample-audit read only the hierarchy: both take it, or neither
    assert len(set(codes[:2])) == 1


# ------------------------------------------------------------ INI validation


def _ini_with(ws, path, changes):
    """BASE_INI for one epoch with ``changes`` {(section, key): value} applied."""
    parser = configparser.ConfigParser()
    parser.read_string(BASE_INI.format(data=ws["data"], epochs=1, run_extra=""))
    for (section, key), value in changes.items():
        if not parser.has_section(section):
            parser.add_section(section)
        parser[section][key] = value
    with open(path, "w") as f:
        parser.write(f)
    return path


@pytest.mark.parametrize("old,new,named", [
    ("[run]", "[encoderr]\nd = 8\n[run]", "unknown section [encoderr]"),
    ("[run]", "[DEFAULT]\nbatchsize = 2\n[run]", "unknown key [DEFAULT] batchsize"),
    ("batch_size = 8", "batch_size = 8\nepoch = 1", "unknown key [train] epoch"),
])
def test_unknown_ini_names_exit_input(ws, tmp_path, capsys, old, new, named):
    # each was once accepted silently, and the run used the defaults
    ini = tmp_path / "typo.ini"
    ini.write_text(BASE_INI.format(data=ws["data"], epochs=1, run_extra="").replace(old, new))
    assert main(["train", "--config", str(ini), "--out", str(tmp_path / "out")]) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out" / "model.ckpt").exists()

def test_repeated_encoder_field_exits_input(ws, tmp_path, capsys):
    # once trained and exited 0, encoding "name" twice under one special id
    ini = _ini_with(ws, tmp_path / "fields.ini", {("encoder", "fields"): "name, name"})
    assert main(["train", "--config", str(ini), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: fields repeat 'name'\n"
    assert not (tmp_path / "out" / "model.ckpt").exists()


@pytest.mark.parametrize("section,key,value", [
    ("train", "batch_size", "-1"), ("train", "batch_size", "0"), ("train", "epochs", "0"),
    ("train", "decay_every_epochs", "0"), ("train", "lr", "nan"), ("train", "lr", "inf"),
    ("train", "lr", "-0.5"), ("train", "lr_decay", "nan"),
    ("hmcl", "batch_size", "0"), ("hmcl", "epochs", "0"), ("hmcl", "decay_every_batches", "0"),
    ("hmcl", "proj_hidden", "0"), ("hmcl", "proj_dim", "0"), ("hmcl", "lr", "nan"),
    ("hmcl", "lr_decay", "-1"), ("hmcl", "max_batches", "-1"),
    ("hmcl", "contrastive_alpha", "inf"), ("loss", "lambda_reg", "inf"),
    ("loss", "focal_gamma", "nan"), ("model", "head_hidden", "0"), ("model", "head_hidden", "-2"),
    ("encoder", "heads", "0"), ("encoder", "heads", "3"), ("model", "cross_heads", "0"),
    ("model", "cross_heads", "3"),
])
def test_schedule_out_of_range_exits_input(ws, tmp_path, capsys, section, key, value):
    # each once ran: batch_size -1 wrote an untrained checkpoint and exited 0,
    # a zero decay period ended in ZeroDivisionError, proj_dim 0 in exit 1,
    # heads that do not divide d in exit 3 with no key named
    ini = _ini_with(ws, tmp_path / "bad.ini", {(section, key): value})
    command = "pretrain" if section == "hmcl" else "train"
    out = tmp_path / "out"
    assert main([command, "--config", str(ini), "--out", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not list(out.glob("*.ckpt"))


@pytest.mark.parametrize("text", [
    "[run]\nseed = 1\n[run]\nseed = 2\n",         # duplicate section
    "[run]\nseed = 1\nseed = 2\n",                 # duplicate option
    "seed = 1\n[run]\n",                           # no section header
    "[run]\nseed\n",                               # no value
    "[paths]\nhierarchy = 50%\n[run]\nseed = 1\n",  # bad interpolation
])
def test_ini_syntax_errors_exit_input(tmp_path, capsys, text):
    ini = tmp_path / "bad.ini"
    ini.write_text(text)
    assert main(["train", "--config", str(ini)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


FUZZ_SECTIONS = {
    "paths": {"hierarchy": "{data}/hierarchy.tsv", "train": "{data}/train.jsonl"},
    "encoder": {"vocab_buckets": "16", "d": "4", "heads": "1", "max_tokens": "4",
                "fields": "name, description, comments"},
    "model": {"head_hidden": "4", "cross_heads": "1"},
    "loss": {"focal_alpha": "0.25", "focal_gamma": "2", "lambda_reg": "1", "threshold": "0.5"},
    "run": {"seed": "3", "precision": "f32"},
    "train": {"epochs": "1", "batch_size": "4", "lr": "0.01", "lr_decay": "0.8",
              "decay_every_epochs": "1", "early_stop_f1": ""},
    "hmcl": {"strategy": "all", "contrastive_alpha": "0.1", "repeats_per_level": "1, 1, 1",
             "batch_size": "4", "lr": "0.001", "lr_decay": "0.8", "decay_every_batches": "1",
             "epochs": "1", "max_batches": "2", "proj_hidden": "4", "proj_dim": "4"},
}
FUZZ_KEYS = [(section, key) for section, keys in FUZZ_SECTIONS.items() for key in keys]
# small numbers keep every accepted run short; the rest are out of range or malformed
FUZZ_VALUES = ["", "-1", "0", "1", "2", "3", "0.5", "1e-3", "1.5", "nan", "inf", "-inf",
               "1e400", "x", "%", "%(x)s", "f64", "f16", "all", "sibling", "name",
               "name, name", "1, 2", "0, 1", "/absent"]
FUZZ_JUNK = ["junk", "[", "[paths", "= 1", "  continued", "[extra]", "; comment", "key: 2"]


@pytest.fixture(scope="module")
def fuzz_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("ini_fuzz")
    assert main(["gen-synthetic", "--out", str(root / "data"), "--seed", "3",
                 "--n-train", "8", "--n-val", "0", "--n-test", "0"]) == 0
    return root


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(changes=st.lists(st.tuples(st.sampled_from(FUZZ_KEYS), st.sampled_from(FUZZ_VALUES)),
                        max_size=4),
       drop=st.lists(st.sampled_from(FUZZ_KEYS), max_size=2),
       inserts=st.lists(st.tuples(st.integers(min_value=0),
                                  st.sampled_from(FUZZ_JUNK + [f"{k} = 1" for _, k in FUZZ_KEYS])),
                        max_size=2))
def test_fuzzed_ini_runs_or_exits_input(fuzz_data, changes, drop, inserts):
    # values set, keys dropped, and junk, duplicate keys or duplicate sections
    # inserted anywhere: ``hmlc train`` runs, or exits 2 or 3; never a
    # traceback, and never exit 1: every value here that passes the checks is
    # small enough for one to three epochs on eight records to stay finite
    sections = {name: dict(keys) for name, keys in FUZZ_SECTIONS.items()}
    for (section, key), value in changes:
        sections[section][key] = value
    for section, key in drop:
        sections[section].pop(key, None)
    lines = [line for name, keys in sections.items()
             for line in [f"[{name}]"] + [f"{k} = {v}" for k, v in keys.items()]]
    for at, line in inserts:
        lines.insert(at % (len(lines) + 1), line)
    ini = fuzz_data / "fuzz.ini"
    ini.write_text("\n".join(lines).replace("{data}", str(fuzz_data / "data")) + "\n")
    code = main(["train", "--config", str(ini), "--out", str(fuzz_data / "run")])
    assert code in (0, 2, 3)
