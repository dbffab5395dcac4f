"""End-to-end command-line behavior on a small synthetic workspace."""

from __future__ import annotations

import configparser
import csv
import json
import logging
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hmlc import autodiff as ad
from hmlc import contrastive
from hmlc.checkpoint import load_checkpoint
from hmlc.cli import EXIT_NUMERIC, _build_model, _restore_model, main
from hmlc.config import load_run_config
from hmlc.hierarchy import load_hierarchy
from hmlc.corpus import load_corpus
from hmlc.model import predict_proba, total_loss, train

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


def test_gen_synthetic_requires_seed(tmp_path, capsys):
    assert main(["gen-synthetic", "--out", str(tmp_path / "x")]) == 2
    assert "seed" in capsys.readouterr().err


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
    assert main(["pretrain"]) == 2
    assert "--config" in capsys.readouterr().err


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
    # distinct --out dirs: every artifact except the out path itself matches
    for name in ("model.ckpt", "history.jsonl"):
        assert (ws["tr1"] / name).read_bytes() == (ws["tr1b"] / name).read_bytes()
    summaries = []
    configs = []
    for out in (ws["tr1"], ws["tr1b"]):
        summary = json.loads((out / "summary.json").read_text())
        summary.pop("config_hash")  # covers the out path, differs by design
        summaries.append(summary)
        config = json.loads((out / "config.json").read_text())
        config["config"].pop("out")
        config.pop("hash")
        configs.append(config)
    assert summaries[0] == summaries[1]
    assert configs[0] == configs[1]


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
    assert "configuration" in capsys.readouterr().err


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
    corpus = load_corpus(cfg.train_path, h, fields=cfg.encoder.fields)
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
    assert main(["eval", "--config", str(ws["ini"]), "--checkpoint", ckpt,
                 "--precision", "f64"]) == 3
    assert "precision f64 differs" in capsys.readouterr().err
    assert main(["eval", "--config", str(ws["ini"]), "--checkpoint", ckpt,
                 "--precision", "f32"]) == 0


def test_eval_config_precision_mismatch(ws, tmp_path, capsys):
    # trained in f32; the INI's [run] precision = f64 is a mismatch
    ckpt = str(ws["tr1"] / "model.ckpt")
    assert main(["eval", "--config", str(ws["ini_f64"]), "--checkpoint", ckpt]) == 3
    assert "precision f64 differs" in capsys.readouterr().err
    # the flag wins over the INI, as everywhere else
    assert main(["eval", "--config", str(ws["ini_f64"]), "--checkpoint", ckpt,
                 "--precision", "f32", "--out", str(tmp_path / "flag")]) == 0


def test_eval_config_precision_omitted_or_matching(ws, tmp_path):
    f64_run = tmp_path / "f64"
    assert main(["train", "--config", str(ws["ini_f64"]), "--out", str(f64_run)]) == 0
    ckpt = str(f64_run / "model.ckpt")
    # ws["ini"] has no precision key: the checkpoint's precision is used
    for ini in (ws["ini"], ws["ini_f64"]):
        out = tmp_path / f"eval-{ini.stem}"
        assert main(["eval", "--config", str(ini), "--checkpoint", ckpt, "--out", str(out)]) == 0
        assert (out / "eval.json").exists()


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
    args = ["infer", "--checkpoint", str(ws["tr1"] / "model.ckpt"),
            "--input", str(ws["data"] / "test.jsonl")]
    assert main(args + ["--out", str(tmp_path / "f64"), "--precision", "f64"]) == 3
    assert "precision f64 differs" in capsys.readouterr().err
    assert not (tmp_path / "f64").exists()
    assert main(args + ["--out", str(tmp_path / "f32"), "--precision", "f32"]) == 0
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
    rc = main(["infer", "--checkpoint", str(ws["tr1"] / "model.ckpt"),
               "--input", str(ws["data"] / "test.jsonl"),
               "--threshold", "0.0"])
    assert rc == 2
    assert "threshold" in capsys.readouterr().err


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


@pytest.mark.parametrize("keep", [9, 15])
def test_infer_truncated_checkpoint(ws, tmp_path, capsys, keep):
    # cut inside the 8-byte header length that follows the 8-byte magic
    ckpt = tmp_path / "cut.ckpt"
    ckpt.write_bytes((ws["tr1"] / "model.ckpt").read_bytes()[:keep])
    rc = main(["infer", "--checkpoint", str(ckpt),
               "--input", str(ws["data"] / "test.jsonl")])
    assert rc == 2
    assert "truncated" in capsys.readouterr().err


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
    assert main(["sample-audit", "--config", str(ws["ini"]),
                 "--strategy", "level", "--draws", "200",
                 "--out", str(out)]) == 0
    counts = _read_audit(out / "instance_stage.csv")
    assert sum(counts.values()) >= 200
    assert (out / "label_stage.csv").exists()


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
    assert main(["sample-audit"]) == 2
    assert main(["sample-audit", "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert "--config or --hierarchy" in err


def test_missing_hierarchy_path_fails_cleanly(ws, tmp_path, capsys):
    ini = tmp_path / "broken.ini"
    ini.write_text("[paths]\nhierarchy = {0}\ntrain = {1}\n[run]\nseed = 1\n"
                   .format(tmp_path / "absent.tsv", ws["data"] / "train.jsonl"))
    assert main(["train", "--config", str(ini)]) == 2
    assert "absent.tsv" in capsys.readouterr().err


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


@pytest.mark.parametrize("section,key,value", [
    ("train", "batch_size", "-1"), ("train", "batch_size", "0"), ("train", "epochs", "0"),
    ("train", "decay_every_epochs", "0"), ("train", "lr", "nan"), ("train", "lr", "inf"),
    ("train", "lr", "-0.5"), ("train", "lr_decay", "nan"),
    ("hmcl", "batch_size", "0"), ("hmcl", "epochs", "0"), ("hmcl", "decay_every_batches", "0"),
    ("hmcl", "proj_hidden", "0"), ("hmcl", "proj_dim", "0"), ("hmcl", "lr", "nan"),
    ("hmcl", "lr_decay", "-1"), ("hmcl", "max_batches", "-1"),
    ("hmcl", "contrastive_alpha", "inf"), ("loss", "lambda_reg", "inf"),
    ("loss", "focal_gamma", "nan"), ("model", "head_hidden", "0"), ("model", "head_hidden", "-2"),
])
def test_schedule_out_of_range_exits_input(ws, tmp_path, capsys, section, key, value):
    # each once ran: batch_size -1 wrote an untrained checkpoint and exited 0,
    # a zero decay period ended in ZeroDivisionError, proj_dim 0 in exit 1
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
