"""Binary checkpoint format: round trips, determinism, corruption handling,
and a fuzz of truncated and bit-flipped checkpoints through the CLI."""

from __future__ import annotations

import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hmlc.checkpoint import (
    MAGIC,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)


def _arrays(dtype):
    rng = np.random.default_rng(7)
    return {
        "enc.w": rng.normal(size=(4, 3)).astype(dtype),
        "enc.b": rng.normal(size=3).astype(dtype),
        "head": rng.normal(size=(2, 2, 2)).astype(dtype),
    }


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_round_trip_bit_exact(tmp_path, dtype):
    arrays = _arrays(dtype)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, arrays, "hash-a", meta={"kind": "model"})
    loaded, header = load_checkpoint(path)
    assert set(loaded) == set(arrays)
    for name, arr in arrays.items():
        assert loaded[name].dtype == np.dtype(dtype)
        assert loaded[name].shape == arr.shape
        assert np.array_equal(loaded[name], arr)
    assert header["meta"] == {"kind": "model"}
    assert header["config_hash"] == "hash-a"


def test_insertion_order_does_not_change_bytes(tmp_path):
    arrays = _arrays(np.float32)
    reordered = {k: arrays[k] for k in reversed(list(arrays))}
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, arrays, "h")
    save_checkpoint(p2, reordered, "h")
    assert p1.read_bytes() == p2.read_bytes()


def test_bad_magic(tmp_path):
    path = tmp_path / "x.ckpt"
    path.write_bytes(b"NOTACKPT" + b"\0" * 16)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_unsupported_format_version(tmp_path):
    path = tmp_path / "x.ckpt"
    hdr = json.dumps({"format_version": 99, "config_hash": "h", "meta": {},
                      "arrays": []}).encode()
    path.write_bytes(MAGIC + struct.pack("<Q", len(hdr)) + hdr)
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, _arrays(np.float32), "h")
    blob = path.read_bytes()
    path.write_bytes(blob[:-4])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


@pytest.mark.parametrize("keep", [0, 1, 7])
def test_truncated_header_length(tmp_path, keep):
    # cut after the magic, inside the 8-byte header-length field
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, _arrays(np.float32), "h")
    path.write_bytes(path.read_bytes()[:len(MAGIC) + keep])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


@pytest.mark.parametrize("declared", [10_000, 2**63, 2**64 - 1])
def test_header_length_past_end_of_file(tmp_path, declared):
    # 2**63 and above exceed sys.maxsize, which a read() size cannot take
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, _arrays(np.float32), "h")
    blob = path.read_bytes()
    path.write_bytes(MAGIC + struct.pack("<Q", declared) + blob[len(MAGIC) + 8:])
    with pytest.raises(CheckpointError, match="past the end"):
        load_checkpoint(path)


def test_unsupported_dtype_on_save(tmp_path):
    with pytest.raises(CheckpointError, match="dtype"):
        save_checkpoint(tmp_path / "x.ckpt", {"ids": np.arange(4)}, "h")


def test_unsupported_dtype_on_load(tmp_path):
    path = tmp_path / "x.ckpt"
    hdr = json.dumps({
        "format_version": 1, "config_hash": "h", "meta": {},
        "arrays": [{"name": "a", "dtype": "<i8", "shape": [1],
                    "offset": 0, "nbytes": 8}],
    }).encode()
    path.write_bytes(MAGIC + struct.pack("<Q", len(hdr)) + hdr + b"\0" * 8)
    with pytest.raises(CheckpointError, match="dtype"):
        load_checkpoint(path)


@pytest.mark.parametrize("offset", [0, 8, 12, 20])
def test_array_table_must_tile_the_data(tmp_path, offset):
    # a bit flip once moved "offset" 576 to 566: the array loaded from the
    # wrong bytes, and infer overflowed in matmul where it should exit 2
    path = tmp_path / "x.ckpt"
    arrays = [{"name": n, "dtype": "<f4", "shape": [2], "offset": o, "nbytes": 8}
              for n, o in (("a", 0), ("b", offset))]
    hdr = json.dumps({"format_version": 1, "config_hash": "h", "meta": {},
                      "arrays": arrays}).encode()
    path.write_bytes(MAGIC + struct.pack("<Q", len(hdr)) + hdr + b"\0" * 28)
    if offset == 8:
        assert set(load_checkpoint(path)[0]) == {"a", "b"}
    else:
        with pytest.raises(CheckpointError, match=f"'b' is at offset {offset}, expected 8"):
            load_checkpoint(path)


def test_meta_round_trip(tmp_path):
    path = tmp_path / "x.ckpt"
    meta = {"kind": "encoder", "scope": {"precision": "f32", "n": 3}}
    save_checkpoint(path, {"t": np.zeros(2, dtype=np.float32)}, "h", meta=meta)
    _, header = load_checkpoint(path)
    assert header["meta"] == meta


def test_loaded_arrays_are_writable(tmp_path):
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, {"t": np.ones(2, dtype=np.float32)}, "h")
    loaded, _ = load_checkpoint(path)
    loaded["t"][0] = 5.0  # .copy() in the loader must make this legal
    assert loaded["t"][0] == 5.0


# --------------------------------------------------------------- fuzzing

FUZZ_INI = """\
[paths]
hierarchy = {data}/hierarchy.tsv
train = {data}/train.jsonl

[encoder]
vocab_buckets = 16
d = 4
heads = 1
max_tokens = 4

[model]
head_hidden = 4
cross_heads = 1

[run]
seed = 3

[train]
epochs = 1
"""


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A real model checkpoint from ``hmlc train``, and an infer input."""
    from hmlc.cli import main

    root = tmp_path_factory.mktemp("fuzz")
    data = root / "data"
    assert main(["gen-synthetic", "--out", str(data), "--seed", "3",
                 "--n-train", "8", "--n-val", "0", "--n-test", "2"]) == 0
    ini = root / "run.ini"
    ini.write_text(FUZZ_INI.format(data=data))
    assert main(["train", "--config", str(ini), "--out", str(root / "run")]) == 0
    return {"raw": (root / "run" / "model.ckpt").read_bytes(), "root": root,
            "input": data / "test.jsonl"}


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cut=st.one_of(st.none(), st.integers(min_value=0)),
       flips=st.lists(st.tuples(st.integers(min_value=0), st.integers(0, 7)), max_size=4))
def test_fuzzed_checkpoint_loads_or_exits_cleanly(trained, cut, flips):
    # truncation and bit flips anywhere in the file: load_checkpoint either
    # returns or raises an error that main reports as exit 2 or 3 (a NaN or
    # an inf in an array is exit 2); a file that loads may still hold a bad
    # scope (exit 2 or 3) or finite weights that overflow (exit 1), but never
    # escapes main as a traceback
    from hmlc.cli import main

    blob = bytearray(trained["raw"])
    for pos, bit in flips:
        blob[pos % len(blob)] ^= 1 << bit
    if cut is not None:
        blob = blob[:cut % len(blob)]
    path = trained["root"] / "fuzzed.ckpt"
    path.write_bytes(bytes(blob))
    try:
        load_checkpoint(path)
        allowed = (0, 1, 2, 3)
    except Exception:  # noqa: BLE001 - main decides what the error maps to
        allowed = (2, 3)
    code = main(["infer", "--checkpoint", str(path), "--input", str(trained["input"]),
                 "--out", str(trained["root"] / "infer")])
    assert code in allowed


def test_overflowing_weight_exits_numeric(trained, capsys):
    # under Tier-1's RuntimeWarning filter, this weight's overflow inside
    # attention once escaped main as a traceback, and without it exited 0
    from hmlc.cli import EXIT_NUMERIC, main

    source = trained["root"] / "source.ckpt"
    source.write_bytes(trained["raw"])
    arrays, header = load_checkpoint(source)
    arrays["encoder.field_attn.q0"][...] = 3e38
    path = trained["root"] / "overflow.ckpt"
    save_checkpoint(path, arrays, header["config_hash"], meta=header["meta"])
    code = main(["infer", "--checkpoint", str(path), "--input", str(trained["input"]),
                 "--out", str(trained["root"] / "overflow")])
    assert code == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err == "error: overflow encountered in matmul\n"
