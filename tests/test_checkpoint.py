"""Binary checkpoint format: round trips, determinism, corruption handling."""

from __future__ import annotations

import json
import struct

import numpy as np
import pytest

from hmlc.checkpoint import (
    MAGIC,
    CheckpointError,
    ConfigHashMismatch,
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
    loaded, header = load_checkpoint(path, expect_config_hash="hash-a")
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


def test_config_hash_mismatch(tmp_path):
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, _arrays(np.float32), "hash-a")
    with pytest.raises(ConfigHashMismatch):
        load_checkpoint(path, expect_config_hash="hash-b")
    # no expectation means no check
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
