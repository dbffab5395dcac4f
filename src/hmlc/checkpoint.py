"""Versioned binary checkpoints.

Layout: an 8-byte magic string, a little-endian uint64 header length, a
canonical JSON header (sorted keys, no whitespace), then the raw array bytes
concatenated in header order. Arrays are stored little-endian, C-contiguous,
sorted by name, so the same parameter values always produce the same bytes.

The header carries a ``config_hash`` of the scope the arrays depend on and,
under ``meta``, that scope itself; the command line refuses to load a
checkpoint whose scope differs from its configuration's.
"""

from __future__ import annotations

import json
import os
import struct

import numpy as np

MAGIC = b"HMLCCKP1"
_FORMAT_VERSION = 1
_DTYPE_CODES = {"<f4": np.dtype("<f4"), "<f8": np.dtype("<f8")}


class CheckpointError(ValueError):
    pass


class ConfigHashMismatch(CheckpointError):
    """A checkpoint's scope differs from the configuration it is loaded under."""


def save_checkpoint(path, arrays: dict[str, np.ndarray], config_hash: str,
                    meta: dict | None = None) -> None:
    entries = []
    blobs = []
    offset = 0
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        code = arr.dtype.newbyteorder("<").str
        if code not in _DTYPE_CODES:
            raise CheckpointError(f"unsupported dtype {arr.dtype} for {name!r}")
        raw = arr.astype(code, copy=False).tobytes()
        entries.append({
            "name": name,
            "dtype": code,
            "shape": list(arr.shape),
            "offset": offset,
            "nbytes": len(raw),
        })
        blobs.append(raw)
        offset += len(raw)
    header = {
        "format_version": _FORMAT_VERSION,
        "config_hash": config_hash,
        "meta": meta or {},
        "arrays": entries,
    }
    hdr = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<Q", len(hdr)))
        f.write(hdr)
        for raw in blobs:
            f.write(raw)


def load_checkpoint(path):
    """Return ``(arrays, header)``."""
    with open(path, "rb") as f:
        magic = f.read(len(MAGIC))
        if magic != MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint (bad magic {magic!r})")
        raw_len = f.read(8)
        if len(raw_len) != 8:
            raise CheckpointError(f"{path}: truncated inside the header length")
        (hdr_len,) = struct.unpack("<Q", raw_len)
        if hdr_len > os.fstat(f.fileno()).st_size - f.tell():
            raise CheckpointError(f"{path}: header length {hdr_len} runs past the end of the file")
        header = json.loads(f.read(hdr_len).decode("utf-8"))
        if not isinstance(header, dict):
            raise CheckpointError(f"{path}: header is not a JSON object")
        if header.get("format_version") != _FORMAT_VERSION:
            raise CheckpointError(
                f"{path}: unsupported format version {header.get('format_version')!r}")
        payload = f.read()
    arrays = {}
    offset = 0  # each array starts where the one before it ended
    try:
        for ent in header["arrays"]:
            dtype = _DTYPE_CODES.get(ent["dtype"])
            if dtype is None:
                raise CheckpointError(f"{path}: unsupported dtype {ent['dtype']!r}")
            if ent["offset"] != offset:
                raise CheckpointError(f"{path}: array {ent['name']!r} is at offset "
                                      f"{ent['offset']!r}, expected {offset}")
            raw = payload[offset:offset + ent["nbytes"]]
            if len(raw) != ent["nbytes"]:
                raise CheckpointError(f"{path}: truncated array {ent['name']!r}")
            arr = np.frombuffer(raw, dtype=dtype).reshape(ent["shape"])
            if not np.isfinite(arr).all():
                raise CheckpointError(f"{path}: array {ent['name']!r} holds a NaN or an inf")
            arrays[ent["name"]] = arr.copy()
            offset += ent["nbytes"]
    except (KeyError, TypeError) as e:  # a field missing or of the wrong type
        raise CheckpointError(f"{path}: malformed array table ({e!r})") from e
    return arrays, header
