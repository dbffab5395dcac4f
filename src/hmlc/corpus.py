"""Multi-field text records with hierarchical label assignments.

Record files are UTF-8 line-delimited JSON, one object per line::

    {"id": "a01", "fields": {"name": "...", "description": "...",
     "comments": "..."}, "labels": ["Finance", "Finance/Loan"]}

Labels are full-path label strings matching the hierarchy file. Fields not
in the configured field list are ignored; missing ones load as empty.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .hierarchy import (
    HierarchyError,
    LabelHierarchy,
    closure,
    labels_at_level,
    labels_to_bits,
    validate_assignment,
)

DEFAULT_FIELDS = ("name", "description", "comments")
WORD = re.compile(rb"[0-9a-z]+")  # a token of lowercased text; a field without one is empty


def _ascii(text: str) -> bytes:
    """``text`` lowercased, each non-ASCII character replaced by ``?``, which
    ``WORD`` does not match."""
    return text.lower().encode("ascii", "replace")


def words(text: str) -> list[bytes]:
    """Every ``WORD`` of ``text`` once lowercased; any other character, ASCII
    or not, separates two words. Bytes, so a word hashes without an encode."""
    return WORD.findall(_ascii(text))


class CorpusError(ValueError):
    """Base class for record-file and corpus errors."""


class MalformedLine(CorpusError):
    """A record line could not be parsed or fails basic record invariants."""


class PathViolation(CorpusError):
    """A record activates a label whose parent is inactive (strict mode)."""


class IndexOutOfRange(CorpusError):
    """Record index outside the corpus."""


@dataclass
class Record:
    id: str
    fields: dict[str, str]
    labels: np.ndarray  # uint8, one bit per hierarchy label


@dataclass
class Corpus:
    """Immutable-after-build record collection with a per-label inverted index.

    ``by_label[v]`` holds the (ascending) indices of records where v is
    active; ``label_matrix`` is the stacked n-by-m bit matrix of the same
    assignments, kept for fast filtering during negative sampling.
    ``sampler_tables`` is filled by ``hmlc.sampling.tables``.
    """

    hierarchy: LabelHierarchy
    records: list[Record]
    by_label: dict[str, np.ndarray] = field(init=False)
    label_matrix: np.ndarray = field(init=False)
    sampler_tables: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        h = self.hierarchy
        if self.records:
            self.label_matrix = np.stack([r.labels for r in self.records]).astype(np.uint8)
        else:
            self.label_matrix = np.zeros((0, h.m), dtype=np.uint8)
        self.by_label = {
            v: np.flatnonzero(self.label_matrix[:, h.index[v]]) for v in h.labels
        }

    def __len__(self) -> int:
        return len(self.records)

    def _require_index(self, i: int) -> None:
        if not 0 <= i < len(self.records):
            raise IndexOutOfRange(f"record index {i} outside 0..{len(self.records) - 1}")


def active_labels_at_level(
    c: Corpus, i: int, lvl: int
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Split level ``lvl`` into the record's active labels and the inactive rest."""
    c._require_index(i)
    h = c.hierarchy
    level = labels_at_level(h, lvl)
    bits = c.records[i].labels
    pos = tuple(v for v in level if bits[h.index[v]])
    neg = tuple(v for v in level if not bits[h.index[v]])
    return pos, neg


def load_corpus(
    path,
    h: LabelHierarchy,
    fields: tuple[str, ...] = DEFAULT_FIELDS,
    repair: bool = False,
) -> Corpus:
    """Load and validate a record file.

    In strict mode (default) a record whose active labels are not closed
    under the parent relation raises PathViolation; with ``repair=True`` the
    missing ancestors are activated instead. Errors name ``path:line``.
    """
    records = []
    for lineno, raw in enumerate(Path(path).read_bytes().splitlines(), start=1):
        try:
            parsed = parse_line(raw, fields)
            if parsed is not None:
                records.append(_labelled(*parsed, h, repair))
        except (CorpusError, HierarchyError) as e:
            raise type(e)(f"{path}:{lineno}: {e}") from e
    return Corpus(hierarchy=h, records=records)


def parse_line(raw: bytes, fields: tuple[str, ...]) -> tuple[dict, dict[str, str]] | None:
    """One record line's JSON object and the text of each named field (a
    missing, null or empty field reads as ""), or None for a blank line.
    ``load_corpus`` and ``hmlc infer`` read lines with it; a line that holds
    no record, or whose fields hold no ``WORD`` to encode, raises
    MalformedLine."""
    try:
        line = raw.decode("utf-8").strip()
    except UnicodeDecodeError as e:
        raise MalformedLine(f"invalid UTF-8 ({e.reason} at byte {e.start})") from e
    if not line:
        return None
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as e:
        raise MalformedLine(f"invalid JSON ({e.msg})") from e
    if not isinstance(obj, dict) or not isinstance(obj.get("id"), str):
        raise MalformedLine("record must be an object with a string 'id'")
    raw_fields = obj.get("fields")
    if not isinstance(raw_fields, dict):
        raise MalformedLine("missing 'fields' object")
    text = {name: str(raw_fields.get(name, "") or "") for name in fields}
    if not any(map(WORD.search, map(_ascii, text.values()))):
        raise MalformedLine("record has no non-empty field")
    return obj, text


def _labelled(obj: dict, text: dict[str, str], h: LabelHierarchy, repair: bool) -> Record:
    names = obj.get("labels", [])
    if not isinstance(names, list) or not all(isinstance(v, str) for v in names):
        raise MalformedLine("'labels' must be a list of label strings")
    bits = labels_to_bits(h, names)
    violations = validate_assignment(h, bits)
    if violations:
        if not repair:
            raise PathViolation(
                f"record {obj['id']!r} violates parent-child consistency at {violations}")
        bits = closure(h, bits)
    return Record(id=obj["id"], fields=text, labels=bits)


def write_corpus(path, c: Corpus) -> None:
    """Write records back out in the load_corpus format, one JSON object per line."""
    from .hierarchy import bits_to_labels

    with open(path, "w", encoding="utf-8") as fh:
        for r in c.records:
            obj = {
                "id": r.id,
                "fields": r.fields,
                "labels": list(bits_to_labels(c.hierarchy, r.labels)),
            }
            fh.write(json.dumps(obj, sort_keys=True) + "\n")
