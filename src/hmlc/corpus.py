"""Multi-field text records with hierarchical label assignments.

Record files are UTF-8 line-delimited JSON, one object per line::

    {"id": "a01", "fields": {"name": "...", "description": "...",
     "comments": "..."}, "labels": ["Finance", "Finance/Loan"]}

Labels are full-path label strings matching the hierarchy file. Fields not
in the configured field list are ignored; missing ones load as empty.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .hierarchy import (
    LabelHierarchy,
    closure,
    labels_at_level,
    labels_to_bits,
    validate_assignment,
)

DEFAULT_FIELDS = ("name", "description", "comments")


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
    missing ancestors are activated instead.
    """
    records = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            records.append(_parse_record(line, lineno, h, fields, repair, str(path)))
    return Corpus(hierarchy=h, records=records)


def field_texts(raw_fields: dict, fields: tuple[str, ...]) -> dict[str, str]:
    """The text of each named field; a missing, null or empty one reads as ""."""
    return {name: str(raw_fields.get(name, "") or "") for name in fields}


def _parse_record(line, lineno, h, fields, repair, where) -> Record:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as e:
        raise MalformedLine(f"{where}:{lineno}: invalid JSON ({e.msg})") from e
    if not isinstance(obj, dict) or not isinstance(obj.get("id"), str):
        raise MalformedLine(f"{where}:{lineno}: record must be an object with a string 'id'")
    raw_fields = obj.get("fields")
    if not isinstance(raw_fields, dict):
        raise MalformedLine(f"{where}:{lineno}: missing 'fields' object")
    text = field_texts(raw_fields, fields)
    if not any(text.values()):
        raise MalformedLine(f"{where}:{lineno}: record {obj['id']!r} has no non-empty field")
    names = obj.get("labels", [])
    if not isinstance(names, list):
        raise MalformedLine(f"{where}:{lineno}: 'labels' must be a list")
    bits = labels_to_bits(h, names)
    violations = validate_assignment(h, bits)
    if violations:
        if not repair:
            raise PathViolation(
                f"{where}:{lineno}: record {obj['id']!r} violates parent-child "
                f"consistency at {violations}"
            )
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
