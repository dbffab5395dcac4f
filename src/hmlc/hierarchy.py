"""Single-parent label taxonomy with level, sibling, and ancestor queries.

The hierarchy is a directed tree rooted at an implicit ``ROOT`` node. Only
assignable labels are members (the root is never one of them), and every
label sits at a 1-based level equal to its distance from the root. Label
strings are opaque identifiers: corpora that need duplicate leaf names under
different parents should declare path-style names ("Finance/Loan") in the
edge file.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

ROOT = "ROOT"


class HierarchyError(ValueError):
    """Base class for taxonomy construction and query errors."""


class DuplicateParent(HierarchyError):
    """A child label was declared under more than one parent."""


class CycleDetected(HierarchyError):
    """Edges form a cycle, leaving labels unreachable from the root."""


class UnknownLabel(HierarchyError):
    """A label was referenced but never declared."""


class LevelOutOfRange(HierarchyError):
    """Requested level is outside 1..depth."""


class LengthMismatch(HierarchyError):
    """A label bit-vector does not have one bit per label."""


@dataclass(frozen=True)
class LabelHierarchy:
    """Validated taxonomy. Immutable after construction; safe to share.

    ``labels`` is level-major (all level-1 labels before any level-2 label,
    first-declaration order within a level) and fixes the coordinate order of
    every label bit-vector in the package.
    """

    labels: tuple[str, ...]
    parent: dict[str, str | None]  # None for level-1 labels
    children: dict[str, tuple[str, ...]]
    level: dict[str, int]
    level_index: dict[int, tuple[str, ...]]
    index: dict[str, int]

    @property
    def m(self) -> int:
        return len(self.labels)

    @property
    def depth(self) -> int:
        return max(self.level_index) if self.level_index else 0

    @cached_property
    def parent_index(self) -> np.ndarray:
        """Read-only (m,) array: the index of each label's parent, −1 at level
        1. Its non-negative entries are the edges in ``edges()`` order."""
        parent = np.array([self.index.get(self.parent[v], -1) for v in self.labels],
                          dtype=np.intp)
        parent.setflags(write=False)
        return parent

    @cached_property
    def child_level_columns(self) -> tuple[np.ndarray, ...]:
        """Read-only index arrays of the labels at each level below the top,
        level 2 first."""
        cols = tuple(np.array([self.index[v] for v in self.level_index[lvl]], dtype=np.intp)
                     for lvl in range(2, self.depth + 1))
        for c in cols:
            c.setflags(write=False)
        return cols

    def __contains__(self, label: str) -> bool:
        return label in self.index

    def _require(self, label: str) -> None:
        if label not in self.index:
            raise UnknownLabel(f"label {label!r} is not in the hierarchy")

    def edges(self) -> list[tuple[str, str]]:
        """All (parent, child) pairs whose parent is a real label (root excluded)."""
        return [(u, v) for v in self.labels if (u := self.parent[v]) is not None]

    def canonical_edges(self) -> list[list[str]]:
        """Every declared edge, root ones included, in level-major order:
        feeding these back through parse_hierarchy rebuilds an equal taxonomy."""
        return [[self.parent[v] or ROOT, v] for v in self.labels]


def parse_hierarchy(edges: list[tuple[str, str]]) -> LabelHierarchy:
    """Build a validated hierarchy from (parent, child) pairs.

    Declaration means appearing as a child; a non-root parent must itself be
    declared somewhere in the edge list. Raises HierarchyError for no edges,
    DuplicateParent when a child is listed more than once, UnknownLabel for
    undeclared parents, and CycleDetected when some labels are unreachable.
    """
    if not edges:
        raise HierarchyError("the hierarchy declares no label")
    children: dict[str, list[str]] = {}
    declared: dict[str, str] = {}  # child -> parent
    for parent, child in edges:
        if child == ROOT:
            raise HierarchyError(f"the root token {ROOT!r} cannot appear as a child")
        if child in declared:
            raise DuplicateParent(
                f"label {child!r} is declared under both {declared[child]!r} and {parent!r}"
            )
        declared[child] = parent
        children.setdefault(parent, []).append(child)

    for parent in children:
        if parent != ROOT and parent not in declared:
            raise UnknownLabel(f"parent {parent!r} is never declared as a label")

    # Breadth-first from the root assigns levels; anything left over sits on
    # a cycle (every non-root parent is declared, so it cannot be an orphan).
    level: dict[str, int] = {}
    frontier = list(children.get(ROOT, []))
    depth = 0
    while frontier:
        depth += 1
        for label in frontier:
            level[label] = depth
        frontier = [c for label in frontier for c in children.get(label, [])]
    unreachable = [c for c in declared if c not in level]
    if unreachable:
        raise CycleDetected(f"labels not reachable from {ROOT}: {sorted(unreachable)}")

    seen = {v: i for i, v in enumerate(declared)}  # first-declaration order
    labels = tuple(sorted(declared, key=lambda v: (level[v], seen[v])))
    level_index = {
        lv: tuple(v for v in labels if level[v] == lv) for lv in range(1, depth + 1)
    }
    return LabelHierarchy(
        labels=labels,
        parent={v: (None if declared[v] == ROOT else declared[v]) for v in labels},
        children={v: tuple(children.get(v, [])) for v in labels},
        level=level,
        level_index=level_index,
        index={v: i for i, v in enumerate(labels)},
    )


def load_hierarchy(path) -> LabelHierarchy:
    """Read an edge file: one ``parent<TAB>child`` per line, ``#`` comments ignored."""
    edges = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2 or not parts[0] or not parts[1]:
                raise HierarchyError(f"{path}:{lineno}: expected 'parent<TAB>child', got {raw!r}")
            edges.append((parts[0], parts[1]))
    return parse_hierarchy(edges)


def labels_at_level(h: LabelHierarchy, lvl: int) -> tuple[str, ...]:
    if lvl not in h.level_index:
        raise LevelOutOfRange(f"level {lvl} outside 1..{h.depth}")
    return h.level_index[lvl]


def siblings_of(h: LabelHierarchy, v: str) -> tuple[str, ...]:
    """Labels sharing v's parent, v itself excluded."""
    h._require(v)
    parent = h.parent[v]
    peers = h.level_index[1] if parent is None else h.children[parent]
    return tuple(u for u in peers if u != v)


def descendants_of(h: LabelHierarchy, v: str) -> tuple[str, ...]:
    """Transitive closure below v, in level-major label order."""
    h._require(v)
    found = set()
    frontier = list(h.children[v])
    while frontier:
        found.update(frontier)
        frontier = [c for u in frontier for c in h.children[u]]
    return tuple(u for u in h.labels if u in found)


def validate_assignment(h: LabelHierarchy, bits: np.ndarray) -> list[tuple[str, str]]:
    """Path-consistency check of ``bits`` (length m, or rows of m): every
    (parent, child) pair with the child bit set while the parent bit is
    clear, row after row. Empty list means the assignment is ok; the all-zero
    vector is always ok."""
    bits = np.asarray(bits)
    if bits.ndim not in (1, 2) or bits.shape[-1] != h.m:
        raise LengthMismatch(f"expected {h.m} bits per row, got shape {bits.shape}")
    child = np.flatnonzero(h.parent_index >= 0)
    rows = bits.reshape(-1, h.m) != 0
    _, bad = np.nonzero(rows[:, child] & ~rows[:, h.parent_index[child]])
    return [(h.labels[h.parent_index[c]], h.labels[c]) for c in child[bad]]


def repair_bits(h: LabelHierarchy, bits: np.ndarray) -> np.ndarray:
    """Top-down repair: a 0/1 uint8 copy of ``bits`` (length m, or rows of m)
    in which every label whose parent is clear is cleared too. Levels are
    repaired in order through a parent-index array, so clearing a label
    clears its whole subtree. The result is always path-consistent."""
    bits = np.asarray(bits)
    if bits.shape[-1:] != (h.m,):
        raise LengthMismatch(f"expected {h.m} bits per row, got shape {bits.shape}")
    out = (bits != 0).astype(np.uint8)
    for cols in h.child_level_columns:
        out[..., cols] &= out[..., h.parent_index[cols]]
    return out


def closure(h: LabelHierarchy, bits: np.ndarray) -> np.ndarray:
    """Return a copy with every ancestor of an active label activated: the
    mirror of ``repair_bits``, levels taken bottom-up, each label's bit
    raising its parent's, so setting a label sets its whole path."""
    bits = np.asarray(bits)
    if bits.shape != (h.m,):
        raise LengthMismatch(f"expected {h.m} bits, got shape {bits.shape}")
    out = bits.astype(np.uint8)
    for cols in reversed(h.child_level_columns):
        np.maximum.at(out, h.parent_index[cols], out[cols])
    return out


def labels_to_bits(h: LabelHierarchy, names) -> np.ndarray:
    bits = np.zeros(h.m, dtype=np.uint8)
    for name in names:
        h._require(name)
        bits[h.index[name]] = 1
    return bits


def bits_to_labels(h: LabelHierarchy, bits: np.ndarray) -> tuple[str, ...]:
    bits = np.asarray(bits)
    if bits.shape != (h.m,):
        raise LengthMismatch(f"expected {h.m} bits, got shape {bits.shape}")
    return tuple(v for i, v in enumerate(h.labels) if bits[i])
