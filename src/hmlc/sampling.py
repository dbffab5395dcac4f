"""Per-level positive and negative sampling for contrastive pretraining.

Negatives are drawn in two stages — first a label u uniformly from the
strategy's negative label space V_¬v, then an instance that has u active and
the anchor label v inactive — so rare labels are represented as often as
populous ones at the label stage.

Draws read lookups that never change for a corpus (a record's active labels
per level, V_¬v, a label pair's candidate records), kept on the corpus and
filled on first use; the generator is consumed exactly as if each lookup
were recomputed on every draw.
"""

from __future__ import annotations

import csv
import weakref
from dataclasses import dataclass, field
from functools import cache
from types import SimpleNamespace

import numpy as np

from .corpus import Corpus, active_labels_at_level
from .hierarchy import LabelHierarchy, UnknownLabel, descendants_of, siblings_of

STRATEGIES = ("all", "level", "sibling")


class SamplingError(ValueError):
    pass


def negative_label_space(h: LabelHierarchy, v: str, strategy: str) -> tuple[str, ...]:
    """V_¬v in level-major label order.

    all     — every label except v and its descendants (labels above v stay
              eligible: a record can carry the parent topic without v)
    level   — the other labels on v's level
    sibling — labels sharing v's parent
    """
    if v not in h:
        raise UnknownLabel(f"unknown label {v!r}")
    strategy = strategy.lower()
    if strategy == "all":
        excluded = {v, *descendants_of(h, v)}
        return tuple(u for u in h.labels if u not in excluded)
    if strategy == "level":
        return tuple(u for u in h.level_index[h.level[v]] if u != v)
    if strategy == "sibling":
        return siblings_of(h, v)
    raise SamplingError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")


def tables(c: Corpus) -> SimpleNamespace:
    """The sampler lookups of ``c``, attached to it on first use, each entry
    computed on its first request: ``active(i, lvl)`` (record i's active
    labels at level lvl), ``space(v, strategy)`` (V_¬v) and
    ``candidates(u, v)`` (ascending indices of the records with u active and
    v inactive)."""
    if c.sampler_tables is None:
        p = weakref.proxy(c)  # the lookups must not keep their corpus alive
        rows, col = c.by_label, c.hierarchy.index
        c.sampler_tables = SimpleNamespace(
            active=cache(lambda i, lvl: active_labels_at_level(p, i, lvl)[0]),
            space=cache(lambda v, strategy: negative_label_space(p.hierarchy, v, strategy)),
            candidates=cache(lambda u, v: rows[u][p.label_matrix[rows[u], col[v]] == 0]))
    return c.sampler_tables


def sample_positives(c: Corpus, i: int, lvl: int, rng: np.random.Generator) -> list[int]:
    """One uniform draw from X_v per anchor label v active at this level.
    The anchor's own record is a legal draw."""
    out = []
    for v in tables(c).active(i, lvl):
        pool = c.by_label[v]
        out.append(int(pool[rng.integers(0, pool.size)]))
    return out


def sample_negatives(c: Corpus, i: int, lvl: int, strategy: str,
                     rng: np.random.Generator) -> tuple[list[tuple[str, str, int]], int, int]:
    """Two-stage negative draw per anchor label. Returns a list of
    (anchor label v, drawn negative label u, record index) triples plus two
    skip counters (skipped_empty_space, skipped_unsatisfiable).

    A label u whose instance pool is exhausted by the anchor label (every
    record with u also has v) triggers a resample of u, up to |V_¬v|
    attempts; an empty V_¬v (e.g. sibling strategy on an only child) skips
    the draw outright.
    """
    t = tables(c)
    out: list[tuple[str, str, int]] = []
    skipped_empty = 0
    skipped_unsat = 0
    for v in t.active(i, lvl):
        space = t.space(v, strategy)
        if not space:
            skipped_empty += 1
            continue
        for _ in range(len(space)):
            u = space[rng.integers(0, len(space))]
            candidates = t.candidates(u, v)
            if candidates.size:
                out.append((v, u, int(candidates[rng.integers(0, candidates.size)])))
                break
        else:
            skipped_unsat += 1
    return out, skipped_empty, skipped_unsat


@dataclass
class LevelDraws:
    level: int
    anchor_labels: tuple[str, ...]
    positives: list[int] = field(default_factory=list)
    # (anchor label the draw answers, drawn negative label, record index)
    negatives: list[tuple[str, str, int]] = field(default_factory=list)

    @property
    def n_pos_labels(self) -> int:
        return len(self.anchor_labels)

    def negative_indices(self) -> list[int]:
        return [i for _, _, i in self.negatives]


@dataclass
class ContrastiveBatch:
    anchors: list[int]
    draws: list[list[LevelDraws]]  # [anchor][level-1]
    skipped_empty_space: int = 0
    skipped_unsatisfiable: int = 0

    def record_indices(self) -> list[int]:
        """All distinct records the batch touches, ascending."""
        needed = set(self.anchors)
        for per_anchor in self.draws:
            for ld in per_anchor:
                needed.update(ld.positives)
                needed.update(ld.negative_indices())
        return sorted(needed)


def build_batch(c: Corpus, anchors, repeats_per_level, strategy: str,
                rng: np.random.Generator) -> ContrastiveBatch:
    """Repeat the per-level draws ``repeats_per_level[l-1]`` times per anchor.
    Deterministic given the generator state."""
    h = c.hierarchy
    if len(repeats_per_level) != h.depth:
        raise SamplingError(
            f"repeats_per_level has {len(repeats_per_level)} entries for depth {h.depth}")
    batch = ContrastiveBatch(anchors=list(anchors), draws=[])
    for i in batch.anchors:
        per_anchor = []
        for lvl in range(1, h.depth + 1):
            ld = LevelDraws(level=lvl, anchor_labels=tables(c).active(i, lvl))
            for _ in range(int(repeats_per_level[lvl - 1])):
                ld.positives.extend(sample_positives(c, i, lvl, rng))
                negs, se, su = sample_negatives(c, i, lvl, strategy, rng)
                ld.negatives.extend(negs)
                batch.skipped_empty_space += se
                batch.skipped_unsatisfiable += su
            _assert_negatives_valid(c, ld)
            per_anchor.append(ld)
        batch.draws.append(per_anchor)
    return batch


def _assert_negatives_valid(c: Corpus, ld: LevelDraws) -> None:
    # a negative drawn for anchor label v must not belong to X_v, and must
    # carry the second-stage label u it was drawn from
    for v, u, idx in ld.negatives:
        if c.label_matrix[idx, c.hierarchy.index[v]]:
            raise SamplingError(f"negative draw for {v!r} has {v!r} active")
        if not c.label_matrix[idx, c.hierarchy.index[u]]:
            raise SamplingError(f"negative draw for {v!r} lacks its negative label {u!r}")


def audit_label_draws(h: LabelHierarchy, strategy: str, draws_per_label: int,
                      seed: int) -> dict[tuple[str, str], int]:
    """Label-stage draw counts (anchor label, negative label) → count, for
    offline verification that the first stage is uniform over V_¬v."""
    rng = np.random.default_rng(seed)
    counts: dict[tuple[str, str], int] = {}
    for v in h.labels:
        space = negative_label_space(h, v, strategy)
        if not space:
            continue
        idx = rng.integers(0, len(space), size=draws_per_label)
        for j in idx:
            key = (v, space[j])
            counts[key] = counts.get(key, 0) + 1
    return counts


def audit_instance_draws(c: Corpus, strategy: str, min_draws: int,
                         seed: int) -> dict[tuple[str, str], int]:
    """Run the full two-stage sampler over the corpus, cycling anchors until
    at least ``min_draws`` negatives are drawn, and tabulate
    (anchor label, negative label) counts."""
    rng = np.random.default_rng(seed)
    counts: dict[tuple[str, str], int] = {}
    total = 0
    while total < min_draws:
        before = total
        for i in range(len(c)):
            for lvl in range(1, c.hierarchy.depth + 1):
                draws, _, _ = sample_negatives(c, i, lvl, strategy, rng)
                for v, u, _idx in draws:
                    counts[(v, u)] = counts.get((v, u), 0) + 1
                    total += 1
            if total >= min_draws:
                break
        if total == before:  # nothing drawable anywhere
            break
    return counts


def write_audit_csv(path, counts: dict[tuple[str, str], int], strategy: str,
                    stage: str) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["strategy", "stage", "anchor_label", "negative_label", "count"])
        for (v, u), n in sorted(counts.items()):
            w.writerow([strategy, stage, v, u, n])
