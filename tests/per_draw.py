"""The sampler that recomputes every lookup on every draw, kept as the
reference for the table-driven one in ``hmlc.sampling``.

Each draw rebuilds the anchor's active labels at the level, the negative
label space V_¬v and the candidate rows of the drawn label u. ``hmlc``
reads the same three from lookups kept on the corpus; tests require both to
consume the generator identically and return identical batches.
"""

from __future__ import annotations

import numpy as np

from hmlc.corpus import Corpus, active_labels_at_level
from hmlc.sampling import ContrastiveBatch, LevelDraws, _assert_negatives_valid, negative_label_space


def sample_positives(c: Corpus, i: int, lvl: int, rng: np.random.Generator) -> list[int]:
    pos_labels, _ = active_labels_at_level(c, i, lvl)
    out = []
    for v in pos_labels:
        pool = c.by_label[v]
        out.append(int(pool[rng.integers(0, pool.size)]))
    return out


def sample_negatives(c: Corpus, i: int, lvl: int, strategy: str, rng: np.random.Generator):
    h = c.hierarchy
    pos_labels, _ = active_labels_at_level(c, i, lvl)
    out = []
    skipped_empty = 0
    skipped_unsat = 0
    for v in pos_labels:
        space = negative_label_space(h, v, strategy)
        if not space:
            skipped_empty += 1
            continue
        v_col = h.index[v]
        for _ in range(len(space)):
            u = space[rng.integers(0, len(space))]
            rows = c.by_label[u]
            candidates = rows[c.label_matrix[rows, v_col] == 0]
            if candidates.size:
                out.append((v, u, int(candidates[rng.integers(0, candidates.size)])))
                break
        else:
            skipped_unsat += 1
    return out, skipped_empty, skipped_unsat


def build_batch(c: Corpus, anchors, repeats_per_level, strategy: str,
                rng: np.random.Generator) -> ContrastiveBatch:
    h = c.hierarchy
    batch = ContrastiveBatch(anchors=list(anchors), draws=[])
    for i in batch.anchors:
        per_anchor = []
        for lvl in range(1, h.depth + 1):
            pos_labels, _ = active_labels_at_level(c, i, lvl)
            ld = LevelDraws(level=lvl, anchor_labels=pos_labels)
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
