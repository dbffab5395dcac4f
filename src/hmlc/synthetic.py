"""Deterministic label-correlated corpus generator for experiments and tests.

Each label owns a disjoint token pool; a record's fields are filled with
tokens drawn from the pools of its active labels (plus a few neutral filler
tokens), so the text carries enough signal for a competent classifier to
separate the labels. Deeper labels contribute more tokens than their
ancestors, which leaves parent labels slightly harder to pin down than
leaves — a useful property when studying path-consistency regularization.
"""

from __future__ import annotations

import numpy as np

from .corpus import Corpus, Record
from .hierarchy import ROOT, LabelHierarchy


DEMO_EDGES: tuple[tuple[str, str], ...] = (
    (ROOT, "Finance"),
    (ROOT, "Video"),
    (ROOT, "Game"),
    ("Finance", "Finance-Investment"),
    ("Finance", "Finance-Loan"),
    ("Game", "Game-Moba"),
    ("Game", "Game-RPG"),
    ("Game", "Game-Strategy"),
    ("Finance-Loan", "Finance-Loan-Credit Loan"),
    ("Finance-Loan", "Finance-Loan-Mortgage Loan"),
)


def demo_hierarchy() -> LabelHierarchy:
    """The app-store style demo taxonomy used across docs and tests:
    three top topics, m=10 labels over three levels."""
    from .hierarchy import parse_hierarchy

    return parse_hierarchy(list(DEMO_EDGES))


TWO_PATH_PROB = 0.3  # chance a record gets a second root-to-label path
STOP_PROB = 0.25  # chance a path stops at an internal label
POOL_SIZE = 12  # tokens per label pool
FILLER_POOL_SIZE = 30  # neutral tokens, shared by every record


def make_synthetic_corpus(h: LabelHierarchy, n: int, seed: int) -> Corpus:
    """Generate ``n`` records; identical (h, n, seed) gives identical corpora."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    pools = {v: [f"l{h.index[v]}w{j}" for j in range(POOL_SIZE)] for v in h.labels}
    fillers = [f"fillw{j}" for j in range(FILLER_POOL_SIZE)]
    records = []
    for i in range(n):
        bits = np.zeros(h.m, dtype=np.uint8)
        paths = 1 + (rng.random() < TWO_PATH_PROB)
        for _ in range(paths):
            for v in _sample_path(h, rng):
                bits[h.index[v]] = 1
        active = [v for v in h.labels if bits[h.index[v]]]
        records.append(
            Record(
                id=f"syn{i:06d}",
                fields=_render_fields(h, active, pools, fillers, rng),
                labels=bits,
            )
        )
    return Corpus(hierarchy=h, records=records)


def _sample_path(h: LabelHierarchy, rng) -> list[str]:
    # Always descends from the root once, so every path yields >= 1 label.
    top = h.level_index[1]
    node = top[rng.integers(len(top))]
    path = [node]
    while h.children[node] and rng.random() >= STOP_PROB:
        kids = h.children[node]
        node = kids[rng.integers(len(kids))]
        path.append(node)
    return path


def _draw(rng, pool: list[str], k: int) -> list[str]:
    k = min(k, len(pool))
    return [pool[j] for j in rng.permutation(len(pool))[:k]]


def _render_fields(h, active, pools, fillers, rng) -> dict[str, str]:
    name, desc, comments = [], [], []
    for v in active:
        name += _draw(rng, pools[v], 1)
        desc += _draw(rng, pools[v], 1 + h.level[v])  # deeper labels speak louder
        comments += _draw(rng, pools[v], 1)
    desc += _draw(rng, fillers, 2)
    comments += _draw(rng, fillers, 1)
    # exactly corpus.DEFAULT_FIELDS
    return {"name": " ".join(name), "description": " ".join(desc), "comments": " ".join(comments)}

