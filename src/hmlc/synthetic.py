"""Deterministic label-correlated corpus generator for experiments and tests.

Each label owns a disjoint token pool; a record's fields are filled with
tokens drawn from the pools of its active labels (plus a few neutral filler
tokens), so the text carries enough signal for a competent classifier to
separate the labels. Deeper labels contribute more tokens than their
ancestors, which leaves parent labels slightly harder to pin down than
leaves — a useful property when studying path-consistency regularization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import DEFAULT_FIELDS, Corpus, Record
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


@dataclass(frozen=True)
class SyntheticConfig:
    two_path_prob: float = 0.3  # chance a record gets a second root-to-label path
    stop_prob: float = 0.25  # chance a path stops at an internal label
    pool_size: int = 12  # tokens per label pool
    filler_pool_size: int = 30
    fields: tuple[str, ...] = DEFAULT_FIELDS


def label_token_pool(h: LabelHierarchy, v: str, cfg: SyntheticConfig) -> list[str]:
    idx = h.index[v]
    return [f"l{idx}w{j}" for j in range(cfg.pool_size)]


def make_synthetic_corpus(
    h: LabelHierarchy, n: int, seed: int, cfg: SyntheticConfig | None = None
) -> Corpus:
    """Generate ``n`` records; identical (h, n, seed, cfg) gives identical corpora."""
    cfg = cfg or SyntheticConfig()
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    pools = {v: label_token_pool(h, v, cfg) for v in h.labels}
    fillers = [f"fillw{j}" for j in range(cfg.filler_pool_size)]
    records = []
    for i in range(n):
        bits = np.zeros(h.m, dtype=np.uint8)
        paths = 1 + (rng.random() < cfg.two_path_prob)
        for _ in range(paths):
            for v in _sample_path(h, rng, cfg.stop_prob):
                bits[h.index[v]] = 1
        active = [v for v in h.labels if bits[h.index[v]]]
        records.append(
            Record(
                id=f"syn{i:06d}",
                fields=_render_fields(h, active, pools, fillers, rng, cfg),
                labels=bits,
            )
        )
    return Corpus(hierarchy=h, records=records)


def _sample_path(h: LabelHierarchy, rng, stop_prob: float) -> list[str]:
    # Always descends from the root once, so every path yields >= 1 label.
    top = h.level_index[1]
    node = top[rng.integers(len(top))]
    path = [node]
    while h.children[node] and rng.random() >= stop_prob:
        kids = h.children[node]
        node = kids[rng.integers(len(kids))]
        path.append(node)
    return path


def _draw(rng, pool: list[str], k: int) -> list[str]:
    k = min(k, len(pool))
    return [pool[j] for j in rng.permutation(len(pool))[:k]]


def _render_fields(h, active, pools, fillers, rng, cfg) -> dict[str, str]:
    name, desc, comments = [], [], []
    for v in active:
        name += _draw(rng, pools[v], 1)
        desc += _draw(rng, pools[v], 1 + h.level[v])  # deeper labels speak louder
        comments += _draw(rng, pools[v], 1)
    desc += _draw(rng, fillers, 2)
    comments += _draw(rng, fillers, 1)
    text = {"name": " ".join(name), "description": " ".join(desc), "comments": " ".join(comments)}
    return {f: text.get(f, "") for f in cfg.fields}

