"""Negative label spaces and the two-stage contrastive sampler."""

from __future__ import annotations

import csv
import gc
import weakref

import numpy as np
import pytest
from scipy import stats

from hmlc.corpus import Corpus, active_labels_at_level
from hmlc.hierarchy import (
    UnknownLabel,
    ancestors_of,
    descendants_of,
    labels_to_bits,
    parse_hierarchy,
)
from hmlc.sampling import (
    STRATEGIES,
    LevelDraws,
    SamplingError,
    _assert_negatives_valid,
    audit_instance_draws,
    audit_label_draws,
    build_batch,
    negative_label_space,
    sample_negatives,
    sample_positives,
    write_audit_csv,
)
from hmlc.synthetic import make_synthetic_corpus

from conftest import make_record, random_tree
import per_draw


# ------------------------------------------------------- negative spaces


def test_reference_table_level_one(demo):
    # anchor Finance, all three strategies
    assert set(negative_label_space(demo, "Finance", "all")) == {
        "Video", "Game", "Game-Moba", "Game-RPG", "Game-Strategy"}
    assert set(negative_label_space(demo, "Finance", "level")) == {"Video", "Game"}
    assert set(negative_label_space(demo, "Finance", "sibling")) == {"Video", "Game"}


def test_reference_table_level_two(demo):
    # anchor Finance-Investment, all three strategies
    assert set(negative_label_space(demo, "Finance-Investment", "all")) == {
        "Finance", "Finance-Loan", "Finance-Loan-Credit Loan",
        "Finance-Loan-Mortgage Loan", "Video", "Game",
        "Game-Moba", "Game-RPG", "Game-Strategy"}
    assert set(negative_label_space(demo, "Finance-Investment", "level")) == {
        "Finance-Loan", "Game-Moba", "Game-RPG", "Game-Strategy"}
    assert set(negative_label_space(demo, "Finance-Investment", "sibling")) == {
        "Finance-Loan"}


def test_space_is_level_major_ordered(demo):
    space = negative_label_space(demo, "Finance-Investment", "all")
    positions = [demo.labels.index(u) for u in space]
    assert positions == sorted(positions)


def test_space_containment_random_trees():
    rng = np.random.default_rng(6)
    for _ in range(20):
        h = random_tree(rng, int(rng.integers(2, 30)))
        for v in h.labels:
            spaces = {s: set(negative_label_space(h, v, s)) for s in STRATEGIES}
            assert spaces["sibling"] <= spaces["level"] <= spaces["all"]
            assert v not in spaces["all"]
            desc = set(descendants_of(h, v))
            anc = set(ancestors_of(h, v))
            assert not (spaces["all"] & desc)
            assert not (spaces["level"] & (desc | anc))
            same_level = set(h.level_index[h.level[v]])
            assert spaces["level"] == same_level - {v}


def test_space_errors(demo):
    with pytest.raises(UnknownLabel):
        negative_label_space(demo, "Gardening", "all")
    with pytest.raises(SamplingError):
        negative_label_space(demo, "Finance", "hardest")


def test_sibling_space_empty_for_only_child(demo):
    assert negative_label_space(demo, "Finance-Investment", "sibling") == ("Finance-Loan",)
    h = parse_hierarchy([("ROOT", "A"), ("A", "B")])
    assert negative_label_space(h, "B", "sibling") == ()


# ---------------------------------------------------------------- sampling


def _two_label_corpus():
    """Two level-1 labels; every record carries both, so no record can serve
    as a negative for either."""
    h = parse_hierarchy([("ROOT", "A"), ("ROOT", "B")])
    records = [make_record(h, f"r{i}", ["A", "B"]) for i in range(4)]
    return Corpus(hierarchy=h, records=records)


def test_sample_positives_membership(demo_corpus):
    rng = np.random.default_rng(7)
    for i in range(0, len(demo_corpus), 7):
        for lvl in (1, 2, 3):
            pos_labels, _ = active_labels_at_level(demo_corpus, i, lvl)
            draws = sample_positives(demo_corpus, i, lvl, rng)
            assert len(draws) == len(pos_labels)
            for v, idx in zip(pos_labels, draws):
                assert demo_corpus.label_matrix[idx, demo_corpus.hierarchy.index[v]]


def test_sample_positives_uniform_over_pool(demo, demo_corpus):
    # [DERIVED] uniform draws from X_v land on any fixed member with
    # probability 1/|X_v|; check a 3-sigma band around the expectation
    rng = np.random.default_rng(8)
    v = "Finance"
    pool = demo_corpus.by_label[v]
    target = int(pool[0])
    # anchors: any record with Finance active, level 1 includes a Finance draw
    anchor = int(pool[0])
    n = 20_000
    hits = 0
    pos_labels, _ = active_labels_at_level(demo_corpus, anchor, 1)
    v_slot = pos_labels.index(v)
    for _ in range(n):
        draws = sample_positives(demo_corpus, anchor, 1, rng)
        hits += draws[v_slot] == target
    p = 1.0 / pool.size
    sigma = np.sqrt(n * p * (1 - p))
    assert abs(hits - n * p) < 3 * sigma


def test_sample_negatives_invariants(demo_corpus):
    h = demo_corpus.hierarchy
    rng = np.random.default_rng(9)
    for strategy in STRATEGIES:
        for i in range(0, len(demo_corpus), 13):
            for lvl in (1, 2, 3):
                draws, _, _ = sample_negatives(demo_corpus, i, lvl, strategy, rng)
                pos_labels, _ = active_labels_at_level(demo_corpus, i, lvl)
                for v, u, idx in draws:
                    assert v in pos_labels
                    assert u in negative_label_space(h, v, strategy)
                    assert demo_corpus.label_matrix[idx, h.index[u]]
                    assert not demo_corpus.label_matrix[idx, h.index[v]]


def test_sample_negatives_skips_only_child(demo):
    # Finance-Loan-* are the only children below Finance-Loan with siblings;
    # build a hierarchy where an anchor label has no sibling at all
    h = parse_hierarchy([("ROOT", "A"), ("ROOT", "B"), ("A", "A1")])
    records = [make_record(h, "r0", ["A", "A1"]), make_record(h, "r1", ["B"])]
    c = Corpus(hierarchy=h, records=records)
    rng = np.random.default_rng(10)
    draws, skipped_empty, skipped_unsat = sample_negatives(c, 0, 2, "sibling", rng)
    assert draws == []
    assert skipped_empty == 1
    assert skipped_unsat == 0


def test_sample_negatives_skips_unsatisfiable():
    c = _two_label_corpus()
    rng = np.random.default_rng(11)
    draws, skipped_empty, skipped_unsat = sample_negatives(c, 0, 1, "all", rng)
    # both anchor labels have a non-empty label space but no eligible record
    assert draws == []
    assert skipped_empty == 0
    assert skipped_unsat == 2


def test_build_batch_counts(demo, demo_corpus):
    rng = np.random.default_rng(12)
    # pick an anchor with a full three-level path
    col = demo.index["Finance-Loan-Credit Loan"]
    anchor = int(np.flatnonzero(demo_corpus.label_matrix[:, col])[0])
    batch = build_batch(demo_corpus, [anchor], (10, 20, 50), "all", rng)
    assert batch.anchors == [anchor]
    per_level = batch.draws[0]
    assert [ld.level for ld in per_level] == [1, 2, 3]
    for ld, repeats in zip(per_level, (10, 20, 50)):
        assert len(ld.positives) == repeats * ld.n_pos_labels
        assert len(ld.negatives) == repeats * ld.n_pos_labels
    assert set(batch.record_indices()) >= {anchor}


def test_build_batch_empty_levels(demo, demo_corpus):
    rng = np.random.default_rng(13)
    # a record with only level-1 labels has empty draws at deeper levels
    depth1 = [
        i for i in range(len(demo_corpus))
        if demo_corpus.label_matrix[i].sum() == 1
    ]
    anchor = depth1[0]
    batch = build_batch(demo_corpus, [anchor], (2, 2, 2), "level", rng)
    lvl2, lvl3 = batch.draws[0][1], batch.draws[0][2]
    assert lvl2.n_pos_labels == 0 and lvl2.positives == [] and lvl2.negatives == []
    assert lvl3.n_pos_labels == 0


def test_build_batch_deterministic(demo_corpus):
    a = build_batch(demo_corpus, [0, 5], (2, 2, 2), "level",
                    np.random.default_rng(14))
    b = build_batch(demo_corpus, [0, 5], (2, 2, 2), "level",
                    np.random.default_rng(14))
    for pa, pb in zip(a.draws, b.draws):
        for la, lb in zip(pa, pb):
            assert la.positives == lb.positives
            assert la.negatives == lb.negatives


def test_build_batch_repeats_length(demo_corpus):
    with pytest.raises(SamplingError):
        build_batch(demo_corpus, [0], (2, 2), "all", np.random.default_rng(0))


def test_label_stage_is_uniform(demo):
    # [DERIVED] chi-square on first-stage counts; deterministic seed chosen
    # with a healthy margin (min p across the 26 tests is 0.14)
    draws = 10_000
    for strategy in STRATEGIES:
        counts = audit_label_draws(demo, strategy, draws, seed=0)
        for v in demo.labels:
            space = negative_label_space(demo, v, strategy)
            if not space:
                continue
            observed = np.array([counts.get((v, u), 0) for u in space])
            assert observed.sum() == draws
            if len(space) == 1:
                continue
            p = stats.chisquare(observed).pvalue
            assert p > 0.01, (strategy, v, p)


def test_audit_instance_draws(demo_corpus):
    counts = audit_instance_draws(demo_corpus, "level", min_draws=500, seed=16)
    h = demo_corpus.hierarchy
    assert sum(counts.values()) >= 500
    for (v, u), n in counts.items():
        assert n > 0
        assert u in negative_label_space(h, v, "level")


def test_audit_instance_draws_terminates_when_unsatisfiable():
    counts = audit_instance_draws(_two_label_corpus(), "all", min_draws=100, seed=17)
    assert counts == {}


def test_write_audit_csv(tmp_path, demo):
    counts = audit_label_draws(demo, "sibling", 50, seed=18)
    path = tmp_path / "audit.csv"
    write_audit_csv(path, counts, "sibling")
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["strategy", "stage", "anchor_label", "negative_label", "count"]
    assert len(rows) == len(counts) + 1
    assert all(r[0] == "sibling" and r[1] == "label" for r in rows[1:])
    keys = [(r[2], r[3]) for r in rows[1:]]
    assert keys == sorted(keys)


def test_invalid_negative_draws_raise(demo):
    # checked with an exception, not assert, so python -O keeps the check
    corpus = Corpus(demo, [
        make_record(demo, "fin", ["Finance"]),
        make_record(demo, "game", ["Game"]),
    ])
    ok = LevelDraws(level=1, anchor_labels=("Finance",), negatives=[("Finance", "Game", 1)])
    _assert_negatives_valid(corpus, ok)
    has_anchor = LevelDraws(level=1, anchor_labels=("Finance",),
                            negatives=[("Finance", "Video", 0)])
    with pytest.raises(SamplingError, match="has 'Finance' active"):
        _assert_negatives_valid(corpus, has_anchor)
    lacks_label = LevelDraws(level=1, anchor_labels=("Finance",),
                             negatives=[("Finance", "Video", 1)])
    with pytest.raises(SamplingError, match="lacks its negative label 'Video'"):
        _assert_negatives_valid(corpus, lacks_label)


# ------------------------------------------- lookups kept on the corpus


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_build_batch_matches_per_draw_reference(strategy, demo_corpus):
    # a random tree with only children over few records, and a corpus where
    # no negative is drawable, make the skip counters move
    h = random_tree(np.random.default_rng(3), 14, max_children=2)
    corpora = [demo_corpus, make_synthetic_corpus(h, 40, seed=3), _two_label_corpus()]
    got_rng, want_rng = np.random.default_rng(21), np.random.default_rng(21)
    pick = np.random.default_rng(22)
    skips = 0
    for k in range(1000):
        c = corpora[k % 3]
        anchors = pick.integers(0, len(c), size=4)
        repeats = ((1, 2, 3) + (1,) * c.hierarchy.depth)[:c.hierarchy.depth]
        got = build_batch(c, anchors, repeats, strategy, got_rng)
        want = per_draw.build_batch(c, anchors, repeats, strategy, want_rng)
        assert got == want
        assert got.record_indices() == want.record_indices()
        skips += got.skipped_empty_space + got.skipped_unsatisfiable
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    assert skips > 0


def test_corpora_built_in_turn_keep_their_own_tables(demo):
    # the second corpus may reuse the first one's memory address; its
    # lookups must still be its own
    for seed in range(4):
        c = make_synthetic_corpus(demo, 30, seed=seed)
        got = build_batch(c, range(len(c)), (1, 2, 3), "all", np.random.default_rng(seed))
        want = per_draw.build_batch(c, range(len(c)), (1, 2, 3), "all",
                                    np.random.default_rng(seed))
        assert got == want
        del c
        gc.collect()
    a, b = (make_synthetic_corpus(demo, 30, seed=s) for s in (0, 1))
    for c in (a, b):
        build_batch(c, [0], (1, 1, 1), "sibling", np.random.default_rng(0))
    assert a.sampler_tables is not b.sampler_tables
    assert a.sampler_tables.active(0, 1) == active_labels_at_level(a, 0, 1)[0]
    assert b.sampler_tables.active(0, 1) == active_labels_at_level(b, 0, 1)[0]
    # the lookups hold no strong reference back to their corpus
    gc.disable()
    try:
        gone = weakref.ref(a)
        del a
        assert gone() is None
    finally:
        gc.enable()
