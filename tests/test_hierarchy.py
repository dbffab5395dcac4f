"""Taxonomy construction, queries, and path-consistency validation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmlc.hierarchy import (
    ROOT,
    CycleDetected,
    DuplicateParent,
    HierarchyError,
    LengthMismatch,
    LevelOutOfRange,
    UnknownLabel,
    ancestors_of,
    bits_to_labels,
    closure,
    descendants_of,
    labels_at_level,
    labels_to_bits,
    load_hierarchy,
    parse_hierarchy,
    repair_bits,
    siblings_of,
    validate_assignment,
)

from conftest import random_tree


# ---------------------------------------------------------------------------
# construction


def test_demo_tree_counts(demo):
    assert demo.m == 10
    assert demo.depth == 3
    assert len(demo.edges()) == 7  # non-root edges


def test_single_edge_minimal():
    h = parse_hierarchy([(ROOT, "A")])
    assert h.m == 1
    assert h.depth == 1
    assert labels_at_level(h, 1) == ("A",)


def test_duplicate_parent_rejected():
    edges = [(ROOT, "Finance"), (ROOT, "Game"), ("Finance", "Loan"), ("Game", "Loan")]
    with pytest.raises(DuplicateParent):
        parse_hierarchy(edges)


def test_cycle_rejected():
    with pytest.raises(CycleDetected):
        parse_hierarchy([(ROOT, "A"), ("B", "C"), ("C", "B")])


def test_undeclared_parent_rejected():
    with pytest.raises(UnknownLabel):
        parse_hierarchy([("X", "Y")])


def test_root_as_child_rejected():
    with pytest.raises(HierarchyError):
        parse_hierarchy([(ROOT, "A"), ("A", ROOT)])


def test_label_order_is_level_major(demo):
    levels = [demo.level[v] for v in demo.labels]
    assert levels == sorted(levels)
    assert demo.labels[:3] == ("Finance", "Video", "Game")


def test_canonical_edges_round_trip(demo):
    again = parse_hierarchy([tuple(e) for e in demo.canonical_edges()])
    assert again.labels == demo.labels
    assert again.parent == demo.parent
    assert again.level == demo.level


def test_load_hierarchy_file(tmp_path, demo):
    path = tmp_path / "h.tsv"
    path.write_text(
        "# comment line\n"
        + "".join(f"{p}\t{c}\n" for p, c in demo.canonical_edges())
    )
    h = load_hierarchy(path)
    assert h.labels == demo.labels


def test_load_hierarchy_malformed_line(tmp_path):
    path = tmp_path / "h.tsv"
    path.write_text("ROOT A no-tab-here\n")
    with pytest.raises(HierarchyError):
        load_hierarchy(path)


# ---------------------------------------------------------------------------
# queries


def test_labels_at_level(demo):
    assert labels_at_level(demo, 1) == ("Finance", "Video", "Game")
    assert labels_at_level(demo, 3) == (
        "Finance-Loan-Credit Loan",
        "Finance-Loan-Mortgage Loan",
    )
    with pytest.raises(LevelOutOfRange):
        labels_at_level(demo, 4)
    with pytest.raises(LevelOutOfRange):
        labels_at_level(demo, 0)


def test_siblings(demo):
    assert set(siblings_of(demo, "Finance")) == {"Video", "Game"}
    assert siblings_of(demo, "Finance-Investment") == ("Finance-Loan",)
    only_child = parse_hierarchy([(ROOT, "A"), ("A", "B")])
    assert siblings_of(only_child, "B") == ()
    with pytest.raises(UnknownLabel):
        siblings_of(demo, "nope")


def test_ancestors_descendants(demo):
    assert ancestors_of(demo, "Finance-Loan-Credit Loan") == ("Finance-Loan", "Finance")
    assert ancestors_of(demo, "Finance") == ()
    assert set(descendants_of(demo, "Game")) == {"Game-Moba", "Game-RPG", "Game-Strategy"}
    assert descendants_of(demo, "Finance-Investment") == ()
    assert set(descendants_of(demo, "Finance")) == {
        "Finance-Investment",
        "Finance-Loan",
        "Finance-Loan-Credit Loan",
        "Finance-Loan-Mortgage Loan",
    }


# ---------------------------------------------------------------------------
# assignments


def test_validate_assignment_examples(demo):
    ok = labels_to_bits(demo, ["Finance", "Finance-Investment"])
    assert validate_assignment(demo, ok) == []

    orphan = labels_to_bits(demo, ["Finance-Loan-Credit Loan"])
    assert validate_assignment(demo, orphan) == [
        ("Finance-Loan", "Finance-Loan-Credit Loan")
    ]

    assert validate_assignment(demo, np.zeros(demo.m, dtype=np.uint8)) == []

    with pytest.raises(LengthMismatch):
        validate_assignment(demo, np.zeros(demo.m + 1, dtype=np.uint8))


def test_closure_activates_ancestors(demo):
    bits = labels_to_bits(demo, ["Finance-Loan-Credit Loan"])
    fixed = closure(demo, bits)
    assert validate_assignment(demo, fixed) == []
    assert set(bits_to_labels(demo, fixed)) == {
        "Finance",
        "Finance-Loan",
        "Finance-Loan-Credit Loan",
    }


def test_bits_round_trip(demo):
    names = ("Finance", "Game", "Game-Moba")
    assert bits_to_labels(demo, labels_to_bits(demo, names)) == names
    with pytest.raises(UnknownLabel):
        labels_to_bits(demo, ["missing"])


# ---------------------------------------------------------------------------
# properties on random trees


def test_level_partition_property():
    rng = np.random.default_rng(3)
    for n in (1, 2, 7, 40, 200):
        h = random_tree(rng, n)
        union = [v for lvl in range(1, h.depth + 1) for v in h.level_index[lvl]]
        assert sorted(union) == sorted(h.labels)
        assert len(union) == len(set(union))  # pairwise disjoint


def test_level_partition_large_tree():
    h = random_tree(np.random.default_rng(9), 10_000, max_children=8)
    assert h.m == 10_000
    union = [v for lvl in range(1, h.depth + 1) for v in h.level_index[lvl]]
    assert len(union) == h.m and len(set(union)) == h.m
    for v in h.labels:
        u = h.parent[v]
        assert h.level[v] == (1 if u is None else h.level[u] + 1)


def test_sibling_identity_property():
    rng = np.random.default_rng(5)
    for _ in range(20):
        h = random_tree(rng, int(rng.integers(1, 60)))
        for v in h.labels:
            u = h.parent[v]
            peers = h.level_index[1] if u is None else h.children[u]
            assert set(siblings_of(h, v)) == set(peers) - {v}


def test_closure_validate_equivalence_property():
    rng = np.random.default_rng(7)
    for _ in range(30):
        h = random_tree(rng, int(rng.integers(1, 40)))
        bits = (rng.random(h.m) < 0.3).astype(np.uint8)
        ok = validate_assignment(h, bits) == []
        assert ok == bool(np.array_equal(bits, closure(h, bits)))


@st.composite
def tree_edges(draw):
    n = draw(st.integers(min_value=1, max_value=24))
    edges = []
    for i in range(n):
        parent = ROOT if i == 0 else (
            ROOT if draw(st.booleans()) else f"N{draw(st.integers(0, i - 1))}"
        )
        edges.append((parent, f"N{i}"))
    return edges


@settings(max_examples=60, deadline=None)
@given(tree_edges())
def test_hypothesis_tree_invariants(edges):
    h = parse_hierarchy(edges)
    assert h.m == len(edges)
    # every non-root label is exactly one level below its parent
    for v in h.labels:
        u = h.parent[v]
        assert h.level[v] == (1 if u is None else h.level[u] + 1)
    # sibling identity
    for v in h.labels:
        u = h.parent[v]
        peers = h.level_index[1] if u is None else h.children[u]
        assert set(siblings_of(h, v)) == set(peers) - {v}


def _validate_loop(h, bits):
    """The label-by-label check validate_assignment made of one row before it
    took rows."""
    return [(h.parent[v], v) for v in h.labels
            if h.parent[v] is not None and bits[h.index[v]] and not bits[h.index[h.parent[v]]]]


def test_validate_assignment_rows_match_label_loop():
    rng = np.random.default_rng(23)
    for _ in range(200):
        tree = random_tree(rng, int(rng.integers(1, 40)))
        rows = rng.integers(0, 2, size=(int(rng.integers(0, 9)), tree.m)).astype(np.uint8)
        want = [pair for row in rows for pair in _validate_loop(tree, row)]
        assert validate_assignment(tree, rows) == want
        for row in rows:
            assert validate_assignment(tree, row) == _validate_loop(tree, row)
    for shape in [(tree.m + 1,), (2, tree.m + 1), (1, 1, tree.m), ()]:
        with pytest.raises(LengthMismatch):
            validate_assignment(tree, np.zeros(shape, dtype=np.uint8))


def _repair_loop(h, bits):
    """The label-by-label repair the package used before repair_bits."""
    bits = bits.copy()
    for v in h.labels:  # level-major: parents precede children
        p = h.parent[v]
        if p is not None and bits[h.index[v]] and not bits[h.index[p]]:
            bits[h.index[v]] = 0
    return bits


def test_repair_bits_matches_label_loop():
    rng = np.random.default_rng(17)
    for _ in range(200):
        tree = random_tree(rng, int(rng.integers(1, 40)))
        rows = rng.integers(0, 2, size=(8, tree.m)).astype(np.uint8)
        repaired = repair_bits(tree, rows)
        assert repaired.dtype == np.uint8
        for row, got in zip(rows, repaired):
            assert np.array_equal(got, _repair_loop(tree, row))
            assert np.array_equal(repair_bits(tree, row), got)
            assert validate_assignment(tree, got) == []
    with pytest.raises(LengthMismatch):
        repair_bits(tree, np.zeros(tree.m + 1, dtype=np.uint8))


def _repair_per_level(h, bits):
    """repair_bits as it was before it read ``child_level_columns``: each
    call built every level's column array from the label names."""
    bits = np.asarray(bits)
    out = (bits != 0).astype(np.uint8)
    for lvl in range(2, h.depth + 1):
        cols = np.array([h.index[v] for v in h.level_index[lvl]])
        out[..., cols] &= out[..., h.parent_index[cols]]
    return out


@settings(max_examples=80, deadline=None)
@given(edges=tree_edges(), data=st.data())
def test_repair_bits_matches_per_level_columns(edges, data):
    h = parse_hierarchy(edges)
    rows = data.draw(st.integers(0, 6))
    bits = np.array(data.draw(st.lists(st.lists(st.integers(0, 3), min_size=h.m, max_size=h.m),
                                       min_size=rows, max_size=rows)),
                    dtype=np.uint8).reshape(rows, h.m)
    for x in (bits, *bits[:1]):  # rows of m, and one row alone
        got = repair_bits(h, x)
        assert got.dtype == np.uint8 and np.array_equal(got, _repair_per_level(h, x))
    assert [c.tolist() for c in h.child_level_columns] == [
        [h.index[v] for v in h.level_index[lvl]] for lvl in range(2, h.depth + 1)]
    assert not any(c.flags.writeable for c in h.child_level_columns)
