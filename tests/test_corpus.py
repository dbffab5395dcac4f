"""Record loading, indexing, the synthetic generator, and level splits."""

from __future__ import annotations

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hmlc.cli import main
from hmlc.corpus import (
    Corpus,
    CorpusError,
    IndexOutOfRange,
    MalformedLine,
    PathViolation,
    active_labels_at_level,
    load_corpus,
    parse_line,
    words,
    write_corpus,
)
from hmlc.hierarchy import HierarchyError, LabelHierarchy, LevelOutOfRange, UnknownLabel, validate_assignment
from hmlc.synthetic import STOP_PROB, TWO_PATH_PROB, demo_hierarchy, make_synthetic_corpus

from conftest import make_record


def _write_lines(path, objs):
    path.write_text("".join(json.dumps(o) + "\n" for o in objs))
    return path


def _rec(rid, labels, name="some words"):
    return {"id": rid, "fields": {"name": name}, "labels": labels}


# ---------------------------------------------------------------------------
# loading


def test_load_three_valid_lines(tmp_path, demo):
    path = _write_lines(tmp_path / "c.jsonl", [
        _rec("a", ["Finance"]),
        _rec("b", ["Finance", "Finance-Investment"]),
        _rec("c", ["Game", "Game-Moba"]),
    ])
    c = load_corpus(path, demo)
    assert len(c) == 3
    assert list(c.by_label["Finance"]) == [0, 1]
    assert list(c.by_label["Finance-Investment"]) == [1]
    assert list(c.by_label["Game-Moba"]) == [2]
    assert list(c.by_label["Video"]) == []


def test_membership_example(tmp_path, demo):
    path = _write_lines(tmp_path / "c.jsonl",
                        [_rec("x", ["Finance", "Finance-Investment"])])
    c = load_corpus(path, demo)
    assert 0 in c.by_label["Finance"] and 0 in c.by_label["Finance-Investment"]


def test_path_violation_strict_vs_repair(tmp_path, demo):
    path = _write_lines(tmp_path / "c.jsonl",
                        [_rec("x", ["Finance-Loan-Credit Loan"])])
    with pytest.raises(PathViolation):
        load_corpus(path, demo)
    c = load_corpus(path, demo, repair=True)
    bits = c.records[0].labels
    assert validate_assignment(demo, bits) == []
    for v in ("Finance", "Finance-Loan", "Finance-Loan-Credit Loan"):
        assert bits[demo.index[v]] == 1


def test_malformed_lines(tmp_path, demo):
    cases = [
        "not json at all",
        json.dumps({"fields": {"name": "x"}, "labels": []}),          # no id
        json.dumps({"id": "a", "labels": []}),                        # no fields
        json.dumps({"id": "a", "fields": {"name": ""}, "labels": []}),  # all empty
        json.dumps({"id": "a", "fields": {"name": "!!! ??"}, "labels": []}),  # no word
        json.dumps({"id": "a", "fields": {"name": "x"}, "labels": "Finance"}),
    ]
    for line in cases:
        path = tmp_path / "bad.jsonl"
        path.write_text(line + "\n")
        with pytest.raises(MalformedLine):
            load_corpus(path, demo)


def test_a_record_is_kept_exactly_when_a_field_has_a_word():
    # the emptiness check reads the tokenizer's word rule: text is lowercased
    # first, so upper case and the Kelvin sign (which lowercases to k) are words
    for name, kept in (("ABC", True), ("\u212a", True), ("x", True), ("é ü", False),
                       ("!!! ??", False)):
        raw = json.dumps({"id": "a", "fields": {"name": name}}).encode()
        assert bool(words(name)) == kept
        if kept:
            assert parse_line(raw, ("name", "comments"))[1] == {"name": name, "comments": ""}
        else:
            with pytest.raises(MalformedLine, match="no non-empty field"):
                parse_line(raw, ("name", "comments"))


def test_malformed_line_reports_line_number(tmp_path, demo):
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps(_rec("ok", ["Finance"])) + "\n{broken\n")
    with pytest.raises(MalformedLine, match=":2:"):
        load_corpus(path, demo)


def test_label_that_is_not_a_string_is_malformed(tmp_path, demo):
    # an unhashable label once escaped as a TypeError traceback
    path = _write_lines(tmp_path / "c.jsonl", [_rec("a", ["Finance"]), _rec("b", [["Finance"]])])
    with pytest.raises(MalformedLine, match=":2: 'labels' must be a list of label strings"):
        load_corpus(path, demo)


def test_line_that_is_not_utf8_is_malformed(tmp_path, demo):
    path = tmp_path / "c.jsonl"
    path.write_bytes(json.dumps(_rec("a", ["Finance"])).encode() + b"\n\xff\n")
    with pytest.raises(MalformedLine, match=":2: invalid UTF-8"):
        load_corpus(path, demo)


def test_unknown_label_rejected(tmp_path, demo):
    path = _write_lines(tmp_path / "c.jsonl", [_rec("a", ["NoSuchLabel"])])
    with pytest.raises(UnknownLabel):
        load_corpus(path, demo)


def test_zero_label_record_is_legal(tmp_path, demo):
    c = load_corpus(_write_lines(tmp_path / "c.jsonl", [_rec("a", [])]), demo)
    assert c.records[0].labels.sum() == 0


def test_unconfigured_fields_ignored_missing_empty(tmp_path, demo):
    path = _write_lines(tmp_path / "c.jsonl", [
        {"id": "a", "fields": {"name": "x", "bogus": "y"}, "labels": []},
    ])
    c = load_corpus(path, demo)
    assert c.records[0].fields == {"name": "x", "description": "", "comments": ""}


def test_write_load_round_trip(tmp_path, demo, demo_corpus):
    path = tmp_path / "out.jsonl"
    write_corpus(path, demo_corpus)
    back = load_corpus(path, demo)
    assert len(back) == len(demo_corpus)
    for a, b in zip(demo_corpus.records, back.records):
        assert a.id == b.id
        assert a.fields == b.fields
        assert np.array_equal(a.labels, b.labels)


# ---------------------------------------------------------------------------
# level splits


def test_active_labels_at_level_examples(demo):
    r1 = make_record(demo, "r1", ["Finance", "Finance-Investment"])
    r2 = make_record(demo, "r2", [
        "Finance", "Finance-Loan", "Finance-Loan-Credit Loan", "Game", "Game-Moba",
    ])
    c = Corpus(hierarchy=demo, records=[r1, r2])

    pos, neg = active_labels_at_level(c, 0, 1)
    assert pos == ("Finance",)
    assert neg == ("Video", "Game")

    pos, neg = active_labels_at_level(c, 0, 3)
    assert pos == ()
    assert set(neg) == {"Finance-Loan-Credit Loan", "Finance-Loan-Mortgage Loan"}

    pos, _ = active_labels_at_level(c, 1, 2)
    assert pos == ("Finance-Loan", "Game-Moba")

    with pytest.raises(IndexOutOfRange):
        active_labels_at_level(c, 2, 1)
    with pytest.raises(LevelOutOfRange):
        active_labels_at_level(c, 0, 4)


def test_level_split_partition_property(demo_corpus):
    h = demo_corpus.hierarchy
    for i in range(0, len(demo_corpus), 7):
        for lvl in range(1, h.depth + 1):
            pos, neg = active_labels_at_level(demo_corpus, i, lvl)
            assert set(pos) | set(neg) == set(h.level_index[lvl])
            assert set(pos) & set(neg) == set()


def test_inverted_index_mass_invariant(demo_corpus):
    total = sum(rows.size for rows in demo_corpus.by_label.values())
    assert total == int(demo_corpus.label_matrix.sum())


# ---------------------------------------------------------------------------
# synthetic generator


def test_synthetic_determinism(tmp_path, demo):
    a = make_synthetic_corpus(demo, 100, seed=7)
    b = make_synthetic_corpus(demo, 100, seed=7)
    pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_corpus(pa, a)
    write_corpus(pb, b)
    assert pa.read_bytes() == pb.read_bytes()
    c = make_synthetic_corpus(demo, 100, seed=8)
    assert not all(
        np.array_equal(x.labels, y.labels) for x, y in zip(a.records, c.records)
    )


def test_synthetic_records_are_path_consistent(demo_corpus):
    h = demo_corpus.hierarchy
    for r in demo_corpus.records:
        assert validate_assignment(h, r.labels) == []
        assert any(r.fields.values())


def expected_label_marginals(h: LabelHierarchy) -> dict[str, float]:
    """Closed-form P(label active) under the generator's sampling scheme."""
    p_path: dict[str, float] = {}
    for v in h.labels:  # level-major order guarantees parents come first
        u = h.parent[v]
        if u is None:
            p_path[v] = 1.0 / len(h.level_index[1])
        else:
            p_path[v] = p_path[u] * (1.0 - STOP_PROB) / len(h.children[u])
    out = {}
    for v, p in p_path.items():
        one = p
        two = 1.0 - (1.0 - p) ** 2
        out[v] = (1.0 - TWO_PATH_PROB) * one + TWO_PATH_PROB * two
    return out


def test_synthetic_marginals_match_generator_priors():
    h = demo_hierarchy()
    n = 10_000
    c = make_synthetic_corpus(h, n, seed=123)
    observed = c.label_matrix.mean(axis=0)
    expected = expected_label_marginals(h)
    for v in h.labels:
        want = expected[v]
        got = float(observed[h.index[v]])
        assert abs(got - want) <= 0.2 * want, (v, got, want)


def test_synthetic_tokens_carry_label_signal(demo_corpus):
    # each active label's pool token prefix appears in the record's text
    h = demo_corpus.hierarchy
    hits = 0
    for r in demo_corpus.records[:50]:
        text = " ".join(r.fields.values())
        for v in h.labels:
            if r.labels[h.index[v]]:
                hits += f"l{h.index[v]}w" in text
    assert hits > 0


def test_synthetic_rejects_bad_n(demo):
    with pytest.raises(ValueError):
        make_synthetic_corpus(demo, 0, seed=1)


_JUNK = st.recursive(st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
                     lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(st.text(max_size=6), inner, max_size=2), max_leaves=5)
_LABEL = st.sampled_from(demo_hierarchy().labels) | st.text(max_size=6) | _JUNK
_RECORD_LINE = st.fixed_dictionaries({}, optional={
    "id": st.text(max_size=4) | _JUNK,
    "fields": st.fixed_dictionaries({}, optional={
        f: st.text(max_size=12) | _JUNK for f in ("name", "description", "other")}) | _JUNK,
    "labels": st.lists(_LABEL, max_size=4) | _JUNK,
}).map(lambda obj: json.dumps(obj).encode())
_LINE = _RECORD_LINE | st.binary(max_size=12) | st.text(max_size=12).map(str.encode)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(lines=st.lists(_LINE, max_size=5), sep=st.sampled_from([b"\n", b"\r\n", b"\r"]),
       repair=st.booleans())
def test_fuzzed_corpus_loads_or_exits_input(demo, tmp_path_factory, lines, sep, repair):
    # every file loads or raises a documented error, which hmlc maps to exit 2
    # with a message and no traceback; sample-audit also exits 2 on no records
    root = tmp_path_factory.mktemp("corpus_fuzz")
    hierarchy = root / "h.tsv"
    hierarchy.write_text("".join(f"{p}\t{c}\n" for p, c in demo.canonical_edges()))
    src = root / "c.jsonl"
    src.write_bytes(sep.join(lines))
    try:
        corpus = load_corpus(src, demo, repair=repair)
        expected = 0 if corpus.records else 2
    except (CorpusError, HierarchyError):
        corpus, expected = None, 2
    if corpus is not None:
        assert all(isinstance(r.id, str) and any(r.fields.values()) for r in corpus.records)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["sample-audit", "--hierarchy", str(hierarchy), "--seed", "1",
                     "--corpus", str(src), "--draws", "5", "--out", str(root / "aud")]
                    + ["--repair"] * repair)
    assert code == expected
    assert err.getvalue().startswith("error: ") if expected else not err.getvalue()
