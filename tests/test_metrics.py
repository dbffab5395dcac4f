"""F1, KS, uniformity and alignment against brute-force oracles."""

from __future__ import annotations

import logging
import math
import tracemalloc

import numpy as np
import pytest

from hmlc import metrics
from hmlc.autodiff import ShapeMismatch
from hmlc.corpus import Corpus
from hmlc.hierarchy import parse_hierarchy
from hmlc.metrics import (
    _UNIFORMITY_BLOCK,
    EXACT_MAX,
    MC_PAIRS,
    TAU,
    EmbeddingDiagnostics,
    EmptyInput,
    MetricsError,
    NonUnitInput,
    NoPositivePairs,
    alignment,
    embedding_diagnostics,
    ks_statistic,
    micro_macro_f1,
    uniformity,
)

from conftest import make_record


# ----------------------------------------------------------------------- F1


def test_perfect_predictions():
    truth = np.array([[1, 0, 1], [0, 1, 0], [1, 1, 0]])
    r = micro_macro_f1(truth, truth)
    assert r.micro_f1 == 1.0
    assert r.macro_f1 == 1.0
    assert np.all(r.f1 == 1.0)
    assert list(r.support) == [2, 2, 1]


def test_pooled_micro_counts():
    # [DERIVED] pooled TP=2, FP=1, FN=1: micro P = 2/3, R = 2/3, F1 = 2/3
    truth = np.array([[1, 0], [1, 1]])
    pred = np.array([[1, 1], [1, 0]])
    r = micro_macro_f1(truth, pred)
    assert r.micro_precision == pytest.approx(2 / 3)
    assert r.micro_recall == pytest.approx(2 / 3)
    assert r.micro_f1 == pytest.approx(2 / 3)


def test_macro_zero_support_convention():
    # second label never appears and is never predicted: per-label F1 is 0,
    # macro over all labels averages it in, macro_f1_present leaves it out
    truth = np.array([[1, 0], [1, 0]])
    pred = np.array([[1, 0], [1, 0]])
    r = micro_macro_f1(truth, pred)
    assert r.f1[0] == 1.0 and r.f1[1] == 0.0
    assert r.macro_f1 == pytest.approx(0.5)
    assert r.macro_f1_present == pytest.approx(1.0)


def test_f1_brute_force_oracle():
    rng = np.random.default_rng(21)
    truth = (rng.uniform(size=(200, 7)) < 0.3).astype(np.uint8)
    pred = (rng.uniform(size=(200, 7)) < 0.3).astype(np.uint8)
    r = micro_macro_f1(truth, pred)
    tp = fp = fn = 0
    per_label = []
    for j in range(7):
        tpj = int(np.sum((truth[:, j] == 1) & (pred[:, j] == 1)))
        fpj = int(np.sum((truth[:, j] == 0) & (pred[:, j] == 1)))
        fnj = int(np.sum((truth[:, j] == 1) & (pred[:, j] == 0)))
        tp, fp, fn = tp + tpj, fp + fpj, fn + fnj
        p = tpj / (tpj + fpj) if tpj + fpj else 0.0
        q = tpj / (tpj + fnj) if tpj + fnj else 0.0
        per_label.append(2 * p * q / (p + q) if p + q else 0.0)
    assert r.micro_f1 == pytest.approx(2 * tp / (2 * tp + fp + fn))
    assert r.macro_f1 == pytest.approx(float(np.mean(per_label)))
    assert r.f1 == pytest.approx(per_label)


def test_f1_shape_checks():
    with pytest.raises(ShapeMismatch):
        micro_macro_f1(np.zeros((2, 3)), np.zeros((3, 2)))
    with pytest.raises(ShapeMismatch):
        micro_macro_f1(np.zeros(3), np.zeros(3))


def test_f1_report_dict():
    truth = np.array([[1, 0]])
    d = micro_macro_f1(truth, truth).to_dict()
    assert d["micro_f1"] == 1.0
    assert d["per_label_f1"] == [1.0, 0.0]
    assert d["support"] == [1, 0]


# ----------------------------------------------------------------------- KS


def test_ks_separated_distributions():
    pos = np.linspace(0.8, 0.99, 40)
    neg = np.linspace(0.01, 0.2, 40)
    r = ks_statistic(pos, neg)
    assert r.ks_exhaustive == pytest.approx(1.0)
    assert r.ks <= r.ks_exhaustive


def test_ks_identical_distributions():
    scores = np.linspace(0.1, 0.9, 30)
    r = ks_statistic(scores, scores)
    assert r.ks == 0.0
    assert r.ks_exhaustive == 0.0


def test_ks_worked_example():
    # [DERIVED] pos {0.9, 0.4}, neg {0.6, 0.1}: the exhaustive scan peaks at
    # t ∈ {0.4, 0.9} with |CDF_p − CDF_n| = 0.5
    r = ks_statistic([0.9, 0.4], [0.6, 0.1])
    assert r.ks_exhaustive == pytest.approx(0.5)
    assert r.ks <= 0.5


def test_ks_binned_never_exceeds_exhaustive():
    rng = np.random.default_rng(22)
    for _ in range(50):
        pos = rng.beta(4, 2, size=rng.integers(5, 60))
        neg = rng.beta(2, 4, size=rng.integers(5, 60))
        r = ks_statistic(pos, neg)
        assert r.ks <= r.ks_exhaustive + 1e-12
        assert len(r.thresholds) <= 10


def test_ks_exhaustive_matches_brute_force():
    rng = np.random.default_rng(23)
    pos = rng.uniform(size=25)
    neg = rng.uniform(size=35)
    r = ks_statistic(pos, neg)
    best = 0.0
    for t in np.concatenate([pos, neg]):
        cp = np.sum(pos < t) / pos.size
        cn = np.sum(neg < t) / neg.size
        best = max(best, abs(cp - cn))
    assert r.ks_exhaustive == pytest.approx(best, abs=1e-12)


def test_ks_monotone_transform_invariance():
    rng = np.random.default_rng(24)
    pos = rng.uniform(size=30)
    neg = rng.uniform(size=30)
    base = ks_statistic(pos, neg).ks_exhaustive
    warped = ks_statistic(np.exp(3 * pos), np.exp(3 * neg)).ks_exhaustive
    assert warped == pytest.approx(base, abs=1e-12)


def test_ks_validation():
    with pytest.raises(EmptyInput):
        ks_statistic([], [0.5])
    with pytest.raises(EmptyInput):
        ks_statistic([0.5], [])
    with pytest.raises(MetricsError):
        ks_statistic([0.5, np.nan], [0.5])
    d = ks_statistic([0.9, 0.4], [0.6, 0.1]).to_dict()
    assert set(d) == {"ks", "ks_exhaustive", "thresholds", "cdf_p", "cdf_n"}


# ---------------------------------------------------------------- uniformity


def test_uniformity_collapsed_is_zero():
    emb = np.tile([1.0, 0.0], (8, 1))
    assert uniformity(emb) == pytest.approx(0.0, abs=1e-12)


def test_uniformity_antipodal_pair():
    # [DERIVED] one pair at similarity −1: log exp(2·(−1−1)) = −4
    emb = np.array([[1.0, 0.0], [-1.0, 0.0]])
    assert uniformity(emb) == pytest.approx(-4.0, abs=1e-12)


def test_uniformity_prefers_spread():
    rng = np.random.default_rng(25)
    sphere = rng.normal(size=(64, 8))
    sphere /= np.linalg.norm(sphere, axis=1, keepdims=True)
    collapsed = np.tile(sphere[0], (64, 1))
    assert uniformity(sphere) < uniformity(collapsed)


def test_uniformity_exact_oracle():
    rng = np.random.default_rng(26)
    emb = rng.normal(size=(10, 4))
    emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    sims = [emb[i] @ emb[j] for i in range(10) for j in range(i + 1, 10)]
    expected = math.log(np.mean([math.exp(2.0 * (s - 1.0)) for s in sims]))
    assert uniformity(emb) == pytest.approx(expected, abs=1e-12)


def test_uniformity_monte_carlo_close_to_exact():
    # past EXACT_MAX embeddings uniformity samples MC_PAIRS pairs
    rng = np.random.default_rng(27)
    emb = rng.normal(size=(EXACT_MAX + 1, 6))
    emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    mc = uniformity(emb, seed=1)
    assert mc == pytest.approx(reference_uniformity(emb, TAU), abs=0.02)


def test_uniformity_validation():
    unit = np.array([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(NonUnitInput):
        uniformity(2 * unit)
    with pytest.raises(EmptyInput):
        uniformity(unit[:1])
    with pytest.raises(ShapeMismatch):
        uniformity(np.ones(3))


# ----------------------------------------------------------------- alignment


def _shared_label_setup():
    h = parse_hierarchy([("ROOT", "A"), ("A", "A1")])
    records = [make_record(h, f"r{i}", ["A", "A1"]) for i in range(3)]
    return h, Corpus(hierarchy=h, records=records)


def test_alignment_identical_embeddings_zero():
    h, corpus = _shared_label_setup()
    emb = np.tile([0.6, 0.8], (3, 1))
    assert alignment(corpus, emb, h) == pytest.approx(0.0, abs=1e-12)


def test_alignment_cosine_half_gram():
    # [DERIVED] three unit embeddings with pairwise similarity exactly 0.5
    # (Gram = 0.5 + 0.5·I via Cholesky); every sampled pair at both levels has
    # cosine distance 0.5, so the two-level sum is 1.0
    h, corpus = _shared_label_setup()
    gram = np.full((3, 3), 0.5) + 0.5 * np.eye(3)
    emb = np.linalg.cholesky(gram)
    assert np.allclose(emb @ emb.T, gram)
    assert alignment(corpus, emb, h) == pytest.approx(1.0, abs=1e-9)


def test_alignment_empty_level_contributes_zero(caplog):
    # two-level hierarchy where only level 1 has a shareable label
    h = parse_hierarchy([("ROOT", "A"), ("A", "A1"), ("A", "A2")])
    records = [
        make_record(h, "r0", ["A", "A1"]),
        make_record(h, "r1", ["A", "A2"]),
    ]
    corpus = Corpus(hierarchy=h, records=records)
    emb = np.array([[1.0, 0.0], [0.0, 1.0]])
    with caplog.at_level(logging.WARNING, logger="hmlc.metrics"):
        value = alignment(corpus, emb, h)
    assert value == pytest.approx(1.0)  # level 1 mean distance only
    assert any("level 2" in r.message for r in caplog.records)


def test_alignment_no_pairs_raises():
    h = parse_hierarchy([("ROOT", "A"), ("ROOT", "B")])
    records = [make_record(h, "r0", ["A"]), make_record(h, "r1", ["B"])]
    corpus = Corpus(hierarchy=h, records=records)
    emb = np.array([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(NoPositivePairs):
        alignment(corpus, emb, h)


def test_alignment_embedding_count_check():
    h, corpus = _shared_label_setup()
    with pytest.raises(ShapeMismatch):
        alignment(corpus, np.eye(2), h)


def test_embedding_diagnostics_bundle():
    h, corpus = _shared_label_setup()
    rng = np.random.default_rng(28)
    emb = rng.normal(size=(3, 4))
    emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    diag = embedding_diagnostics(corpus, emb, h, seed=0)
    assert diag == EmbeddingDiagnostics(uniformity=uniformity(emb, seed=0),
                                        alignment=alignment(corpus, emb, h, seed=0))


def reference_uniformity(emb, tau):
    """The exact path the blocked sum replaced: the whole Gram matrix and its
    strict upper triangle; kept as the reference."""
    gram = emb @ emb.T
    sims = gram[np.triu_indices(emb.shape[0], k=1)]
    return float(np.log(np.mean(np.exp(tau * (sims - 1.0)))))


@pytest.mark.parametrize("n", [2, 3, _UNIFORMITY_BLOCK - 1, _UNIFORMITY_BLOCK,
                               _UNIFORMITY_BLOCK + 1, 2048])
@pytest.mark.parametrize("tau", [0.5, TAU])
def test_blocked_uniformity_matches_gram_triangle(n, tau, monkeypatch):
    # the blocked sum is exact at any temperature; 0.5 weighs distant pairs more
    monkeypatch.setattr(metrics, "TAU", tau)
    rng = np.random.default_rng(n)
    emb = rng.normal(size=(n, 6))
    # a few duplicated and antipodal rows put weight near both ends of the kernel
    emb[n // 2] = emb[0]
    emb[-1] = -emb[0]
    emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    assert uniformity(emb) == pytest.approx(reference_uniformity(emb, tau), abs=1e-12)


def per_block_uniformity(emb, seed=0):
    """The uniformity that one reused buffer replaced, kept as the reference:
    fresh temporaries for each 256-row block, and all MC_PAIRS sampled pairs'
    rows gathered at once. Reads metrics.TAU, so a monkeypatched TAU reaches it."""
    n = emb.shape[0]
    if n <= EXACT_MAX:
        total = 0.0
        for lo in range(0, n, _UNIFORMITY_BLOCK):
            hi = min(lo + _UNIFORMITY_BLOCK, n)
            kernel = np.exp(metrics.TAU * (emb[lo:hi] @ emb[lo:].T - 1.0))
            total += np.triu(kernel[:, :hi - lo], k=1).sum() + kernel[:, hi - lo:].sum()
        mean = total / (n * (n - 1) // 2)
    else:
        rng = np.random.default_rng(seed)
        a = rng.integers(0, n, size=MC_PAIRS)
        b = rng.integers(0, n - 1, size=MC_PAIRS)
        b = np.where(b >= a, b + 1, b)
        sims = np.einsum("ij,ij->i", emb[a], emb[b])
        mean = np.mean(np.exp(metrics.TAU * (sims - 1.0)))
    return float(np.log(mean))


def _unit_rows(n, d, dtype, seed):
    emb = np.random.default_rng(seed).normal(size=(n, d)).astype(dtype)
    emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    return emb.astype(float)


@pytest.mark.parametrize("n", [2, 3, 17, 255, 256, 257, 511, 512, 513, 1000, 2000, 2047,
                               EXACT_MAX])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("tau", [0.5, TAU])
def test_exact_uniformity_equals_the_per_block_reference(n, dtype, tau, monkeypatch):
    monkeypatch.setattr(metrics, "TAU", tau)
    emb = _unit_rows(n, 16, dtype, seed=n)
    assert uniformity(emb) == per_block_uniformity(emb)


@pytest.mark.parametrize("n", [EXACT_MAX + 1, 2500, 5000, 40_000])
@pytest.mark.parametrize("d", [4, 16])
@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("tau", [0.5, TAU])
def test_monte_carlo_uniformity_equals_the_gathered_reference(n, d, seed, tau, monkeypatch):
    monkeypatch.setattr(metrics, "TAU", tau)
    emb = _unit_rows(n, d, np.float64, seed=n + d)
    assert uniformity(emb, seed=seed) == per_block_uniformity(emb, seed=seed)


@pytest.mark.parametrize("n,limit_mib", [(EXACT_MAX, 6), (EXACT_MAX + 1, 24)])
def test_uniformity_peak_memory_is_one_block(n, limit_mib):
    # one 256 x EXACT_MAX block is 4 MiB; once about 11 MB exact and 134 MB
    # Monte-Carlo, from numpy's temporaries and the gathered pair rows
    emb = _unit_rows(n, 16, np.float64, seed=n)
    uniformity(emb)  # BLAS sets up its own buffers on a first call
    tracemalloc.start()
    try:
        uniformity(emb)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_mib * 2**20
