"""Evaluation metrics: micro/macro-F1, the KS statistic over KS_BINS
equal-count bins, and the uniformity/alignment embedding diagnostics of
Wang & Isola (2020), uniformity at their temperature t = TAU = 2.

Uniformity holds one block at a time: one _UNIFORMITY_BLOCK × n buffer on the
exact path (4 MiB at n = EXACT_MAX); past it, the MC_PAIRS indices and
similarities plus the rows of _MC_BLOCK pairs (about 14 MiB at d = 16)."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .autodiff import ShapeMismatch
from .hierarchy import LabelHierarchy

log = logging.getLogger(__name__)


class MetricsError(ValueError):
    pass


class EmptyInput(MetricsError):
    pass


class NonUnitInput(MetricsError):
    pass


class NoPositivePairs(MetricsError):
    pass


# ---------------------------------------------------------------------------
# F1


@dataclass
class F1Report:
    f1: np.ndarray
    support: np.ndarray
    micro_precision: float
    micro_recall: float
    micro_f1: float
    macro_f1: float           # unweighted mean over all labels, 0/0 -> 0
    macro_f1_present: float   # mean over labels with nonzero support

    def to_dict(self) -> dict:
        return {
            "micro_precision": self.micro_precision,
            "micro_recall": self.micro_recall,
            "micro_f1": self.micro_f1,
            "macro_f1": self.macro_f1,
            "macro_f1_present": self.macro_f1_present,
            "per_label_f1": [float(x) for x in self.f1],
            "support": [int(x) for x in self.support],
        }


def _safe_div(num, den):
    num = np.asarray(num, dtype=float)
    den = np.asarray(den, dtype=float)
    out = np.zeros_like(num)
    np.divide(num, den, out=out, where=den > 0)
    return out


def micro_macro_f1(truth, pred) -> F1Report:
    truth = np.asarray(truth, dtype=np.int64)
    pred = np.asarray(pred, dtype=np.int64)
    if truth.shape != pred.shape or truth.ndim != 2:
        raise ShapeMismatch(f"truth {truth.shape} vs pred {pred.shape}")
    tp = (truth & pred).sum(axis=0)
    fp = ((1 - truth) & pred).sum(axis=0)
    fn = (truth & (1 - pred)).sum(axis=0)
    precision = _safe_div(tp, tp + fp)
    recall = _safe_div(tp, tp + fn)
    f1 = _safe_div(2 * precision * recall, precision + recall)
    support = truth.sum(axis=0)
    tp_all, fp_all, fn_all = int(tp.sum()), int(fp.sum()), int(fn.sum())
    micro_p = float(_safe_div(tp_all, tp_all + fp_all))
    micro_r = float(_safe_div(tp_all, tp_all + fn_all))
    micro_f1 = float(_safe_div(2 * tp_all, 2 * tp_all + fp_all + fn_all))
    present = support > 0
    return F1Report(
        f1=f1,
        support=support,
        micro_precision=micro_p,
        micro_recall=micro_r,
        micro_f1=micro_f1,
        macro_f1=float(f1.mean()) if f1.size else 0.0,
        macro_f1_present=float(f1[present].mean()) if present.any() else 0.0,
    )


# ---------------------------------------------------------------------------
# KS


@dataclass
class KsReport:
    ks: float
    thresholds: np.ndarray
    cdf_p: np.ndarray
    cdf_n: np.ndarray
    ks_exhaustive: float

    def to_dict(self) -> dict:
        return {
            "ks": self.ks,
            "ks_exhaustive": self.ks_exhaustive,
            "thresholds": [float(t) for t in self.thresholds],
            "cdf_p": [float(x) for x in self.cdf_p],
            "cdf_n": [float(x) for x in self.cdf_n],
        }


def _cdf(scores: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    # CDF(t) = fraction of scores strictly below t
    return np.searchsorted(np.sort(scores), thresholds, side="left") / scores.size


KS_BINS = 11


def ks_statistic(pos_scores, neg_scores) -> KsReport:
    """max_t |CDF_p(t) − CDF_n(t)| where CDF(t) counts scores strictly below t.

    Default thresholds follow the binned procedure: pool and sort all scores,
    split into KS_BINS equal-count bins, and use each bin's upper bound as a
    threshold, excluding the first bin. ``ks_exhaustive`` scans every unique
    score instead.
    """
    pos = np.asarray(pos_scores, dtype=float).ravel()
    neg = np.asarray(neg_scores, dtype=float).ravel()
    if pos.size == 0 or neg.size == 0:
        raise EmptyInput("ks_statistic needs nonempty positive and negative scores")
    if not (np.isfinite(pos).all() and np.isfinite(neg).all()):
        raise MetricsError("scores must be finite")
    pooled = np.sort(np.concatenate([pos, neg]), kind="stable")
    chunks = np.array_split(pooled, KS_BINS)
    thresholds = np.array([c[-1] for c in chunks[1:] if c.size])
    cdf_p = _cdf(pos, thresholds)
    cdf_n = _cdf(neg, thresholds)
    gaps = np.abs(cdf_p - cdf_n)
    ks = float(gaps.max()) if gaps.size else 0.0

    uniq = np.unique(pooled)
    ks_exh = float(np.abs(_cdf(pos, uniq) - _cdf(neg, uniq)).max())
    return KsReport(ks=ks, thresholds=thresholds, cdf_p=cdf_p, cdf_n=cdf_n,
                    ks_exhaustive=ks_exh)


# ---------------------------------------------------------------------------
# embedding diagnostics


UNIT_TOL = 1e-4  # how far a row's norm may be from 1 and still count as unit


def _require_unit(emb: np.ndarray) -> np.ndarray:
    emb = np.asarray(emb, dtype=float)
    if emb.ndim != 2:
        raise ShapeMismatch(f"embeddings must be 2D, got {emb.shape}")
    norms = np.linalg.norm(emb, axis=1)
    bad = np.abs(norms - 1.0) > UNIT_TOL
    if bad.any():
        raise NonUnitInput(f"{int(bad.sum())} embeddings deviate from unit norm "
                           f"(worst {float(np.abs(norms - 1.0).max()):.2e})")
    return emb


TAU, EXACT_MAX, MC_PAIRS, PAIRS_PER_LEVEL = 2.0, 2048, 500_000, 256
# similarity-matrix rows (exact) and sampled pairs (Monte-Carlo) held at a time
_UNIFORMITY_BLOCK, _MC_BLOCK = 256, 8192


def uniformity(embeddings, seed: int = 0) -> float:
    """log mean over distinct pairs of exp{TAU(s_x·s_y − 1)}. All unordered
    pairs up to EXACT_MAX embeddings; MC_PAIRS sampled pairs beyond."""
    emb = _require_unit(embeddings)
    n = emb.shape[0]
    if n < 2:
        raise EmptyInput("uniformity needs at least two embeddings")
    if n <= EXACT_MAX:
        # rows lo:hi against columns lo:, so only the strict upper triangle
        # of the similarity matrix is summed and no n×n array is built
        buf, total = np.empty(min(n, _UNIFORMITY_BLOCK) * n), 0.0
        for lo in range(0, n, _UNIFORMITY_BLOCK):
            hi = min(lo + _UNIFORMITY_BLOCK, n)
            kernel = buf[:(hi - lo) * (n - lo)].reshape(hi - lo, n - lo)
            np.matmul(emb[lo:hi], emb[lo:].T, out=kernel)
            kernel -= 1.0
            kernel *= TAU
            np.exp(kernel, out=kernel)
            total += np.triu(kernel[:, :hi - lo], k=1).sum() + kernel[:, hi - lo:].sum()
        mean = total / (n * (n - 1) // 2)
    else:
        rng = np.random.default_rng(seed)
        a = rng.integers(0, n, size=MC_PAIRS)
        b = rng.integers(0, n - 1, size=MC_PAIRS)
        b += b >= a  # distinct partner
        sims = np.empty(MC_PAIRS)
        for lo in range(0, MC_PAIRS, _MC_BLOCK):
            rows = slice(lo, lo + _MC_BLOCK)
            np.einsum("ij,ij->i", emb[a[rows]], emb[b[rows]], out=sims[rows])
        sims -= 1.0
        sims *= TAU
        mean = np.mean(np.exp(sims, out=sims))
    return float(np.log(mean))


def _level_pair(rng, by_label_rows: list[np.ndarray]):
    """One positive pair at a level: pick a level-label with at least two
    members uniformly, then two distinct records sharing it. Returns None
    when no label at the level has two members."""
    eligible = [rows for rows in by_label_rows if rows.size >= 2]
    if not eligible:
        return None
    rows = eligible[rng.integers(0, len(eligible))]
    i, j = rng.choice(rows, size=2, replace=False)
    return int(i), int(j)


def alignment(corpus, embeddings, h: LabelHierarchy, seed: int = 0) -> float:
    """Σ_ℓ mean cosine distance (1 − s·s⁺) over PAIRS_PER_LEVEL sampled pairs
    of records that share a label at level ℓ. A level with no shareable label
    contributes 0 (logged); if no level has any pair, raises NoPositivePairs.
    """
    emb = _require_unit(embeddings)
    if emb.shape[0] != len(corpus):
        raise ShapeMismatch(f"{emb.shape[0]} embeddings vs {len(corpus)} records")
    rng = np.random.default_rng(seed)
    total = 0.0
    any_pairs = False
    for lvl in range(1, h.depth + 1):
        by_label_rows = [corpus.by_label[v] for v in h.level_index[lvl]]
        dists = []
        for _ in range(PAIRS_PER_LEVEL):
            pair = _level_pair(rng, by_label_rows)
            if pair is None:
                break
            i, j = pair
            dists.append(1.0 - float(emb[i] @ emb[j]))
        if dists:
            any_pairs = True
            total += float(np.mean(dists))
        else:
            log.warning("alignment: no positive pairs at level %d, contributing 0", lvl)
    if not any_pairs:
        raise NoPositivePairs("no level of the hierarchy has two records sharing a label")
    return total


@dataclass
class EmbeddingDiagnostics:
    uniformity: float
    alignment: float


def embedding_diagnostics(corpus, embeddings, h: LabelHierarchy,
                          seed: int = 0) -> EmbeddingDiagnostics:
    return EmbeddingDiagnostics(uniformity=uniformity(embeddings, seed=seed),
                                alignment=alignment(corpus, embeddings, h, seed=seed))
