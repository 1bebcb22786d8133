"""Ranking metrics for link prediction: Hits@K against a shared negative set
and mean reciprocal rank, both with pessimistic tie handling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError, MetricError
from .graph import PairBatch


@dataclass
class EvalReport:
    """One evaluation run: hits per cutoff, MRR, and the counts behind them."""

    hits: dict
    mrr: float
    n_pos: int
    n_neg: int
    seed: int = 0


def hits_at_k(pos_scores, neg_scores, k: int) -> float:
    """Fraction of positives strictly above the K-th highest negative score."""
    pos = np.asarray(pos_scores, dtype=np.float64)
    neg = np.asarray(neg_scores, dtype=np.float64)
    if k < 1:
        raise MetricError(f"K must be >= 1, got {k}")
    if neg.size < k:
        raise MetricError(f"need at least K={k} negatives, got {neg.size}")
    if pos.size == 0:
        raise MetricError("no positive scores")
    threshold = np.partition(neg, neg.size - k)[neg.size - k]
    return float(np.mean(pos > threshold))


def mrr(per_positive) -> float:
    """Mean of 1/rank with rank = 1 + #(negatives >= positive)."""
    ranks = []
    for pos_score, neg_scores in per_positive:
        neg = np.asarray(neg_scores, dtype=np.float64)
        if neg.size == 0:
            raise MetricError("empty negative set for a positive")
        ranks.append(1 + int(np.sum(neg >= pos_score)))
    if not ranks:
        raise MetricError("no positives")
    return float(np.mean([1.0 / r for r in ranks]))


def evaluate(score_fn, positives: PairBatch, negatives: PairBatch,
             ks=(20, 50, 100), seed: int = 0) -> EvalReport:
    """Score both batches with ``score_fn(pairs) -> array`` and build a report.

    The negative set is shared: Hits@K thresholds on it directly, MRR ranks
    each positive against the whole set.
    """
    if len(positives) == 0:
        raise MetricError("no positive pairs to evaluate")
    pos_scores = np.asarray(score_fn(positives.pairs), dtype=np.float64)
    neg_scores = np.asarray(score_fn(negatives.pairs), dtype=np.float64)
    for name, scores, batch in (("positive", pos_scores, positives),
                                ("negative", neg_scores, negatives)):
        bad = np.nonzero(~np.isfinite(scores))[0]
        if bad.size:
            u, v = batch.pairs[bad[0]]
            raise EvaluationError(f"non-finite score for {name} pair ({u}, {v})")
    hits = {int(k): hits_at_k(pos_scores, neg_scores, int(k)) for k in ks}
    mean_rr = mrr((s, neg_scores) for s in pos_scores)
    return EvalReport(hits=hits, mrr=mean_rr, n_pos=len(positives),
                      n_neg=len(negatives), seed=seed)
