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


def hits_at_k(pos_scores, neg_scores, k: int) -> float:
    """Fraction of positives strictly above the K-th highest negative score.
    A NaN score is a MetricError, as in ``mrr``."""
    pos = np.asarray(pos_scores, dtype=np.float64)
    neg = np.asarray(neg_scores, dtype=np.float64)
    if k < 1:
        raise MetricError(f"K must be >= 1, got {k}")
    if neg.size < k:
        raise MetricError(f"need at least K={k} negatives, got {neg.size}")
    if pos.size == 0:
        raise MetricError("no positive scores")
    if np.isnan(pos).any() or np.isnan(neg).any():
        raise MetricError("NaN score")
    threshold = np.partition(neg, neg.size - k)[neg.size - k]
    return float(np.mean(pos > threshold))


def mrr(pos_scores, neg_scores) -> float:
    """Mean of 1/rank over the positives, with rank = 1 + #(negatives >=
    positive), so ties count against the positive.

    ``neg_scores`` is one negative set shared by every positive (1-D), which
    is sorted once and searched for all positives, or each positive's own
    negatives as the rows of an (n_pos, n_neg) array. A NaN score is a
    MetricError.
    """
    pos = np.asarray(pos_scores, dtype=np.float64)
    neg = np.asarray(neg_scores, dtype=np.float64)
    if pos.ndim != 1 or pos.size == 0:
        raise MetricError(f"need a non-empty 1-D array of positive scores, got shape {pos.shape}")
    if neg.ndim not in (1, 2) or neg.shape[-1] == 0:
        raise MetricError("empty negative set for a positive")
    if neg.ndim == 2 and neg.shape[0] != pos.size:
        raise MetricError(f"{neg.shape[0]} rows of negatives for {pos.size} positives")
    if np.isnan(pos).any() or np.isnan(neg).any():
        raise MetricError("NaN score")
    if neg.ndim == 1:
        ranks = 1 + neg.size - np.searchsorted(np.sort(neg), pos, side="left")
    else:
        ranks = 1 + np.count_nonzero(neg >= pos[:, None], axis=1)
    return float(np.mean(1.0 / ranks))


def evaluate(score_fn, positives: PairBatch, negatives: PairBatch,
             ks=(20, 50, 100)) -> EvalReport:
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
    mean_rr = mrr(pos_scores, neg_scores)
    return EvalReport(hits=hits, mrr=mean_rr, n_pos=len(positives), n_neg=len(negatives))
