import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hocn import (EvaluationError, MetricError, evaluate, hits_at_k, mrr)
from hocn.graph import PairBatch

from conftest import batch_of


def test_hits_threshold_example():
    # threshold is the 2nd highest negative (0.7); only 0.9 clears it
    assert hits_at_k([0.9, 0.4], [0.8, 0.7, 0.1], 2) == 0.5


def test_mrr_two_positive_example():
    neg = np.array([0.8, 0.7])
    assert mrr([0.9, 0.4], neg) == pytest.approx((1 + 1 / 3) / 2)


def test_constant_scores_all_miss():
    positives = batch_of([(0, 1), (2, 3)])
    negatives = batch_of([(0, 3), (1, 2), (0, 2)])
    report = evaluate(lambda pairs: np.ones(pairs.shape[0]),
                      positives, negatives, ks=(1, 2, 3))
    assert all(v == 0.0 for v in report.hits.values())
    assert report.mrr == pytest.approx(1.0 / 4.0)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=2, max_size=10),
       st.lists(st.floats(-10, 10), min_size=3, max_size=10))
def test_hits_monotone_in_k(pos, neg):
    vals = [hits_at_k(pos, neg, k) for k in range(1, len(neg) + 1)]
    assert vals == sorted(vals)


def test_hits_frozen_example():
    pos = [3.0, 1.0]
    neg = [2.0, 0.5, 0.1]
    # threshold at K=2 is the 2nd highest negative (0.5); only 3.0 and 1.0 beat it
    assert hits_at_k(pos, neg, 2) == 1.0
    # K=1: threshold 2.0; only one positive above
    assert hits_at_k(pos, neg, 1) == 0.5


def test_hits_ties_are_pessimistic():
    assert hits_at_k([2.0], [2.0, 1.0], 1) == 0.0
    assert hits_at_k([2.0 + 1e-9], [2.0, 1.0], 1) == 1.0


def test_hits_requires_enough_negatives():
    with pytest.raises(MetricError):
        hits_at_k([1.0], [0.5], 2)
    with pytest.raises(MetricError):
        hits_at_k([], [0.5, 0.2], 1)


@pytest.mark.parametrize("k", [0, -3])
def test_hits_cutoff_below_one_is_a_metric_error(k):
    with pytest.raises(MetricError, match=f"got {k}"):
        hits_at_k([1.0], [0.5, 0.2], k)


def test_mrr_frozen_example():
    neg = np.array([3.0, 1.0])
    # ranks: pos 4.0 -> 1, pos 2.0 -> 2, pos 0.5 -> 3; mean(1, 1/2, 1/3)
    got = mrr([4.0, 2.0, 0.5], neg)
    assert got == pytest.approx((1 + 0.5 + 1 / 3) / 3)


def test_mrr_counts_ties_against_positive():
    neg = np.array([2.0, 1.0])
    assert mrr([2.0], neg) == pytest.approx(0.5)


def _mrr_loop(pos, per_positive_neg):
    """The per-positive loop mrr replaced, as the reference."""
    ranks = [1 + int(np.sum(neg >= p)) for p, neg in zip(pos, per_positive_neg)]
    return float(np.mean([1.0 / r for r in ranks]))


def test_mrr_equals_per_positive_loop_on_tied_scores():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        pos = rng.integers(0, 8, size=50).astype(float)
        shared = rng.integers(0, 8, size=70).astype(float)
        own = rng.integers(0, 8, size=(50, 30)).astype(float)
        assert mrr(pos, shared) == _mrr_loop(pos, [shared] * len(pos)), seed
        assert mrr(pos, own) == _mrr_loop(pos, own), seed


def test_mrr_rejects_nan_and_mismatched_rows():
    with pytest.raises(MetricError, match="NaN"):
        mrr([1.0, np.nan], [0.5, 0.2])
    with pytest.raises(MetricError, match="NaN"):
        mrr([1.0], [[0.5, np.nan]])
    with pytest.raises(MetricError, match="2 rows"):
        mrr([1.0], [[0.5], [0.2]])
    with pytest.raises(MetricError):
        mrr([1.0], [])
    with pytest.raises(MetricError, match="positive scores"):
        mrr([], [0.5])


def test_hits_at_k_rejects_nan():
    """A NaN score is an error, as in ``mrr``. Unchecked, a NaN negative
    made the threshold NaN and Hits 0.0, and a NaN positive was a miss."""
    with pytest.raises(MetricError, match="NaN"):
        hits_at_k([1.0, 2.0], [np.nan, 0.5, 0.1], 1)
    with pytest.raises(MetricError, match="NaN"):
        hits_at_k([np.nan, 2.0], [0.5, 0.1], 1)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(-50, 50), min_size=3, max_size=25, unique=True),
       st.data())
def test_rank_metrics_invariant_to_monotone_transforms(scores, data):
    split = data.draw(st.integers(1, len(scores) - 2))
    pos = np.array(scores[:split], dtype=float)
    neg = np.array(scores[split:], dtype=float)
    k = data.draw(st.integers(1, len(neg)))

    def shift(x):
        return 3.0 * x + 7.0

    assert hits_at_k(pos, neg, k) == hits_at_k(shift(pos), shift(neg), k)
    before = mrr(pos, neg)
    after = mrr(shift(pos), shift(neg))
    assert before == pytest.approx(after)


def test_evaluate_end_to_end():
    positives = batch_of([(0, 1), (2, 3), (4, 5)])
    negatives = batch_of([(0, 2), (1, 3), (1, 4), (3, 5)])
    table = {(0, 1): 5.0, (2, 3): 0.4, (4, 5): 2.0,
             (0, 2): 1.0, (1, 3): 0.2, (1, 4): 3.0, (3, 5): 0.1}
    fn = lambda pairs: np.array([table[tuple(p)] for p in pairs])
    report = evaluate(fn, positives, negatives, ks=(1, 2))
    assert report.hits[1] == pytest.approx(1 / 3)
    assert report.hits[2] == pytest.approx(2 / 3)
    # ranks: 5.0 -> 1, 0.4 -> 3, 2.0 -> 2
    assert report.mrr == pytest.approx((1 + 1 / 3 + 1 / 2) / 3)
    assert report.n_pos == 3 and report.n_neg == 4


def test_evaluate_names_nonfinite_pair():
    positives = batch_of([(0, 1)])
    negatives = batch_of([(2, 3), (4, 5)])

    def fn(pairs):
        return np.array([np.nan if tuple(p) == (4, 5) else 1.0 for p in pairs])

    with pytest.raises(EvaluationError) as info:
        evaluate(fn, positives, negatives, ks=(1,))
    assert "(4, 5)" in str(info.value)
