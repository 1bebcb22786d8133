import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hocn import (coefficient_of_variation, edge_jsd, order_correlation,
                  variation_ratio)

LN2 = math.log(2.0)


def test_correlation_perfect_dependence():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    corr = order_correlation([a, 3.0 * a])
    assert corr[0, 1] == pytest.approx(1.0)
    assert corr[0, 0] == pytest.approx(1.0)


def test_correlation_anti():
    corr = order_correlation([np.array([[1.0, 2.0, 3.0]]),
                              np.array([[3.0, 2.0, 1.0]])])
    assert corr[0, 1] == pytest.approx(-1.0)


def test_correlation_zero_variance_is_nan():
    corr = order_correlation([np.ones((2, 2)), np.arange(4.0).reshape(2, 2)])
    assert np.isnan(corr[0, 1]) and np.isnan(corr[0, 0])
    assert not np.isnan(corr[1, 1])


def test_correlation_symmetric_and_bounded():
    rng = np.random.default_rng(0)
    mats = [rng.poisson(3.0, size=(10, 6)).astype(float) for _ in range(3)]
    corr = order_correlation(mats)
    assert np.allclose(corr, corr.T, equal_nan=True)
    assert np.nanmax(np.abs(corr)) <= 1.0
    assert np.allclose(np.diag(corr), 1.0)


def test_variation_ratio_hand_values():
    assert variation_ratio([2.0, 2.0, 2.0]) == 0.0
    assert variation_ratio([1.0, 3.0]) == pytest.approx(0.5)
    assert np.isnan(variation_ratio([0.0, 0.0]))
    assert np.isnan(variation_ratio([1.0, -1.0]))


def test_cv_per_pair_aggregation():
    mat = np.array([[1.0, 3.0, 0.0],    # cv 0.5 over {1, 3}
                    [2.0, 2.0, 2.0],    # cv 0.0
                    [5.0, 0.0, 0.0]])   # single contributor, skipped
    assert coefficient_of_variation(mat) == pytest.approx(0.25)


def test_jsd_identical_rows_zero():
    p = np.array([[0.2, 0.8], [1.0, 3.0]])
    assert np.allclose(edge_jsd(p, p), 0.0)


def test_jsd_disjoint_support_is_ln2():
    p = np.array([[1.0, 0.0]])
    q = np.array([[0.0, 1.0]])
    assert edge_jsd(p, q)[0] == pytest.approx(LN2)


def test_jsd_frozen_value():
    p = np.array([[0.5, 0.5]])
    q = np.array([[1.0, 0.0]])
    want = 0.5 * (0.5 * math.log(0.5 / 0.75) + 0.5 * math.log(0.5 / 0.25)
                  + 1.0 * math.log(1.0 / 0.75))
    assert want == pytest.approx(0.2157, abs=5e-4)
    assert edge_jsd(p, q)[0] == pytest.approx(want)


def test_jsd_zero_sum_rows_marked():
    p = np.array([[0.0, 0.0], [1.0, 1.0]])
    q = np.array([[1.0, 2.0], [1.0, 1.0]])
    vals = edge_jsd(p, q)
    assert np.isnan(vals[0]) and vals[1] == pytest.approx(0.0)


def test_jsd_uses_absolute_values():
    p = np.array([[-1.0, 1.0]])
    q = np.array([[1.0, 1.0]])
    assert edge_jsd(p, q)[0] == pytest.approx(0.0)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.floats(0, 100), st.floats(0, 100),
                          st.floats(0, 100)), min_size=1, max_size=8),
       st.lists(st.tuples(st.floats(0, 100), st.floats(0, 100),
                          st.floats(0, 100)), min_size=1, max_size=8))
def test_jsd_symmetric_and_bounded(rows_p, rows_q):
    n = min(len(rows_p), len(rows_q))
    p = np.array(rows_p[:n])
    q = np.array(rows_q[:n])
    ab = edge_jsd(p, q)
    ba = edge_jsd(q, p)
    assert np.allclose(ab, ba, equal_nan=True)
    finite = ab[~np.isnan(ab)]
    assert ((finite >= 0.0) & (finite <= LN2 + 1e-12)).all()
