import csv
import io
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import hocn.cli
import hocn.diagnostics
from hocn import (coefficient_of_variation, edge_jsd, order_correlation,
                  variation_ratio)

LN2 = math.log(2.0)


# Dense references: the densifying implementations the sparse ones replaced,
# except that the correlation sums its centred products with math.fsum. The
# near-zero correlations between orthogonalized orders cancel, and np.dot
# there is off by up to ~1e-11 relative from the exact rational value.

def ref_order_correlation(matrices) -> np.ndarray:
    flats = [np.asarray(m).ravel().astype(np.float64) for m in matrices]
    k = len(flats)
    out = np.full((k, k), np.nan)
    stds = [f.std() for f in flats]
    for a in range(k):
        for b in range(a, k):
            if stds[a] == 0.0 or stds[b] == 0.0:
                continue
            ca = flats[a] - flats[a].mean()
            cb = flats[b] - flats[b].mean()
            r = float(math.fsum(ca * cb) / (len(ca) * stds[a] * stds[b]))
            out[a, b] = out[b, a] = min(1.0, max(-1.0, r))
    return out


def ref_coefficient_of_variation(matrix) -> float:
    per_row = []
    for row in np.abs(np.asarray(matrix, dtype=np.float64)):
        nz = row[row > 0]
        if nz.size >= 2:
            per_row.append(variation_ratio(nz))
    if not per_row:
        return float("nan")
    return float(np.nanmean(per_row))


def ref_edge_jsd(p_rows, q_rows) -> np.ndarray:
    p = np.abs(np.asarray(p_rows)).astype(np.float64)
    q = np.abs(np.asarray(q_rows)).astype(np.float64)
    out = np.full(p.shape[0], np.nan)
    ps = p.sum(axis=1)
    qs = q.sum(axis=1)
    ok = (ps > 0) & (qs > 0)
    pt = p[ok] / ps[ok, None]
    qt = q[ok] / qs[ok, None]
    mt = 0.5 * (pt + qt)

    def kl(a, m):
        with np.errstate(divide="ignore", invalid="ignore"):
            term = a * (np.log(a) - np.log(m))
        return np.where(a > 0, term, 0.0).sum(axis=1)

    vals = 0.5 * (kl(pt, mt) + kl(qt, mt))
    out[ok] = np.clip(vals, 0.0, LN2)
    return out


def assert_agree(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12, equal_nan=True)


def random_rows(rng, rows, cols, signed):
    """Sparse count-like rows, with zero-sum rows and single-contributor rows;
    ``signed`` gives the mixed signs of orthogonalized rows."""
    a = rng.poisson(2.0, (rows, cols)) * (rng.random((rows, cols)) < 0.3)
    a = a.astype(np.float64)
    if signed:
        a *= rng.normal(size=a.shape)
    a[rng.random(rows) < 0.2] = 0.0
    single = np.flatnonzero(rng.random(rows) < 0.2)
    a[single] = 0.0
    a[single, rng.integers(0, cols, single.size)] = rng.uniform(0.5, 4.0, single.size)
    return a


def oracle_cases():
    rng = np.random.default_rng(7)
    cases = []
    for signed in (False, True):
        for rows, cols in ((1, 9), (12, 30), (40, 7), (64, 120)):
            cases.append([random_rows(rng, rows, cols, signed) for _ in range(3)])
    cases.append([np.zeros((5, 6)), np.full((5, 6), 3.0), random_rows(rng, 5, 6, True)])
    cases.append([np.zeros((1, 4)), np.full((1, 4), -2.0), np.array([[0.0, 1.0, 0.0, 2.0]])])
    return cases


@pytest.mark.parametrize("as_input", [np.asarray, sp.csr_matrix], ids=["dense", "csr"])
@pytest.mark.parametrize("case", range(len(oracle_cases())))
def test_diagnostics_match_dense_reference(case, as_input):
    mats = oracle_cases()[case]
    given_mats = [as_input(m) for m in mats]
    assert_agree(order_correlation(given_mats), ref_order_correlation(mats))
    for m, g in zip(mats, given_mats):
        assert_agree(coefficient_of_variation(g), ref_coefficient_of_variation(m))
    for a, b in ((0, 1), (0, 2), (1, 2), (2, 2)):
        assert_agree(edge_jsd(given_mats[a], given_mats[b]), ref_edge_jsd(mats[a], mats[b]))


def test_sparse_diagnostics_allocate_no_dense_batch():
    rows, cols = 256, 100_000
    rng = np.random.default_rng(0)
    mats = [sp.coo_matrix((rng.standard_normal(nnz), (rng.integers(0, rows, nnz),
                                                      rng.integers(0, cols, nnz))),
                          shape=(rows, cols)).tocsr()
            for nnz in (256, 2_560, 17_920)]  # 1e-5, 1e-4 and 7e-4 of the entries
    tracemalloc.start()
    try:
        order_correlation(mats)
        for m in mats:
            coefficient_of_variation(m)
        edge_jsd(mats[0], mats[-1])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * rows * cols * 8, peak
    assert "as_dense" not in vars(hocn.diagnostics)


def test_diagnose_cli_matches_dense_reference(monkeypatch, capsys):
    argv = ["diagnose", "--synthetic", "200,3", "--seed", "4"]

    def rows():
        assert hocn.cli.main(argv) == 0
        body = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
        return list(csv.DictReader(io.StringIO("\n".join(body))))

    got = rows()
    monkeypatch.setattr(hocn.cli, "order_correlation",
                        lambda mats: ref_order_correlation([m.toarray() for m in mats]))
    monkeypatch.setattr(hocn.cli, "coefficient_of_variation",
                        lambda m: ref_coefficient_of_variation(m.toarray()))
    monkeypatch.setattr(hocn.cli, "edge_jsd",
                        lambda p, q: ref_edge_jsd(p.toarray(), q.toarray()))
    want = rows()
    assert [(r["quantity"], r["a"], r["b"]) for r in got] == [
        (r["quantity"], r["a"], r["b"]) for r in want]
    np.testing.assert_allclose([float(r["value"]) for r in got],
                               [float(r["value"]) for r in want], rtol=1e-12, equal_nan=True)


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
