"""Redundancy and over-smoothing diagnostics.

Emits data, not figures: cross-order Pearson correlations, the coefficient
of variation of common-neighbor coefficients, and per-edge Jensen-Shannon
divergence between the count distributions of two orders.

Every function accepts (batch, n) matrices as scipy sparse or dense arrays
and reads only their stored entries: a sparse input is read as canonical
CSR, and a dense one is turned into it through one boolean mask. No
function builds a (batch, n) array, so the cost follows the entries a
feature matrix holds (a small fraction of batch x n) and not its shape.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

LN2 = float(np.log(2.0))


def _stored(m) -> sp.csr_matrix:
    """Canonical float64 CSR of a sparse or dense matrix (a 1-D array is one
    row), storing no zero. A CSR input already in that form is not copied."""
    if sp.issparse(m):
        out = sp.csr_matrix(m, dtype=np.float64)
        if not (out.has_canonical_format and out.data.all()):
            out = out.copy()
            out.sum_duplicates()
            out.eliminate_zeros()
        return out
    a = np.atleast_2d(np.asarray(m, dtype=np.float64))
    flat = a.ravel()
    # A boolean mask: flatnonzero on the float array itself is ~7x slower.
    where = np.flatnonzero(flat != 0)
    n = a.shape[1]
    indptr = np.searchsorted(where, np.arange(a.shape[0] + 1) * n)
    return sp.csr_matrix((flat[where], where % n, indptr), shape=a.shape)


def _rows(m: sp.csr_matrix) -> np.ndarray:
    """Row index of each stored entry."""
    return np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))


def _centred(m: sp.csr_matrix, size: int) -> tuple[float, float]:
    """Mean and sum of squared deviations over all ``size`` entries of m,
    implicit zeros included (two-pass); the sum is exactly 0 for a constant
    matrix."""
    x = m.data
    if x.size == 0:
        return 0.0, 0.0
    if x.size == size and (x == x[0]).all():
        return float(x[0]), 0.0
    mean = x.sum() / size
    return mean, float(((x - mean) ** 2).sum() + (size - x.size) * mean ** 2)


def order_correlation(matrices) -> np.ndarray:
    """K x K Pearson matrix over all entries; zero-variance orders give nan.

    A matrix's squared deviations are those of its stored entries plus
    (N - nnz)·mean² for N = batch x n entries; the cross term of two orders
    is Σ a∘b − N·mean_a·mean_b, from one sparse product.
    """
    mats = [_stored(m) for m in matrices]
    k = len(mats)
    out = np.full((k, k), np.nan)
    if k == 0:
        return out
    shape = mats[0].shape
    if any(m.shape != shape for m in mats):
        raise ValueError(f"matrix shapes differ: {[m.shape for m in mats]}")
    size = shape[0] * shape[1]
    means, ss = zip(*(_centred(m, size) for m in mats))
    for a in range(k):
        for b in range(a, k):
            if ss[a] == 0.0 or ss[b] == 0.0:
                continue
            cross = ss[a] if a == b else (
                mats[a].multiply(mats[b]).sum() - size * means[a] * means[b])
            r = float(cross / (np.sqrt(ss[a]) * np.sqrt(ss[b])))
            out[a, b] = out[b, a] = min(1.0, max(-1.0, r))
    return out


def variation_ratio(values) -> float:
    """Population std over mean of a value sequence; nan if mean <= 0."""
    vals = np.asarray(values, dtype=np.float64).ravel()
    mean = vals.mean() if vals.size else 0.0
    if mean <= 0.0:
        return float("nan")
    return float(vals.std() / mean)


def coefficient_of_variation(matrix) -> float:
    """Spread of common-neighbor coefficients, high means low over-smoothing.

    Takes each pair's nonzero coefficient row (absolute values), measures
    std/mean within it, and averages over pairs with at least two
    contributors. This is the contrast between a pair's own common
    neighbors, the quantity that collapses when high orders make every
    contributor look alike.
    """
    m = _stored(matrix)
    x = np.abs(m.data)
    rows = _rows(m)
    keep = x > 0  # skips NaN entries
    x, rows = x[keep], rows[keep]
    count = np.bincount(rows, minlength=m.shape[0])
    ok = count >= 2
    if not ok.any():
        return float("nan")
    mean = np.bincount(rows, weights=x, minlength=m.shape[0]) / np.maximum(count, 1)
    dev = np.bincount(rows, weights=(x - mean[rows]) ** 2, minlength=m.shape[0])
    return float(np.nanmean(np.sqrt(dev[ok] / count[ok]) / mean[ok]))


def _row_distributions(m: sp.csr_matrix) -> tuple[sp.csr_matrix, np.ndarray]:
    """abs(m) with each row divided by its sum, and the row sums."""
    x = np.abs(m.data)
    rows = _rows(m)
    sums = np.bincount(rows, weights=x, minlength=m.shape[0])
    dist = sp.csr_matrix((x / sums[rows], m.indices, m.indptr), shape=m.shape)
    return dist, sums


def _row_entropy(m: sp.csr_matrix) -> np.ndarray:
    """Per row, −Σ x log x over the stored entries (0 log 0 = 0)."""
    x = m.data
    # An entry far below its row sum can underflow to 0 when divided by it.
    logs = np.log(x, out=np.zeros_like(x), where=x > 0)
    return np.bincount(_rows(m), weights=-x * logs, minlength=m.shape[0])


def edge_jsd(p_rows, q_rows) -> np.ndarray:
    """Per-row Jensen-Shannon divergence (natural log, values in [0, ln 2]).

    Rows are mapped through abs() before normalization, since orthogonalized
    features may carry negative entries; zero-sum rows yield nan markers.
    With m = (p + q)/2 stored on the union of the two supports, the value is
    the entropy H(m) − ½H(p) − ½H(q), so logs are taken only there.
    """
    p, q = _stored(p_rows), _stored(q_rows)
    if p.shape != q.shape:
        raise ValueError(f"row shapes differ: {p.shape} vs {q.shape}")
    pt, ps = _row_distributions(p)
    qt, qs = _row_distributions(q)
    mt = (pt + qt) * 0.5
    vals = _row_entropy(mt) - 0.5 * (_row_entropy(pt) + _row_entropy(qt))
    out = np.full(p.shape[0], np.nan)
    ok = (ps > 0) & (qs > 0)
    out[ok] = np.clip(vals[ok], 0.0, LN2)
    return out
