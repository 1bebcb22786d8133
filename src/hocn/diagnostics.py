"""Redundancy and over-smoothing diagnostics.

Emits data, not figures: cross-order Pearson correlations, the coefficient
of variation of common-neighbor coefficients, and per-edge Jensen-Shannon
divergence between the count distributions of two orders.
"""

from __future__ import annotations

import numpy as np

from .features import as_dense

LN2 = float(np.log(2.0))


def order_correlation(matrices) -> np.ndarray:
    """K x K Pearson matrix over flattened entries; zero-variance orders give nan."""
    flats = [as_dense(m).ravel().astype(np.float64) for m in matrices]
    k = len(flats)
    out = np.full((k, k), np.nan)
    stds = [f.std() for f in flats]
    for a in range(k):
        for b in range(a, k):
            if stds[a] == 0.0 or stds[b] == 0.0:
                continue
            ca = flats[a] - flats[a].mean()
            cb = flats[b] - flats[b].mean()
            r = float(np.dot(ca, cb) / (len(ca) * stds[a] * stds[b]))
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

    Takes each pair's nonzero coefficient row, measures std/mean within it,
    and averages over pairs with at least two contributors. This is the
    contrast between a pair's own common neighbors, the quantity that
    collapses when high orders make every contributor look alike.
    """
    dense = np.asarray(as_dense(matrix), dtype=np.float64)
    per_row = []
    for row in np.abs(dense):
        nz = row[row > 0]
        if nz.size >= 2:
            per_row.append(variation_ratio(nz))
    if not per_row:
        return float("nan")
    return float(np.nanmean(per_row))


def edge_jsd(p_rows, q_rows) -> np.ndarray:
    """Per-row Jensen-Shannon divergence (natural log, values in [0, ln 2]).

    Rows are mapped through abs() before normalization, since orthogonalized
    features may carry negative entries; zero-sum rows yield nan markers.
    """
    p = np.abs(as_dense(p_rows)).astype(np.float64)
    q = np.abs(as_dense(q_rows)).astype(np.float64)
    if p.shape != q.shape:
        raise ValueError(f"row shapes differ: {p.shape} vs {q.shape}")
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
