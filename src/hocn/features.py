"""High-order common-neighbor count matrices and their walk-length slices.

For a pair (u, v) and order k, entry c of slice (k1, k2) counts walks of
length k1 from u to c times walks of length k2 from c to v, i.e. the number
of (k1 + k2)-length u-v walks through c. The three slices (k, k), (k-1, k)
and (k, k-1) cover lengths 2k and 2k-1; their sum is the combined count
vector for the pair.

Every matrix is a (batch, n) scipy CSR matrix in canonical format: each
row's column indices are sorted and unique. So a pair's row, stored order
included, is the same whichever other pairs share its batch. Walk rows
A^l[u] come from repeated sparse row-times-adjacency products and are
computed once per sub-chunk of the batch for all orders, so computing
features allocates no batch x n dense storage. They are left unsorted; each
slice product is sorted instead, since it is far smaller than the A^k rows
it comes from. Row A^l[u] stores at most min((A^l 1)[u], n)
entries; summed over l = 0..K and both endpoints, that bound sizes each
sub-chunk's walk rows. Sub-chunks run on ``_WORKERS`` threads (scipy's
sparse kernels release the GIL) and share ``_NNZ_BUDGET`` entries between
them.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, ScaleError
from .graph import Graph, PairBatch, hop_distances

DEFAULT_MAX_ORDER = 3

# Walk-row entries the sub-chunks of cn_order_features_all in flight at once
# may hold, by the per-node bound of _walk_nnz_bound (about 50 MB of CSR data
# and indices). Each of the _WORKERS threads gets an equal share.
_NNZ_BUDGET = 1 << 22

# Threads that build sub-chunks: two at most, since the walk rows of every
# sub-chunk in flight are held at once.
_WORKERS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)


@dataclass
class OrderFeatures:
    """Per-order count matrices for one batch of pairs.

    ``slices`` maps (k1, k2) -> (h, n) CSR matrix, ``combined`` is their
    elementwise sum, also CSR. Every matrix is canonical (sorted, unique
    column indices per row), and ``scale_columns`` keeps it so.
    """

    order: int
    pairs: np.ndarray
    slices: dict
    combined: sp.csr_matrix

    @property
    def batch_size(self) -> int:
        return self.pairs.shape[0]

    def scale_columns(self, weights: np.ndarray) -> "OrderFeatures":
        """Copy with column c of every matrix multiplied by weights[c];
        entries whose weight is 0 are dropped."""
        return OrderFeatures(order=self.order, pairs=self.pairs,
                             slices={key: _scale_columns(m, weights)
                                     for key, m in self.slices.items()},
                             combined=_scale_columns(self.combined, weights))


def _scale_columns(mat: sp.csr_matrix, weights: np.ndarray) -> sp.csr_matrix:
    # The index arrays are copied: eliminate_zeros prunes them in place, and
    # the scaled matrix must not rewrite the raw one. The input is canonical,
    # so nothing else rewrites them.
    out = sp.csr_matrix((mat.data * weights[mat.indices], mat.indices.copy(),
                         mat.indptr.copy()), shape=mat.shape)
    out.eliminate_zeros()
    return out


def as_dense(m) -> np.ndarray:
    return m.toarray() if sp.issparse(m) else np.asarray(m)


class WalkRows:
    """Rows A^0, A^1, ... of the adjacency for a list of nodes.

    Each power is one sparse product with the adjacency away from the
    previous one and is kept, so asking for orders 1..K in turn costs K
    products rather than K(K+1)/2.
    """

    def __init__(self, adj: sp.csr_matrix, nodes: np.ndarray):
        h = nodes.shape[0]
        self.adj = adj
        self.rows = [sp.csr_matrix((np.ones(h), nodes, np.arange(h + 1)),
                                   shape=(h, adj.shape[0]))]

    def power(self, length: int) -> sp.csr_matrix:
        while len(self.rows) <= length:
            self.rows.append(self.rows[-1] @ self.adj)
        return self.rows[length]


def _endpoint_walks(adj: sp.csr_matrix, pairs: np.ndarray) -> tuple[WalkRows, WalkRows]:
    """Walk rows of the source and of the target endpoints of a batch."""
    return WalkRows(adj, pairs[:, 0]), WalkRows(adj, pairs[:, 1])


def _walk_nnz_bound(adj: sp.csr_matrix, k_max: int) -> np.ndarray:
    """Per node u, sum over l = 0..k_max of min((A^l 1)[u], n).

    Row A^l[u] has one stored entry per node an l-walk from u reaches, so
    at most the number of such walks and at most n.
    """
    n = adj.shape[0]
    walks = np.ones(n)
    bound = np.ones(n, dtype=np.int64)
    for _ in range(k_max):
        walks = adj @ walks
        bound += np.minimum(walks, n).astype(np.int64)
    return bound


def _sub_chunks(adj: sp.csr_matrix, pairs: np.ndarray, k_max: int) -> np.ndarray:
    """Start offsets (and the end) of consecutive sub-chunks of ``pairs``.

    Each sub-chunk is the longest run from its start whose endpoints' walk
    rows 0..k_max stay within ``_NNZ_BUDGET // _WORKERS`` entries by the
    bound of ``_walk_nnz_bound``; a pair above that share sits alone.
    Raises ScaleError before any walk row is built when a single pair
    exceeds ``_NNZ_BUDGET``.
    """
    bound = _walk_nnz_bound(adj, k_max)
    cost = bound[pairs[:, 0]] + bound[pairs[:, 1]]
    worst = int(cost.argmax())
    if cost[worst] > _NNZ_BUDGET:
        u, v = (int(x) for x in pairs[worst])
        raise ScaleError(f"walk rows 0..{k_max} of pair ({u}, {v}) may hold {int(cost[worst])} "
                         f"entries, above the sub-chunk budget of {_NNZ_BUDGET}")
    share = _NNZ_BUDGET // _WORKERS
    total = np.concatenate([[0], np.cumsum(cost)])
    cuts = [0]
    while cuts[-1] < len(pairs):
        end = int(np.searchsorted(total, total[cuts[-1]] + share, side="right")) - 1
        cuts.append(max(end, cuts[-1] + 1))
    return np.array(cuts)


def adj_power_row(g: Graph, u: int, l: int, max_order: int = DEFAULT_MAX_ORDER) -> np.ndarray:
    """Dense row u of A^l: exact counts of l-length walks from u to every node."""
    if l < 0 or l > max_order:
        raise ConfigError(f"walk length {l} outside [0, {max_order}]")
    return WalkRows(g.to_scipy(), np.array([u], dtype=np.int64)).power(l).toarray()[0]


def _zero_endpoint_columns(mat: sp.csr_matrix, pairs: np.ndarray) -> None:
    """Drop the stored entries of row x that sit in column pairs[x, 0] or pairs[x, 1]."""
    row = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))
    mat.data[(mat.indices == pairs[row, 0]) | (mat.indices == pairs[row, 1])] = 0.0
    mat.eliminate_zeros()


def _slice_keys(k: int) -> tuple[tuple[int, int], ...]:
    return (k, k), (k - 1, k), (k, k - 1)


def cn_order_features(g: Graph, batch: PairBatch, k: int,
                      exclude_endpoints: bool = False,
                      walks: tuple[WalkRows, WalkRows] | None = None) -> OrderFeatures:
    """Compute the three order-k slices and their sum for a batch of pairs.

    Never materializes A^k; each slice comes from k repeated sparse
    mat-vec products per endpoint. ``walks`` holds the source and target
    rows that ``cn_order_features_all`` shares across orders.
    ``exclude_endpoints`` zeroes the two endpoint columns of each batch row
    (classic-CN convention). Each slice is sorted as it is formed, so every
    returned matrix is canonical CSR and ``combined`` is their sorted merge.
    """
    if k < 1:
        raise ConfigError(f"order must be >= 1, got {k}")
    ru, rv = _endpoint_walks(g.to_scipy(), batch.pairs) if walks is None else walks
    slices = {(k1, k2): ru.power(k1).multiply(rv.power(k2)).tocsr() for k1, k2 in _slice_keys(k)}
    for mat in slices.values():
        mat.sort_indices()
        if exclude_endpoints:
            _zero_endpoint_columns(mat, batch.pairs)
    combined = slices[(k, k)] + slices[(k - 1, k)] + slices[(k, k - 1)]
    return OrderFeatures(order=k, pairs=batch.pairs, slices=slices, combined=combined)


def cn_order_features_all(g: Graph, batch: PairBatch, k_max: int,
                          exclude_endpoints: bool = False) -> list[OrderFeatures]:
    """Orders 1..k_max for one batch, sharing the endpoints' walk rows.

    The batch is walked in consecutive sub-chunks of pairs (see
    ``_sub_chunks``), ``_WORKERS`` at a time on a thread pool; each
    sub-chunk's walk rows serve all orders and are dropped when its orders
    are done. Every matrix is canonical CSR, so a pair's row, stored order
    included, does not depend on the other pairs of its batch and the
    sub-chunks' matrices are stacked as they are.
    """
    adj = g.to_scipy()
    cuts = _sub_chunks(adj, batch.pairs, k_max)
    if len(cuts) == 2:
        return _orders(g, adj, batch, k_max, exclude_endpoints)

    def chunk(start: int, stop: int) -> list[OrderFeatures]:
        return _orders(g, adj, PairBatch(batch.pairs[start:stop]), k_max, exclude_endpoints)

    with ThreadPoolExecutor(max_workers=_WORKERS) as pool:
        # The parts are stacked where the workers built them. Copying them
        # into this thread as they arrive made the peak RSS of a 16,384-pair
        # K=3 batch of BA(100k, 3) swing by about 50 MB with the threads'
        # timing.
        chunks = list(pool.map(chunk, cuts[:-1], cuts[1:]))
    feats = []
    for k in range(1, k_max + 1):
        # Popping each sub-chunk's order k frees it once it is stacked.
        parts = [chunk_feats.pop(0) for chunk_feats in chunks]
        slices = {key: sp.vstack([p.slices[key] for p in parts], format="csr")
                  for key in _slice_keys(k)}
        feats.append(OrderFeatures(order=k, pairs=batch.pairs, slices=slices,
                                   combined=sp.vstack([p.combined for p in parts],
                                                      format="csr")))
    return feats


def _orders(g: Graph, adj: sp.csr_matrix, batch: PairBatch, k_max: int,
            exclude_endpoints: bool) -> list[OrderFeatures]:
    """Orders 1..k_max from one set of walk rows, released on return."""
    walks = _endpoint_walks(adj, batch.pairs)
    return [cn_order_features(g, batch, k, exclude_endpoints, walks)
            for k in range(1, k_max + 1)]


def cn_set(g: Graph, i: int, j: int, k: int,
           exclude_endpoints: bool = True,
           spd_filter: bool = False) -> set[int]:
    """Nodes with a strictly positive combined count for pair (i, j) at order k.

    With endpoints excluded, k=1 reduces to the classic N(i) & N(j).
    ``spd_filter`` restricts to nodes at shortest-path distance exactly k
    from both endpoints, which makes the sets of different orders disjoint
    (the SPD variant, unoptimized).
    """
    batch = PairBatch(np.array([[i, j]], dtype=np.int64))
    combined = cn_order_features(g, batch, k, exclude_endpoints=exclude_endpoints).combined
    members = {int(c) for c in combined.indices[combined.data > 0]}
    if spd_filter:
        di = hop_distances(g, i, k)
        dj = hop_distances(g, j, k)
        members = {c for c in members if di[c] == k and dj[c] == k}
    return members
