"""High-order common-neighbor count matrices and their walk-length slices.

For a pair (u, v) and order k, entry c of slice (k1, k2) counts walks of
length k1 from u to c times walks of length k2 from c to v, i.e. the number
of (k1 + k2)-length u-v walks through c. The three slices (k, k), (k-1, k)
and (k, k-1) cover lengths 2k and 2k-1; their sum is the combined count
vector for the pair.

Every matrix is a (batch, n) scipy CSR matrix. Walk rows A^l[u] come from
repeated sparse row-times-adjacency products and are computed once per
batch for all orders, so computing features allocates no batch x n dense
storage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError
from .graph import Graph, PairBatch

DEFAULT_MAX_ORDER = 3


@dataclass
class OrderFeatures:
    """Per-order count matrices for one batch of pairs.

    ``slices`` maps (k1, k2) -> (h, n) CSR matrix, ``combined`` is their
    elementwise sum, also CSR.
    """

    order: int
    pairs: np.ndarray
    slices: dict
    combined: sp.csr_matrix

    @property
    def batch_size(self) -> int:
        return self.pairs.shape[0]

    def scale_columns(self, weights: np.ndarray) -> "OrderFeatures":
        """Copy with column c of every matrix multiplied by weights[c]."""
        diag = sp.diags(weights)
        return OrderFeatures(order=self.order, pairs=self.pairs,
                             slices={key: (m @ diag).tocsr() for key, m in self.slices.items()},
                             combined=(self.combined @ diag).tocsr())


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


def _endpoint_walks(g: Graph, batch: PairBatch) -> tuple[WalkRows, WalkRows]:
    """Walk rows of the source and of the target endpoints of a batch."""
    adj = g.to_scipy()
    return WalkRows(adj, batch.pairs[:, 0]), WalkRows(adj, batch.pairs[:, 1])


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


def cn_order_features(g: Graph, batch: PairBatch, k: int,
                      exclude_endpoints: bool = False,
                      walks: tuple[WalkRows, WalkRows] | None = None) -> OrderFeatures:
    """Compute the three order-k slices and their sum for a batch of pairs.

    Never materializes A^k; each slice comes from k repeated sparse
    mat-vec products per endpoint. ``walks`` holds the source and target
    rows that ``cn_order_features_all`` shares across orders.
    ``exclude_endpoints`` zeroes the two endpoint columns of each batch row
    (classic-CN convention).
    """
    if k < 1:
        raise ConfigError(f"order must be >= 1, got {k}")
    ru, rv = _endpoint_walks(g, batch) if walks is None else walks
    ru_km1, ru_k = ru.power(k - 1), ru.power(k)
    rv_km1, rv_k = rv.power(k - 1), rv.power(k)
    slices = {
        (k, k): ru_k.multiply(rv_k).tocsr(),
        (k - 1, k): ru_km1.multiply(rv_k).tocsr(),
        (k, k - 1): ru_k.multiply(rv_km1).tocsr(),
    }
    if exclude_endpoints:
        for mat in slices.values():
            _zero_endpoint_columns(mat, batch.pairs)
    combined = (slices[(k, k)] + slices[(k - 1, k)] + slices[(k, k - 1)]).tocsr()
    combined.eliminate_zeros()
    return OrderFeatures(order=k, pairs=batch.pairs, slices=slices, combined=combined)


def cn_order_features_all(g: Graph, batch: PairBatch, k_max: int,
                          exclude_endpoints: bool = False) -> list[OrderFeatures]:
    """Orders 1..k_max for one batch, sharing the endpoints' walk rows."""
    walks = _endpoint_walks(g, batch)
    return [cn_order_features(g, batch, k, exclude_endpoints, walks)
            for k in range(1, k_max + 1)]


def _bfs_distances(g: Graph, source: int, cutoff: int) -> np.ndarray:
    dist = np.full(g.n, -1, dtype=np.int64)
    dist[source] = 0
    frontier = [source]
    depth = 0
    while frontier and depth < cutoff:
        depth += 1
        nxt = []
        for node in frontier:
            for nb in g.neighbors(node):
                if dist[nb] < 0:
                    dist[nb] = depth
                    nxt.append(int(nb))
        frontier = nxt
    return dist


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
        di = _bfs_distances(g, i, k)
        dj = _bfs_distances(g, j, k)
        members = {c for c in members if di[c] == k and dj[c] == k}
    return members
