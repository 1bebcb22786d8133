"""Path-based normalization of CN features.

A node that serves as a k-hop common neighbor for many pairs carries little
information about any one of them, so each feature column is divided by the
node's walk-participation count: exactly, over all ordered pairs, from a
closed form in the walk totals A^l·1 and the diagonals diag(A^m) that
``walk_row_sums``, the pass behind the exact Gram matrix too, takes from
walk-row norms in node blocks cut by the walk-row budget, or by the streaming
column-sum estimate during training. The exact counts depend on the graph
alone: each graph builds them once per order and endpoint setting and
hands out the same read-only array after that, so the normalized CN
scores read them without any caller passing them in. Those scores and the
CN, AA and RA heuristics sum per-node weights over CN^k (``cn_member_sums``).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .features import OrderFeatures, cn_order_features_all, walk_row_sums, walk_totals
from .graph import Graph, PairBatch
from .ortho import RunningState

DIVISION_EPSILON = 1e-12


@dataclass(frozen=True)
class ParticipationCounts:
    """Per-node walk-participation totals for one order: the exact counts of
    ``exact_walk_participation`` (counts[c] sums combined(i, j)[c] over all
    ordered pairs i != j) or the streaming column-sum estimate of
    ``running_counts``. ``counts`` is a read-only view, so writing into it
    raises ValueError.
    """

    order: int
    counts: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts).view()
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)


def exact_walk_participation(g: Graph, k: int,
                             exclude_endpoints: bool = True) -> ParticipationCounts:
    """counts[c] = sum over ordered pairs (i, j), i != j, of combined(i, j)[c].

    Uses the closed form
        sum_{i != j} (A^k1)_{ic} (A^k2)_{cj}
            = s_{k1}[c] s_{k2}[c] - (A^{k1+k2})_{cc}
    per slice (s_l = A^l·1, the row sums of A^l, which equal its column sums
    because A is symmetric), with endpoint-column corrections when the
    endpoints are excluded. For k=1 with endpoints excluded this is
    d(c)(d(c) - 1).

    The diagonals come from each node's walk rows (``walk_row_sums``, which
    raises ScaleError for a node above the walk-row budget), never from an
    n x n power; at m = 2k - 1 and 2k that pass gives only the sum read
    here, and diag(A) = 0 as A has no loops. s_{k-1} and s_k come from
    ``walk_totals``, the one recurrence behind the walk-row bound too,
    recomputed here rather than kept. Every term is an integer walk count,
    so the result is exact below 2^53.

    Built once per graph, k and ``exclude_endpoints``; every later call
    returns the same object, whose counts are read-only. A build that
    raises stores nothing, so the next call tries again.
    """
    def build() -> ParticipationCounts:
        diag, _ = walk_row_sums(g, k)
        *_, (s_prev, s_k, _) = walk_totals(g, k)
        counts = s_k * s_k + 2.0 * s_prev * s_k - (diag[2 * k] + 2.0 * diag[2 * k - 1])
        if exclude_endpoints:
            # c == i and c == j terms of the slices (k, k), (k-1, k) and (k, k-1).
            d_k, d_prev = diag[k], diag[k - 1]
            counts -= 2.0 * ((d_k + d_prev) * (s_k - d_k) + d_k * (s_prev - d_prev))
        return ParticipationCounts(order=k, counts=counts)

    return g.memoized(("exact_walk_participation", k, bool(exclude_endpoints)), build)


def update_running_participation(state: RunningState, feats: OrderFeatures) -> RunningState:
    """Fold one batch's column sums into the running estimate (gain 1/(1+t)).

    Equivalent to the simple moving average of per-batch column sums; the
    first batch initializes the estimate outright.
    """
    k = feats.order
    col_sums = np.asarray(feats.combined.sum(axis=0)).ravel().astype(np.float64)
    t = state.psi_t.get(k, 0)
    gamma = 1.0 / (1 + t)
    if k not in state.psi_hat:
        state.psi_hat[k] = np.zeros_like(col_sums)
    state.psi_hat[k] = (1.0 - gamma) * state.psi_hat[k] + gamma * col_sums
    state.psi_t[k] = t + 1
    return state


def running_counts(state: RunningState, k: int) -> ParticipationCounts:
    if k not in state.psi_hat:
        raise ConfigError(f"no running participation for order {k}")
    return ParticipationCounts(order=k, counts=state.psi_hat[k])


def apply_normalization(feats: OrderFeatures, counts: ParticipationCounts) -> OrderFeatures:
    """Divide every feature column c by max(counts[c], DIVISION_EPSILON).

    Zero entries stay zero; the epsilon only guards nodes never observed in
    any batch.
    """
    if counts.order != feats.order:
        raise ConfigError(f"counts order {counts.order} != feature order {feats.order}")
    if counts.counts.shape[0] != feats.combined.shape[1]:
        raise ConfigError(f"participation counts of {counts.counts.shape[0]} nodes for "
                          f"features of {feats.combined.shape[1]}")
    return feats.scale_columns(1.0 / np.maximum(counts.counts, DIVISION_EPSILON))


def cn_member_sums(g: Graph, pairs: np.ndarray, k: int,
                   weight: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Per pair (i, j) of a (h, 2) array, the sum of weight(c) over the
    members c of CN^k(i, j), endpoints excluded, in ascending node order: the
    stored entries (positive counts) of the canonical CSR rows of
    ``cn_order_features_all``. ``weight`` maps member ids to weights."""
    members = cn_order_features_all(g, PairBatch(pairs), k, exclude_endpoints=True)[-1].combined
    if members.nnz == 0:
        return np.zeros(members.shape[0])
    members.data = weight(members.indices)
    return np.asarray(members.sum(axis=1)).ravel()


def normalized_cn_scores(g: Graph, pairs: np.ndarray, k: int,
                         degree_corrected: bool = False) -> np.ndarray:
    """Per pair (i, j), the sum over the members c of CN^k(i, j), endpoints
    excluded, of 2/participation[c]: reciprocal exact participation
    (``exact_walk_participation`` with endpoints excluded, built once per
    graph) counted over unordered pairs (ordered totals halved). A member's
    participation counts the pair itself, so it is positive.

    With ``degree_corrected`` each term is multiplied by the ratio of the
    node's unordered pair count to its degree, which leaves 1/d(c); at k=1
    the score is then the resource-allocation value exactly, and no
    participation is read.
    """
    if degree_corrected:
        return cn_member_sums(g, pairs, k, lambda c: 1.0 / g.degrees[c])
    return cn_member_sums(g, pairs, k, lambda c: 2.0 / exact_walk_participation(
        g, k, exclude_endpoints=True).counts[c])


def normalized_cn_score(g: Graph, i: int, j: int, k: int,
                        degree_corrected: bool = False) -> float:
    """``normalized_cn_scores`` of the one pair (i, j)."""
    return float(normalized_cn_scores(g, np.array([[i, j]]), k, degree_corrected)[0])
