"""Why orthogonalize: cross-order redundancy before and after.

Raw order-1 and order-2 walk features overlap heavily (a length-2 walk
often retraces an edge). Gram-Schmidt in feature space removes the shared
component. This script measures the overlap three ways: cross-order
correlation, per-edge Jensen-Shannon divergence, and the coefficient of
variation of the normalized features.
"""

import numpy as np

from hocn import PairBatch, RunningState, gram_schmidt_batch
from hocn.diagnostics import (coefficient_of_variation, edge_jsd,
                              order_correlation)
from hocn.features import cn_order_features_all
from hocn.normalize import apply_normalization, exact_walk_participation
from hocn.theory import sample_ba_graph


def main():
    g = sample_ba_graph(200, 3, seed=0)
    rng = np.random.default_rng(7)
    pairs = set()
    while len(pairs) < 256:
        u, v = map(int, rng.integers(0, g.n, 2))
        if u != v:
            pairs.add((min(u, v), max(u, v)))
    batch = PairBatch(np.array(sorted(pairs)))

    feats = cn_order_features_all(g, batch, k_max=2)
    raw = [f.combined.toarray() for f in feats]
    normalized = [apply_normalization(f, exact_walk_participation(g, f.order))
                  for f in feats]
    basis = gram_schmidt_batch(normalized, RunningState(), training=True)
    ortho = [basis.matrix(k).toarray() for k in (1, 2)]

    print("cross-order correlation (order 1 vs order 2):")
    print(f"  raw          {order_correlation(raw)[0, 1]: .4f}")
    print(f"  orthogonal   {order_correlation(ortho)[0, 1]: .4f}")

    print("\nmean per-edge Jensen-Shannon divergence between orders:")
    print(f"  raw          {float(np.nanmean(edge_jsd(raw[0], raw[1]))):.4f}")
    print(f"  orthogonal   {float(np.nanmean(edge_jsd(ortho[0], ortho[1]))):.4f}")

    print("\ncoefficient of variation of order-2 coefficients per pair:")
    norm2 = normalized[1].combined.toarray()
    print(f"  raw          {coefficient_of_variation(raw[1]):.4f}")
    print(f"  normalized   {coefficient_of_variation(norm2):.4f}")

    print("\northogonalization strips the shared component (correlation -> 0,")
    print("divergence up) while normalization spreads the coefficient scale.")


if __name__ == "__main__":
    main()
