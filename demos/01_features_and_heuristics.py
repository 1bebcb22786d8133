"""Walk-count features and the classical neighborhood heuristics.

Builds a small citation-style graph, scores a few candidate links with
CN / AA / RA, then shows the order-k features that generalize them and the
walk-length slices they sum: entry (x, c) of slice (k1, k2) counts walks
u -> c of length k1 times walks c -> v of length k2.
"""

import numpy as np

from hocn import Graph, PairBatch, heuristic_score
from hocn.features import cn_order_features_all

EDGES = [(0, 1), (0, 2), (0, 3), (0, 5), (1, 4), (2, 3)]
PAIRS = [(1, 5), (2, 5)]


def main():
    g = Graph.from_edges(6, EDGES)
    print(f"graph: n={g.n}, m={len(EDGES)} edges")

    print("\nclassical heuristics (higher = stronger link candidate):")
    for pair in PAIRS:
        row = "  ".join(f"{kind}={heuristic_score(g, pair, kind):.4f}"
                        for kind in ("cn", "aa", "ra"))
        print(f"  pair {pair}: {row}")
    print("both pairs tie on every order-1 score: one shared neighbor,")
    print("same neighbor degree. Order-1 methods cannot separate them.")

    batch = PairBatch(np.array(PAIRS))
    feats = cn_order_features_all(g, batch, k_max=2)
    order2 = feats[1]
    print("\norder-2 combined feature rows (one column per candidate node):")
    for pair, row in zip(PAIRS, order2.combined.toarray()):
        print(f"  pair {pair}: {row.astype(int)}")
    print("the rows differ, so the order-2 features distinguish the pairs.")

    print(f"\nthe order-2 slices of pair {PAIRS[1]}, built when first read; they sum to its row:")
    for (k1, k2), mat in order2.slices.items():
        print(f"  slice ({k1}, {k2}): {mat.toarray()[1].astype(int)}")


if __name__ == "__main__":
    main()
