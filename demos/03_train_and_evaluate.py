"""End-to-end link prediction: split, baseline, train, rank.

Samples a preferential-attachment graph, holds out edges, scores the test
edges against sampled non-edges with the CN heuristic and with the trained
pair-scoring model, and reports Hits@K and mean reciprocal rank.
"""

import numpy as np

from hocn import (FeatureConfig, TrainConfig, default_node_features, evaluate,
                  heuristic_scores, merged_graph, model_scores,
                  propagate_features, sample_negatives, split_edges,
                  train_model)
from hocn.theory import sample_ba_graph

SEED = 0


def main():
    g = sample_ba_graph(400, 3, seed=SEED)
    split = split_edges(g, (0.7, 0.1, 0.2), SEED)
    base = merged_graph(split, use_valid_as_input=False)
    print(f"graph n={g.n}; test edges={len(split.test)}")

    exclude = [tuple(p) for p in np.concatenate(
        [split.train.pairs, split.valid.pairs, split.test.pairs], axis=0)]
    negatives = sample_negatives(base, len(split.test), SEED + 7,
                                 exclude=exclude)

    cn_report = evaluate(lambda p: heuristic_scores(base, p, "cn"),
                         split.test, negatives, ks=(20, 50, 100))
    print("\ncommon-neighbors baseline:")
    for k in sorted(cn_report.hits):
        print(f"  hits@{k:<3} {cn_report.hits[k]:.4f}")
    print(f"  mrr      {cn_report.mrr:.4f}")

    fc = FeatureConfig(seed=SEED)
    result = train_model(split, TrainConfig(features=fc))
    print(f"\ntrained model: loss {result.losses[0]:.4f} -> "
          f"{result.losses[-1]:.4f} over {len(result.losses)} steps")

    x = default_node_features(base, dim=fc.feature_dim, seed=fc.seed)
    h = propagate_features(base, x, fc.depth)
    model_report = evaluate(
        lambda p: model_scores(base, p, result.model, result.state, h, fc),
        split.test, negatives, ks=(20, 50, 100))
    print("trained model:")
    for k in sorted(model_report.hits):
        print(f"  hits@{k:<3} {model_report.hits[k]:.4f}")
    print(f"  mrr      {model_report.mrr:.4f}")


if __name__ == "__main__":
    main()
