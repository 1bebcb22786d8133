"""The library names the benchmark harness in hocnbench/ wraps or reads.

Its traced runs look each wrapped function up with ``vars(owner)[attr]``,
so a library change that drops or moves one of them breaks those runs.
This test installs and removes every wrapper, as a traced run does, and
checks the other names the harness reads, without changing hocnbench/.
"""

import dataclasses
import inspect
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parents[1] / "hocnbench"
sys.path.insert(0, str(BENCH))

import layers
import tracer
from hocn import features, graph, metrics, normalize, ortho, scoring, theory


def test_every_traced_name_exists_and_is_restored():
    targets = layers.targets()
    before = [vars(owner)[attr] for owner, attr, _, _ in targets]
    with tracer.installed(tracer.Tracer(), targets):
        pass
    assert [vars(owner)[attr] for owner, attr, _, _ in targets] == before


def test_names_the_workloads_read():
    inspect.signature(scoring.model_scores).bind(*range(6))
    assert callable(features.cn_order_features)
    assert isinstance(vars(features.OrderFeatures)["slices"], property)
    assert {"psi_hat", "psi_t"} <= {f.name for f in dataclasses.fields(ortho.RunningState)}
    params = theory.LatentModelParams(n=500, dim=2, radius=0.45, seed=0)
    inspect.signature(theory.validate_bound).bind("latent", params, "unnormalized", 2, 0.1,
                                                  100, 0, threads=1)
    assert {"trials", "eligible"} <= {f.name for f in dataclasses.fields(theory.ViolationReport)}
    assert isinstance(vars(theory.ViolationReport)["violation_fraction"], property)
    assert {"hits", "mrr"} <= {f.name for f in dataclasses.fields(metrics.EvalReport)}
    cfg = scoring.TrainConfig().features
    assert isinstance(cfg.feature_dim, int) and isinstance(cfg.depth, int)
    assert isinstance(cfg.seed, int)
    # The per-pair calls of the exact-diagnose workload, graph g and pair (i, j).
    g, i, j = object(), 0, 1
    inspect.signature(normalize.normalized_cn_score).bind(g, i, j, 1, degree_corrected=True)
    inspect.signature(scoring.heuristic_score).bind(g, (i, j), "normalized_cn_2")


def test_calls_train_eval_makes():
    """Each call of the train-eval workload, as it makes it, on a small graph."""
    split = graph.split_edges(theory.sample_ba_graph(60, 2, seed=0), (0.7, 0.1, 0.2), 1)
    config = scoring.TrainConfig()
    cfg = config.features
    result = scoring.train_model(split, config)
    assert len(result.losses) > 0 and isinstance(result.state, ortho.RunningState)
    base = split.train_graph
    exclude = [tuple(p) for p in np.concatenate(
        [split.train.pairs, split.valid.pairs, split.test.pairs], axis=0)]
    negatives = graph.sample_negatives(base, 200, 7, exclude=exclude)
    x = scoring.default_node_features(base, dim=cfg.feature_dim, seed=cfg.seed)
    h = scoring.propagate_features(base, x, cfg.depth)
    report = metrics.evaluate(
        lambda pairs: scoring.model_scores(base, pairs, result.model, result.state, h, cfg),
        split.test, negatives, ks=(20, 50, 100))
    assert 0.0 <= report.hits[50] <= 1.0 and 0.0 < report.mrr <= 1.0


def test_pair_features_calls_the_traced_stages_through_scoring(monkeypatch):
    """The traced train-eval run wraps these attributes of ``scoring``; a
    pipeline that called them under other names would drop their spans."""
    calls = {}

    def counting(name, func):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return func(*args, **kwargs)
        return wrapper

    for name in ("update_running_participation", "apply_normalization", "gram_schmidt_batch"):
        monkeypatch.setattr(scoring, name, counting(name, getattr(scoring, name)))
    monkeypatch.setattr(scoring.FeatureConfig, "batch_size", 16)
    g = theory.sample_ba_graph(60, 2, seed=0)
    cfg = scoring.FeatureConfig(k_max=3)
    pairs = graph.sample_negatives(g, 40, 0).pairs  # batches of 16, 16 and 8
    h = scoring.propagate_features(g, scoring.default_node_features(g, dim=4), 1)
    state = ortho.RunningState()
    scoring.pair_features(g, pairs, h, cfg, state, training=True)
    assert calls == {"update_running_participation": 3 * 3, "apply_normalization": 3 * 3,
                     "gram_schmidt_batch": 3}
    calls.clear()
    scoring.pair_features(g, pairs, h, cfg, state, training=False)
    assert calls == {"apply_normalization": 3 * 3, "gram_schmidt_batch": 3}
