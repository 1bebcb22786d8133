"""Per-layer metrics of the traced run: where each wrapper sits, what it
counts, and which end-to-end figure each metric should move.

The ``moves`` entries name a workload and either a gated end-to-end metric
or a figure of its run record (``workloads.FIGURES``).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from hocn import diagnostics, features, graph, metrics, normalize, ortho, scoring, theory

from tracer import Tracer, totals

TE = "train-eval-ba2708"
ST = "stream-ba100k-k3"
MC = "theory-latent-mc"
DX = "exact-diagnose-ba2708"
EDGE_LIST_WORKLOADS = (TE, ST, DX)
MAX_ORDER = 3


def _nbytes(mat) -> int:
    if sp.issparse(mat):
        mat = mat.tocsr()
        return mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes
    return np.asarray(mat).nbytes


def _count_features(tracer: Tracer, out) -> None:
    combined = out.combined
    nnz = combined.count_nonzero() if sp.issparse(combined) else np.count_nonzero(combined)
    tracer.count(f"features.nnz.k{out.order}", nnz)
    tracer.count(f"features.rows.k{out.order}", out.batch_size)
    tracer.count("features.bytes_computed",
                 sum(_nbytes(m) for m in out.slices.values()) + _nbytes(combined))


def _count_degenerate(tracer: Tracer, out) -> None:
    tracer.count("ortho.degenerate", sum(out.degenerate))


def count_eps_guarded(tracer: Tracer, state) -> None:
    """Nodes whose running participation is still 0 after training; their
    feature columns are divided by the epsilon guard."""
    for k, psi in state.psi_hat.items():
        tracer.count(f"normalize.eps_guarded_cols.k{k}", np.count_nonzero(psi == 0))


def _count_training(tracer: Tracer, out) -> None:
    tracer.count("scoring.descent_steps", len(out.losses))
    count_eps_guarded(tracer, out.state)


def targets():
    """(owner, attribute, span name, counter) for every wrapped function.

    A function imported into another module by name is looked up there, so
    it is wrapped at each such attribute under one span name.
    """
    return [
        (graph, "load_edge_list", "graph.load_edge_list", None),
        (graph, "split_edges", "graph.split_edges", None),
        (graph.Graph, "from_edges", "graph.from_edges", None),
        (graph, "sample_negatives", "graph.sample_negatives", None),
        (scoring, "sample_negatives", "graph.sample_negatives", None),
        (features, "cn_order_features", "features.cn_order_features", _count_features),
        (normalize, "update_running_participation",
         "normalize.update_running_participation", None),
        (scoring, "update_running_participation",
         "normalize.update_running_participation", None),
        (normalize, "apply_normalization", "normalize.apply_normalization", None),
        (scoring, "apply_normalization", "normalize.apply_normalization", None),
        (normalize, "exact_walk_participation", "normalize.exact_walk_participation", None),
        (normalize, "normalized_cn_score", "normalize.normalized_cn_score", None),
        (ortho, "gram_schmidt_batch", "ortho.gram_schmidt_batch", _count_degenerate),
        (scoring, "gram_schmidt_batch", "ortho.gram_schmidt_batch", _count_degenerate),
        (scoring, "pair_features", "scoring.pair_features", None),
        (scoring, "propagate_features", "scoring.propagate_features", None),
        (scoring, "logistic_loss_and_grads", "scoring.logistic_loss_and_grads", None),
        (scoring, "train_model", "scoring.train_model", _count_training),
        (scoring, "model_scores", "scoring.model_scores", None),
        (scoring, "heuristic_score", "scoring.heuristic_score", None),
        (metrics, "evaluate", "metrics.evaluate", None),
        (metrics, "mrr", "metrics.mrr", None),
        (diagnostics, "order_correlation", "diagnostics.order_correlation", None),
        (diagnostics, "edge_jsd", "diagnostics.edge_jsd", None),
        (diagnostics, "coefficient_of_variation", "diagnostics.coefficient_of_variation", None),
        (theory, "validate_bound", "theory.validate_bound", None),
        (theory, "sample_latent_model", "theory.sample_latent_model", None),
    ]


def _span(name, field):
    return lambda t, c: t.get(name, {}).get(field, 0)


def _counter(name):
    return lambda t, c: c.get(name, 0.0)


def _nnz_per_row(k):
    def value(t, c):
        rows = c.get(f"features.rows.k{k}", 0.0)
        return c.get(f"features.nnz.k{k}", 0.0) / rows if rows else 0.0
    return value


def _timed(name, field, moves):
    unit = "count" if field == "calls" else "s"
    return (f"{name}.{field}", unit, "lower", _span(name, field), moves)


_FEATURE_MOVES = ((TE, "train_s"), (TE, "peak_rss_mb"),
                  (ST, "train_pairs_per_s"), (ST, "infer_pairs_per_s"))
_MEMORY_MOVES = ((TE, "peak_rss_mb"), (ST, "peak_rss_mb"))
_STREAM_MOVES = ((ST, "train_pairs_per_s"), (ST, "infer_pairs_per_s"))
_EXACT_MOVES = ((DX, "diagnose_s"), (DX, "ncn_pair_s"))
_ORTHO_MOVES = ((ST, "train_pairs_per_s"), (TE, "train_s"))
_FROM_EDGES_MOVES = ((MC, "mc_trials_per_s"),) + tuple((w, "setup_s") for w in EDGE_LIST_WORKLOADS)

# (metric, unit, better, value(totals, counters), moves)
LAYERS = [
    _timed("graph.load_edge_list", "s", tuple((w, "setup_s") for w in EDGE_LIST_WORKLOADS)),
    _timed("graph.split_edges", "s", ((TE, "setup_s"),)),
    _timed("graph.from_edges", "s", _FROM_EDGES_MOVES),
    _timed("graph.from_edges", "calls", _FROM_EDGES_MOVES),
    _timed("graph.sample_negatives", "s", ((TE, "train_s"), (TE, "eval_s"))),
    _timed("features.cn_order_features", "s", _FEATURE_MOVES),
    _timed("features.cn_order_features", "calls", _FEATURE_MOVES),
    *[(f"features.nnz_per_row.k{k}", "nnz/row", "lower", _nnz_per_row(k), _MEMORY_MOVES)
      for k in range(1, MAX_ORDER + 1)],
    ("features.bytes_computed", "bytes", "lower", _counter("features.bytes_computed"),
     _MEMORY_MOVES),
    _timed("normalize.update_running_participation", "s", _STREAM_MOVES),
    _timed("normalize.apply_normalization", "s", _STREAM_MOVES),
    _timed("normalize.exact_walk_participation", "s", _EXACT_MOVES),
    _timed("normalize.exact_walk_participation", "calls", _EXACT_MOVES),
    *[(f"normalize.eps_guarded_cols.k{k}", "count", "lower",
       _counter(f"normalize.eps_guarded_cols.k{k}"), ((TE, "test_hits50"),))
      for k in range(1, MAX_ORDER + 1)],
    _timed("ortho.gram_schmidt_batch", "s", _ORTHO_MOVES),
    _timed("ortho.gram_schmidt_batch", "calls", _ORTHO_MOVES),
    ("ortho.degenerate", "count", "lower", _counter("ortho.degenerate"), _ORTHO_MOVES),
    _timed("scoring.pair_features", "self_s", ((TE, "train_s"),)),
    _timed("scoring.propagate_features", "s", ((TE, "train_s"),)),
    _timed("scoring.logistic_loss_and_grads", "s", ((TE, "train_s"),)),
    ("scoring.descent_steps", "count", "lower", _counter("scoring.descent_steps"),
     ((TE, "train_s"),)),
    _timed("scoring.model_scores", "s", ((TE, "eval_s"),)),
    _timed("scoring.heuristic_score", "s", ((DX, "ncn_pair_s"),)),
    _timed("scoring.heuristic_score", "calls", ((DX, "ncn_pair_s"),)),
    _timed("metrics.evaluate", "self_s", ((TE, "eval_s"),)),
    _timed("metrics.mrr", "s", ((TE, "eval_s"),)),
    _timed("diagnostics.order_correlation", "s", ((DX, "diagnose_s"),)),
    _timed("diagnostics.edge_jsd", "s", ((DX, "diagnose_s"),)),
    _timed("diagnostics.coefficient_of_variation", "s", ((DX, "diagnose_s"),)),
    _timed("theory.validate_bound", "self_s", ((MC, "mc_trials_per_s"),)),
    _timed("theory.sample_latent_model", "self_s", ((MC, "mc_trials_per_s"),)),
]

TRACE_METRICS = [
    # Traced wall time minus untraced wall time of the same pass.
    ("trace.overhead_s", "s", "lower"),
    # Untraced wall time of the pass.
    ("trace.wall_s", "s", "lower"),
    # Sum of every span's self time in the traced pass; equals its wall time.
    ("trace.self_sum_s", "s", "lower"),
]


def per_layer(tracer: Tracer) -> dict[str, float]:
    """Every LAYERS metric from the spans and counters of one traced pass."""
    t = totals(tracer.spans)
    return {name: float(value(t, tracer.counters)) for name, _, _, value, _ in LAYERS}
