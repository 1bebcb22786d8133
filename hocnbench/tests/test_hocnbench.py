"""Tests of the benchmark harness itself: python3 -m pytest hocnbench/tests"""

import json
import types
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import gen
import layers
from hocn import features, graph
from tracer import Span, Tracer, installed, self_times, totals
from workloads import END_TO_END, FIGURES, WORKLOADS, Run, check_basis, check_feature_rows

REPO = Path(__file__).resolve().parents[2]


def test_generator_repeats_bytes_per_seed():
    text = gen.edge_list_text(gen.ba_edges(500, 3, seed=11))
    assert text == gen.edge_list_text(gen.ba_edges(500, 3, seed=11))
    assert gen.sha256(text) == gen.sha256(gen.edge_list_text(gen.ba_edges(500, 3, seed=11)))
    assert text != gen.edge_list_text(gen.ba_edges(500, 3, seed=12))


def test_generator_emits_a_simple_ba_graph():
    n, m = 400, 3
    edges = gen.ba_edges(n, m, seed=3)
    assert edges.shape == (m * (n - m), 2)
    assert (edges[:, 0] != edges[:, 1]).all()
    keys = np.sort(edges, axis=1)
    assert np.unique(keys, axis=0).shape[0] == edges.shape[0]
    degrees = np.bincount(edges.ravel(), minlength=n)
    assert degrees.min() >= m
    g, report = graph.load_edge_list(gen.edge_list_text(edges))
    assert g.n == n and g.num_edges == edges.shape[0] and report.duplicates_dropped == 0


def test_random_pairs_never_repeat_an_endpoint():
    pairs = gen.random_pairs(np.random.default_rng(0), 5, 10_000)
    assert (pairs[:, 0] != pairs[:, 1]).all()
    assert set(np.unique(pairs)) == set(range(5))


def test_self_times_on_a_synthetic_span_tree():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("a", 2.0, 3.0, 1),   # recursive call of "a"
        Span("b", 5.0, 9.0, 0),
        Span("c", 6.0, 6.5, 3),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 3.5, 0.5]
    assert sum(self_times(spans)) == 10.0
    t = totals(spans)
    assert t["a"] == {"s": 3.0, "self_s": 3.0, "calls": 2}
    assert t["b"] == {"s": 4.0, "self_s": 3.5, "calls": 1}


def test_tracer_spans_nest_and_sum_to_the_root():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("root"):
        with tracer.span("x"):
            pass
        with tracer.span("y"):
            with tracer.span("z"):
                pass
    assert [s.parent for s in tracer.spans] == [-1, 0, 0, 2]
    root = tracer.spans[0]
    assert sum(self_times(tracer.spans)) == root.end - root.start


def test_wrappers_are_installed_and_removed():
    class Thing:
        @classmethod
        def make(cls, x):
            return (cls, x)

    module = types.ModuleType("fake")
    module.double = lambda x: 2 * x
    counted = []
    tracer = Tracer()
    targets = [(module, "double", "fake.double", lambda t, out: counted.append(out)),
               (Thing, "make", "fake.make", None)]
    original = module.double
    with installed(tracer, targets):
        assert module.double(4) == 8
        assert Thing.make(1) == (Thing, 1)
    assert module.double is original and isinstance(vars(Thing)["make"], classmethod)
    assert counted == [8]
    assert [s.name for s in tracer.spans] == ["fake.double", "trace.counters", "fake.make"]
    assert Thing.make(2) == (Thing, 2) and len(tracer.spans) == 3


def _small_features(k_max=3):
    n = 80
    edges = gen.ba_edges(n, 2, seed=5)
    g = graph.Graph.from_edges(n, edges)
    pairs = gen.random_pairs(np.random.default_rng(1), n, 16)
    feats = features.cn_order_features_all(g, graph.PairBatch(pairs), k_max)
    return gen.adjacency(n, edges), feats


@pytest.mark.parametrize("dense", [True, False])
def test_a_wrong_feature_row_is_counted_as_failed(dense):
    adj, feats = _small_features()
    if not dense:
        for f in feats:
            f.combined = sp.csr_matrix(f.combined)
    run = Run(0.0, fixed=True)
    check_feature_rows(run, adj, feats, rows=[0, 3])
    assert (run.attempted, run.failed) == (6, 0)
    wrong = feats[1].combined.toarray() if not dense else feats[1].combined
    wrong[3, int(np.argmax(wrong[3]))] += 1.0
    if not dense:
        feats[1].combined = sp.csr_matrix(wrong)
    check_feature_rows(run, adj, feats, rows=[0, 3])
    assert (run.attempted, run.failed) == (12, 1)
    assert run.failures == [f"order-2 row of pair {tuple(int(x) for x in feats[0].pairs[3])}"]


def test_a_basis_off_unit_norm_is_counted_as_failed():
    basis = types.SimpleNamespace(matrices=[np.full((2, 2), 0.5), np.full((2, 2), 0.6),
                                            np.zeros((2, 2))],
                                  degenerate=[False, False, True])
    run = Run(0.0, fixed=True)
    check_basis(run, basis)
    assert (run.attempted, run.failed) == (2, 1)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    harness = [(name, unit, better) for name, unit, better, *_ in layers.LAYERS]
    harness += list(layers.TRACE_METRICS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == harness
    for name, _, _, _, moves in layers.LAYERS:
        assert moves, name
        for workload, figure in moves:
            assert workload in WORKLOADS and figure in FIGURES.keys() | dict(END_TO_END), name
