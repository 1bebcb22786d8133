import re
import sys
import threading
import time
import tracemalloc
from collections import deque
from itertools import combinations

import numpy as np
import pytest
import scipy.sparse as sp

import hocn.features
from hocn import (ConfigError, FeatureConfig, Graph, InputError, PairBatch, RunningState,
                  ScaleError, adj_power_row, cn_order_features, cn_order_features_all, cn_set,
                  exact_walk_participation, heuristic_scores, normalized_cn_scores,
                  sample_ba_graph)
from hocn.features import _sub_chunks, _walk_nnz_bound
from hocn.scoring import basis_matrices, batch_features

from conftest import as_dense, batch_of, random_graph


def walk_tally(g: Graph, start: int, max_len: int) -> np.ndarray:
    """(max_len+1, n) exact-length walk counts by depth-first enumeration."""
    out = np.zeros((max_len + 1, g.n), dtype=np.int64)
    out[0, start] = 1
    stack = [(start, 0)]
    while stack:
        node, depth = stack.pop()
        if depth == max_len:
            continue
        for nb in g.neighbors(node):
            out[depth + 1, nb] += 1
            stack.append((int(nb), depth + 1))
    return out


def check_against_enumeration(g: Graph, k_max: int = 3) -> None:
    pairs = list(combinations(range(g.n), 2))
    if not pairs:
        return
    batch = batch_of(pairs)
    tallies = {u: walk_tally(g, u, k_max) for u in range(g.n)}
    for k in range(1, k_max + 1):
        feats = cn_order_features(g, batch, k)
        for k1, k2 in ((k, k), (k - 1, k), (k, k - 1)):
            got = as_dense(feats.slices[(k1, k2)])
            for x, (u, v) in enumerate(pairs):
                want = tallies[u][k1] * tallies[v][k2]
                assert (got[x] == want).all(), (g.edge_array(), k, k1, k2, u, v)
        combined = as_dense(feats.combined)
        want_combined = sum(as_dense(m) for m in feats.slices.values())
        assert np.allclose(combined, want_combined)


def test_matches_enumeration_exhaustive_small():
    possible = list(combinations(range(5), 2))
    for mask in range(1 << len(possible)):
        edges = [possible[i] for i in range(len(possible)) if mask >> i & 1]
        check_against_enumeration(Graph.from_edges(5, edges), k_max=3)


@pytest.mark.parametrize("seed", range(12))
def test_matches_enumeration_random_medium(seed):
    n = 6 + seed % 3
    g = random_graph(n, 0.4, seed=seed)
    check_against_enumeration(g, k_max=3)


def test_order_one_is_common_neighbor_count(g4):
    feats = cn_order_features(g4, batch_of([(0, 2), (1, 3)]), 1)
    combined = as_dense(feats.combined)
    # (0,2): A-slices give indicator products; c=0,1,2 contribute
    assert list(combined[0]) == [1, 1, 1, 0]
    assert list(combined[1]) == [0, 0, 1, 0]


def test_endpoint_exclusion_zeroes_endpoint_columns(g4):
    batch = batch_of([(0, 2)])
    feats = cn_order_features(g4, batch, 2, exclude_endpoints=True)
    combined = as_dense(feats.combined)
    assert combined[0, 0] == 0 and combined[0, 2] == 0
    kept = cn_order_features(g4, batch, 2, exclude_endpoints=False)
    assert as_dense(kept.combined)[0, 1] == combined[0, 1]


def test_all_orders_match_matrix_power():
    g = random_graph(30, 0.2, seed=3)
    powers = [np.linalg.matrix_power(g.to_scipy().toarray(), l) for l in range(4)]
    pairs = np.array(list(combinations(range(g.n), 2)))
    u, v = pairs[:, 0], pairs[:, 1]
    rows = np.arange(len(pairs))
    for exclude in (False, True):
        feats = cn_order_features_all(g, batch_of(pairs), 3, exclude_endpoints=exclude)
        for f in feats:
            k = f.order
            assert set(f.slices) == {(k, k), (k - 1, k), (k, k - 1)}
            want_combined = np.zeros((len(pairs), g.n))
            for (k1, k2), got in f.slices.items():
                want = powers[k1][u] * powers[k2][v]
                if exclude:
                    want[rows, u] = 0.0
                    want[rows, v] = 0.0
                assert got.format == "csr"
                assert np.array_equal(got.toarray(), want), (exclude, k1, k2)
                want_combined += want
            assert f.combined.format == "csr"
            assert np.array_equal(f.combined.toarray(), want_combined), (exclude, k)
            if exclude:
                for mat in (*f.slices.values(), f.combined):
                    row = np.repeat(rows, np.diff(mat.indptr))
                    assert not ((mat.indices == u[row]) | (mat.indices == v[row])).any()


def test_all_orders_shares_pair_layout():
    g = random_graph(20, 0.25, seed=4)
    batch = batch_of([(0, 3), (1, 7)])
    feats = cn_order_features_all(g, batch, 3)
    assert [f.order for f in feats] == [1, 2, 3]
    for f in feats:
        assert (f.pairs == batch.pairs).all()


def _pair_costs(g: Graph, pairs: np.ndarray, k_max: int) -> np.ndarray:
    bound = _walk_nnz_bound(g, k_max)
    return bound[pairs[:, 0]] + bound[pairs[:, 1]]


def _hub_pairs(g: Graph, count: int) -> np.ndarray:
    """The ``count`` highest-degree nodes, each paired with a random other node."""
    hubs = np.argsort(g.degrees, kind="stable")[::-1][:count]
    rng = np.random.default_rng(0)
    return np.stack([hubs, (hubs + 1 + rng.integers(0, g.n - 1, count)) % g.n], axis=1)


def test_walk_nnz_bound_covers_walk_rows():
    g = sample_ba_graph(300, 3, seed=2)
    adj = g.to_scipy().toarray()
    powers = [np.linalg.matrix_power(adj, l) for l in range(4)]
    for k_max in range(4):
        stored = sum(np.count_nonzero(p, axis=1) for p in powers[:k_max + 1])
        assert (_walk_nnz_bound(g, k_max) >= stored).all()
    assert np.array_equal(_walk_nnz_bound(g, 1), 1 + g.degrees)


@pytest.mark.parametrize("exclude", [False, True])
def test_features_fit_budget_bounds_the_rows_it_admits(monkeypatch, exclude):
    g = sample_ba_graph(300, 3, seed=2)
    pairs = _hub_pairs(g, 40)
    for k_max in (1, 2, 3):
        bound = _walk_nnz_bound(g, k_max)
        total = k_max * int(np.minimum(bound[pairs[:, 0]], bound[pairs[:, 1]]).sum())
        held = sum(f.combined.nnz for f in cn_order_features_all(
            g, batch_of(pairs), k_max, exclude_endpoints=exclude))
        assert held <= total
        monkeypatch.setattr(hocn.features, "_NNZ_BUDGET", total)
        assert hocn.features.features_fit_budget(g, pairs, k_max)
        monkeypatch.setattr(hocn.features, "_NNZ_BUDGET", total - 1)
        assert not hocn.features.features_fit_budget(g, pairs, k_max)
        monkeypatch.undo()


@pytest.mark.parametrize("edges", [
    [(0, i) for i in range(1, 6)],
    [(i, i + 1) for i in range(6)],
    [(i, (i + 1) % 8) for i in range(8)],
    [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (5, 3), (6, 6)],
], ids=["star", "path", "even-cycle", "triangles-and-isolated"])
def test_order_rows_are_powers_held_within_the_bound(edges):
    g = Graph.from_edges(1 + max(max(e) for e in edges), edges)
    adj = g.to_scipy()
    a = adj.toarray()
    loops = a + np.eye(g.n)
    # Row x holds node x, whose columns sit at the positions of the walk order.
    position = hocn.features._walk_order(g)[1]
    rows = hocn.features._OrderRows(hocn.features._loop_adjacency(g), position)
    prev_held = 0
    for k in range(1, 5):
        prev, step = rows.at(k)
        power = np.linalg.matrix_power(a, k - 1)
        assert prev is None if k == 1 else np.array_equal(prev.toarray()[:, position], power)
        assert np.array_equal(step.toarray()[:, position], power @ loops)
        held = np.diff(step.indptr) + (0 if prev is None else np.diff(prev.indptr))
        assert (held <= _walk_nnz_bound(g, k)).all()
        if k >= 3:
            # Moving to order k held R_{k-2}, S_{k-1} and R_{k-1} = S_{k-1} - R_{k-2}.
            assert (prev_held + np.diff(prev.indptr) <= _walk_nnz_bound(g, k)).all()
        prev_held = held
    with pytest.raises(ConfigError):
        rows.at(3)


def _chunked_and_whole(monkeypatch, g: Graph, pairs: np.ndarray, k_max: int, exclude: bool,
                       scale: int = 1):
    """Features with the budget set to ``scale`` times the costliest pair,
    the sub-chunk sizes that budget gives, and features with no budget."""
    batch = batch_of(pairs)
    monkeypatch.setattr(hocn.features, "_NNZ_BUDGET", 1 << 62)
    whole = cn_order_features_all(g, batch, k_max, exclude_endpoints=exclude)
    monkeypatch.setattr(hocn.features, "_NNZ_BUDGET",
                        scale * int(_pair_costs(g, pairs, k_max).max()))
    sizes = np.diff(_sub_chunks(g, batch.pairs, k_max))
    chunked = cn_order_features_all(g, batch, k_max, exclude_endpoints=exclude)
    return chunked, sizes, whole


def _assert_same_csr(chunked, whole, batch_pairs) -> None:
    assert [f.order for f in chunked] == [f.order for f in whole]
    for got, want in zip(chunked, whole):
        assert np.array_equal(got.pairs, batch_pairs)
        assert set(got.slices) == set(want.slices)
        for key in (*want.slices, "combined"):
            a = got.combined if key == "combined" else got.slices[key]
            b = want.combined if key == "combined" else want.slices[key]
            assert a.format == "csr"
            for attr in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(a, attr), getattr(b, attr)), (got.order, key, attr)


@pytest.mark.parametrize("k_max", [1, 2, 3])
@pytest.mark.parametrize("exclude", [False, True])
def test_sub_chunks_match_whole_batch(monkeypatch, k_max, exclude):
    g = sample_ba_graph(1000, 2, seed=1)
    rng = np.random.default_rng(k_max)
    pairs = np.concatenate([rng.choice(g.n, size=(60, 2), replace=False),
                            _hub_pairs(g, 1),
                            rng.choice(g.n, size=(50, 2), replace=False)])
    chunked, sizes, whole = _chunked_and_whole(monkeypatch, g, pairs, k_max, exclude, scale=2)
    # The hub pair costs half the budget, at least a worker's share of it
    # (a run's rows count twice, for the product scratch), so it sits alone
    # in its sub-chunk.
    assert sizes.sum() == len(pairs) and 1 in sizes and len(set(sizes)) > 2, sizes
    _assert_same_csr(chunked, whole, pairs)


@pytest.mark.parametrize("pairs, scale", [
    (list(combinations(range(7), 2)), 1),
    ([(2, 5), (2, 4), (4, 5)], 1),
    ([(2, 5), (4, 5), (2, 4), (1, 6)], 2),
])
@pytest.mark.parametrize("exclude", [False, True])
def test_sub_chunks_keep_row_order_of_whole_batch(monkeypatch, pairs, scale, exclude):
    # scipy's elementwise product and sum emit sorted rows only when every
    # row of both operands is sorted. Here the A^3 rows of nodes 2, 4 and 5
    # are [1, 6], sorted, and that of node 1 is [5, 4, 2].
    g = Graph.from_edges(7, [(1, 4), (2, 6), (4, 6), (5, 6)])
    pairs = np.array(pairs)
    for k_max in (1, 2, 3):
        chunked, sizes, whole = _chunked_and_whole(monkeypatch, g, pairs, k_max, exclude, scale)
        assert len(sizes) > 1
        _assert_same_csr(chunked, whole, pairs)


@pytest.mark.parametrize("k_max", [1, 2, 3])
@pytest.mark.parametrize("exclude", [False, True])
def test_pair_row_does_not_depend_on_batch(k_max, exclude):
    g = sample_ba_graph(1000, 2, seed=0)
    pairs = np.random.default_rng(k_max).choice(g.n, size=(200, 2), replace=False)
    batch = cn_order_features_all(g, batch_of(pairs), k_max, exclude_endpoints=exclude)
    for x, pair in enumerate(pairs):
        alone = cn_order_features_all(g, batch_of([pair]), k_max, exclude_endpoints=exclude)
        for in_batch, single in zip(batch, alone):
            for key in (*in_batch.slices, "combined"):
                a = in_batch.combined if key == "combined" else in_batch.slices[key]
                b = single.combined if key == "combined" else single.slices[key]
                assert a.has_canonical_format and b.has_canonical_format
                row = slice(a.indptr[x], a.indptr[x + 1])
                assert np.array_equal(a.indices[row], b.indices), (pair, in_batch.order, key)
                assert np.array_equal(a.data[row], b.data), (pair, in_batch.order, key)


def test_sub_chunks_bound_peak_memory_on_hub_batch(monkeypatch):
    g = sample_ba_graph(20000, 3, seed=0)
    pairs = _hub_pairs(g, 800)
    budget = 1 << 20
    monkeypatch.setattr(hocn.features, "_NNZ_BUDGET", budget)
    assert len(_sub_chunks(g, pairs, 3)) > 5
    # CSR data plus int32 indices of the whole batch's walk rows, by the bound.
    whole_rows_bytes = 12 * int(_pair_costs(g, pairs, 3).sum())
    assert whole_rows_bytes > 8 * 12 * budget
    tracemalloc.start()
    try:
        cn_order_features_all(g, batch_of(pairs), 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * whole_rows_bytes, (peak, whole_rows_bytes)


def test_pair_above_budget_raises_before_walk_rows(monkeypatch):
    g = sample_ba_graph(20000, 3, seed=0)
    pairs = _hub_pairs(g, 800)
    whole_rows_bytes = 12 * int(_pair_costs(g, pairs, 3).sum())
    monkeypatch.setattr(hocn.features, "_NNZ_BUDGET", 100)
    tracemalloc.start()
    try:
        with pytest.raises(ScaleError):
            cn_order_features_all(g, batch_of(pairs), 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.05 * whole_rows_bytes, (peak, whole_rows_bytes)


@pytest.mark.parametrize("exclude", [False, True])
def test_order_features_without_walks_are_cut_into_sub_chunks(monkeypatch, exclude):
    g, pairs = _hub_batch(2)
    batch = batch_of(pairs)
    chunked, whole = [], []
    for k in (1, 2, 3):
        monkeypatch.setattr(hocn.features, "_NNZ_BUDGET", 1 << 62)
        whole.append(cn_order_features(g, batch, k, exclude))
        monkeypatch.setattr(hocn.features, "_NNZ_BUDGET", int(_pair_costs(g, pairs, k).max()))
        assert len(_sub_chunks(g, pairs, k)) > 3
        chunked.append(cn_order_features(g, batch, k, exclude))
    _assert_same_csr(chunked, whole, pairs)


def test_order_features_without_walks_keep_the_budget(monkeypatch):
    g = sample_ba_graph(20000, 3, seed=0)
    pairs = _hub_pairs(g, 800)
    costs = _pair_costs(g, pairs, 3)
    hub = int(costs.argmax())
    built = []
    order_rows = hocn.features._OrderRows
    monkeypatch.setattr(hocn.features, "_OrderRows", lambda *args: built.append(args))
    monkeypatch.setattr(hocn.features, "_NNZ_BUDGET", int(costs.max()) - 1)
    with pytest.raises(ScaleError, match=re.escape(f"pair ({pairs[hub, 0]}, {pairs[hub, 1]}) ")):
        cn_order_features(g, batch_of(pairs), 3)
    assert built == []
    monkeypatch.setattr(hocn.features, "_OrderRows", order_rows)
    budget = 1 << 20
    monkeypatch.setattr(hocn.features, "_NNZ_BUDGET", budget)
    assert len(_sub_chunks(g, pairs, 3)) > 5
    # CSR data plus int32 indices of the whole batch's walk rows, by the bound.
    whole_rows_bytes = 12 * int(costs.sum())
    assert whole_rows_bytes > 8 * 12 * budget
    tracemalloc.start()
    try:
        cn_order_features(g, batch_of(pairs), 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * whole_rows_bytes, (peak, whole_rows_bytes)


def _hub_batch(seed: int):
    """A BA(1000, 2) graph and a batch whose middle pair is its top hub."""
    g = sample_ba_graph(1000, 2, seed=1)
    rng = np.random.default_rng(seed)
    pairs = np.concatenate([rng.choice(g.n, size=(60, 2), replace=False),
                            _hub_pairs(g, 1),
                            rng.choice(g.n, size=(50, 2), replace=False)])
    return g, pairs


@pytest.mark.parametrize("k_max", [1, 2, 3])
@pytest.mark.parametrize("exclude", [False, True])
def test_worker_count_does_not_change_features(monkeypatch, k_max, exclude):
    g, pairs = _hub_batch(k_max)
    monkeypatch.setattr(hocn.features, "_NNZ_BUDGET", int(_pair_costs(g, pairs, k_max).max()))
    results = {}
    switch = sys.getswitchinterval()
    try:
        # Four workers on a short switch interval stress the shared adjacency.
        for workers in (1, 2, 4):
            monkeypatch.setattr(hocn.features, "_WORKERS", workers)
            sys.setswitchinterval(1e-6 if workers == 4 else switch)
            assert len(_sub_chunks(g, pairs, k_max)) > 2
            results[workers] = cn_order_features_all(g, batch_of(pairs), k_max,
                                                     exclude_endpoints=exclude)
    finally:
        sys.setswitchinterval(switch)
    _assert_same_csr(results[2], results[1], pairs)
    _assert_same_csr(results[4], results[1], pairs)


@pytest.mark.parametrize("workers", [1, 2])
def test_pair_costing_exactly_the_budget_is_accepted(monkeypatch, workers):
    g, pairs = _hub_batch(0)
    costs = _pair_costs(g, pairs, 3)
    monkeypatch.setattr(hocn.features, "_WORKERS", workers)
    monkeypatch.setattr(hocn.features, "_NNZ_BUDGET", int(costs.max()))
    cuts = _sub_chunks(g, pairs, 3)
    hub = int(costs.argmax())
    assert hub in cuts and hub + 1 in cuts  # the costliest pair sits alone
    assert len(cn_order_features_all(g, batch_of(pairs), 3)) == 3
    monkeypatch.setattr(hocn.features, "_NNZ_BUDGET", int(costs.max()) - 1)
    with pytest.raises(ScaleError):
        cn_order_features_all(g, batch_of(pairs), 3)


def test_worker_exception_reaches_caller_and_threads_end(monkeypatch):
    g, pairs = _hub_batch(0)
    monkeypatch.setattr(hocn.features, "_WORKERS", 2)
    monkeypatch.setattr(hocn.features, "_NNZ_BUDGET", int(_pair_costs(g, pairs, 3).max()))
    cuts = _sub_chunks(g, pairs, 3)
    assert len(cuts) > 3
    orders = hocn.features._orders

    def failing(g, adj, batch, k_max, exclude_endpoints):
        if np.array_equal(batch.pairs[0], pairs[cuts[1]]):
            raise RuntimeError("sub-chunk 1 failed")
        return orders(g, adj, batch, k_max, exclude_endpoints)

    monkeypatch.setattr(hocn.features, "_orders", failing)
    baseline = threading.active_count()
    with pytest.raises(RuntimeError, match="sub-chunk 1 failed"):
        cn_order_features_all(g, batch_of(pairs), 3)
    assert threading.active_count() == baseline


def _longest_first(cost: np.ndarray, share: int) -> list:
    """Runs cut longest-first within ``share``, an item above it alone."""
    cuts, used = [0], 0
    for x, c in enumerate(cost):
        if x > cuts[-1] and used + c > share:
            cuts.append(x)
            used = 0
        used += c
    return cuts + [len(cost)]


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("workers", [1, 2])
def test_runs_hold_half_a_worker_share(monkeypatch, seed, workers):
    # Two runs at most are in flight, and a run's rows count twice, for the
    # scratch of a product of them: one share of a quarter of the budget,
    # whatever the worker count.
    rng = np.random.default_rng(seed)
    cost = rng.integers(1, 40, size=int(rng.integers(50, 400)))
    budget = int(rng.integers(240, 1200))
    monkeypatch.setattr(hocn.features, "_NNZ_BUDGET", budget)
    monkeypatch.setattr(hocn.features, "_WORKERS", workers)
    want = _longest_first(cost, budget // 4)
    assert len(want) > 2
    assert list(hocn.features._budget_cuts(cost, str)) == want


def test_cuts_do_not_depend_on_the_worker_count(monkeypatch):
    # The node blocks of walk_row_sums and the pair sub-chunks alike, so a
    # sum over runs adds its terms in the same order on every machine.
    g, pairs = _hub_batch(0)
    bound = _walk_nnz_bound(g, 3)
    monkeypatch.setattr(hocn.features, "_NNZ_BUDGET", 5 * int(bound.max()))
    cuts = {}
    for workers in (1, 2):
        monkeypatch.setattr(hocn.features, "_WORKERS", workers)
        cuts[workers] = (hocn.features._budget_cuts(bound, str), _sub_chunks(g, pairs, 3))
    assert len(cuts[1][0]) > 4 and len(cuts[1][1]) > 4, cuts[1]
    assert all(np.array_equal(a, b) for a, b in zip(cuts[1], cuts[2]))


def _node_blocks(monkeypatch, g: Graph, k: int, workers: int) -> np.ndarray:
    """Node-block cuts of ``walk_row_sums`` on ``workers`` threads, each
    block within a worker's share of five times the costliest node."""
    bound = _walk_nnz_bound(g, k)
    monkeypatch.setattr(hocn.features, "_WORKERS", workers)
    monkeypatch.setattr(hocn.features, "_NNZ_BUDGET", 5 * workers * int(bound.max()))
    return hocn.features._budget_cuts(bound, str)


@pytest.mark.parametrize("loop_gram", [False, True])
def test_worker_count_does_not_change_walk_row_sums(monkeypatch, loop_gram):
    g = sample_ba_graph(600, 3, seed=2)
    monkeypatch.setattr(hocn.features, "_NNZ_BUDGET", 1 << 62)
    want = {k: hocn.features.walk_row_sums(g, k, loop_gram) for k in (1, 2, 3)}
    switch = sys.getswitchinterval()
    try:
        for workers in (1, 2, 4):
            sys.setswitchinterval(1e-6 if workers == 4 else switch)
            for k in (1, 2, 3):
                cuts = _node_blocks(monkeypatch, g, k, workers)
                assert len(cuts) > 4 and len(set(np.diff(cuts))) > 1, cuts
                diag, gram = hocn.features.walk_row_sums(g, k, loop_gram)
                assert np.array_equal(diag, want[k][0]), (workers, k)
                assert (gram is None) if not loop_gram else np.array_equal(gram, want[k][1])
    finally:
        sys.setswitchinterval(switch)


def test_node_block_exception_reaches_caller_and_threads_end(monkeypatch):
    g = sample_ba_graph(600, 3, seed=2)
    cuts = _node_blocks(monkeypatch, g, 3, 2)
    assert len(cuts) > 3
    order_rows = hocn.features._OrderRows

    def failing(loops, nodes):
        if nodes[0] == cuts[1]:
            raise RuntimeError("node block 1 failed")
        return order_rows(loops, nodes)

    monkeypatch.setattr(hocn.features, "_OrderRows", failing)
    baseline = threading.active_count()
    with pytest.raises(RuntimeError, match="node block 1 failed"):
        hocn.features.walk_row_sums(g, 3, loop_gram=True)
    assert threading.active_count() == baseline


@pytest.mark.parametrize("k_max", [1, 2, 3])
@pytest.mark.parametrize("exclude", [False, True])
def test_combined_is_the_sum_of_slices_built_on_request(monkeypatch, k_max, exclude):
    g, pairs = _hub_batch(k_max)
    monkeypatch.setattr(hocn.features, "_NNZ_BUDGET", int(_pair_costs(g, pairs, k_max).max()))
    assert len(_sub_chunks(g, pairs, k_max)) > 3
    for f in cn_order_features_all(g, batch_of(pairs), k_max, exclude_endpoints=exclude):
        k = f.order
        assert f._slices is None
        want = f.slices[(k, k)] + f.slices[(k - 1, k)] + f.slices[(k, k - 1)]
        for attr in ("data", "indices", "indptr"):
            got = getattr(f.combined, attr)
            assert got.dtype == getattr(want, attr).dtype
            assert np.array_equal(got, getattr(want, attr)), (k, attr)


@pytest.mark.parametrize("variant", ["ocn", "ocnp"])
def test_feature_pipeline_builds_no_slice(monkeypatch, variant):
    def refuse(*args):
        raise AssertionError("a slice was built")

    g, pairs = _hub_batch(0)
    monkeypatch.setattr(hocn.features, "_NNZ_BUDGET", int(_pair_costs(g, pairs, 3).max()))
    monkeypatch.setattr(hocn.features, "_explicit_slices", refuse)
    cfg = FeatureConfig(k_max=3, variant=variant)
    state = RunningState()
    for training in (True, False):
        normalized = batch_features(g, batch_of(pairs), cfg, state, training=training)
        basis_matrices(g, normalized, cfg, state, training=training)
    with pytest.raises(AssertionError, match="a slice was built"):
        cn_order_features(g, batch_of(pairs), 1).slices


def test_features_without_slices_hold_and_peak_less(monkeypatch):
    g = sample_ba_graph(20000, 3, seed=0)
    rng = np.random.default_rng(0)
    pairs = rng.integers(0, g.n, size=(3000, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    monkeypatch.setattr(hocn.features, "_NNZ_BUDGET", 1 << 20)
    assert len(_sub_chunks(g, pairs, 3)) > 5
    held, peak = {}, {}
    for with_slices in (False, True):
        tracemalloc.start()
        try:
            feats = cn_order_features_all(g, batch_of(pairs), 3)
            if with_slices:
                for f in feats:
                    f.slices
            held[with_slices], peak[with_slices] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        del feats
    assert peak[False] < peak[True], peak
    # One matrix per order instead of four.
    assert held[False] < 0.6 * held[True], held


def test_adj_power_row_matches_matrix_power():
    g = random_graph(15, 0.3, seed=5)
    adj = g.to_scipy().toarray()
    for length in range(5):
        p = np.linalg.matrix_power(adj, length)
        for u in (0, 7, 14):
            # whole rows, so the diagonal (closed-walk) entry p[u, u] too
            assert np.array_equal(adj_power_row(g, u, length), p[u]), (length, u)


def test_loop_adjacency_is_built_once_per_graph_and_read_only(monkeypatch):
    g = sample_ba_graph(200, 2, seed=3)
    loops = hocn.features._loop_adjacency(g)
    assert hocn.features._loop_adjacency(g) is loops
    assert hocn.features._loop_adjacency(sample_ba_graph(50, 2, seed=3)) is not loops
    order = hocn.features._walk_order(g)[0]
    want = g.to_scipy().toarray() + np.eye(g.n)
    assert np.array_equal(loops.toarray(), want[np.ix_(order, order)])
    for array in (loops.data, loops.indices, loops.indptr):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 2
    _walk_nnz_bound(g, 2)

    def rebuilt(self):
        raise AssertionError("adjacency rebuilt")

    # Every walk-row path takes A + I from the memo.
    monkeypatch.setattr(Graph, "to_scipy", rebuilt)
    feats = cn_order_features_all(g, batch_of([(0, 5), (7, 9)]), 2)
    feats[1].slices
    cn_order_features(g, batch_of([(0, 5)]), 2)
    hocn.features.walk_row_sums(g, 2, loop_gram=True)
    adj_power_row(g, 4, 3)


def _bipartite(m: int) -> Graph:
    """K_{m,m}: every nonzero entry of A^l is m^(l-1), and every walk total
    m^l."""
    return Graph.from_edges(2 * m, [(u, m + v) for u in range(m) for v in range(m)])


def _counts(make_graph, pairs, k_max: int) -> dict:
    """Raw features (combined and slices) and ``walk_row_sums`` of a fresh
    graph, keyed by name, whatever dtype the walk rows take."""
    g = make_graph()
    out = {}
    for f in cn_order_features_all(g, batch_of(pairs), k_max):
        out[f"combined{f.order}"] = f.combined
        out.update({f"slice{f.order}{key}": m for key, m in f.slices.items()})
    diag, gram = hocn.features.walk_row_sums(g, k_max, loop_gram=True)
    return out | {"diag": diag, "gram": gram}


def _assert_same_counts(got: dict, want: dict) -> None:
    assert got.keys() == want.keys()
    for name, b in want.items():
        a = got[name]
        arrays = ([(getattr(a, x), getattr(b, x)) for x in ("data", "indices", "indptr")]
                  if sp.issparse(b) else [(a, b)])
        for x, y in arrays:
            assert x.dtype == y.dtype and np.array_equal(x, y), name


def _float64_counts(monkeypatch, make_graph, pairs, k_max: int) -> dict:
    """The same, with every walk row and product in float64, as before the
    rows took integer types."""
    with monkeypatch.context() as patch:
        patch.setattr(hocn.features, "_count_dtype", lambda peak: np.float64)
        return _counts(make_graph, pairs, k_max)


def test_walk_rows_are_int32_when_the_totals_fit():
    g = sample_ba_graph(300, 3, seed=2)
    rows = hocn.features._OrderRows(hocn.features._walk_steps(g, 3), np.arange(g.n))
    for k in (1, 2, 3):
        prev, step = rows.at(k)
        assert step.dtype == np.int32 and (prev is None or prev.dtype == np.int32)
    assert hocn.features._loop_adjacency(g).dtype == np.int32
    assert adj_power_row(g, 0, 3).dtype == np.int32


def test_walk_rows_past_the_int32_limit_are_int64(monkeypatch):
    pairs = np.array([(0, 5), (2, 9), (11, 20), (3, 4), (7, 29)])

    def make_graph():
        return random_graph(30, 0.3, seed=4)

    adj = make_graph().to_scipy().toarray().astype(np.int64)
    powers = [np.linalg.matrix_power(adj, l) for l in range(4)]
    # The largest row total of S_l = A^(l-1) (A + I), which bounds every
    # walk-row entry up to order l.
    peaks = [int((powers[l] + powers[l - 1]).sum(axis=1).max()) for l in (1, 2, 3)]
    assert peaks[0] < peaks[1] < peaks[2]
    want = {k: _float64_counts(monkeypatch, make_graph, pairs, k) for k in (2, 3)}
    # Rows up to order 2 stay int32 and order-3 rows take int64; products
    # of order-2 rows pass the lowered limit and are formed in int64.
    monkeypatch.setattr(hocn.features, "_INT32_LIMIT", peaks[1] + 1)
    g = make_graph()
    step = hocn.features._OrderRows(hocn.features._walk_steps(g, 2), pairs[:, 0]).at(2)[1]
    order = hocn.features._walk_order(g)[0]
    assert step.dtype == np.int32 and hocn.features._product(step, step, order).dtype == np.int64
    assert hocn.features._walk_steps(make_graph(), 3).dtype == np.int64
    for k in (2, 3):
        _assert_same_counts(_counts(make_graph, pairs, k), want[k])


def test_product_past_the_int32_limit_is_formed_in_int64(monkeypatch):
    # In K_{40,40} an S_4 row holds 40^3 = 64,000 and its total is
    # 40^4 + 40^3 < 2^31, so the rows are int32, but 64,000^2 > 2^31.
    pairs = np.array([(0, 1), (0, 40), (3, 77)])
    g = _bipartite(40)
    rows = hocn.features._OrderRows(hocn.features._walk_steps(g, 4), pairs[:, 0])
    step = rows.at(4)[1]
    assert step.dtype == np.int32 and int(step.data.max()) ** 2 > 2 ** 31
    product = hocn.features._product(step, step, hocn.features._walk_order(g)[0])
    assert product.dtype == np.int64 and product.data.max() == 64000 ** 2
    _assert_same_counts(_counts(lambda: _bipartite(40), pairs, 4),
                        _float64_counts(monkeypatch, lambda: _bipartite(40), pairs, 4))


@pytest.mark.parametrize("length", [6, 7])
def test_adj_power_row_past_the_int32_limit(length):
    # The walk totals of K_{40,40} reach 40^6 > 2^31 at length 6, and its
    # entries 40^6 at length 7: rows of either length are int64.
    g = _bipartite(40)
    columns = [[int(x) for x in col] for col in g.to_scipy().toarray().T]
    for u in (0, 41):
        want = [int(v == u) for v in range(g.n)]  # Python ints do not wrap
        for _ in range(length):
            want = [sum(a * b for a, b in zip(want, col)) for col in columns]
        assert max(want) == 40 ** (length - 1)
        got = adj_power_row(g, u, length)
        assert got.dtype == np.int64 and got.tolist() == want, u


def test_adj_power_row_negative_length_is_a_config_error():
    g = random_graph(6, 0.4, seed=6)
    with pytest.raises(ConfigError, match="got -1"):
        adj_power_row(g, 0, -1)


def test_adj_power_row_node_outside_the_graph_is_an_input_error():
    g = sample_ba_graph(50, 2, seed=0)
    for u in (-1, 50):
        with pytest.raises(InputError, match=re.escape(f"node {u} is outside [0, 50)")):
            adj_power_row(g, u, 2)
    p = np.linalg.matrix_power(g.to_scipy().toarray(), 2)
    assert np.array_equal(adj_power_row(g, 49, 2), p[49])


def test_cn_set_order_one_is_shared_neighbors(g4):
    assert cn_set(g4, 0, 2, 1) == {1}
    assert cn_set(g4, 0, 2, 1, exclude_endpoints=False) == {0, 1, 2}


def test_empty_batch_rejected(g4):
    with pytest.raises(Exception):
        batch_of(np.zeros((0, 2)))


@pytest.mark.parametrize("pairs,named", [
    ([[-1, 2]], "(-1, 2)"),
    ([[3, 50]], "(3, 50)"),
    ([[0, 49], [4, -7], [5, 60]], "(4, -7)"),
], ids=["negative", "n", "first-of-several"])
def test_endpoint_outside_the_graph_is_an_input_error(pairs, named):
    # Without the check, endpoint -1 read the rows of node 49 and endpoint 50
    # ended in a bare IndexError.
    g = sample_ba_graph(50, 2, seed=0)
    batch = PairBatch(pairs)
    calls = [lambda: cn_order_features_all(g, batch, 2),
             lambda: cn_order_features(g, batch, 2),
             lambda: heuristic_scores(g, batch.pairs, "ra"),
             lambda: normalized_cn_scores(g, batch.pairs, 2)]
    for call in calls:
        with pytest.raises(InputError, match=re.escape(
                f"pair {named} has an endpoint outside [0, 50)")):
            call()
    inside = PairBatch([[0, 49], [49, 1]])
    assert cn_order_features_all(g, inside, 2)[1].combined.shape == (2, 50)
    assert heuristic_scores(g, inside.pairs, "cn").shape == (2,)


def _components_graph(seed: int) -> Graph:
    """A BA graph, a cycle, a star, a path and single edges, with isolated
    nodes, their ids shuffled so that the components interleave."""
    parts = [sample_ba_graph(40, 2, seed=seed).edge_array(),
             [(i, (i + 1) % 7) for i in range(7)], [(0, i) for i in range(1, 6)],
             [(i, i + 1) for i in range(5)], [(0, 1)], [(0, 1)]]
    edges, n = [], 0
    for part in parts:
        part = np.asarray(part)
        edges.append(part + n)
        n += int(part.max()) + 1
    n += 6  # isolated
    label = np.random.default_rng(seed).permutation(n)
    return Graph.from_edges(n, label[np.concatenate(edges)])


def _bfs_order(g: Graph) -> list:
    """Breadth-first order of each component from its lowest id, components
    by their lowest id, neighbors by ascending id, isolated nodes last."""
    order, seen = [], np.zeros(g.n, dtype=bool)
    for root in range(g.n):
        if seen[root] or not g.degrees[root]:
            continue
        seen[root] = True
        queue = deque([root])
        while queue:
            node = queue.popleft()
            order.append(node)
            for nb in g.neighbors(node):
                if not seen[nb]:
                    seen[nb] = True
                    queue.append(int(nb))
    return order + [int(c) for c in np.flatnonzero(g.degrees == 0)]


def _walk_order_graphs() -> list:
    return [lambda: _components_graph(0), lambda: _components_graph(1),
            lambda: Graph.from_edges(2, [(0, 1)]), lambda: Graph.from_edges(2, []),
            lambda: random_graph(30, 0.08, seed=3)]


def test_walk_order_is_the_breadth_first_order_of_each_component():
    for make_graph in _walk_order_graphs():
        g = make_graph()
        order, position = hocn.features._walk_order(g)
        assert order.tolist() == _bfs_order(g)
        assert np.array_equal(position[order], np.arange(g.n))
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(2, 40))
        g = Graph.from_edges(n, rng.integers(0, n, size=(int(rng.integers(0, 2 * n)), 2)))
        assert hocn.features._walk_order(g)[0].tolist() == _bfs_order(g)


def _traced_peak(build) -> int:
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_walk_order_and_loop_adjacency_make_no_edge_length_int64_copies():
    # Each would cost the edge array's bytes again: a scatter per edge in the
    # hooking passes, or an int64 copy of the indices for scipy to narrow.
    g = sample_ba_graph(20000, 3, seed=0)
    edge_bytes = g.indices.nbytes
    assert _traced_peak(lambda: hocn.features._walk_order(g)) < 3.4 * edge_bytes
    # The walk order is memoized now, so this traces A + I alone.
    assert _traced_peak(lambda: hocn.features._loop_adjacency(g)) < 2.5 * edge_bytes


def _identity_order(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    ids = np.arange(g.n)
    ids.flags.writeable = False
    return ids, ids


def _walk_outputs(g: Graph) -> dict:
    """Everything that walk rows give, by name: features and slices at
    K = 1..3 with both endpoint settings, the diagonals and Gram of
    ``walk_row_sums``, exact participation, ``adj_power_row`` and
    ``cn_set``, for all pairs of ``g``."""
    pairs = np.array(list(combinations(range(g.n), 2)))
    out = {}
    for exclude in (False, True):
        for f in cn_order_features_all(g, batch_of(pairs), 3, exclude_endpoints=exclude):
            out[f"combined{f.order}{exclude}"] = f.combined
            out.update({f"slice{f.order}{key}{exclude}": m for key, m in f.slices.items()})
        for k in (1, 2, 3):
            out[f"participation{k}{exclude}"] = exact_walk_participation(g, k, exclude).counts
    out["diag"], out["gram"] = hocn.features.walk_row_sums(g, 3, loop_gram=True)
    for u in range(0, g.n, 7):
        for length in range(5):
            out[f"row{u}-{length}"] = adj_power_row(g, u, length)
    for i, j in pairs[::37]:
        for k in (1, 2, 3):
            for exclude in (False, True):
                members = sorted(cn_set(g, int(i), int(j), k, exclude_endpoints=exclude))
                out[f"cn_set{i}-{j}-{k}{exclude}"] = np.array(members, dtype=np.int64)
    return out


def test_walk_order_changes_no_output(monkeypatch):
    # The oracle walks in node order: every output, stored order and dtype
    # included, is the same whatever the order of the walk rows.
    for make_graph in _walk_order_graphs():
        got = _walk_outputs(make_graph())
        with monkeypatch.context() as patch:
            patch.setattr(hocn.features, "_walk_order", _identity_order)
            want = _walk_outputs(make_graph())
        _assert_same_counts(got, want)
    assert sum(not np.array_equal(hocn.features._walk_order(make_graph())[0], np.arange(
        make_graph().n)) for make_graph in _walk_order_graphs()) == 3


def test_walk_order_is_read_only_and_built_once_in_the_calling_thread(monkeypatch):
    builds = []
    memoized = Graph.memoized

    def recording(g, key, build):
        def recorded():
            builds.append((key, threading.current_thread()))
            return build()

        return memoized(g, key, recorded if key == "walk_order" else build)

    monkeypatch.setattr(Graph, "memoized", recording)
    g = sample_ba_graph(600, 3, seed=2)
    pairs = _hub_pairs(g, 200)
    monkeypatch.setattr(hocn.features, "_WORKERS", 2)
    monkeypatch.setattr(hocn.features, "_NNZ_BUDGET", 8 * int(_walk_nnz_bound(g, 3).max()))
    assert len(_sub_chunks(g, pairs, 3)) > 3
    feats = cn_order_features_all(g, batch_of(pairs), 3)
    feats[2].slices
    hocn.features.walk_row_sums(g, 3, loop_gram=True)
    adj_power_row(g, 5, 3)
    assert builds == [("walk_order", threading.main_thread())]
    order, position = hocn.features._walk_order(g)
    assert np.array_equal(np.sort(order), np.arange(g.n))
    assert np.array_equal(order[position], np.arange(g.n))
    for array in (order, position):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1


def test_many_components_take_no_rescan_per_component():
    # 20,000 components of one edge each: a search that looked for the next
    # unvisited node from the start, or ran one loop per component, would take
    # seconds here.
    edges = np.arange(40_000).reshape(-1, 2)
    elapsed = []
    for _ in range(3):
        g = Graph.from_edges(40_000, edges)
        start = time.perf_counter()
        order = hocn.features._walk_order(g)[0]
        elapsed.append(time.perf_counter() - start)
        assert np.array_equal(order, np.arange(40_000))
    assert min(elapsed) < 0.25, elapsed
