import re
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from itertools import combinations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import hocn.features
import hocn.normalize
from hocn import (ConfigError, Graph, RunningState, ScaleError, apply_normalization,
                  cn_order_features, cn_order_features_all, exact_walk_participation,
                  heuristic_score, normalized_cn_score, normalized_cn_scores,
                  running_counts, update_running_participation)
from hocn.features import _walk_nnz_bound
from hocn.theory import sample_ba_graph

from conftest import as_dense, batch_of, nonadjacent_pairs, random_graph


def brute_force_participation(g: Graph, k: int, exclude_endpoints: bool) -> np.ndarray:
    """Ordered-pair column sums computed directly from the feature pipeline."""
    counts = np.zeros(g.n)
    pairs = list(combinations(range(g.n), 2))
    if not pairs:
        return counts
    feats = cn_order_features(g, batch_of(pairs), k,
                              exclude_endpoints=exclude_endpoints)
    # combined is symmetric in the pair, so ordered totals double the sums
    counts += 2.0 * np.asarray(as_dense(feats.combined)).sum(axis=0)
    return counts


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("exclude", [False, True])
def test_exact_participation_matches_brute_force(seed, k, exclude):
    g = random_graph(5 + seed, 0.45, seed=seed)
    got = exact_walk_participation(g, k, exclude_endpoints=exclude).counts
    want = brute_force_participation(g, k, exclude)
    assert np.allclose(got, want), (seed, k, exclude)


def matrix_power_participation(g: Graph, k: int, exclude_endpoints: bool) -> np.ndarray:
    """The closed form evaluated on dense np.linalg.matrix_power powers."""
    adj = g.to_scipy().toarray()
    powers = [np.linalg.matrix_power(adj, p) for p in range(2 * k + 1)]
    sums = [p.sum(axis=0) for p in powers]
    counts = np.zeros(g.n)
    for k1, k2 in ((k, k), (k - 1, k), (k, k - 1)):
        counts += sums[k1] * sums[k2] - np.diag(powers[k1 + k2])
        if exclude_endpoints:
            d1 = np.diag(powers[k1])
            d2 = np.diag(powers[k2])
            counts -= d1 * (sums[k2] - d2)
            counts -= d2 * (sums[k1] - d1)
    counts[np.abs(counts) < 1e-9] = 0.0
    return counts


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("exclude", [False, True])
def test_exact_participation_equals_matrix_power_closed_form(monkeypatch, k, exclude):
    blocks = []
    order_rows = hocn.features._OrderRows

    def recorded(loops, nodes):
        blocks.append(len(nodes))
        return order_rows(loops, nodes)

    monkeypatch.setattr(hocn.features, "_OrderRows", recorded)
    for g in (sample_ba_graph(250, 3, seed=4), random_graph(40, 0.2, seed=1)):
        # A worker's share of three times the costliest node's bound, its
        # rows counted twice for the product scratch, cuts several blocks of
        # unequal size.
        bound = _walk_nnz_bound(g, k)
        monkeypatch.setattr(hocn.features, "_NNZ_BUDGET",
                            6 * hocn.features._WORKERS * int(bound.max()))
        blocks.clear()
        got = exact_walk_participation(g, k, exclude_endpoints=exclude).counts
        assert len(blocks) > 2 and len(set(blocks)) > 1 and sum(blocks) == g.n, blocks
        assert np.array_equal(got, matrix_power_participation(g, k, exclude)), (g.n, k, exclude)


def test_participation_reads_the_walk_totals_of_the_walk_rows(monkeypatch):
    # s_{k-1} and s_k come from the memoized A + I of the walk rows, not
    # from a fresh adjacency matrix.
    g = sample_ba_graph(300, 2, seed=1)
    want = {(k, exclude): matrix_power_participation(g, k, exclude)
            for k in (1, 2, 3) for exclude in (False, True)}
    hocn.features._loop_adjacency(g)

    def rebuilt(self):
        raise AssertionError("adjacency rebuilt")

    monkeypatch.setattr(Graph, "to_scipy", rebuilt)
    for (k, exclude), counts in want.items():
        got = exact_walk_participation(g, k, exclude_endpoints=exclude).counts
        assert np.array_equal(got, counts), (k, exclude)


def test_exact_participation_allocates_no_dense_square():
    # The second graph is above the node count a guard used to refuse.
    for n, m, k in ((4000, 2, 2), (20000, 3, 2)):
        g = sample_ba_graph(n, m, seed=0)
        tracemalloc.start()
        try:
            exact_walk_participation(g, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * g.n * g.n * 8, (n, peak)


def test_participation_order_one_is_degree_pairs(g4):
    got = exact_walk_participation(g4, 1, exclude_endpoints=True).counts
    d = g4.degrees.astype(float)
    assert np.allclose(got, d * (d - 1))
    assert list(got) == [2.0, 2.0, 6.0, 0.0]


def test_participation_node_above_budget_raises_before_walk_rows(monkeypatch):
    g = random_graph(12, 0.3, seed=0)
    bound = _walk_nnz_bound(g, 2)
    built = []
    monkeypatch.setattr(hocn.features, "_OrderRows", lambda *args: built.append(args))
    monkeypatch.setattr(hocn.features, "_NNZ_BUDGET", int(bound.max()) - 1)
    with pytest.raises(ScaleError, match=f"node {int(bound.argmax())} "):
        exact_walk_participation(g, 2)
    assert built == []


def test_participation_is_built_once_and_read_only():
    g = random_graph(12, 0.4, seed=2)
    first = exact_walk_participation(g, 2, exclude_endpoints=True)
    assert exact_walk_participation(g, 2, exclude_endpoints=True) is first
    assert exact_walk_participation(g, 2, exclude_endpoints=False) is not first
    with pytest.raises(ValueError):
        first.counts[0] = 1.0
    with pytest.raises(ValueError):
        first.counts += 1.0
    fresh = random_graph(12, 0.4, seed=2)
    assert np.array_equal(first.counts, exact_walk_participation(fresh, 2).counts)


def test_threads_building_at_once_share_one_participation():
    g = random_graph(60, 0.2, seed=3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(lambda _: exact_walk_participation(g, 3), range(8),
                                timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert all(part is got[0] for part in got)
    assert np.allclose(got[0].counts, brute_force_participation(g, 3, True))


def test_participation_above_budget_stores_nothing(monkeypatch):
    g = random_graph(12, 0.3, seed=0)
    budget = hocn.features._NNZ_BUDGET
    monkeypatch.setattr(hocn.features, "_NNZ_BUDGET", int(_walk_nnz_bound(g, 2).max()) - 1)
    for _ in range(2):  # the failed build is tried again, and fails again
        with pytest.raises(ScaleError):
            exact_walk_participation(g, 2)
    monkeypatch.setattr(hocn.features, "_NNZ_BUDGET", budget)
    got = exact_walk_participation(g, 2).counts
    assert np.array_equal(got, exact_walk_participation(random_graph(12, 0.3, seed=0), 2).counts)


@pytest.mark.parametrize("seed", range(3))
def test_both_endpoint_settings_on_one_graph_match_brute_force(seed):
    g = random_graph(7 + seed, 0.45, seed=seed)
    for k in (1, 2, 3):
        for exclude in (True, False, True, False):
            got = exact_walk_participation(g, k, exclude_endpoints=exclude).counts
            assert np.allclose(got, brute_force_participation(g, k, exclude)), (seed, k, exclude)


def test_order_below_one_is_a_config_error(g4):
    with pytest.raises(ConfigError, match="k_max must be >= 1, got 0"):
        cn_order_features_all(g4, batch_of([(0, 3)]), 0)
    with pytest.raises(ConfigError, match="got 0"):
        normalized_cn_scores(g4, np.array([[0, 3]]), 0)
    for kind, k in (("normalized_cn_0", 0), ("normalized_cn_-1", -1)):
        with pytest.raises(ConfigError, match=f"got {k}"):
            heuristic_score(g4, (0, 3), kind)


@pytest.mark.parametrize("kind", ["normalized_cn", "normalized_cn_x", "normalized_cn_",
                                  "normalized_cn_1_2", "normalized_cn_ 2", "normalized_cn_2.0"])
def test_malformed_normalized_cn_kind_is_a_config_error(g4, kind):
    with pytest.raises(ConfigError, match=re.escape(repr(kind))):
        heuristic_score(g4, (0, 3), kind)


def test_running_estimate_is_batch_mean(g4):
    state = RunningState()
    batches = [batch_of([(0, 2), (1, 3)]), batch_of([(0, 3)]),
               batch_of([(1, 3), (0, 2), (0, 1)])]
    sums = []
    for b in batches:
        feats = cn_order_features(g4, b, 2)
        sums.append(np.asarray(as_dense(feats.combined)).sum(axis=0))
        update_running_participation(state, feats)
    counts = running_counts(state, 2)
    assert np.allclose(counts.counts, np.mean(sums, axis=0))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=30))
def test_running_gain_equals_arithmetic_mean(values):
    # the 1/(1+t) gain makes the scalar recurrence an exact running mean
    est = 0.0
    for t, v in enumerate(values):
        gamma = 1.0 / (1 + t)
        est = (1.0 - gamma) * est + gamma * v
    assert est == pytest.approx(np.mean(values), rel=1e-9, abs=1e-9)


def test_apply_normalization_divides_columns(g4):
    feats = cn_order_features(g4, batch_of([(0, 2), (1, 3)]), 1)
    part = exact_walk_participation(g4, 1, exclude_endpoints=False)
    normed = apply_normalization(feats, part)
    raw = as_dense(feats.combined)
    got = as_dense(normed.combined)
    expect = raw / np.maximum(part.counts, 1e-12)
    assert np.allclose(got, expect)
    assert (got[raw == 0] == 0).all()


def test_scale_columns_matches_diagonal_product_and_copies():
    g = random_graph(30, 0.3, seed=4)
    feats = cn_order_features(g, batch_of([(0, 5), (2, 9), (11, 20)]), 2)
    weights = np.random.default_rng(0).normal(size=g.n)
    weights[::3] = 0.0
    scaled = feats.scale_columns(weights)
    got, raw = scaled.combined, feats.combined
    want = (raw @ sp.diags(weights)).tocsr()
    assert want.nnz < raw.nnz  # some stored entries have weight 0
    assert got.format == "csr" and got.nnz == want.nnz
    assert np.array_equal(got.toarray(), want.toarray())
    for a in (got.data, got.indices, got.indptr):
        assert not any(np.shares_memory(a, b) for b in (raw.data, raw.indices, raw.indptr))


def test_scale_columns_without_zero_weight_shares_read_only_indices():
    g = random_graph(30, 0.3, seed=4)
    feats = cn_order_features(g, batch_of([(0, 5), (2, 9), (11, 20)]), 2)
    raw = feats.combined
    want = raw.toarray() * np.linspace(0.5, 2.0, g.n)
    scaled = feats.scale_columns(np.linspace(0.5, 2.0, g.n))
    got = scaled.combined
    assert got.format == "csr" and np.array_equal(got.toarray(), want)
    assert np.shares_memory(got.indices, raw.indices) and np.shares_memory(got.indptr, raw.indptr)
    for a in (got.data, got.indices, got.indptr):
        for b in (raw.data, raw.indices, raw.indptr):
            assert not (np.shares_memory(a, b) and (a.flags.writeable or b.flags.writeable))
    for array in (got.indices, got.indptr):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1
    assert np.array_equal(raw.toarray(), feats.combined.toarray())
    with pytest.raises(ConfigError, match="scaled features keep no slices"):
        scaled.slices
    assert set(feats.slices) == {(2, 2), (1, 2), (2, 1)}


def test_normalization_epsilon_guards_zero_columns(g4):
    feats = cn_order_features(g4, batch_of([(0, 2)]), 1)
    part = exact_walk_participation(g4, 1, exclude_endpoints=True)
    assert part.counts[3] == 0.0  # leaf never participates with endpoints excluded
    normed = apply_normalization(feats, part)
    assert np.isfinite(as_dense(normed.combined)).all()


def test_g4_degeneracy_hand_value(g4):
    # single common neighbor of degree 2: corrected term is 1/2
    assert normalized_cn_score(g4, 0, 2, 1, degree_corrected=True) == 0.5
    assert heuristic_score(g4, (0, 2), "ra") == 0.5


def test_degree_corrected_score_reads_no_participation(monkeypatch, g4):
    calls = []
    real = hocn.normalize.exact_walk_participation

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(hocn.normalize, "exact_walk_participation", counted)
    g = sample_ba_graph(500, 2, seed=3)
    adj = g.to_scipy()
    for c in (0, 1, 2, 3):
        u, v = (int(x) for x in adj[c].indices[:2])
        got = normalized_cn_score(g, u, v, 1, degree_corrected=True)
        assert abs(got - heuristic_score(g, (u, v), "ra")) <= 1e-12
    assert calls == []
    normalized_cn_score(g4, 0, 2, 1)
    assert len(calls) == 1


@pytest.mark.parametrize("seed", range(5))
def test_ra_degeneracy_on_random_graphs(seed):
    g = random_graph(10 + 8 * seed, 0.15, seed=seed)
    for u, v in nonadjacent_pairs(g):
        ra = heuristic_score(g, (u, v), "ra")
        corrected = normalized_cn_score(g, u, v, 1, degree_corrected=True)
        assert abs(ra - corrected) <= 1e-12


def test_normalized_score_zero_without_members():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert normalized_cn_score(g, 0, 2, 1) == 0.0
