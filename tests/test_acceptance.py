"""Release gate: one test per acceptance criterion.

Each test carries the full statement of what it verifies; the terminal
summary prints one PASS/FAIL line per criterion (see conftest). Criteria 1
and 2 need the Cora citation-network edge list at data/cora.edges, which is
not bundled; without it they fail with an explanatory message rather than
silently skipping.
"""

import itertools
import math
import os
import time

import numpy as np
import pytest

from hocn import (BoundInputs, FeatureConfig, Graph, LatentModelParams,
                  PairBatch, RunningState, TrainConfig, bound_normalized,
                  bound_unnormalized, default_node_features, evaluate,
                  full_graph_orthogonalize, gram_schmidt_batch,
                  heuristic_score, heuristic_scores, lambert_w,
                  load_edge_list, log_double_factorial_ratio, merged_graph,
                  model_scores, normalized_cn_score, propagate_features,
                  sample_negatives, split_edges, train_model, validate_bound)
from hocn.diagnostics import (coefficient_of_variation, edge_jsd,
                              order_correlation)
from hocn.features import cn_order_features_all
from hocn.normalize import apply_normalization, exact_walk_participation
from hocn.scoring import logistic_loss_and_grads
from hocn.theory import sample_ba_graph

from conftest import (WITNESS_EDGES, WITNESS_PAIRS, as_dense, nonadjacent_pairs,
                      random_graph, walk_count)

CORA_PATH = os.path.join(os.path.dirname(__file__), "..", "data", "cora.edges")
CORA_MISSING = ("criterion needs the Cora edge list at data/cora.edges "
                "(one 'u<TAB>v' line per citation edge); it is not bundled "
                "and this environment has no network access to fetch it")


def load_cora():
    if not os.path.exists(CORA_PATH):
        pytest.fail(CORA_MISSING)
    with open(CORA_PATH) as fh:
        g, _ = load_edge_list(fh)
    return g


def cora_eval(g, seed, score_kind, split_name="test"):
    split = split_edges(g, (0.7, 0.1, 0.2), seed)
    base = merged_graph(split, False)
    batch = getattr(split, split_name)
    exclude = [tuple(p) for p in np.concatenate(
        [split.train.pairs, split.valid.pairs, split.test.pairs], axis=0)]
    negatives = sample_negatives(base, len(batch), seed + 7, exclude=exclude)
    score_fn = lambda pairs: heuristic_scores(base, pairs, score_kind)
    return evaluate(score_fn, batch, negatives, ks=(100,))


def test_criterion_01_heuristic_baselines_on_cora():
    """Mean CN Hits@100 in [0.28, 0.40] and RA in [0.35, 0.47] over 10 seeds."""
    g = load_cora()
    cn_hits, ra_hits = [], []
    for seed in range(10):
        start = time.time()
        cn_hits.append(cora_eval(g, seed, "cn").hits[100])
        ra_hits.append(cora_eval(g, seed, "ra").hits[100])
        assert time.time() - start <= 60.0
    assert 0.28 <= float(np.mean(cn_hits)) <= 0.40
    assert 0.35 <= float(np.mean(ra_hits)) <= 0.47


def test_criterion_02_trained_model_beats_cn_on_cora():
    """Trained model validation Hits@100 >= plain CN on >= 8 of 10 seeds."""
    g = load_cora()
    wins = 0
    for seed in range(10):
        split = split_edges(g, (0.7, 0.1, 0.2), seed)
        base = merged_graph(split, False)
        exclude = [tuple(p) for p in np.concatenate(
            [split.train.pairs, split.valid.pairs, split.test.pairs], axis=0)]
        negatives = sample_negatives(base, len(split.valid), seed + 7,
                                     exclude=exclude)
        cn_fn = lambda pairs: heuristic_scores(base, pairs, "cn")
        cn_hits = evaluate(cn_fn, split.valid, negatives, ks=(100,)).hits[100]
        fc = FeatureConfig(seed=seed)
        result = train_model(split, TrainConfig(features=fc))
        x = default_node_features(base, dim=fc.feature_dim, seed=fc.seed)
        h = propagate_features(base, x, fc.depth)
        model_fn = lambda pairs: model_scores(base, pairs, result.model,
                                              result.state, h, fc)
        model_hits = evaluate(model_fn, split.valid, negatives, ks=(100,)).hits[100]
        wins += model_hits >= cn_hits
    assert wins >= 8


def test_criterion_03_orthogonality_exact_and_streaming():
    """Exact basis: pairwise Frobenius inner products <= 1e-6 on 20 graphs.

    Streaming: after 1000 i.i.d. batches the running projection coefficient,
    rescaled by sqrt(batch/all-pairs), is within 5% of the exact value.
    """
    start = time.time()
    for seed in range(20):
        n = 50 + 15 * seed
        if seed % 2:
            g = sample_ba_graph(n, 3, seed=seed)
        else:
            g = random_graph(n, 8.0 / n, seed=seed)
        basis = full_graph_orthogonalize(g, 3)
        for a in range(1, 4):
            for b in range(1, a):
                if basis.degenerate[a - 1] or basis.degenerate[b - 1]:
                    continue
                assert abs(basis.inner(a, b)) <= 1e-6, (seed, a, b)

    g = sample_ba_graph(200, 3, seed=0)
    exact = full_graph_orthogonalize(g, 2)
    h = 512
    rng = np.random.default_rng(42)
    state = RunningState()
    for _ in range(1000):
        u = rng.integers(0, g.n, size=2 * h)
        v = rng.integers(0, g.n, size=2 * h)
        keep = u != v
        pairs = np.stack([u[keep], v[keep]], axis=1)[:h]
        feats = cn_order_features_all(g, PairBatch(pairs), 2)
        gram_schmidt_batch(feats, state)
    scale = math.sqrt(h / (g.n * (g.n - 1) / 2))
    streamed = state.xi_hat[(2, 1)] / scale
    reference = exact.cn_ocn_inner(2, 1)
    assert abs(streamed - reference) <= 0.05 * abs(reference)
    assert time.time() - start <= 120.0


def test_criterion_04_degree_corrected_normalization_recovers_ra():
    """Corrected order-1 normalized score equals resource allocation to 1e-12."""
    graphs = [Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 2)]),
              Graph.from_edges(6, WITNESS_EDGES)]
    for seed in range(8):
        n = 10 + 5 * seed
        graphs.append(random_graph(n, 0.2, seed=seed))
    for g in graphs:
        assert g.n <= 50
        for u, v in nonadjacent_pairs(g):
            got = normalized_cn_score(g, u, v, 1, degree_corrected=True)
            want = heuristic_score(g, (u, v), "ra")
            assert abs(got - want) <= 1e-12, (g.n, u, v)


def all_graphs(n):
    """Every labeled simple graph on n nodes."""
    slots = list(itertools.combinations(range(n), 2))
    for bits in range(2 ** len(slots)):
        yield Graph.from_edges(n, [e for i, e in enumerate(slots)
                                   if bits >> i & 1])


def check_slices_against_enumeration(g):
    pairs = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)]
    if not pairs:
        return
    batch = PairBatch(np.array(pairs))
    feats = cn_order_features_all(g, batch, 3)
    for f in feats:
        k = f.order
        for (k1, k2), mat in f.slices.items():
            dense = as_dense(mat)
            for x, (u, v) in enumerate(pairs):
                for c in range(g.n):
                    want = walk_count(g, u, c, k1) * walk_count(g, c, v, k2)
                    assert dense[x, c] == want, (g.n, k1, k2, u, v, c)


def test_criterion_05_walk_slices_match_brute_force():
    """CN^k slices equal depth-first walk enumeration, k <= 3.

    Exhaustive over every labeled graph with n <= 5; graphs with n in
    {6, 7, 8} are covered by a randomized sample (the full n <= 8 family has
    ~2.7e8 members, far beyond any test budget).
    """
    for n in range(2, 6):
        for g in all_graphs(n):
            check_slices_against_enumeration(g)
    for n in (6, 7, 8):
        for seed in range(12):
            check_slices_against_enumeration(
                random_graph(n, 0.15 + 0.08 * (seed % 5), seed=seed))


def test_criterion_06_diagnostics_reproduce_qualitative_behavior():
    """On BA(200, 3), each direction holds on >= 9 of 10 seeds:

    cross-order correlation drops after orthogonalization, mean per-edge
    Jensen-Shannon divergence rises, and the normalized order-2 features
    have a higher coefficient of variation than the raw ones.
    """
    corr_ok = jsd_ok = cv_ok = 0
    for seed in range(10):
        g = sample_ba_graph(200, 3, seed=seed)
        rng = np.random.default_rng(seed + 100)
        chosen = set()
        while len(chosen) < 256:
            u, v = map(int, rng.integers(0, g.n, 2))
            if u != v:
                chosen.add((min(u, v), max(u, v)))
        batch = PairBatch(np.array(sorted(chosen)))
        feats = cn_order_features_all(g, batch, 2)
        raw = [as_dense(f.combined) for f in feats]
        normalized = [apply_normalization(f, exact_walk_participation(g, f.order))
                      for f in feats]
        basis = gram_schmidt_batch(normalized, RunningState(), training=True)
        ortho = [as_dense(basis.matrix(k)) for k in (1, 2)]
        norm_dense = [as_dense(f.combined) for f in normalized]
        corr_ok += (order_correlation(raw)[0, 1]
                    > order_correlation(ortho)[0, 1])
        jsd_ok += (float(np.nanmean(edge_jsd(ortho[0], ortho[1])))
                   > float(np.nanmean(edge_jsd(raw[0], raw[1]))))
        cv_ok += (coefficient_of_variation(norm_dense[1])
                  > coefficient_of_variation(raw[1]))
    assert corr_ok >= 9
    assert jsd_ok >= 9
    assert cv_ok >= 9


def test_criterion_07_bound_validation_and_grid_shape():
    """Monte-Carlo violation fraction <= delta at (N=500, D=2, k in {1,2},
    delta=0.1, 200 trials); over k = 2..6 for one shared input tuple the
    normalized bound strictly decreases while the raw one moves < 2%.
    """
    start = time.time()
    for k, radius in ((1, 0.15), (2, 0.45)):
        params = LatentModelParams(n=500, dim=2, radius=radius, seed=0)
        report = validate_bound("latent", params, "unnormalized", k=k,
                                delta=0.1, trials=200, seed=7, threads=4)
        assert report.eligible > 0, k
        assert report.violation_fraction <= 0.1, k

    shared = dict(n=11, delta=0.01, dim=2, r_sum=0.1, r_m_max=5.0, eta_2k=0.3)
    raw = [bound_unnormalized(BoundInputs(k=k, **shared)).value
           for k in range(2, 7)]
    norm = [bound_normalized(BoundInputs(k=k, zeta=2, rho=0.98, **shared)).value
            for k in range(2, 7)]
    assert all(a > b for a, b in zip(norm, norm[1:]))
    assert (max(raw) - min(raw)) / max(raw) < 0.02
    assert time.time() - start <= 300.0


def test_criterion_08_special_functions():
    """Lambert W residual <= 1e-12 on a 1000-point grid; the log-space odd
    double-factorial ratio matches exact integer arithmetic for N <= 30."""
    xs = np.concatenate([np.linspace(-1.0 / math.e + 1e-9, 50.0, 700),
                         np.logspace(np.log10(50.0), 6, 300)])
    assert xs.size == 1000
    for x in xs:
        w = lambert_w(float(x))
        assert abs(w * math.exp(w) - x) / max(1.0, abs(x)) <= 1e-12, x
    for n in range(31):
        exact = math.factorial(2 * n + 1) / (4 ** n * math.factorial(n) ** 2)
        assert math.exp(log_double_factorial_ratio(n)) == pytest.approx(
            exact, rel=1e-12), n


def test_criterion_09_analytic_gradients():
    """Trainer gradients match central finite differences within 1e-5."""
    for seed in range(5):
        rng = np.random.default_rng(seed)
        b, f, kmax = 16, 6, 3
        m = rng.normal(size=(b, f))
        q = rng.normal(size=(kmax, b, f))
        y = (rng.random(b) < 0.5).astype(float)
        alpha = rng.normal(size=kmax) * 0.3
        w = rng.normal(size=f) * 0.3
        bias = float(rng.normal()) * 0.3
        _, g_alpha, g_w, g_b = logistic_loss_and_grads(alpha, w, bias, m, q, y)
        eps = 1e-6

        def loss(a_, w_, b_):
            return logistic_loss_and_grads(a_, w_, b_, m, q, y)[0]

        for idx in range(kmax):
            d = np.zeros(kmax)
            d[idx] = eps
            fd = (loss(alpha + d, w, bias) - loss(alpha - d, w, bias)) / (2 * eps)
            assert abs(fd - g_alpha[idx]) <= 1e-5 * max(1.0, abs(fd))
        for idx in range(f):
            d = np.zeros(f)
            d[idx] = eps
            fd = (loss(alpha, w + d, bias) - loss(alpha, w - d, bias)) / (2 * eps)
            assert abs(fd - g_w[idx]) <= 1e-5 * max(1.0, abs(fd))
        fd = (loss(alpha, w, bias + eps) - loss(alpha, w, bias - eps)) / (2 * eps)
        assert abs(fd - g_b) <= 1e-5 * max(1.0, abs(fd))


def bench_once(g, pairs, k_max, with_ortho):
    state = RunningState()
    feats = cn_order_features_all(g, PairBatch(pairs), k_max)
    if with_ortho:
        gram_schmidt_batch(feats, state, training=True)


def test_criterion_10_timing_scales_linearly_in_batch_size():
    """Feature timings over batch sizes {1k, 4k, 16k, 64k}, each the median
    of three runs, on a synthetic 100k-node graph fit y = B + C t with
    R^2 >= 0.99; per-pair cost grows with k; orthogonalization overhead is
    measured separately."""
    g = sample_ba_graph(100000, 3, seed=0)
    rng = np.random.default_rng(1)

    def batch(size):
        u = rng.integers(0, g.n, size=size)
        v = (u + 1 + rng.integers(0, g.n - 1, size=size)) % g.n
        return np.stack([u, v], axis=1)

    sizes = [1024, 4096, 16384, 65536]
    bench_once(g, batch(256), 2, True)  # warm caches
    times = []
    for size in sizes:
        pairs = batch(size)
        reps = [0.0] * 3
        for r in range(3):
            t0 = time.perf_counter()
            bench_once(g, pairs, 2, True)
            reps[r] = time.perf_counter() - t0
        times.append(float(np.median(reps)))
    t = np.array(sizes, dtype=np.float64)
    y = np.array(times)
    slope, intercept = np.polyfit(t, y, 1)
    pred = slope * t + intercept
    r2 = 1.0 - float(((y - pred) ** 2).sum()) / float(((y - y.mean()) ** 2).sum())
    assert r2 >= 0.99
    assert slope > 0

    probe = batch(8192)
    per_k = []
    for k in (1, 2, 3):
        reps = [0.0] * 3
        for r in range(3):
            t0 = time.perf_counter()
            bench_once(g, probe, k, False)
            reps[r] = time.perf_counter() - t0
        per_k.append(float(np.median(reps)))
    assert per_k[0] < per_k[1] < per_k[2]

    t0 = time.perf_counter()
    bench_once(g, probe, 2, False)
    plain = time.perf_counter() - t0
    t0 = time.perf_counter()
    bench_once(g, probe, 2, True)
    overhead = time.perf_counter() - t0 - plain
    assert np.isfinite(overhead)


def test_criterion_11_expressivity_witness():
    """The witness graph ties both designated pairs on CN, RA, and AA but
    separates them in the order-2 feature rows -- exact integer check."""
    g = Graph.from_edges(6, WITNESS_EDGES)
    p1, p2 = WITNESS_PAIRS
    for kind in ("cn", "ra", "aa"):
        assert heuristic_score(g, p1, kind) == heuristic_score(g, p2, kind)
    batch = PairBatch(np.array([p1, p2]))
    feats = cn_order_features_all(g, batch, 2)
    order2 = as_dense(feats[1].combined)
    assert not np.array_equal(order2[0], order2[1])
