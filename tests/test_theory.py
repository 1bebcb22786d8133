import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.special as spfn

import hocn.features
import hocn.theory
from hocn import (BoundDomainError, BoundInputs, Graph, InputError,
                  LatentModelParams, ScaleError, adj_power_row, ba_bound_normalized,
                  ba_bound_unnormalized, bound_normalized,
                  bound_unnormalized, cn_set, lambert_w,
                  log_double_factorial_ratio, sample_ba_graph,
                  sample_latent_model, torus_distances, unit_ball_volume,
                  validate_bound)
from hocn.theory import _BLOCK_ENTRIES, _TrialBuffers, _cn_members, _pick_pair

from conftest import random_graph

# Frozen high-precision reference values (50-digit arithmetic, truncated).
LATENT_UNNORM_EXAMPLE = 0.95220194557069135  # n=1000 d=0.05 k=2 D=2 tuple
SHARED = dict(n=11, delta=0.01, dim=2, r_sum=0.1, r_m_max=5.0, eta_2k=0.3)
LATENT_UNNORM_GRID = {2: 9.9888656262888008, 3: 9.9508694442114050,
                      4: 9.9315759817750104, 5: 9.9202370889452267,
                      6: 9.9129036118565455}
LATENT_NORM_GRID = {2: 10.004242975224111, 3: 9.9753128604423550,
                    4: 9.9609936280158409, 5: 9.9527009811300014,
                    6: 9.9473942878809461}
BA_UNNORM = {1: 5.8815494357238275, 2: 11.763098871447655,
             3: 17.644648307171483}
BA_NORM_GRID = {2: 9.0598633720610717, 3: 8.6892914793188775,
                4: 7.7356430851658046, 5: 6.3170984938967424,
                6: 4.5164687856961060}


def test_unit_ball_volume():
    assert unit_ball_volume(1) == pytest.approx(2.0)
    assert unit_ball_volume(2) == pytest.approx(math.pi)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)


def test_double_factorial_ratio_exact_integers():
    for n in range(0, 31):
        exact = math.factorial(2 * n + 1) / (4 ** n * math.factorial(n) ** 2)
        got = math.exp(log_double_factorial_ratio(n))
        assert got == pytest.approx(exact, rel=1e-12), n
    assert math.exp(log_double_factorial_ratio(5)) == \
        pytest.approx(10395 / 3840, rel=1e-13)


def test_lambert_w_residual_grid():
    xs = np.concatenate([
        np.linspace(-1 / math.e + 1e-12, 0.0, 400, endpoint=False),
        np.linspace(1e-9, 50.0, 400),
        np.geomspace(50.0, 1e8, 200),
    ])
    worst = 0.0
    for x in xs:
        w = lambert_w(float(x))
        worst = max(worst, abs(w * math.exp(w) - x) / max(1.0, abs(x)))
    assert worst <= 1e-12


def test_lambert_w_matches_library_oracle():
    for x in np.linspace(-0.35, 20.0, 57):
        assert lambert_w(float(x)) == pytest.approx(
            float(spfn.lambertw(x).real), abs=1e-10)


def test_lambert_w_branch_point_and_domain():
    assert lambert_w(-1 / math.e) == -1.0
    assert lambert_w(-1 / math.e - 1e-15) == pytest.approx(-1.0, abs=1e-7)
    with pytest.raises(BoundDomainError):
        lambert_w(-1 / math.e - 2e-15)
    with pytest.raises(BoundDomainError):
        lambert_w(-0.5)


def test_import_hocn_loads_neither_scipy_special_nor_csgraph():
    # lambert_w imports scipy.special on first call, and no path needs
    # scipy.sparse.csgraph, so a fresh `import hocn` (every command-line
    # run) pays for neither.
    src = str(Path(hocn.theory.__file__).resolve().parents[1])
    probe = ("import sys, hocn; print(' '.join(m for m in ('scipy.special', "
             "'scipy.sparse.csgraph') if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


def test_latent_unnormalized_example():
    b = BoundInputs(n=1000, delta=0.05, k=2, dim=2, r_sum=0.1, r_m_max=0.8,
                    eta_2k=1e8)
    assert bound_unnormalized(b) == pytest.approx(LATENT_UNNORM_EXAMPLE, rel=1e-12)


def test_latent_grid_frozen_values():
    for k, want in LATENT_UNNORM_GRID.items():
        got = bound_unnormalized(BoundInputs(k=k, **SHARED))
        assert got == pytest.approx(want, rel=1e-12), k
    for k, want in LATENT_NORM_GRID.items():
        got = bound_normalized(BoundInputs(k=k, zeta=2, rho=0.98, **SHARED))
        assert got == pytest.approx(want, rel=1e-12), k


def test_latent_grid_shape():
    # raw bound nearly flat in k, normalized bound strictly decreasing
    raw = [bound_unnormalized(BoundInputs(k=k, **SHARED)) for k in range(2, 7)]
    assert (max(raw) - min(raw)) / max(raw) < 0.02
    norm = [bound_normalized(BoundInputs(k=k, zeta=2, rho=0.98, **SHARED))
            for k in range(2, 7)]
    assert all(a > b for a, b in zip(norm, norm[1:]))


def test_latent_bound_vacuous_marker():
    b = BoundInputs(n=100, delta=0.1, k=2, dim=2, eta_2k=0.0)
    assert bound_unnormalized(b) is None and bound_normalized(b) is None


@pytest.mark.parametrize("delta", [0.5000001, 0.6, 0.99])
def test_latent_bounds_need_delta_at_most_half(delta):
    # log(1/(2 delta)) < 0 above 1/2; the BA bounds keep delta in (0, 1)
    b = BoundInputs(n=500, delta=delta, k=2, dim=2, r_m_max=5.0, eta_2k=1e9)
    for bound in (bound_unnormalized, bound_normalized):
        with pytest.raises(BoundDomainError, match=f"delta <= 1/2, got {delta}"):
            bound(b)
    assert bound_unnormalized(replace(b, delta=0.5)) is not None
    ba = BoundInputs(n=500, delta=delta, k=2, dim=2, m=3, eta_2k=1e6)
    assert math.isfinite(ba_bound_unnormalized(ba))
    assert math.isfinite(ba_bound_normalized(ba, n_inner=4))


@pytest.mark.parametrize("n,dim", [(0, 2), (-5, 2), (500, 0), (500, -1)])
def test_bound_inputs_need_a_node_and_a_dimension(n, dim):
    with pytest.raises(InputError, match=f"got n={n}, dim={dim}"):
        BoundInputs(n=n, delta=0.1, k=2, dim=dim, eta_2k=1e9)


def test_latent_bound_past_float_range_is_vacuous():
    # (n - sqrt(-2 n ln delta))^(2k - 1) overflows from k = 59 at n = 500;
    # the walk count over it is 0 and the bound vacuous
    shared = dict(n=500, delta=0.1, dim=2, eta_2k=1e300)
    for k in (59, 200):
        b = BoundInputs(k=k, **shared)
        assert bound_unnormalized(b) is None and bound_normalized(b) is None
    iota, _ = hocn.theory._concentration_terms(BoundInputs(k=58, **shared))
    assert iota == 1e300 / (500 - math.sqrt(-1000 * math.log(0.1))) ** 115 > 0


def test_ba_unnormalized_frozen_and_affine():
    for k, want in BA_UNNORM.items():
        got = ba_bound_unnormalized(BoundInputs(n=100, delta=0.1, k=k, dim=2,
                                                m=3, steepness=1.0))
        assert got == pytest.approx(want, rel=1e-10), k
    assert BA_UNNORM[2] == pytest.approx(2 * BA_UNNORM[1], rel=1e-12)


def test_ba_normalized_frozen_and_decreasing():
    vals = []
    for k, want in BA_NORM_GRID.items():
        got = ba_bound_normalized(
            BoundInputs(n=100, delta=0.1, k=k, dim=2, m=3, steepness=1.0,
                        zeta=2, eta_2k=16726.0, max_degree=1), n_inner=4)
        assert got == pytest.approx(want, rel=1e-9), k
        vals.append(got)
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_ba_normalized_domain_errors():
    base = BoundInputs(n=100, delta=0.1, k=2, dim=2, m=3, steepness=1.0,
                       zeta=2, eta_2k=1.0, max_degree=50)
    with pytest.raises(BoundDomainError):
        ba_bound_normalized(base, n_inner=4)  # concentration term too large
    ok = BoundInputs(n=100, delta=0.1, k=2, dim=2, m=3, steepness=1.0,
                     zeta=2, eta_2k=16726.0, max_degree=1)
    with pytest.raises(BoundDomainError):
        ba_bound_normalized(ok, n_inner=2)


def test_bound_inputs_validation():
    with pytest.raises(InputError):
        BoundInputs(n=10, delta=1.5, k=1, dim=2)
    with pytest.raises(InputError):
        BoundInputs(n=10, delta=0.5, k=0, dim=2)


def test_latent_params_validation():
    with pytest.raises(InputError):
        LatentModelParams(n=1, dim=2, radius=0.1)
    r_max = (1.0 / unit_ball_volume(2)) ** 0.5
    with pytest.raises(InputError):
        LatentModelParams(n=10, dim=2, radius=r_max * 1.01)


def test_torus_distance_wraps():
    pos = np.array([[0.05, 0.5], [0.95, 0.5]])
    d = torus_distances(pos)
    assert d[0, 1] == pytest.approx(0.1)
    assert d[0, 0] == 0.0


def test_latent_graph_edges_match_geometry():
    params = LatentModelParams(n=120, dim=2, radius=0.12, seed=4)
    sample = sample_latent_model(params)
    g = sample.graph
    for u in range(g.n):
        for v in range(u + 1, g.n):
            assert g.has_edge(u, v) == (sample.distances[u, v] <= params.radius)


def test_latent_mean_degree_near_expectation():
    params = LatentModelParams(n=600, dim=2, radius=0.08, seed=0)
    g = sample_latent_model(params).graph
    expected = (params.n - 1) * unit_ball_volume(2) * params.radius ** 2
    assert g.degrees.mean() == pytest.approx(expected, rel=0.12)


def test_ba_graph_shape():
    g = sample_ba_graph(300, 3, seed=1)
    assert g.n == 300
    # every arrival adds between 1 and m distinct edges
    assert 300 <= g.num_edges <= 1 + 3 * 298
    assert (g.degrees >= 1).all()
    assert g.degrees.max() > 3 * np.median(g.degrees)  # heavy tail
    with pytest.raises(InputError):
        sample_ba_graph(3, 3)


def _ba_graph_from_lists(n, m, seed):
    """Reference oracle: the same draws, with the endpoint list and the
    edges held as Python lists."""
    rng = np.random.default_rng(seed)
    targets = [0, 1, 1, 0]
    edges = [(0, 1)]
    for v in range(2, n):
        picks = {int(targets[rng.integers(0, len(targets))]) for _ in range(m)}
        for w in picks:
            edges.append((v, w))
            targets.extend((v, w))
    return Graph.from_edges(n, edges)


@pytest.mark.parametrize("n,m,seed", [(2, 1, 0), (40, 1, 3), (300, 1, 1), (300, 3, 2),
                                      (500, 5, 7), (60, 59, 4)])
def test_ba_graph_equals_the_list_based_sampler(n, m, seed):
    got, want = sample_ba_graph(n, m, seed), _ba_graph_from_lists(n, m, seed)
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)


def test_ba_graph_peak_memory_is_a_few_edge_arrays():
    # Lists of Python ints and tuples peaked at 10.6 edge arrays here.
    tracemalloc.start()
    try:
        g = sample_ba_graph(20_000, 3, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7 * 16 * g.num_edges

def test_count_paths_matches_matrix_power():
    # Walk counts between node pairs, diagonal (closed walks) included, read
    # off the one walk counter, adj_power_row.
    g = random_graph(12, 0.3, seed=2)
    adj = g.to_scipy().toarray()
    for length in (0, 1, 2, 3, 4):
        p = np.linalg.matrix_power(adj, length)
        for i, j in ((0, 0), (0, 5), (3, 11)):
            assert adj_power_row(g, i, length)[j] == int(p[i, j])


def test_validate_bound_latent_smoke():
    params = LatentModelParams(n=120, dim=2, radius=0.15, seed=0)
    report = validate_bound("latent", params, "unnormalized", k=1, delta=0.1,
                            trials=100, seed=3)
    assert report.trials == 100
    assert report.eligible > 0
    assert report.violation_fraction <= 0.1


def test_validate_bound_thread_invariance():
    params = LatentModelParams(n=40, dim=2, radius=0.3, seed=0)
    a = validate_bound("latent", params, "unnormalized", k=1, delta=0.2,
                       trials=100, seed=3, threads=1)
    b = validate_bound("latent", params, "unnormalized", k=1, delta=0.2,
                       trials=100, seed=3, threads=4)
    assert a == b


def test_validate_bound_starts_at_most_one_pool_thread_per_cpu(monkeypatch):
    requested = []

    class SerialPool:
        """Records the pool size it is asked for and maps on the calling thread."""

        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(hocn.features, "ThreadPoolExecutor", SerialPool)
    params = LatentModelParams(n=40, dim=2, radius=0.3, seed=0)
    one = validate_bound("latent", params, "unnormalized", k=1, delta=0.2,
                         trials=100, seed=3, threads=1)
    assert requested == []
    many = validate_bound("latent", params, "unnormalized", k=1, delta=0.2,
                          trials=100, seed=3, threads=64)
    assert all(w <= len(os.sched_getaffinity(0)) for w in requested), requested
    assert one.eligible > 0 and many == one


@pytest.mark.parametrize("kind,k", [("unnormalized", 2), ("normalized", 2),
                                    ("normalized", 3)])
def test_validate_bound_reports_do_not_depend_on_threads(kind, k):
    # each worker reuses one set of buffers for its consecutive trials
    params = LatentModelParams(n=200, dim=2, radius=0.45, seed=0)
    reports = [validate_bound("latent", params, kind, k, delta=0.1, trials=100, seed=5,
                              threads=threads) for threads in (1, 2, 4)]
    assert reports[0].eligible > 0
    assert reports[1] == reports[0] and reports[2] == reports[0]


def test_latent_sample_arrays_outlive_later_calls():
    params = LatentModelParams(n=200, dim=2, radius=0.2, seed=3)
    sample = sample_latent_model(params)
    kept = {name: getattr(sample, name).copy()
            for name in ("positions", "distances", "adjacency")}
    sample_latent_model(replace(params, seed=4))
    validate_bound("latent", params, "normalized", 2, 0.1, 100, 3)
    for name, want in kept.items():
        assert np.array_equal(getattr(sample, name), want), name
    # the graph, read only now, comes from the unchanged mask
    assert np.array_equal(sample.graph.to_scipy().toarray() > 0, kept["adjacency"])


def test_oversized_latent_runs_are_scale_errors_before_allocating(monkeypatch):
    def no_trial(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(hocn.theory, "_latent_trial", no_trial)
    big = LatentModelParams(n=20000, dim=2, radius=0.1, seed=0)
    tracemalloc.start()
    try:
        with pytest.raises(ScaleError, match="n=20000"):
            sample_latent_model(big)
        with pytest.raises(ScaleError, match="n=20000, k=2, threads=1"):
            validate_bound("latent", big, "unnormalized", 2, 0.1, 100, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < big.n ** 2  # not even one n x n bool array


def test_validate_bound_budget_counts_every_worker(monkeypatch):
    # one set of buffers is live per run, and there are min(threads,
    # trials, CPUs) runs
    params = LatentModelParams(n=200, dim=2, radius=0.45, seed=0)
    monkeypatch.setattr(hocn.theory, "_BUFFER_BUDGET", 2 * _TrialBuffers.nbytes(200, 2))
    monkeypatch.setattr(hocn.theory, "_CPUS", 2)
    assert validate_bound("latent", params, "unnormalized", 2, 0.1, 100, 0,
                          threads=64).eligible > 0
    monkeypatch.setattr(hocn.theory, "_CPUS", 4)
    with pytest.raises(ScaleError, match="threads=3"):
        validate_bound("latent", params, "unnormalized", 2, 0.1, 100, 0, threads=3)


@pytest.mark.parametrize("n,k", [(2, 1), (60, 2), (700, 3), (1000, 1)])
def test_trial_buffer_estimate_is_their_size(n, k):
    buffers = _TrialBuffers(n, k)
    assert _TrialBuffers.nbytes(n, k) == sum(a.nbytes for a in vars(buffers).values())


def test_validate_bound_checks_only_the_latent_model():
    with pytest.raises(InputError, match="unknown model 'ba'"):
        validate_bound("ba", (100, 3), "unnormalized", 1, 0.1, 100, 0)


def test_validate_bound_requires_trials():
    params = LatentModelParams(n=40, dim=2, radius=0.3, seed=0)
    with pytest.raises(InputError):
        validate_bound("latent", params, "unnormalized", 1, 0.1, 10, 0)


@pytest.mark.parametrize("k", [0, -1])
def test_validate_bound_order_below_one_fails_before_any_trial(k, monkeypatch):
    def no_trial(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(hocn.theory, "_latent_trial", no_trial)
    params = LatentModelParams(n=40, dim=2, radius=0.3, seed=0)
    with pytest.raises(InputError, match=f"k must be >= 1, got {k}"):
        validate_bound("latent", params, "unnormalized", k, 0.1, 100, 0)


@pytest.mark.parametrize("kind,k,delta,threads,message", [
    ("foo", 2, 0.1, 1, "unknown bound kind 'foo'"),
    ("normalized", 1, 0.1, 1, "the normalized bound needs k >= 2, got 1"),
    ("unnormalized", 1, 0.0, 1, r"delta must lie in \(0, 1\), got 0.0"),
    ("unnormalized", 1, 1.0, 1, r"delta must lie in \(0, 1\), got 1.0"),
    ("unnormalized", 1, -0.5, 1, r"delta must lie in \(0, 1\), got -0.5"),
    ("unnormalized", 1, 0.6, 1, "the latent bounds need delta <= 1/2, got 0.6"),
    ("unnormalized", 1, 0.1, 0, "threads must be >= 1, got 0"),
    ("unnormalized", 1, 0.1, -1, "threads must be >= 1, got -1"),
], ids=["bound-kind", "normalized-k-1", "delta-0", "delta-1", "delta-negative",
        "delta-above-half", "threads-0", "threads-negative"])
def test_validate_bound_bad_input_fails_before_any_trial(kind, k, delta, threads, message,
                                                         monkeypatch):
    def no_trial(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(hocn.theory, "_latent_trial", no_trial)
    params = LatentModelParams(n=40, dim=2, radius=0.3, seed=0)
    with pytest.raises(InputError, match=message):
        validate_bound("latent", params, kind, k, delta, 100, 0, threads=threads)


def _matrix_power_pick(adjacency, k, seed):
    """The pair pick, from the full integer A^{2k} over the upper triangle."""
    walks = np.linalg.matrix_power(adjacency.astype(np.int64), 2 * k)
    iu, iv = np.triu_indices(len(adjacency), k=1)
    eligible = np.nonzero(walks[iu, iv] > 0)[0]
    if eligible.size == 0:
        return None
    pick = int(eligible[np.random.default_rng(seed + 1).integers(0, eligible.size)])
    i, j = int(iu[pick]), int(iv[pick])
    return i, j, float(walks[i, j])


def test_pick_pair_matches_matrix_power_oracle():
    graphs = [random_graph(12, 0.3, seed=2), random_graph(20, 0.1, seed=5),
              random_graph(15, 0.6, seed=1), Graph.from_edges(7, [])]
    assert (graphs[1].degrees == 0).any()  # isolated nodes
    cases = [g.to_scipy().toarray() > 0 for g in graphs]
    sample = sample_latent_model(LatentModelParams(n=60, dim=2, radius=0.1, seed=1))
    assert np.array_equal(sample.adjacency, sample.graph.to_scipy().toarray() > 0)
    cases.append(sample.adjacency)
    # the only pair a 2k-step walk joins lies in the upper triangle's first
    # row, or in its last
    cases += [Graph.from_edges(7, [(0, 1), (1, 2)]).to_scipy().toarray() > 0,
              Graph.from_edges(9, [(0, 7), (0, 8)]).to_scipy().toarray() > 0]
    for k in (1, 2, 3):
        for case, pair in ((5, (0, 2)), (6, (7, 8))):
            walks = np.linalg.matrix_power(cases[case].astype(np.int64), 2 * k)
            assert list(zip(*np.nonzero(np.triu(walks, k=1)))) == [pair], (case, k)
        # the latent graph has pairs a 2k-step walk joins and pairs none does
        walks = np.linalg.matrix_power(sample.adjacency.astype(np.int64), 2 * k)
        upper = walks[np.triu_indices(60, k=1)]
        assert (upper > 0).any() and (upper == 0).any(), k
        for case, adjacency in enumerate(cases):
            reused = _TrialBuffers(len(adjacency), k)  # dirty from the second seed on
            for seed in range(5):
                want = _matrix_power_pick(adjacency, k, seed)
                fresh = _TrialBuffers(len(adjacency), k)
                for buffers in (fresh, reused):
                    got = _pick_pair(adjacency, k, seed, buffers)
                    assert (got and got[:3]) == want, (case, k, seed)
                    if got:
                        # The walk columns (A^{k-1} e_i, A^{k-1} e_j), (A^k e_i, A^k e_j).
                        powers = [np.linalg.matrix_power(adjacency.astype(np.int64), l)
                                  for l in (k - 1, k)]
                        for columns, power in zip(got[3], powers):
                            assert np.array_equal(columns, power[:, want[:2]]), (case, k)
                # only the empty graph has no pair to pick
                assert (want is None) == (case == 3), (case, k, seed)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_latent_graph_equals_graph_from_triu_edges(dim):
    for radius in (0.05, 0.2, 1e-9):
        sample = sample_latent_model(
            LatentModelParams(n=80, dim=dim, radius=radius, seed=dim))
        iu, iv = np.triu_indices(80, k=1)
        keep = sample.distances[iu, iv] <= radius
        want = Graph.from_edges(80, np.stack([iu[keep], iv[keep]], axis=1))
        got = sample.graph
        for name in ("indptr", "indices", "degrees"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), (dim, radius, name)
    assert got.num_edges == 0  # the last radius links no pair


def test_torus_distances_match_broadcast_reference():
    rng = np.random.default_rng(0)
    # 40 rows fit one block; the larger n spans several and ends in a part block
    rows = _BLOCK_ENTRIES // 700
    assert 700 > 2 * rows and 700 % rows
    for n, dim in ((n, dim) for n in (40, 700) for dim in range(1, 13)):
        pos = rng.random((n, dim))
        pos[0] = 0.999  # a point whose nearest copies wrap around
        diff = np.abs(pos[:, None, :] - pos[None, :, :])
        diff = np.minimum(diff, 1.0 - diff)
        want = np.sqrt((diff ** 2).sum(axis=-1))
        got = torus_distances(pos)
        if dim <= 7:
            assert np.array_equal(got, want), (n, dim)
        else:
            assert np.all(np.abs(got - want) <= 4e-16 * want), (n, dim)


def test_torus_distances_into_dirty_buffers_match_a_fresh_call():
    rng = np.random.default_rng(1)
    for n in (40, 700):
        out = np.full((n, n), np.nan)
        blocks = np.full((2, min(_BLOCK_ENTRIES // n, n), n), -7.0)
        for dim in (1, 2, 3, 8):
            pos = rng.random((n, dim))
            got = torus_distances(pos, out, blocks)
            assert got is out
            assert np.array_equal(got, torus_distances(pos)), (n, dim)


def _reference_normalized_trial(params, k, delta, seed):
    """One normalized latent trial with the pair set recomputed per split."""
    sample = sample_latent_model(LatentModelParams(
        n=params.n, dim=params.dim, radius=params.radius, seed=seed))
    g = sample.graph
    walks = np.linalg.matrix_power(g.to_scipy().toarray(), 2 * k)
    iu, iv = np.triu_indices(g.n, k=1)
    eligible = np.nonzero(walks[iu, iv] > 0)[0]
    if eligible.size == 0:
        return None
    pick = int(eligible[np.random.default_rng(seed + 1).integers(0, eligible.size)])
    i, j = int(iu[pick]), int(iv[pick])
    best = None
    for split in range(1, 2 * k):
        members = cn_set(g, i, j, k, exclude_endpoints=True)
        zeta = max(int(max((g.degrees[c] for c in members), default=2)), 2)
        result = bound_normalized(BoundInputs(
            n=params.n, delta=delta, k=k, dim=params.dim,
            r_sum=(split - 1) * params.radius,
            r_m_max=(2 * k - split) * params.radius, eta_2k=float(walks[i, j]),
            zeta=zeta, rho=0.5 ** (1.0 / (params.dim * (k - 1)))))
        if result is not None and (best is None or result > best):
            best = result
    return None if best is None else best - float(sample.distances[i, j])


def test_trial_members_are_the_cn_set_of_the_pair():
    # The normalized trials take the pair's members from the walk columns of
    # the pair pick, not from cn_set on the sample's graph.
    checked = 0
    for seed in range(30):
        sample = sample_latent_model(LatentModelParams(n=120, dim=2, radius=0.2, seed=seed))
        for k in (2, 3):
            picked = _pick_pair(sample.adjacency, k, seed, _TrialBuffers(120, k))
            if picked is None:
                continue
            i, j, _, columns = picked
            members = _cn_members(i, j, columns)
            assert set(members.tolist()) == cn_set(sample.graph, i, j, k), (seed, k)
            checked += bool(members.size)
    assert checked > 40


def test_validate_bound_normalized_matches_per_split_reference():
    # about one trial in ten gives a non-vacuous bound
    params = LatentModelParams(n=100, dim=2, radius=0.35, seed=0)
    report = validate_bound("latent", params, "normalized", k=2, delta=0.1,
                            trials=100, seed=5)
    slacks = [_reference_normalized_trial(params, 2, 0.1, 5 + 1000 * t)
              for t in range(100)]
    valid = [s for s in slacks if s is not None]
    assert valid
    assert report.eligible == len(valid)
    assert report.violations == sum(1 for s in valid if s < 0)
    assert report.mean_slack == float(np.mean(valid))
