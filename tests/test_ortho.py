import io
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import hocn.features
from hocn import (ConfigError, FeatureConfig, Graph, RunningState, ScaleError, ScoreModel,
                  apply_polynomial_filter,
                  cn_order_features, cn_order_features_all, degree_filter_argument,
                  frobenius_inner, frobenius_norm, full_graph_orthogonalize,
                  gram_schmidt_batch, polynomial_weights, sample_ba_graph)
from hocn.features import _walk_nnz_bound

from conftest import all_pairs_batch, as_dense, batch_of, random_graph

SQRT2 = math.sqrt(2.0)


def test_hand_worked_two_by_two():
    cn1 = np.eye(2)
    cn2 = np.ones((2, 2))
    state = RunningState()
    basis = gram_schmidt_batch([cn1, cn2], state)
    assert np.allclose(as_dense(basis.matrix(1)), np.eye(2) / SQRT2)
    assert state.xi_hat[(2, 1)] == pytest.approx(SQRT2)
    expect = (np.ones((2, 2)) - np.eye(2)) / SQRT2
    assert np.allclose(as_dense(basis.matrix(2)), expect)
    assert basis.degenerate == [False, False]
    assert state.t == 1


def test_linear_dependence_flags_degenerate():
    cn1 = np.array([[1.0, 2.0], [0.0, 1.0]])
    basis = gram_schmidt_batch([cn1, 3.0 * cn1], RunningState())
    assert basis.degenerate == [False, True]
    assert frobenius_norm(basis.matrix(2)) == 0.0


def test_zero_first_order_degenerate():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    feats = cn_order_features(g, batch_of([(0, 2)]), 1)
    basis = gram_schmidt_batch([feats], RunningState())
    assert basis.degenerate == [True]


def test_unit_norms_and_batch_orthogonality():
    g = random_graph(40, 0.2, seed=1)
    feats = [cn_order_features(g, batch_of([(0, 5), (2, 9), (11, 30)]), k)
             for k in (1, 2, 3)]
    basis = gram_schmidt_batch(feats, RunningState())
    for k in (1, 2, 3):
        if not basis.degenerate[k - 1]:
            assert frobenius_norm(basis.matrix(k)) == pytest.approx(1.0)
    # first batch: running xi equals the batch xi, so the batch is orthogonal
    for a in (1, 2, 3):
        for b in range(1, a):
            assert abs(frobenius_inner(basis.matrix(a),
                                       basis.matrix(b))) < 1e-9


def test_running_xi_is_mean_of_batch_xis():
    g = random_graph(30, 0.25, seed=2)
    rng = np.random.default_rng(0)
    state = RunningState()
    batch_xis = []
    for _ in range(7):
        pairs = []
        while len(pairs) < 5:
            u, v = map(int, rng.integers(0, g.n, 2))
            if u != v:
                pairs.append((u, v))
        feats = [cn_order_features(g, batch_of(pairs), k) for k in (1, 2)]
        cn1 = as_dense(feats[0].combined)
        cn2 = as_dense(feats[1].combined)
        ocn1 = cn1 / np.linalg.norm(cn1)
        batch_xis.append(float(np.vdot(cn2, ocn1)))
        gram_schmidt_batch(feats, state)
    assert state.xi_hat[(2, 1)] == pytest.approx(np.mean(batch_xis))


def test_inference_mode_does_not_touch_state():
    g = random_graph(20, 0.3, seed=3)
    feats = [cn_order_features(g, batch_of([(0, 4), (1, 7)]), k)
             for k in (1, 2)]
    state = RunningState()
    gram_schmidt_batch(feats, state, training=True)
    snapshot = dict(state.xi_hat)
    t_before = state.t
    gram_schmidt_batch(feats, state, training=False)
    assert state.xi_hat == snapshot and state.t == t_before


def test_state_checkpoint_round_trip():
    state = RunningState(t=5,
                         xi_hat={(2, 1): 1.2345678901234567, (3, 1): -0.25,
                                 (3, 2): 1e-17},
                         psi_hat={1: np.array([0.5, 0.0, 7.25]),
                                  2: np.array([1 / 3, 0.1 + 0.2, 0.0]),
                                  3: np.array([2.0, 1e-300, 0.0])},
                         psi_t={1: 4, 2: 3, 3: 1})
    model = ScoreModel(FeatureConfig(k_max=3), alpha=np.zeros(3), head_w=np.zeros(17),
                       head_b=0.0)
    buf = io.StringIO()
    model.save(buf, state)
    buf.seek(0)
    _, loaded = ScoreModel.load(buf)
    assert loaded.t == state.t
    assert loaded.xi_hat == state.xi_hat
    assert loaded.psi_t == state.psi_t
    assert loaded.psi_hat.keys() == state.psi_hat.keys()
    assert all(np.array_equal(loaded.psi_hat[k], state.psi_hat[k]) for k in state.psi_hat)


@pytest.mark.parametrize("seed", range(4))
def test_full_graph_exact_orthogonality(seed):
    g = random_graph(25 + 10 * seed, 0.15, seed=seed)
    basis = full_graph_orthogonalize(g, 3)
    for a in range(1, 4):
        for b in range(1, a):
            if basis.degenerate[a - 1] or basis.degenerate[b - 1]:
                continue
            assert abs(basis.inner(a, b)) <= 1e-9
        if not basis.degenerate[a - 1]:
            assert basis.inner(a, a) == pytest.approx(1.0)


def brute_force_basis(g: Graph, k_max: int, exclude_endpoints: bool):
    """Gram matrix, coefficients and degenerate flags of the exact basis,
    with the Gram matrix summed over every unordered pair's features and the
    coefficients from plain Gram-Schmidt in coefficient space."""
    feats = cn_order_features_all(g, all_pairs_batch(g.n), k_max,
                                  exclude_endpoints=exclude_endpoints)
    gram = np.array([[frobenius_inner(a.combined, b.combined) for b in feats] for a in feats])
    coeffs = np.zeros((k_max, k_max))
    degenerate = []
    for k in range(k_max):
        c = np.zeros(k_max)
        c[k] = 1.0
        for i in range(k):
            if not degenerate[i]:
                c = c - float(gram[k] @ coeffs[i]) * coeffs[i]
        norm = np.sqrt(max(float(c @ gram @ c), 0.0))
        degenerate.append(bool(norm < 1e-12))
        if not degenerate[-1]:
            coeffs[k] = c / norm
    return gram, coeffs, degenerate


ORACLE_GRAPHS = {
    "edgeless": Graph.from_edges(6, []),
    "isolated-nodes": Graph.from_edges(9, [(0, 1), (1, 2), (2, 0), (2, 3), (5, 6)]),
    "star": Graph.from_edges(8, [(0, i) for i in range(1, 8)]),
    "ba": sample_ba_graph(70, 3, seed=2),
    "gnp": random_graph(45, 0.12, seed=3),
}


@pytest.mark.parametrize("name", ORACLE_GRAPHS)
@pytest.mark.parametrize("exclude", [False, True])
def test_full_graph_gram_equals_pair_enumeration(name, exclude):
    # Every term is an integer walk count far below 2^53 on these graphs, so
    # the closed form and the enumeration agree exactly.
    g = ORACLE_GRAPHS[name]
    for k_max in (1, 2, 3):
        basis = full_graph_orthogonalize(g, k_max, exclude_endpoints=exclude)
        gram, coeffs, degenerate = brute_force_basis(g, k_max, exclude)
        assert np.array_equal(basis.gram, gram), (name, k_max, basis.gram, gram)
        assert np.array_equal(basis.coeffs, coeffs), (name, k_max)
        assert basis.degenerate == degenerate, (name, k_max)
    if name == "edgeless":
        assert basis.degenerate == [True, True, True]


def test_full_graph_node_above_budget_raises_and_stores_nothing(monkeypatch):
    g = sample_ba_graph(300, 3, seed=1)
    bound = _walk_nnz_bound(g, 2)
    budget = hocn.features._NNZ_BUDGET
    monkeypatch.setattr(hocn.features, "_NNZ_BUDGET", int(bound.max()) - 1)
    for _ in range(2):  # the failed build is tried again, and fails again
        with pytest.raises(ScaleError, match=f"node {int(bound.argmax())} "):
            full_graph_orthogonalize(g, 2)
    monkeypatch.setattr(hocn.features, "_NNZ_BUDGET", budget)
    got = full_graph_orthogonalize(g, 2).gram
    assert np.array_equal(got, full_graph_orthogonalize(sample_ba_graph(300, 3, seed=1), 2).gram)


def test_full_graph_gram_allocates_no_dense_square():
    # Far above the 2,000 nodes that pair enumeration was limited to.
    g = sample_ba_graph(20000, 3, seed=0)
    tracemalloc.start()
    try:
        full_graph_orthogonalize(g, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * g.n * g.n * 8, peak


def test_full_graph_gram_is_built_once_per_graph_and_setting():
    g = random_graph(30, 0.2, seed=4)
    first = full_graph_orthogonalize(g, 3)
    second = full_graph_orthogonalize(g, 3)
    assert second is not first and second.gram is first.gram
    assert full_graph_orthogonalize(g, 3, exclude_endpoints=True).gram is not first.gram
    assert full_graph_orthogonalize(g, 2).gram is not first.gram
    with pytest.raises(ValueError):
        first.gram[0, 0] = 1.0
    with pytest.raises(ConfigError, match="got 0"):
        full_graph_orthogonalize(g, 0)


def test_streaming_converges_to_exact_mean():
    """i.i.d. batches: the running xi settles near the expected batch xi."""
    g = random_graph(60, 0.15, seed=7)
    rng = np.random.default_rng(11)
    state = RunningState()
    for _ in range(300):
        pairs = set()
        while len(pairs) < 8:
            u, v = map(int, rng.integers(0, g.n, 2))
            if u != v:
                pairs.add((u, v))
        feats = [cn_order_features(g, batch_of(sorted(pairs)), k)
                 for k in (1, 2)]
        gram_schmidt_batch(feats, state)
    # estimate the same expectation with a fresh long run
    probe = RunningState()
    rng2 = np.random.default_rng(12)
    for _ in range(300):
        pairs = set()
        while len(pairs) < 8:
            u, v = map(int, rng2.integers(0, g.n, 2))
            if u != v:
                pairs.add((u, v))
        feats = [cn_order_features(g, batch_of(sorted(pairs)), k)
                 for k in (1, 2)]
        gram_schmidt_batch(feats, probe)
    assert state.xi_hat[(2, 1)] == pytest.approx(probe.xi_hat[(2, 1)], rel=0.15)


def test_chebyshev_weights():
    x = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    assert np.allclose(polynomial_weights(0, x), 1.0)
    assert np.allclose(polynomial_weights(1, x), x)
    assert np.allclose(polynomial_weights(2, x), 2 * x ** 2 - 1)
    assert np.allclose(polynomial_weights(3, x), 4 * x ** 3 - 3 * x)


def test_polynomial_argument_clamped():
    got = polynomial_weights(2, np.array([-5.0, 5.0]))
    assert np.allclose(got, [1.0, 1.0])


def _chebyshev_recurrence(k, x):
    """T_0 = 1, T_1 = x and T_{m+1} = 2x T_m - T_{m-1}."""
    prev, cur = np.ones_like(x), x
    for _ in range(1, k):
        prev, cur = cur, 2.0 * x * cur - prev
    return prev if k == 0 else cur


def test_polynomial_weights_match_three_term_recurrence():
    x = np.linspace(-1.0, 1.0, 1001)
    for k in range(8):
        got = polynomial_weights(k, x)
        assert np.abs(got - _chebyshev_recurrence(k, x)).max() <= 1e-14, k


def test_polynomial_weights_reject_negative_order():
    with pytest.raises(ConfigError, match="order"):
        polynomial_weights(-1, np.zeros(3))


def test_degree_filter_argument_range():
    g = random_graph(30, 0.2, seed=8)
    x = degree_filter_argument(g)
    assert x.min() >= -1.0 and x.max() <= 1.0
    assert x[np.argmax(g.degrees)] == pytest.approx(1.0)


def test_apply_polynomial_filter_scales_columns():
    g = random_graph(20, 0.3, seed=9)
    feats = cn_order_features(g, batch_of([(0, 3), (2, 8)]), 2)
    w = polynomial_weights(2, degree_filter_argument(g))
    filtered = apply_polynomial_filter(feats, w)
    assert np.allclose(as_dense(filtered.combined),
                       as_dense(feats.combined) * w)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 20))
def test_streaming_first_batch_matches_plain_gram_schmidt(seed):
    rng = np.random.default_rng(seed)
    mats = [rng.normal(size=(3, 4)) for _ in range(3)]
    basis = gram_schmidt_batch(mats, RunningState())
    flat = [m.ravel() for m in mats]
    q, _ = np.linalg.qr(np.stack(flat, axis=1))
    for k in range(3):
        if basis.degenerate[k]:
            continue
        got = as_dense(basis.matrix(k + 1)).ravel()
        want = q[:, k]
        if np.dot(got, want) < 0:
            want = -want
        assert np.allclose(got, want, atol=1e-9)


def reference_gram_schmidt(mats, state: RunningState, training: bool):
    """Residual by residual: one new matrix per subtraction and per scaling,
    norm from the summed elementwise square."""
    basis, degenerate = [], []
    beta = 1.0 / (state.t + 1)
    for k, cn in enumerate(mats, start=1):
        residual = cn * 1.0
        for i in range(1, k):
            if training:
                xi_batch = frobenius_inner(cn, basis[i - 1])
                prev = state.xi_hat.get((k, i), 0.0)
                state.xi_hat[(k, i)] = (1.0 - beta) * prev + beta * xi_batch
            residual = residual - state.xi_hat.get((k, i), 0.0) * basis[i - 1]
        norm = math.sqrt(frobenius_inner(residual, residual))
        degenerate.append(norm < 1e-12)
        basis.append(residual * (0.0 if degenerate[-1] else 1.0 / norm))
    if training:
        state.t += 1
    return basis, degenerate


def _assert_matches_reference(batches, training_flags):
    got_state, want_state = RunningState(), RunningState()
    for mats, training in zip(batches, training_flags):
        got = gram_schmidt_batch(mats, got_state, training=training)
        want, want_degenerate = reference_gram_schmidt(mats, want_state, training)
        assert got.degenerate == want_degenerate
        assert got_state.t == want_state.t
        assert set(got_state.xi_hat) == set(want_state.xi_hat)
        for key, value in want_state.xi_hat.items():
            assert got_state.xi_hat[key] == pytest.approx(value, rel=1e-12, abs=0.0)
        for a, b in zip(got.matrices, want):
            assert sp.issparse(a) == sp.issparse(b)
            a, b = as_dense(a), as_dense(b)
            assert np.abs(a - b).max() <= 1e-12 * max(np.abs(b).max(), 1.0)


@pytest.mark.parametrize("dense", [False, True])
def test_gram_schmidt_matches_residual_by_residual_reference(dense):
    g = random_graph(40, 0.15, seed=12)
    rng = np.random.default_rng(3)
    batches = []
    for _ in range(4):
        u = rng.integers(0, g.n, 12)
        v = (u + 1 + rng.integers(0, g.n - 1, 12)) % g.n
        feats = cn_order_features_all(g, batch_of(np.stack([u, v], axis=1)), 3)
        batches.append([f.combined.toarray() if dense else f.combined for f in feats])
    _assert_matches_reference(batches, [True, True, True, False])


@pytest.mark.parametrize("dense", [False, True])
@pytest.mark.parametrize("offset", [0.0, 1e-14, 1e-2])
def test_gram_schmidt_near_degenerate_matches_reference(dense, offset):
    # CN^2 = 3 CN^1 + offset * noise. The two forms round differently, and
    # cancellation scales that by |CN^2| / |residual|: about 100 at the
    # largest offset. The smaller ones leave a residual under DEGENERATE_NORM.
    rng = np.random.default_rng(4)
    cn1 = sp.random(20, 30, density=0.2, format="csr", random_state=5)
    noise = sp.random(20, 30, density=0.2, format="csr", random_state=6)
    cn2 = (3.0 * cn1 + offset * noise).tocsr()
    cn3 = sp.csr_matrix(rng.normal(size=(20, 30)) * (cn1.toarray() != 0))
    mats = [cn1, cn2, cn3]
    if dense:
        mats = [m.toarray() for m in mats]
    _assert_matches_reference([mats, mats], [True, False])
    degenerate = gram_schmidt_batch(mats, RunningState()).degenerate
    assert degenerate == [False, offset < 1e-12, False]


def test_gram_schmidt_peak_memory_near_one_combined_matrix():
    g = sample_ba_graph(20000, 3, seed=0)
    rng = np.random.default_rng(0)
    u = rng.integers(0, g.n, 512)
    v = (u + 1 + rng.integers(0, g.n - 1, 512)) % g.n
    mats = [f.combined for f in cn_order_features_all(g, batch_of(np.stack([u, v], axis=1)), 3)]
    largest = max(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes for m in mats)
    state = RunningState()
    gram_schmidt_batch(mats, state)
    for training in (True, False):
        tracemalloc.start()
        try:
            gram_schmidt_batch(mats, state, training=training)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The returned basis alone is about one combined matrix per order.
        assert peak < 1.5 * largest, (training, peak, largest)


_REDUCTIONS = textwrap.dedent("""
    import numpy as np
    from hocn import frobenius_inner, frobenius_norm, sample_ba_graph
    from hocn.ortho import _all_pairs_gram

    x, y = np.random.default_rng(0).random((2, 2_900_000)) / 1e4
    values = [frobenius_norm(x), frobenius_norm(x.reshape(1000, -1)),
              frobenius_inner(x.reshape(1000, -1), y.reshape(1000, -1))]
    g = sample_ba_graph(20000, 3, seed=0)
    for exclude in (False, True):
        values += list(_all_pairs_gram(g, 2, exclude).ravel())
    print(" ".join(float(v).hex() for v in values))
""")


def test_reductions_do_not_depend_on_the_blas_thread_count():
    # OpenBLAS splits a dot product of more than 10,000 entries by thread,
    # so a sum through it rounds differently on one and on two threads.
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = set()
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        done = subprocess.run([sys.executable, "-c", _REDUCTIONS], env=env, capture_output=True,
                              text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        outputs.add(done.stdout)
    assert len(outputs) == 1, outputs
