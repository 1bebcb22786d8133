import copy
import dataclasses
import io
import math
import warnings

import numpy as np
import pytest
from scipy.special import expit

import hocn.features
import hocn.scoring
from hocn import (ConfigError, FeatureConfig, InputError, RunningState,
                  ScoreModel, TrainConfig, cn_order_features,
                  default_node_features, gram_schmidt_batch, heuristic_score,
                  heuristic_scores, model_scores, pair_features,
                  propagate_features, sample_ba_graph, sample_negatives, split_edges,
                  train_model)
from hocn.scoring import _logits, logistic_loss_and_grads

from conftest import WITNESS_PAIRS, as_dense, batch_of, random_graph


def test_heuristic_hand_values(g4):
    assert heuristic_score(g4, (0, 2), "cn") == 1.0
    assert heuristic_score(g4, (0, 2), "ra") == 0.5
    assert heuristic_score(g4, (0, 2), "aa") == pytest.approx(1.0 / math.log(2))
    assert heuristic_score(g4, (0, 3), "ra") == pytest.approx(1.0 / 3.0)


def test_heuristic_rejects_self_pair(g4):
    with pytest.raises(InputError):
        heuristic_score(g4, (1, 1), "cn")
    for kind in ("cn", "aa", "ra"):
        with pytest.raises(InputError, match="identical endpoints"):
            heuristic_scores(g4, np.array([(0, 2), (1, 1)]), kind)
    with pytest.raises(ConfigError):
        heuristic_score(g4, (0, 2), "katz")


def test_vectorized_heuristics_match_scalar():
    g = random_graph(40, 0.2, seed=0)
    pairs = np.array([(u, v) for u in range(0, 40, 3)
                      for v in range(u + 1, 40, 7)])
    for kind in ("cn", "aa", "ra"):
        fast = heuristic_scores(g, pairs, kind)
        slow = np.array([heuristic_score(g, p, kind) for p in pairs])
        assert np.allclose(fast, slow)


@pytest.mark.parametrize("g", [random_graph(30, 0.15, seed=3), random_graph(45, 0.1, seed=4),
                               sample_ba_graph(60, 2, seed=5)], ids=["gnp-30", "gnp-45", "ba-60"])
def test_heuristics_match_neighbor_set_oracle(g):
    """CN, AA and RA against sums over set(neighbors(u)) & set(neighbors(v)),
    computed apart from the walk rows, for every pair of the graph."""
    pairs = np.array([(u, v) for u in range(g.n) for v in range(u + 1, g.n)])
    want = {"cn": [], "aa": [], "ra": []}
    for u, v in pairs:
        common = set(g.neighbors(u)) & set(g.neighbors(v))
        degrees = [float(g.degrees[c]) for c in sorted(common)]
        want["cn"].append(float(len(common)))
        want["aa"].append(sum(1.0 / math.log(d) for d in degrees))
        want["ra"].append(sum(1.0 / d for d in degrees))
    assert 0.0 in want["cn"] and max(want["cn"]) >= 2
    for kind, values in want.items():
        got = heuristic_scores(g, pairs, kind)
        assert got.dtype == np.float64
        np.testing.assert_allclose(got, values, rtol=1e-12, atol=0, err_msg=kind)


def test_vectorized_heuristics_reject_other_kinds(g4):
    with pytest.raises(ConfigError):
        heuristic_scores(g4, np.array([(0, 3)]), "normalized_cn_2")


def test_witness_ties_heuristics_but_not_order_two(witness):
    (p1, p2) = WITNESS_PAIRS
    for kind in ("cn", "aa", "ra"):
        assert heuristic_score(witness, p1, kind) == \
            heuristic_score(witness, p2, kind)
    feats = cn_order_features(witness, batch_of([p1, p2]), 2)
    rows = as_dense(feats.combined)
    assert not np.array_equal(rows[0], rows[1])
    assert rows[0].sum() != rows[1].sum()


def test_propagation_depth_guard(g4):
    x = np.log1p(g4.degrees.astype(np.float64))[:, None]
    assert np.array_equal(propagate_features(g4, x, 0), x)
    assert propagate_features(g4, np.eye(4), 1).shape == (4, 4)
    for depth in (-1, 99):
        with pytest.raises(InputError, match=f"depth {depth}"):
            propagate_features(g4, x, depth)


def test_propagation_preserves_constant_vector_direction(g4):
    # normalized self-loop adjacency keeps sqrt(d+1) as a fixed direction
    v = np.sqrt(g4.degrees + 1.0)[:, None]
    out = propagate_features(g4, v, 3)
    assert np.allclose(out, v)


def test_default_node_features_deterministic(g4):
    a = default_node_features(g4, dim=8, seed=3)
    b = default_node_features(g4, dim=8, seed=3)
    assert np.array_equal(a, b)
    c = default_node_features(g4, dim=8, seed=4)
    assert not np.array_equal(a, c)
    assert a.shape == (4, 9)


def _participation_state(k_max: int) -> RunningState:
    """Running statistics with the participation estimate of every order,
    which a model file must hold, and no Gram-Schmidt batch."""
    return RunningState(psi_hat={k: np.full(3, 0.5 * k) for k in range(1, k_max + 1)},
                        psi_t={k: 1 for k in range(1, k_max + 1)})


def test_feature_config_sets_only_what_a_user_chooses():
    assert [f.name for f in dataclasses.fields(FeatureConfig)] == [
        "k_max", "variant", "exclude_endpoints", "seed"]
    assert [f.name for f in dataclasses.fields(TrainConfig)] == [
        "features", "learning_rate", "epochs"]
    cfg = FeatureConfig()
    assert (cfg.depth, cfg.feature_dim, cfg.batch_size) == (2, 16, 2048)
    assert not hasattr(cfg, "poly_basis")  # the OCNP filter is always Chebyshev
    for name in ("depth", "feature_dim", "batch_size"):
        with pytest.raises(TypeError):
            FeatureConfig(**{name: getattr(cfg, name)})
    with pytest.raises(TypeError):
        TrainConfig(seed=0)


def test_model_file_round_trip():
    features = FeatureConfig(k_max=2, variant="ocnp", exclude_endpoints=True, seed=7)
    model = ScoreModel(features, alpha=np.array([0.125, -3.5e-7]),
                       head_w=np.linspace(-2.0, 0.1 + 0.2, 17), head_b=-0.75)
    buf = io.StringIO()
    model.save(buf, _participation_state(2))
    assert buf.getvalue().splitlines()[:5] == [
        "hocn-model v3", "k_max 2", "variant ocnp", "exclude_endpoints True", "seed 7"]
    buf.seek(0)
    loaded, state = ScoreModel.load(buf)
    assert loaded.features == features
    assert np.array_equal(loaded.alpha, model.alpha)
    assert np.array_equal(loaded.head_w, model.head_w)
    assert loaded.head_b == model.head_b
    assert _same_state(_state_snapshot(state), _state_snapshot(_participation_state(2)))


def test_model_file_records_exclude_endpoints():
    model = ScoreModel(FeatureConfig(k_max=1, exclude_endpoints=True),
                       alpha=np.array([0.5]), head_w=np.ones(17), head_b=0.0)
    buf = io.StringIO()
    model.save(buf, _participation_state(1))
    buf.seek(0)
    assert ScoreModel.load(buf)[0].features.exclude_endpoints is True


def test_model_load_rejects_garbage():
    with pytest.raises(ConfigError):
        ScoreModel.load(io.StringIO("not a model\n"))


def test_alpha_zero_degenerates_to_inner_product():
    g = random_graph(25, 0.25, seed=2)
    h = propagate_features(g, default_node_features(g, dim=4, seed=0), 2)
    pairs = np.array([(0, 5), (3, 9), (11, 20)])
    m, q = pair_features(g, pairs, h, FeatureConfig(k_max=2), RunningState(), training=True)
    logits = _logits(np.zeros(2), np.ones(h.shape[1]), 0.0, m, q)
    want = (h[pairs[:, 0]] * h[pairs[:, 1]]).sum(axis=1)
    assert np.allclose(logits, want)


@pytest.mark.parametrize("seed", range(4))
def test_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    b, f, kmax = 12, 5, 3
    m = rng.normal(size=(b, f))
    q = rng.normal(size=(kmax, b, f))
    y = (rng.random(b) < 0.5).astype(float)
    alpha = rng.normal(size=kmax) * 0.3
    w = rng.normal(size=f) * 0.3
    bias = float(rng.normal()) * 0.3
    _, g_alpha, g_w, g_b = logistic_loss_and_grads(alpha, w, bias, m, q, y)
    eps = 1e-6

    def loss_at(a_, w_, b_):
        return logistic_loss_and_grads(a_, w_, b_, m, q, y)[0]

    for idx in range(kmax):
        da = np.zeros(kmax)
        da[idx] = eps
        fd = (loss_at(alpha + da, w, bias) - loss_at(alpha - da, w, bias)) / (2 * eps)
        assert abs(fd - g_alpha[idx]) <= 1e-5 * max(1.0, abs(fd))
    for idx in range(f):
        dw = np.zeros(f)
        dw[idx] = eps
        fd = (loss_at(alpha, w + dw, bias) - loss_at(alpha, w - dw, bias)) / (2 * eps)
        assert abs(fd - g_w[idx]) <= 1e-5 * max(1.0, abs(fd))
    fd = (loss_at(alpha, w, bias + eps) - loss_at(alpha, w, bias - eps)) / (2 * eps)
    assert abs(fd - g_b) <= 1e-5 * max(1.0, abs(fd))


def _z_reference(alpha, head_w, head_b, m, q, y):
    """Loss, gradients and logits from the pair representation z itself."""
    z = m + np.tensordot(alpha, q, axes=(0, 0))
    logits = z @ head_w + head_b
    loss = float(np.mean(np.logaddexp(0.0, -(2.0 * y - 1.0) * logits)))
    delta = (1.0 / (1.0 + np.exp(-logits)) - y) / y.shape[0]
    grad_alpha = np.array([(q[k] @ head_w) @ delta for k in range(q.shape[0])])
    return loss, grad_alpha, z.T @ delta, float(delta.sum()), logits


@pytest.mark.parametrize("kmax", [1, 2, 3])
def test_loss_and_grads_match_z_reference(kmax):
    rng = np.random.default_rng(kmax)
    b, f = 300, 17
    m = rng.normal(size=(b, f))
    q = rng.normal(size=(kmax, b, f))
    y = (rng.random(b) < 0.5).astype(float)
    alpha = rng.normal(size=kmax)
    w = rng.normal(size=f)
    bias = float(rng.normal())
    *want, want_logits = _z_reference(alpha, w, bias, m, q, y)
    got = logistic_loss_and_grads(alpha, w, bias, m, q, y)
    for a, e in zip((*got, _logits(alpha, w, bias, m, q)), (*want, want_logits)):
        a, e = np.atleast_1d(a), np.atleast_1d(e)
        assert a.shape == e.shape
        assert np.abs(a - e).max() <= 1e-12 * np.abs(e).max()


def test_descent_at_extreme_logits():
    rng = np.random.default_rng(0)
    b, f, kmax = 40, 5, 3
    m = rng.normal(size=(b, f))
    m[:, 0] = 800.0 * np.where(np.arange(b) % 2, 1.0, -1.0)
    q = rng.normal(size=(kmax, b, f)) * 0.1
    y = (np.arange(b) % 4 < 2).astype(float)  # half the labels disagree with the sign
    alpha = rng.normal(size=kmax)
    w = np.concatenate([[1.0], rng.normal(size=f - 1) * 0.1])
    bias = 0.5
    logits = _logits(alpha, w, bias, m, q)
    assert np.abs(logits).min() > 790.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = logistic_loss_and_grads(alpha, w, bias, m, q, y)
    z = m + np.tensordot(alpha, q, axes=(0, 0))
    delta = (expit(logits) - y) / b
    want = (float(np.mean(np.logaddexp(0.0, -(2.0 * y - 1.0) * logits))),
            np.array([(q[k] @ w) @ delta for k in range(kmax)]), z.T @ delta,
            float(delta.sum()))
    for a, e in zip(got, want):
        a, e = np.atleast_1d(a), np.atleast_1d(e)
        assert a.shape == e.shape
        assert np.abs(a - e).max() <= 1e-12 * np.abs(e).max()


def _per_batch_training(split, config):
    """train_model's epochs, with every batch's features built by
    pair_features from the pairs alone."""
    g, cfg = split.train_graph, config.features
    h = propagate_features(g, default_node_features(g, dim=cfg.feature_dim, seed=cfg.seed),
                           cfg.depth)
    state = RunningState()
    rng = np.random.default_rng(cfg.seed)
    alpha, head_w, head_b, losses = np.full(cfg.k_max, 0.1), np.full(h.shape[1], 0.1), 0.0, []
    pos = split.train.pairs
    exclude = np.concatenate([pos, split.valid.pairs, split.test.pairs])
    for _ in range(config.epochs):
        neg = sample_negatives(g, len(pos), int(rng.integers(0, 2**31 - 1)), exclude=exclude)
        pairs = np.concatenate([pos, neg.pairs])
        y = np.concatenate([np.ones(len(pos)), np.zeros(len(neg))])
        m, q = pair_features(g, pairs, h, cfg, state, training=True)
        for _ in range(hocn.scoring.STEPS_PER_EPOCH):
            loss, g_alpha, g_w, g_b = logistic_loss_and_grads(alpha, head_w, head_b, m, q, y)
            losses.append(loss)
            alpha = alpha - config.learning_rate * g_alpha
            head_w = head_w - config.learning_rate * g_w
            head_b = head_b - config.learning_rate * g_b
    return alpha, head_w, head_b, losses, state


def _same_fit(result, alpha, head_w, head_b, losses, state):
    assert np.array_equal(result.model.alpha, alpha)
    assert np.array_equal(result.model.head_w, head_w)
    assert result.model.head_b == head_b
    assert result.losses == losses
    assert _same_state(_state_snapshot(result.state), _state_snapshot(state))


@pytest.mark.parametrize("exclude", [False, True])
@pytest.mark.parametrize("variant", ["ocn", "ocnp"])
def test_positive_features_kept_across_epochs_are_exact(variant, exclude, monkeypatch):
    g = sample_ba_graph(150, 3, seed=4)
    split = split_edges(g, (0.7, 0.1, 0.2), seed=1)
    monkeypatch.setattr(FeatureConfig, "batch_size", 64)
    features = FeatureConfig(k_max=3, variant=variant, exclude_endpoints=exclude, seed=5)
    config = TrainConfig(features=features, epochs=3)
    pos = split.train.pairs
    assert len(pos) % features.batch_size != 0  # a batch holds positives and negatives

    walked = []  # per cn_order_features_all call, how many positives it walked
    keys = set((pos[:, 0] * g.n + pos[:, 1]).tolist())
    walk = hocn.scoring.cn_order_features_all

    def counting(graph, batch, *args, **kwargs):
        walked.append(sum(int(u) * g.n + int(v) in keys for u, v in batch.pairs))
        return walk(graph, batch, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hocn.scoring, "cn_order_features_all", counting)
        kept = train_model(split, config)
        assert sum(walked) == len(pos) and walked[0] == len(pos)

        walked.clear()
        held = sum(f.combined.nnz for f in walk(split.train_graph, split.train, features.k_max,
                                                exclude_endpoints=exclude))
        # Below what the positives' features hold, so below any bound on it.
        mp.setattr(hocn.features, "_NNZ_BUDGET", held - 1)
        per_batch = train_model(split, config)
        assert sum(walked) == config.epochs * len(pos)
    _same_fit(kept, per_batch.model.alpha, per_batch.model.head_w, per_batch.model.head_b,
              per_batch.losses, per_batch.state)
    _same_fit(kept, *_per_batch_training(split, config))


def test_training_reduces_loss_and_is_deterministic():
    g = sample_ba_graph(80, 3, seed=1)
    split = split_edges(g, (0.7, 0.1, 0.2), seed=0)
    cfg = TrainConfig(features=FeatureConfig(k_max=2, seed=0), epochs=2)
    r1 = train_model(split, cfg)
    r2 = train_model(split, cfg)
    assert r1.losses == r2.losses
    assert r1.losses[-1] < r1.losses[0]
    assert np.array_equal(r1.model.alpha, r2.model.alpha)


def test_model_scores_finite_on_heldout():
    g = sample_ba_graph(80, 3, seed=2)
    split = split_edges(g, (0.7, 0.1, 0.2), seed=1)
    cfg = TrainConfig(features=FeatureConfig(k_max=2, seed=1), epochs=1)
    result = train_model(split, cfg)
    scores = model_scores(split.train_graph, split.test.pairs, result.model,
                          result.state, result.h, cfg.features)
    assert scores.shape == (len(split.test),)
    assert np.isfinite(scores).all()


def test_pair_features_ocnp_variant():
    g = random_graph(30, 0.2, seed=3)
    h = propagate_features(g, default_node_features(g, dim=4, seed=0), 1)
    pairs = np.array([(0, 7), (2, 12)])
    cfg = FeatureConfig(k_max=2, variant="ocnp")
    m, q = pair_features(g, pairs, h, cfg, RunningState(), training=True)
    assert m.shape == (2, h.shape[1])
    assert q.shape == (2, 2, h.shape[1])
    assert np.isfinite(q).all()


def _state_snapshot(state):
    return (state.t, dict(state.xi_hat), dict(state.psi_t),
            {k: v.copy() for k, v in state.psi_hat.items()})


def _same_state(a, b):
    return (a[0] == b[0] and a[1] == b[1] and a[2] == b[2] and a[3].keys() == b[3].keys()
            and all(np.array_equal(a[3][k], b[3][k]) for k in a[3]))


@pytest.mark.parametrize("variant", ["ocn", "ocnp"])
def test_model_scores_training_flag(variant, monkeypatch):
    monkeypatch.setattr(FeatureConfig, "batch_size", 32)
    g = sample_ba_graph(120, 3, seed=6)
    split = split_edges(g, (0.7, 0.1, 0.2), seed=2)
    features = FeatureConfig(k_max=3, variant=variant, seed=2)
    result = train_model(split, TrainConfig(features=features, epochs=1))
    model, h, pairs = result.model, result.h, split.test.pairs
    before = _state_snapshot(result.state)

    model_scores(split.train_graph, pairs, model, result.state, h, features)
    assert _same_state(_state_snapshot(result.state), before)

    featured = copy.deepcopy(result.state)
    pair_features(split.train_graph, pairs, h, features, featured, training=True)
    batches = -(-len(pairs) // features.batch_size)
    assert batches > 1
    assert featured.t == before[0] + (batches if variant == "ocn" else 0)
    assert all(featured.psi_t[k] == before[2][k] + batches for k in range(1, 4))
