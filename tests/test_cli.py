"""End-to-end checks of the command-line interface.

Each subcommand is run through ``main`` with a temporary edge list and the
emitted CSV (or JSON) is parsed back and cross-checked against the library.
"""

import csv
import io
import json
import os
import shlex
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import hocn.cli
import hocn.normalize
from hocn import (Graph, RunningState, ScoreModel, ba_bound_normalized, ba_bound_unnormalized,
                  default_node_features, evaluate, exact_walk_participation,
                  heuristic_score, heuristic_scores, load_edge_list, merged_graph, model_scores,
                  normalized_cn_score, propagate_features, sample_negatives, split_edges)
from hocn import (FeatureConfig, PairBatch, apply_normalization, apply_polynomial_filter,
                  cn_order_features_all, coefficient_of_variation, degree_filter_argument,
                  edge_jsd, gram_schmidt_batch, order_correlation, polynomial_weights,
                  running_counts, update_running_participation)
from hocn.cli import main
from hocn.theory import BoundInputs, sample_ba_graph


def write_edges(path, edges):
    path.write_text("".join(f"{u}\t{v}\n" for u, v in edges))
    return str(path)


def ba_edges(n, m, seed):
    g = sample_ba_graph(n, m, seed=seed)
    iu, iv = g.to_scipy().nonzero()
    return [(int(a), int(b)) for a, b in zip(iu, iv) if a < b]


@pytest.fixture
def edge_file(tmp_path):
    return write_edges(tmp_path / "g.tsv", ba_edges(80, 3, seed=11))


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def parse_csv(text):
    lines = text.splitlines()
    comments = [l for l in lines if l.startswith("#")]
    body = [l for l in lines if not l.startswith("#")]
    rows = list(csv.DictReader(io.StringIO("\n".join(body))))
    return comments, rows


def test_prepare_manifest_covers_all_edges(edge_file, capsys):
    code, out = run_cli(["prepare", "--input", edge_file, "--seed", "2"], capsys)
    assert code == 0
    comments, rows = parse_csv(out)
    assert any(c.startswith("# version=") for c in comments)
    assert any(c.startswith("# seed=2") for c in comments)
    assert any(c.startswith("# config:") for c in comments)
    edges = set(map(tuple, ba_edges(80, 3, seed=11)))
    seen = {(int(r["u"]), int(r["v"])) for r in rows}
    normalized = {(min(e), max(e)) for e in seen}
    assert normalized == edges
    splits = {r["split"] for r in rows}
    assert splits == {"train", "valid", "test"}


def test_score_ra_matches_library(edge_file, capsys):
    code, out = run_cli(["score", "--input", edge_file, "--kind", "ra",
                         "--seed", "3", "--split", "test"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    assert rows
    with open(edge_file) as fh:
        g, _ = load_edge_list(fh)
    split = split_edges(g, (0.7, 0.1, 0.2), 3)
    base = merged_graph(split, False)
    expected = heuristic_scores(base, split.test.pairs, "ra")
    got = np.array([float(r["score"]) for r in rows])
    assert np.allclose(got, expected)


@pytest.fixture
def memo_counts(monkeypatch):
    """Requests and builds of each graph's memo entries, by (graph number,
    key), and the walk-row passes behind exact participation, by graph
    number. Every graph seen is kept alive, so no id is reused."""
    graphs, requests, builds, passes = [], Counter(), Counter(), Counter()

    def number(g):
        if not any(g is h for h in graphs):
            graphs.append(g)
        return next(i for i, h in enumerate(graphs) if h is g)

    memoized, diagonals = Graph.memoized, hocn.normalize.walk_row_sums

    def counting(g, key, build):
        requests[(number(g), key)] += 1

        def counted():
            builds[(number(g), key)] += 1
            return build()

        return memoized(g, key, counted)

    def counted_diagonals(g, k):
        passes[number(g)] += 1
        return diagonals(g, k)

    monkeypatch.setattr(Graph, "memoized", counting)
    monkeypatch.setattr(hocn.normalize, "walk_row_sums", counted_diagonals)
    return requests, builds, passes


def _built_once(counts) -> set:
    """Asserts one build per graph and key, and one walk-row pass per
    participation built; returns the keys built."""
    requests, builds, passes = counts
    assert set(requests) == set(builds) and set(builds.values()) == {1}, (requests, builds)
    assert passes == Counter(i for i, key in builds if key[0] == "exact_walk_participation")
    return {key for _, key in builds}


def test_graph_memo_builds_each_array_once_per_graph(edge_file, tmp_path, capsys, memo_counts):
    requests = memo_counts[0]
    model_path = str(tmp_path / "model.txt")
    assert main(["train", "--input", edge_file, "--epochs", "2", "--model-out", model_path,
                 "--seed", "1"]) == 0
    assert main(["eval", "--input", edge_file, "--kind", "model", "--model", model_path,
                 "--seed", "1"]) == 0
    capsys.readouterr()
    assert _built_once(memo_counts) == {"walk_order", "loop_adjacency", ("walk_nnz_bound", 2)}
    assert max(requests.values()) > 1  # each feature batch reads the bound

    for counter in memo_counts:
        counter.clear()
    g = sample_ba_graph(300, 2, seed=5)
    hub = int(np.argmax(g.degrees))
    pairs = [(int(u), int(v)) for u, v in zip(g.neighbors(hub)[:10], g.neighbors(hub)[1:11])]
    scores = [heuristic_score(g, pair, "normalized_cn_2") for pair in pairs]
    assert all(s > 0 for s in scores)
    assert _built_once(memo_counts) == {"walk_order", "loop_adjacency", ("walk_nnz_bound", 2),
                                        ("exact_walk_participation", 2, True)}
    # Per pair one request of the participation and of A + I, two of the
    # bound memo, for the cuts and for the walk rows' dtype, and three of the
    # walk order, for the endpoints' positions and for the products of each
    # order. Building the participation makes the same two reads of the
    # bound memo and one of A + I and of the walk order, and one more of
    # each for its walk totals; building the bound memo reads A + I and the
    # walk order, and building A + I reads the walk order.
    assert sorted(requests.values()) == [len(pairs), len(pairs) + 3, 2 * len(pairs) + 2,
                                         3 * len(pairs) + 4]

    for counter in memo_counts:
        counter.clear()
    code, out = run_cli(["score", "--input", edge_file, "--kind", "normalized-cn",
                         "--seed", "3", "--split", "test", "--k-max", "2"], capsys)
    assert code == 0
    assert _built_once(memo_counts) == {"walk_order", "loop_adjacency", ("walk_nnz_bound", 2),
                                        ("exact_walk_participation", 2, True)}
    _, rows = parse_csv(out)
    with open(edge_file) as fh:
        g, _ = load_edge_list(fh)
    split = split_edges(g, (0.7, 0.1, 0.2), 3)
    base = merged_graph(split, False)
    expected = np.array([normalized_cn_score(base, int(u), int(v), 2)
                         for u, v in split.test.pairs])
    assert (expected > 0).any()
    got = np.array([float(r["score"]) for r in rows])
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("kind", ["cn", "aa", "normalized-cn", "ocn", "ocnp"])
def test_score_kinds_run(edge_file, kind, capsys):
    code, out = run_cli(["score", "--input", edge_file, "--kind", kind], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    vals = [float(r["score"]) for r in rows]
    assert all(np.isfinite(vals))


def test_train_then_eval_model(edge_file, tmp_path, capsys):
    model_path = str(tmp_path / "model.json")
    code, out = run_cli(["train", "--input", edge_file, "--epochs", "2",
                         "--model-out", model_path, "--seed", "1"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    losses = [float(r["loss"]) for r in rows]
    assert losses and all(np.isfinite(losses))
    with open(model_path) as fh:
        ScoreModel.load(fh)
    code, out = run_cli(["eval", "--input", edge_file, "--kind", "model",
                         "--model", model_path, "--seed", "1", "--ks", "10,50"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    metrics = {(r["metric"], r["K"]) for r in rows}
    assert ("hits", "10") in metrics
    assert ("hits", "50") in metrics
    assert ("mrr", "") in metrics
    for r in rows:
        assert 0.0 <= float(r["value"]) <= 1.0


def test_eval_heuristic(edge_file, capsys):
    code, out = run_cli(["eval", "--input", edge_file, "--kind", "cn",
                         "--ks", "20", "--negatives", "150"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    assert {r["metric"] for r in rows} == {"hits", "mrr"}
    assert all(int(r["n_neg"]) == 150 for r in rows)


def test_diagnose_synthetic(capsys):
    code, out = run_cli(["diagnose", "--synthetic", "60,3", "--pairs", "64",
                         "--seed", "4"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    quantities = {r["quantity"] for r in rows}
    assert {"corr_raw", "corr_ortho", "cv_raw", "cv_normalized",
            "jsd_mean_raw", "jsd_mean_ortho"} <= quantities
    raw = {(r["a"], r["b"]): float(r["value"]) for r in rows
           if r["quantity"] == "corr_raw"}
    assert raw[("1", "1")] == pytest.approx(1.0)


def test_theory_grid_matches_evaluator(capsys):
    code, out = run_cli(["bounds", "--model", "ba",
                         "--n", "100", "--m", "3", "--eta", "16726.0",
                         "--max-degree", "1", "--k-grid-max", "4"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    assert [int(r["k"]) for r in rows] == [2, 3, 4]
    for r in rows:
        b = BoundInputs(n=100, delta=0.1, k=int(r["k"]), dim=2, m=3,
                        steepness=1.0, zeta=2, eta_2k=16726.0, max_degree=1)
        assert float(r["unnormalized"]) == pytest.approx(
            ba_bound_unnormalized(b))


def test_theory_validate_latent(capsys):
    code, out = run_cli(["theory",
                         "--n", "120", "--radius", "0.15", "--k", "1",
                         "--trials", "100", "--seed", "3"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 1
    row = rows[0]
    assert int(row["trials"]) == 100
    assert int(row["eligible"]) > 0
    assert float(row["violation_fraction"]) <= 0.1


def test_bounds_ba_defaults_give_every_order(capsys):
    code, out = run_cli(["bounds", "--model", "ba"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    assert [int(r["k"]) for r in rows] == [2, 3, 4, 5, 6]
    for r in rows:
        b = BoundInputs(n=500, delta=0.1, k=int(r["k"]), dim=2, m=3, steepness=1.0,
                        zeta=2, eta_2k=1e6, max_degree=1)
        assert r["unnormalized"] == repr(ba_bound_unnormalized(b))
        assert r["normalized"] == repr(ba_bound_normalized(b, 4))


@pytest.mark.parametrize("model,flag,value", [
    ("latent", "--m", "3"), ("latent", "--steepness", "2"), ("latent", "--max-degree", "2"),
    ("latent", "--n-inner", "5"), ("ba", "--rho", "0.5"), ("ba", "--r-sum", "0.2"),
    ("ba", "--r-m-max", "3"),
])
def test_bounds_flag_the_model_does_not_read_is_an_error(model, flag, value, capsys):
    code = main(["bounds", "--model", model, flag, value])
    err = capsys.readouterr().err
    assert code == 1
    assert err == f"error: InputError: {flag} is not read by bounds --model {model}\n"


def test_bounds_config_key_the_model_does_not_read_is_an_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model=ba\nr_sum=0.2\n")
    code = main(["bounds", "--config", str(cfg)])
    assert code == 1
    assert "--r-sum is not read by bounds --model ba" in capsys.readouterr().err


def test_theory_validate_warns_when_nothing_is_checked(capsys):
    # At the default radius every latent trial's bound is vacuous.
    code = main(["theory", "--trials", "100"])
    captured = capsys.readouterr()
    assert code == 0
    _, rows = parse_csv(captured.out)
    assert int(rows[0]["eligible"]) == 0
    assert "eligible=0" in captured.err and "--radius" in captured.err


def test_bench_emits_fit(capsys):
    code, out = run_cli(["bench", "--nodes", "2000",
                         "--batch-sizes", "64,128,256",
                         "--probe-size", "64"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    sections = [r["section"] for r in rows]
    assert sections.count("sweep") == 3
    assert "fit_C" in sections and "fit_r2" in sections
    assert "ortho_overhead" in sections
    per_k = [r for r in rows if r["section"] == "per_k"]
    assert [int(r["k"]) for r in per_k] == [1, 2]


def test_json_output(edge_file, capsys):
    code, out = run_cli(["eval", "--input", edge_file, "--kind", "ra",
                         "--ks", "10", "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert "version" in doc and "config" in doc
    assert any(r["metric"] == "mrr" for r in doc["rows"])


def test_config_file_and_flag_priority(edge_file, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=9\nk-max=3  # deeper features\n")
    code, out = run_cli(["score", "--input", edge_file, "--kind", "cn",
                         "--config", str(cfg), "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["seed"] == 9
    assert doc["config"]["k_max"] == 3
    code, out = run_cli(["score", "--input", edge_file, "--kind", "cn",
                         "--config", str(cfg), "--seed", "5", "--json"], capsys)
    doc = json.loads(out)
    assert doc["config"]["seed"] == 5


def test_output_file(edge_file, tmp_path, capsys):
    dest = tmp_path / "scores.csv"
    code, _ = run_cli(["score", "--input", edge_file, "--kind", "cn",
                       "--output", str(dest)], capsys)
    assert code == 0
    comments, rows = parse_csv(dest.read_text())
    assert comments and rows


def test_missing_input_is_runtime_error(tmp_path, capsys):
    code = main(["score", "--input", str(tmp_path / "absent.tsv")])
    capsys.readouterr()
    assert code == 1


def test_bad_ratios_is_runtime_error(edge_file, capsys):
    code = main(["prepare", "--input", edge_file, "--ratios", "0.5,0.5"])
    capsys.readouterr()
    assert code == 1


@pytest.mark.parametrize("ratios,error", [
    ("1,0,0", "valid ratio 0.0 leaves the valid part"),
    ("0,1,0", "train ratio 0.0 leaves the train part"),
    ("0.99,0.01,0", "test ratio 0.0 leaves the test part"),
])
def test_ratio_with_an_empty_part_is_a_split_error_line(edge_file, capsys, ratios, error):
    code = main(["prepare", "--input", edge_file, "--ratios", ratios])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith(f"error: SplitError: {error}")
    assert captured.out == ""


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["score"])  # missing required --input
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [["prepare", "--input", "g.tsv"], ["diagnose"]])
def test_unknown_edge_list_format_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--format", "xyz"])
    assert exc.value.code == 2
    assert "argument --format: invalid choice: 'xyz'" in capsys.readouterr().err


def test_latent_bounds_past_float_range_print_empty(capsys):
    # from k = 59 at the defaults, (n - sqrt(-2 n ln delta))^(2k - 1)
    # overflows a float; the bound is vacuous there
    outputs = []
    for k_max in ("58", "59"):
        code, out = run_cli(["bounds", "--k-grid-max", k_max], capsys)
        assert code == 0
        outputs.append(parse_csv(out)[1])
    assert outputs[1][:-1] == outputs[0]
    assert outputs[1][-1] == {"k": "59", "unnormalized": "", "normalized": ""}


def test_ba_bounds_print_vacuous_cells_empty(capsys):
    # the normalized BA bound falls below 0 at k = 12 and leaves the Lambert W
    # domain at every order for a walk count of 1e5; each such cell is empty
    code, out = run_cli(["bounds", "--model", "ba", "--k-grid-max", "12"], capsys)
    assert code == 0
    rows = parse_csv(out)[1]
    assert rows[-1] == {"k": "12", "unnormalized": "87.77972719177775", "normalized": ""}
    assert all(float(r["normalized"]) > 0 for r in rows[:-1])
    code, out = run_cli(["bounds", "--model", "ba", "--eta", "1e5"], capsys)
    assert code == 0
    low = parse_csv(out)[1]
    assert [r["unnormalized"] for r in low] == [r["unnormalized"] for r in rows[:5]]
    assert all(r["normalized"] == "" for r in low)


def _structural_scores_reference(g, pairs, variant, k_max, exclude):
    """The score-subcommand pipeline written out step by step."""
    cfg = FeatureConfig(k_max=k_max, variant=variant, exclude_endpoints=exclude)
    state = RunningState()
    scores = np.zeros(pairs.shape[0])
    for start in range(0, pairs.shape[0], cfg.batch_size):
        chunk = PairBatch(pairs[start:start + cfg.batch_size])
        feats = cn_order_features_all(g, chunk, k_max, exclude_endpoints=exclude)
        normalized = []
        for f in feats:
            update_running_participation(state, f)
            normalized.append(apply_normalization(f, running_counts(state, f.order)))
        if variant == "ocnp":
            x = degree_filter_argument(g)
            mats = [apply_polynomial_filter(f, polynomial_weights(f.order, x)).combined
                    for f in normalized]
        else:
            mats = gram_schmidt_batch(normalized, state, training=True).matrices
        scale = np.sqrt(len(chunk)) if variant == "ocn" else 1.0
        scores[start:start + len(chunk)] = scale * sum(
            np.asarray(np.abs(m).sum(axis=1)).ravel() for m in mats)
    return scores


@pytest.fixture(scope="module")
def large_edge_file(tmp_path_factory):
    # about 2100 training edges: more than one 2048-pair feature batch
    return write_edges(tmp_path_factory.mktemp("large") / "g.tsv", ba_edges(1000, 3, seed=5))


@pytest.mark.parametrize("kind", ["ocn", "ocnp"])
@pytest.mark.parametrize("k_max", [2, 3])
@pytest.mark.parametrize("exclude", [False, True])
def test_structural_scores_equal_step_by_step_pipeline(large_edge_file, kind, k_max,
                                                       exclude, capsys):
    argv = ["score", "--input", large_edge_file, "--kind", kind, "--split", "train",
            "--k-max", str(k_max), "--seed", "2"]
    code, out = run_cli(argv + (["--exclude-endpoints"] if exclude else []), capsys)
    assert code == 0
    _, rows = parse_csv(out)
    with open(large_edge_file) as fh:
        g, _ = load_edge_list(fh)
    split = split_edges(g, (0.7, 0.1, 0.2), 2)
    assert len(split.train) > FeatureConfig().batch_size
    expected = _structural_scores_reference(split.train_graph, split.train.pairs,
                                            kind, k_max, exclude)
    assert np.array_equal([float(r["score"]) for r in rows], expected)


def test_ocn_score_does_not_shrink_with_batch_size(large_edge_file, capsys):
    # With K=1 a score is the pair's order-1 row term. The train split has
    # 2070 pairs: one batch of 2048 and one of 22.
    code, out = run_cli(["score", "--input", large_edge_file, "--kind", "ocn",
                         "--split", "train", "--k-max", "1", "--seed", "2"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    batch_size = FeatureConfig().batch_size
    scores = np.array([float(r["score"]) for r in rows])
    assert len(scores) - batch_size == 22
    large, small = scores[:batch_size].mean(), scores[batch_size:].mean()
    assert 1 / 3 < small / large < 3, (large, small)


def _diagnose_pairs_per_draw(n, count, seed):
    """Reference oracle for the pairs diagnose scores: one (u, v) draw at a
    time, self-pairs and repeats in either orientation rejected."""
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < count:
        u, v = (int(x) for x in rng.integers(0, n, size=2))
        if u != v and (u, v) not in pairs and (v, u) not in pairs:
            pairs.append((u, v))
    return np.array(pairs)


@pytest.mark.parametrize("n,count,seed", [(200, 256, 0), (120, 64, 4), (30, 400, 1)])
def test_diagnose_pairs_match_per_draw_oracle(n, count, seed):
    # The same pairs as the per-draw loop, up to orientation, which no
    # diagnose quantity depends on; (30, 400) leaves 35 of 435 pairs undrawn.
    expected = np.sort(_diagnose_pairs_per_draw(n, count, seed), axis=1)
    assert np.array_equal(hocn.graph._draw_distinct_pairs(n, count, seed), expected)


def test_diagnose_more_pairs_than_exist_is_an_error(capsys):
    code = main(["diagnose", "--synthetic", "10,2", "--pairs", "100"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: SamplingError") and "45 available" in captured.err
    assert captured.out == ""


def test_train_zero_epochs_writes_no_model(edge_file, tmp_path, capsys):
    model_path = tmp_path / "model.txt"
    code = main(["train", "--input", edge_file, "--epochs", "0",
                 "--model-out", str(model_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: ConfigError: epochs must be >= 1, got 0")
    assert not model_path.exists()


@pytest.mark.parametrize("exclude", [False, True])
def test_diagnose_rows_equal_exact_pipeline(exclude, capsys):
    argv = ["diagnose", "--synthetic", "120,3", "--pairs", "64", "--k-max", "3",
            "--seed", "4"]
    code, out = run_cli(argv + (["--exclude-endpoints"] if exclude else []), capsys)
    assert code == 0
    _, rows = parse_csv(out)
    g = sample_ba_graph(120, 3, seed=4)
    pairs = _diagnose_pairs_per_draw(g.n, 64, seed=4)
    feats = cn_order_features_all(g, PairBatch(pairs), 3, exclude_endpoints=exclude)
    raw = [f.combined for f in feats]
    normalized = [apply_normalization(f, exact_walk_participation(
        g, f.order, exclude_endpoints=exclude)).combined for f in feats]
    ortho = gram_schmidt_batch(normalized, RunningState(), training=True).matrices
    corr_raw, corr_ortho = order_correlation(raw), order_correlation(ortho)
    expected = []
    for a in range(3):
        for b in range(3):
            expected.append(("corr_raw", a + 1, b + 1, corr_raw[a, b]))
            expected.append(("corr_ortho", a + 1, b + 1, corr_ortho[a, b]))
    for k in range(1, 4):
        expected.append(("cv_raw", k, None, coefficient_of_variation(raw[k - 1])))
        expected.append(("cv_normalized", k, None, coefficient_of_variation(normalized[k - 1])))
    expected.append(("jsd_mean_raw", None, None, np.nanmean(edge_jsd(raw[0], raw[-1]))))
    expected.append(("jsd_mean_ortho", None, None, np.nanmean(edge_jsd(ortho[0], ortho[-1]))))
    assert [(r["quantity"], r["a"], r["b"], r["value"]) for r in rows] == [
        (q, "" if a is None else str(a), "" if b is None else str(b), repr(float(v)))
        for q, a, b, v in expected]


def test_exact_participation_commands_run_above_old_node_guard(tmp_path, capsys):
    # 6,000 nodes, more than exact participation used to accept.
    code, out = run_cli(["diagnose", "--synthetic", "6000,2", "--k-max", "2", "--pairs", "64",
                         "--exclude-endpoints"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    cv = {q: np.array([float(r["value"]) for r in rows if r["quantity"] == q])
          for q in ("cv_raw", "cv_normalized")}
    # The spread is NaN only for an order where no pair has two members,
    # which normalization does not change: here order 1 of 64 random pairs.
    assert len(cv["cv_normalized"]) == 2 and np.isfinite(cv["cv_normalized"][1])
    assert np.array_equal(np.isnan(cv["cv_normalized"]), np.isnan(cv["cv_raw"]))
    edges = write_edges(tmp_path / "g6000.tsv", ba_edges(6000, 2, seed=5))
    code, out = run_cli(["score", "--input", edges, "--kind", "normalized-cn"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    scores = [float(r["score"]) for r in rows]
    assert scores and np.isfinite(scores).all() and max(scores) > 0


# Each (subcommand, flag) below was accepted and then ignored: the flag now
# belongs only to the subcommands that read it.
_REQUIRED = {"prepare": ["--input", "g.tsv"], "score": ["--input", "g.tsv"],
             "train": ["--input", "g.tsv", "--model-out", "m.txt"],
             "eval": ["--input", "g.tsv"], "diagnose": [], "theory": [], "bounds": [],
             "bench": []}
_FLAG_VALUES = {"--k-max": ["2"], "--variant": ["ocn"], "--threads": ["2"],
                "--exclude-endpoints": [], "--use-valid-as-input": [], "--k": ["5"],
                "--eta": ["9"], "--mode": ["grid"], "--model": ["latent"], "--m": ["3"]}
_UNREAD_FLAGS = [
    ("prepare", "--k-max"), ("prepare", "--variant"), ("prepare", "--exclude-endpoints"),
    ("prepare", "--use-valid-as-input"), ("prepare", "--threads"),
    ("score", "--variant"), ("score", "--threads"),
    ("train", "--use-valid-as-input"), ("train", "--threads"),
    ("eval", "--k-max"), ("eval", "--variant"), ("eval", "--exclude-endpoints"),
    ("eval", "--threads"),
    ("diagnose", "--variant"), ("diagnose", "--use-valid-as-input"), ("diagnose", "--threads"),
    ("theory", "--k-max"), ("theory", "--variant"), ("theory", "--exclude-endpoints"),
    ("theory", "--use-valid-as-input"), ("theory", "--eta"), ("theory", "--mode"),
    ("theory", "--model"), ("theory", "--m"),
    ("bounds", "--k"), ("bounds", "--threads"), ("bounds", "--mode"),
    ("bench", "--variant"), ("bench", "--use-valid-as-input"), ("bench", "--threads"),
]


@pytest.mark.parametrize("command,flag", _UNREAD_FLAGS)
def test_flag_a_subcommand_does_not_read_is_a_usage_error(command, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, *_REQUIRED[command], flag, *_FLAG_VALUES[flag]])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def test_config_key_a_subcommand_does_not_read_is_an_error(edge_file, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("threads=2\n")
    code = main(["score", "--input", edge_file, "--config", str(cfg)])
    assert code == 1
    assert "unknown config key: threads" in capsys.readouterr().err


def test_config_value_overrides_an_option_default(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("pairs=5000\n")
    code = main(["diagnose", "--synthetic", "30,2", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: SamplingError")


def test_command_line_overrides_the_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("pairs=5000\n")
    code, out = run_cli(["diagnose", "--synthetic", "30,2", "--config", str(cfg),
                         "--pairs", "64", "--json"], capsys)
    assert code == 0
    assert json.loads(out)["config"]["pairs"] == 64


def test_theory_oversized_n_is_an_error_line(capsys):
    code = main(["theory", "--n", "20000", "--trials", "100"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: ScaleError: validate_bound at n=20000")
    assert captured.err.count("\n") == 1 and captured.out == ""


@pytest.mark.parametrize("argv,config,error", [
    (["score"], "kind=xyz\n", "kind: expected one of"),
    (["train", "--model-out", "unused"], "learning_rate=fast\n", "learning_rate: expected"),
    (["train", "--model-out", "unused"], "exclude_endpoints=maybe\n", "not a boolean"),
])
def test_config_value_is_parsed_with_its_option_type(edge_file, tmp_path, capsys,
                                                     argv, config, error):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    code = main([*argv, "--input", edge_file, "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: ConfigError") and error in captured.err


def test_eval_model_reads_only_the_model_file(edge_file, tmp_path, capsys):
    model_path = str(tmp_path / "model.txt")
    assert main(["train", "--input", edge_file, "--epochs", "1",
                 "--model-out", model_path]) == 0
    capsys.readouterr()
    assert main(["eval", "--input", edge_file, "--kind", "model", "--model", model_path]) == 0
    capsys.readouterr()
    code = main(["eval", "--input", edge_file, "--kind", "model"])
    captured = capsys.readouterr()
    assert code == 1
    assert "InputError" in captured.err and "--model" in captured.err
    assert captured.out == ""


_MODEL = ScoreModel(FeatureConfig(), alpha=np.array([0.1, 0.2]),
                    head_w=np.full(17, 0.1), head_b=0.0)


def _model_text(drop=(), add=""):
    buf = io.StringIO()
    _MODEL.save(buf, RunningState(t=1, xi_hat={(2, 1): 0.5},
                                  psi_hat={1: np.ones(80), 2: np.ones(80)}, psi_t={1: 1, 2: 1}))
    return "".join(ln for ln in buf.getvalue().splitlines(True)
                   if ln.split()[0] not in drop) + add


@pytest.mark.parametrize("model_text,names", [
    (_model_text(drop=("alpha",)), "no alpha line"),
    (_model_text(add="xi 1\n"), "line 13: malformed xi line"),
    (_model_text(drop=("t", "xi", "psi")), "no t line"),
    (_model_text(add="alpha 0.1 0.2 0.3\n"), "second alpha line"),
    (_model_text(drop=("alpha",), add="alpha 0.1 0.2 0.3\n"),
     "alpha has 3 values, expected 2"),
    (_model_text(drop=("head_w",), add="head_w 0.1 0.2\n"),
     "head_w has 2 values, expected 17"),
    ("kind,k,i,value\nt,,,0\n", "line 1: expected 'hocn-model v3'"),
    (_model_text().replace("v3", "v2", 1), "line 1: expected 'hocn-model v3', got 'hocn-model v2'"),
    (_model_text(add="psi 1 7 1.0\n"), "line 13: a second psi 1 line"),
    (_model_text(add="xi 2 1 123.0\n"), "line 13: a second xi 2 1 line"),
    (_model_text(add="xi 2 2 1.0\n"), "line 13: xi 2 2 outside 1 <= i < k <= 2"),
    (_model_text(add="xi 3 1 1.0\n"), "line 13: xi 3 1 outside 1 <= i < k <= 2"),
    (_model_text(add="psi 9 1 1.0 2.0\n"), "line 13: psi 9 outside 1 <= k <= 2"),
    (_model_text(add="psi 0 1 1.0\n"), "line 13: psi 0 outside 1 <= k <= 2"),
    (_model_text(drop=("psi",), add="psi 1 1 1.0\n"), "model file: no psi 2 line"),
    (_model_text(drop=("seed",), add="seed -1\n"), "line 12: seed -1 is below 0"),
    (_model_text(drop=("t",), add="t -1\n"), "line 12: t -1 is below 0"),
], ids=["no-alpha", "short-row", "empty-state", "second-alpha", "alpha-length",
        "head-w-length", "state-csv", "v2-file", "second-psi", "second-xi",
        "xi-same-orders", "xi-above-k-max", "psi-above-k-max", "psi-0", "no-psi-2",
        "negative-seed", "negative-t"])
def test_eval_malformed_model_or_state_is_a_config_error(edge_file, tmp_path, capsys,
                                                         model_text, names):
    (tmp_path / "model.txt").write_text(model_text)
    code = main(["eval", "--input", edge_file, "--kind", "model",
                 "--model", str(tmp_path / "model.txt")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: ConfigError") and names in captured.err
    assert captured.err.count("\n") == 1 and captured.out == ""


@pytest.mark.parametrize("batch_size", ["0", "-5"])
def test_eval_model_batch_size_below_one_is_an_error_line(edge_file, tmp_path, capsys,
                                                          batch_size):
    # batch_size is a constant of FeatureConfig, so a model file has no
    # batch_size line and any value in one, valid or not, is refused.
    text = _model_text()
    assert "\nbatch_size " not in text
    (tmp_path / "model.txt").write_text(text + f"batch_size {batch_size}\n")
    code = main(["eval", "--input", edge_file, "--kind", "model",
                 "--model", str(tmp_path / "model.txt")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: ConfigError")
    assert "line 13: unknown key 'batch_size'" in captured.err
    assert captured.err.count("\n") == 1 and captured.out == ""


_EVERY_SUBCOMMAND = [["prepare"], ["score"], ["train"], ["eval"],
                     ["diagnose", "--synthetic", "30,2"], ["theory", "--trials", "100"],
                     ["bounds"], ["bench", "--nodes", "50", "--batch-sizes", "16"]]
_NEGATIVE_SEED = "InputError: --seed must be >= 0, got -1\n"


@pytest.mark.parametrize("argv,config,error", [
    (["prepare", "--ratios", "a,b,c"], None, "InputError"),
    (["eval", "--ks", "20,x"], None, "InputError"),
    (["score"], "k_max=abc\n", "ConfigError"),
    (["eval"], "negatives=many\n", "ConfigError"),
    (["diagnose", "--synthetic", "x,3"], None, "InputError"),
    (["diagnose", "--synthetic", "200"], None, "InputError"),
    (["bench", "--batch-sizes", "64,1k"], None, "InputError"),
    (["eval", "--ks", "0"], None, "MetricError: K must be >= 1, got 0"),
    (["eval", "--ks", "20,-3"], None, "MetricError: K must be >= 1, got -3"),
    (["eval", "--negatives", "0"], None, "InputError: requested 0 distinct pairs"),
    (["eval", "--negatives", "-5"], None, "InputError: requested -5 distinct pairs"),
    (["diagnose", "--synthetic", "30,2", "--pairs", "0"], None,
     "InputError: requested 0 distinct pairs"),
    (["theory", "--k", "0", "--trials", "100"], None, "InputError: k must be >= 1, got 0"),
    (["theory", "--k", "-1", "--trials", "100"], None, "InputError: k must be >= 1, got -1"),
    (["theory", "--threads", "0", "--trials", "100"], None,
     "InputError: threads must be >= 1, got 0"),
    (["theory", "--threads", "-1", "--trials", "100"], None,
     "InputError: threads must be >= 1, got -1"),
    (["bench", "--batch-sizes", "0"], None, "InputError: --batch-sizes"),
    (["bench", "--batch-sizes", "64,-5"], None, "InputError: --batch-sizes"),
    (["bench", "--probe-size", "0"], None, "InputError: --probe-size"),
    (["bench", "--probe-size", "-3"], None, "InputError: --probe-size"),
    (["bounds", "--delta", "0.6"], None,
     "BoundDomainError: the latent bounds need delta <= 1/2, got 0.6"),
    (["theory", "--k", "2", "--radius", "0.45", "--trials", "100", "--delta", "0.6"], None,
     "InputError: the latent bounds need delta <= 1/2, got 0.6"),
    (["bounds", "--n", "0"], None, "InputError: need n >= 1 and dim >= 1, got n=0, dim=2"),
    (["bounds", "--dim", "0", "--eta", "1e9"], None,
     "InputError: need n >= 1 and dim >= 1, got n=500, dim=0"),
    (["bounds", "--model", "ba", "--dim", "0"], None,
     "InputError: need n >= 1 and dim >= 1, got n=500, dim=0"),
    (["bounds", "--n", "-5", "--eta", "1e9"], None,
     "InputError: need n >= 1 and dim >= 1, got n=-5, dim=2"),
    (["prepare"], "format=xyz\n", "ConfigError: format: expected one of tsv, csv, got 'xyz'"),
    (["bounds", "--eta", "nan"], None, "InputError: eta_2k must be finite and >= 0, got nan"),
    (["bounds", "--model", "ba", "--steepness", "nan"], None,
     "InputError: steepness must be > 0, got nan"),
    (["bounds", "--model", "ba", "--m", "0"], None, "InputError: m must be >= 1, got 0"),
    (["bounds", "--model", "ba", "--m", "-2"], None, "InputError: m must be >= 1, got -2"),
    (["bounds", "--model", "ba", "--max-degree", "-1"], None,
     "InputError: max_degree must be >= 1, got -1"),
    *[(["bounds", "--eta", "1e7", "--zeta", zeta], None,
       f"InputError: zeta must be >= 2, got {zeta}") for zeta in ("0", "1", "-1")],
    (["bounds", "--eta", "1e7", "--rho", "-1", "--n", "501"], None,
     "InputError: rho must be finite and > 0, got -1.0"),
    (["bounds", "--eta", "1e7", "--r-m-max", "-1"], None,
     "InputError: r_m_max must be finite and >= 0, got -1.0"),
    (["prepare", "--ratios", "0.5,nan,0.5"], None,
     "SplitError: valid ratio nan is not finite and >= 0"),
    (["prepare", "--ratios", "nan,0.3,0.3"], None,
     "SplitError: train ratio nan is not finite and >= 0"),
    *[([*argv, "--seed", "-1"], None, _NEGATIVE_SEED) for argv in _EVERY_SUBCOMMAND],
    *[(argv, "seed=-1\n", _NEGATIVE_SEED) for argv in _EVERY_SUBCOMMAND],
], ids=["ratios", "ks", "config-k-max", "config-negatives", "synthetic", "synthetic-count",
        "batch-sizes", "ks-0", "ks-negative", "negatives-0", "negatives-negative", "pairs-0",
        "theory-k-0", "theory-k-negative", "theory-threads-0",
        "theory-threads-negative", "batch-sizes-0", "batch-sizes-negative",
        "probe-size-0", "probe-size-negative", "bounds-delta-above-half",
        "theory-delta-above-half", "bounds-n-0", "bounds-dim-0", "bounds-ba-dim-0",
        "bounds-n-negative", "config-format", "bounds-eta-nan", "bounds-ba-steepness-nan",
        "bounds-ba-m-0", "bounds-ba-m-negative", "bounds-ba-max-degree-negative",
        "bounds-zeta-0", "bounds-zeta-1", "bounds-zeta-negative", "bounds-rho-negative",
        "bounds-r-m-max-negative", "ratios-nan-valid", "ratios-nan-train",
        *[f"seed-{argv[0]}" for argv in _EVERY_SUBCOMMAND],
        *[f"config-seed-{argv[0]}" for argv in _EVERY_SUBCOMMAND]])
def test_malformed_number_is_an_error_line(edge_file, tmp_path, capsys, argv, config, error):
    if argv[0] in ("prepare", "score", "train", "eval"):
        argv = [*argv, "--input", edge_file]
    if argv[0] == "train":
        argv = [*argv, "--model-out", str(tmp_path / "model.txt")]
    if config:
        (tmp_path / "run.cfg").write_text(config)
        argv = [*argv, "--config", str(tmp_path / "run.cfg")]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith(f"error: {error}") and captured.err.count("\n") == 1
    assert captured.out == "" and not (tmp_path / "model.txt").exists()


def test_eval_builds_features_the_model_was_trained_on(edge_file, tmp_path, capsys):
    model_path = str(tmp_path / "model.txt")
    seed = 1
    assert main(["train", "--input", edge_file, "--epochs", "2", "--exclude-endpoints",
                 "--model-out", model_path, "--seed", str(seed)]) == 0
    capsys.readouterr()
    code, out = run_cli(["eval", "--input", edge_file, "--kind", "model", "--model", model_path,
                         "--seed", str(seed)], capsys)
    assert code == 0
    _, rows = parse_csv(out)

    with open(edge_file) as fh:
        g, _ = load_edge_list(fh)
    split = split_edges(g, (0.7, 0.1, 0.2), seed)
    base = split.train_graph
    exclude = [tuple(p) for p in np.concatenate(
        [split.train.pairs, split.valid.pairs, split.test.pairs], axis=0)]
    negatives = sample_negatives(base, max(len(split.test), 200), seed + 7, exclude=exclude)
    with open(model_path) as fh:
        model, _ = ScoreModel.load(fh)
    assert model.features.exclude_endpoints

    def expected_rows(exclude_endpoints):
        with open(model_path) as fh:
            _, state = ScoreModel.load(fh)
        cfg = replace(model.features, exclude_endpoints=exclude_endpoints)
        h = propagate_features(base, default_node_features(base, dim=cfg.feature_dim,
                                                           seed=seed), cfg.depth)
        report = evaluate(lambda pairs: model_scores(base, pairs, model, state, h, cfg),
                          split.test, negatives, ks=(20, 50, 100))
        return ([("hits", str(k), repr(report.hits[k])) for k in sorted(report.hits)]
                + [("mrr", "", repr(report.mrr))])

    got = [(r["metric"], r["K"], r["value"]) for r in rows]
    assert got == expected_rows(True)
    assert got != expected_rows(False)


def test_eval_model_of_another_graph_is_a_config_error(edge_file, tmp_path, capsys):
    model_path = str(tmp_path / "model.txt")
    assert main(["train", "--input", edge_file, "--epochs", "1", "--model-out", model_path]) == 0
    capsys.readouterr()
    larger = write_edges(tmp_path / "larger.tsv", ba_edges(120, 3, seed=11))
    code = main(["eval", "--input", larger, "--kind", "model", "--model", model_path])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: ConfigError") and "of 80 nodes" in captured.err


def test_eval_takes_the_node_feature_seed_from_the_model_file(edge_file, tmp_path, capsys):
    # eval's --seed draws the split and the negatives and nothing else.
    model_path = str(tmp_path / "model.txt")
    assert main(["train", "--input", edge_file, "--epochs", "2", "--model-out", model_path,
                 "--seed", "1"]) == 0
    capsys.readouterr()
    code, out = run_cli(["eval", "--input", edge_file, "--kind", "model", "--model", model_path,
                         "--seed", "2"], capsys)
    assert code == 0
    _, rows = parse_csv(out)

    with open(edge_file) as fh:
        g, _ = load_edge_list(fh)
    split = split_edges(g, (0.7, 0.1, 0.2), 2)
    base = split.train_graph
    exclude = np.concatenate([split.train.pairs, split.valid.pairs, split.test.pairs])
    negatives = sample_negatives(base, max(len(split.test), 200), 2 + 7, exclude=exclude)

    def expected_rows(feature_seed):
        with open(model_path) as fh:
            model, state = ScoreModel.load(fh)
        cfg = model.features
        h = propagate_features(base, default_node_features(base, dim=cfg.feature_dim,
                                                           seed=feature_seed), cfg.depth)
        report = evaluate(lambda pairs: model_scores(base, pairs, model, state, h, cfg),
                          split.test, negatives, ks=(20, 50, 100))
        return ([("hits", str(k), repr(report.hits[k])) for k in sorted(report.hits)]
                + [("mrr", "", repr(report.mrr))])

    got = [(r["metric"], r["K"], r["value"]) for r in rows]
    assert got == expected_rows(1)
    assert got != expected_rows(2)


def test_readme_train_and_eval_commands_run(edge_file, tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = [shlex.split(line.split("#")[0]) for line in readme.splitlines()
                if line.startswith(("hocn train", "hocn eval"))]
    assert [argv[:2] for argv in commands] == [["hocn", "train"], ["hocn", "eval"]]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main([edge_file if word == "edges.tsv" else word for word in argv[1:]]) == 0
    capsys.readouterr()


def test_python_dash_m_runs_the_cli():
    src = str(Path(hocn.cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-m", "hocn", "bounds",
                           "--model", "ba", "--n", "100", "--m", "3", "--eta", "16726.0",
                           "--max-degree", "1", "--k-grid-max", "3"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    _, rows = parse_csv(proc.stdout)
    assert [int(r["k"]) for r in rows] == [2, 3]
