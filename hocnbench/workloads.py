"""The four seeded workloads: inputs, set-up, measured operations and checks.

Each workload is one closed loop with a single caller: the next operation
starts when the previous one has returned. The program is reached only
through attributes of its modules (``graph.load_edge_list``, ...), so the
traced run can wrap them; inputs reach it only as edge-list text.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from hocn import diagnostics, features, graph, metrics, normalize, ortho, scoring, theory

import gen
from layers import DX, MC, ST, TE, count_eps_guarded

# (name, unit) of the gated end-to-end metrics, reported with --trace 0.
END_TO_END = (("setup_s", "s"), ("op_s", "s"), ("peak_rss_mb", "MB"))

# Figures of the run record: (unit, better, gated end-to-end metric they are part of).
FIGURES = {
    "train_s": ("s", "lower", "op_s"),
    "eval_s": ("s", "lower", "op_s"),
    "test_hits50": ("ratio", "higher", None),
    "test_mrr": ("ratio", "higher", None),
    "train_pairs_per_s": ("pairs/s", "higher", "op_s"),
    "infer_pairs_per_s": ("pairs/s", "higher", "op_s"),
    "mc_trials_per_s": ("trials/s", "higher", "op_s"),
    "diagnose_s": ("s", "lower", "op_s"),
    "ncn_pair_s": ("s", "lower", "op_s"),
    "failed_frac": ("ratio", "lower", None),
}

# The graphs are fixed datasets; the workload seed draws everything sampled
# from them (split, pairs, Monte-Carlo trials). Operation cost on the sparse
# path follows the hub structure of each BA draw, which more measuring
# cannot average out: across five BA(100k, 3) draws, sum(d^3) ranged from
# 3.1e9 to 4.5e9 and a streamed batch from 5.1 s to 6.2 s.
DATASET_SEED = 0
BA_SMALL = (2708, 2)
BA_LARGE = (100_000, 3)
STREAM_BATCH = 16384
STREAM_ORDER = 3
ROW_CHECKS_PER_BATCH = 4
NORM_TOLERANCE = 1e-9
DIAGNOSE_PAIRS = 256
DIAGNOSE_ORDER = 2
NCN_PAIRS_K1 = 2
NCN_PAIRS_K2 = 1
RA_TOLERANCE = 1e-12
MC_TRIALS = 100
MC_DELTA = 0.1


class Run:
    """Timings, check outcomes and figures of one pass over a workload.

    ``fixed`` passes run exactly the minimum number of operations (the
    traced run and its untraced twin); otherwise operations repeat until
    ``seconds`` have elapsed.
    """

    def __init__(self, seconds: float, fixed: bool, tracer=None):
        self.seconds = seconds
        self.fixed = fixed
        self.tracer = tracer
        self.times: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.figures: dict[str, float] = {}
        self.setup_s: list[float] = []
        self.op_s: list[float] = []

    @contextmanager
    def timed(self, key: str):
        start = time.perf_counter()
        yield
        self.times[key].append(time.perf_counter() - start)

    def check(self, ok, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def more(self, done: int, at_least: int, until: float) -> bool:
        """Whether a closed loop should start another operation."""
        if done < at_least:
            return True
        return not self.fixed and time.perf_counter() < until

    def operation(self, fn, *args) -> bool:
        """Run one operation, counting it as attempted and, if it raises, failed."""
        self.attempted += 1
        try:
            fn(*args)
        except Exception as exc:  # noqa: BLE001 - counted and reported
            self.failed += 1
            self.failures.append(f"{fn.__name__} raised {type(exc).__name__}: {exc}")
            return False
        return True


def _load(path: Path):
    with open(path) as fh:
        return graph.load_edge_list(fh)[0]


def _power_rows(adj: sp.csr_matrix, node: int, max_len: int) -> list[np.ndarray]:
    row = sp.csr_matrix(([1.0], ([0], [node])), shape=(1, adj.shape[0]))
    out = [row.toarray()[0]]
    for _ in range(max_len):
        row = row @ adj
        out.append(row.toarray()[0])
    return out


def check_feature_rows(run: Run, adj: sp.csr_matrix, feats, rows) -> None:
    """Combined order-k rows must equal the sum over the three slices of
    (A^k1 row of u) * (A^k2 row of v), computed here with scipy."""
    k_max = len(feats)
    for r in rows:
        u, v = (int(x) for x in feats[0].pairs[r])
        pu = _power_rows(adj, u, k_max)
        pv = _power_rows(adj, v, k_max)
        for f in feats:
            k = f.order
            want = pu[k] * pv[k] + pu[k - 1] * pv[k] + pu[k] * pv[k - 1]
            got = f.combined[r]
            got = got.toarray()[0] if sp.issparse(got) else np.asarray(got)
            run.check(np.array_equal(got, want), f"order-{k} row of pair ({u}, {v})")


def check_basis(run: Run, basis) -> None:
    for k, (mat, degenerate) in enumerate(zip(basis.matrices, basis.degenerate), start=1):
        if degenerate:
            continue
        data = mat.data if sp.issparse(mat) else np.asarray(mat)
        norm = float(np.sqrt(np.sum(data * data)))
        run.check(abs(norm - 1.0) <= NORM_TOLERANCE, f"OCN^{k} Frobenius norm {norm!r}")


def _write_edge_list(workdir: Path, name: str, edges: np.ndarray, inputs: dict) -> Path:
    text = gen.edge_list_text(edges)
    path = workdir / f"{name}.edges"
    path.write_text(text)
    inputs[path.name] = gen.sha256(text)
    return path


# ---------------------------------------------------------------------------


class TrainEval:
    """``hocn train`` then ``hocn eval`` on a Cora-sized BA graph: dense feature
    path, default TrainConfig, test split scored with the frozen state."""

    name = TE
    setup_repeats = 25

    def prepare(self, seed: int, workdir: Path, inputs: dict) -> None:
        self.seed = seed
        edges = gen.ba_edges(*BA_SMALL, DATASET_SEED)
        self.path = _write_edge_list(workdir, self.name, edges, inputs)

    def setup(self) -> None:
        g = _load(self.path)
        self.split = graph.split_edges(g, (0.7, 0.1, 0.2), self.seed)

    def measure(self, run: Run) -> None:
        done = 0
        until = time.perf_counter() + run.seconds
        while run.more(done, 1, until):
            if not run.operation(self._op, run):
                return
            done += 1
        run.figures["train_s"] = statistics.median(run.times["train"])
        run.figures["eval_s"] = statistics.median(run.times["eval"])

    def _op(self, run: Run) -> None:
        split = self.split
        config = scoring.TrainConfig()
        cfg = config.features
        scored = []

        def score_fn(pairs):
            out = scoring.model_scores(base, pairs, result.model, result.state, h, cfg)
            scored.append(out)
            return out

        start = time.perf_counter()
        with run.timed("train"):
            result = scoring.train_model(split, config)
        with run.timed("eval"):
            base = split.train_graph
            exclude = [tuple(p) for p in np.concatenate(
                [split.train.pairs, split.valid.pairs, split.test.pairs], axis=0)]
            negatives = graph.sample_negatives(base, max(len(split.test), 200),
                                               self.seed + 7, exclude=exclude)
            x = scoring.default_node_features(base, dim=cfg.feature_dim, seed=cfg.seed)
            h = scoring.propagate_features(base, x, cfg.depth)
            report = metrics.evaluate(score_fn, split.test, negatives, ks=(20, 50, 100))
        run.op_s.append(time.perf_counter() - start)
        run.check(len(result.losses) > 0 and np.all(np.isfinite(result.losses)),
                  "training losses finite")
        run.check(all(np.all(np.isfinite(s)) for s in scored), "test and negative scores finite")
        again = scoring.model_scores(base, split.test.pairs, result.model, result.state, h, cfg)
        run.check(np.array_equal(again, scored[0]), "frozen-state test logits repeat bit for bit")
        run.check(0.0 <= report.hits[50] <= 1.0 and 0.0 < report.mrr <= 1.0,
                  "Hits@50 and MRR in range")
        run.figures["test_hits50"] = report.hits[50]
        run.figures["test_mrr"] = report.mrr


class Stream:
    """Random-pair batches through features, running participation,
    normalization and streaming Gram-Schmidt on a large sparse BA graph:
    training batches first, then fresh batches with the state frozen."""

    name = ST
    setup_repeats = 3

    def prepare(self, seed: int, workdir: Path, inputs: dict) -> None:
        n, m = BA_LARGE
        edges = gen.ba_edges(n, m, DATASET_SEED)
        self.adj = gen.adjacency(n, edges)
        self.path = _write_edge_list(workdir, self.name, edges, inputs)
        self.seed = seed

    def setup(self) -> None:
        self.g = None  # release the previous repeat's graph before loading again
        self.g = _load(self.path)
        self.rng = np.random.default_rng(self.seed)

    def measure(self, run: Run) -> None:
        state = ortho.RunningState()
        half = time.perf_counter() + run.seconds / 2
        done = 0
        while run.more(done, 2, half):
            if not run.operation(self._batch, run, state, True):
                return
            done += 1
        if run.tracer is not None:
            count_eps_guarded(run.tracer, state)
        done = 0
        while run.more(done, 2, half + run.seconds / 2):
            if not run.operation(self._batch, run, state, False):
                return
            done += 1
        train = statistics.median(run.times["train_batch"])
        infer = statistics.median(run.times["infer_batch"])
        run.op_s.append(train + infer)
        run.figures["train_pairs_per_s"] = STREAM_BATCH / train
        run.figures["infer_pairs_per_s"] = STREAM_BATCH / infer

    def _batch(self, run: Run, state, training: bool) -> None:
        batch = graph.PairBatch(gen.random_pairs(self.rng, self.adj.shape[0], STREAM_BATCH))
        before = (state.t, dict(state.psi_t), dict(state.xi_hat),
                  {k: v.copy() for k, v in state.psi_hat.items()})
        with run.timed("train_batch" if training else "infer_batch"):
            feats = features.cn_order_features_all(self.g, batch, STREAM_ORDER)
            normalized = []
            for f in feats:
                if training:
                    normalize.update_running_participation(state, f)
                normalized.append(normalize.apply_normalization(
                    f, normalize.running_counts(state, f.order)))
            basis = ortho.gram_schmidt_batch(normalized, state, training=training)
        rows = self.rng.choice(len(batch), size=ROW_CHECKS_PER_BATCH, replace=False)
        check_feature_rows(run, self.adj, feats, rows)
        check_basis(run, basis)
        if not training:
            after = (state.t, state.psi_t, state.xi_hat, state.psi_hat)
            run.check(before[:3] == after[:3] and all(
                np.array_equal(before[3][k], after[3][k]) for k in after[3]),
                "inference leaves the running state unchanged")


class TheoryMC:
    """Monte-Carlo validation of the latent-distance bound; it calls no
    feature, normalization or orthogonalization code."""

    name = MC
    setup_repeats = 5

    def prepare(self, seed: int, workdir: Path, inputs: dict) -> None:
        self.seed = seed
        self.params = theory.LatentModelParams(n=500, dim=2, radius=0.45, seed=seed)
        inputs["latent"] = "n=500 dim=2 radius=0.45 k=2 delta=0.1 trials=100"

    def setup(self) -> None:
        # validate_bound reads no input, so the program's set-up here is a
        # fresh interpreter importing it, as every ``hocn theory`` call pays.
        src = str(Path(graph.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
        subprocess.run([sys.executable, "-c", "import hocn"], env=env,
                       check=True, timeout=120)

    def measure(self, run: Run) -> None:
        done = 0
        until = time.perf_counter() + run.seconds
        while run.more(done, 1, until):
            if not run.operation(self._op, run, self.seed * 1_000_000 + done):
                return
            done += 1
        run.figures["mc_trials_per_s"] = MC_TRIALS / statistics.median(run.op_s)

    def _op(self, run: Run, seed: int) -> None:
        start = time.perf_counter()
        report = theory.validate_bound("latent", self.params, "unnormalized", 2, MC_DELTA,
                                       MC_TRIALS, seed, threads=1)
        run.op_s.append(time.perf_counter() - start)
        run.check(report.trials == MC_TRIALS and report.eligible > 0, "eligible trials > 0")
        run.check(report.eligible > 0 and report.violation_fraction <= MC_DELTA,
                  f"violation fraction {report.violation_fraction!r} <= delta")


class ExactDiagnose:
    """``hocn diagnose --exclude-endpoints`` on a Cora-sized BA graph with
    exact participation, then normalized-CN scores at k=1 (degree-corrected)
    and k=2; the only workload on the dense exact-participation path."""

    name = DX
    setup_repeats = 25

    def prepare(self, seed: int, workdir: Path, inputs: dict) -> None:
        n, m = BA_SMALL
        edges = gen.ba_edges(n, m, DATASET_SEED)
        self.adj = gen.adjacency(n, edges)
        self.path = _write_edge_list(workdir, self.name, edges, inputs)
        self.seed = seed

    def setup(self) -> None:
        self.g = _load(self.path)
        self.rng = np.random.default_rng(self.seed)

    def measure(self, run: Run) -> None:
        done = 0
        until = time.perf_counter() + run.seconds
        while run.more(done, 1, until):
            if not run.operation(self._op, run):
                return
            done += 1
        run.figures["diagnose_s"] = statistics.median(run.times["diagnose"])
        run.figures["ncn_pair_s"] = statistics.median(run.times["ncn"]) / (
            NCN_PAIRS_K1 + NCN_PAIRS_K2)

    def _op(self, run: Run) -> None:
        g = self.g
        batch = graph.PairBatch(gen.distinct_pairs(self.rng, g.n, DIAGNOSE_PAIRS))
        # A shared neighbor of degree >= 3 makes CN^1 and CN^2 non-empty, so
        # every score computes the exact participation.
        ncn_pairs = gen.pairs_with_common_neighbor(self.rng, self.adj,
                                                   NCN_PAIRS_K1 + NCN_PAIRS_K2, min_degree=3)
        start = time.perf_counter()
        with run.timed("diagnose"):
            feats = features.cn_order_features_all(g, batch, DIAGNOSE_ORDER,
                                                   exclude_endpoints=True)
            raw = [np.asarray(f.combined.toarray() if sp.issparse(f.combined)
                              else f.combined) for f in feats]
            participation = [normalize.exact_walk_participation(
                g, f.order, exclude_endpoints=True) for f in feats]
            normalized = [normalize.apply_normalization(f, p)
                          for f, p in zip(feats, participation)]
            basis = ortho.gram_schmidt_batch(normalized, ortho.RunningState(), training=True)
            ortho_rows = [np.asarray(m.toarray() if sp.issparse(m) else m)
                          for m in basis.matrices]
            norm_rows = [np.asarray(f.combined.toarray() if sp.issparse(f.combined)
                                    else f.combined) for f in normalized]
            diagnostics.order_correlation(raw)
            diagnostics.order_correlation(ortho_rows)
            diagnostics.edge_jsd(raw[0], raw[-1])
            diagnostics.edge_jsd(ortho_rows[0], ortho_rows[-1])
            for k in range(DIAGNOSE_ORDER):
                diagnostics.coefficient_of_variation(raw[k])
                diagnostics.coefficient_of_variation(norm_rows[k])
        with run.timed("ncn"):
            dc = [normalize.normalized_cn_score(g, int(i), int(j), 1, degree_corrected=True)
                  for i, j in ncn_pairs[:NCN_PAIRS_K1]]
            k2 = [scoring.heuristic_score(g, (int(i), int(j)), "normalized_cn_2")
                  for i, j in ncn_pairs[NCN_PAIRS_K1:]]
        run.op_s.append(time.perf_counter() - start)
        degrees = np.diff(self.adj.indptr).astype(np.float64)
        run.check(np.array_equal(participation[0].counts, degrees * (degrees - 1)),
                  "k=1 exact participation equals d(c)(d(c)-1)")
        inv = sp.diags(1.0 / np.maximum(degrees, 1.0))
        for (i, j), score in zip(ncn_pairs[:NCN_PAIRS_K1], dc):
            ra = float((self.adj[i] @ inv).multiply(self.adj[j]).sum())
            run.check(abs(score - ra) <= RA_TOLERANCE * max(1.0, abs(ra)),
                      f"degree-corrected k=1 NCN equals RA for ({i}, {j})")
        run.check(all(np.isfinite(s) and s > 0 for s in k2), "k=2 normalized CN positive")


WORKLOADS = {w.name: w for w in (TrainEval, Stream, TheoryMC, ExactDiagnose)}
