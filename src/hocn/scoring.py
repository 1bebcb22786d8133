"""Heuristic scorers (CN, AA and RA: order-1 member sums of the walk-row
features, ``normalize.cn_member_sums``) and the orthogonal-CN scoring model.

The learned model realizes
    score(i, j) = head . [ H_i * H_j + sum_k alpha_k (OCN^k row) H ] + bias
with H produced by parameter-free symmetrically-normalized propagation: a
stand-in for a trained message-passing encoder, so the structural-feature
pipeline is exercised end to end with manually derived gradients.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field, fields
from typing import ClassVar

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, InputError, TrainingError
from .features import OrderFeatures, cn_order_features_all, features_fit_budget
from .graph import Graph, PairBatch, SplitResult, sample_negatives
from .normalize import (apply_normalization, cn_member_sums, normalized_cn_score,
                        running_counts, update_running_participation)
from .ortho import (RunningState, apply_polynomial_filter,
                    degree_filter_argument, gram_schmidt_batch, polynomial_weights)

MODEL_FORMAT_VERSION = 3

MAX_PROPAGATION_DEPTH = 8

# Descent steps on each epoch's fixed feature arrays.
STEPS_PER_EPOCH = 60


def heuristic_score(g: Graph, pair, kind: str) -> float:
    """Classic CN / AA / RA scores, or for kind "normalized_cn_<k>" the
    path-normalized CN at order k: the one-row call of ``heuristic_scores``
    or of ``normalized_cn_scores``."""
    i, j = int(pair[0]), int(pair[1])
    if kind.startswith("normalized_cn"):
        named = re.fullmatch(r"normalized_cn_(-?[0-9]+)", kind)
        if named is None:
            raise ConfigError(f"malformed order in heuristic kind {kind!r}")
        return normalized_cn_score(g, i, j, int(named[1]))
    return float(heuristic_scores(g, np.array([[i, j]]), kind)[0])


def heuristic_scores(g: Graph, pairs: np.ndarray, kind: str) -> np.ndarray:
    """CN, AA and RA over a (h, 2) pair array: ``cn_member_sums`` at order 1
    of weight 1, 1/log d(c) and 1/d(c). A member c of CN^1(i, j) is adjacent
    to both endpoints, so d(c) >= 2 and every weight is finite."""
    weight = {"cn": lambda d: np.ones(d.size), "aa": lambda d: 1.0 / np.log(d),
              "ra": lambda d: 1.0 / d}.get(kind)
    if weight is None:
        raise ConfigError(f"unknown heuristic kind {kind!r}")
    return cn_member_sums(g, pairs, 1, lambda c: weight(g.degrees[c]))


def normalized_adjacency(g: Graph) -> sp.csr_matrix:
    """Symmetrically degree-normalized adjacency with self-loops, in node
    order."""
    inv_sqrt = 1.0 / np.sqrt(g.degrees + 1.0)
    d = sp.diags(inv_sqrt)
    return (d @ (g.to_scipy() + sp.identity(g.n, format="csr")) @ d).tocsr()


def default_node_features(g: Graph, dim: int = 16, seed: int = 0) -> np.ndarray:
    """Log-degree scalar plus a seeded random projection of each adjacency row."""
    rng = np.random.default_rng(seed)
    proj = rng.standard_normal((g.n, dim)) / math.sqrt(dim)
    adj = g.to_scipy()
    return np.concatenate([np.log1p(g.degrees)[:, None], adj @ proj], axis=1)


def propagate_features(g: Graph, x: np.ndarray, depth: int) -> np.ndarray:
    """H = A_hat^depth X for an (n, d) node-feature matrix X (such as
    ``default_node_features``), with A_hat the normalized self-loop
    adjacency."""
    if depth < 0 or depth > MAX_PROPAGATION_DEPTH:
        raise InputError(f"propagation depth {depth} outside [0, {MAX_PROPAGATION_DEPTH}]")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != g.n:
        raise InputError(f"feature matrix shape {x.shape} does not match n={g.n}")
    if depth == 0:
        return x
    a_hat = normalized_adjacency(g)
    h = x
    for _ in range(depth):
        h = a_hat @ h
    return h


@dataclass
class FeatureConfig:
    """Settings for the structural-feature pipeline feeding the model;
    ``seed`` draws the node features and the run. The class constants are
    the same for every model."""

    k_max: int = 2
    variant: str = "ocn"
    exclude_endpoints: bool = False
    seed: int = 0
    depth: ClassVar[int] = 2
    feature_dim: ClassVar[int] = 16
    batch_size: ClassVar[int] = 2048


def _setting(default):
    """Parser of a FeatureConfig field, by the type of its default; a bool
    is written as str() gives it."""
    if isinstance(default, bool):
        return {"True": True, "False": False}.__getitem__
    return type(default)


# Parsers of the one-value lines of a model file, by their first word.
_SCALARS = {**{f.name: _setting(f.default) for f in fields(FeatureConfig)},
            "head_b": float, "t": int}


def _float_words(values) -> str:
    return " ".join(map(repr, np.asarray(values, dtype=np.float64).tolist()))


@dataclass
class ScoreModel:
    """Learned coefficients of the orthogonal-CN scoring form, with the
    ``FeatureConfig`` they were trained with.

    ``save`` writes them and the running statistics of training as one
    file of ``key value...`` lines after a ``hocn-model v3`` header: one
    line per ``FeatureConfig`` field; ``alpha``, ``head_w``, ``head_b``;
    ``t``, one ``xi k i value`` line per running inner product and one
    ``psi k psi_t v0 v1 ...`` line per order. Floats are written with
    ``repr``, so they read back bit for bit. ``load`` returns the model and
    the statistics, which inference keeps frozen.
    """

    features: FeatureConfig
    alpha: np.ndarray
    head_w: np.ndarray
    head_b: float

    def save(self, stream, state: RunningState) -> None:
        lines = [f"hocn-model v{MODEL_FORMAT_VERSION}"]
        lines += [f"{f.name} {getattr(self.features, f.name)}" for f in fields(FeatureConfig)]
        lines += [f"alpha {_float_words(self.alpha)}", f"head_w {_float_words(self.head_w)}",
                  f"head_b {float(self.head_b)!r}", f"t {state.t}"]
        lines += [f"xi {k} {i} {float(v)!r}" for (k, i), v in sorted(state.xi_hat.items())]
        lines += [f"psi {k} {state.psi_t[k]} {_float_words(vec)}"
                  for k, vec in sorted(state.psi_hat.items())]
        stream.write("\n".join(lines) + "\n")

    @classmethod
    def load(cls, stream) -> tuple["ScoreModel", RunningState]:
        """(model, running statistics) from a file that ``save`` wrote.
        Anything malformed is a ConfigError that names its line, and so is
        a second line with the key of another (the key of an ``xi`` or
        ``psi`` line includes its orders), an ``xi k i`` line without
        1 <= i < k <= k_max, a ``psi k`` line with k outside 1..k_max and a
        ``seed`` or ``t`` below 0. A missing line, such as the ``psi`` line
        of some order, is a ConfigError too."""
        header = stream.readline().strip()
        if header != f"hocn-model v{MODEL_FORMAT_VERSION}":
            raise ConfigError(f"model file line 1: expected 'hocn-model "
                              f"v{MODEL_FORMAT_VERSION}', got {header[:40]!r}")
        found, where = {}, {}  # by key ("xi k i" and "psi k" with orders): value, line
        for lineno, line in enumerate(stream, start=2):
            if not line.strip():
                continue
            key, *words = line.split()
            here = f"model file line {lineno}"
            try:
                if key == "xi":
                    k, i, value = words
                    key, value = f"xi {int(k)} {int(i)}", float(value)
                elif key == "psi":
                    key, value = f"psi {int(words[0])}", (int(words[1]), np.array(
                        words[2:], dtype=np.float64))
                elif key in ("alpha", "head_w"):
                    value = np.array(words, dtype=np.float64)
                elif key in _SCALARS:
                    (word,) = words
                    value = _SCALARS[key](word)
                else:
                    raise ConfigError(f"{here}: unknown key {key!r}")
            except (ValueError, KeyError, IndexError):
                raise ConfigError(f"{here}: malformed {key} line") from None
            if key in found:
                raise ConfigError(f"{here}: a second {key} line")
            found[key], where[key] = value, here
        missing = [key for key in (*_SCALARS, "alpha", "head_w") if key not in found]
        if missing:
            raise ConfigError(f"model file: no {', '.join(missing)} line")
        for key in ("seed", "t"):
            if found[key] < 0:
                raise ConfigError(f"{where[key]}: {key} {found[key]} is below 0")
        features = FeatureConfig(**{f.name: found[f.name] for f in fields(FeatureConfig)})
        k_max = features.k_max
        for key, length in (("alpha", k_max), ("head_w", features.feature_dim + 1)):
            if len(found[key]) != length:
                raise ConfigError(f"{where[key]}: {key} has {len(found[key])} values, "
                                  f"expected {length}")
        for k in range(1, k_max + 1):  # as many as alpha has values
            if f"psi {k}" not in found:
                raise ConfigError(f"model file: no psi {k} line")
        state = RunningState(t=found["t"])
        for key, value in found.items():
            kind, *orders = key.split()
            if kind not in ("xi", "psi"):
                continue
            k, *i = map(int, orders)
            if not (1 <= k <= k_max and all(1 <= j < k for j in i)):
                raise ConfigError(f"{where[key]}: {key} outside "
                                  f"1 <= {'i < k' if i else 'k'} <= {k_max}")
            if i:
                state.xi_hat[(k, *i)] = value
            else:
                state.psi_t[k], state.psi_hat[k] = value
        return cls(features, found["alpha"], found["head_w"], found["head_b"]), state


def batch_features(g: Graph, batch: PairBatch, cfg: FeatureConfig,
                   state: RunningState, training: bool, known_rows: Sequence = ()) -> list:
    """Stage 1 of the feature pipeline: the normalized CN features of orders
    1..K for one batch.

    Column c of order k is divided by the running estimate of node c's walk
    participation in ``state``, which training mode first updates with this
    batch's column sums. (``hocn diagnose`` divides by the exact counts
    instead, with ``apply_normalization`` and ``exact_walk_participation``.)
    ``known_rows`` holds, per order, the raw rows of the batch's first
    pairs, which are then not walked again: rows are canonical CSR, so they
    stack with the walked rest into the rows of one walk of the batch.
    """
    known = known_rows[0].shape[0] if known_rows else 0
    raw = []
    if known < len(batch):
        raw = cn_order_features_all(g, PairBatch(batch.pairs[known:]), cfg.k_max,
                                    exclude_endpoints=cfg.exclude_endpoints)
    if known:  # the known rows of each order, on top of its walked rest if any
        raw = [OrderFeatures(order=k, pairs=batch.pairs, graph=g,
                             exclude_endpoints=cfg.exclude_endpoints,
                             combined=sp.vstack([rows, *(f.combined for f in raw[k - 1:k])],
                                                format="csr"))
               for k, rows in enumerate(known_rows, start=1)]
    normalized = []
    for f in raw:
        if training:
            update_running_participation(state, f)
        normalized.append(apply_normalization(f, running_counts(state, f.order)))
    return normalized


def basis_matrices(g: Graph, normalized: list, cfg: FeatureConfig,
                   state: RunningState, training: bool) -> list:
    """Stage 2 of the feature pipeline: one (batch, n) matrix per order with
    the cross-order redundancy removed, by streaming Gram-Schmidt (variant
    "ocn") or the diagonal polynomial filter (variant "ocnp")."""
    if cfg.variant == "ocn":
        return gram_schmidt_batch(normalized, state, training=training).matrices
    if cfg.variant == "ocnp":
        x = degree_filter_argument(g)
        return [apply_polynomial_filter(f, polynomial_weights(f.order, x)).combined
                for f in normalized]
    raise ConfigError(f"unknown variant {cfg.variant!r}")


def basis_batches(g: Graph, pairs: np.ndarray, cfg: FeatureConfig, state: RunningState,
                  training: bool, known_rows: Sequence = ()) -> Iterator[tuple[int, float, list]]:
    """The one batch loop of the pipeline: for each ``cfg.batch_size`` slice
    of ``pairs``, ``batch_features`` (with the slice's share of
    ``known_rows``) then ``basis_matrices``, yielded as (start, scale,
    matrices). A basis row is used times ``scale``: sqrt(batch size) for
    "ocn", whose basis has unit Frobenius norm per batch, 1.0 for "ocnp".
    That only approximates a per-pair scale (ROADMAP item 5)."""
    for start in range(0, pairs.shape[0], cfg.batch_size):
        chunk = PairBatch(pairs[start:start + cfg.batch_size])
        normalized = batch_features(g, chunk, cfg, state, training,
                                    [rows[start:start + len(chunk)] for rows in known_rows])
        scale = math.sqrt(len(chunk)) if cfg.variant == "ocn" else 1.0
        yield start, scale, basis_matrices(g, normalized, cfg, state, training)


def pair_features(g: Graph, pairs: np.ndarray, h: np.ndarray,
                  cfg: FeatureConfig, state: RunningState, training: bool,
                  known_rows: Sequence = ()) -> tuple[np.ndarray, np.ndarray]:
    """Per-pair model inputs: (B, F) elementwise products and (K, B, F) CN pools.

    q holds the basis rows of ``basis_batches``, the one batch loop of the
    pipeline, times their batch's scale, projected onto H. The sqrt(batch
    size) rescale of "ocn" only approximates magnitudes independent of batch
    boundaries (ROADMAP item 5). ``known_rows`` holds, per order, the raw
    rows (``cn_order_features_all``) of the first pairs, not walked again.
    """
    m = h[pairs[:, 0]] * h[pairs[:, 1]]
    q = np.zeros((cfg.k_max, pairs.shape[0], h.shape[1]))
    for start, scale, mats in basis_batches(g, pairs, cfg, state, training, known_rows):
        for k, mat in enumerate(mats):
            q[k, start:start + mat.shape[0]] = (mat * scale) @ h
    return m, q


def _logits(alpha, head_w, head_b, m, q):
    """m @ head_w + sum_k alpha_k q_k @ head_w + head_b, as in
    ``logistic_loss_and_grads``: the (B, F) pair representation is not formed."""
    return m @ head_w + alpha @ (q @ head_w) + head_b


def logistic_loss_and_grads(alpha, head_w, head_b, m, q, y):
    """Mean logistic loss and analytic gradients for (alpha, head_w, head_b).

    The pair representation z = m + sum_k alpha_k q_k is never formed: with
    pq = q @ head_w, the logits are m @ head_w + alpha @ pq + head_b, and
    z.T @ delta = m.T @ delta + sum_k alpha_k q_k.T @ delta.
    """
    pq = q @ head_w
    logits = m @ head_w + alpha @ pq + head_b
    # One exp serves the loss and the sigmoid, and never overflows:
    # log(1 + exp(x)) = max(0, x) + log1p(e) for x = +-logit, and
    # sigmoid(logit) = (1 or e) / (1 + e), with e = exp(-|logit|) <= 1.
    e = np.exp(-np.abs(logits))
    loss = float(np.mean(np.maximum(0.0, (1.0 - 2.0 * y) * logits) + np.log1p(e)))
    p = np.where(logits >= 0.0, 1.0, e) / (1.0 + e)
    delta = (p - y) / y.shape[0]
    grad_w = m.T @ delta + alpha @ (delta @ q)
    grad_b = float(delta.sum())
    grad_alpha = pq @ delta
    return loss, grad_alpha, grad_w, grad_b


@dataclass
class TrainConfig:
    """Trainer settings for the full-batch gradient-descent fit; the run seed is
    ``features.seed``."""

    features: FeatureConfig = field(default_factory=FeatureConfig)
    learning_rate: float = 0.5
    epochs: int = 4


@dataclass
class TrainResult:
    model: ScoreModel
    state: RunningState
    h: np.ndarray
    losses: list


def _positive_rows(g: Graph, positives: PairBatch, cfg: FeatureConfig) -> list:
    """Raw feature rows per order of the training positives, built once per
    run, or none when ``features_fit_budget`` cannot show that they fit the
    walk-row budget."""
    if not features_fit_budget(g, positives.pairs, cfg.k_max):
        return []
    return [f.combined for f in cn_order_features_all(
        g, positives, cfg.k_max, exclude_endpoints=cfg.exclude_endpoints)]


def train_model(split: SplitResult, config: TrainConfig) -> TrainResult:
    """Fit alpha and the linear head by full-batch gradient descent.

    Negatives are resampled each epoch with a per-epoch seed derived from the
    run seed; features are rebuilt against the fresh sample, then the inner
    descent steps run on fixed arrays (the feature pipeline has no trainable
    parameters). The positives' raw walk features depend on the graph and
    the pairs alone, so they are built once per run and reused in every
    epoch, when they fit the walk-row budget; otherwise each batch walks
    them again. Normalization and the basis still run per batch, in the same
    order, so either way gives the same model and statistics.
    """
    if config.epochs < 1:
        raise ConfigError(f"epochs must be >= 1, got {config.epochs}")
    g = split.train_graph
    cfg = config.features
    if len(split.train) < 16:
        raise TrainingError(f"need >= 16 train positives, got {len(split.train)}")
    x = default_node_features(g, dim=cfg.feature_dim, seed=cfg.seed)
    h = propagate_features(g, x, cfg.depth)
    state = RunningState()
    rng = np.random.default_rng(cfg.seed)
    alpha = np.full(cfg.k_max, 0.1)
    head_w = np.full(h.shape[1], 0.1)
    head_b = 0.0
    losses = []
    pos = split.train.pairs
    pos_rows = _positive_rows(g, split.train, cfg)
    exclude = np.concatenate([split.train.pairs, split.valid.pairs, split.test.pairs])
    for epoch in range(config.epochs):
        neg_seed = int(rng.integers(0, 2**31 - 1))
        neg = sample_negatives(g, len(split.train), neg_seed, exclude=exclude)
        pairs = np.concatenate([pos, neg.pairs], axis=0)
        y = np.concatenate([np.ones(len(pos)), np.zeros(len(neg))])
        m, q = pair_features(g, pairs, h, cfg, state, training=True, known_rows=pos_rows)
        for _ in range(STEPS_PER_EPOCH):
            loss, g_alpha, g_w, g_b = logistic_loss_and_grads(
                alpha, head_w, head_b, m, q, y)
            if not math.isfinite(loss):
                raise TrainingError("training loss diverged")
            losses.append(loss)
            alpha = alpha - config.learning_rate * g_alpha
            head_w = head_w - config.learning_rate * g_w
            head_b = head_b - config.learning_rate * g_b
    model = ScoreModel(features=cfg, alpha=alpha, head_w=head_w, head_b=float(head_b))
    return TrainResult(model=model, state=state, h=h, losses=losses)


def model_scores(g: Graph, pairs: np.ndarray, model: ScoreModel,
                 state: RunningState, h: np.ndarray, cfg: FeatureConfig) -> np.ndarray:
    """Logits for a pair array, with the running statistics in ``state``
    frozen. (``pair_features`` with ``training=True`` accumulates them over
    a pair array instead.)"""
    m, q = pair_features(g, pairs, h, cfg, state, training=False)
    return _logits(model.alpha, model.head_w, model.head_b, m, q)
