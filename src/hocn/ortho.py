"""Cross-order redundancy removal.

Streaming Gram-Schmidt over mini-batches with running (simple-moving-average)
Frobenius inner products, an exact full-graph orthogonalizer in coefficient
form used as their oracle at any scale the walk-row budget admits, and the
polynomial-filter variant (OCNP) that trades exact orthogonality for a
per-node diagonal rescaling by a Chebyshev polynomial of the first kind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from numpy.polynomial import Chebyshev

from .errors import ConfigError
from .features import OrderFeatures, slice_keys, walk_row_sums
from .graph import Graph

DEGENERATE_NORM = 1e-12


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    """x . y of 1-D arrays, without BLAS: OpenBLAS splits a long dot product
    by thread, so its rounding would depend on the BLAS thread count, and
    its threads spin on after the call."""
    return float(np.einsum("i,i->", x, y))


def frobenius_inner(a, b) -> float:
    if sp.issparse(a) and sp.issparse(b):
        return float(a.multiply(b).sum())
    return _dot(np.ravel(a), np.ravel(b))


def frobenius_norm(a) -> float:
    """Frobenius norm from the stored values. A sparse ``a`` must hold no
    duplicate entries: feature matrices are canonical CSR (see
    ``hocn.features``), and scipy's sums and scalings of them stay so."""
    data = a.tocsr().data if sp.issparse(a) else np.asarray(a).ravel()
    return float(np.sqrt(_dot(data, data)))


@dataclass
class RunningState:
    """Running statistics shared by the orthogonalizer and the normalizer.

    ``t`` counts completed Gram-Schmidt batches; ``xi_hat[(k, i)]`` is the
    running inner product of CN^k with OCN^i; ``psi_hat[k]`` the running
    per-node walk-participation column sums with its own batch counter
    ``psi_t[k]``. With the 1/(t+1) gains both runs equal the arithmetic mean
    of the per-batch values. ``ScoreModel.save`` writes them to the model
    file with the coefficients they were trained with.
    """

    t: int = 0
    xi_hat: dict = field(default_factory=dict)
    psi_hat: dict = field(default_factory=dict)
    psi_t: dict = field(default_factory=dict)


@dataclass
class OrthoBasis:
    """OCN^1..OCN^K matrices for one batch; each unit Frobenius norm or degenerate."""

    matrices: list
    degenerate: list

    def matrix(self, k: int):
        return self.matrices[k - 1]


def _combined_list(feats):
    out = []
    for k, f in enumerate(feats, start=1):
        if isinstance(f, OrderFeatures):
            if f.order != k:
                raise ConfigError("orders must be contiguous from 1")
            out.append(f.combined)
        else:
            out.append(f)
    return out


def gram_schmidt_batch(feats, state: RunningState, training: bool = True) -> OrthoBasis:
    """One batch of streaming Gram-Schmidt.

    ``feats`` is a sequence of combined CN^k matrices for orders 1..K, all
    sparse or all dense. OCN^1 is CN^1 Frobenius-normalized; for k >= 2 the
    running inner products are (in training mode) first updated with gain
    1/(t+1) against this batch's OCN^i, then CN^k - sum_i xi_hat^i OCN^i is
    normalized. The projection sum_i xi_hat^i OCN^i, whose support is that
    of the lower orders, is formed first, so each order allocates one
    residual, which is scaled in place. Near-zero residuals are emitted as
    zero matrices flagged degenerate.
    """
    mats = _combined_list(feats)
    if not mats:
        raise ConfigError("need at least one order")
    basis: list = []
    degenerate: list[bool] = []
    beta = 1.0 / (state.t + 1)
    for k, cn in enumerate(mats, start=1):
        projection = None
        for i in range(1, k):
            if training:
                xi_batch = frobenius_inner(cn, basis[i - 1])
                prev = state.xi_hat.get((k, i), 0.0)
                state.xi_hat[(k, i)] = (1.0 - beta) * prev + beta * xi_batch
            term = state.xi_hat.get((k, i), 0.0) * basis[i - 1]
            projection = term if projection is None else projection + term
        residual = cn.astype(np.float64) if projection is None else cn - projection
        norm = frobenius_norm(residual)
        degenerate.append(norm < DEGENERATE_NORM)
        residual *= 0.0 if degenerate[-1] else 1.0 / norm
        basis.append(residual)
    if training:
        state.t += 1
    return OrthoBasis(matrices=basis, degenerate=degenerate)


@dataclass
class ExactOrthoBasis:
    """Full-graph orthogonal basis in coefficient form.

    OCN^k = sum_j coeffs[k-1, j-1] * CN^j over the all-pairs batch. The Gram
    matrix of the raw CN^k matrices is kept so inner products of arbitrary
    combinations are exact without forming any (P, n) matrix.
    """

    gram: np.ndarray
    coeffs: np.ndarray
    degenerate: list

    def inner(self, a: int, b: int) -> float:
        """Frobenius inner product <OCN^a, OCN^b> over the all-pairs batch."""
        return float(self.coeffs[a - 1] @ self.gram @ self.coeffs[b - 1])

    def cn_ocn_inner(self, k: int, i: int) -> float:
        """<CN^k, OCN^i>: the exact counterpart of the running xi."""
        return float(self.gram[k - 1] @ self.coeffs[i - 1])


def _all_pairs_gram(g: Graph, k_max: int, exclude_endpoints: bool) -> np.ndarray:
    """K x K Gram matrix <CN^a, CN^b> over all unordered pairs, in closed
    form from D_m = diag(A^m) of ``walk_row_sums``. Entry c of CN^a(u, v)
    sums A^i[u, c] A^j[c, v] over the slices (i, j) of order a, so over all
    ordered pairs two slices (i, j), (p, q) add D_{i+p}[c] D_{j+q}[c], less
    ``loop_gram`` for u = v. Excluded endpoints drop D_i D_p (D_{j+q} -
    D_j D_q) at c = u of the pairs u != v, and as much at c = v. Integer
    walk counts keep it exact while sums stay below 2^53. Built once per
    graph, k_max and endpoint setting, read-only."""
    def build() -> np.ndarray:
        diag, loop_gram = walk_row_sums(g, k_max, loop_gram=True)
        slices = [slice_keys(a) for a in range(1, k_max + 1)]
        gram = np.empty((k_max, k_max))
        for a in range(k_max):
            for b in range(a + 1):
                terms = [(i, j, p, q) for i, j in slices[a] for p, q in slices[b]]
                total = (sum(_dot(diag[i + p], diag[j + q]) for i, j, p, q in terms)
                         - loop_gram[a, b])
                if exclude_endpoints:
                    total -= 2.0 * sum(_dot(diag[i] * diag[p], diag[j + q] - diag[j] * diag[q])
                                       for i, j, p, q in terms)
                gram[a, b] = gram[b, a] = total / 2.0
        gram.flags.writeable = False
        return gram

    return g.memoized(("all_pairs_gram", k_max, bool(exclude_endpoints)), build)


def full_graph_orthogonalize(g: Graph, k_max: int,
                             exclude_endpoints: bool = False) -> ExactOrthoBasis:
    """Exact Gram-Schmidt over the batch of all unordered pairs, in
    coefficient space from the Gram matrix of ``_all_pairs_gram``; the
    convergence oracle for the streaming mode. No pair is enumerated, and
    the walk-row budget's ScaleError is the only scale limit."""
    gram = _all_pairs_gram(g, k_max, exclude_endpoints)
    coeffs = np.zeros((k_max, k_max))
    degenerate = []
    for k in range(k_max):
        c = np.eye(k_max)[k]
        for i in range(k):  # a degenerate order has zero coefficients
            c = c - float(gram[k] @ coeffs[i]) * coeffs[i]
        norm = math.sqrt(max(float(c @ gram @ c), 0.0))
        degenerate.append(norm < DEGENERATE_NORM)
        coeffs[k] = 0.0 if degenerate[-1] else c / norm
    return ExactOrthoBasis(gram=gram, coeffs=coeffs, degenerate=degenerate)


def polynomial_weights(k: int, x) -> np.ndarray:
    """Chebyshev polynomial T_k evaluated elementwise on x clamped to [-1, 1]."""
    if k < 0:
        raise ConfigError("polynomial order must be >= 0")
    return Chebyshev.basis(k)(np.clip(np.asarray(x, dtype=np.float64), -1.0, 1.0))


def degree_filter_argument(g: Graph) -> np.ndarray:
    """Default per-node filter argument: degree mapped affinely onto [-1, 1]."""
    d_max = int(g.degrees.max()) if g.n else 1
    if d_max == 0:
        return np.full(g.n, -1.0)
    return 2.0 * g.degrees / d_max - 1.0


def apply_polynomial_filter(feats: OrderFeatures, weights: np.ndarray) -> OrderFeatures:
    """Scale column c of every matrix by weights[c] (the OCNP diagonal filter)."""
    weights = np.asarray(weights, dtype=np.float64)
    n = feats.combined.shape[1]
    if weights.shape[0] != n:
        raise ConfigError(f"weight length {weights.shape[0]} != node count {n}")
    return feats.scale_columns(weights)
