"""Random-graph generators, closed-form distance-bound evaluators, and the
Monte-Carlo validation of the latent-space bounds.

The latent model places nodes uniformly on a unit-volume D-torus and links
pairs within radius r (step connection function), so the expected degree is
exactly N V(1) r^D with no boundary corrections. The Barabasi-Albert
generator attaches each arriving node to m degree-proportional draws (with
replacement, duplicates collapsed). Bound evaluators are deterministic pure
functions; a latent bound is a float, or None (not NaN) where it is vacuous.
Only the latent bounds have a Monte-Carlo check: they bound a latent
distance that the model samples, and the BA model has no such distance to
test against.

The Monte-Carlo trials stay dense on purpose. A latent graph that makes the
bound non-vacuous is dense (n=500, D=2, r=0.45 has density 0.64, mean degree
318 of 499), so each trial works on n x n arrays. Each validate_bound run
allocates one set of them and every trial it runs writes into that set with
``out=``, so trials after the first allocate no n x n memory.
The distances are one pass over the coordinates in row blocks whose work
buffers stay in cache. The radius mask, kept beside the graph, is the
adjacency; the graph's CSR arrays are read off it on first read, which no
trial does. The pair pick needs only which pairs a 2k-step
walk joins. That is the nonzero pattern of A^k (A^k)^T, found from float32
0/1 products with each A^l clamped to 1; every term is non-negative, so the
pattern is exact in any precision and summation order. The pair is located
from per-row counts of the eligible upper-triangle entries. Only its walk
count is taken exactly, as (A^k e_i).(A^k e_j): two columns of A and k - 1
float64 products with A, cast one row block at a time; the normalized
bound reads the pair's common neighbors at order k off the same columns.
A sample or a run whose n x n arrays would exceed a fixed byte budget
raises ScaleError before it allocates any of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import BoundDomainError, InputError, ScaleError
from .features import _CPUS, walk_map
from .graph import Graph

INV_E = math.exp(-1.0)


# ---------------------------------------------------------------------------
# special functions


def unit_ball_volume(dim: int) -> float:
    """Volume of the unit-radius ball in `dim` dimensions."""
    return math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)


def log_double_factorial_ratio(n: int) -> float:
    """log of (2n+1)!! / (2^n n!), evaluated via log-gamma."""
    return (math.lgamma(2 * n + 2) - 2 * n * math.log(2.0)
            - 2.0 * math.lgamma(n + 1))


def lambert_w(x: float) -> float:
    """Principal branch of the real Lambert W, from ``scipy.special.lambertw``.

    Needs x >= -1/e (to 1e-15). scipy gives nan at the branch point
    x = -1/e itself, where W is -1.
    """
    if x < -INV_E - 1e-15:
        raise BoundDomainError(f"x={x} below -1/e")
    if abs(x + INV_E) < 1e-300:
        return -1.0
    # Imported on first use: loading scipy.special takes about 0.14 s, which
    # every `import hocn` (every command-line run) would otherwise pay.
    from scipy.special import lambertw

    return float(lambertw(x).real)


# ---------------------------------------------------------------------------
# graph models


@dataclass(frozen=True)
class LatentModelParams:
    """Unit-volume D-torus geometric model with one shared radius."""

    n: int
    dim: int
    radius: float
    seed: int = 0

    def __post_init__(self):
        if self.n < 2 or self.dim < 1:
            raise InputError("need n >= 2 and dim >= 1")
        r_max = (1.0 / unit_ball_volume(self.dim)) ** (1.0 / self.dim)
        if not 0.0 < self.radius < r_max:
            raise InputError(f"radius must lie in (0, {r_max:.4f})")


# Entries per work buffer of torus_distances: two buffers of 256 KiB of
# float64 stay in a 2 MiB L2 cache.
_BLOCK_ENTRIES = 1 << 15

# Bytes of n x n arrays that one sample_latent_model or validate_bound call
# may hold at once; above it the call raises ScaleError before it allocates.
# The largest run of the tests and demos, n = 500 with threads=4, needs <= 21 MB.
_BUFFER_BUDGET = 1 << 31


def _block_rows(n: int) -> int:
    return min(max(1, _BLOCK_ENTRIES // n), n)


def _check_buffer_bytes(nbytes: int, what: str) -> None:
    if nbytes > _BUFFER_BUDGET:
        raise ScaleError(f"{what} needs {nbytes / 2 ** 30:.2f} GiB of n x n arrays, "
                         f"above the {_BUFFER_BUDGET / 2 ** 30:.0f} GiB budget")


def torus_distances(positions: np.ndarray, out: np.ndarray | None = None,
                    blocks: np.ndarray | None = None) -> np.ndarray:
    """Pairwise wrap-around Euclidean distances on the unit torus.

    Squared per-coordinate gaps accumulate into the output, coordinate by
    coordinate, one block of rows at a time, so no (n, n, D) array is built
    and the work buffers stay in cache. The result is exactly symmetric
    with a zero diagonal. For D <= 7 it equals, bit for bit, the sum of the
    (n, n, D) broadcast along its last axis, which numpy adds in order below
    8 terms. From 8 terms numpy sums that axis pairwise; for D = 8..12 the
    two agree to within 4e-16 relative.

    ``out``, an (n, n) float64 array, receives the result and ``blocks``, a
    (2, rows, n) float64 array with rows = min(max(1, 2^15 // n), n), holds
    the work buffers; each is allocated when not given. Neither needs to be
    clean: every entry is written before it is read.
    """
    n = positions.shape[0]
    total = np.empty((n, n)) if out is None else out
    rows = _block_rows(n)
    gap_buf, wrap_buf = np.empty((2, rows, n)) if blocks is None else blocks
    for start in range(0, n, rows):
        block = total[start:start + rows]
        gap, wrap = gap_buf[:len(block)], wrap_buf[:len(block)]
        for c, coord in enumerate(positions.T):
            np.subtract(coord[start:start + rows, None], coord[None, :], out=gap)
            np.abs(gap, out=gap)
            np.subtract(1.0, gap, out=wrap)
            np.minimum(gap, wrap, out=gap)
            if c:
                np.multiply(gap, gap, out=gap)
                block += gap
            else:
                np.multiply(gap, gap, out=block)
    return np.sqrt(total, out=total)


@dataclass(frozen=True)
class LatentSample:
    positions: np.ndarray
    distances: np.ndarray
    params: LatentModelParams
    adjacency: np.ndarray  # n x n bool radius mask, diagonal False

    @cached_property
    def graph(self) -> Graph:
        """The radius graph, built from ``adjacency`` on first read.

        Its rows are the sorted, duplicate-free neighbor lists, and it is
        symmetric because the distances are. The CSR arrays are copies, so
        the graph stays valid when the mask is overwritten.
        """
        n = self.params.n
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.count_nonzero(self.adjacency, axis=1), out=indptr[1:])
        indices = np.flatnonzero(self.adjacency) % n
        return Graph(n=n, indptr=indptr, indices=indices, degrees=np.diff(indptr))


def sample_latent_model(params: LatentModelParams,
                        out: _TrialBuffers | None = None) -> LatentSample:
    """Sample positions and the induced radius graph, keeping the geometry.

    Without ``out`` the distances and the radius mask are new arrays, and a
    ``ScaleError`` is raised first when they would exceed the buffer budget.
    With ``out`` (validate_bound's per-worker buffers) they are written into
    its arrays, so the sample is valid only until the next call with it.
    """
    n = params.n
    if out is None:
        _check_buffer_bytes(9 * n * n, f"sample_latent_model at n={n}")  # distances + mask
    positions = np.random.default_rng(params.seed).random((n, params.dim))
    if out is None:
        dist = torus_distances(positions)
        mask = dist <= params.radius
    else:
        dist = torus_distances(positions, out.distances, out.blocks)
        mask = np.less_equal(dist, params.radius, out=out.adjacency)
    np.fill_diagonal(mask, False)
    return LatentSample(positions=positions, distances=dist, params=params, adjacency=mask)


def sample_ba_graph(n: int, m: int, seed: int = 0) -> Graph:
    """Preferential attachment with replacement; duplicate draws collapse."""
    if not n > m >= 1:
        raise InputError("need n > m >= 1")
    rng = np.random.default_rng(seed)
    # Degree-proportional sampling draws a uniform entry of ``ends``: [0, 1, 1, 0]
    # for the seed edge (0, 1), then v, w per edge (v, w), so ends[2:] holds the edges.
    ends = np.empty(4 + 2 * m * (n - 2), dtype=np.int64)
    ends[:4] = (0, 1, 1, 0)
    size = 4
    for v in range(2, n):
        picks = {int(ends[rng.integers(0, size)]) for _ in range(m)}
        for w in picks:
            ends[size] = v
            ends[size + 1] = w
            size += 2
    return Graph.from_edges(n, ends[2:size].reshape(-1, 2))


# ---------------------------------------------------------------------------
# bound evaluators


@dataclass(frozen=True)
class BoundInputs:
    """Closed-form bound inputs; see field names for the quantities involved.

    ``steepness`` is the logistic sharpness of the connection function,
    distinct from the concentration quantity computed internally from
    (n, delta, k). ``max_degree`` only enters the normalized BA bound.
    """

    n: int
    delta: float
    k: int
    dim: int
    r_sum: float = 0.0
    r_m_max: float = 1.0
    eta_2k: float = 0.0
    zeta: int = 2
    rho: float = 0.5
    m: int = 1
    steepness: float = 1.0
    max_degree: int = 1

    def __post_init__(self):
        if self.n < 1 or self.dim < 1:
            raise InputError(f"need n >= 1 and dim >= 1, got n={self.n}, dim={self.dim}")
        if not 0.0 < self.delta < 1.0:
            raise InputError("delta must lie in (0, 1)")
        if self.k < 1:
            raise InputError("k must be >= 1")
        if self.eta_2k < 0:
            raise InputError("eta_2k must be >= 0")


def _concentration_terms(b: BoundInputs) -> tuple[float, float]:
    """(iota, alpha): normalized walk count and the Bernstein correction.
    Defined for delta <= 1/2 only, where log(1/(2 delta)) >= 0. A power of
    the walk-count divisor too large for a float makes iota 0, so the bound
    is vacuous."""
    n, delta, k = b.n, b.delta, b.k
    if delta > 0.5:
        raise BoundDomainError(f"the latent bounds need delta <= 1/2, got {delta}")
    alpha = math.sqrt(n * math.log(1.0 / (2.0 * delta)) / 2.0) / (
        n + math.sqrt(-3.0 * n * math.log(delta)))
    try:
        iota = b.eta_2k / (n - math.sqrt(-2.0 * n * math.log(delta))) ** (2 * k - 1)
    except OverflowError:
        iota = 0.0
    return iota, alpha


def bound_unnormalized(b: BoundInputs) -> float | None:
    """Latent-space distance bound from raw k-hop walk counts; None if vacuous."""
    iota, alpha = _concentration_terms(b)
    if iota <= alpha:
        return None
    term = (iota - alpha) ** (2.0 / (b.dim * (2 * b.k - 1)))
    radicand = b.r_m_max ** 2 - term
    if radicand < 0.0:
        return None
    return b.r_sum + 2.0 * math.sqrt(radicand)


def bound_normalized(b: BoundInputs) -> float | None:
    """Latent-space bound with the path-normalized contribution (k >= 2); None if vacuous."""
    if b.k < 2:
        raise BoundDomainError("normalized latent bound needs k >= 2")
    iota, alpha = _concentration_terms(b)
    gamma = iota - alpha
    if gamma <= 0.0:
        return None
    pair_count = b.zeta * (b.zeta - 1) / 2.0
    inner = (gamma * pair_count) ** (1.0 / (b.dim * (b.k - 1))) * b.rho ** b.n
    term = inner ** ((2.0 * b.k - 2.0) / (2.0 * b.k - 1.0))
    radicand = b.r_m_max ** 2 - term
    if radicand < 0.0:
        return None
    return b.r_sum + 2.0 * math.sqrt(radicand)


def _ba_shared_term(b: BoundInputs) -> float:
    """The geometric term shared by both BA bounds (log-space evaluation)."""
    ratio = math.exp(log_double_factorial_ratio(b.n))
    inner = (b.m * ratio + math.sqrt(b.n * b.m ** 2 / 2.0
                                     * math.log(1.0 / b.delta)))
    return (inner / (b.n * unit_ball_volume(b.dim))) ** (1.0 / b.dim)


def ba_bound_unnormalized(b: BoundInputs) -> float:
    """Barabasi-Albert distance bound, affine through the origin in k."""
    if b.steepness <= 0.0:
        raise BoundDomainError("steepness must be > 0")
    ratio = math.exp(log_double_factorial_ratio(b.n))
    arg = 2.0 * (b.n - 2) / (ratio + math.sqrt(b.n * math.log(1.0 / b.delta)) / 4.0) - 1.0
    if arg <= 0.0:
        raise BoundDomainError("log argument <= 0")
    return 2.0 * b.k * (math.log(arg) / b.steepness + _ba_shared_term(b))


def ba_bound_normalized(b: BoundInputs, n_inner: int) -> float:
    """Barabasi-Albert bound after normalization (needs the Lambert W)."""
    if b.steepness <= 0.0:
        raise BoundDomainError("steepness must be > 0")
    if not 2 < n_inner < b.n - 1:
        raise BoundDomainError("n_inner must lie strictly between 2 and n-1")
    pair_count = b.zeta * (b.zeta - 1) / 2.0
    if pair_count <= 0:
        raise BoundDomainError("zeta must be >= 2")
    denom = b.eta_2k - b.max_degree ** (2 * b.k - 2) * math.sqrt(
        b.n * math.log(1.0 / b.delta)) / 4.0
    if denom <= 0.0:
        raise BoundDomainError("walk count too small for the concentration term")
    c_const = (1.0 / pair_count) * b.max_degree ** (2 * b.k - 1) / denom
    r_factor = (b.n - n_inner - 1) / (n_inner - 2)
    w_arg = -r_factor * c_const ** (1.0 / (n_inner - 2))
    if w_arg < -INV_E:
        raise BoundDomainError(f"Lambert W argument {w_arg:.6g} below -1/e")
    w_val = lambert_w(w_arg)
    inner = -w_val / r_factor
    if not 0.0 < inner < 1.0:
        raise BoundDomainError(f"inner Lambert term {inner:.6g} outside (0, 1)")
    log_arg = inner ** (-1.0 / b.k) - 1.0
    if log_arg <= 0.0:
        raise BoundDomainError("log argument <= 0")
    return 2.0 * b.k * (math.log(log_arg) / b.steepness + _ba_shared_term(b))


# ---------------------------------------------------------------------------
# Monte-Carlo validation


@dataclass(frozen=True)
class ViolationReport:
    model: str
    bound: str
    k: int
    delta: float
    trials: int
    eligible: int
    violations: int
    mean_slack: float

    @property
    def violation_fraction(self) -> float:
        return self.violations / self.eligible if self.eligible else float("nan")


class _TrialBuffers:
    """One validate_bound run's arrays for latent trials of size n and
    order k, allocated once per call and overwritten by every trial."""

    def __init__(self, n: int, k: int):
        self.blocks = np.empty((2, _block_rows(n), n))
        self.distances = np.empty((n, n))
        self.adjacency = np.empty((n, n), dtype=bool)
        self.products = np.empty((_product_planes(k), n, n), dtype=np.float32)
        self.eligible = np.empty((n, n), dtype=bool)
        self.upper = np.less.outer(np.arange(n), np.arange(n))  # i < j

    @staticmethod
    def nbytes(n: int, k: int) -> int:
        """Bytes of one set, known before any array exists."""
        return 16 * _block_rows(n) * n + (11 + 4 * _product_planes(k)) * n * n


def _product_planes(k: int) -> int:
    """float32 n x n planes _pick_pair needs: A, and the clamped powers A^l,
    which alternate between two more planes from k = 3 on. A^k (A^k)^T then
    overwrites A, or at k = 1 the one other plane."""
    return 2 if k <= 2 else 3


def _pick_pair(adjacency: np.ndarray, k: int, seed: int, buffers: _TrialBuffers):
    """A pair i < j drawn uniformly among those joined by a 2k-step walk
    (k >= 1), as (i, j, walk count, columns); None if there is none.

    ``adjacency`` is the n x n bool adjacency matrix of an undirected graph.
    A 2k-step walk joins i and j exactly when (A^k (A^k)^T)[i, j] > 0. Its
    pattern comes from float32 0/1 products, each A^l clamped to 1, whose
    terms are all non-negative, so a positive sum is never lost. The pair is
    located from per-row counts of eligible pairs, in the row-major order of
    np.triu_indices. The count, (A^k e_i).(A^k e_j), is a sum of
    non-negative integers and exact in float64 below 2^53; A is cast to
    float64 one row block at a time. The columns are the (n, 2) arrays
    (R_{k-1} e_i, R_{k-1} e_j) and (R_k e_i, R_k e_j), R_l = A^l, that it
    forms on the way. ``buffers``, a set for this n and k, holds every
    n x n array; what it held before is overwritten.
    """
    n = adjacency.shape[0]
    adj, *spare = buffers.products
    np.copyto(adj, adjacency)
    reach = adj
    for step in range(k - 1):
        nxt = spare[step % 2]
        np.matmul(reach, adj, out=nxt)
        np.minimum(nxt, 1.0, out=nxt)
        reach = nxt
    walks = spare[0] if reach is adj else adj
    np.matmul(reach, reach.T, out=walks)
    eligible = np.greater(walks, 0.0, out=buffers.eligible)
    eligible &= buffers.upper
    counts = np.count_nonzero(eligible, axis=1)
    ends = np.cumsum(counts)
    total = int(ends[-1])
    if total == 0:
        return None
    pick = int(np.random.default_rng(seed + 1).integers(0, total))
    i = int(np.searchsorted(ends, pick, side="right"))
    j = int(np.flatnonzero(eligible[i])[pick - (ends[i] - counts[i])])
    prev = np.zeros((n, 2))
    prev[[i, j], [0, 1]] = 1.0
    cols = adjacency[:, [i, j]].astype(np.float64)
    block = buffers.blocks[0]
    for _ in range(k - 1):
        prev, cols = cols, np.empty_like(cols)
        for start in range(0, n, len(block)):
            part = block[:n - start]
            np.copyto(part, adjacency[start:start + len(part)])
            np.matmul(part, prev, out=cols[start:start + len(part)])
    return i, j, float(cols[:, 0] @ cols[:, 1]), (prev, cols)


def _cn_members(i: int, j: int, columns) -> np.ndarray:
    """The nodes c outside {i, j} with a positive order-k combined count,
    R_k[i] R_k[j] + R_{k-1}[i] R_k[j] + R_k[i] R_{k-1}[j] at c, from the
    walk columns of ``_pick_pair``: ``features.cn_set`` of the pair with its
    endpoints excluded, without building the graph or walking it."""
    prev, cols = columns
    counts = cols[:, 0] * cols[:, 1] + prev[:, 0] * cols[:, 1] + cols[:, 0] * prev[:, 1]
    counts[[i, j]] = 0.0
    return np.flatnonzero(counts > 0)


def _latent_trial(params: LatentModelParams, bound_kind: str, k: int,
                  delta: float, seed: int, buffers: _TrialBuffers):
    sample = sample_latent_model(replace(params, seed=seed), out=buffers)
    picked = _pick_pair(sample.adjacency, k, seed, buffers)
    if picked is None:
        return None
    i, j, eta, columns = picked
    if bound_kind == "unnormalized":
        bound, extra = bound_unnormalized, {}
    else:
        members = _cn_members(i, j, columns)
        zeta = int(np.count_nonzero(sample.adjacency[members], axis=1).max(initial=2))
        rho = 0.5 ** (1.0 / (params.dim * (k - 1)))
        bound, extra = bound_normalized, dict(zeta=max(zeta, 2), rho=rho)
    # The guarantee asserts the existence of a split index along the
    # witnessing walk.  With uniform radius r a split at position M leaves
    # M - 1 whole-radius hops plus a ball of radius (2k - M) r, so the
    # effective bound is the best value over M in {1, ..., 2k - 1}.
    r = params.radius
    values = (bound(BoundInputs(n=params.n, delta=delta, k=k, dim=params.dim,
                                r_sum=(split - 1) * r, r_m_max=(2 * k - split) * r,
                                eta_2k=eta, **extra))
              for split in range(1, 2 * k))
    best = max((v for v in values if v is not None), default=None)
    if best is None:
        return None
    d_ij = float(sample.distances[i, j])
    return best - d_ij  # slack; negative means violation


def validate_bound(model: str, params, bound_kind: str, k: int, delta: float,
                   trials: int, seed: int, threads: int = 1) -> ViolationReport:
    """Monte-Carlo check that the stated latent bound fails at most a delta
    fraction of the time.

    Each trial samples a latent graph, picks a random pair with positive
    2k-walk count, evaluates the bound against the pair's latent distance,
    and counts violations among non-vacuous cases. ``model`` must be
    "latent", the one model with a distance to check, ``bound_kind``
    "unnormalized" or "normalized" (k >= 2) and ``delta`` at most 1/2; every
    input is checked before the first trial. Trial t draws from seed
    ``seed + 1000 t``, so the report does not depend on ``threads``. The
    trials are cut into workers = min(threads, trials, CPUs) consecutive
    runs, mapped by ``features.walk_map`` (one run stays on the calling
    thread); each run reuses one set of n x n buffers for all of its
    trials, and ``ScaleError`` is raised first when ``workers`` sets would
    exceed the buffer budget.
    """
    if trials < 100:
        raise InputError("need at least 100 trials")
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    if model != "latent":
        raise InputError(f"unknown model {model!r}")
    if bound_kind not in ("unnormalized", "normalized"):
        raise InputError(f"unknown bound kind {bound_kind!r}")
    if bound_kind == "normalized" and k < 2:
        raise InputError(f"the normalized bound needs k >= 2, got {k}")
    if not 0.0 < delta < 1.0:
        raise InputError(f"delta must lie in (0, 1), got {delta}")
    if delta > 0.5:
        raise InputError(f"the latent bounds need delta <= 1/2, got {delta}")
    if threads < 1:
        raise InputError(f"threads must be >= 1, got {threads}")
    workers = min(threads, trials, _CPUS)
    _check_buffer_bytes(workers * _TrialBuffers.nbytes(params.n, k),
                        f"validate_bound at n={params.n}, k={k}, threads={threads}")

    def run(start, stop):
        buffers = _TrialBuffers(params.n, k)
        return [_latent_trial(params, bound_kind, k, delta, seed + 1000 * t, buffers)
                for t in range(start, stop)]

    cuts = [w * trials // workers for w in range(workers + 1)]
    slacks = [s for part in walk_map(run, cuts, workers) for s in part]
    valid = [s for s in slacks if s is not None]
    violations = sum(1 for s in valid if s < 0)
    mean_slack = float(np.mean(valid)) if valid else float("nan")
    return ViolationReport(model=model, bound=bound_kind, k=k, delta=delta,
                           trials=trials, eligible=len(valid),
                           violations=violations, mean_slack=mean_slack)
