"""High-order common-neighbor count matrices, with their walk-length slices
on request.

For a pair (u, v) and order k, entry c of slice (k1, k2) counts walks of
length k1 from u to c times walks of length k2 from c to v, i.e. the number
of (k1 + k2)-length u-v walks through c. The three slices (k, k), (k-1, k)
and (k, k-1) cover lengths 2k and 2k-1; their sum is the combined count
CN^k(u, v), the feature the model reads.

The combined count takes one elementwise product. With R_l the rows A^l[u]
and S_k = R_{k-1}(A + I) = R_k + R_{k-1},

    CN^k = S_k[u] * S_k[v] - R_{k-1}[u] * R_{k-1}[v],

and every term is an integer walk count. Walk rows and their products are
held as integers, int32 wherever the walk totals prove the counts fit
(``_count_dtype``), and the features and slices hand the exact counts out
as float64, so the result equals the sum of the three slices bit for bit.
A batch's features therefore never form a slice; ``OrderFeatures.slices``
builds them on first access, by three explicit products each.

Every matrix is a (batch, n) scipy CSR matrix in canonical format: each
row's column indices are sorted and unique. So a pair's row, stored order
included, is the same whichever other pairs share its batch. Walk rows come
from repeated sparse row-times-matrix products, so computing features
allocates no batch x n dense storage. They are left unsorted; each product
is sorted instead, since it is far smaller than the rows it comes from.

Walk rows are indexed by position, not by node id: the positions of one
breadth-first order of the graph (``_walk_order``), in which neighbors sit
near each other. scipy's kernels scatter each row into n-length arrays
indexed by column, so on a BA graph, whose ids carry no locality, this takes
about a quarter off a batch. Node ids go in as positions; each product's
columns are mapped back to node ids before it is sorted, and the n-length
results (the node blocks' diagonals, the walk totals and the rows of
``adj_power_row``) are put back in node order once, so nothing that leaves
this module depends on the order.

One walk-row class, ``_OrderRows``, serves the features, the slices,
``adj_power_row`` (R_k = S_k - R_{k-1}) and ``walk_row_sums``, the one
all-pairs pass behind exact participation and the exact Gram matrix. A
batch is walked in sub-chunks of pairs, and that pass in blocks of nodes,
sized by the per-node bound ``_walk_nnz_bound`` of the walk rows they hold.
That bound, the type of the walk counts (per order), the walk order and
the step A + I of the walk rows, built in that order's positions, depend on
the graph alone, so they are built once per graph (``Graph.memoized``), in
the calling thread: the walk order's hooking passes scatter nothing edge
by edge, and A + I's index arrays are built in their final type. The walk
totals A^l·1 behind the bound and the type come from one recurrence,
``walk_totals``, which exact participation reads too. One map,
``walk_map``, runs the sub-chunks of the features and of the slices
and the node blocks alike. Every run holds at most one share of
``_NNZ_BUDGET``, its walk rows and the scratch of a product, the same on
every machine, so the cuts, and with them the order in which
``walk_row_sums`` adds up its node blocks, do not depend on the worker
count. The runs go ``_WORKERS`` at a time on a thread pool (scipy's sparse
kernels release the GIL), or on the calling thread when there is only one.
``theory.validate_bound`` maps its trial runs on it too, with its own worker
count.

The same bound tells, before any row is built, whether a pair array's rows
of all orders surely fit ``_NNZ_BUDGET`` (``features_fit_budget``, which
decides whether training keeps its positives' rows across epochs).
"""

from __future__ import annotations

import os
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, InputError, ScaleError
from .graph import Graph, PairBatch

# Walk-row entries that the runs of walk_map in flight at once may hold, by
# the per-node bound of _walk_nnz_bound, counting the scratch of a product
# as much again (about 32 MB of int32 CSR data and indices); one pair or
# node may cost up to all of it.
_NNZ_BUDGET = 1 << 22

# Walk-row runs in flight at once, at most, on any machine: it caps
# _WORKERS, and every run's share of _NNZ_BUDGET is cut for this many.
_MAX_RUNS = 2

# Walk counts below this fit int32 (see _count_dtype).
_INT32_LIMIT = 1 << 31

# CPUs this process may run on; no walk_map caller asks for more threads.
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

# Threads of walk_map; they size the pool only, never a run.
_WORKERS = min(_MAX_RUNS, _CPUS)


@dataclass
class OrderFeatures:
    """Per-order count matrices for one batch of pairs of ``graph``.

    ``combined`` is the (h, n) float64 CSR matrix of combined counts, column
    scaled when ``scaled``. ``slices`` maps (k1, k2) -> (h, n) float64 CSR
    matrix of raw counts, whose sum is ``combined``; it is built on first
    access, not from the walk rows that formed ``combined``, and then kept.
    Scaled features keep no slices: reading them is a ConfigError. Every
    matrix is canonical (sorted, unique column indices per row), and
    ``scale_columns`` keeps it so.
    """

    order: int
    pairs: np.ndarray
    combined: sp.csr_matrix
    graph: Graph = field(repr=False)
    exclude_endpoints: bool = False
    scaled: bool = False
    _slices: dict | None = field(default=None, init=False, repr=False)

    @property
    def batch_size(self) -> int:
        return self.pairs.shape[0]

    @property
    def slices(self) -> dict:
        if self.scaled:
            raise ConfigError("scaled features keep no slices; read those of the raw features")
        if self._slices is None:
            self._slices = _explicit_slices(self.graph, self.pairs, self.order,
                                            self.exclude_endpoints)
        return self._slices

    def scale_columns(self, weights: np.ndarray) -> "OrderFeatures":
        """Scaled copy, without slices, whose column c of ``combined`` is
        multiplied by weights[c]; entries whose weight is 0 are dropped."""
        return replace(self, combined=_scale_columns(self.combined, weights), scaled=True)


def _scale_columns(mat: sp.csr_matrix, weights: np.ndarray) -> sp.csr_matrix:
    data = mat.data * weights[mat.indices]
    if data.all():
        # Nothing to drop, so the scaled matrix shares the index arrays. They
        # are made read-only: neither matrix may then rewrite the other's.
        for array in (mat.indices, mat.indptr):
            array.flags.writeable = False
        return sp.csr_matrix((data, mat.indices, mat.indptr), shape=mat.shape)
    # The index arrays are copied: eliminate_zeros prunes them in place, and
    # the scaled matrix must not rewrite the raw one.
    out = sp.csr_matrix((data, mat.indices.copy(), mat.indptr.copy()), shape=mat.shape)
    out.eliminate_zeros()
    return out


class _OrderRows:
    """Rows R_{k-1} = A^{k-1} and S_k = A^{k-1}(A + I) for a list of nodes,
    for one order k at a time, moving forward.

    ``loops`` is A + I in the positions of ``_walk_order``, and ``nodes``
    and the rows' columns are positions too; the rows take the dtype of
    ``loops`` (``_walk_steps``). S_1 is the nodes' rows of A + I, and R_1
    is S_1 without its loop entries. Then R_{k-1} = S_{k-1} - R_{k-2} and
    S_k = R_{k-1}(A + I), one product per order. Only the current R_{k-1}
    and S_k are kept; R_0, the identity rows, is stored only when
    ``powers`` returns it.
    """

    def __init__(self, loops: sp.csr_matrix, nodes: np.ndarray):
        self.loops = loops
        self.nodes = nodes
        self.order = 0
        self.prev = None
        self.step = None

    def at(self, k: int) -> tuple[sp.csr_matrix | None, sp.csr_matrix]:
        """(R_{k-1}, S_k); R_0 is returned as None."""
        if k < max(self.order, 1):
            raise ConfigError(f"walk rows are at order {self.order}, cannot serve order {k}")
        while self.order < k:
            if self.order == 0:
                self.step = self.loops[self.nodes]
            else:
                rows = self._power()
                self.prev = self.step = None  # released before the product
                self.prev, self.step = rows, rows @ self.loops
            self.order += 1
        return self.prev, self.step

    def powers(self, k: int) -> tuple[sp.csr_matrix, sp.csr_matrix]:
        """(R_{k-1}, R_k), the rows of A^{k-1} and A^k; R_0 is the identity
        rows. The last call on these rows: at k = 1 it turns S_1 into R_1."""
        prev, _ = self.at(k)
        if prev is None:
            prev = sp.identity(self.loops.shape[0], dtype=self.loops.dtype,
                               format="csr")[self.nodes]
        return prev, self._power()

    def _power(self) -> sp.csr_matrix:
        """R_k = S_k - R_{k-1} at the current order k; R_1 is S_1 with its
        loop entries dropped in place."""
        if self.prev is None:
            _drop_row_columns(self.step, self.nodes[:, None])
            return self.step
        return self.step - self.prev


def _walk_order(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """(order, position): the node at each position of the walk rows, and
    the position of each node. Built once per graph, read-only.

    Components come in the order of their lowest node id, each in the
    queue order of a breadth-first search from that node that takes each
    node's neighbors by ascending id. Isolated nodes come last. In a BA
    graph node ids carry no locality; in this order neighbors sit near
    each other, so scipy's sparse kernels, which scatter into n-length
    arrays indexed by column, touch less memory per row.

    The lowest node of each component comes from hooking and shortcutting
    (FastSV, Zhang, Azad and Hu 2020): a few passes over the edges, whatever
    the number of components. Each pass takes every node's least grandparent
    among its neighbors with one reduction per row, and hooks with those
    n-length minima, so it scatters nothing edge by edge. Then one
    breadth-first search runs from all of them at once, level by level, and
    a stable sort by component puts each component's nodes together.
    """
    def build() -> tuple[np.ndarray, np.ndarray]:
        live = np.flatnonzero(g.degrees)
        root = np.arange(g.n)
        grand = root
        while live.size:
            near = np.minimum.reduceat(grand[g.indices], g.indptr[live])
            hooked = root.copy()
            np.minimum.at(hooked, root[live], near)
            root = np.minimum(hooked, grand)
            root[live] = np.minimum(root[live], near)
            grand, before = root[root], grand
            if np.array_equal(grand, before):
                break
        unseen = g.degrees > 0
        frontier = np.flatnonzero(unseen & (root == np.arange(g.n)))
        first = np.full(g.n, np.iinfo(np.int64).max)  # where its level first reaches a node
        levels = [frontier]
        while frontier.size:
            unseen[frontier] = False
            reached = g.indices[_row_entries(g, frontier)]
            reached = reached[unseen[reached]]
            sequence = np.arange(reached.size)
            np.minimum.at(first, reached, sequence)
            frontier = reached[first[reached] == sequence]
            levels.append(frontier)
        found = np.concatenate(levels)
        order = np.concatenate([found[np.argsort(root[found], kind="stable")],
                                np.flatnonzero(g.degrees == 0)])
        position = np.empty(g.n, dtype=np.int64)
        position[order] = np.arange(g.n)
        for array in (order, position):
            array.flags.writeable = False
        return order, position

    return g.memoized("walk_order", build)


def _row_entries(g: Graph, nodes: np.ndarray) -> np.ndarray:
    """Offsets into ``g.indices`` of the neighbor lists of ``nodes``, one
    list after the other."""
    counts = g.degrees[nodes]
    offsets = np.repeat(g.indptr[nodes] - np.cumsum(counts) + counts, counts)
    offsets += np.arange(offsets.size)
    return offsets


def _loop_adjacency(g: Graph) -> sp.csr_matrix:
    """A + I in int32, in the positions of ``_walk_order``: row p holds p,
    then the positions of node order[p]'s neighbors by ascending id. Built
    once per graph, straight from its CSR arrays, with read-only arrays,
    since every walk-row path shares it. scipy's kernels read rows in any
    column order. Its index arrays are built in int32 when their values fit,
    each neighbor list moved to its row by one scatter, so no int64 copy of
    the edges is made for scipy to narrow."""
    def build() -> sp.csr_matrix:
        order, position = _walk_order(g)
        index = np.int32 if g.indices.size + g.n <= np.iinfo(np.int32).max else np.int64
        indptr = np.zeros(g.n + 1, dtype=index)
        np.cumsum(g.degrees[order] + 1, out=indptr[1:])
        indices = np.empty(indptr[-1], dtype=index)
        indices[indptr[:-1]] = np.arange(g.n)
        # Entry e of node u's list goes to row position[u], after its loop.
        slots = np.repeat((indptr[position] + 1 - g.indptr[:-1]).astype(index), g.degrees)
        slots += np.arange(slots.size, dtype=index)
        indices[slots] = position.astype(index)[g.indices]
        loops = sp.csr_matrix((np.ones(indices.size, dtype=np.int32), indices, indptr),
                              shape=(g.n, g.n))
        for array in (loops.data, loops.indices, loops.indptr):
            array.flags.writeable = False
        return loops

    return g.memoized("loop_adjacency", build)


def _walk_steps(g: Graph, k: int) -> sp.csr_matrix:
    """A + I in the dtype that the walk rows of orders up to k take
    (``_walk_totals``): the shared int32 matrix, or a wider copy."""
    loops = _loop_adjacency(g)
    return loops.astype(_walk_totals(g, k)[1], copy=False)


def _count_dtype(peak) -> type:
    """The narrowest type that holds walk counts up to ``peak`` exactly:
    int32 below ``_INT32_LIMIT``, else int64 below 2^62 (a margin for
    totals summed in float64), else float64. scipy's integer sparse
    kernels wrap on overflow silently, so the type is proven first."""
    if peak < _INT32_LIMIT:
        return np.int32
    return np.int64 if peak < 2.0 ** 62 else np.float64


def _walk_nnz_bound(g: Graph, k_max: int) -> np.ndarray:
    """Per node u, sum over l = 0..k_max of min(w_l, n), with w_l = (A^l 1)[u].

    Row A^l[u] has one stored entry per node an l-walk from u reaches, so
    at most min(w_l, n): the bound covers the chain R_0..R_k_max. Row
    S_k[u] = A^{k-1}(A + I)[u] has one entry per node of X or N(X), X the
    nodes that (k-1)-walks from u reach. The edges at X connect those
    nodes (a walk to x, bounced back and forth along its own edges, shows
    each of its nodes is in X or N(X)), so there are at most one more of
    them than edges at X, sum over x in X of deg(x) <= w_k. With w_l not
    falling for l >= 1, the rows the features hold at once, R_{k-1} and
    S_k and, while it is formed, R_k, stay within the bound too. The
    slices of order k hold R_k as well: up to |R_{k-1}| + |R_k| more.

    The array is read-only; see ``_walk_totals``.
    """
    return _walk_totals(g, k_max)[0]


def _walk_totals(g: Graph, k_max: int) -> tuple[np.ndarray, type]:
    """(``_walk_nnz_bound``, dtype of the walk rows up to order k_max), from
    the walk totals w_l = A^l 1, l <= k_max, of ``walk_totals``: built once
    per graph and k_max.

    An entry of R_l[u] is at most w_l[u], and one of S_l[u] at most its
    row total (S_l 1)[u] = w_l[u] + w_{l-1}[u]. Every term is
    non-negative, so each partial sum scipy forms on the way to an entry,
    and each difference S_l - R_{l-1}, is at most that entry. The rows
    take ``_count_dtype`` of the largest of those totals.
    """
    def build() -> tuple[np.ndarray, type]:
        bound = np.ones(g.n, dtype=np.int64)
        peak = 1.0
        for _, walks, steps in walk_totals(g, k_max):
            peak = float(steps.max(initial=peak))
            bound += np.minimum(walks, g.n).astype(np.int64)
        bound.flags.writeable = False
        return bound, _count_dtype(peak)

    return g.memoized(("walk_nnz_bound", k_max), build)


def walk_totals(g: Graph, k_max: int):
    """For l = 1..k_max, (w_{l-1}, w_l, S_l 1): the walk totals w_l = A^l 1
    and the walk rows' row totals S_l 1 = (A + I) w_{l-1} = w_l + w_{l-1},
    in float64 and node order, exact below 2^53. One product with the
    memoized A + I per order; nothing is kept once the caller drops it."""
    loops = _loop_adjacency(g)
    position = _walk_order(g)[1]
    walks = np.ones(g.n)
    for _ in range(k_max):
        steps = loops @ walks
        prev, walks = walks, steps - walks
        yield prev[position], walks[position], steps[position]


def _budget_cuts(cost: np.ndarray, item: Callable[[int], str]) -> np.ndarray:
    """Start offsets (and the end) of consecutive runs of items, each the
    longest from its start whose walk-row entries ``cost`` stay within a
    run's share of the budget; an item above the share sits alone.
    Raises ScaleError, naming ``item(i)``, when a single item exceeds
    ``_NNZ_BUDGET``.

    Up to ``_MAX_RUNS`` runs are in flight at once, and a run holds its
    walk rows and, while a product of them is formed, scipy's scratch of
    one entry per entry of its operands: up to twice ``cost``. So the share
    is ``_NNZ_BUDGET // (2 * _MAX_RUNS)``, whatever ``_WORKERS`` is: the
    cuts, and the order of every sum over runs, are the same on every
    machine. Runs twice as large raised the peak RSS of the benchmark's
    stream of 16,384-pair K=3 batches of BA(100k, 3) from 277-279 to
    300-305 MB.
    """
    if len(cost) and cost.max() > _NNZ_BUDGET:
        worst = int(cost.argmax())
        raise ScaleError(f"walk rows of {item(worst)} may hold {int(cost[worst])} "
                         f"entries, above the walk-row budget of {_NNZ_BUDGET}")
    total = np.concatenate([[0], np.cumsum(cost)])
    share = _NNZ_BUDGET // (2 * _MAX_RUNS)
    cuts = [0]
    while cuts[-1] < len(cost):
        end = int(np.searchsorted(total, total[cuts[-1]] + share, side="right")) - 1
        cuts.append(max(end, cuts[-1] + 1))
    return np.array(cuts)


def _sub_chunks(g: Graph, pairs: np.ndarray, k_max: int) -> np.ndarray:
    """``_budget_cuts`` of ``pairs`` by their endpoints' walk rows for orders
    up to k_max, by the bound of ``_walk_nnz_bound``."""
    bound = _walk_nnz_bound(g, k_max)
    cost = bound[pairs[:, 0]] + bound[pairs[:, 1]]
    return _budget_cuts(cost,
                        lambda x: f"pair ({pairs[x, 0]}, {pairs[x, 1]}) at orders 1..{k_max}")


def features_fit_budget(g: Graph, pairs: np.ndarray, k_max: int) -> bool:
    """Whether the combined rows of orders 1..k_max of ``pairs`` are sure to
    hold at most ``_NNZ_BUDGET`` entries in all, decided before any row is
    built. Order k's row of (u, v) has an entry only where S_k[u] and
    S_k[v] both do, and each holds at most its endpoint's walk-row bound
    (``_walk_nnz_bound``), so K * sum(min(bound[u], bound[v])) bounds them."""
    bound = _walk_nnz_bound(g, k_max)
    return k_max * np.minimum(bound[pairs[:, 0]], bound[pairs[:, 1]]).sum() <= _NNZ_BUDGET


def walk_map(run: Callable[[int, int], object], cuts, workers: int | None = None) -> list:
    """``run(start, stop)`` for each run between consecutive ``cuts``, in
    order: on the calling thread when there is one run or one worker, else
    ``workers`` at a time on a thread pool. A run's exception reaches the
    caller once the pool's threads have ended. The walk loops leave
    ``workers`` at ``_WORKERS``; ``theory.validate_bound`` passes one per run."""
    workers = _WORKERS if workers is None else workers
    if len(cuts) == 2 or workers == 1:
        # One pool thread gains nothing and raises the peak RSS: the K=3 Gram
        # of BA(100k, 3) peaked at 339 MB on one pool thread, 261 MB here.
        return [run(start, stop) for start, stop in zip(cuts[:-1], cuts[1:])]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run, cuts[:-1], cuts[1:]))


def walk_row_sums(g: Graph, k: int,
                  loop_gram: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
    """Per node c, sums over its walk rows R_{l-1} and S_l, l <= k, of
    ``_OrderRows``, in the node blocks of ``_budget_cuts`` mapped by
    ``walk_map``: ``diag``, row m = diag(A^m) for m = 0..2k, as
    ||R_l[c]||^2 = A^{2l}[c, c] and ||S_l[c]||^2 = (A^{2l} + 2 A^{2l-1} +
    A^{2l-2})[c, c] for symmetric A; and with ``loop_gram``, the lower
    triangle of the Gram matrix of Q_a = S_a o S_a - R_{a-1} o R_{a-1}, whose
    entry (c, u) is CN^a(u, u)[c], else None. The blocks are runs of
    consecutive positions of ``_walk_order``. Each writes its own columns
    of ``diag``, which is put in node order once all are done, and returns
    its part of the Gram matrix; the parts are summed in block order. Only
    ``loop_gram`` forms R_k; without it, row 2k holds diag(A^{2k} + 2
    A^{2k-1}) and row 2k - 1 is 0."""
    if k < 1:
        raise ConfigError(f"order must be >= 1, got {k}")
    order, position = _walk_order(g)
    cuts = _budget_cuts(_walk_nnz_bound(g, k)[order],
                        lambda p: f"node {order[p]} at orders 1..{k}")
    loops = _walk_steps(g, k)
    diag = np.zeros((2 * k + 1, g.n))  # row 2l - 1 holds ||S_l||^2 at first
    diag[0] = 1.0

    def block(start: int, stop: int) -> np.ndarray | None:
        rows = _OrderRows(loops, np.arange(start, stop))
        part = np.zeros((k, k)) if loop_gram else None
        squares = []  # Q_1..Q_l of the block
        for l in range(1, k + 1):
            prev, step = rows.at(l)
            diag[2 * l - 1, start:stop] = _squared(step).sum(axis=1).A1
            if prev is not None:
                diag[2 * l - 2, start:stop] = _squared(prev).sum(axis=1).A1
            if loop_gram:
                squares.append(_squared(step) - (sp.identity(g.n, format="csr")[start:stop]
                                                 if prev is None else _squared(prev)))
                # The stored entries are totalled as they are: .sum() would
                # sort the product first.
                part[l - 1, :l] = [square.multiply(squares[-1]).data.sum()
                                   for square in squares]
        if loop_gram:
            diag[2 * k, start:stop] = _squared(rows.powers(k)[1]).sum(axis=1).A1
        return part

    parts = walk_map(block, cuts)
    gram = sum(parts, np.zeros((k, k))) if loop_gram else None
    diag = diag[:, position]
    for l in range(1, k + 1):
        diag[2 * l - 1] = (diag[2 * l - 1] - diag[2 * l] - diag[2 * l - 2]) / 2.0
    if gram is None:  # row 2k was left at 0
        diag[2 * k], diag[2 * k - 1] = 2.0 * diag[2 * k - 1], 0.0
    return diag, gram


def _squared(rows: sp.csr_matrix) -> sp.csr_matrix:
    """Entries squared in float64, index arrays shared; rows.power(2) would
    sort them."""
    return sp.csr_matrix((np.square(rows.data, dtype=np.float64), rows.indices, rows.indptr),
                         shape=rows.shape)


def adj_power_row(g: Graph, u: int, l: int) -> np.ndarray:
    """Dense row u of A^l: exact counts of l-length walks from u to every
    node, for any l >= 0, in the dtype of the walk rows up to order l.
    InputError for a node outside [0, n)."""
    if l < 0:
        raise ConfigError(f"walk length must be >= 0, got {l}")
    if not 0 <= u < g.n:
        raise InputError(f"node {u} is outside [0, {g.n})")
    position = _walk_order(g)[1]
    rows = _OrderRows(_walk_steps(g, max(l, 1)), position[[u]])
    return rows.powers(max(l, 1))[min(l, 1)].toarray()[0][position]


def _drop_row_columns(mat: sp.csr_matrix, columns: np.ndarray) -> None:
    """Drop, in place, the stored entries of row x that sit in a column of columns[x]."""
    row = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))
    mat.data[(mat.indices[:, None] == columns[row]).any(axis=1)] = 0
    mat.eliminate_zeros()


def slice_keys(k: int) -> tuple[tuple[int, int], ...]:
    return (k, k), (k - 1, k), (k, k - 1)


def _product(a: sp.csr_matrix, b: sp.csr_matrix, order: np.ndarray,
             ends: np.ndarray | None = None) -> sp.csr_matrix:
    """a o b of walk rows in the positions of ``order`` (``_walk_order``),
    as canonical CSR in node columns; with ``ends``, row x without its
    entries in the columns ends[x]. Integer rows multiply in
    ``_count_dtype`` of the product of their largest entries, widening
    ``a``'s data only when that passes a's own type."""
    if a.dtype.kind == "i" and a.nnz and b.nnz:
        dtype = np.promote_types(a.dtype, _count_dtype(int(a.data.max()) * int(b.data.max())))
        if dtype != a.dtype:
            a = sp.csr_matrix((a.data.astype(dtype), a.indices, a.indptr), shape=a.shape)
    mat = a.multiply(b).tocsr()
    mat.indices[:] = order[mat.indices]
    mat.sort_indices()
    if ends is not None:
        _drop_row_columns(mat, ends)
    return mat


def _float_counts(mat: sp.csr_matrix) -> sp.csr_matrix:
    """``mat`` with its counts as float64 data, in place; exact below 2^53."""
    mat.data = mat.data.astype(np.float64, copy=False)
    return mat


def _explicit_slices(g: Graph, pairs: np.ndarray, k: int, exclude_endpoints: bool) -> dict:
    """The three order-k slices of ``pairs``, one elementwise product of
    A^k1 and A^k2 rows (``_OrderRows.powers``) each, walked in the
    sub-chunks of ``_sub_chunks``."""
    loops = _walk_steps(g, k)
    order, position = _walk_order(g)

    def chunk(start: int, stop: int) -> list[sp.csr_matrix]:
        ends = pairs[start:stop]
        # (R_{k-1}, R_k) of each endpoint, whose S_k is dropped before the
        # other's rows are built: R_l sits at position l - k + 1.
        ru, rv = (_OrderRows(loops, position[nodes]).powers(k) for nodes in ends.T)
        return [_float_counts(_product(ru[k1 - k + 1], rv[k2 - k + 1], order,
                                       ends if exclude_endpoints else None))
                for k1, k2 in slice_keys(k)]

    parts = walk_map(chunk, _sub_chunks(g, pairs, k))
    return {key: sp.vstack(mats, format="csr") for key, mats in zip(slice_keys(k), zip(*parts))}


def cn_order_features(g: Graph, batch: PairBatch, k: int,
                      exclude_endpoints: bool = False,
                      walks: tuple[_OrderRows, _OrderRows] | None = None) -> OrderFeatures:
    """Compute the order-k combined counts for a batch of pairs.

    Never forms A^k; the rows come from k repeated sparse products
    per endpoint. ``walks`` holds the source and target rows that
    ``_orders`` shares across orders, asked for in increasing order.
    Without it, this is the last order of ``cn_order_features_all``, which
    walks the batch in sub-chunks within the walk-row budget.
    ``exclude_endpoints`` zeroes the two endpoint columns of each batch row
    (classic-CN convention). Each product is sorted as it is formed, so the
    returned matrix is canonical CSR; the slices are built only when read.
    """
    if k < 1:
        raise ConfigError(f"order must be >= 1, got {k}")
    if walks is None:
        return cn_order_features_all(g, batch, k, exclude_endpoints)[-1]
    (prev_u, step_u), (prev_v, step_v) = (rows.at(k) for rows in walks)
    ends = batch.pairs if exclude_endpoints else None
    order = _walk_order(g)[0]
    combined = _product(step_u, step_v, order, ends)
    if prev_u is not None:  # at k = 1 the term is e_u * e_v, zero since u != v
        # The difference stores no entry it cancels to zero.
        combined = combined - _product(prev_u, prev_v, order, ends)
    return OrderFeatures(order=k, pairs=batch.pairs, combined=_float_counts(combined), graph=g,
                         exclude_endpoints=exclude_endpoints)


def cn_order_features_all(g: Graph, batch: PairBatch, k_max: int,
                          exclude_endpoints: bool = False) -> list[OrderFeatures]:
    """Orders 1..k_max for one batch, sharing the endpoints' walk rows.

    The batch is walked in consecutive sub-chunks of pairs (see
    ``_sub_chunks``), mapped by ``walk_map``; each sub-chunk's walk rows
    serve all orders and are dropped when its orders are done. Every matrix
    is canonical CSR, so a pair's row, stored order included, does not
    depend on the other pairs of its batch and the sub-chunks' matrices are
    stacked as they are.
    """
    if k_max < 1:
        raise ConfigError(f"k_max must be >= 1, got {k_max}")
    g.check_pairs(batch.pairs)
    loops = _walk_steps(g, k_max)

    def chunk(start: int, stop: int) -> list[OrderFeatures]:
        return _orders(g, loops, PairBatch(batch.pairs[start:stop]), k_max, exclude_endpoints)

    # The parts are stacked where the workers built them. Copying them into
    # this thread as they arrive made the peak RSS of a 16,384-pair K=3 batch
    # of BA(100k, 3) swing by about 50 MB with the threads' timing.
    chunks = walk_map(chunk, _sub_chunks(g, batch.pairs, k_max))
    if len(chunks) == 1:
        return chunks[0]
    feats = []
    for k in range(1, k_max + 1):
        # Popping each sub-chunk's order k frees it once it is stacked.
        parts = [chunk_feats.pop(0).combined for chunk_feats in chunks]
        feats.append(OrderFeatures(order=k, pairs=batch.pairs,
                                   combined=sp.vstack(parts, format="csr"), graph=g,
                                   exclude_endpoints=exclude_endpoints))
    return feats


def _orders(g: Graph, adj: sp.csr_matrix, batch: PairBatch, k_max: int,
            exclude_endpoints: bool) -> list[OrderFeatures]:
    """Orders 1..k_max from one set of walk rows, released on return.

    ``adj`` is the adjacency with a loop at every node, A + I, that the
    walk rows step with (``_walk_steps``), in the positions of
    ``_walk_order``.
    """
    position = _walk_order(g)[1]
    walks = (_OrderRows(adj, position[batch.pairs[:, 0]]),
             _OrderRows(adj, position[batch.pairs[:, 1]]))
    return [cn_order_features(g, batch, k, exclude_endpoints, walks)
            for k in range(1, k_max + 1)]


def cn_set(g: Graph, i: int, j: int, k: int,
           exclude_endpoints: bool = True) -> set[int]:
    """Nodes with a strictly positive combined count for pair (i, j) at order k.

    With endpoints excluded, k=1 reduces to the classic N(i) & N(j).
    """
    batch = PairBatch(np.array([[i, j]], dtype=np.int64))
    combined = cn_order_features(g, batch, k, exclude_endpoints=exclude_endpoints).combined
    return {int(c) for c in combined.indices[combined.data > 0]}
