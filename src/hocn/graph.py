"""Immutable undirected graph in CSR form, edge-list IO, splitting, negative sampling."""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import (ConfigError, EdgeListParseError, InputError, SamplingError, ScaleError,
                     SplitError)

# The edge-list formats load_edge_list reads; --format offers these.
EDGE_LIST_FORMATS = ("tsv", "csv")

# Largest node count whose edge keys u*n+v fit in int64: isqrt(2**63 - 1).
_MAX_NODES = 3_037_000_499


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """Distinct values of a 1-D array, ascending (np.unique without its overhead)."""
    keys = np.sort(keys)
    return keys[np.concatenate([[True], keys[1:] != keys[:-1]])] if keys.size else keys


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph, neighbors sorted ascending per row.

    ``indptr``/``indices`` follow the usual CSR convention; ``degrees[u]``
    equals the length of row ``u``. ``memoized`` keeps arrays derived from
    the graph alone, built once per instance.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    degrees: np.ndarray
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """Build from an iterable/array of (u, v) pairs.

        Self-loops and duplicates are dropped; both orientations are stored,
        from one sort of the keys u*n+v and v*n+u.
        """
        if n > _MAX_NODES:
            raise ScaleError(f"n={n} exceeds {_MAX_NODES}: edge keys u*n+v would overflow int64")
        edges = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges,
                           dtype=np.int64).reshape(-1, 2)
        if edges.size and (edges.min() < 0 or edges.max() >= n):
            raise InputError("edge endpoint out of range")
        u, v = edges[edges[:, 0] != edges[:, 1]].T
        src, dst = np.divmod(_sorted_unique(np.concatenate([u * n + v, v * n + u])), n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        return cls(n=n, indptr=indptr, indices=dst, degrees=np.diff(indptr))

    def memoized(self, key, build):
        """``build()`` on the first request for ``key``, the same object on
        every later one. A build that raises stores nothing; threads that
        build at once all get the object stored first. Meant for what
        depends on the graph alone and is no larger than the graph, such as
        n-length arrays and the sparse A + I of the walk rows, with its
        arrays made read-only; never a dense n x n matrix."""
        try:
            return self._memo[key]
        except KeyError:
            return self._memo.setdefault(key, build())

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return int(self.indices.size) // 2

    def neighbors(self, u: int) -> np.ndarray:
        return self.indices[self.indptr[u]:self.indptr[u + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        row = self.neighbors(u)
        i = np.searchsorted(row, v)
        return i < row.size and row[i] == v

    def edge_array(self) -> np.ndarray:
        """(m, 2) array of undirected edges with u < v, lexicographically sorted."""
        src = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)
        mask = src < self.indices
        return np.stack([src[mask], self.indices[mask]], axis=1)

    def check_pairs(self, pairs: np.ndarray) -> None:
        """Raise InputError naming the first pair of an (h, 2) array with an
        endpoint outside [0, n). Compares values only; no pair array is copied."""
        if pairs.size and (pairs.min() < 0 or pairs.max() >= self.n):
            u, v = pairs[((pairs < 0) | (pairs >= self.n)).any(axis=1).argmax()]
            raise InputError(f"pair ({u}, {v}) has an endpoint outside [0, {self.n})")

    def to_scipy(self) -> sp.csr_matrix:
        """A new CSR adjacency matrix on every call, for callers that add to
        it or densify it; its index arrays are the graph's own."""
        data = np.ones(self.indices.size, dtype=np.float64)
        return sp.csr_matrix((data, self.indices, self.indptr), shape=(self.n, self.n))


@dataclass(frozen=True)
class PairBatch:
    """Ordered, non-empty batch of (source, target) node pairs as an (h, 2)
    int64 array, no pair with identical endpoints. Whether a pair is a
    positive or a negative is up to the caller, which keeps the two apart."""

    pairs: np.ndarray

    def __post_init__(self):
        pairs = np.asarray(self.pairs, dtype=np.int64).reshape(-1, 2)
        object.__setattr__(self, "pairs", pairs)
        if pairs.shape[0] == 0:
            raise InputError("empty pair batch")
        if (pairs[:, 0] == pairs[:, 1]).any():
            raise InputError("pair with identical endpoints")

    def __len__(self) -> int:
        return self.pairs.shape[0]


@dataclass(frozen=True)
class LoadReport:
    """Cleanup summary produced while reading an edge list."""

    lines_read: int = 0
    self_loops_dropped: int = 0
    duplicates_dropped: int = 0


@dataclass(frozen=True)
class SplitResult:
    """Train/valid/test positive edges plus the train graph with targets removed."""

    train_graph: Graph
    train: PairBatch
    valid: PairBatch
    test: PairBatch


def _parse_line(line: str, fmt: str, lineno: int) -> tuple[int, int] | None:
    body = line.split("#", 1)[0].strip()
    if not body:
        return None
    if fmt == "csv":
        parts = [part.strip() for part in body.split(",")]
    else:
        parts = body.replace(",", "\t").split()
    if len(parts) != 2:
        raise EdgeListParseError(lineno, f"expected two ids, got {len(parts)} fields")
    for part in parts:
        if not (part.isascii() and part.isdigit()):
            raise EdgeListParseError(lineno, f"node id {part!r} is not a run of digits 0-9")
    u, v = int(parts[0]), int(parts[1])
    if max(u, v) > 2**62:
        raise EdgeListParseError(lineno, "node id overflow")
    return u, v


def _strip_comments(text: str) -> str:
    """The text without its comments, each a ``#`` up to its line's end, the
    line end kept: one slice per ``#``, however many lines the text has."""
    parts, start = [], 0
    while (mark := text.find("#", start)) >= 0:
        parts.append(text[start:mark])
        start = text.find("\n", mark)
        if start < 0:
            return "".join(parts)
    return "".join(parts) + text[start:]


def _plain_edges(text: str, fmt: str) -> np.ndarray | None:
    """Edges of the text in one vectorized parse (``np.loadtxt``, fields split
    at commas for csv, else at whitespace) once its comments are stripped,
    or None when the text needs the per-line parser, which also reports the
    line of any error. That is a text with no id; one that numpy does not
    read as two columns of ids in [0, 2**62], such as one with an id like
    ``1_0``; and one that numpy would read otherwise than ``_parse_line``
    does: with a sign (numpy reads ``+4`` as 4 and ``-0`` as 0), a carriage
    return outside a CRLF line end (a line end to numpy) or a non-ASCII
    character (numpy reads some non-ASCII letters as digits). A comment may
    hold any of these."""
    text = _strip_comments(text)
    if (not text or text.isspace() or not text.isascii() or "+" in text or "-" in text
            or "\r" in text and text.count("\r") > text.count("\r\n")):
        return None
    try:
        edges = np.loadtxt(io.StringIO(text), dtype=np.int64, ndmin=2, comments=None,
                           delimiter="," if fmt == "csv" else None)
    except ValueError:
        return None
    ok = edges.shape[1] == 2 and edges.min() >= 0 and edges.max() <= 2**62
    return edges if ok else None


def load_edge_list(source, format: str = "tsv"):
    """Parse an edge-list text stream (or string) into a :class:`Graph`.

    Lines hold two ids, each a run of ASCII digits 0-9, separated by tab or
    comma; ``#`` starts a comment. Any other id, such as ``+4``, ``-0``,
    ``1_0`` or a non-ASCII digit, is an EdgeListParseError naming its line.
    Duplicates and self-loops are silently dropped (counted in the
    report). The graph has nodes 0..max id. ``format`` is "tsv" or "csv";
    any other is a ConfigError before the source is read.

    Returns ``(graph, report)``.
    """
    if format not in EDGE_LIST_FORMATS:
        raise ConfigError(f"unknown edge-list format {format!r}, expected one of "
                          f"{', '.join(EDGE_LIST_FORMATS)}")
    text = source if isinstance(source, str) else source.read()
    edges = _plain_edges(text, format)
    if edges is None:
        parsed = (_parse_line(line, format, lineno)
                  for lineno, line in enumerate(io.StringIO(text), start=1))
        edges = np.array([e for e in parsed if e is not None], dtype=np.int64).reshape(-1, 2)
    n = int(edges.max()) + 1 if edges.size else 0
    self_loops = int((edges[:, 0] == edges[:, 1]).sum())
    g = Graph.from_edges(n, edges)
    report = LoadReport(
        lines_read=text.count("\n") + (bool(text) and not text.endswith("\n")),
        self_loops_dropped=self_loops,
        duplicates_dropped=edges.shape[0] - self_loops - g.num_edges,
    )
    return g, report


def split_edges(g: Graph, ratios, seed: int) -> SplitResult:
    """Random train/valid/test split of the edge set; targets removed from train graph.
    A ratio that leaves its part with no edge is a SplitError naming the part."""
    r_train, r_valid, r_test = (float(x) for x in ratios)
    if abs(r_train + r_valid + r_test - 1.0) > 1e-9:
        raise SplitError(f"ratios sum to {r_train + r_valid + r_test}, expected 1")
    if min(r_train, r_valid, r_test) < 0:
        raise SplitError("negative split ratio")
    m = g.num_edges
    if m < 3:
        raise SplitError(f"graph has {m} edges; need at least 3 to split")
    n_test = int(round(r_test * m))
    n_valid = int(round(r_valid * m))
    for part, ratio, size in (("train", r_train, m - n_valid - n_test),
                              ("valid", r_valid, n_valid), ("test", r_test, n_test)):
        if size < 1:
            raise SplitError(f"{part} ratio {ratio} leaves the {part} part of {m} edges empty")
    edges = g.edge_array()
    rng = np.random.default_rng(seed)
    perm = rng.permutation(m)
    test_idx = perm[:n_test]
    valid_idx = perm[n_test:n_test + n_valid]
    train_idx = perm[n_test + n_valid:]
    train_edges = edges[np.sort(train_idx)]
    return SplitResult(
        train_graph=Graph.from_edges(g.n, train_edges),
        train=PairBatch(train_edges),
        valid=PairBatch(edges[np.sort(valid_idx)]),
        test=PairBatch(edges[np.sort(test_idx)]),
    )


def merged_graph(split: SplitResult, use_valid_as_input: bool) -> Graph:
    """Test-time input graph; optionally merges validation edges (collab convention)."""
    if not use_valid_as_input:
        return split.train_graph
    edges = np.concatenate([split.train.pairs, split.valid.pairs], axis=0)
    return Graph.from_edges(split.train_graph.n, edges)


def _draw_distinct_pairs(n: int, count: int, seed: int, forbidden=()) -> np.ndarray:
    """(count, 2) distinct pairs u < v of nodes in [0, n), uniform over those
    whose key u*n+v is not in the sorted ``forbidden``, in first-draw order.
    Draws come in blocks, which take the same stream from
    ``default_rng(seed)`` as one ``integers(0, n)`` call per endpoint."""
    if count < 1:
        raise InputError(f"requested {count} distinct pairs, need at least 1")
    taken = np.asarray(forbidden, dtype=np.int64)
    available = n * (n - 1) // 2 - taken.size
    if count > available:
        raise SamplingError(f"requested {count} distinct pairs, only {available} available")
    rng = np.random.default_rng(seed)
    keys = np.zeros(0, dtype=np.int64)
    while keys.size < count:
        # A draw yields a new pair with probability 2 * (available - keys.size) / n^2;
        # 2**20 draws keep a block within 16 MB.
        need = count - keys.size
        block = min(need * n * n // (2 * (available - keys.size)) + 64, 1 << 20)
        u, v = rng.integers(0, n, size=(block, 2)).T
        drawn = (np.minimum(u, v) * n + np.maximum(u, v))[u != v]
        drawn = drawn[np.searchsorted(taken, drawn) == np.searchsorted(taken, drawn, "right")]
        _, first = np.unique(drawn, return_index=True)
        fresh = drawn[np.sort(first)[:need]]
        keys = np.concatenate([keys, fresh])
        taken = _sorted_unique(np.concatenate([taken, fresh]))
    return np.stack(np.divmod(keys, n), axis=1)


def sample_negatives(g: Graph, count: int, seed: int, exclude=()) -> PairBatch:
    """``count`` distinct non-adjacent pairs (u < v), uniform over the
    non-edges of ``g`` outside ``exclude`` (an (m, 2) array or a sequence of
    pairs, either orientation), in the order they were first drawn.

    Deterministic for a fixed seed. Raises :class:`SamplingError` when fewer
    pairs are available than requested, :class:`InputError` when an
    ``exclude`` endpoint lies outside [0, n).
    """
    n = g.n
    exclude = np.asarray(exclude, dtype=np.int64).reshape(-1, 2)
    if exclude.size and (exclude.min() < 0 or exclude.max() >= n):
        raise InputError("exclude endpoint out of range")
    pairs = np.concatenate([g.edge_array(), exclude[exclude[:, 0] != exclude[:, 1]]])
    forbidden = _sorted_unique(pairs.min(axis=1) * n + pairs.max(axis=1))
    return PairBatch(_draw_distinct_pairs(n, count, seed, forbidden))
