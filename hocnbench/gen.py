"""Seeded inputs for the benchmark, kept apart from hocn's own samplers.

The program only ever sees the edge-list text built here, so a change to
``hocn.theory.sample_ba_graph`` cannot change what the benchmark measures.
"""

from __future__ import annotations

import hashlib

import numpy as np
import scipy.sparse as sp


def ba_edges(n: int, m: int, seed: int) -> np.ndarray:
    """Barabasi-Albert edges: each node after the first m attaches to m distinct
    earlier nodes chosen with probability proportional to degree.

    Returns an (m * (n - m), 2) int64 array of (new node, target) rows; the
    graph is simple, and every node has degree at least m.
    """
    if not n > m >= 1:
        raise ValueError("need n > m >= 1")
    rng = np.random.default_rng(seed)
    draws = rng.random(4 * m * n)
    pos = 0
    # Every edge endpoint is listed once, so a uniform index is a
    # degree-proportional draw.
    endpoints: list[int] = []
    edges = np.empty((m * (n - m), 2), dtype=np.int64)
    row = 0
    for v in range(m, n):
        if v == m:
            picks = range(m)
        else:
            chosen: set[int] = set()
            while len(chosen) < m:
                if pos == draws.size:
                    draws, pos = rng.random(draws.size), 0
                chosen.add(endpoints[int(draws[pos] * len(endpoints))])
                pos += 1
            picks = sorted(chosen)
        for w in picks:
            edges[row] = (v, w)
            row += 1
            endpoints.append(v)
            endpoints.append(w)
    return edges


def edge_list_text(edges: np.ndarray) -> str:
    """Tab-separated edge-list text, one edge per line."""
    return "".join(f"{u}\t{v}\n" for u, v in edges.tolist())


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def adjacency(n: int, edges: np.ndarray) -> sp.csr_matrix:
    """Symmetric 0/1 adjacency of a simple edge array, the checks' reference."""
    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0]])
    return sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))


def random_pairs(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """``count`` uniformly random ordered pairs (u, v) with u != v."""
    u = rng.integers(0, n, count)
    v = rng.integers(0, n - 1, count)
    v += v >= u
    return np.stack([u, v], axis=1).astype(np.int64)


def distinct_pairs(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """``count`` distinct unordered random pairs, drawn one at a time."""
    seen: set[tuple[int, int]] = set()
    out = []
    while len(out) < count:
        u, v = (int(x) for x in rng.integers(0, n, 2))
        key = (min(u, v), max(u, v))
        if u == v or key in seen:
            continue
        seen.add(key)
        out.append((u, v))
    return np.array(out, dtype=np.int64)


def pairs_with_common_neighbor(rng: np.random.Generator, adj: sp.csr_matrix,
                               count: int, min_degree: int = 2) -> np.ndarray:
    """``count`` pairs (i, j) sharing at least one neighbor c: draw c of degree
    at least ``min_degree``, then two distinct neighbors of it."""
    degrees = np.diff(adj.indptr)
    hubs = np.nonzero(degrees >= max(min_degree, 2))[0]
    out = []
    for c in rng.choice(hubs, size=count):
        nbrs = adj.indices[adj.indptr[c]:adj.indptr[c + 1]]
        i, j = rng.choice(nbrs, size=2, replace=False)
        out.append((int(i), int(j)))
    return np.array(out, dtype=np.int64)
