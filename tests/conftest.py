import numpy as np
import pytest
import scipy.sparse as sp

from hocn import Graph, PairBatch

# 4-node fixture used across the suite: path 0-1-2-3 plus chord 0-2.
G4_EDGES = [(0, 1), (1, 2), (2, 3), (0, 2)]

# 6-node graph where pairs (1,5) and (2,5) tie on every order-1 heuristic
# (single shared neighbor 0, same endpoint degree profile) but differ in
# order-2 structure.
WITNESS_EDGES = [(0, 1), (0, 2), (0, 3), (0, 5), (1, 4), (2, 3)]
WITNESS_PAIRS = ((1, 5), (2, 5))


@pytest.fixture
def g4():
    return Graph.from_edges(4, G4_EDGES)


@pytest.fixture
def witness():
    return Graph.from_edges(6, WITNESS_EDGES)


def random_graph(n: int, p: float, seed: int) -> Graph:
    rng = np.random.default_rng(seed)
    iu, iv = np.triu_indices(n, k=1)
    mask = rng.random(iu.size) < p
    edges = np.stack([iu[mask], iv[mask]], axis=1)
    return Graph.from_edges(n, edges)


def walk_count(g: Graph, start: int, end: int, length: int) -> int:
    """Walks of exact length by depth-first enumeration (test oracle)."""
    if length == 0:
        return int(start == end)
    total = 0
    stack = [(start, 0)]
    while stack:
        node, depth = stack.pop()
        if depth == length:
            total += node == end
            continue
        for nb in g.neighbors(node):
            stack.append((int(nb), depth + 1))
    return total


def nonadjacent_pairs(g: Graph):
    out = []
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if not g.has_edge(u, v):
                out.append((u, v))
    return out


def batch_of(pairs) -> PairBatch:
    return PairBatch(np.array(pairs, dtype=np.int64).reshape(-1, 2))


def all_pairs_batch(n: int) -> PairBatch:
    """Every unordered pair u < v of n nodes, in np.triu_indices order."""
    iu, iv = np.triu_indices(n, k=1)
    return PairBatch(np.stack([iu, iv], axis=1).astype(np.int64))


def as_dense(m) -> np.ndarray:
    return m.toarray() if sp.issparse(m) else np.asarray(m)


# ---------------------------------------------------------------------------
# acceptance reporting: one printed pass/fail line per criterion

_ACCEPTANCE = {}


def pytest_runtest_logreport(report):
    if "test_acceptance" not in report.nodeid:
        return
    if report.when == "call" or (report.when == "setup" and report.outcome != "passed"):
        name = report.nodeid.split("::")[-1]
        _ACCEPTANCE[name] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name in sorted(_ACCEPTANCE):
        status = "PASS" if _ACCEPTANCE[name] == "passed" else "FAIL"
        terminalreporter.write_line(f"{name}: {status}")
