import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hocn.graph
from hocn import (ConfigError, EdgeListParseError, Graph, InputError, PairBatch,
                  SamplingError, ScaleError, SplitError, load_edge_list, merged_graph,
                  sample_negatives, split_edges)
from hocn.theory import sample_ba_graph

from conftest import G4_EDGES, random_graph


def test_from_edges_dedup_and_symmetry():
    g = Graph.from_edges(4, [(0, 1), (1, 0), (0, 1), (2, 2), (1, 2)])
    assert g.num_edges == 2
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(2, 2)
    assert list(g.degrees) == [1, 2, 1, 0]


def test_neighbors_sorted(g4):
    assert list(g4.neighbors(2)) == [0, 1, 3]
    assert list(g4.neighbors(3)) == [2]


def test_edge_array_upper_triangular(g4):
    arr = g4.edge_array()
    assert arr.shape == (4, 2)
    assert (arr[:, 0] < arr[:, 1]).all()


def test_load_edge_list_parses_comments_and_blanks():
    text = "# header\n0\t1\n\n1 2\n2,3  # trailing\n"
    g, report = load_edge_list(text)
    assert g.num_edges == 3
    assert report.lines_read == 5


def test_load_edge_list_reports_line_numbers():
    with pytest.raises(EdgeListParseError) as info:
        load_edge_list("0\t1\nnope\n")
    assert info.value.line_number == 2


def test_load_edge_list_rejects_negative_ids():
    with pytest.raises(EdgeListParseError):
        load_edge_list("0\t-3\n")


@pytest.mark.parametrize("fmt", ["tsv", "csv"])
@pytest.mark.parametrize("bad", ["+4", "-0", "-3", "1_0", "\u0663", "\uff11\uff12", "1e3", "0x1"])
def test_load_edge_list_ids_are_ascii_digits_on_both_parse_paths(bad, fmt):
    sep = "," if fmt == "csv" else "\t"
    for text in (f"0{sep}1\n{bad}{sep}5\n", f"0{sep}1\n5{sep}{bad}\n"):
        for vectorized in (True, False):
            with pytest.MonkeyPatch.context() as mp:
                if not vectorized:
                    mp.setattr(hocn.graph, "_plain_edges", lambda text, fmt: None)
                with pytest.raises(EdgeListParseError, match=re.escape(repr(bad))) as info:
                    load_edge_list(text, format=fmt)
            assert info.value.line_number == 2, (text, vectorized)


@pytest.mark.parametrize("fmt", ["xyz", "TSV", ""])
def test_load_edge_list_unknown_format_is_a_config_error_before_reading(fmt):
    class Unread:
        def read(self):
            raise AssertionError("the source was read")

    with pytest.raises(ConfigError, match=f"unknown edge-list format {fmt!r}"):
        load_edge_list(Unread(), format=fmt)


def test_load_edge_list_counts_drops():
    _, report = load_edge_list("0\t1\n1\t0\n2\t2\n")
    assert report.duplicates_dropped == 1
    assert report.self_loops_dropped == 1


def _load_outcome(text: str, fmt: str):
    try:
        g, report = load_edge_list(text, format=fmt)
    except EdgeListParseError as exc:
        return "parse error", exc.line_number
    except ScaleError as exc:
        return "scale error", str(exc)
    return g.n, g.indptr.tolist(), g.indices.tolist(), report


# Ids up to 999, or far above the node guard, so that no draw allocates a
# huge graph; look-alikes the per-line parser reads differently from loadtxt.
_ID_TEXT = st.one_of(st.integers(0, 999).map(str),
                     st.sampled_from(["007", "1_0", "-1", "-0", "+1", "\u0663", "1e3", "0x1", "",
                                      str(2**62), str(2**62 + 1), str(2**63), str(10**20)]))
_SEP = st.sampled_from([" ", "\t", "  \t", ",", ", ", "\u00a0"])
_LINE = st.one_of(
    st.tuples(_ID_TEXT, _SEP, _ID_TEXT, st.sampled_from(["", " ", "\t", "  # c", ",", " 5",
                                                        "#-1", " # \u0663\r", "# x,y"]))
    .map("".join),
    st.sampled_from(["", "# comment", "   ", "1 2 3", "\r", "# CA-GrQc.txt", "#\r",
                     "# +4 -0 \u0663", "#1 2", " # a\rb"]))


@settings(max_examples=300, deadline=None)
@given(st.lists(_LINE, max_size=6), st.booleans(), st.sampled_from(["tsv", "csv"]))
@example(["1\t2", "3 4"], True, "tsv")
@example(["1_0 2"], True, "tsv")
@example([], True, "tsv")
@example([f"0 {2**62}"], True, "tsv")
@example(["1 2", "", "  ", "3 4", ""], True, "tsv")
@example(["", "1 2"], False, "tsv")
@example(["1,2", "", "3, 4"], True, "csv")
@example(["1 2", "# c", "3 4  # c"], True, "tsv")
@example(["# Directed graph (each unordered pair of nodes is saved once): CA-GrQc.txt",
          "# Nodes: 5242 Edges: 28980", "# FromNodeId\tToNodeId", "3466\t937"], True, "tsv")
@example(["1,2 # c", "# -1", "3,4"], True, "csv")
@example(["1 2\r3 4"], True, "tsv")
@example(["1 2\r"], False, "tsv")
@example(["1 2", "\r", "3 4"], True, "tsv")
@example(["1 -2"], True, "tsv")
@example([f"0 {2**62 + 1}"], True, "tsv")
@example(["   ", "\t"], True, "tsv")
@example(["1\x0b2", "3\x1c4"], True, "tsv")
@example(["1\x852", "3\u20284"], True, "tsv")
@example(["1\u30002"], True, "tsv")
@example(["1\u200b2"], True, "tsv")
@example(["1 2\u01fe"], True, "tsv")
@example(["1,\x1c2"], True, "csv")
def test_vectorized_edge_list_parse_matches_per_line_parser(lines, newline_at_end, fmt):
    text = "\n".join(lines) + ("\n" if newline_at_end and lines else "")
    got = _load_outcome(text, fmt)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hocn.graph, "_plain_edges", lambda text, fmt: None)
        want = _load_outcome(text, fmt)
    assert got == want


def test_plain_edge_text_takes_the_vectorized_parse():
    edges = [[0, 1], [1, 2], [2, 3]]
    for fmt, text in [("tsv", "0\t1\n1 2 \n2\t3\n"), ("tsv", "0\t1\n1 2 \n2\t3"),
                      ("tsv", "\n0 1\n\n1 2\n  \n2 3\n"), ("tsv", "0 1\r\n1 2\r\n2 3\r\n"),
                      ("csv", "0,1\n1, 2\n\n2,3\n"), ("csv", "0,\x1c1\n1 ,2\x1f\n2,3\n")]:
        assert hocn.graph._plain_edges(text, fmt).tolist() == edges, text
    # Comments are stripped first, whatever they hold.
    for text in ("# c\n0 1\n", "0 1  # c\n", "# CA-GrQc.txt +4 -0 \u0663\r\n0 1\n", "0 1 #\r"):
        assert hocn.graph._plain_edges(text, "tsv").tolist() == [[0, 1]], text
    for other in ("0 1\r2 3\n", "0 1\r", "0 -1\n",
                  f"0 {2**62 + 1}\n", "", " \n\t\n", "1_0 2\n", "0 1\u01fe\n", "+4 5\n",
                  "-0 5\n"):
        assert hocn.graph._plain_edges(other, "tsv") is None, other
    assert hocn.graph._plain_edges("0\t1\n", "csv") is None


def test_pair_batch_rejects_self_pairs():
    with pytest.raises(InputError):
        PairBatch(np.array([[1, 1]]))


def test_split_partitions_edges():
    g = random_graph(40, 0.2, seed=0)
    split = split_edges(g, (0.7, 0.1, 0.2), seed=3)
    m = g.num_edges
    total = len(split.train) + len(split.valid) + len(split.test)
    assert total == m
    assert len(split.test) == round(0.2 * m)
    seen = {tuple(sorted(p)) for part in (split.train, split.valid, split.test)
            for p in part.pairs}
    assert len(seen) == m


def test_split_train_graph_excludes_heldout():
    g = random_graph(40, 0.2, seed=1)
    split = split_edges(g, (0.7, 0.1, 0.2), seed=3)
    for u, v in np.concatenate([split.valid.pairs, split.test.pairs]):
        assert not split.train_graph.has_edge(int(u), int(v))
    for u, v in split.train.pairs:
        assert split.train_graph.has_edge(int(u), int(v))


def test_split_deterministic_in_seed():
    g = random_graph(30, 0.3, seed=2)
    a = split_edges(g, (0.7, 0.1, 0.2), seed=9)
    b = split_edges(g, (0.7, 0.1, 0.2), seed=9)
    assert (a.test.pairs == b.test.pairs).all()
    c = split_edges(g, (0.7, 0.1, 0.2), seed=10)
    assert not np.array_equal(a.test.pairs, c.test.pairs)


def test_split_rejects_bad_ratios(g4):
    with pytest.raises(SplitError):
        split_edges(g4, (0.5, 0.2, 0.2), seed=0)
    # NaN passes a test of the sum, which is NaN, so each ratio is checked by name.
    for ratios, error in [((0.5, float("nan"), 0.5), "valid ratio nan"),
                          ((float("nan"), 0.3, 0.3), "train ratio nan"),
                          ((0.5, 0.5, float("inf")), "test ratio inf"),
                          ((1.2, -0.1, -0.1), "valid ratio -0.1")]:
        with pytest.raises(SplitError, match=f"^{error} is not finite and >= 0$"):
            split_edges(g4, ratios, seed=0)


@pytest.mark.parametrize("ratios,part", [
    ((1, 0, 0), "valid ratio 0.0"), ((0, 1, 0), "train ratio 0.0"),
    ((0.5, 0.5, 0), "test ratio 0.0"), ((0.92, 0.04, 0.04), "valid ratio 0.04"),
    ((0.06, 0.47, 0.47), "train ratio 0.06"),  # valid and test round up to 5 edges each
])
def test_split_with_an_empty_part_names_it_before_building_arrays(ratios, part, monkeypatch):
    g = Graph.from_edges(11, [(i, i + 1) for i in range(10)])
    built = []
    monkeypatch.setattr(Graph, "edge_array", lambda self: built.append(self))
    monkeypatch.setattr(Graph, "from_edges", classmethod(lambda cls, *args: built.append(args)))
    with pytest.raises(SplitError, match=f"^{re.escape(part)} leaves the "
                                         f"{part.split()[0]} part of 10 edges empty"):
        split_edges(g, ratios, seed=0)
    assert built == []


def test_merged_graph_adds_valid_edges():
    g = random_graph(30, 0.3, seed=4)
    split = split_edges(g, (0.7, 0.1, 0.2), seed=0)
    base = merged_graph(split, use_valid_as_input=False)
    assert base.num_edges == len(split.train)
    merged = merged_graph(split, use_valid_as_input=True)
    assert merged.num_edges == len(split.train) + len(split.valid)
    for u, v in split.valid.pairs:
        assert merged.has_edge(int(u), int(v))


def test_sample_negatives_avoids_edges_and_exclusions():
    g = random_graph(25, 0.3, seed=5)
    extra = [(0, 1), (2, 3)]
    neg = sample_negatives(g, 50, seed=7, exclude=extra)
    assert len(neg) == 50
    banned = set(map(tuple, extra)) | {(v, u) for u, v in extra}
    for u, v in neg.pairs:
        assert not g.has_edge(int(u), int(v))
        assert (int(u), int(v)) not in banned


def test_sample_negatives_exhaustion():
    g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(SamplingError):
        sample_negatives(g, 1, seed=0)


@pytest.mark.parametrize("count", [0, -5])
def test_pair_count_below_one_is_an_input_error(count):
    with pytest.raises(InputError, match=f"requested {count} distinct pairs"):
        hocn.graph._draw_distinct_pairs(30, count, seed=0)
    g = random_graph(25, 0.3, seed=5)
    with pytest.raises(InputError, match=f"requested {count} distinct pairs"):
        sample_negatives(g, count, seed=0)


def _per_draw_negatives(g, count, seed, exclude=()):
    """Reference oracle: one (u, v) draw at a time, rejecting self-pairs,
    edges, exclusions and repeats, keeping (min, max) in draw order."""
    excl = {(min(u, v), max(u, v)) for u, v in exclude}
    rng = np.random.default_rng(seed)
    chosen, seen = [], set()
    while len(chosen) < count:
        u = int(rng.integers(0, g.n))
        v = int(rng.integers(0, g.n))
        key = (min(u, v), max(u, v))
        if u == v or key in seen or key in excl or g.has_edge(u, v):
            continue
        seen.add(key)
        chosen.append(key)
    return np.array(chosen, dtype=np.int64)


@pytest.mark.parametrize("n,m", [(1500, 3), (2708, 2)])
def test_sample_negatives_match_per_draw_oracle(n, m):
    g = sample_ba_graph(n, m, seed=n)
    assert n * (n - 1) // 2 > 1_000_000
    exclude = [tuple(p) for p in g.edge_array()[::3][:, ::-1]] + [(0, 5), (7, 3)]
    for seed in range(3):
        for excl in ((), exclude, np.array(exclude)):
            got = sample_negatives(g, 2000, seed, exclude=excl).pairs
            assert np.array_equal(got, _per_draw_negatives(g, 2000, seed, excl))


def test_sample_negatives_uniform(witness):
    nonedges = [(u, v) for u in range(6) for v in range(u + 1, 6) if not witness.has_edge(u, v)]
    assert len(nonedges) == 9
    counts = dict.fromkeys(nonedges, 0)
    for seed in range(9000):
        (u, v), = sample_negatives(witness, 1, seed).pairs
        counts[(int(u), int(v))] += 1
    assert sum(counts.values()) == 9000
    assert all(850 <= c <= 1150 for c in counts.values()), counts


def test_sample_negatives_every_available_pair_exactly_once():
    g = random_graph(40, 0.3, seed=2)
    exclude = [(3, 1), (5, 9), (1, 3)]
    available = {(u, v) for u in range(g.n) for v in range(u + 1, g.n)
                 if not g.has_edge(u, v)} - {(1, 3), (5, 9)}
    got = sample_negatives(g, len(available), seed=4, exclude=exclude).pairs
    assert len(got) == len(available)
    assert {(int(u), int(v)) for u, v in got} == available
    with pytest.raises(SamplingError):
        sample_negatives(g, len(available) + 1, seed=4, exclude=exclude)


@pytest.mark.parametrize("bad", [(0, 15), (-1, 3), (10, 10)])
def test_sample_negatives_rejects_out_of_range_exclusion(bad):
    # Unchecked, (0, 15) in a 10-node graph has key 0*10+15, that of (1, 5).
    g = Graph.from_edges(10, [(0, 1)])
    with pytest.raises(InputError):
        sample_negatives(g, 5, seed=0, exclude=[(2, 3), bad])


def test_edge_list_round_trip(g4):
    text = "".join(f"{u}\t{v}\n" for u, v in g4.edge_array())
    g2, _ = load_edge_list(text)
    assert g2.num_edges == g4.num_edges
    assert (g2.edge_array() == g4.edge_array()).all()


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 14), st.integers(0, 14)),
                min_size=0, max_size=40))
def test_from_edges_properties(edges):
    g = Graph.from_edges(15, edges)
    adj = g.to_scipy().toarray()
    assert (adj == adj.T).all()
    assert np.trace(adj) == 0
    assert set(np.unique(adj)) <= {0.0, 1.0}
    assert (g.degrees == adj.sum(axis=1)).all()


def _reference_csr(n: int, edges) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """indptr, indices and degrees by 2-D unique, lexsort and add.at."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    edges = edges[edges[:, 0] != edges[:, 1]]
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    und = np.unique(np.stack([lo, hi], axis=1), axis=0) if edges.size else edges.reshape(0, 2)
    src = np.concatenate([und[:, 0], und[:, 1]])
    dst = np.concatenate([und[:, 1], und[:, 0]])
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, src + 1, 1)
    np.cumsum(indptr, out=indptr)
    return indptr, dst.astype(np.int64), np.diff(indptr).astype(np.int64)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 25).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=80))))
@example((0, []))
@example((1, []))
@example((1, [(0, 0), (0, 0)]))
def test_from_edges_matches_reference_construction(case):
    n, edges = case
    g = Graph.from_edges(n, edges)
    for got, want in zip((g.indptr, g.indices, g.degrees), _reference_csr(n, edges)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_node_guard_is_the_largest_count_with_int64_edge_keys():
    limit = hocn.graph._MAX_NODES
    assert limit * limit <= np.iinfo(np.int64).max < (limit + 1) * (limit + 1)


# Node counts far beyond any allocation, so a missing guard fails fast.
@pytest.mark.parametrize("build", [
    lambda: Graph.from_edges(1 << 62, [(0, 1)]),
    lambda: load_edge_list(f"0\t{2**62}\n"),
])
def test_node_count_whose_keys_overflow_raises_before_allocating(build):
    tracemalloc.start()
    try:
        with pytest.raises(ScaleError):
            build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
