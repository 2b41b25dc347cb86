"""Unit tests for the CSR graph core."""

import numpy as np
import pytest

from repro.graphs import Graph, WeightedGraph


@pytest.fixture()
def triangle():
    return Graph(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture()
def path4():
    return Graph(4, [(0, 1), (1, 2), (2, 3)])


class TestConstruction:
    def test_counts(self, triangle):
        assert triangle.num_nodes == 3
        assert triangle.num_edges == 3
        assert triangle.num_arcs == 6

    def test_empty_graph(self):
        g = Graph(4, [])
        assert g.num_edges == 0
        assert g.degree(0) == 0

    def test_single_edge(self):
        g = Graph(2, [(0, 1)])
        assert list(g.neighbors(0)) == [1]
        assert list(g.neighbors(1)) == [0]

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(2, [(0, 2)])

    def test_negative_node_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(2, [(-1, 0)])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(3, [(1, 1)])

    def test_multi_edges_allowed(self):
        g = Graph(2, [(0, 1), (0, 1)])
        assert g.num_edges == 2
        assert g.degree(0) == 2

    def test_repr(self, triangle):
        assert "n=3" in repr(triangle)
        assert "m=3" in repr(triangle)


class TestDegreesAndArcs:
    def test_degrees(self, path4):
        assert path4.degrees.tolist() == [1, 2, 2, 1]
        assert path4.max_degree == 2

    def test_degree_accessor(self, path4):
        assert path4.degree(1) == 2

    def test_indptr_consistent(self, triangle):
        assert triangle.indptr[-1] == triangle.num_arcs
        assert np.all(np.diff(triangle.indptr) == triangle.degrees)

    def test_arc_twin_involution(self, triangle):
        twins = triangle.arc_twin
        assert np.all(twins[twins] == np.arange(triangle.num_arcs))

    def test_arc_twin_reverses(self, triangle):
        tails = triangle.arc_tails
        for arc in range(triangle.num_arcs):
            twin = triangle.arc_twin[arc]
            assert tails[arc] == triangle.indices[twin]
            assert triangle.indices[arc] == tails[twin]

    def test_arc_edge_shared_with_twin(self, triangle):
        for arc in range(triangle.num_arcs):
            assert triangle.arc_edge[arc] == triangle.arc_edge[
                triangle.arc_twin[arc]
            ]

    def test_arc_tail(self, path4):
        for arc in range(path4.num_arcs):
            assert path4.arc_tail(arc) == path4.arc_tails[arc]

    def test_arcs_of(self, path4):
        arcs = list(path4.arcs_of(1))
        assert len(arcs) == 2
        assert sorted(int(path4.indices[a]) for a in arcs) == [0, 2]

    def test_edges_iteration(self, triangle):
        assert sorted(triangle.edges()) == [(0, 1), (0, 2), (1, 2)]

    def test_edge_array_shape(self, triangle):
        assert triangle.edge_array.shape == (3, 2)

    def test_has_edge(self, path4):
        assert path4.has_edge(0, 1)
        assert not path4.has_edge(0, 3)


class TestTraversal:
    def test_bfs_order_covers_component(self, path4):
        assert sorted(path4.bfs_order(0)) == [0, 1, 2, 3]

    def test_bfs_order_starts_at_source(self, path4):
        assert path4.bfs_order(2)[0] == 2

    def test_bfs_distances(self, path4):
        assert path4.bfs_distances(0).tolist() == [0, 1, 2, 3]

    def test_bfs_distance_unreachable(self):
        g = Graph(3, [(0, 1)])
        assert g.bfs_distances(0)[2] == -1

    def test_connected(self, triangle, path4):
        assert triangle.is_connected()
        assert path4.is_connected()

    def test_disconnected(self):
        assert not Graph(3, [(0, 1)]).is_connected()

    def test_empty_connected(self):
        assert Graph(1, []).is_connected()

    def test_diameter(self, path4, triangle):
        assert path4.diameter() == 3
        assert triangle.diameter() == 1

    def test_diameter_disconnected_raises(self):
        with pytest.raises(ValueError, match="disconnected"):
            Graph(3, [(0, 1)]).diameter()

    def test_connected_components(self):
        g = Graph(5, [(0, 1), (2, 3)])
        comps = sorted(sorted(c) for c in g.connected_components())
        assert comps == [[0, 1], [2, 3], [4]]


class TestWeightedGraph:
    def test_weights_stored(self):
        g = WeightedGraph(3, [(0, 1), (1, 2)], [0.5, 1.5])
        assert g.edge_weight(0) == 0.5
        assert g.edge_weight(1) == 1.5

    def test_wrong_weight_count(self):
        with pytest.raises(ValueError, match="expected 2 weights"):
            WeightedGraph(3, [(0, 1), (1, 2)], [0.5])

    def test_edge_key_breaks_ties(self):
        g = WeightedGraph(3, [(0, 1), (1, 2)], [1.0, 1.0])
        assert g.edge_key(0) < g.edge_key(1)

    def test_total_weight(self):
        g = WeightedGraph(3, [(0, 1), (1, 2)], [0.5, 1.5])
        assert g.total_weight([0, 1]) == pytest.approx(2.0)
        assert g.total_weight([]) == 0.0

    def test_inherits_graph_api(self):
        g = WeightedGraph(3, [(0, 1), (1, 2)], [0.5, 1.5])
        assert g.is_connected()
        assert g.diameter() == 2

    def test_repr(self):
        g = WeightedGraph(3, [(0, 1)], [1.0])
        assert "WeightedGraph" in repr(g)


def _loop_csr(num_nodes, edges):
    """The per-edge loop construction, kept as the oracle for the array
    construction: validation, then each edge's u-arc and v-arc take the
    next free slot of their rows in edge order."""
    edge_list = [(int(u), int(v)) for u, v in edges]
    for u, v in edge_list:
        if not (0 <= u < num_nodes and 0 <= v < num_nodes):
            raise ValueError(
                f"edge ({u}, {v}) out of range for {num_nodes} nodes"
            )
        if u == v:
            raise ValueError(f"self-loop at node {u} is not supported")
    n, m = num_nodes, len(edge_list)
    degree = np.zeros(n, dtype=np.int64)
    for u, v in edge_list:
        degree[u] += 1
        degree[v] += 1
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degree, out=indptr[1:])
    indices = np.empty(2 * m, dtype=np.int64)
    arc_twin = np.empty(2 * m, dtype=np.int64)
    arc_edge = np.empty(2 * m, dtype=np.int64)
    cursor = indptr[:-1].copy()
    for eid, (u, v) in enumerate(edge_list):
        a = cursor[u]
        cursor[u] += 1
        b = cursor[v]
        cursor[v] += 1
        indices[a], indices[b] = v, u
        arc_twin[a], arc_twin[b] = b, a
        arc_edge[a] = arc_edge[b] = eid
    edge_array = np.array(
        edge_list if edge_list else np.empty((0, 2)), dtype=np.int64
    ).reshape(-1, 2)
    return {
        "indptr": indptr,
        "indices": indices,
        "arc_twin": arc_twin,
        "arc_edge": arc_edge,
        "degrees": degree,
        "edge_array": edge_array,
    }


def _loop_arc_tails(graph):
    tails = np.empty(graph.num_arcs, dtype=np.int64)
    for v in range(graph.num_nodes):
        tails[graph.indptr[v]: graph.indptr[v + 1]] = v
    return tails


def _assert_matches_oracle(graph, num_nodes, edge_list):
    expected = _loop_csr(num_nodes, edge_list)
    for name, want in expected.items():
        got = getattr(graph, name)
        assert got.dtype == want.dtype, name
        assert got.shape == want.shape, name
        assert np.array_equal(got, want), name
    assert graph.num_nodes == num_nodes
    assert graph.num_edges == len(edge_list)


def _random_multigraph(rng, n, m):
    """``m`` random non-loop edges on ``n`` nodes; parallel edges and
    isolated nodes are likely at these densities."""
    u = rng.integers(0, n, size=m)
    v = (u + rng.integers(1, n, size=m)) % n
    return [(int(a), int(b)) for a, b in zip(u, v)]


class TestArrayConstructionMatchesLoop:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_multigraphs(self, seed):
        rng = np.random.default_rng(900 + seed)
        n = int(rng.integers(2, 40))
        m = int(rng.integers(0, 3 * n))
        edges = _random_multigraph(rng, n, m)
        # Force parallel edges in both orientations.
        if edges:
            edges += [edges[0], edges[0][::-1]]
        _assert_matches_oracle(Graph(n, edges), n, edges)

    def test_isolated_nodes_and_heavy_parallels(self):
        edges = [(3, 7)] * 5 + [(7, 3)] * 4 + [(0, 9), (9, 0), (3, 0)]
        _assert_matches_oracle(Graph(12, edges), 12, edges)

    def test_no_edges(self):
        _assert_matches_oracle(Graph(5, []), 5, [])

    def test_single_node(self):
        _assert_matches_oracle(Graph(1, []), 1, [])

    @pytest.mark.parametrize("n", [3_000, 70_000])
    def test_large_multigraph(self, n):
        # Node ids past 8 and 16 bits: the sort dtype widens with n.
        rng = np.random.default_rng(907)
        edges = _random_multigraph(rng, n, 2 * n)
        _assert_matches_oracle(Graph(n, edges), n, edges)

    @pytest.mark.parametrize(
        "form", ["tuples", "lists", "generator", "int32", "int64"]
    )
    def test_edge_input_forms(self, form):
        rng = np.random.default_rng(908)
        edges = _random_multigraph(rng, 20, 60)
        given = {
            "tuples": lambda: list(edges),
            "lists": lambda: [list(e) for e in edges],
            "generator": lambda: ((u, v) for u, v in edges),
            "int32": lambda: np.array(edges, dtype=np.int32),
            "int64": lambda: np.array(edges, dtype=np.int64),
        }[form]()
        _assert_matches_oracle(Graph(20, given), 20, edges)

    def test_caller_array_is_copied(self):
        edges = np.array([(0, 1), (1, 2), (2, 3)], dtype=np.int64)
        graph = Graph(4, edges)
        before = {
            name: getattr(graph, name).copy()
            for name in ("edge_array", "indices", "arc_edge", "arc_twin")
        }
        edges[:] = [(3, 2), (2, 1), (1, 0)]
        for name, want in before.items():
            assert np.array_equal(getattr(graph, name), want), name

    @pytest.mark.parametrize(
        "edges",
        [
            [(0, 1), (1, 5), (2, 2), (0, 9)],
            [(0, 1), (3, 3), (1, 5), (2, 2)],
            [(0, 1), (-1, 2), (4, 4)],
            [(4, 4), (0, 7)],
            [(0, 1), (2, 6), (6, 2)],
        ],
    )
    def test_first_offending_edge_reported(self, edges):
        with pytest.raises(ValueError) as want:
            _loop_csr(5, edges)
        with pytest.raises(ValueError) as got:
            Graph(5, edges)
        assert str(got.value) == str(want.value)
        with pytest.raises(ValueError) as got_array:
            Graph(5, np.array(edges))
        assert str(got_array.value) == str(want.value)

    def test_malformed_rows_rejected(self):
        with pytest.raises(ValueError):
            Graph(4, [(0, 1, 2)])


class TestArcTails:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_node_loop(self, seed):
        rng = np.random.default_rng(920 + seed)
        n = int(rng.integers(2, 50))
        edges = _random_multigraph(rng, n, int(rng.integers(0, 4 * n)))
        graph = Graph(n + 3, edges)  # three isolated trailing nodes
        tails = graph.arc_tails
        want = _loop_arc_tails(graph)
        assert tails.dtype == want.dtype
        assert np.array_equal(tails, want)
