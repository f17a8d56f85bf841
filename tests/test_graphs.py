import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genturan import (
    Graph,
    ParameterError,
    count_cliques,
    count_cliques_by_enumeration,
    switch_vertex,
)
from genturan.graphs import reach, twin_kernel

from conftest import (
    bowtie,
    cycle_graph,
    graphs,
    graphs_with_twin_class,
    path_graph,
    star_graph,
)


class TestGraph:
    def test_basic_invariants(self):
        g = Graph(4, [(0, 1), (1, 2), (1, 2)])
        assert g.n == 4
        assert g.num_edges == 2
        assert g.has_edge(2, 1) and g.has_edge(1, 2)
        assert list(g.edges()) == [(0, 1), (1, 2)]

    def test_rejects_loops_and_out_of_range(self):
        with pytest.raises(ParameterError):
            Graph(3, [(1, 1)])
        with pytest.raises(ParameterError):
            Graph(3, [(0, 3)])

    def test_adjacency_mask_roundtrip(self):
        g = bowtie()
        rebuilt = Graph.from_adjacency_masks(g.adjacency_masks)
        assert rebuilt == g

    def test_from_adjacency_masks_rejects_asymmetry(self):
        with pytest.raises(ParameterError):
            Graph.from_adjacency_masks([0b010, 0b000, 0b000])

    def test_connectivity(self):
        assert path_graph(5).is_connected()
        assert not Graph(4, [(0, 1), (2, 3)]).is_connected()
        assert Graph(1).is_connected()

    def test_relabeled(self):
        g = path_graph(3)
        assert g.relabeled([2, 1, 0]) == Graph(3, [(1, 2), (0, 1)])

    def test_large_n_bitmask_path(self):
        # same code path must serve n > 64
        g = star_graph(80)
        assert g.num_edges == 79
        assert g.degree(0) == 79
        assert count_cliques(g, 2) == 79
        assert count_cliques(g, 3) == 0


class TestReach:
    @settings(max_examples=150, deadline=None)
    @given(graphs(max_n=12), st.data())
    def test_matches_set_based_bfs(self, g, data):
        full = (1 << g.n) - 1
        allowed = data.draw(st.integers(0, full))
        seeds = data.draw(st.integers(0, full))
        found = {v for v in range(g.n) if (seeds & allowed) >> v & 1}
        queue = list(found)
        while queue:
            v = queue.pop()
            for u in g.neighbors(v):
                if (allowed >> u) & 1 and u not in found:
                    found.add(u)
                    queue.append(u)
        assert reach(g.adjacency_masks, allowed, seeds) == sum(1 << v for v in found)


class TestTwinKernel:
    @settings(max_examples=80, deadline=None)
    @given(graphs_with_twin_class())
    def test_induced_on_the_lowest_class_members(self, g):
        kernel, labels = twin_kernel(g)
        assert list(labels) == sorted(set(labels))
        assert [(labels[u], labels[v]) for u, v in kernel.edges()] == [
            (u, v) for u, v in g.edges() if u in labels and v in labels
        ]
        classes = {}
        for v in range(g.n):
            classes.setdefault(g.adjacency_mask(v), []).append(v)
        for hood, members in classes.items():
            kept = members[: hood.bit_count()]
            assert [v for v in members if v in labels] == kept

    def test_nothing_to_drop_returns_the_graph(self):
        g = cycle_graph(6)
        assert twin_kernel(g) == (g, tuple(range(6)))


class TestCountCliques:
    def test_complete_graph_counts(self):
        k4 = Graph.complete(4)
        assert count_cliques(k4, 2) == 6
        assert [count_cliques(k4, r) for r in (1, 2, 3, 4, 5)] == [4, 6, 4, 1, 0]

    def test_n1_is_order_n2_is_size(self):
        g = bowtie()
        assert count_cliques(g, 1) == g.n
        assert count_cliques(g, 2) == g.num_edges

    def test_r_below_one_rejected(self):
        with pytest.raises(ParameterError):
            count_cliques(Graph(2), 0)

    @settings(max_examples=60, deadline=None)
    @given(graphs(max_n=8), st.integers(1, 5))
    def test_matches_subset_enumeration(self, g, r):
        assert count_cliques(g, r) == count_cliques_by_enumeration(g, r)

    @settings(max_examples=40, deadline=None)
    @given(graphs(max_n=7))
    def test_total_clique_count_consistency(self, g):
        # sum over r of N_r equals the count of all nonempty cliques
        total = sum(count_cliques(g, r) for r in range(1, g.n + 1))
        by_enum = sum(
            count_cliques_by_enumeration(g, r) for r in range(1, g.n + 1)
        )
        assert total == by_enum


class TestSwitchVertex:
    def test_isolated_vertex_empty_target_is_identity(self):
        g = Graph(4, [(0, 1), (1, 2)])
        assert switch_vertex(g, 3, []) == g

    def test_triangle_plus_vertex_becomes_k4(self):
        g = Graph(4, [(0, 1), (0, 2), (1, 2)])
        assert switch_vertex(g, 3, [0, 1, 2]) == Graph.complete(4)

    def test_rejects_vertex_in_target(self):
        with pytest.raises(ParameterError):
            switch_vertex(cycle_graph(4), 0, [0, 2])

    @settings(max_examples=60, deadline=None)
    @given(graphs(max_n=8, min_n=2), st.data())
    def test_degree_equals_target_size(self, g, data):
        v = data.draw(st.integers(0, g.n - 1))
        others = [u for u in range(g.n) if u != v]
        target = data.draw(st.sets(st.sampled_from(others)))
        h = switch_vertex(g, v, target)
        assert h.degree(v) == len(target)
        assert h.n == g.n
        # edges not touching v are untouched
        for u, w in g.edges():
            if v not in (u, w):
                assert h.has_edge(u, w)
