from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genturan import (
    Graph,
    ParameterError,
    build_extremal_odd,
    count_cliques,
    count_cliques_by_enumeration,
    maximum_matching_edges,
    switch_vertex,
)
from genturan.graphs import (
    _iter_bits,
    count_cliques_in_mask,
    reach,
    twin_kernel,
    twin_masks,
    twin_partition,
)

from conftest import (
    bowtie,
    cycle_graph,
    graphs,
    graphs_with_planted_classes,
    graphs_with_twin_class,
    path_graph,
    relabeled_witnesses,
    star_graph,
)


def _low_bit_walk(mask):
    """The plain low-bit loop, as the reference for _iter_bits."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _edges_by_low_bit_walk(g):
    return [
        (u, v + u + 1)
        for u in range(g.n)
        for v in _low_bit_walk(g.adjacency_mask(u) >> (u + 1))
    ]


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


class TestIterBits:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.integers(0, 2**64), st.integers(0, 2**3000)))
    def test_matches_low_bit_walk(self, mask):
        assert list(_iter_bits(mask)) == list(_low_bit_walk(mask))

    def test_wide_masks(self):
        for width in (301, 1024, 1025, 5000):
            for mask in ((1 << width) - 1, 1 << (width - 1), 0b1011 << (width - 4)):
                assert list(_iter_bits(mask)) == list(_low_bit_walk(mask))

    @settings(max_examples=60, deadline=None)
    @given(graphs(max_n=12))
    def test_edges_in_the_same_order(self, g):
        assert list(g.edges()) == _edges_by_low_bit_walk(g)

    def test_edges_of_wide_graphs(self):
        hub = star_graph(1500)
        assert list(hub.edges()) == _edges_by_low_bit_walk(hub) == [
            (0, v) for v in range(1, 1500)
        ]
        g = build_extremal_odd(400, 3, 10, 3)
        assert list(g.edges()) == _edges_by_low_bit_walk(g)

    def test_edges_of_a_large_witness(self):
        g = build_extremal_odd(10**5, 3, 10, 3)
        assert len(list(g.edges())) == g.num_edges


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
    @settings(max_examples=120, deadline=None)
    @given(st.one_of(
        graphs_with_twin_class(), graphs_with_planted_classes(), graphs(max_n=9)
    ))
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


def _assert_kinds(g, open_classes, closed_classes):
    """Open classes are two or more pairwise non-adjacent vertices, closed
    ones cliques; each kind is ordered by lowest member."""
    for members in open_classes:
        assert len(members) >= 2
        assert not any(g.has_edge(u, v) for u, v in combinations(members, 2))
    for members in closed_classes:
        assert all(g.has_edge(u, v) for u, v in combinations(members, 2))
    for kind in (open_classes, closed_classes):
        assert [c[0] for c in kind] == sorted(c[0] for c in kind)


class TestTwinPartition:
    @settings(max_examples=100, deadline=None)
    @given(st.one_of(graphs(max_n=9), graphs_with_planted_classes()))
    def test_classes_of_the_twin_relation(self, g):
        masks = g.adjacency_masks

        def twins(u, v):
            return masks[u] & ~(1 << v) == masks[v] & ~(1 << u)

        open_classes, closed_classes = twin_partition(masks)
        assert twin_partition(masks, (1 << g.n) - 1) == (open_classes, closed_classes)
        _assert_kinds(g, open_classes, closed_classes)
        classes = open_classes + closed_classes
        assert sorted(v for members in classes for v in members) == list(range(g.n))
        for members in classes:
            assert members == sorted(members)
            assert [u for u in range(g.n) if twins(members[0], u)] == members

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_classes_of_the_induced_twin_relation(self, data):
        g = data.draw(st.one_of(graphs(max_n=9), graphs_with_planted_classes()))
        alive = data.draw(st.integers(0, (1 << g.n) - 1))
        masks = g.adjacency_masks
        inside = [v for v in range(g.n) if (alive >> v) & 1]

        def twins(u, v):
            return (masks[u] & alive) & ~(1 << v) == (masks[v] & alive) & ~(1 << u)

        open_classes, closed_classes = twin_partition(masks, alive)
        _assert_kinds(g, open_classes, closed_classes)
        classes = open_classes + closed_classes
        assert sorted(v for members in classes for v in members) == inside
        for members in classes:
            assert members == sorted(members)
            assert [u for u in inside if twins(members[0], u)] == members
        expected = [0] * g.n
        for members in classes:
            for v in members:
                expected[v] = sum(1 << u for u in members)
        assert twin_masks(masks, alive) == expected


class TestCountCliques:
    def test_complete_graph_counts(self):
        k4 = Graph.complete(4)
        assert count_cliques(k4, 2) == 6
        assert [count_cliques(k4, r) for r in (1, 2, 3, 4, 5)] == [4, 6, 4, 1, 0]
        k40 = Graph.complete(40)  # one closed class, larger than the planted ones
        assert [count_cliques(k40, r) for r in range(1, 42)] == [
            comb(40, r) for r in range(1, 42)
        ]

    def test_n1_is_order_n2_is_size(self):
        g = bowtie()
        assert count_cliques(g, 1) == g.n
        assert count_cliques(g, 2) == g.num_edges

    def test_r_below_one_rejected(self):
        with pytest.raises(ParameterError):
            count_cliques(Graph(2), 0)

    def test_r_above_n_builds_no_quotient(self, monkeypatch):
        # growing the level on size vertices, the oracle counts K_{size+1}
        # on every parent, which has size - 1 vertices
        def refuse(graph):
            raise AssertionError("clique_quotient built for r > n")

        monkeypatch.setattr("genturan.graphs.clique_quotient", refuse)
        for n in range(5):
            for r in (n + 1, n + 2):
                assert count_cliques(Graph.complete(n), r) == 0

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

    @settings(max_examples=150, deadline=None)
    @given(graphs_with_planted_classes())
    def test_planted_classes_against_the_plain_recursion(self, g):
        full = (1 << g.n) - 1
        for r in range(3, g.n + 2):
            expected = count_cliques_in_mask(g.adjacency_masks, full, r)
            assert count_cliques(g, r) == expected
            if g.n <= 9:
                assert expected == count_cliques_by_enumeration(g, r)

    def test_relabeled_witnesses_against_networkx(self):
        nx = pytest.importorskip("networkx")
        for g in relabeled_witnesses():
            h = nx.Graph(list(g.edges()))
            h.add_nodes_from(range(g.n))
            sizes = [len(clique) for clique in nx.enumerate_all_cliques(h)]
            for r in range(3, g.n + 2):
                assert count_cliques(g, r) == sizes.count(r), (g, r)

    def test_caches_leave_equality_and_hashing(self):
        for g in relabeled_witnesses():
            plain = Graph(g.n, g.edges())
            count_cliques(g, 3)
            twin_kernel(g)
            maximum_matching_edges(g)
            assert g == plain and plain == g
            assert hash(g) == hash(plain)
            assert plain in {g}


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
