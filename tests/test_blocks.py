import random

import pytest
from hypothesis import given, settings

from genturan import (
    BlockDecomposition,
    DisconnectedGraphError,
    ForbiddenFamily,
    Graph,
    ParameterError,
    block_decomposition,
    build_H,
    count_cliques,
    enumerate_family_free,
    max_matching,
    star_transform,
    to_graph6,
)

from conftest import bowtie, connected_graphs, path_graph, random_connected_graph

ALL_GRAPHS = ForbiddenFamily(clique_order=2)


class TestBlockDecomposition:
    def test_path_blocks_are_edges(self):
        dec = block_decomposition(path_graph(4))
        assert dec.blocks == ((0, 1), (1, 2), (2, 3))
        assert dec.cut_vertices == (1, 2)
        assert dec.representatives == (None, 1, 2)

    def test_bowtie(self):
        dec = block_decomposition(bowtie())
        assert sorted(dec.blocks) == [(0, 1, 2), (2, 3, 4)]
        assert dec.cut_vertices == (2,)
        assert dec.representatives == (None, 2)

    def test_two_connected_h_graph_is_single_block(self):
        dec = block_decomposition(build_H(10, 5, 2))
        assert len(dec.blocks) == 1
        assert dec.blocks[0] == tuple(range(10))
        assert dec.cut_vertices == ()

    def test_single_vertex(self):
        dec = block_decomposition(Graph(1))
        assert dec.blocks == ((0,),)

    def test_empty_graph_has_no_blocks(self):
        assert block_decomposition(Graph(0)) == BlockDecomposition((), (), ())
        with pytest.raises(ParameterError, match="b1_index 0 out of range"):
            star_transform(Graph(0), 0, 0)

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            block_decomposition(Graph(4, [(0, 1), (2, 3)]))

    @settings(max_examples=60, deadline=None)
    @given(connected_graphs(max_n=9))
    def test_edge_partition_and_representatives(self, g):
        dec = block_decomposition(g)
        seen_edges = set()
        for block in dec.blocks:
            members = set(block)
            for u in block:
                for v in block:
                    if u < v and g.has_edge(u, v):
                        assert (u, v) not in seen_edges
                        seen_edges.add((u, v))
            assert members <= set(range(g.n))
        assert len(seen_edges) == g.num_edges
        covered = set(dec.blocks[0])
        for block, rep in zip(dec.blocks[1:], dec.representatives[1:]):
            shared = set(block) & covered
            assert shared == {rep}
            covered |= set(block)
        assert covered == set(range(g.n))


class TestStarTransform:
    def test_two_connected_graph_unchanged(self):
        g = Graph.complete(5)
        assert star_transform(g, 0, 3) == g

    def test_path_to_star(self):
        p4 = path_graph(4)
        b1 = block_decomposition(p4).blocks.index((0, 1))
        assert star_transform(p4, b1, 0) == Graph(4, [(0, 1), (0, 2), (0, 3)])

    def test_u1_not_in_block_rejected(self):
        for u1 in (3, -1, 4):
            with pytest.raises(ParameterError):
                star_transform(path_graph(4), 0, u1)

    def test_all_blocks_share_hub_afterwards(self):
        rng = random.Random(5150)
        for _ in range(40):
            g = random_connected_graph(rng, rng.randrange(3, 9), 0.15)
            dec = block_decomposition(g)
            b1 = rng.randrange(len(dec.blocks))
            u1 = rng.choice(dec.blocks[b1])
            st = star_transform(g, b1, u1)
            st_dec = block_decomposition(st)
            if len(st_dec.blocks) > 1:
                assert all(u1 in block for block in st_dec.blocks)

    @settings(max_examples=60, deadline=None)
    @given(connected_graphs(max_n=9))
    def test_preserves_edges_cliques_and_block_orders(self, g):
        dec = block_decomposition(g)
        b1 = len(dec.blocks) // 2
        u1 = dec.blocks[b1][0]
        st = star_transform(g, b1, u1)
        assert st.num_edges == g.num_edges
        for r in range(2, 6):
            assert count_cliques(st, r) == count_cliques(g, r)
        st_orders = sorted(len(b) for b in block_decomposition(st).blocks)
        assert st_orders == sorted(len(b) for b in dec.blocks)


class TestMatchingUnderStarTransform:
    """Recorded outcome of the exhaustive small-order corpus.

    The unconditional inequality nu(St(G, B1, u1)) <= nu(G) is FALSE: the
    first counterexamples appear at n = 6 (moving a pendant edge to a
    vertex that some maximum matching of B1 avoids can free an extra
    matching edge).  Restricted to hubs that every maximum matching of B1
    covers, no counterexample exists on <= 7 vertices.  These counts are
    frozen; any change in behavior fails the corpus.
    """

    EXPECTED_COUNTEREXAMPLES = {2: 0, 3: 0, 4: 0, 5: 0, 6: 6, 7: 20}
    FIRST_COUNTEREXAMPLE_N = 6

    @staticmethod
    def _induced_matching_number(g: Graph, members) -> int:
        remap = {v: i for i, v in enumerate(members)}
        edges = [
            (remap[u], remap[v])
            for u in members
            for v in members
            if u < v and g.has_edge(u, v)
        ]
        return max_matching(Graph(len(members), edges))

    def test_exhaustive_corpus(self):
        found = {}
        first = None
        essential_hub_violations = []
        for n in range(2, 8):
            count = 0
            for g in enumerate_family_free(n, ALL_GRAPHS):
                if not g.is_connected():
                    continue
                nu_g = max_matching(g)
                dec = block_decomposition(g)
                for b1 in range(len(dec.blocks)):
                    block = dec.blocks[b1]
                    nu_b1 = self._induced_matching_number(g, block)
                    for u1 in block:
                        st = star_transform(g, b1, u1)
                        if max_matching(st) > nu_g:
                            count += 1
                            if first is None:
                                first = (n, to_graph6(g))
                            rest = [v for v in block if v != u1]
                            if self._induced_matching_number(g, rest) < nu_b1:
                                essential_hub_violations.append((n, to_graph6(g)))
            found[n] = count
        assert found == self.EXPECTED_COUNTEREXAMPLES
        assert first is not None and first[0] == self.FIRST_COUNTEREXAMPLE_N
        assert essential_hub_violations == []
        print(
            "\nstar-transform matching corpus: unconditional inequality fails "
            f"{sum(found.values())} times on <= 7 vertices (first at n=6), "
            "never with an essential hub"
        )
