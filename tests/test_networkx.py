"""Differential tests against networkx, an independent implementation.

Test-only: the package does not depend on networkx, and this module is
skipped where it is not installed.
"""

import random

import pytest
from hypothesis import given, settings

from genturan import (
    Graph,
    berge_tutte_certificate,
    block_decomposition,
    from_graph6,
    max_matching,
    to_graph6,
)
from genturan.blocks import _raw_blocks

from conftest import connected_graphs, graphs, random_graph, relabeled_witnesses

nx = pytest.importorskip("networkx")


def _to_nx(g: Graph):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


class TestGraph6:
    @settings(max_examples=100, deadline=None)
    @given(graphs(max_n=12))
    def test_matches_networkx(self, g):
        expected = nx.to_graph6_bytes(_to_nx(g), header=False).decode().strip()
        assert to_graph6(g) == expected

    def test_matches_networkx_beyond_one_byte_order(self):
        rng = random.Random(63)
        for n in (62, 63, 64, 100):
            g = random_graph(rng, n, 0.3)
            expected = nx.to_graph6_bytes(_to_nx(g), header=False).decode().strip()
            assert to_graph6(g) == expected, n

    @staticmethod
    def _decodes_like_networkx(text: str) -> None:
        h = nx.from_graph6_bytes(text.encode())
        g = from_graph6(text)
        assert g.n == h.number_of_nodes()
        assert set(g.edges()) == {(min(e), max(e)) for e in h.edges()}

    @settings(max_examples=100, deadline=None)
    @given(graphs(max_n=12, min_n=0))
    def test_decode_matches_networkx(self, g):
        self._decodes_like_networkx(to_graph6(g))

    def test_decode_matches_networkx_beyond_one_byte_order(self):
        # n = 62 is the last one-byte order field, 63 and up take four bytes
        rng = random.Random(64)
        for n in (62, 63, 64, 100):
            for p in (0.05, 0.5, 0.95):
                h = nx.gnp_random_graph(n, p, seed=rng.randrange(10**6))
                self._decodes_like_networkx(
                    nx.to_graph6_bytes(h, header=False).decode().strip()
                )


class TestMaxMatching:
    def test_witnesses_match_networkx(self):
        count = 0
        for g in relabeled_witnesses():
            expected = len(nx.max_weight_matching(_to_nx(g), maxcardinality=True))
            assert max_matching(g) == expected, to_graph6(g)
            count += 1
        assert count > 60

    def test_random_graphs_up_to_60(self):
        rng = random.Random(1965)
        for _ in range(150):
            n = rng.randrange(2, 61)
            g = random_graph(rng, n, rng.choice([1 / n, 2 / n, 4 / n, 0.3]))
            expected = len(nx.max_weight_matching(_to_nx(g), maxcardinality=True))
            assert max_matching(g) == expected, to_graph6(g)
            cert = berge_tutte_certificate(g, expected)
            assert cert.matching_upper_bound == expected, to_graph6(g)


def _mask(vertices) -> int:
    return sum(1 << v for v in vertices)


class TestBlocks:
    @settings(max_examples=100, deadline=None)
    @given(connected_graphs(max_n=12))
    def test_blocks_match_biconnected_components(self, g):
        dec = block_decomposition(g)
        h = _to_nx(g)
        components = [tuple(sorted(c)) for c in nx.biconnected_components(h)]
        assert sorted(dec.blocks) == sorted(components)
        assert sorted(dec.block_orders()) == sorted(len(c) for c in components)
        assert dec.cut_vertices == tuple(sorted(nx.articulation_points(h)))

    def test_witness_block_orders(self):
        for g in relabeled_witnesses():
            h = _to_nx(g)
            dec = block_decomposition(g)
            orders = [len(c) for c in nx.biconnected_components(h)]
            assert sorted(dec.block_orders()) == sorted(orders)
            assert dec.cut_vertices == tuple(sorted(nx.articulation_points(h)))

    @settings(max_examples=150, deadline=None)
    @given(graphs(max_n=13, min_n=0))
    def test_raw_blocks_on_any_graph(self, g):
        # _raw_blocks also runs on disconnected twin kernels, which
        # block_decomposition rejects: every component and every isolated
        # vertex must come out
        masks, cuts = _raw_blocks(g)
        h = _to_nx(g)
        expected = [_mask(c) for c in nx.biconnected_components(h)]
        expected += [1 << v for v in nx.isolates(h)]
        assert len(masks) == len(set(masks))
        assert set(masks) == set(expected)
        assert cuts == _mask(nx.articulation_points(h))
