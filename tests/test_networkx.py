"""Differential tests against networkx, an independent implementation.

Test-only: the package does not depend on networkx, and this module is
skipped where it is not installed.
"""

import random

import pytest
from hypothesis import given, settings

from genturan import (
    Graph,
    block_decomposition,
    build_H,
    build_St1,
    build_St2,
    build_extremal_odd,
    ex_odd,
    max_matching,
    to_graph6,
)

from conftest import connected_graphs, graphs, random_graph

nx = pytest.importorskip("networkx")


def _to_nx(g: Graph):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def _relabeled_witnesses():
    """Extremal witnesses of every kind up to n = 60, each relabelled by a
    seeded permutation."""
    rng = random.Random(60)
    built = []
    for k in (2, 3, 4):
        for s in (2 * k + 1, 3 * k, 4 * k):
            for r in (2, k + 1):
                attached = ex_odd(10**6, k, s, r).witness.attached
                order = (2 * k + 1) + sum(c - 1 for c in attached)
                for n in sorted({order, (order + 60) // 2, 60}):
                    built.append(build_extremal_odd(n, k, s, r))
    for k in (2, 4, 6):
        for q in (1, 3):
            for n in ((q - 1) * (2 * k - 2) + 2 * k, 60):
                built.append(build_St1(n, k, q))
                built.append(build_St2(n, k, q))
    for k, a in ((5, 1), (8, 2), (10, 4)):
        built.append(build_H(30, k, a))
    for g in built:
        perm = list(range(g.n))
        rng.shuffle(perm)
        yield g.relabeled(perm)


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


class TestMaxMatching:
    def test_witnesses_match_networkx(self):
        count = 0
        for g in _relabeled_witnesses():
            expected = len(nx.max_weight_matching(_to_nx(g), maxcardinality=True))
            assert max_matching(g) == expected, to_graph6(g)
            count += 1
        assert count > 60


class TestBlocks:
    @settings(max_examples=100, deadline=None)
    @given(connected_graphs(max_n=12))
    def test_blocks_match_biconnected_components(self, g):
        dec = block_decomposition(g)
        components = [tuple(sorted(c)) for c in nx.biconnected_components(_to_nx(g))]
        assert sorted(dec.blocks) == sorted(components)
        assert sorted(dec.block_orders()) == sorted(len(c) for c in components)

    def test_witness_block_orders(self):
        for g in _relabeled_witnesses():
            orders = [len(c) for c in nx.biconnected_components(_to_nx(g))]
            assert sorted(block_decomposition(g).block_orders()) == sorted(orders)
