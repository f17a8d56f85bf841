import random
from dataclasses import replace
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genturan import (
    ForbiddenFamily,
    Graph,
    SizeLimitError,
    berge_tutte_certificate,
    build_H,
    build_extremal_odd,
    enumerate_family_free,
    max_matching,
    max_matching_by_enumeration,
    maximum_matching_edges,
)
from genturan.matching import _component_sizes as _linear_component_sizes
from genturan.matching import (
    _greedy_matching,
    _validate_certificate,
    gallai_edmonds_set,
    has_matching_of_size,
)

from conftest import cycle_graph, graphs, graphs_with_twin_class, random_graph, star_graph

ALL_GRAPHS = ForbiddenFamily(clique_order=2)


def _is_matching(g: Graph, edges) -> bool:
    seen = set()
    for u, v in edges:
        if not g.has_edge(u, v) or u in seen or v in seen:
            return False
        seen.update((u, v))
    return True


class TestMaxMatching:
    def test_small_named_graphs(self):
        assert max_matching(cycle_graph(5)) == 2
        assert max_matching(star_graph(8)) == 1
        assert max_matching(Graph.complete(7)) == 3
        assert max_matching(Graph(6, [(0, 1), (2, 3), (4, 5)])) == 3
        assert max_matching(Graph(3)) == 0

    def test_petersen_graph_has_perfect_matching(self):
        outer = [(i, (i + 1) % 5) for i in range(5)]
        inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        spokes = [(i, i + 5) for i in range(5)]
        assert max_matching(Graph(10, outer + inner + spokes)) == 5

    def test_odd_blossom_chain(self):
        # two triangles joined by a path: needs blossom handling
        g = Graph(
            8,
            [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (5, 7), (6, 7)],
        )
        assert max_matching(g) == max_matching_by_enumeration(g) == 4

    def test_h_graph_matching_number(self):
        assert max_matching(build_H(12, 7, 3)) == 3
        for (n, k, a) in [(10, 5, 2), (12, 6, 2), (9, 8, 4), (30, 9, 3)]:
            assert max_matching(build_H(n, k, a)) == k // 2

    def test_exhaustive_all_labeled_graphs_n_le_5(self):
        for n in range(1, 6):
            pairs = list(combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                g = Graph(n, [e for i, e in enumerate(pairs) if (mask >> i) & 1])
                assert max_matching(g) == max_matching_by_enumeration(g)

    def test_exhaustive_classes_n_6_7(self):
        for n in (6, 7):
            for g in enumerate_family_free(n, ALL_GRAPHS):
                assert max_matching(g) == max_matching_by_enumeration(g)

    def test_random_graphs_up_to_12(self):
        rng = random.Random(20240817)
        for _ in range(150):
            n = rng.randrange(2, 13)
            g = random_graph(rng, n, rng.choice([0.15, 0.3, 0.5, 0.8]))
            assert max_matching(g) == max_matching_by_enumeration(g)

    def test_greedy_start_matches_pendants(self):
        # K_m, labelled first, with a pendant at each clique vertex: visited
        # by label the clique vertices would pair off and leave every
        # pendant exposed; by increasing degree each pendant takes its
        # clique vertex, and the blossom starts from a perfect matching
        for m in (2, 3, 10, 101):
            clique = (1 << m) - 1
            adj = tuple(clique ^ 1 << v | 1 << (m + v) for v in range(m))
            adj += tuple(1 << v for v in range(m))
            match = _greedy_matching(adj, 2 * m)
            assert match == [m + v for v in range(m)] + list(range(m))

    def test_enumeration_oracle_size_limit(self):
        with pytest.raises(SizeLimitError):
            max_matching_by_enumeration(Graph(13))

    @settings(max_examples=60, deadline=None)
    @given(graphs(max_n=9))
    def test_witness_edges_form_maximum_matching(self, g):
        edges = maximum_matching_edges(g)
        assert _is_matching(g, edges)
        assert len(edges) == max_matching_by_enumeration(g)


class TestCachedMatching:
    def test_each_call_returns_a_fresh_list(self):
        g = build_H(12, 7, 3)
        first = maximum_matching_edges(g)
        expected = list(first)
        first.pop()
        first.append((0, 0))
        assert maximum_matching_edges(g) == expected
        assert maximum_matching_edges(g) is not maximum_matching_edges(g)

    def test_cache_belongs_to_its_graph(self):
        rng = random.Random(17)
        corpus = [
            random_graph(rng, rng.randrange(2, 11), rng.random()) for _ in range(60)
        ]
        for _ in range(2):  # the second round reads every graph's cache
            for g in corpus:
                edges = maximum_matching_edges(g)
                assert _is_matching(g, edges)
                assert max_matching(g) == len(edges) == max_matching_by_enumeration(g)


class TestTwinKernel:
    @settings(max_examples=80, deadline=None)
    @given(graphs_with_twin_class())
    def test_planted_twins_against_enumeration(self, g):
        edges = maximum_matching_edges(g)
        assert max_matching(g) == len(edges) == max_matching_by_enumeration(g)
        assert _is_matching(g, edges)
        assert edges == sorted(edges) and all(u < v for u, v in edges)


def _induced(g: Graph, active: int) -> Graph:
    members = [v for v in range(g.n) if (active >> v) & 1]
    index = {v: i for i, v in enumerate(members)}
    return Graph(
        len(members),
        [(index[u], index[v]) for u, v in g.edges() if u in index and v in index],
    )


class TestHasMatchingOfSize:
    @settings(max_examples=80, deadline=None)
    @given(graphs(max_n=9), st.data())
    def test_against_enumeration_on_induced_subgraphs(self, g, data):
        active = data.draw(st.integers(0, (1 << g.n) - 1))
        nu = max_matching_by_enumeration(_induced(g, active))
        assert has_matching_of_size(g.adjacency_masks, active, nu)
        assert not has_matching_of_size(g.adjacency_masks, active, nu + 1)


class TestBergeTutteCertificate:
    def test_odd_clique_empty_set(self):
        for k in (1, 2, 3):
            cert = berge_tutte_certificate(Graph.complete(2 * k + 1), k)
            assert cert is not None
            assert cert.vertex_set == ()
            assert cert.component_sizes == (2 * k + 1,)

    def test_perfect_matching_graph_has_no_certificate(self):
        s = 2
        g = Graph(2 * s + 2, [(2 * i, 2 * i + 1) for i in range(s + 1)])
        assert berge_tutte_certificate(g, s) is None

    def test_h_graph_example(self):
        cert = berge_tutte_certificate(build_H(12, 5, 2), 2)
        assert cert is not None
        assert cert.vertex_set == (0, 1)
        assert sorted(cert.component_sizes) == [1] * 10
        assert cert.slack == 0
        assert cert.isolated_count == 10
        assert cert.large_component_sizes == ()

    def test_no_size_limit(self):
        g = Graph(21)
        cert = berge_tutte_certificate(g, 3)
        assert cert.vertex_set == () and cert.component_sizes == (1,) * 21
        assert cert.slack == 3 - max_matching(g)
        g = build_extremal_odd(24, 2, 5, 2)
        cert = berge_tutte_certificate(g, 5)
        assert cert.slack == 5 - max_matching(g)
        assert sum(cert.component_sizes) + len(cert.vertex_set) == 24

    def test_large_witness(self):
        g = build_extremal_odd(5000, 3, 10, 3)
        cert = berge_tutte_certificate(g, 10)
        assert cert is not None and cert.bound == 10
        assert cert.matching_upper_bound == max_matching(g) == 10 - cert.slack
        assert sum(cert.component_sizes) + len(cert.vertex_set) == 5000

    def test_iff_on_all_classes_up_to_6(self):
        for n in range(1, 7):
            for g in enumerate_family_free(n, ALL_GRAPHS):
                nu = max_matching(g)
                for s in range(0, n // 2 + 1):
                    cert = berge_tutte_certificate(g, s)
                    if nu <= s:
                        assert cert is not None and cert.slack >= 0
                        assert sum(cert.component_sizes) + len(cert.vertex_set) == n
                    else:
                        assert cert is None

    def test_component_structure_bound(self):
        # deleting X leaves at most 3s non-isolated-component vertices
        rng = random.Random(99)
        for _ in range(120):
            n = rng.randrange(2, 11)
            g = random_graph(rng, n, rng.choice([0.2, 0.4, 0.6]))
            nu = max_matching(g)
            for s in range(nu, min(n, nu + 2) + 1):
                cert = berge_tutte_certificate(g, s)
                assert cert is not None
                big = sum(cert.large_component_sizes)
                assert len(cert.vertex_set) + big <= 3 * s
                assert cert.isolated_count >= n - 3 * s


def _neighbours(g: Graph) -> list[set[int]]:
    nbrs = [set() for _ in range(g.n)]
    for u, v in g.edges():
        nbrs[u].add(v)
        nbrs[v].add(u)
    return nbrs


def _component_sizes(nbrs: list[set[int]], removed: set[int]) -> list[int]:
    seen = set(removed)
    sizes = []
    for v in range(len(nbrs)):
        if v not in seen:
            seen.add(v)
            stack, size = [v], 0
            while stack:
                x = stack.pop()
                size += 1
                for y in nbrs[x] - seen:
                    seen.add(y)
                    stack.append(y)
            sizes.append(size)
    return sizes


def certificate_by_subset_scan(g: Graph) -> tuple[int, set[tuple[int, ...]]]:
    """Reference: the least |X| + sum floor(|K|/2) over every vertex set X
    (K running over the components of G - X), and the sets attaining it."""
    nbrs = _neighbours(g)
    best, attaining = g.n + 1, set()
    for size in range(g.n + 1):
        for subset in combinations(range(g.n), size):
            value = size + sum(c // 2 for c in _component_sizes(nbrs, set(subset)))
            if value < best:
                best, attaining = value, set()
            if value == best:
                attaining.add(subset)
    return best, attaining


def _deficient_by_enumeration(g: Graph) -> set[int]:
    """D, the vertices missed by some maximum matching, found as the v with
    nu(G - v) = nu(G)."""
    nu = max_matching_by_enumeration(g)
    deficient = set()
    for v in range(g.n):
        rest = [u for u in range(g.n) if u != v]
        index = {u: i for i, u in enumerate(rest)}
        minus_v = Graph(
            g.n - 1, [(index[a], index[b]) for a, b in g.edges() if v not in (a, b)]
        )
        if max_matching_by_enumeration(minus_v) == nu:
            deficient.add(v)
    return deficient


def _gallai_edmonds_by_enumeration(g: Graph) -> tuple[int, ...]:
    """A = N(D) - D, D the vertices missed by some maximum matching."""
    deficient = _deficient_by_enumeration(g)
    nbrs = _neighbours(g)
    return tuple(sorted(set().union(*(nbrs[v] for v in deficient)) - deficient))


class TestGallaiEdmondsSet:
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(graphs(max_n=10), graphs_with_twin_class(max_n=10)))
    def test_against_enumeration(self, g):
        d = gallai_edmonds_set(g)
        assert {v for v in range(g.n) if (d >> v) & 1} == _deficient_by_enumeration(g)

    def test_named_graphs(self):
        # an odd cycle misses any vertex; a star misses its leaves; a
        # perfect matching misses none
        assert gallai_edmonds_set(cycle_graph(7)) == (1 << 7) - 1
        assert gallai_edmonds_set(star_graph(5)) == 0b11110
        assert gallai_edmonds_set(cycle_graph(6)) == 0
        assert gallai_edmonds_set(Graph(0)) == 0


class TestGallaiEdmondsCertificate:
    @settings(max_examples=60, deadline=None)
    @given(graphs(max_n=12))
    def test_vertex_set_is_gallai_edmonds_set(self, g):
        nu = max_matching_by_enumeration(g)
        cert = berge_tutte_certificate(g, nu)
        assert cert.vertex_set == _gallai_edmonds_by_enumeration(g)
        assert cert.slack == 0 and cert.matching_upper_bound == nu

    @settings(max_examples=25, deadline=None)
    @given(graphs(max_n=12))
    def test_subset_scan_minimum_is_nu_and_attained(self, g):
        nu = max_matching_by_enumeration(g)
        best, attaining = certificate_by_subset_scan(g)
        assert best == nu
        cert = berge_tutte_certificate(g, nu)
        assert cert.vertex_set in attaining
        sizes = _component_sizes(_neighbours(g), set(cert.vertex_set))
        assert sorted(sizes) == sorted(cert.component_sizes)

    def test_random_graphs_up_to_12(self):
        rng = random.Random(1965)
        for _ in range(60):
            g = random_graph(rng, rng.randrange(8, 13), rng.choice([0.15, 0.3, 0.5]))
            nu = max_matching_by_enumeration(g)
            cert = berge_tutte_certificate(g, nu)
            assert cert.vertex_set == _gallai_edmonds_by_enumeration(g)
            best, attaining = certificate_by_subset_scan(g)
            assert best == nu and cert.vertex_set in attaining

    @settings(max_examples=200, deadline=None)
    @given(graphs(max_n=20), st.randoms(use_true_random=False))
    def test_component_sizes_against_reference(self, g, rnd):
        removed = tuple(sorted(rnd.sample(range(g.n), rnd.randrange(g.n + 1))))
        assert sorted(_linear_component_sizes(g, removed)) == sorted(
            _component_sizes(_neighbours(g), set(removed))
        )

    def test_validation_rejects_forged_certificates(self):
        star = Graph(4, [(3, 0), (3, 1), (3, 2)])
        cert = berge_tutte_certificate(star, 1)
        assert cert.vertex_set == (3,) and cert.component_sizes == (1, 1, 1)
        for forged in (
            replace(cert, vertex_set=(-1,)),  # aliases vertex 3 in a bytearray
            replace(cert, vertex_set=(4,)),
            replace(cert, vertex_set=(3, 3)),
            replace(cert, vertex_set=()),
            replace(cert, component_sizes=(1, 1, 2)),
            replace(cert, slack=1),
        ):
            with pytest.raises(AssertionError):
                _validate_certificate(star, forged, 1)

    @settings(max_examples=60, deadline=None)
    @given(graphs(max_n=12), st.randoms(use_true_random=False))
    def test_relabelling_maps_the_certificate(self, g, rnd):
        perm = list(range(g.n))
        rnd.shuffle(perm)
        nu = max_matching(g)
        cert = berge_tutte_certificate(g, nu + 1)
        image = berge_tutte_certificate(g.relabeled(perm), nu + 1)
        assert image.vertex_set == tuple(sorted(perm[v] for v in cert.vertex_set))
        assert sorted(image.component_sizes) == sorted(cert.component_sizes)
        assert image.slack == cert.slack == 1
