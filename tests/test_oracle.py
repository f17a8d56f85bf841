import gc
import json
import os
import random
from functools import cache
from itertools import chain, combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genturan import (
    ForbiddenFamily,
    Graph,
    OracleSizeError,
    ParameterError,
    brute_force_ex,
    build_H,
    build_St2,
    build_woodall_G0,
    canonical_graph,
    canonical_graph6,
    count_cliques,
    enumerate_family_free,
    ex_matching_only,
    from_graph6,
    is_family_free,
    to_graph6,
    verify_formula_region,
    woodall_bound,
)

from genturan.cycles import circumference_by_enumeration
from genturan.graphs import twin_masks, twin_partition
from genturan.matching import max_matching_by_enumeration
from genturan import oracle as oracle_module
from genturan.graph_io import graph6_body
from genturan.oracle import (
    _columns,
    _free_extension_test,
    _grow_classes,
    _is_minimal,
    _worker_count,
    canonical_encoding,
    graph_from_encoding,
)

from conftest import graphs, random_graph, star_graph


def _minimum_by_permutation_scan(g: Graph) -> str:
    """Independent oracle: the least graph6 string over all n! relabelings."""
    return min(to_graph6(g.relabeled(list(p))) for p in permutations(range(g.n)))


def _minimum_by_code_search(g: Graph) -> int:
    """Reference for canonical_encoding: the same minimum-code search with
    the twin rule and the prefix cut, over a list of (vertex, code) pairs
    rebuilt at every node instead of an ordered partition into cells."""
    n = g.n
    if n <= 1:
        return 0
    masks = g.adjacency_masks
    twins = twin_masks(masks)
    width = n * (n - 1) // 2
    best = -1

    def rec(j: int, prefix: int, codes: list[tuple[int, int]]) -> None:
        # codes: (vertex, code) for the unplaced vertices, by vertex label
        nonlocal best
        low_code = min(code for _, code in codes)
        prefix = (prefix << j) | low_code
        if best >= 0 and prefix > best >> (width - j * (j + 1) // 2):
            return
        if len(codes) == 1:
            best = prefix
            return
        tried = 0
        for v, code in codes:
            if code != low_code or (tried >> v) & 1:
                continue
            tried |= twins[v]
            mask_v = masks[v]
            rec(
                j + 1,
                prefix,
                [(u, code_u << 1 | (mask_v >> u) & 1) for u, code_u in codes if u != v],
            )

    rec(0, 0, [(v, 0) for v in range(n)])
    return best


def _sparse_twin_free_graphs() -> list[Graph]:
    """Cycles and paths up to 12 vertices, the Petersen graph and K_{3,3}
    minus a perfect matching: twin-free and sparse, so their searches reach
    the most cells and discrete partitions."""
    out = []
    for n in range(3, 13):
        out.append(Graph(n, [(i, (i + 1) % n) for i in range(n)]))
    for n in range(1, 13):
        out.append(Graph(n, [(i, i + 1) for i in range(n - 1)]))
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    out.append(Graph(10, outer + inner + [(i, i + 5) for i in range(5)]))
    out.append(Graph(6, [(a, b) for a in range(3) for b in range(3, 6) if b != a + 3]))
    return out


@st.composite
def _graphs_with_twin_classes(draw, max_n: int):
    """A random graph with one vertex blown up into a class of open twins
    (an independent set) and another into a class of closed twins (a
    clique), labels shuffled."""
    n = draw(st.integers(4, max_n))
    n_open = draw(st.integers(2, n - 2))
    n_closed = draw(st.integers(2, n - n_open))
    m = n - n_open - n_closed + 2  # the two blown-up vertices are 0 and 1
    pairs = [(u, v) for u in range(m) for v in range(u + 1, m)]
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    base = [e for i, e in enumerate(pairs) if (mask >> i) & 1]
    extra_open = m + n_open - 1
    copies = {v: [v] for v in range(m)}
    copies[0] += range(m, extra_open)
    copies[1] += range(extra_open, n)
    edges = {(a, b) for u, v in base for a in copies[u] for b in copies[v]}
    edges |= {(a, b) for a in copies[1] for b in copies[1] if a < b}
    perm = draw(st.permutations(range(n)))
    return Graph(n, [(perm[a], perm[b]) for a, b in edges])


@cache
def _labelled_graphs(n: int) -> list[tuple[Graph, int, int]]:
    """Every labelled graph on n vertices with its circumference and
    matching number, both found by enumeration."""
    pairs = list(combinations(range(n), 2))
    graphs = []
    for mask in range(1 << len(pairs)):
        g = Graph(n, [pair for i, pair in enumerate(pairs) if (mask >> i) & 1])
        graphs.append(
            (g, circumference_by_enumeration(g), max_matching_by_enumeration(g))
        )
    return graphs


def _cliques_by_subsets(g: Graph, r: int) -> int:
    return sum(
        all(g.has_edge(u, v) for u, v in combinations(subset, 2))
        for subset in combinations(range(g.n), r)
    )


_class_by_scan = cache(_minimum_by_permutation_scan)


class TestCanonicalForm:
    def test_invariant_under_relabeling(self):
        rng = random.Random(4242)
        for _ in range(60):
            n = rng.randrange(1, 8)
            g = random_graph(rng, n, 0.5)
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_graph6(g) == canonical_graph6(g.relabeled(perm))

    def test_distinguishes_nonisomorphic(self):
        p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
        star = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert canonical_graph6(p4) != canonical_graph6(star)

    def test_canonical_graph_is_isomorphic(self):
        g = build_woodall_G0(7, 4)
        cg = canonical_graph(g)
        assert cg.n == g.n and cg.num_edges == g.num_edges
        assert sorted(cg.degree(v) for v in range(cg.n)) == sorted(
            g.degree(v) for v in range(g.n)
        )

    def test_minimality_against_permutation_scan(self):
        rng = random.Random(9)
        for _ in range(20):
            g = random_graph(rng, 5, 0.5)
            assert canonical_graph6(g) == _minimum_by_permutation_scan(g)

    @settings(max_examples=100, deadline=None)
    @given(_graphs_with_twin_classes(max_n=7))
    def test_twin_classes_against_permutation_scan(self, g):
        assert canonical_graph6(g) == _minimum_by_permutation_scan(g)

    def test_atlas_graphs_on_seven_vertices(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(7)
        keys = set()
        for h in nx.graph_atlas_g():
            if h.number_of_nodes() != 7:
                continue
            g = Graph(7, h.edges())
            key = canonical_encoding(g)
            perm = list(range(7))
            rng.shuffle(perm)
            assert canonical_encoding(g.relabeled(perm)) == key
            keys.add(key)
        assert len(keys) == 1044

    def test_every_small_graph_against_code_search(self):
        for n in range(6):
            pairs = list(combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                g = Graph(n, [e for i, e in enumerate(pairs) if (mask >> i) & 1])
                assert canonical_encoding(g) == _minimum_by_code_search(g)

    def test_random_graphs_against_code_search(self):
        rng = random.Random(19)
        for n in range(6, 11):
            for density in (0.1, 0.3, 0.5, 0.7, 0.9):
                for _ in range(6):
                    g = random_graph(rng, n, density)
                    assert canonical_encoding(g) == _minimum_by_code_search(g)

    @settings(max_examples=100, deadline=None)
    @given(_graphs_with_twin_classes(max_n=10))
    def test_twin_classes_against_code_search(self, g):
        assert canonical_encoding(g) == _minimum_by_code_search(g)

    def test_sparse_twin_free_graphs_against_code_search(self):
        rng = random.Random(23)
        for g in _sparse_twin_free_graphs():
            key = canonical_encoding(g)
            assert key == _minimum_by_code_search(g)
            canon = graph_from_encoding(key, g.n)
            for _ in range(3):
                perm = list(range(g.n))
                rng.shuffle(perm)
                h = g.relabeled(perm)
                assert canonical_encoding(h) == key
                assert canonical_graph(h) == canon

    def test_encoding_is_the_canonical_graph6_body(self):
        rng = random.Random(4)
        for n in range(0, 9):
            g = random_graph(rng, n, 0.4)
            canon = from_graph6(canonical_graph6(g))
            assert graph_from_encoding(canonical_encoding(g), n) == canon

    def test_deep_inputs(self):
        # 1100 positions are deeper than Python's recursion limit
        k = Graph.complete(1100)
        assert canonical_graph6(k) == to_graph6(k)
        for g in (star_graph(1100), build_H(1100, 7, 3)):
            perm = list(range(g.n))
            random.Random(13).shuffle(perm)
            assert canonical_graph6(g.relabeled(perm)) == canonical_graph6(g)

    def test_leaves_no_reference_cycles(self):
        g = build_St2(12, 3, 2)
        gc.collect()
        gc.disable()
        try:
            canonical_encoding(g)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestEnumerateFamilyFree:
    def test_unconstrained_class_counts(self):
        fam = ForbiddenFamily(clique_order=2)
        assert len(list(enumerate_family_free(4, fam))) == 11
        assert len(list(enumerate_family_free(5, fam))) == 34
        # OEIS A000088
        assert len(list(enumerate_family_free(6, fam))) == 156
        assert len(list(enumerate_family_free(7, fam))) == 1044
        assert len(list(enumerate_family_free(8, fam))) == 12346

    def test_forest_counts(self):
        # unlabelled forests on n = 1..9 vertices, OEIS A005195
        forests = ForbiddenFamily(cycle_min_len=3)
        counts = [len(list(enumerate_family_free(n, forests))) for n in range(1, 10)]
        assert counts == [1, 2, 3, 6, 10, 20, 37, 76, 153]

    def test_triangle_free_n3(self):
        graphs = list(enumerate_family_free(3, ForbiddenFamily(cycle_min_len=3)))
        assert len(graphs) == 3
        assert sorted(g.num_edges for g in graphs) == [0, 1, 2]

    def test_matching_bound_n4(self):
        graphs = list(enumerate_family_free(4, ForbiddenFamily(matching_bound=1)))
        # empty, one edge, P_3, K_{1,3}, triangle
        assert len(graphs) == 5
        assert sorted(g.num_edges for g in graphs) == [0, 1, 2, 3, 3]

    def test_every_yield_is_family_free_and_canonical(self):
        fam = ForbiddenFamily(cycle_min_len=4, matching_bound=2)
        for g in enumerate_family_free(5, fam):
            assert is_family_free(g, fam)
            assert canonical_graph(g) == g

    def test_size_limit(self):
        # refused before any level grows: the last one alone tries 2^21
        with pytest.raises(OracleSizeError, match="budget of 2,000,000"):
            list(enumerate_family_free(22, ForbiddenFamily(clique_order=2)))


def _unfiltered_levels(n: int, family: ForbiddenFamily) -> list[tuple[list[Graph], int]]:
    """Reference for the filtered level loop: canonicalise every family-free
    one-vertex extension of every class, then deduplicate.  Entry size - 1
    holds the classes on size vertices and the extensions tried so far."""
    level, tried, levels = [Graph(0)], 0, []
    for size in range(1, n + 1):
        seen = set()
        for g in level:
            for nbr in range(1 << (size - 1)):
                joins = [(v, size - 1) for v in range(size - 1) if (nbr >> v) & 1]
                h = Graph(size, list(g.edges()) + joins)
                if is_family_free(h, family):
                    seen.add(canonical_encoding(h))
        tried += len(level) << (size - 1)
        level = [graph_from_encoding(key, size) for key in sorted(seen)]
        levels.append((level, tried))
    return levels


def _extension(parent: Graph, nbr: int) -> Graph:
    w = parent.n
    joins = [(v, w) for v in range(w) if (nbr >> v) & 1]
    return Graph(w + 1, list(parent.edges()) + joins)


class TestAugmentationFilters:
    def test_filtered_levels_against_unfiltered(self):
        # the canonical-deletion and twin filters lose no class and keep
        # counting every extension they drop
        for k_c in (None, 3, 4, 5, 6):
            for s in (None, 0, 1, 2, 3):
                family = ForbiddenFamily(cycle_min_len=k_c, matching_bound=s)
                for n, (level, tried) in enumerate(_unfiltered_levels(6, family), 1):
                    assert _grow_classes(n, family) == (level, tried), (n, family)


def _twin_classes(masks) -> list[int]:
    """The masks of the twin classes of two or more."""
    return [
        sum(1 << v for v in c) for c in chain(*twin_partition(masks)) if len(c) > 1
    ]


@cache
def _canonical_bodies(n: int) -> list[int]:
    """The canonical encodings of the graphs on n vertices, each found by
    canonical_encoding from a one-vertex extension of a class on n - 1."""
    if n <= 1:
        return [0]
    return sorted(
        {
            canonical_encoding(_extension(graph_from_encoding(key, n - 1), nbr))
            for key in _canonical_bodies(n - 1)
            for nbr in range(1 << (n - 1))
        }
    )


def _column(mask: int, x: int) -> int:
    """mask on the vertices 0..x-1 as a column: vertex 0 on top."""
    return int(format(mask & ((1 << x) - 1), f"0{x}b")[::-1], 2) if x else 0


class TestOrderlyGeneration:
    def test_minimality_test_on_every_small_graph(self):
        # every labelled graph on n <= 6 vertices: minimal iff its own body
        # is its canonical encoding
        for n in range(7):
            pairs = list(combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                g = Graph(n, [e for i, e in enumerate(pairs) if (mask >> i) & 1])
                body = graph6_body(g)
                masks = list(g.adjacency_masks)
                minimal = _is_minimal(masks, twin_masks(masks), body)
                assert minimal == (canonical_encoding(g) == body), (n, mask)

    def test_minimality_test_on_random_graphs_and_relabelings(self):
        # also with the twins _extension gives a parent's extension: the
        # parent's classes split by the last vertex's neighbourhood
        rng = random.Random(31)
        for n in range(2, 11):
            for density in (0.2, 0.5, 0.8):
                for _ in range(4):
                    g = random_graph(rng, n, density)
                    key = canonical_encoding(g)
                    perm = list(range(n))
                    rng.shuffle(perm)
                    for h in (g, g.relabeled(perm), graph_from_encoding(key, n)):
                        body = graph6_body(h)
                        masks = list(h.adjacency_masks)
                        base = tuple(m & ~(1 << (n - 1)) for m in masks[:-1])
                        _, split = oracle_module._extension(
                            base, _twin_classes(base), masks[-1]
                        )
                        for twins in (twin_masks(masks), split):
                            assert _is_minimal(masks, twins, body) == (key == body)

    def test_canonical_graphs_keep_both_rules(self):
        # every canonical graph on n <= 7 vertices, found without the
        # orderly engine: the parent G - (n-1) is canonical, and the last
        # column passes column dominance and takes the highest members of
        # each twin class of the parent
        assert len(_canonical_bodies(7)) == 1044  # OEIS A000088
        for n in range(1, 8):
            for key in _canonical_bodies(n):
                g = graph_from_encoding(key, n)
                m = n - 1
                base = tuple(mask & ~(1 << m) for mask in g.adjacency_masks[:m])
                parent = Graph._trusted(list(base))
                assert canonical_encoding(parent) == graph6_body(parent)
                nbr = g.adjacency_masks[m]
                for x in range(1, m):
                    assert _column(nbr, x) >= _column(base[x], x), (g, x)
                for members in chain(*twin_partition(base)):
                    taken = [v for v in members if (nbr >> v) & 1]
                    assert taken == members[len(members) - len(taken):], g
                assert nbr in set(_columns(base, _twin_classes(base)))

    def test_columns_of_an_open_and_a_closed_class(self):
        # 2K_1 + K_2, canonical: open class {0, 1}, closed class {2, 3}.
        # nbr takes {}, {1} or {0, 1} of the one and {}, {3} or {2, 3} of
        # the other, and its column, read from vertex 0, is not below
        # column 3, which holds vertex 2 alone
        base = Graph(4, [(2, 3)]).adjacency_masks
        kept = sorted(_columns(base, _twin_classes(base)))
        assert kept == [0b0010, 0b0011, 0b1010, 0b1011, 0b1100, 0b1110, 0b1111]

    def test_oracle_never_canonicalises(self, monkeypatch):
        # a worker process started by fork inherits the patch and raises
        calls = []

        def counted(graph):
            calls.append(graph)
            raise AssertionError("canonical_encoding called")

        monkeypatch.setattr(oracle_module, "canonical_encoding", counted)
        family = ForbiddenFamily(cycle_min_len=4, matching_bound=2)
        list(enumerate_family_free(7, family))
        for jobs in (1, 2):
            brute_force_ex(7, family, jobs=jobs)
            brute_force_ex(6, ForbiddenFamily(clique_order=7), jobs=jobs)
        assert calls == []


@st.composite
def _free_parents_and_families(draw, max_n: int = 8):
    """A family with k_c in {None, 3..9} and s in {None, 0..4}, and a
    parent made family-free by deleting an edge of each violation found
    (a parent with open and closed twins half of the time)."""
    k_c = draw(st.sampled_from([None, *range(3, 10)]))
    s = draw(st.sampled_from([None, *range(5)]))
    family = ForbiddenFamily(cycle_min_len=k_c, matching_bound=s)
    parent = draw(st.one_of(graphs(max_n=max_n), _graphs_with_twin_classes(max_n)))
    edges = set(parent.edges())
    while not (report := is_family_free(Graph(parent.n, edges), family)):
        u, v = report.cycle[:2] if report.cycle else report.matching[0]
        edges.discard((min(u, v), max(u, v)))
    return Graph(parent.n, edges), family


class TestFreeExtensionTest:
    @settings(max_examples=150, deadline=None)
    @given(_free_parents_and_families())
    def test_against_family_check_of_every_extension(self, case):
        parent, family = case
        free = _free_extension_test(parent, family)
        for nbr in range(1 << parent.n):
            expected = bool(is_family_free(_extension(parent, nbr), family))
            assert free(nbr) == expected, (nbr, family)

    def test_oracle_makes_no_family_check_per_extension(self, monkeypatch):
        # the only family check left is brute_force_ex's K_n test
        checked = []
        real = oracle_module.is_family_free
        monkeypatch.setattr(
            oracle_module, "is_family_free", lambda g, f: checked.append(g) or real(g, f)
        )
        for n, kwargs in (
            (7, dict(cycle_min_len=5, matching_bound=5)),
            (7, dict(cycle_min_len=4, matching_bound=2, clique_order=3)),
            (6, dict(cycle_min_len=3)),
        ):
            checked.clear()
            brute_force_ex(n, ForbiddenFamily(**kwargs))
            assert checked == [Graph.complete(n)]
        checked.clear()
        list(enumerate_family_free(6, ForbiddenFamily(cycle_min_len=5, matching_bound=2)))
        assert checked == []


class TestBruteForce:
    def test_search_against_enumeration(self):
        # every labelled graph on n <= 5 vertices, freeness decided by
        # exhaustive circumference and matching number, K_r counted over
        # vertex subsets: the same maximum and the same maximising classes
        for n in range(1, 6):
            for k_c in (None, 3, 4, 5, 6):
                for s in (None, 0, 1, 2):
                    for r in (2, 3, 4):
                        family = ForbiddenFamily(
                            cycle_min_len=k_c, matching_bound=s, clique_order=r
                        )
                        counts = [
                            (g, _cliques_by_subsets(g, r))
                            for g, circumference, nu in _labelled_graphs(n)
                            if (k_c is None or circumference < k_c)
                            and (s is None or nu <= s)
                        ]
                        best = max(c for _, c in counts)
                        classes = {_class_by_scan(g) for g, c in counts if c == best}
                        res = brute_force_ex(n, family)
                        assert res.max_count == best, family
                        assert res.witnesses == tuple(sorted(classes)), family

    def test_matching_only_small_values(self):
        assert brute_force_ex(5, ForbiddenFamily(matching_bound=1)).max_count == 4
        assert brute_force_ex(6, ForbiddenFamily(matching_bound=2)).max_count == 10
        # past n = 8 too, within the budget (Erdos-Gallai 1959)
        for n, best in ((7, 11), (9, 15), (10, 17)):
            res = brute_force_ex(n, ForbiddenFamily(matching_bound=2))
            assert res.max_count == best == ex_matching_only(n, 2)

    def test_all_graphs_regime(self):
        # with s = 3 every graph on 7 vertices qualifies, and K_7 is the
        # only maximiser
        res = brute_force_ex(7, ForbiddenFamily(matching_bound=3))
        assert res.max_count == 21
        assert res.witnesses == (to_graph6(Graph.complete(7)),)
        # with fewer than r vertices no graph has a K_r: every class ties at 0
        res = brute_force_ex(3, ForbiddenFamily(clique_order=4))
        assert res.max_count == 0
        assert res.witnesses == tuple(
            sorted({_class_by_scan(g) for g, _, _ in _labelled_graphs(3)})
        )

    def test_forbidding_all_cycles_gives_spanning_star(self):
        # forests with nu <= s: the star attains n-1 edges for any s >= 1
        star = Graph(6, [(0, i) for i in range(1, 6)])
        for n in range(2, 7):
            for s in (1, 2):
                res = brute_force_ex(
                    n, ForbiddenFamily(cycle_min_len=3, matching_bound=s)
                )
                assert res.max_count == n - 1
        res6 = brute_force_ex(6, ForbiddenFamily(cycle_min_len=3, matching_bound=1))
        assert canonical_graph6(star) in res6.witnesses
        # and no clique of order >= 3 survives
        res = brute_force_ex(
            5, ForbiddenFamily(cycle_min_len=3, matching_bound=2, clique_order=3)
        )
        assert res.max_count == 0

    def test_cycle_only_matches_woodall(self):
        for (n, k) in [(6, 4), (7, 4), (7, 5), (9, 4)]:
            res = brute_force_ex(n, ForbiddenFamily(cycle_min_len=k))
            assert res.max_count == woodall_bound(n, k)
            assert canonical_graph6(build_woodall_G0(n, k)) in res.witnesses

    def test_triangle_count_objective(self):
        # triangle-maximal graph with nu <= 2 on 6 vertices is K_5
        res = brute_force_ex(
            6, ForbiddenFamily(matching_bound=2, clique_order=3)
        )
        assert res.max_count == 10

    def test_witnesses_are_valid(self):
        fam = ForbiddenFamily(cycle_min_len=5, matching_bound=5)
        res = brute_force_ex(6, fam)
        assert res.witnesses
        for g6 in res.witnesses:
            g = from_graph6(g6)
            assert is_family_free(g, fam)
            assert count_cliques(g, fam.clique_order) == res.max_count

    def test_serial_parallel_identical(self):
        for n, kwargs, *_ in (param.values for param in _GOLDEN):
            fam = ForbiddenFamily(**kwargs)
            serial = brute_force_ex(n, fam, jobs=1)
            parallel = brute_force_ex(n, fam, jobs=2)
            assert serial.to_json(stable=True) == parallel.to_json(stable=True)

    def test_every_class_ties_below_r(self):
        # no graph on 7 vertices has a K_8, so all 1,044 classes reach 0:
        # each worker finds several hundred, and the witness cap is applied
        # once, after their merge
        classes = enumerate_family_free(7, ForbiddenFamily())
        every = sorted(canonical_graph6(g) for g in classes)
        assert len(every) == 1044
        for jobs in (1, 2):
            res = brute_force_ex(7, ForbiddenFamily(clique_order=8), jobs=jobs)
            assert (res.max_count, res.examined) == (0, 11291)
            assert res.witnesses == tuple(every[:100])

    def test_worker_count_is_capped(self, monkeypatch):
        # a pure helper: no pool is started, whatever jobs asks for
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert _worker_count(100000, 64) == 4
        assert _worker_count(100000, 2) == 2
        assert _worker_count(3, 64) == 3
        assert _worker_count(0, 64) == 1
        assert _worker_count(-7, 64) == 1
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _worker_count(100000, 64) == 1

    def test_size_limit(self):
        # K_n answers whatever the budget admits, with nothing examined, but
        # n >= 22 is refused before K_n is built
        for n in (9, 21):
            res = brute_force_ex(n, ForbiddenFamily(clique_order=2))
            assert res.max_count == n * (n - 1) // 2 and res.examined == 0
            assert res.witnesses == (to_graph6(Graph.complete(n)),)
        for n in (22, 10**6, 10**19):
            with pytest.raises(OracleSizeError, match="budget of 2,000,000"):
                brute_force_ex(n, ForbiddenFamily(clique_order=2))

    def test_budget_refuses_a_level_before_it_runs(self, monkeypatch):
        family = ForbiddenFamily(cycle_min_len=4, matching_bound=2)
        parents, tried = _grow_classes(5, family)
        last = tried + (len(parents) << 5)
        assert last == brute_force_ex(6, family).examined == 715
        tested = []  # the parents whose extensions were family-tested
        real = oracle_module._free_extension_test
        monkeypatch.setattr(
            oracle_module,
            "_free_extension_test",
            lambda g, f: tested.append(g) or real(g, f),
        )
        monkeypatch.setattr(oracle_module, "_ORACLE_BUDGET", last - 1)
        messages = set()
        for grow in (
            lambda: _grow_classes(6, family),
            lambda: list(enumerate_family_free(7, family)),
            lambda: brute_force_ex(6, family, jobs=1),
            lambda: brute_force_ex(6, family, jobs=2),
        ):
            tested.clear()
            with pytest.raises(OracleSizeError) as info:
                grow()
            messages.add(str(info.value))
            # levels 1..5 ran, so the parents on 4 vertices were extended;
            # level 6 was refused before any parent on 5 vertices was
            assert max(g.n for g in tested) == 4
        assert messages == {
            f"the graphs on 6 vertices take at least {tried:,} + "
            f"{len(parents)}*2^5 one-vertex extensions, past the oracle budget "
            f"of {last - 1:,}; use the formula modules beyond that"
        }
        monkeypatch.setattr(oracle_module, "_ORACLE_BUDGET", last)
        assert brute_force_ex(6, family, jobs=2).examined == last

    def test_json_shape(self):
        res = brute_force_ex(5, ForbiddenFamily(matching_bound=1))
        data = json.loads(json.dumps(res.to_json(stable=True)))
        assert set(data) == {"n", "family", "max", "witnesses", "examined"}
        assert "elapsed_ms" in res.to_json()


# brute_force_ex(...).to_json(stable=True) for five queries.  max and the
# witness sets are those of the labelled edge-space search the
# vertex-growth engine replaced; examined counts one-vertex extensions and
# the witnesses are sorted.  None of it may move.
_GOLDEN = [
    pytest.param(
        7, dict(cycle_min_len=5, matching_bound=5), 1, 12, ["FJaNw"], 5915,
        id="n7-C5-nu5",
    ),
    pytest.param(
        7,
        dict(cycle_min_len=4, matching_bound=2),
        1,
        7,
        ["F??Nw", "F??^W", "F??}W", "F?C^G"],
        2507,
        id="n7-C4-nu2",
    ),
    pytest.param(
        6,
        dict(cycle_min_len=5, matching_bound=3, clique_order=3),
        1,
        5,
        ["EJbw"],
        1051,
        id="n6-C5-nu3-K3",
    ),
    pytest.param(7, dict(matching_bound=2), 1, 11, ["F?B~w"], 4827, id="n7-nu2"),
    pytest.param(
        6,
        dict(cycle_min_len=4, matching_bound=2),
        2,
        6,
        ["E?Fw", "E?NW", "E@NG", "E@Pw", "EJaG"],
        715,
        id="n6-C4-nu2-jobs2",
    ),
]


@pytest.mark.parametrize("n, kwargs, jobs, best, witnesses, examined", _GOLDEN)
def test_golden_outputs(n, kwargs, jobs, best, witnesses, examined):
    family = ForbiddenFamily(**kwargs)
    data = brute_force_ex(n, family, jobs=jobs).to_json(stable=True)
    assert data == {
        "n": n,
        "family": family.to_json(),
        "max": best,
        "witnesses": witnesses,
        "examined": examined,
    }


class TestVerifyFormulaRegion:
    def test_even_k2_s2_agreement_at_7(self):
        report = verify_formula_region(2, 2, 2, "even", range(5, 8))
        values = {row.n: row for row in report.rows}
        assert values[7].oracle_value == 7
        assert values[7].formula_value == 7
        assert values[7].agrees
        assert report.first_agreement_n is not None
        assert report.first_agreement_n <= 7

    def test_odd_k2_s5_flagged_below_threshold(self):
        report = verify_formula_region(2, 5, 2, "odd", [7])
        row = report.rows[0]
        assert row.oracle_value == 12
        assert row.formula_value == 11
        assert not row.agrees
        assert row.below_threshold
        assert report.first_agreement_n is None

    def test_oracle_dominates_formula_when_witness_fits(self):
        report = verify_formula_region(2, 5, 2, "odd", range(4, 8))
        for row in report.rows:
            if row.formula_value is not None:
                assert row.oracle_value >= row.formula_value


class _StubOracle:
    """brute_force_ex stand-in for the region tests: a fixed maximum."""

    def __init__(self):
        self.calls = []

    def __call__(self, n, family, jobs=1):
        self.calls.append(n)
        return type("Result", (), {"max_count": 53})()


class TestRegionRefusals:
    @pytest.mark.parametrize(
        "k, s, r, parity, message",
        [
            (1, 5, 2, "odd", "k must be >= 2, got 1"),
            (2, 5, 3, "even", "k must be >= 3, got 2"),
            (3, 1, 2, "even", "need s >= k-1, got s=1, k=3"),
            (3, 5, 2, "both", "parity must be 'odd' or 'even', got 'both'"),
        ],
    )
    def test_fault_that_ignores_n_raises_before_the_oracle(
        self, monkeypatch, k, s, r, parity, message
    ):
        stub = _StubOracle()
        monkeypatch.setattr(oracle_module, "brute_force_ex", stub)
        with pytest.raises(ParameterError) as info:
            verify_formula_region(k, s, r, parity, range(4, 8))
        assert str(info.value) == message
        assert stub.calls == []

    def test_below_witness_order_row_has_no_formula(self, monkeypatch):
        # ex_odd(n, 3, 7, 3) needs n >= 17, where it gives 53
        stub = _StubOracle()
        monkeypatch.setattr(oracle_module, "brute_force_ex", stub)
        report = verify_formula_region(3, 7, 3, "odd", [16, 17])
        assert stub.calls == [16, 17]
        assert [(row.formula_value, row.agrees, row.below_threshold)
                for row in report.rows] == [(None, False, True), (53, True, True)]
        assert report.first_agreement_n == 17
