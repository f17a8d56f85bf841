import json
import os
import random
from functools import cache
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genturan import (
    ForbiddenFamily,
    Graph,
    OracleSizeError,
    brute_force_ex,
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
from genturan.matching import max_matching_by_enumeration
from genturan.oracle import _worker_count, canonical_encoding

from conftest import random_graph


def _minimum_by_permutation_scan(g: Graph) -> str:
    """Independent oracle: the least graph6 string over all n! relabelings."""
    return min(to_graph6(g.relabeled(list(p))) for p in permutations(range(g.n)))


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


class TestEnumerateFamilyFree:
    def test_unconstrained_class_counts(self):
        fam = ForbiddenFamily(clique_order=2)
        assert len(list(enumerate_family_free(4, fam))) == 11
        assert len(list(enumerate_family_free(5, fam))) == 34

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
        with pytest.raises(OracleSizeError):
            list(enumerate_family_free(9, ForbiddenFamily(clique_order=2)))


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
        res = brute_force_ex(7, ForbiddenFamily(matching_bound=2))
        assert res.max_count == 11 == ex_matching_only(7, 2)

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
        for (n, k) in [(6, 4), (7, 4), (7, 5)]:
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
        with pytest.raises(OracleSizeError):
            brute_force_ex(9, ForbiddenFamily(clique_order=2))

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
