import gc
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genturan import (
    BudgetExceededError,
    ForbiddenFamily,
    Graph,
    ParameterError,
    build_H,
    build_St1,
    build_St2,
    build_extremal_odd,
    circumference,
    circumference_by_enumeration,
    enumerate_family_free,
    find_cycle_geq,
    has_cycle_geq,
)
from genturan.blocks import _raw_blocks
from genturan.cycles import _SearchState, _cycle_bound, _longest_cycle_in_block
from genturan.graphs import twin_kernel

from conftest import (
    bowtie,
    cycle_graph,
    graphs,
    graphs_with_planted_classes,
    graphs_with_twin_class,
    path_graph,
    random_graph,
)

ALL_GRAPHS = ForbiddenFamily(clique_order=2)


def _is_cycle(g: Graph, verts) -> bool:
    if len(verts) < 3 or len(set(verts)) != len(verts):
        return False
    return all(
        g.has_edge(verts[i], verts[(i + 1) % len(verts)]) for i in range(len(verts))
    )


class TestCircumference:
    def test_named_graphs(self):
        assert circumference(cycle_graph(6)) == 6
        assert circumference(path_graph(6)) == 0
        assert circumference(Graph.complete(5)) == 5
        assert circumference(bowtie()) == 3
        assert circumference(Graph(4)) == 0

    def test_h_graph_frozen_value(self):
        assert circumference(build_H(12, 5, 2)) == 4

    def test_h_graph_against_enumeration(self):
        assert circumference(build_H(7, 5, 2)) == circumference_by_enumeration(
            build_H(7, 5, 2)
        )

    def test_exhaustive_classes_up_to_6(self):
        for n in range(1, 7):
            for g in enumerate_family_free(n, ALL_GRAPHS):
                assert circumference(g) == circumference_by_enumeration(g)

    def test_random_graphs_against_enumeration(self):
        rng = random.Random(777)
        for _ in range(60):
            n = rng.randrange(3, 8)
            g = random_graph(rng, n, rng.choice([0.25, 0.5, 0.75]))
            assert circumference(g) == circumference_by_enumeration(g)

    def test_budget_exceeded_raises(self):
        with pytest.raises(BudgetExceededError):
            circumference(Graph.complete(10), budget=5)

    def test_search_leaves_no_reference_cycles(self):
        g = build_St2(30, 3, 2)
        gc.collect()
        gc.disable()
        try:
            find_cycle_geq(g, circumference(g))
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestHasCycleGeq:
    def test_named_examples(self):
        assert has_cycle_geq(Graph.complete(4), 4)
        assert not has_cycle_geq(build_H(12, 5, 2), 5)
        assert not has_cycle_geq(bowtie(), 4)
        assert not has_cycle_geq(path_graph(5), 3)

    def test_threshold_below_three_rejected(self):
        with pytest.raises(ParameterError):
            has_cycle_geq(Graph.complete(3), 2)

    def test_witness_is_a_real_cycle(self):
        g = Graph.complete(6)
        cycle = find_cycle_geq(g, 5)
        assert cycle is not None
        assert len(cycle) >= 5
        assert _is_cycle(g, cycle)
        assert find_cycle_geq(build_H(20, 5, 2), 5) is None

    def test_dominated_clique_sharpness_at_equality(self):
        # with 2a = k the construction contains a cycle of length exactly k
        # as soon as n >= k; below that it does not
        for a in (2, 3):
            k = 2 * a
            assert has_cycle_geq(build_H(k, k, a), k)
            assert not has_cycle_geq(build_H(k - 1, k, a), k)

    @settings(max_examples=60, deadline=None)
    @given(graphs(max_n=8, min_n=3))
    def test_agrees_with_circumference(self, g):
        c = circumference(g)
        for k_c in range(3, g.n + 2):
            assert has_cycle_geq(g, k_c) == (c >= k_c)


def _unreduced_circumference(g: Graph) -> int:
    """Block-by-block DFS on the full blocks, without the twin kernel and
    with _cycle_bound replaced by the trivial bound, the vertex count."""

    def vertex_count(adj, block, needed):
        return block.bit_count()

    best = 0
    with mock.patch("genturan.cycles._cycle_bound", vertex_count):
        for mask in _raw_blocks(g)[0]:
            if mask.bit_count() >= 3:
                cycle = _longest_cycle_in_block(
                    g.adjacency_masks, mask, 3, g.n, _SearchState(None)
                )
                best = max(best, len(cycle or ()))
    return best


def _small_witnesses():
    for n in (7, 12, 19, 30):
        for k in (2, 3):
            for s in range(2 * k + 1, 3 * k + 1):
                for r in (2, 3):
                    try:
                        g = build_extremal_odd(n, k, s, r)
                    except ParameterError:
                        continue  # n is below the witness order
                    yield g, 2 * k + 1
    for k in (2, 3, 4):
        for q in (1, 2, 3):
            for n in (q * (2 * k - 2) + 2, 30):
                yield build_St1(n, k, q), 2 * k
                yield build_St2(n, k, q), 2 * k
    for k in range(4, 9):
        for a in range(2, (k - 1) // 2 + 1):
            for n in (k, 30):
                yield build_H(n, k, a), k


def _k6_and_two_paths() -> Graph:
    """K_6 on 0..5, x = 6 and y = 7 joined to all of it, and the x-y paths
    x p y and x q r y (p, q, r = 8, 9, 10)."""
    m = 6
    x, y, p, q, r = range(m, m + 5)
    edges = [(u, v) for u in range(m) for v in range(u + 1, m)]
    edges += [(u, w) for w in (x, y) for u in range(m)]
    edges += [(x, p), (p, y), (x, q), (q, r), (r, y)]
    return Graph(m + 5, edges)


class TestTwinKernel:
    @settings(max_examples=80, deadline=None)
    @given(
        st.one_of(
            graphs_with_twin_class(),
            graphs_with_planted_classes(max_base=3, max_classes=2).filter(
                lambda g: g.n <= 9
            ),
        )
    )
    def test_planted_twins_against_enumeration(self, g):
        c = circumference(g)
        assert c == circumference_by_enumeration(g)
        for k_c in range(3, g.n + 2):
            cycle = find_cycle_geq(g, k_c)
            assert (cycle is not None) == (c >= k_c)
            if cycle is not None:
                assert len(cycle) >= k_c and _is_cycle(g, cycle)

    def test_witnesses_against_unreduced_search(self):
        checked = 0
        for g, c in _small_witnesses():
            assert g.n <= 30
            full = _unreduced_circumference(g)
            assert circumference(g) == full
            assert full < c
            assert has_cycle_geq(g, c - 1) == (full >= c - 1)
            checked += 1
        assert checked > 40

    def test_closed_twins_are_tried_once(self):
        # K_6 on 0..5 (a closed class), x and y joined to all of it, and
        # two x-y paths outside it: x p y and x q r y.  The longest cycle
        # runs through K_6 and x q r y (10 vertices): a cycle through all
        # 11 needs both paths, and they close x p y r q x without K_6.  The
        # bound leaves room for 11, and proving there is none takes 9,794
        # expansions when every member of K_6 is tried, and 39 when one is
        g = _k6_and_two_paths()
        perm = list(range(g.n))
        random.Random(3).shuffle(perm)
        for h in (g, g.relabeled(perm)):
            assert find_cycle_geq(h, 11, budget=500) is None
            assert circumference(h, budget=500) == 10
            assert _is_cycle(h, find_cycle_geq(h, 10))

    def test_extremal_odd_5000_keeps_21_vertices(self):
        # H(4985, 7, 3) keeps its 3 dominating vertices and 3 of the 4982
        # vertices on them; each attached K_6 keeps its 5 non-hub vertices
        g = build_extremal_odd(5000, 3, 10, 3)
        kernel, labels = twin_kernel(g)
        assert kernel.n == len(labels) == 21
        assert list(labels) == sorted(labels)


def _clique_with_twins(m: int, t: int, bridge: bool) -> Graph:
    """K_m on 0..m-1 (the neighbourhood N), t vertices joined to all of it
    (the class T), and with bridge one more vertex on the ends 0 and m-1
    of N, so that a cycle can leave T | N."""
    edges = [(u, v) for u in range(m) for v in range(u + 1, m)]
    edges += [(u, w) for w in range(m, m + t) for u in range(m)]
    if bridge:
        edges += [(0, m + t), (m - 1, m + t)]
    return Graph(m + t + bridge, edges)


class TestCycleBound:
    """_cycle_bound(adj, S, needed) must reach the length of every cycle
    of G[S] with at least `needed` vertices; the DFS is skipped below it."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_sound_on_arbitrary_vertex_sets(self, data):
        g = data.draw(graphs(max_n=8, min_n=3))
        subset = data.draw(st.integers(0, (1 << g.n) - 1))
        inside = Graph(
            g.n, [(u, v) for u, v in g.edges() if (subset >> u) & (subset >> v) & 1]
        )
        c = circumference_by_enumeration(inside)
        for needed in range(3, subset.bit_count() + 1):
            bound = _cycle_bound(g.adjacency_masks, subset, needed)
            assert bound <= subset.bit_count()
            if c >= needed:
                assert bound >= c, (needed, c, bound)

    def test_isolated_vertex_costs_nothing(self):
        # a triangle and an isolated vertex: the isolated class has N empty
        g = Graph(4, [(0, 1), (0, 2), (1, 2)])
        assert _cycle_bound(g.adjacency_masks, 0b1111, 3) == 3

    def test_planted_class_as_large_as_its_neighbourhood(self):
        # |T| = |N| = m: the 2m-cycle alternates between T and N and uses
        # all of T; leaving T | N through the bridge costs one member of T
        for m in (2, 3, 4):
            g = _clique_with_twins(m, m, bridge=False)
            full = (1 << g.n) - 1
            assert circumference_by_enumeration(g) == 2 * m
            assert _cycle_bound(g.adjacency_masks, full, 2 * m) == 2 * m
        for m in (3, 4):
            g = _clique_with_twins(m, m, bridge=True)
            full = (1 << g.n) - 1
            assert circumference_by_enumeration(g) == 2 * m
            assert _cycle_bound(g.adjacency_masks, full, 2 * m + 1) == 2 * m
            assert find_cycle_geq(g, 2 * m + 1, budget=0) is None

    def test_planted_class_one_short_of_its_neighbourhood(self):
        # |T| = |N| - 1: a cycle through the bridge uses all of T
        for m in (3, 4):
            g = _clique_with_twins(m, m - 1, bridge=True)
            full = (1 << g.n) - 1
            assert circumference_by_enumeration(g) == 2 * m
            for needed in (2 * m - 1, 2 * m):
                assert _cycle_bound(g.adjacency_masks, full, needed) == 2 * m

    def test_extremal_blocks_need_no_search(self):
        # budget=0 raises on the first DFS expansion, so these answers are
        # certified by the bound alone on every block of the twin kernel
        rng = random.Random(12)
        graphs_and_thresholds = []
        for q in range(1, 6):
            smallest = (q - 1) * 10 + 12  # the order of St2(·, 6, q)
            for n in sorted({smallest, min(smallest + 7, 60), 60}):
                for build in (build_St1, build_St2):
                    graphs_and_thresholds.append((build(n, 6, q), 12))
        for k in range(5, 11):
            for a in range(2, (k - 1) // 2 + 1):
                for n in (k, 30):
                    graphs_and_thresholds.append((build_H(n, k, a), k))
        for g, c in graphs_and_thresholds:
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert find_cycle_geq(g.relabeled(perm), c, budget=0) is None

    def test_circumference_stops_once_the_bound_closes(self):
        # after the 11-cycle of the St2 kernel block the bound on the
        # vertices still alive is 11, so no search for a 12-cycle follows;
        # proving its absence by DFS alone takes about 17,000 expansions
        rng = random.Random(12)
        for q in range(1, 6):
            for n in sorted({(q - 1) * 10 + 12, 60}):
                perm = list(range(n))
                rng.shuffle(perm)
                g = build_St2(n, 6, q).relabeled(perm)
                assert circumference(g, budget=2000) == 11


def _pinned_graphs() -> dict[str, Graph]:
    """Relabelled St2 and H witnesses, the graph of
    test_closed_twins_are_tried_once, the Petersen graph and seeded random
    graphs, by name."""
    built = {
        f"St2({n},6,{q})": build_St2(n, 6, q) for n, q in ((12, 1), (30, 2), (60, 3))
    }
    for n, k, a in ((12, 7, 3), (18, 10, 3), (25, 10, 4)):
        built[f"H({n},{k},{a})"] = build_H(n, k, a)
    rng = random.Random(22)
    for name, g in built.items():
        perm = list(range(g.n))
        rng.shuffle(perm)
        built[name] = g.relabeled(perm)
    built["K_6 and two paths"] = _k6_and_two_paths()
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    built["Petersen"] = Graph(10, outer + inner + [(i, i + 5) for i in range(5)])
    for seed, n, p in (
        (3, 12, 0.3), (4, 12, 0.4), (11, 11, 0.3), (12, 10, 0.35),
        (17, 12, 0.4), (29, 12, 0.4), (35, 10, 0.35),
    ):
        built[f"G({n},{p}) seed {seed}"] = random_graph(random.Random(seed), n, p)
    return built


PINNED_GRAPHS = _pinned_graphs()

# name: (circumference c, node expansions of circumference, of
# find_cycle_geq at c and of find_cycle_geq at c + 1).  0 expansions means
# that _cycle_bound rules out every block without a DFS.
PINNED_EXPANSIONS = {
    "St2(12,6,1)": (11, 11, 11, 0),
    "St2(30,6,2)": (11, 11, 11, 0),
    "St2(60,6,3)": (11, 11, 11, 0),
    "H(12,7,3)": (6, 6, 6, 0),
    "H(18,10,3)": (9, 10, 10, 0),
    "H(25,10,4)": (9, 10, 10, 0),
    "K_6 and two paths": (10, 40, 11, 39),
    "Petersen": (9, 262, 9, 262),
    "G(12,0.3) seed 3": (7, 28, 7, 26),
    "G(12,0.4) seed 4": (11, 1152, 343, 942),
    "G(11,0.3) seed 11": (7, 53, 16, 42),
    "G(10,0.35) seed 12": (9, 94, 12, 84),
    "G(12,0.4) seed 17": (11, 1052, 70, 990),
    "G(12,0.4) seed 29": (10, 628, 98, 608),
    "G(10,0.35) seed 35": (6, 31, 16, 25),
}


class TestExpansionsPinned:
    """The budget a pinned search needs is exactly its recorded expansion
    count: one fewer raises, so a change in pruning or order shows here."""

    @pytest.mark.parametrize("name", sorted(PINNED_EXPANSIONS))
    def test_find_cycle_geq(self, name):
        g = PINNED_GRAPHS[name]
        c, _, at_c, above = PINNED_EXPANSIONS[name]
        cycle = find_cycle_geq(g, c, budget=at_c)
        assert len(cycle) == c and _is_cycle(g, cycle)
        assert find_cycle_geq(g, c + 1, budget=above) is None
        with pytest.raises(BudgetExceededError):
            find_cycle_geq(g, c, budget=at_c - 1)
        if above:
            with pytest.raises(BudgetExceededError):
                find_cycle_geq(g, c + 1, budget=above - 1)

    @pytest.mark.parametrize("name", sorted(PINNED_EXPANSIONS))
    def test_circumference(self, name):
        c, expansions, *_ = PINNED_EXPANSIONS[name]
        assert circumference(PINNED_GRAPHS[name], budget=expansions) == c
