from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genturan import (
    BlockStarSpec,
    ForbiddenFamily,
    Graph,
    HGraphParams,
    ParameterError,
    block_decomposition,
    build_H,
    build_St1,
    build_St2,
    build_block_star,
    build_extremal_odd,
    build_multipartite_G,
    build_woodall_G0,
    count_cliques,
    ex_even,
    ex_odd,
    f_value,
    format_block_star_spec,
    has_cycle_geq,
    is_family_free,
    max_matching,
    parse_block_star_spec,
    st1_spec,
    st2_spec,
    to_edgelist,
    to_graph6,
)


class TestBuildH:
    def test_small_instance(self):
        g = build_H(5, 5, 2)
        assert g.num_edges == 7
        assert g.has_edge(0, 1) and g.has_edge(0, 2) and g.has_edge(1, 2)
        for p in (3, 4):
            assert sorted(g.neighbors(p)) == [0, 1]

    def test_edge_count_matches_formula(self):
        for k in range(2, 11):
            for a in range(1, k // 2 + 1):
                for n in (k - a, k, 2 * k, 3 * k + 1):
                    assert build_H(n, k, a).num_edges == f_value(n, k, a, 2)

    def test_matching_number(self):
        assert max_matching(build_H(12, 7, 3)) == 3

    def test_two_connected_single_block(self):
        dec = block_decomposition(build_H(10, 5, 2))
        assert len(dec.blocks) == 1

    def test_accepts_params_object(self):
        assert build_H(HGraphParams(7, 5, 2)) == build_H(7, 5, 2)

    def test_invariant_violations(self):
        with pytest.raises(ParameterError):
            build_H(10, 5, 3)
        with pytest.raises(ParameterError):
            build_H(2, 5, 2)


class TestBlockStar:
    def test_empty_attachment_is_central_block(self):
        spec = BlockStarSpec(central=HGraphParams(12, 7, 3))
        assert build_block_star(spec) == build_H(12, 7, 3)

    def test_matching_and_cycles_of_attached_star(self):
        # central H_{n-q(2k-1), 2k+1, k} with q attached K_{2k}: k=3, q=2
        k, q, n = 3, 2, 40
        spec = BlockStarSpec(
            central=HGraphParams(n - q * (2 * k - 1), 2 * k + 1, k),
            attached=(2 * k,) * q,
        )
        g = build_block_star(spec)
        assert g.n == n
        assert max_matching(g) == k + q * (k - 1) == 7
        assert not has_cycle_geq(g, 2 * k + 1)

    def test_extra_small_block_adds_t_to_matching(self):
        k, q, t = 3, 2, 1
        n = 40
        spec = BlockStarSpec(
            central=HGraphParams(n - q * (2 * k - 1) - (2 * t + 1), 2 * k + 1, k),
            attached=(2 * k,) * q + (2 * t + 2,),
        )
        g = build_block_star(spec)
        assert max_matching(g) == k + q * (k - 1) + t

    def test_block_multiset_and_hub(self):
        spec = BlockStarSpec(central=HGraphParams(10, 5, 2), attached=(4, 3, 3))
        g = build_block_star(spec)
        dec = block_decomposition(g)
        assert sorted(len(b) for b in dec.blocks) == [3, 3, 4, 10]
        assert dec.cut_vertices == (0,)
        assert all(0 in b for b in dec.blocks)

    def test_attached_orders_normalized_descending(self):
        spec = BlockStarSpec(central=4, attached=(3, 5, 4))
        assert spec.attached == (5, 4, 3)
        assert spec.total_order == 4 + 2 + 3 + 4

    def test_clique_central_block(self):
        spec = BlockStarSpec(central=4, attached=(3,))
        g = build_block_star(spec)
        assert g.num_edges == 6 + 3
        assert count_cliques(g, 3) == 4 + 1

    def test_deterministic_serialization(self):
        spec = BlockStarSpec(central=HGraphParams(16, 7, 3), attached=(6, 6, 4))
        a = build_block_star(spec)
        b = build_block_star(
            BlockStarSpec(central=HGraphParams(16, 7, 3), attached=(4, 6, 6))
        )
        assert to_graph6(a) == to_graph6(b)
        assert to_edgelist(a) == to_edgelist(b)

    def test_spec_file_round_trip(self):
        for spec in (
            BlockStarSpec(central=HGraphParams(16, 7, 3), attached=(6, 4)),
            BlockStarSpec(central=5, attached=()),
        ):
            assert parse_block_star_spec(format_block_star_spec(spec)) == spec


class TestBuildExtremalOdd:
    def test_case1_is_dominated_clique_graph(self):
        assert build_extremal_odd(20, 2, 5, 2) == build_H(20, 5, 2)

    def test_case2_block_structure(self):
        g = build_extremal_odd(30, 3, 7, 3)  # q=2, t=0: two K_6 blocks
        dec = block_decomposition(g)
        assert sorted(len(b) for b in dec.blocks) == [6, 6, 20]
        assert count_cliques(g, 3) == comb(3, 2) * 30 + 2

    def test_case3_block_structure(self):
        g = build_extremal_odd(30, 5, 12, 5)  # q=1, t=3: one K_10, one K_8
        dec = block_decomposition(g)
        assert sorted(len(b) for b in dec.blocks) == [8, 10, 14]

    def test_witness_too_small_rejected(self):
        with pytest.raises(ParameterError):
            build_extremal_odd(10, 3, 7, 3)


class TestStGraphs:
    def test_st1_edge_identity(self):
        for k in range(2, 7):
            for q in range(1, 6):
                n = (q - 1) * (2 * k - 2) + 2 * k + 3
                st1 = build_St1(n, k, q)
                assert st1.num_edges == (k - 1) * n - comb(k, 2) + (k - 1) * (q - 1)

    def test_st2_is_st1_plus_one_edge(self):
        for k in range(2, 7):
            n = 4 * k + 5
            assert build_St2(n, k, 2).num_edges == build_St1(n, k, 2).num_edges + 1

    def test_st1_matching_number_k2(self):
        for q in range(1, 6):
            n = 2 * (q - 1) + 7
            assert max_matching(build_St1(n, 2, q)) == q

    def test_q1_reduces_to_central_block(self):
        assert build_St1(12, 3, 1) == build_H(12, 5, 2)
        assert build_St2(12, 3, 1) == build_H(12, 6, 2)

    def test_spec_total_order(self):
        assert st1_spec(20, 3, 3).total_order == 20


class TestWoodallG0:
    def test_two_k4_sharing_vertex(self):
        g = build_woodall_G0(7, 5)
        assert g.num_edges == 12
        dec = block_decomposition(g)
        assert sorted(len(b) for b in dec.blocks) == [4, 4]
        assert dec.cut_vertices == (0,)

    def test_single_clique_case(self):
        for k in range(3, 8):
            assert build_woodall_G0(k - 1, k) == Graph.complete(k - 1)

    def test_single_vertex(self):
        assert build_woodall_G0(1, 5) == Graph(1)

    @pytest.mark.parametrize(
        "n,k,g6",
        [
            (1, 3, "@"),
            (2, 3, "A_"),
            (7, 5, "F~aKW"),
            (12, 4, "K{eCKA@_C?o?"),
            (17, 6, "P~}CKMF_C?oB_F_?O?K?B_?["),
            (23, 7, "V~~{CEB_{Fo?_@_@o?{?N_?A??K??[??]??N_??C???_"),
            (30, 5, "]~aK[A@_[?O@_B_?O?K?B_?A??K??[??A??@_??[???O??@_??B_???O???K???B_???A????G"),
            (30, 11, "]~~~~~~~{?O@_B_Bo@{?^_B}?N{?^{??A??@_??[??Bo??N_??^_??^o??N{??B~_???A????G"),
        ],
    )
    def test_graph6_golden(self, n, k, g6):
        # labels included: the hub is vertex 0, cliques follow in order
        assert to_graph6(build_woodall_G0(n, k)) == g6

    def test_cycle_free_on_grid(self):
        for k in range(3, 8):
            for n in range(1, 12):
                assert not has_cycle_geq(build_woodall_G0(n, k), k)


class TestMultipartite:
    def test_k2_is_complete_bipartite(self):
        g = build_multipartite_G(10, 2, 3)
        assert g.num_edges == 21
        assert count_cliques(g, 3) == 0

    def test_matching_number_is_s(self):
        for k in range(2, 5):
            for s in range(k - 1, 3 * k):
                n = 2 * s + 3
                assert max_matching(build_multipartite_G(n, k, s)) == s

    def test_no_clique_of_order_k_plus_one(self):
        for k in range(2, 6):
            g = build_multipartite_G(3 * k + 4, k, k + 1)
            assert count_cliques(g, k + 1) == 0
            assert count_cliques(g, k) > 0

    def test_matching_bound_family(self):
        g = build_multipartite_G(12, 3, 4)
        assert is_family_free(g, ForbiddenFamily(matching_bound=4))
        assert not is_family_free(g, ForbiddenFamily(matching_bound=3))


# The constructors write adjacency masks in closed form; these are the
# edge-list versions they replaced, kept as the reference.


def _reference_H(params: HGraphParams) -> Graph:
    n, k, a = params.n, params.k, params.a
    clique = k - a
    edges = [(u, v) for u in range(clique) for v in range(u + 1, clique)]
    for p in range(clique, n):
        for d in range(a):
            edges.append((d, p))
    return Graph(n, edges)


def _reference_block_star(spec: BlockStarSpec) -> Graph:
    if isinstance(spec.central, int):
        base = Graph.complete(spec.central)
    else:
        base = _reference_H(spec.central)
    edges = list(base.edges())
    nxt = spec.central_order
    for order in spec.attached:
        members = [0] + list(range(nxt, nxt + order - 1))
        nxt += order - 1
        edges.extend(
            (members[i], members[j])
            for i in range(order)
            for j in range(i + 1, order)
        )
    return Graph(spec.total_order, edges)


def _reference_multipartite(n: int, k: int, s: int) -> Graph:
    base, rem = divmod(s, k - 1)
    sizes = [n - s] + [base + 1] * rem + [base] * (k - 1 - rem)
    classes = []
    nxt = 0
    for size in sizes:
        classes.append(list(range(nxt, nxt + size)))
        nxt += size
    edges = []
    for i in range(len(classes)):
        for j in range(i + 1, len(classes)):
            edges.extend((u, v) for u in classes[i] for v in classes[j])
    return Graph(n, edges)


def _acceptance_grid_witnesses():
    """(graph, spec) for every witness the acceptance criteria build."""
    for k in range(4, 11):
        for a in range(2, k // 2 + 1):
            for n in range(k - a, 31):
                spec = BlockStarSpec(central=HGraphParams(n, k, a))
                yield build_H(n, k, a), spec
    for k in range(2, 6):
        for r in range(2, k + 2):
            for s in range(2 * k + 1, 4 * k + 1):
                attached = ex_odd(10**6, k, s, r).witness.attached
                for n in range(2 * k + 1 + sum(c - 1 for c in attached), 61):
                    yield build_extremal_odd(n, k, s, r), ex_odd(n, k, s, r).witness
    for k in range(2, 7):
        for q in range(1, 6):
            for n in range((q - 1) * (2 * k - 2) + 2 * k - 1, 61):
                yield build_St1(n, k, q), st1_spec(n, k, q)
                if n > (q - 1) * (2 * k - 2) + 2 * k - 1:
                    yield build_St2(n, k, q), st2_spec(n, k, q)
    for k in range(3, 9):
        for s in range(k - 1, 4 * k + 1):
            for r in range(2, k + 1):
                spec = ex_even(10 * k + 40, k, s, r).witness
                yield build_block_star(spec), spec


@st.composite
def block_star_specs(draw) -> BlockStarSpec:
    if draw(st.booleans()):
        central = draw(st.integers(1, 9))
    else:
        k = draw(st.integers(2, 10))
        a = draw(st.integers(1, k // 2))
        central = HGraphParams(draw(st.integers(k - a, k - a + 12)), k, a)
    attached = draw(st.lists(st.integers(2, 8), max_size=5))
    return BlockStarSpec(central=central, attached=tuple(attached))


class TestClosedFormMasks:
    @staticmethod
    def _same_as_reference(g: Graph, spec: BlockStarSpec) -> None:
        assert g.adjacency_masks == _reference_block_star(spec).adjacency_masks
        # symmetric, loop-free and in range
        assert Graph.from_adjacency_masks(g.adjacency_masks) == g

    def test_acceptance_grid_witnesses(self):
        count = 0
        for g, spec in _acceptance_grid_witnesses():
            self._same_as_reference(g, spec)
            count += 1
        assert count > 3000

    @settings(max_examples=200, deadline=None)
    @given(block_star_specs())
    def test_drawn_block_stars(self, spec):
        self._same_as_reference(build_block_star(spec), spec)
        if not isinstance(spec.central, int):
            h = build_H(spec.central)
            assert h.adjacency_masks == _reference_H(spec.central).adjacency_masks

    def test_multipartite_grid(self):
        for k in range(2, 7):
            for s in range(k - 1, 3 * k):
                for n in range(s + 1, s + 12):
                    g = build_multipartite_G(n, k, s)
                    assert g == _reference_multipartite(n, k, s)
                    assert Graph.from_adjacency_masks(g.adjacency_masks) == g

    def test_extremal_odd_at_scale(self):
        # no timing assert: the edge count follows from the block sizes
        spec = ex_odd(10**5, 3, 10, 3).witness
        g = build_extremal_odd(10**5, 3, 10, 3)
        h = spec.central
        central_edges = comb(h.k - h.a, 2) + h.a * (h.n - (h.k - h.a))
        assert g.n == spec.total_order == 10**5
        assert g.num_edges == central_edges + sum(comb(c, 2) for c in spec.attached)
        assert g.degree(0) == h.n - 1 + sum(c - 1 for c in spec.attached)
