import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genturan import (
    Graph,
    GraphFormatError,
    build_extremal_odd,
    from_edgelist,
    from_graph6,
    to_edgelist,
    to_graph6,
)

from genturan.graph_io import graph6_masks, graph6_string

from conftest import graphs, path_graph


class TestGraph6:
    def test_k4_known_encoding(self):
        assert to_graph6(Graph.complete(4)) == "C~"

    def test_p4_bit_exact(self):
        # bits in column order for 0-1-2-3:
        # (0,1)(0,2)(1,2)(0,3)(1,3)(2,3) = 101001 -> 41 + 63 = 'h'
        assert to_graph6(path_graph(4)) == "Ch"
        assert from_graph6("Ch") == path_graph(4)

    def test_header_and_whitespace_accepted(self):
        assert from_graph6(">>graph6<<C~\n") == Graph.complete(4)

    def test_empty_and_single_vertex(self):
        assert to_graph6(Graph(0)) == "?"
        assert from_graph6("?") == Graph(0)
        assert from_graph6(to_graph6(Graph(1))) == Graph(1)

    @settings(max_examples=60, deadline=None)
    @given(graphs(max_n=70, min_n=0))
    def test_body_packing_against_bitwise_body(self, g):
        # the body read pair by pair in graph6 order, (0,1) in the top bit
        body = 0
        for v in range(1, g.n):
            for u in range(v):
                body = body << 1 | g.has_edge(u, v)
        assert graph6_string(g.n, body) == to_graph6(g)
        assert graph6_masks(g.n, body) == list(g.adjacency_masks)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_strings_of_one_order_sort_as_their_bodies(self, data):
        # brute_force_ex sorts witnesses as bodies and reports them as
        # strings; n >= 63 takes the four-byte order field
        n = data.draw(st.integers(2, 70))
        width = n * (n - 1) // 2
        a, b = (data.draw(st.integers(0, (1 << width) - 1)) for _ in range(2))
        near = a ^ 1 << data.draw(st.integers(0, width - 1))
        for x, y in ((a, b), (b, a), (a, near), (near, a), (a, a)):
            assert (graph6_string(n, x) < graph6_string(n, y)) == (x < y)

    def test_large_order_header(self):
        g = Graph(70, [(0, 69)])
        assert from_graph6(to_graph6(g)) == g

    MALFORMED = [
        ("", "empty graph6 string"),
        (">>graph6<<", "empty graph6 string"),
        ("C~\u00e9", "graph6 contains bytes outside chr(63)..chr(126)"),
        ("C>", "graph6 contains bytes outside chr(63)..chr(126)"),
        ("C~\t~", "graph6 contains bytes outside chr(63)..chr(126)"),
        ("~", "truncated graph6 order field"),
        ("~?@", "truncated graph6 order field"),
        ("~~?????", "truncated graph6 order field"),
        ("C~~~", "graph6 body has 3 groups, expected 1 for n=4"),
        ("C", "graph6 body has 0 groups, expected 1 for n=4"),
        ("??", "graph6 body has 1 groups, expected 0 for n=0"),
        ("~?@?", "graph6 body has 0 groups, expected 336 for n=64"),
        ("~~?????@??", "graph6 body has 2 groups, expected 0 for n=1"),
    ]

    def test_malformed_inputs(self):
        for text, message in self.MALFORMED:
            with pytest.raises(GraphFormatError) as info:
                from_graph6(text)
            assert str(info.value) == message, text

    def test_padding_bits_ignored(self):
        # n = 3 uses 3 of the 6 body bits; "~" sets the 3 padding bits too
        assert from_graph6("B~") == Graph.complete(3)
        assert from_graph6("Bx") == Graph.complete(3)
        assert from_graph6("A_") == from_graph6("A~") == Graph(2, [(0, 1)])

    def test_large_witness_round_trip(self):
        # 2 MB of graph6; the order field takes four bytes
        g = build_extremal_odd(5000, 3, 10, 3)
        text = to_graph6(g)
        assert len(text) == 4 + (5000 * 4999 // 2 + 5) // 6
        assert from_graph6(text) == g

    @settings(max_examples=120, deadline=None)
    @given(graphs(max_n=12, min_n=0))
    def test_round_trip(self, g):
        assert from_graph6(to_graph6(g)) == g


class TestEdgeList:
    def test_round_trip_without_trailing_isolates(self):
        g = Graph(5, [(0, 1), (1, 4), (2, 3)])
        assert from_edgelist(to_edgelist(g)) == g

    def test_blank_lines_ignored(self):
        g = from_edgelist("0 1\n\n2 3\n\n")
        assert g == Graph(4, [(0, 1), (2, 3)])

    def test_explicit_n_keeps_isolates(self):
        g = from_edgelist("0 1\n", n=4)
        assert g.n == 4

    def test_rejects_garbage(self):
        with pytest.raises(GraphFormatError):
            from_edgelist("0 1 2\n")
        with pytest.raises(GraphFormatError):
            from_edgelist("a b\n")
        with pytest.raises(GraphFormatError):
            from_edgelist("0 5\n", n=3)

    @settings(max_examples=80, deadline=None)
    @given(graphs(max_n=10, min_n=1))
    def test_round_trip_with_explicit_n(self, g):
        assert from_edgelist(to_edgelist(g), n=g.n) == g
