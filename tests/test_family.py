import pytest

from genturan import (
    ForbiddenFamily,
    Graph,
    ParameterError,
    build_H,
    build_extremal_odd,
    is_family_free,
    max_matching,
)
from genturan.graphs import twin_kernel

from conftest import bowtie


class TestForbiddenFamily:
    def test_validation(self):
        with pytest.raises(ParameterError):
            ForbiddenFamily(cycle_min_len=2)
        with pytest.raises(ParameterError):
            ForbiddenFamily(matching_bound=-1)
        with pytest.raises(ParameterError):
            ForbiddenFamily(clique_order=1)

    def test_describe(self):
        fam = ForbiddenFamily(cycle_min_len=5, matching_bound=3, clique_order=3)
        text = fam.describe()
        assert ">= 5" in text and "<= 3" in text and "K_3" in text


class TestIsFamilyFree:
    def test_h_graph_is_free(self):
        fam = ForbiddenFamily(cycle_min_len=5, matching_bound=5)
        report = is_family_free(build_H(20, 5, 2), fam)
        assert report
        assert report.violated is None

    def test_complete_graph_cycle_violation(self):
        fam = ForbiddenFamily(cycle_min_len=5, matching_bound=5)
        report = is_family_free(Graph.complete(6), fam)
        assert not report
        assert report.violated == "cycle"
        assert report.cycle is not None and len(report.cycle) >= 5
        verts = list(report.cycle)
        g = Graph.complete(6)
        assert all(
            g.has_edge(verts[i], verts[(i + 1) % len(verts)])
            for i in range(len(verts))
        )

    def test_perfect_matching_violation(self):
        s = 2
        g = Graph(2 * s + 2, [(2 * i, 2 * i + 1) for i in range(s + 1)])
        report = is_family_free(g, ForbiddenFamily(matching_bound=s))
        assert not report
        assert report.violated == "matching"
        assert report.matching is not None and len(report.matching) == s + 1
        used = set()
        for u, v in report.matching:
            assert g.has_edge(u, v)
            assert u not in used and v not in used
            used.update((u, v))

    def test_bowtie_cycles_confined_to_blocks(self):
        assert is_family_free(bowtie(), ForbiddenFamily(cycle_min_len=4))

    def test_empty_family_always_free(self):
        assert is_family_free(Graph.complete(9), ForbiddenFamily())


def test_extremal_odd_20000_checked_on_its_kernel():
    # H(19985, 7, 3) plus K_6 blocks: every attachment vertex beyond the
    # first three is dropped, so both checks run on 21 vertices
    g = build_extremal_odd(2 * 10**4, 3, 10, 3)
    assert twin_kernel(g)[0].n == 21
    assert is_family_free(g, ForbiddenFamily(cycle_min_len=7, matching_bound=10))
    assert max_matching(g) == 9
