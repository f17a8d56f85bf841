from math import comb

import pytest

from genturan import (
    ForbiddenFamily,
    ParameterError,
    build_block_star,
    count_cliques,
    enumerate_feasible,
    ex_even,
    extremal_even_witness,
    g_value,
    is_family_free,
    max_matching,
    maximize_g,
)
from genturan.optimizer import solve_even


def _brute_triples(k, s, central_cost):
    """Independent nested-loop oracle for the feasible sets."""
    out = []
    for x in range(0, s + 1):
        for y in range(0, s + 1):
            for z in range(1, 2 * k):
                if (k - 1) * x + (k - 2) * y + (z - 1) // 2 + central_cost <= s:
                    out.append((x, y, z))
    return out


class TestEnumerateFeasible:
    def test_k3_s5_count_from_nested_loop_oracle(self):
        # the defining inequality 2x + y + floor((z-1)/2) <= 2 with
        # z in [1,5] has exactly 13 solutions
        oracle = _brute_triples(3, 5, 3)
        assert len(oracle) == 13
        got = [(t.x, t.y, t.z) for t in enumerate_feasible(3, 5, "T1")]
        assert got == oracle

    def test_first_family_empty_at_minimal_s(self):
        # the central block already costs k, so s = k-1 admits nothing
        assert enumerate_feasible(3, 2, "T1") == []
        assert [(t.x, t.y, t.z) for t in enumerate_feasible(3, 2, "T2")] == [
            (0, 0, 1),
            (0, 0, 2),
        ]

    def test_matches_oracle_on_grid(self):
        for k in range(3, 7):
            for s in range(k - 1, 3 * k + 1):
                for family, cost in (("T1", k), ("T2", k - 1)):
                    got = [(t.x, t.y, t.z) for t in enumerate_feasible(k, s, family)]
                    assert got == _brute_triples(k, s, cost)

    def test_t1_subset_of_t2(self):
        for k in range(3, 6):
            for s in range(k, 3 * k):
                t1 = {(t.x, t.y, t.z) for t in enumerate_feasible(k, s, "T1")}
                t2 = {(t.x, t.y, t.z) for t in enumerate_feasible(k, s, "T2")}
                assert t1 <= t2

    def test_sizes_monotone_in_s(self):
        for k in range(3, 6):
            for family in ("T1", "T2"):
                sizes = [
                    len(enumerate_feasible(k, s, family))
                    for s in range(k - 1, 3 * k)
                ]
                assert sizes == sorted(sizes)

    def test_k2_rejected(self):
        with pytest.raises(ParameterError):
            enumerate_feasible(2, 5, "T1")

    def test_bad_family_rejected(self):
        with pytest.raises(ParameterError):
            enumerate_feasible(3, 5, "T3")


class TestMaximizeG:
    def test_k3_r2_s5_frozen(self):
        value, triple = maximize_g(3, 2, 5, "T1")
        assert value == 0
        # (0,0,5) and (1,0,1) tie at 0; lexicographic rule picks (0,0,5)
        assert (triple.x, triple.y, triple.z) == (0, 0, 5)
        assert triple.g == 0
        value2, _ = maximize_g(3, 2, 5, "T2")
        assert value2 == 0

    def test_checks_the_even_domain(self):
        # the same fault as ex_even(30, 3, 5, 5): k = 3 < r = 5
        with pytest.raises(ParameterError, match="k >= r"):
            maximize_g(3, 5, 5, "T1")

    def test_t2_max_dominates_t1_max(self):
        for k in range(3, 6):
            for r in range(2, k + 1):
                for s in range(k, 3 * k):
                    v1, _ = maximize_g(k, r, s, "T1")
                    v2, _ = maximize_g(k, r, s, "T2")
                    assert v2 >= v1

    def test_exact_against_full_scan(self):
        for k in range(3, 6):
            for r in range(2, k + 1):
                for s in range(k, 2 * k + 3):
                    value, triple = maximize_g(k, r, s, "T1")
                    scan = [
                        (g_value(x, y, z, k, r), (x, y, z))
                        for (x, y, z) in _brute_triples(k, s, k)
                    ]
                    best = max(v for v, _ in scan)
                    assert value == best
                    first = min(t for v, t in scan if v == best)
                    assert (triple.x, triple.y, triple.z) == first

    def test_empty_family_rejected(self):
        with pytest.raises(ParameterError):
            maximize_g(3, 2, 2, "T1")


class TestExtremalEvenWitness:
    def test_k3_r2_s5_achieves_2n(self):
        spec = extremal_even_witness(30, 3, 2, 5)
        g = build_block_star(spec)
        assert g.n == 30
        assert g.num_edges == 60 == ex_even(30, 3, 5, 2).value

    def test_z1_means_no_final_block(self):
        # s = k-1 forces (0, 0, 1) or (0, 0, 2); at k=4, r=2 the maximum is
        # at z=1, so the witness is the bare central block
        spec = extremal_even_witness(40, 4, 2, 3)
        assert spec.attached == ()

    def test_witness_family_free_and_tight(self):
        for (n, k, r, s) in [
            (30, 3, 2, 5),
            (30, 3, 3, 5),
            (40, 4, 3, 9),
            (40, 5, 4, 8),
            (45, 5, 2, 17),
        ]:
            spec = extremal_even_witness(n, k, r, s)
            g = build_block_star(spec)
            fam = ForbiddenFamily(cycle_min_len=2 * k, matching_bound=s, clique_order=r)
            assert is_family_free(g, fam)
            assert count_cliques(g, r) == ex_even(n, k, s, r).value

    def test_second_family_witness_matching_is_verified(self):
        # when the reduced-central-block family wins, the built witness must
        # still respect the matching budget
        for k in range(3, 6):
            spec = extremal_even_witness(50, k, 2, k - 1)
            g = build_block_star(spec)
            assert max_matching(g) <= k - 1
            assert spec.central.k == 2 * k - 1

    @pytest.mark.parametrize(
        "k, s, r, message",
        [
            (3, 5, 1, "r must be >= 2, got 1"),
            (2, 4, 2, "k must be >= 3, got 2"),
            (2, 4, 3, "k must be >= 3, got 2"),
            (3, 5, 4, "need k >= r, got k=3, r=4"),
            (4, 2, 5, "need k >= r, got k=4, r=5"),
            (4, 2, 3, "need s >= k-1, got s=2, k=4"),
        ],
    )
    def test_one_domain_check_for_every_entry_point(self, k, s, r, message):
        for call in (
            lambda: ex_even(30, k, s, r),
            lambda: solve_even(30, k, r, s),
            lambda: extremal_even_witness(30, k, r, s),
            lambda: maximize_g(k, r, s, "T1"),
        ):
            with pytest.raises(ParameterError) as info:
                call()
            assert str(info.value) == message

    def test_too_small_composition_rejected(self):
        with pytest.raises(ParameterError):
            extremal_even_witness(7, 3, 2, 9)
