from math import comb

import pytest

from genturan import (
    ParameterError,
    WitnessOrderError,
    build_H,
    build_block_star,
    count_cliques,
    even_case_params,
    ex_even,
    ex_even_edges,
    ex_matching_only,
    ex_odd,
    extremal_value,
    f_value,
    g_value,
    h_value,
    odd_case_params,
    tau,
    woodall_bound,
)


class TestFValue:
    def test_frozen_values(self):
        # edge count of the built graph is the independent oracle
        assert f_value(10, 5, 2, 2) == 17 == build_H(10, 5, 2).num_edges
        assert f_value(8, 7, 3, 3) == 16  # C(4,3) + 4*C(3,2)

    def test_matches_built_graph_on_grid(self):
        for k in range(4, 9):
            for a in range(2, k // 2 + 1):
                for n in (k - a, k, k + 5, 2 * k + 3):
                    g = build_H(n, k, a)
                    for b in range(2, 6):
                        assert f_value(n, k, a, b) == count_cliques(g, b)

    def test_matching_only_term(self):
        for s in range(1, 5):
            for n in range(s + 1, 4 * s + 4):
                assert f_value(n, 2 * s + 1, s, 2) == comb(s + 1, 2) + (n - s - 1) * s

    def test_preconditions(self):
        with pytest.raises(ParameterError):
            f_value(10, 5, 3, 2)  # 2a > k
        with pytest.raises(ParameterError):
            f_value(2, 5, 2, 2)  # n < k - a
        with pytest.raises(ParameterError):
            f_value(10, 5, 2, 0)  # b < 1


class TestTau:
    def test_frozen_values(self):
        assert tau(3, 3) == 5  # scan: 4*3 < C(5,3)=10 fails, 5*3 < C(6,3)=20 holds
        assert tau(4, 5) == 5
        assert tau(5, 5) == 7

    def test_r2_closed_form(self):
        for k in range(2, 13):
            assert tau(k, 2) == 2 * k

    def test_exceeds_k(self):
        for k in range(2, 11):
            for r in range(2, 11):
                assert tau(k, r) > k

    def test_defining_property_persists(self):
        # every k' >= tau keeps the defining inequality
        for k in range(2, 8):
            for r in range(2, k + 2):
                t = tau(k, r)
                assert (t - 1) * comb(k, r - 1) >= comb(t, r)
                for kp in range(t, t + 15):
                    assert kp * comb(k, r - 1) < comb(kp + 1, r)

    def test_growth_monotonicity(self):
        # the slack C(x+1, r) - x*C(k, r-1) is nondecreasing beyond tau
        for k in range(2, 11):
            for r in range(2, 11):
                t = tau(k, r)
                base = comb(t + 1, r) - t * comb(k, r - 1)
                for b in range(0, 21):
                    lhs = comb(t + b + 1, r) - (t + b) * comb(k, r - 1)
                    assert lhs >= base


class TestHValue:
    def test_r2_closed_form(self):
        for k in range(2, 9):
            for s in (2 * k + 1, 3 * k, 4 * k):
                assert h_value(2, k, s) == comb(k + 1, 2) - k * (k + 1)

    def test_case_selection(self):
        assert odd_case_params(2, 2, 5).case == "Case1"
        assert odd_case_params(3, 3, 7).case == "Case2"
        assert odd_case_params(5, 5, 12).case == "Case3"

    def test_case2_independent_recompute(self):
        p = odd_case_params(3, 3, 7)
        assert p.q == 2 and p.t == 0
        expected = 2 * comb(6, 3) + comb(4, 3) - (4 + 2 * 5) * comb(3, 2)
        assert h_value(3, 3, 7) == expected == 2

    def test_case3_independent_recompute(self):
        p = odd_case_params(5, 5, 12)
        assert p.q == 1 and p.t == 3 and p.A == 6 + 9 + 7
        expected = comb(10, 5) + comb(8, 5) + comb(6, 5) - 22 * comb(5, 4)
        assert h_value(5, 5, 12) == expected == 204

    def test_lower_bound(self):
        for k in range(2, 7):
            for r in range(2, k + 2):
                for s in range(2 * k + 1, 4 * k + 1):
                    assert h_value(r, k, s) >= comb(k + 1, r) - (k + 1) * comb(k, r - 1)

    def test_splitting_inequalities(self):
        # attaching a block of order 2k never loses against absorbing it
        for k in range(2, 11):
            for r in range(2, k + 2):
                assert comb(2 * k, r) - (2 * k - 1) * comb(k, r - 1) >= 0
        # same for the final block once 2t+1 crosses tau
        for k in range(2, 8):
            for r in range(2, k + 2):
                for t in range(0, k - 1):
                    if 2 * t + 1 >= tau(k, r):
                        assert comb(2 * t + 2, r) - (2 * t + 1) * comb(k, r - 1) >= 0

    def test_hypothesis_violations(self):
        with pytest.raises(ParameterError):
            h_value(2, 2, 4)  # s < 2k+1
        with pytest.raises(ParameterError):
            h_value(5, 3, 7)  # r > k+1


class TestGValue:
    def test_frozen_values(self):
        assert g_value(1, 0, 1, 3, 2) == 0  # 10 + 0 + 0 + 6 - 8*2
        assert g_value(0, 0, 5, 3, 2) == 0  # 10 + 6 - 8*2
        # all block terms vanish at x=y=0, z=1; the attachment coefficient
        # stays k+1
        for k in range(2, 7):
            for r in range(2, k + 1):
                expected = comb(k + 1, r) - (k + 1) * comb(k - 1, r - 1)
                assert g_value(0, 0, 1, k, r) == expected

    def test_z_range_enforced(self):
        with pytest.raises(ParameterError):
            g_value(0, 0, 0, 3, 2)
        with pytest.raises(ParameterError):
            g_value(0, 0, 6, 3, 2)


class TestExOdd:
    def test_frozen_example(self):
        value = ex_odd(20, 2, 5, 2)
        assert value.value == 37
        assert value.regime == "Case1"
        assert count_cliques(build_H(20, 5, 2), 2) == 37

    def test_r2_closed_form(self):
        for k in range(2, 7):
            for s in (2 * k + 1, 3 * k + 1):
                for n in range(4 * k + 2, 4 * k + 12):
                    assert ex_odd(n, k, s, 2).value == comb(k, 2) + k * (n - k)

    def test_witness_achieves_value(self):
        for (n, k, s, r) in [(25, 2, 5, 3), (30, 3, 7, 3), (30, 5, 12, 5)]:
            ev = ex_odd(n, k, s, r)
            assert count_cliques(build_block_star(ev.witness), r) == ev.value

    def test_asymptotic_warning_threshold(self):
        assert ex_odd(20, 2, 5, 2).asymptotic_warning  # 20 < 30
        assert not ex_odd(30, 2, 5, 2).asymptotic_warning

    def test_witness_order_enforced(self):
        with pytest.raises(ParameterError):
            ex_odd(26, 5, 12, 5)  # Case3 witness needs 27 vertices


class TestExEven:
    def test_k3_s5_r2_offset_zero(self):
        for n in (20, 35, 50):
            assert ex_even(n, 3, 5, 2).value == 2 * n

    def test_agrees_with_edge_formula(self):
        for k in range(3, 9):
            for s in range(k - 1, 4 * k + 1):
                assert ex_even(90, k, s, 2).value == ex_even_edges(90, k, s).value

    def test_minimal_s_uses_second_family_only(self):
        # s = k-1: the full-matching family is empty; direct enumeration of
        # the shrunken feasible set gives the value
        for k in range(3, 7):
            for r in range(2, k + 1):
                expected = (
                    max(g_value(0, 0, 1, k, r), g_value(0, 0, 2, k, r))
                    - comb(k - 1, r - 2)
                )
                ev = ex_even(60, k, k - 1, r)
                assert ev.value == comb(k - 1, r - 1) * 60 + expected
                assert ev.regime == "T2"

    def test_witness_achieves_value(self):
        for (n, k, s, r) in [(30, 3, 5, 2), (30, 3, 5, 3), (40, 4, 9, 3), (40, 5, 8, 4)]:
            ev = ex_even(n, k, s, r)
            assert count_cliques(build_block_star(ev.witness), r) == ev.value

    def test_k2_rejected(self):
        with pytest.raises(ParameterError):
            ex_even(30, 2, 4, 2)


class TestExEvenEdges:
    def test_frozen_small_value(self):
        ev = ex_even_edges(7, 2, 2)
        assert ev.value == 7
        assert ev.regime == "St1"

    def test_epsilon_rule(self):
        for k in range(2, 7):
            for q in range(1, 5):
                assert even_case_params(k, q * (k - 1)).epsilon == 0
                if k >= 3:
                    assert even_case_params(k, q * (k - 1) + 1).epsilon == 1

    def test_witness_edge_counts(self):
        for k in range(2, 7):
            for q in range(1, 5):
                n = (q - 1) * (2 * k - 2) + 2 * k + 5
                st1 = build_block_star(ex_even_edges(n, k, q * (k - 1)).witness)
                assert st1.num_edges == ex_even_edges(n, k, q * (k - 1)).value
                if k >= 3:
                    ev2 = ex_even_edges(n, k, q * (k - 1) + 1)
                    st2 = build_block_star(ev2.witness)
                    assert st2.num_edges == ev2.value == st1.num_edges + 1


@pytest.mark.parametrize(
    "func, args, message",
    [
        (ex_odd, (3, 2, 5, 2), "n=3 is below the witness order 5 for Case1"),
        (ex_odd, (10, 3, 10, 3), "n=10 is below the witness order 22 for Case2"),
        (ex_odd, (3, 4, 9, 5), "n=3 is below the witness order 21 for Case3"),
        (ex_even_edges, (5, 4, 3), "n=5 is below the witness order 7 for k=4, s=3"),
        (ex_even_edges, (10, 4, 9), "n=10 is below the witness order 19 for k=4, s=9"),
        (
            ex_even,
            (10, 4, 9, 3),
            "n=10 is below the witness order 19 for the winning profile "
            "(x=1, y=0, z=7, T2)",
        ),
        (
            ex_even,
            (12, 3, 7, 3),
            "n=12 is below the witness order 14 for the winning profile "
            "(x=1, y=0, z=5, T1)",
        ),
    ],
)
def test_witness_order_messages(func, args, message):
    with pytest.raises(ParameterError) as info:
        func(*args)
    assert str(info.value) == message


class TestArbitraryPrecision:
    def test_no_overflow_at_billion_vertices(self):
        n = 10**9
        ev = ex_odd(n, 5, 12, 5)
        assert ev.value == comb(5, 4) * n + 204
        assert ev.witness.total_order == n
        assert ex_even_edges(n, 4, 9).value == 3 * n - comb(4, 2) + 3 * 2 + 0
        assert f_value(n, 9, 4, 3) == comb(5, 3) + (n - 5) * comb(4, 2)


class TestMatchingOnlyAndWoodall:
    def test_frozen_values(self):
        assert ex_matching_only(7, 2) == 11
        assert woodall_bound(7, 5) == 12

    def test_complete_graph_regime(self):
        for s in range(1, 5):
            assert ex_matching_only(2 * s + 1, s) == comb(2 * s + 1, 2)

    def test_woodall_small_clique_case(self):
        for k in range(3, 9):
            assert woodall_bound(k - 1, k) == comb(k - 1, 2)

    def test_woodall_decomposition_consistency(self):
        # p = k-2 and the equivalent q+1, p=0 split give the same bound
        for k in range(3, 8):
            for q in range(0, 4):
                n = q * (k - 2) + (k - 2) + 1
                assert woodall_bound(n, k) == (q + 1) * comb(k - 1, 2)


class TestExtremalValue:
    def test_dispatch(self):
        # odd parity ignores edges_only at r = 2
        for edges_only in (False, True):
            assert extremal_value("odd", 30, 3, 7, 2, edges_only) == ex_odd(30, 3, 7, 2)
        assert extremal_value("odd", 30, 3, 7, 3) == ex_odd(30, 3, 7, 3)
        assert extremal_value("even", 30, 2, 2, 2) == ex_even_edges(30, 2, 2)
        assert extremal_value("even", 30, 3, 5, 2) == ex_even(30, 3, 5, 2)
        assert extremal_value("even", 30, 3, 5, 2, True) == ex_even_edges(30, 3, 5)
        assert extremal_value("even", 30, 3, 5, 3) == ex_even(30, 3, 5, 3)

    @pytest.mark.parametrize(
        "args, message",
        [
            (("even", 30, 3, 5, 3, True), "--edges-only requires r=2, got r=3"),
            (("odd", 30, 3, 5, 3, True), "--edges-only requires r=2, got r=3"),
            (("both", 30, 3, 5, 2), "parity must be 'odd' or 'even', got 'both'"),
            (("odd", 30, 1, 5, 2), "k must be >= 2, got 1"),
        ],
    )
    def test_faults_that_ignore_n(self, args, message):
        with pytest.raises(ParameterError) as info:
            extremal_value(*args)
        assert str(info.value) == message
        assert not isinstance(info.value, WitnessOrderError)

    def test_below_witness_order_is_its_own_error(self):
        for parity, k, s, r in [("odd", 3, 7, 2), ("even", 3, 5, 2), ("even", 3, 5, 3),
                                ("even", 2, 2, 2)]:
            with pytest.raises(WitnessOrderError):
                extremal_value(parity, 3, k, s, r)

    def test_even_formulas_agree_at_r2(self):
        # the dispatch may send r = 2, k >= 3 to either even formula: they
        # agree in value and witness, and refuse the same n
        for k in range(3, 7):
            for s in range(k - 1, 4 * k):
                for n in range(1, 6 * s + 2 * k + 2):
                    try:
                        edges = ex_even_edges(n, k, s)
                    except WitnessOrderError:
                        with pytest.raises(WitnessOrderError):
                            ex_even(n, k, s, 2)
                        continue
                    general = ex_even(n, k, s, 2)
                    assert general.value == edges.value, (n, k, s)
                    assert general.witness == edges.witness, (n, k, s)
                    assert general.asymptotic_warning == edges.asymptotic_warning
                    assert {general.regime, edges.regime} in ({"T1", "St2"}, {"T2", "St1"})

