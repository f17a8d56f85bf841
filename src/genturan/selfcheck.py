"""Embedded invariant suite behind `genturan selfcheck`.

A fast battery of cross-checks between the formula, constructor,
graph-primitive and oracle layers.  Each check prints one line; the
run exits nonzero iff any check fails.
"""

from __future__ import annotations

from math import comb

from .blocks import block_decomposition, star_transform
from .constructors import (
    build_H,
    build_St1,
    build_St2,
    build_block_star,
    build_extremal_odd,
    build_woodall_G0,
)
from .cycles import circumference, has_cycle_geq
from .family import ForbiddenFamily, is_family_free
from .formulas import (
    ex_even,
    ex_even_edges,
    ex_matching_only,
    ex_odd,
    f_value,
    tau,
    woodall_bound,
)
from .graphs import Graph, count_cliques, count_cliques_in_mask
from .graph_io import from_graph6, to_graph6
from .matching import berge_tutte_certificate, max_matching
from .oracle import brute_force_ex, canonical_graph6, enumerate_family_free


def _check_tau() -> None:
    assert tau(3, 3) == 5
    for k in range(2, 13):
        assert tau(k, 2) == 2 * k, f"tau({k},2) != {2 * k}"
    for k in range(2, 9):
        for r in range(2, k + 2):
            assert tau(k, r) > k


def _check_h_graph() -> None:
    for (n, k, a) in [(10, 5, 2), (12, 7, 3), (9, 6, 2), (14, 9, 4)]:
        g = build_H(n, k, a)
        assert g.num_edges == f_value(n, k, a, 2)
        for r in range(2, 6):
            assert count_cliques(g, r) == f_value(n, k, a, r)
        assert max_matching(g) == k // 2
        assert not has_cycle_geq(g, k)
    assert circumference(build_H(12, 5, 2)) == 4


def _check_odd() -> None:
    value = ex_odd(20, 2, 5, 2)
    assert value.value == 37 and value.regime == "Case1"
    for (n, k, s, r) in [(20, 2, 5, 2), (30, 3, 7, 3), (30, 3, 7, 2), (30, 5, 12, 5)]:
        ev = ex_odd(n, k, s, r)
        g = build_extremal_odd(n, k, s, r)
        assert count_cliques(g, r) == ev.value
        assert is_family_free(
            g, ForbiddenFamily(cycle_min_len=2 * k + 1, matching_bound=s, clique_order=r)
        )
    # the twin-quotient count against the plain count (the same loop, each
    # vertex its own class), on a witness relabelled so that no class is a
    # run of consecutive labels
    g = build_extremal_odd(30, 3, 7, 3).relabeled([7 * v % 30 for v in range(30)])
    full = (1 << g.n) - 1
    for r in range(3, 8):
        assert count_cliques(g, r) == count_cliques_in_mask(g.adjacency_masks, full, r)


def _check_even() -> None:
    for k in range(2, 6):
        for q in range(1, 4):
            s0 = q * (k - 1)
            n = (q - 1) * (2 * k - 2) + 2 * k + 3
            st1 = build_St1(n, k, q)
            assert st1.num_edges == (k - 1) * n - comb(k, 2) + (k - 1) * (q - 1)
            assert ex_even_edges(n, k, s0).value == st1.num_edges
            assert is_family_free(
                st1, ForbiddenFamily(cycle_min_len=2 * k, matching_bound=s0)
            )
            st2 = build_St2(n, k, q)
            assert st2.num_edges == st1.num_edges + 1
            assert is_family_free(
                st2, ForbiddenFamily(cycle_min_len=2 * k, matching_bound=s0 + 1)
            )
    for k in range(3, 6):
        for s in range(k - 1, 3 * k):
            n = 6 * s + 2 * k
            assert ex_even(n, k, s, 2).value == ex_even_edges(n, k, s).value


def _check_star_transform() -> None:
    p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
    dec = block_decomposition(p4)
    b1 = dec.blocks.index((0, 1))
    assert star_transform(p4, b1, 0) == Graph(4, [(0, 1), (0, 2), (0, 3)])
    bowtie = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
    for b1 in range(2):
        for u1 in block_decomposition(bowtie).blocks[b1]:
            st = star_transform(bowtie, b1, u1)
            assert st.num_edges == bowtie.num_edges
            for r in (2, 3):
                assert count_cliques(st, r) == count_cliques(bowtie, r)


def _check_certificate() -> None:
    cert = berge_tutte_certificate(build_H(12, 5, 2), 2)
    assert cert is not None and cert.vertex_set == (0, 1) and cert.slack == 0
    assert berge_tutte_certificate(Graph(4, [(0, 1), (2, 3)]), 1) is None
    cert = berge_tutte_certificate(build_extremal_odd(70, 3, 10, 3), 10)
    assert cert is not None and cert.slack == 1  # nu = 9


def _check_oracle() -> None:
    for n, s in ((5, 1), (9, 2)):
        res = brute_force_ex(n, ForbiddenFamily(matching_bound=s))
        assert res.max_count == ex_matching_only(n, s)
    res = brute_force_ex(5, ForbiddenFamily(cycle_min_len=4))
    assert res.max_count == woodall_bound(5, 4) == 6
    assert canonical_graph6(build_woodall_G0(5, 4)) in res.witnesses
    # classes of graphs (OEIS A000088) and of forests (OEIS A005195)
    for family, counts in (
        (ForbiddenFamily(), [1, 2, 4, 11, 34, 156]),
        (ForbiddenFamily(cycle_min_len=3), [1, 2, 3, 6, 10, 20, 37, 76]),
    ):
        for n, count in enumerate(counts, 1):
            found = len(list(enumerate_family_free(n, family)))
            assert found == count, f"{found} classes of {family} on {n}, not {count}"


def _check_io() -> None:
    # build_extremal_odd(70, ...) needs the four-byte graph6 order field
    for g in [
        build_H(10, 5, 2),
        build_woodall_G0(7, 5),
        Graph.complete(4),
        build_extremal_odd(70, 3, 10, 3),
    ]:
        assert from_graph6(to_graph6(g)) == g
    assert to_graph6(Graph.complete(4)) == "C~"
    g = build_block_star(ex_odd(24, 3, 7, 3).witness)
    assert g == build_extremal_odd(24, 3, 7, 3)
    # the constructors write masks directly: check symmetry, loops, range
    assert Graph.from_adjacency_masks(g.adjacency_masks) == g


_CHECKS = [
    ("tau thresholds", _check_tau),
    ("dominated-clique identities", _check_h_graph),
    ("odd-threshold witnesses", _check_odd),
    ("even-threshold witnesses", _check_even),
    ("star transform preservation", _check_star_transform),
    ("matching certificates", _check_certificate),
    ("small-order oracle", _check_oracle),
    ("serialization round trips", _check_io),
]


def run_selfcheck() -> int:
    failures = 0
    for name, fn in _CHECKS:
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 - report and continue
            failures += 1
            print(f"FAIL {name}: {exc!r}")
        else:
            print(f"ok   {name}")
    if failures:
        print(f"{failures} of {len(_CHECKS)} checks failed")
        return 1
    print(f"all {len(_CHECKS)} checks passed")
    return 0
