"""The three benchmark workloads.

Each workload is a fixed list of items, built by the functions in
WORKLOADS from the genturan module, the seed and the expected answers.  An item's `work` calls into
genturan and returns its outputs; the runner times `work` alone, then
hands the outputs to the item's `check`, which compares them with answers
that do not come from the code under test and returns the list of
mismatches.  `work` looks every genturan function up on the module object
at call time, so the tracer can rebind it.

Workloads and why they were chosen:

* oracle: brute_force_ex on five fixed queries.  The branch-and-bound
  search and has_matching_of_size do most of the work; the queries range
  from search-heavy (C>=5, C>=6) to canonicalisation-heavy (C>=4 nu<=2),
  and the cycle module hardly runs.
* witness-verify: every extremal witness construction on the odd,
  St1/St2, even (r >= 3) and dominated-clique grids up to n = 60, each
  relabelled by a seeded permutation, then serialised, family-checked,
  clique-counted, matched and block-decomposed.  The cycle search does
  most of the work, on large graphs with heavy twin structure; canonical
  labelling and the oracle never run.
* iso-enum: enumerate_family_free at n = 7 for three families.  Canonical
  labelling dominates and the family check runs on about 19,700 small
  graphs per pass without twin structure, a quarter of which it rejects.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

ORACLE_QUERIES = [
    # (n, cycle_min_len, matching_bound, clique_order)
    (7, 5, 5, 2),
    (7, 4, 2, 2),
    (7, 6, None, 2),
    (7, 5, 3, 3),
    (8, None, 2, 2),
]

ENUM_FAMILIES = [
    # (n, cycle_min_len, matching_bound)
    (7, None, None),
    (7, 5, 5),
    (7, 4, 2),
]

# witness-verify grid: orders from the smallest witness order up to
# MAX_ORDER in steps of ORDER_STEP, plus MAX_ORDER itself.
MAX_ORDER = 60
ORDER_STEP = 13
CERTIFICATE_MAX_ORDER = 20


@dataclass
class Item:
    label: str
    work: Callable[[], object]
    check: Callable[[object], list]


def family_label(cycle_min_len, matching_bound, r=None) -> str:
    parts = []
    if cycle_min_len is not None:
        parts.append(f"C>={cycle_min_len}")
    if matching_bound is not None:
        parts.append(f"nu<={matching_bound}")
    if r is not None:
        parts.append(f"r={r}")
    return " ".join(parts) or "unconstrained"


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def query_key(n, cycle_min_len, matching_bound, r) -> str:
    return f"n={n} {family_label(cycle_min_len, matching_bound, r)}"


# ---------------------------------------------------------------------------
# oracle


def _check_oracle_witness(text, n, c, s, r, best) -> list:
    size, edges = checks.decode_graph6(text)
    errors = []
    if size != n:
        errors.append(f"witness {text} has {size} vertices")
    if checks.brute_cliques(n, edges, r) != best:
        errors.append(f"witness {text} does not reach the maximum {best}")
    if c is not None and checks.brute_circumference(n, edges) >= c:
        errors.append(f"witness {text} has a cycle of length >= {c}")
    if s is not None and checks.brute_matching_number(n, edges) > s:
        errors.append(f"witness {text} has a matching larger than {s}")
    return errors


def oracle_workload(G, seed: int, expected: dict) -> list:
    items = []
    for n, c, s, r in ORACLE_QUERIES:
        key = query_key(n, c, s, r)
        want = expected["oracle"][key]
        family = G.ForbiddenFamily(cycle_min_len=c, matching_bound=s, clique_order=r)

        def work(n=n, family=family):
            return G.brute_force_ex(n, family, jobs=1)

        def check(out, n=n, c=c, s=s, r=r, want=want):
            errors = []
            if out.max_count != want["max"]:
                errors.append(f"max {out.max_count} != expected {want['max']}")
            if sorted(out.witnesses) != sorted(want["witnesses"]):
                errors.append(
                    f"witnesses {sorted(out.witnesses)} != expected "
                    f"{sorted(want['witnesses'])}"
                )
            for text in out.witnesses:
                errors += _check_oracle_witness(text, n, c, s, r, want["max"])
            return errors

        items.append(Item(key, work, check))
    return items


# ---------------------------------------------------------------------------
# iso-enum


def iso_enum_workload(G, seed: int, expected: dict) -> list:
    items = []
    for n, c, s in ENUM_FAMILIES:
        key = query_key(n, c, s, None)
        want = expected["iso_enum"][key]
        family = G.ForbiddenFamily(cycle_min_len=c, matching_bound=s)

        def work(n=n, family=family):
            return list(G.enumerate_family_free(n, family))

        def check(out, want=want):
            errors = []
            if len(out) != want["classes"]:
                errors.append(f"{len(out)} classes != expected {want['classes']}")
            histogram = Counter(g.num_edges for g in out)
            expected_hist = {int(m): c for m, c in want["edge_histogram"].items()}
            if dict(histogram) != expected_hist:
                errors.append(f"edge histogram {dict(histogram)} != {expected_hist}")
            return errors

        items.append(Item(key, work, check))
    return items


# ---------------------------------------------------------------------------
# witness-verify


def _orders(smallest: int) -> list:
    return sorted(set(range(smallest, MAX_ORDER + 1, ORDER_STEP)) | {MAX_ORDER})


def _witness_specs(G):
    """(label, builder, spec, cycle_min_len, matching_bound, r, value) for
    every witness on the grids; value is the formulas' closed form of the
    K_r count, spec the block-star description the invariants come from."""
    # odd threshold: no cycle >= 2k+1, nu <= s (all three cases)
    for k in range(2, 6):
        for r in range(2, k + 2):
            for s in range(2 * k + 1, 4 * k + 1):
                attached = G.ex_odd(10**6, k, s, r).witness.attached
                smallest = 2 * k + 1 + sum(c - 1 for c in attached)
                for n in _orders(smallest):
                    ev = G.ex_odd(n, k, s, r)
                    yield (
                        f"odd n={n} k={k} s={s} r={r}",
                        lambda n=n, k=k, s=s, r=r: G.build_extremal_odd(n, k, s, r),
                        ev.witness, 2 * k + 1, s, r, ev.value,
                    )
    # even threshold at r = 2: St1 / St2
    for k in range(2, 7):
        for q in range(1, 6):
            base = (q - 1) * (2 * k - 2)
            for name, build, spec_fn, s, smallest in (
                ("St1", "build_St1", G.st1_spec, q * (k - 1), base + 2 * k - 1),
                ("St2", "build_St2", G.st2_spec, q * (k - 1) + 1, base + 2 * k),
            ):
                for n in _orders(smallest):
                    # St2 has one edge more than the St1 value (criterion 6)
                    value = G.ex_even_edges(n, k, q * (k - 1)).value + (name == "St2")
                    yield (
                        f"{name} n={n} k={k} q={q}",
                        lambda build=build, n=n, k=k, q=q: getattr(G, build)(n, k, q),
                        spec_fn(n, k, q), 2 * k, s, 2, value,
                    )
    # even threshold at r >= 3: the optimizer's block profile
    for k in range(3, 6):
        for r in range(3, k + 1):
            for s in range(k - 1, 3 * k + 1):
                for n in _orders(2 * k):
                    try:
                        ev = G.ex_even(n, k, s, r)
                    except G.ParameterError:
                        continue  # n is below this profile's witness order
                    yield (
                        f"even n={n} k={k} s={s} r={r}",
                        lambda n=n, k=k, s=s, r=r: G.build_block_star(
                            G.ex_even(n, k, s, r).witness
                        ),
                        ev.witness, 2 * k, s, r, ev.value,
                    )
    # dominated-clique graphs H(n, k, a), 2a < k: no cycle >= k, nu = k // 2
    for k in range(4, 11):
        for a in range(2, (k - 1) // 2 + 1):
            for n in _orders(k):
                if n > 30:
                    continue
                yield (
                    f"H n={n} k={k} a={a}",
                    lambda n=n, k=k, a=a: G.build_H(n, k, a),
                    G.BlockStarSpec(central=G.HGraphParams(n=n, k=k, a=a)),
                    k, k // 2, 2, G.f_value(n, k, a, 2),
                )


def witness_workload(G, seed: int, expected: dict) -> list:
    items = []
    for label, build, spec, c, s, r, value in _witness_specs(G):
        central = spec.central
        orders = sorted({2, 3, 4, 5, r})
        inv = checks.block_star_invariants(
            central.n, central.k, central.a, spec.attached, orders
        )
        n = spec.total_order
        perm = list(range(n))
        random.Random(f"{seed}:{label}").shuffle(perm)
        strict_c = c - 1
        nu = inv["nu"]

        def work(build=build, n=n, perm=perm, c=c, s=s, nu=nu, strict_c=strict_c,
                 orders=orders):
            g0 = build()
            g = G.Graph(n, [(perm[u], perm[v]) for u, v in g0.edges()])
            text = G.to_graph6(g)
            back = G.from_graph6(text)
            return {
                "n0": g0.n,
                "graph": g,
                "graph6": text,
                "round_trip": back == g,
                "free": G.is_family_free(
                    g, G.ForbiddenFamily(cycle_min_len=c, matching_bound=s)
                ),
                "cliques": {q: G.count_cliques(g, q) for q in orders},
                "nu": G.max_matching(g),
                "certificate": (
                    G.berge_tutte_certificate(g, s)
                    if n <= CERTIFICATE_MAX_ORDER
                    else None
                ),
                "blocks": sorted(G.block_decomposition(g).block_orders()),
                "strict_cycle": G.is_family_free(
                    g, G.ForbiddenFamily(cycle_min_len=strict_c)
                ),
                "strict_matching": G.is_family_free(
                    g, G.ForbiddenFamily(matching_bound=nu - 1)
                ),
            }

        def check(out, n=n, c=c, s=s, r=r, value=value, inv=inv, strict_c=strict_c):
            errors = []
            masks = out["graph"].adjacency_masks
            edges = {
                (u, v) for u in range(len(masks)) for v in range(u + 1, len(masks))
                if (masks[u] >> v) & 1
            }
            if out["n0"] != n:
                errors.append(f"built {out['n0']} vertices, expected {n}")
            size, decoded = checks.decode_graph6(out["graph6"])
            if size != n or decoded != edges:
                errors.append("graph6 text does not encode the graph")
            if not out["round_trip"]:
                errors.append("graph6 round trip changed the graph")
            if inv["cliques"][r] != value:
                errors.append(f"block sizes give {inv['cliques'][r]} K_{r}, formula {value}")
            if out["cliques"] != inv["cliques"]:
                errors.append(f"clique counts {out['cliques']} != {inv['cliques']}")
            if len(edges) != inv["cliques"][2]:
                errors.append(f"{len(edges)} edges, expected {inv['cliques'][2]}")
            if out["nu"] != inv["nu"]:
                errors.append(f"matching number {out['nu']} != {inv['nu']}")
            if out["blocks"] != inv["block_orders"]:
                errors.append(f"block orders {out['blocks']} != {inv['block_orders']}")
            if not out["free"]:
                errors.append(f"family check reports a {out['free'].violated} violation")
            if inv["circumference"] >= c or inv["nu"] > s:
                errors.append("closed-form invariants violate the family")
            if n <= CERTIFICATE_MAX_ORDER:
                bad = checks.check_certificate(out["certificate"], edges, n, s)
                if bad:
                    errors.append(bad)
            strict = out["strict_cycle"]
            if inv["circumference"] >= strict_c:
                bad = checks.check_cycle(strict.cycle, edges, n, strict_c)
                if strict or bad:
                    errors.append(f"stricter cycle check: {bad or 'no violation found'}")
            elif not strict:
                errors.append(f"stricter cycle check reports a cycle {strict.cycle}")
            bad = checks.check_matching(out["strict_matching"].matching, edges, inv["nu"])
            if bad:
                errors.append(f"stricter matching check: {bad}")
            return errors

        items.append(Item(label, work, check))
    return items


WORKLOADS = {
    "oracle": oracle_workload,
    "witness-verify": witness_workload,
    "iso-enum": iso_enum_workload,
}
