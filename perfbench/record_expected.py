#!/usr/bin/env python3
"""Record perfbench/expected.json and cross-check every answer in it.

    python3 perfbench/record_expected.py [--src DIR]

Oracle maxima and canonical witness sets come from brute_force_ex.  Each
one is cross-checked against the other engine, enumerate_family_free
(same maximum, and the maximising classes in canonical form are exactly
the witness set), and, at n = 7, against the networkx graph atlas, which
lists every graph on at most 7 vertices independently of genturan.  The
iso-enum class counts and edge-count histograms come from the atlas and
must equal enumerate_family_free's; the unconstrained count must be 1044
(OEIS A000088).  Needs networkx; the benchmark itself does not.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from itertools import combinations
from pathlib import Path

HERE = Path(__file__).resolve().parent
GRAPHS_ON_7_VERTICES = 1044


def atlas_graphs(n: int):
    import networkx as nx

    return [g for g in nx.graph_atlas_g() if g.number_of_nodes() == n]


def atlas_free(g, c, s) -> bool:
    import networkx as nx

    if c is not None and any(len(cyc) >= c for cyc in nx.simple_cycles(g)):
        return False
    if s is not None and len(nx.max_weight_matching(g, maxcardinality=True)) > s:
        return False
    return True


def atlas_cliques(g, r: int) -> int:
    return sum(
        1
        for sub in combinations(g.nodes(), r)
        if all(g.has_edge(u, v) for u, v in combinations(sub, 2))
    )


def require(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"cross-check failed: {message}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=HERE.parent / "src")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(args.src.resolve()), str(HERE)]
    import genturan as G
    import workloads

    expected = {"oracle": {}, "iso_enum": {}}
    for n, c, s, r in workloads.ORACLE_QUERIES:
        key = workloads.query_key(n, c, s, r)
        family = G.ForbiddenFamily(cycle_min_len=c, matching_bound=s, clique_order=r)
        res = G.brute_force_ex(n, family, jobs=1)
        classes = list(G.enumerate_family_free(n, family))
        counts = [G.count_cliques(g, r) for g in classes]
        best = max(counts)
        attainers = {G.canonical_graph6(g) for g, k in zip(classes, counts) if k == best}
        require(res.max_count == best, f"{key}: oracle max {res.max_count}, enumeration {best}")
        require(set(res.witnesses) == attainers, f"{key}: witnesses {res.witnesses} != {attainers}")
        if n == 7:
            free = [g for g in atlas_graphs(n) if atlas_free(g, c, s)]
            atlas_counts = [atlas_cliques(g, r) for g in free]
            require(max(atlas_counts) == best, f"{key}: atlas max {max(atlas_counts)} != {best}")
            require(
                atlas_counts.count(best) == len(res.witnesses),
                f"{key}: atlas has {atlas_counts.count(best)} maximisers",
            )
        expected["oracle"][key] = {"max": best, "witnesses": sorted(res.witnesses)}
        print(f"oracle {key}: max {best}, {len(res.witnesses)} witness(es)")

    for n, c, s in workloads.ENUM_FAMILIES:
        key = workloads.query_key(n, c, s, None)
        family = G.ForbiddenFamily(cycle_min_len=c, matching_bound=s)
        classes = list(G.enumerate_family_free(n, family))
        histogram = Counter(g.num_edges for g in classes)
        atlas = [g for g in atlas_graphs(n) if atlas_free(g, c, s)]
        atlas_histogram = Counter(g.number_of_edges() for g in atlas)
        require(histogram == atlas_histogram, f"{key}: {histogram} != atlas {atlas_histogram}")
        if c is None and s is None:
            require(len(classes) == GRAPHS_ON_7_VERTICES, f"{key}: {len(classes)} classes")
        expected["iso_enum"][key] = {
            "classes": len(classes),
            "edge_histogram": {str(m): histogram[m] for m in sorted(histogram)},
        }
        print(f"iso-enum {key}: {len(classes)} classes")

    path = HERE / "expected.json"
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
