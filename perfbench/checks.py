"""Answers and checks that do not come from the code under test.

Everything here works on plain Python edge sets, never on genturan
objects' own algorithms: a graph6 decoder, edge-by-edge verification of
returned cycles, matchings and Berge-Tutte certificates, closed-form
invariants of block-star witnesses, and brute-force counts for graphs on
at most 8 vertices (used to re-verify oracle witnesses).
"""

from __future__ import annotations

from itertools import combinations
from math import comb


def decode_graph6(text: str) -> tuple[int, set[tuple[int, int]]]:
    """(n, edge set with u < v) of a graph6 string."""
    data = text.strip()
    if data.startswith(">>graph6<<"):
        data = data[len(">>graph6<<"):]
    vals = [ord(c) - 63 for c in data]
    if not vals or any(v < 0 or v > 63 for v in vals):
        raise ValueError(f"not a graph6 string: {text!r}")
    if vals[0] < 63:
        n, pos = vals[0], 1
    elif len(vals) > 1 and vals[1] < 63:
        n, pos = (vals[1] << 12) | (vals[2] << 6) | vals[3], 4
    else:
        n = 0
        for v in vals[2:8]:
            n = (n << 6) | v
        pos = 8
    bits = [(v >> (5 - i)) & 1 for v in vals[pos:] for i in range(6)]
    need = n * (n - 1) // 2
    if len(bits) < need or len(bits) - need >= 6 or any(bits[need:]):
        raise ValueError(f"graph6 body has the wrong length for n={n}")
    edges = set()
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.add((i, j))
            idx += 1
    return n, edges


def edge_key(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def check_cycle(cycle, edges: set, n: int, min_len: int) -> str | None:
    """None when `cycle` is a simple cycle of length >= min_len whose every
    consecutive pair (closing pair included) is an edge; else the reason."""
    if cycle is None:
        return "no cycle returned"
    cyc = list(cycle)
    if len(cyc) < max(min_len, 3):
        return f"cycle of length {len(cyc)} is shorter than {min_len}"
    if len(set(cyc)) != len(cyc) or not all(0 <= v < n for v in cyc):
        return f"cycle {cyc} repeats or leaves the vertex range"
    for a, b in zip(cyc, cyc[1:] + cyc[:1]):
        if edge_key(a, b) not in edges:
            return f"cycle step ({a},{b}) is not an edge"
    return None


def check_matching(matching, edges: set, size: int) -> str | None:
    """None when `matching` holds `size` pairwise-disjoint graph edges."""
    if matching is None:
        return "no matching returned"
    pairs = [tuple(e) for e in matching]
    if len(pairs) != size:
        return f"matching has {len(pairs)} edges, expected {size}"
    used = set()
    for u, v in pairs:
        if edge_key(u, v) not in edges:
            return f"matching pair ({u},{v}) is not an edge"
        if u in used or v in used:
            return f"matching pair ({u},{v}) reuses a vertex"
        used.update((u, v))
    return None


def component_sizes(n: int, edges: set, removed: set) -> list[int]:
    """Sizes of the components of G - removed, by plain graph search."""
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    seen = set(removed)
    sizes = []
    for root in range(n):
        if root in seen:
            continue
        seen.add(root)
        stack, size = [root], 0
        while stack:
            x = stack.pop()
            size += 1
            for y in nbrs[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        sizes.append(size)
    return sizes


def check_certificate(cert, edges: set, n: int, s: int) -> str | None:
    """None when cert's vertex set X really bounds the matching number by
    s: |X| + sum(floor(c/2)) over the components c of G - X is at most s."""
    if cert is None:
        return "no certificate returned although nu <= s"
    removed = set(cert.vertex_set)
    sizes = sorted(component_sizes(n, edges, removed))
    if sizes != sorted(cert.component_sizes):
        return f"certificate sizes {sorted(cert.component_sizes)} != actual {sizes}"
    bound = len(removed) + sum(c // 2 for c in sizes)
    if bound > s:
        return f"certificate bound {bound} exceeds s={s}"
    return None


# ---------------------------------------------------------------------------
# closed forms of block-star witnesses
#
# A block star is a central dominated-clique block H(m, K, a) (a clique
# K_{K-a} whose first a vertices also dominate m-(K-a) attachment vertices)
# with clique blocks K_c glued at vertex 0.  Every clique and every cycle
# lies inside one block, and vertex 0 is covered by every maximum matching
# of the central block, which gives the invariants below.


def central_cliques(m: int, big_k: int, a: int, r: int) -> int:
    return comb(big_k - a, r) + (m - big_k + a) * comb(a, r - 1)


def central_circumference(m: int, big_k: int, a: int) -> int:
    """Longest cycle of H(m, K, a) for m >= K: every cycle passes through
    dominators; a cycle through all a of them has a gaps, one of which can
    hold all K-2a non-dominating clique vertices and the others one
    attachment each, so the longest cycle has max(K-1, 2a) vertices."""
    length = max(big_k - 1, 2 * a)
    return length if length >= 3 else 0


def central_block_orders(m: int, big_k: int, a: int) -> list[int]:
    """With a >= 2 the central block is 2-connected; with a = 1 it is the
    clique K_{K-1} plus pendant edges at vertex 0."""
    if a >= 2:
        return [m]
    return ([big_k - 1] if big_k - 1 >= 2 else []) + [2] * (m - big_k + 1)


def block_star_invariants(m: int, big_k: int, a: int, attached, orders) -> dict:
    """K_r counts (r in orders), matching number, circumference and block
    orders of a block star, from its block sizes alone."""
    attached = list(attached)
    return {
        "cliques": {
            r: central_cliques(m, big_k, a, r) + sum(comb(c, r) for c in attached)
            for r in orders
        },
        "nu": big_k // 2 + sum((c - 1) // 2 for c in attached),
        "circumference": max(
            [central_circumference(m, big_k, a)] + [c for c in attached if c >= 3]
        ),
        "block_orders": sorted(central_block_orders(m, big_k, a) + attached),
    }


# ---------------------------------------------------------------------------
# brute force for graphs on at most 8 vertices


def brute_cliques(n: int, edges: set, r: int) -> int:
    return sum(
        1
        for sub in combinations(range(n), r)
        if all(edge_key(u, v) in edges for u, v in combinations(sub, 2))
    )


def brute_matching_number(n: int, edges: set) -> int:
    edge_list = sorted(edges)

    def best(i: int, used: frozenset) -> int:
        if i == len(edge_list):
            return 0
        u, v = edge_list[i]
        skip = best(i + 1, used)
        if u in used or v in used:
            return skip
        return max(skip, 1 + best(i + 1, used | {u, v}))

    return best(0, frozenset())


def brute_circumference(n: int, edges: set) -> int:
    """Longest cycle by walking every simple path from its least vertex."""
    nbrs = [[w for w in range(n) if edge_key(v, w) in edges] for v in range(n)]
    longest = 0

    def walk(start: int, v: int, visited: int, length: int) -> None:
        nonlocal longest
        for w in nbrs[v]:
            if w == start and length >= 3:
                longest = max(longest, length)
            elif w > start and not (visited >> w) & 1:
                walk(start, w, visited | (1 << w), length + 1)

    for start in range(n):
        walk(start, start, 1 << start, 1)
    return longest
