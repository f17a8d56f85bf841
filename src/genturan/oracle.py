"""Exhaustive ground truth for small orders.

brute_force_ex maximizes the K_r count over every labeled family-free
graph on n vertices (n <= 8).  The search walks the edge-index space as
a branch-and-bound: edges are decided include-first in lexicographic
order, an include is attempted only while the graph stays family-free
(freeness is inherited by subgraphs, so pruned inclusions stay pruned),
and a branch is cut when the current count plus an upper bound on what
the still-addable edges can contribute falls strictly below the best
known value.  Verified library constructions seed that best value, so
the search mostly certifies optimality instead of discovering it.

The freeness test for an include is incremental, by two rules.  First,
the search carries the matching number nu of the current graph G, and
nu(G + uv) = nu + 1 iff G - u - v has a matching of size nu, because a
matching of size nu + 1 in G + uv must use uv; so one test on G decides
both whether uv is rejected (nu = s) and the new nu.  Second, "no u..v
path on >= k_c vertices" is inherited by subgraphs, since every path of
a subgraph is a path of the graph.  Each node returns the edges found
free of such a path on its graph or on the supergraphs below it, and
its exclude branch, which stays on the same graph, skips the long-cycle
test for them.  The answers never flow into an include branch, whose
graph is a supergraph.  This is the dual of the addable mask, which
carries rejections down into supergraphs.

The first few edge decisions are split into fixed chunks.  Chunks are
searched independently (serially or on a process pool) and merged in
chunk order, so maxima, witness sets and the examined counter are
identical regardless of parallelism.

Witnesses are reported in canonical form: the lexicographically minimal
adjacency bit encoding over all vertex permutations, which is also the
minimal graph6 body.  A branch-and-bound over partial vertex placements
computes it without touching all n! permutations, pruned by two rules
that cannot lose the minimum.  First, only unplaced vertices of minimum
code (adjacency toward the placed ones) are branched on: the code of the
vertex placed next is the next encoding entry, compared before every
later one, so the minimal code is forced at each position.  Second, of
unplaced twins (equal open or equal closed neighborhoods) only the
lowest-labelled is tried: transposing two unplaced twins is an
automorphism that fixes the placed prefix, so both subtrees yield the
same encodings.  The extremal graphs are block-stars, made of cliques of
closed twins and classes of open twins, so the second rule removes most
of their search.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from math import comb
from typing import Iterator

from .constructors import build_block_star, build_woodall_G0
from .errors import OracleSizeError, ParameterError
from .family import ForbiddenFamily, is_family_free
from .formulas import ex_even_edges, ex_odd
from .graphs import Graph, count_cliques, count_cliques_in_mask, reach, twin_class_masks
from .graph_io import to_graph6
from .matching import has_matching_of_size

_ORACLE_LIMIT = 8
_WITNESS_CAP = 100
_CHUNK_EDGES = 6


# ---------------------------------------------------------------------------
# canonical forms


def canonical_encoding(graph: Graph) -> tuple[int, ...]:
    """Lexicographically minimal adjacency encoding over all relabelings.

    Entry j-1 holds the adjacency bits of position j toward positions
    0..j-1 (earlier positions in higher bits), matching graph6 bit order.

    The search places vertices at positions 0, 1, ... and prunes by two
    rules, neither of which can discard the minimum:

    * only vertices of minimum code are branched on.  The code of an
      unplaced vertex is its adjacency toward the placed ones, so placing
      it at position j makes its code entry j-1, and that entry is
      compared before every later one: a larger code cannot lead to the
      minimum;
    * of the unplaced vertices that are twins (masks[u] & ~bit(v) ==
      masks[v] & ~bit(u): equal open neighborhoods if non-adjacent, equal
      closed ones if adjacent), only the lowest-labelled is tried.  The
      transposition of two such vertices is an automorphism that fixes
      every placed vertex, so their two subtrees yield the same encodings.

    A node whose encoding prefix already exceeds the best one found is cut.
    Prefixes are kept as one integer (entry j is j bits wide), so a node
    costs one comparison.

    There is no size limit or budget, and the time is exponential on
    sparse graphs without twins: minimum codes place an independent set
    first, and a long cycle has very many orderings of one (the cycle C_n
    takes 0.35 s at n = 14, 3.15 s at n = 16, over 40 s at n = 20).  The
    oracle calls it only for n <= 8.
    """
    n = graph.n
    if n <= 1:
        return ()
    masks = graph.adjacency_masks
    full = (1 << n) - 1
    open_twins = twin_class_masks(masks, full, n)
    closed = [m | 1 << v for v, m in enumerate(masks)]
    twins = [a | b for a, b in zip(open_twins, twin_class_masks(closed, full, n))]
    width = n * (n - 1) // 2
    best = -1

    def rec(j: int, prefix: int, codes: list[tuple[int, int]]) -> None:
        # codes: (vertex, code) for the unplaced vertices, by vertex label
        nonlocal best
        low_code = min(code for _, code in codes)
        prefix = (prefix << j) | low_code
        if best >= 0 and prefix > best >> (width - j * (j + 1) // 2):
            return
        if len(codes) == 1:
            best = prefix
            return
        tried = 0
        for v, code in codes:
            if code != low_code or (tried >> v) & 1:
                continue
            tried |= twins[v]
            mask_v = masks[v]
            rec(
                j + 1,
                prefix,
                [(u, code_u << 1 | (mask_v >> u) & 1) for u, code_u in codes if u != v],
            )

    rec(0, 0, [(v, 0) for v in range(n)])
    enc = []
    for j in range(n - 1, 0, -1):
        enc.append(best & ((1 << j) - 1))
        best >>= j
    return tuple(reversed(enc))


def graph_from_encoding(enc: tuple[int, ...], n: int) -> Graph:
    edges = []
    for j in range(1, n):
        bits = enc[j - 1]
        for i in range(j):
            if (bits >> (j - 1 - i)) & 1:
                edges.append((i, j))
    return Graph(n, edges)


def canonical_graph(graph: Graph) -> Graph:
    """The relabeling of graph with the minimal encoding.  Exponential on
    sparse graphs without twins, with no limit: see canonical_encoding."""
    return graph_from_encoding(canonical_encoding(graph), graph.n)


def canonical_graph6(graph: Graph) -> str:
    """The minimal graph6 string over all relabelings.  Exponential on
    sparse graphs without twins, with no limit: see canonical_encoding."""
    return to_graph6(canonical_graph(graph))


# ---------------------------------------------------------------------------
# isomorphism-free enumeration


def enumerate_family_free(
    n: int, family: ForbiddenFamily, *, connected_only: bool = False
) -> Iterator[Graph]:
    """Every family-free graph on n vertices, once per isomorphism class.

    Grows graphs one vertex at a time (freeness and connectivity are both
    inherited by the right induced subgraphs) with canonical-form
    deduplication at each level.  Yields canonical graphs in encoding
    order.  Limited to n <= 8.
    """
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    if n > _ORACLE_LIMIT:
        raise OracleSizeError(
            f"family-free enumeration handles n <= {_ORACLE_LIMIT}, got n={n}"
        )
    level = [Graph(1)]
    for size in range(2, n + 1):
        seen: dict[tuple[int, ...], None] = {}
        low = 1 if connected_only else 0
        for g in level:
            base = g.adjacency_masks
            new_bit = 1 << (size - 1)
            for nbr in range(low, 1 << (size - 1)):
                masks = [
                    m | new_bit if (nbr >> v) & 1 else m for v, m in enumerate(base)
                ]
                masks.append(nbr)
                h = Graph.from_adjacency_masks(masks)
                if not is_family_free(h, family):
                    continue
                key = canonical_encoding(h)
                if key not in seen:
                    seen[key] = None
        level = [graph_from_encoding(key, size) for key in sorted(seen)]
    yield from level


# ---------------------------------------------------------------------------
# exhaustive maximization


@dataclass(frozen=True)
class OracleResult:
    """Exact maximum with deduplicated canonical witnesses.

    examined counts search-tree nodes and is independent of parallelism;
    elapsed_ms is wall clock and is the only volatile field.
    """

    n: int
    family: ForbiddenFamily
    max_count: int
    witnesses: tuple[str, ...]
    examined: int
    elapsed_ms: float

    def to_json(self, stable: bool = False) -> dict:
        data = {
            "n": self.n,
            "family": self.family.to_json(),
            "max": self.max_count,
            "witnesses": list(self.witnesses),
            "examined": self.examined,
        }
        if not stable:
            data["elapsed_ms"] = self.elapsed_ms
        return data


def _exists_long_path(
    masks: list[int], u: int, v: int, min_vertices: int, n: int
) -> bool:
    """Is there a simple u..v path on >= min_vertices vertices (v excluded
    from the interior)?  Used to detect a long cycle through a new edge."""
    vbit = 1 << v
    full = (1 << n) - 1

    def rec(cur: int, visited: int, length: int) -> bool:
        if (masks[cur] >> v) & 1 and length + 1 >= min_vertices:
            return True
        allowed = full & ~visited & ~vbit
        cand = masks[cur] & allowed
        if not cand:
            return False
        reachable = reach(masks, allowed, cand)
        if not (reachable & masks[v]) and not ((masks[cur] >> v) & 1):
            return False
        if length + reachable.bit_count() + 1 < min_vertices:
            return False
        m = cand
        while m:
            low = m & -m
            m ^= low
            w = low.bit_length() - 1
            if rec(w, visited | low, length + 1):
                return True
        return False

    return rec(u, 1 << u, 1)


def _nu_with_edge(
    masks: list[int], u: int, v: int, nu: int, s: int | None, n: int
) -> int:
    """The matching number of G + uv, or -1 when it exceeds s.  masks is G,
    nu its matching number (not tracked, and returned as is, when s is
    None).  A matching of size nu + 1 in G + uv must use uv, so the number
    grows iff G - u - v has a matching of size nu."""
    if s is None:
        return nu
    if has_matching_of_size(masks, ((1 << n) - 1) & ~(1 << u | 1 << v), nu):
        return -1 if nu == s else nu + 1
    return nu


def _include_step(
    masks: list[int],
    u: int,
    v: int,
    k_c: int | None,
    s: int | None,
    nu: int,
    n: int,
) -> int:
    """The matching number of G + uv if adding (u, v) keeps the family-free
    graph G family-free, else -1.  masks is G, nu its matching number."""
    if k_c is not None and _exists_long_path(masks, u, v, k_c, n):
        return -1
    return _nu_with_edge(masks, u, v, nu, s, n)


def _search_chunk(
    n: int,
    family: ForbiddenFamily,
    edges: list[tuple[int, int]],
    chunk_id: int,
    chunk_edges: int,
    initial_best: int,
    witness_cap: int,
) -> tuple[int, list[str], int]:
    """Exhaust one chunk of the edge-decision space.

    Returns (local max, canonical witnesses in discovery order, nodes
    examined).  A chunk whose forced prefix is infeasible returns
    (-1, [], 0).
    """
    k_c = family.cycle_min_len
    s = family.matching_bound
    r = family.clique_order
    m = len(edges)
    masks = [0] * n
    nr = 0
    nu = 0
    for i in range(chunk_edges):
        if (chunk_id >> i) & 1:
            u, v = edges[i]
            nu = _include_step(masks, u, v, k_c, s, nu, n)
            if nu < 0:
                return -1, [], 0
            nr += count_cliques_in_mask(masks, masks[u] & masks[v], r - 2)
            masks[u] |= 1 << v
            masks[v] |= 1 << u

    per_edge = comb(n - 2, r - 2) if n >= 2 else 0
    best = initial_best
    witnesses: dict[str, None] = {}
    examined = 0

    def dfs(idx: int, cur: int, addable: int, nu: int, no_long: int) -> int:
        # nu: the matching number of the current graph G.  no_long: edges
        # uv with no u..v path on >= k_c vertices in G.  Returns no_long
        # grown by those found at or below this node.  Every node below is
        # at a supergraph of G, where every path of G still runs, so what
        # holds there holds in G; not conversely, so no_long never flows
        # into an include child.
        nonlocal best, examined
        examined += 1
        if idx == m:
            if cur < best:
                return no_long
            check = count_cliques_in_mask(masks, (1 << n) - 1, r) if r >= 3 else cur
            assert check == cur, "incremental clique count diverged"
            if cur > best:
                best = cur
                witnesses.clear()
            if len(witnesses) < witness_cap:
                g6 = canonical_graph6(Graph.from_adjacency_masks(list(masks)))
                witnesses.setdefault(g6, None)
            return no_long
        if cur + (addable >> idx).bit_count() * per_edge < best:
            return no_long
        bit = 1 << idx
        if addable & bit:
            u, v = edges[idx]
            grown = -1
            if (
                k_c is None
                or no_long & bit
                or not _exists_long_path(masks, u, v, k_c, n)
            ):
                no_long |= bit
                grown = _nu_with_edge(masks, u, v, nu, s, n)
            if grown >= 0:
                delta = count_cliques_in_mask(masks, masks[u] & masks[v], r - 2)
                masks[u] |= 1 << v
                masks[v] |= 1 << u
                no_long |= dfs(idx + 1, cur + delta, addable, grown, 0)
                masks[u] &= ~(1 << v)
                masks[v] &= ~(1 << u)
            else:
                addable &= ~bit
        return dfs(idx + 1, cur, addable, nu, no_long)

    dfs(chunk_edges, nr, (1 << m) - 1, nu, 0)
    return best, list(witnesses), examined


def _seed_value(n: int, family: ForbiddenFamily) -> int:
    """Best K_r count among verified library constructions of order n.

    Every candidate is checked family-free before use, so the value is a
    true lower bound and the search will rediscover it as a leaf.
    """
    k_c = family.cycle_min_len
    s = family.matching_bound
    r = family.clique_order
    candidates: list[Graph] = []
    cap = n
    if k_c is not None:
        cap = min(cap, k_c - 1)
        if k_c >= 3:
            candidates.append(build_woodall_G0(n, k_c))
    if s is not None:
        cap = min(cap, 2 * s + 1)
    clique_part = Graph.complete(cap)
    candidates.append(
        Graph(n, list(clique_part.edges()))
    )
    if k_c is not None and s is not None:
        if k_c % 2 == 0 and k_c >= 4 and s >= k_c // 2 - 1:
            try:
                candidates.append(build_block_star(ex_even_edges(n, k_c // 2, s).witness))
            except ParameterError:
                pass
        if k_c % 2 == 1 and k_c >= 5:
            k = (k_c - 1) // 2
            if s >= 2 * k + 1 and r <= k + 1:
                try:
                    candidates.append(build_block_star(ex_odd(n, k, s, r).witness))
                except ParameterError:
                    pass
    best = 0
    for g in candidates:
        if g.n == n and is_family_free(g, family):
            best = max(best, count_cliques(g, r))
    return best


def brute_force_ex(
    n: int,
    family: ForbiddenFamily,
    *,
    jobs: int = 1,
    witness_cap: int = _WITNESS_CAP,
) -> OracleResult:
    """Exact max of the K_r count over all family-free graphs on n
    labeled vertices, with canonical witnesses (at most witness_cap).

    n <= 8 only; n = 8 relies on the branch-and-bound pruning.  Results
    (including the examined counter) are identical for any jobs value.
    """
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    if n > _ORACLE_LIMIT:
        raise OracleSizeError(
            f"brute_force_ex handles n <= {_ORACLE_LIMIT}, got n={n}; "
            "use the formula modules beyond that"
        )
    start = time.perf_counter()
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    m = len(edges)
    chunk_edges = min(_CHUNK_EDGES, m)
    seed = _seed_value(n, family)
    args = [
        (n, family, edges, chunk_id, chunk_edges, seed, witness_cap)
        for chunk_id in range(1 << chunk_edges)
    ]
    workers = _worker_count(jobs, len(args))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_search_chunk_args, args, chunksize=4))
    else:
        results = [_search_chunk_args(a) for a in args]

    best = max(r[0] for r in results)
    best = max(best, seed)
    witnesses: dict[str, None] = {}
    for local_best, local_witnesses, _ in results:
        if local_best == best:
            for g6 in local_witnesses:
                witnesses.setdefault(g6, None)
    examined = sum(r[2] for r in results)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return OracleResult(
        n=n,
        family=family,
        max_count=best,
        witnesses=tuple(list(witnesses)[:witness_cap]),
        examined=examined,
        elapsed_ms=elapsed_ms,
    )


def _worker_count(jobs: int, chunks: int) -> int:
    """Worker processes for `jobs` requested: at least one, and no more
    than there are chunks to search or CPUs to run them."""
    return max(1, min(jobs, chunks, os.cpu_count() or 1))


def _search_chunk_args(args: tuple) -> tuple[int, list[str], int]:
    return _search_chunk(*args)


# ---------------------------------------------------------------------------
# formula-region probe


@dataclass(frozen=True)
class RegionRow:
    n: int
    oracle_value: int
    formula_value: int | None
    agrees: bool
    below_threshold: bool


@dataclass(frozen=True)
class RegionReport:
    """Oracle-vs-formula comparison across a range of n.

    first_agreement_n is the smallest n such that oracle and formula
    agree there and at every larger probed n; None when the largest
    probed n still disagrees.
    """

    k: int
    s: int
    r: int
    parity: str
    rows: tuple[RegionRow, ...]
    first_agreement_n: int | None

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "s": self.s,
            "r": self.r,
            "parity": self.parity,
            "rows": [
                {
                    "n": row.n,
                    "oracle": row.oracle_value,
                    "formula": row.formula_value,
                    "agrees": row.agrees,
                    "below_threshold": row.below_threshold,
                }
                for row in self.rows
            ],
            "first_agreement_n": self.first_agreement_n,
        }


def verify_formula_region(
    k: int,
    s: int,
    r: int,
    parity: str,
    n_range: Iterator[int] | list[int],
    *,
    jobs: int = 1,
) -> RegionReport:
    """Probe where the asymptotic formula already matches the oracle.

    parity selects the forbidden threshold: "odd" forbids cycles of
    length >= 2k+1, "even" forbids length >= 2k (using the edge formula
    at r = 2).  Rows where the witness does not fit on n vertices carry
    formula None and count as disagreement.
    """
    from .formulas import ex_even

    if parity not in ("odd", "even"):
        raise ParameterError(f"parity must be 'odd' or 'even', got {parity!r}")
    k_c = 2 * k + 1 if parity == "odd" else 2 * k
    family = ForbiddenFamily(cycle_min_len=k_c, matching_bound=s, clique_order=r)
    rows = []
    for n in n_range:
        oracle = brute_force_ex(n, family, jobs=jobs)
        formula_value: int | None
        below = True
        try:
            if parity == "odd":
                ev = ex_odd(n, k, s, r)
            elif r == 2:
                ev = ex_even_edges(n, k, s)
            else:
                ev = ex_even(n, k, s, r)
            formula_value = ev.value
            below = ev.asymptotic_warning
        except ParameterError:
            formula_value = None
        rows.append(
            RegionRow(
                n=n,
                oracle_value=oracle.max_count,
                formula_value=formula_value,
                agrees=formula_value == oracle.max_count,
                below_threshold=below,
            )
        )
    rows.sort(key=lambda row: row.n)
    first: int | None = None
    for row in reversed(rows):
        if row.agrees:
            first = row.n
        else:
            break
    return RegionReport(
        k=k, s=s, r=r, parity=parity, rows=tuple(rows), first_agreement_n=first
    )
