"""Exhaustive ground truth for small orders.

One engine answers every question here: a vertex-growth enumeration of
the family-free graphs on n <= 8 vertices, once per isomorphism class
(in the spirit of McKay, Isomorph-free exhaustive generation, J.
Algorithms 1998).  Freeness is inherited by induced subgraphs, so every
family-free graph on `size` vertices is a one-vertex extension of a
family-free class on size - 1 vertices; each level tries every
neighbourhood of the new vertex over every class of the level below and
keeps the canonical forms of the family-free extensions.
enumerate_family_free returns the classes of the last level.

brute_force_ex grows the classes to n - 1 vertices and streams the
one-vertex extensions of each of them without keeping the last level.
The K_r count of an extension is the parent's count plus the (r-1)-cliques
in the new vertex's neighbourhood; an extension below the best count seen
so far is dropped before its family check, and only the family-free
extensions that reach it are canonicalised.  Parents are split over
processes for jobs > 1 and the results merged as sets, so maxima, witness
sets and the examined counter are identical regardless of parallelism.

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
from typing import Iterator

from .errors import OracleSizeError, ParameterError
from .family import ForbiddenFamily, is_family_free
from .formulas import ex_even_edges, ex_odd
from .graphs import Graph, count_cliques, count_cliques_in_mask, twin_class_masks
from .graph_io import to_graph6

# perfbench/tracer.py rebinds these names in this module, which does not
# call them; they stay importable so that its bindings resolve
from .constructors import build_block_star, build_woodall_G0  # noqa: F401
from .matching import has_matching_of_size  # noqa: F401

_ORACLE_LIMIT = 8
_WITNESS_CAP = 100


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
    _check_order(n, "family-free enumeration")
    yield from _grow_classes(n, family, connected_only)[0]


def _check_order(n: int, what: str) -> None:
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    if n > _ORACLE_LIMIT:
        raise OracleSizeError(
            f"{what} handles n <= {_ORACLE_LIMIT}, got n={n}; "
            "use the formula modules beyond that"
        )


def _grow_classes(
    n: int, family: ForbiddenFamily, connected_only: bool = False
) -> tuple[list[Graph], int]:
    """The canonical family-free graphs on n >= 0 vertices in encoding
    order, and the one-vertex extensions tried to grow them."""
    level = [Graph(0)]
    tried = 0
    for size in range(1, n + 1):
        low = 1 if connected_only and size > 1 else 0
        seen: set[tuple[int, ...]] = set()
        for g in level:
            base = g.adjacency_masks
            for nbr in range(low, 1 << (size - 1)):
                h = _extend(base, nbr)
                if is_family_free(h, family):
                    seen.add(canonical_encoding(h))
        tried += len(level) * ((1 << (size - 1)) - low)
        level = [graph_from_encoding(key, size) for key in sorted(seen)]
    return level, tried


def _extend(base: tuple[int, ...], nbr: int) -> Graph:
    """The graph with adjacency masks base plus one new vertex, labelled
    len(base), joined to the vertices in the mask nbr."""
    new_bit = 1 << len(base)
    masks = [m | new_bit if (nbr >> v) & 1 else m for v, m in enumerate(base)]
    masks.append(nbr)
    return Graph.from_adjacency_masks(masks)


# ---------------------------------------------------------------------------
# exhaustive maximization


@dataclass(frozen=True)
class OracleResult:
    """Exact maximum with deduplicated canonical witnesses.

    examined counts the one-vertex extensions tried, summed over all
    levels of the vertex growth (0 when K_n itself is family-free), and
    is independent of parallelism; elapsed_ms is wall clock and is the
    only volatile field.
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


def brute_force_ex(n: int, family: ForbiddenFamily, *, jobs: int = 1) -> OracleResult:
    """Exact max of the K_r count over all family-free graphs on n
    vertices, with the sorted canonical graph6 strings of the maximising
    classes as witnesses (at most _WITNESS_CAP, the least ones).

    n <= 8 only.  Results (including the examined counter) are identical
    for any jobs value.
    """
    _check_order(n, "brute_force_ex")
    start = time.perf_counter()
    r = family.clique_order
    complete = Graph.complete(n)
    if n >= r and is_family_free(complete, family):
        # every edge of K_n lies in C(n-2, r-2) >= 1 copies of K_r, so any
        # other graph on n vertices has fewer: K_n is the unique maximiser
        best = count_cliques(complete, r)
        witnesses, examined = [to_graph6(complete)], 0
    else:
        parents, examined = _grow_classes(n - 1, family)
        examined += len(parents) << (n - 1)
        # dense parents first, so the best count rises early and most
        # extensions are dropped before their family check
        parents.reverse()
        workers = _worker_count(jobs, len(parents))
        shares = [parents[i::workers] for i in range(workers)]
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(
                    pool.map(_best_extensions, shares, [family] * workers)
                )
        else:
            results = [_best_extensions(shares[0], family)]
        best = max(local_best for local_best, _ in results)
        witnesses = sorted(
            {g6 for local_best, found in results if local_best == best for g6 in found}
        )[:_WITNESS_CAP]
    return OracleResult(
        n=n,
        family=family,
        max_count=best,
        witnesses=tuple(witnesses),
        examined=examined,
        elapsed_ms=(time.perf_counter() - start) * 1000.0,
    )


def _best_extensions(
    parents: list[Graph], family: ForbiddenFamily
) -> tuple[int, list[str]]:
    """The largest K_r count over the family-free one-vertex extensions of
    parents, and the least _WITNESS_CAP canonical graph6 strings of the
    extensions that reach it."""
    r = family.clique_order
    best = -1
    maximisers: set[str] = set()
    for parent in parents:
        base = parent.adjacency_masks
        inherited = count_cliques(parent, r)
        # largest neighbourhoods first, for the same reason as dense parents
        for nbr in range((1 << parent.n) - 1, -1, -1):
            count = inherited + count_cliques_in_mask(base, nbr, r - 1)
            if count < best:
                continue
            h = _extend(base, nbr)
            if not is_family_free(h, family):
                continue
            if count > best:
                best = count
                maximisers.clear()
            maximisers.add(canonical_graph6(h))
    return best, sorted(maximisers)[:_WITNESS_CAP]


def _worker_count(jobs: int, parents: int) -> int:
    """Worker processes for `jobs` requested: at least one, and no more
    than there are parent classes to extend or CPUs to run them."""
    return max(1, min(jobs, parents, os.cpu_count() or 1))


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

    first_agreement_n is the smallest probed n such that oracle and
    formula agree there and at every larger probed n; None when the
    largest probed n still disagrees.  It is relative to the probed range
    only and implies nothing about larger n: for (C>=5, nu<=5, K_2) it is
    8 on range(4, 9), yet build_woodall_G0 beats ex_odd at n = 10 and 13.
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
