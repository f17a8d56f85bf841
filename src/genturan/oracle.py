"""Exhaustive ground truth for small orders.

One engine answers every question here: a vertex-growth enumeration of
the family-free graphs on n vertices, once per isomorphism class
(in the spirit of McKay, Isomorph-free exhaustive generation, J.
Algorithms 1998).  Freeness is inherited by induced subgraphs, so every
family-free graph on `size` vertices is a one-vertex extension of a
family-free class on size - 1 vertices; each level tries every
neighbourhood of the new vertex over every class of the level below and
keeps the canonical forms of the family-free extensions.
enumerate_family_free returns the classes of the last level.

A query may try _ORACLE_BUDGET one-vertex extensions (the examined unit),
charged a level at a time before the level runs, whatever the parallelism.

No extension is family-checked on its own.  Its parent is family-free,
so _free_extension_test reads the freeness of every extension off two
facts about the parent, computed once per parent: the vertices that some
maximum matching misses (one alternating forest), and the pairs of
vertices joined by a path long enough to close a forbidden cycle through
the new vertex (one path search).  Each extension then costs one AND for
the matching and one lookup per neighbour for the cycles.

Two exact filters drop most extensions before their canonical form: the
new vertex must have the largest key (degree, then sorted neighbour
degrees) of the extension, and its neighbourhood takes the
lowest-labelled members of each class of open or closed twins of the
parent.  _augmentations shows that they lose no class; the
canonical-form set still removes the duplicates they let through.  Every
filter only drops extensions, so they run cheapest first.

One loop, _new_classes, extends a list of parents and counts K_r: the
K_r count of an extension is the parent's count plus the (r-1)-cliques
in the new vertex's neighbourhood, an extension below the best count
seen so far is dropped before its family test, a parent's test is built
only once one of its extensions reaches that count, and only the
family-free extensions that reach it are canonicalised.  _grow_classes
runs it on each level with r = size + 1: no graph on size vertices has
a K_{size+1}, so every extension ties at 0 and every class is kept.
brute_force_ex runs it with the family's r on the classes on n - 1
vertices, without keeping the last level.  For jobs > 1 brute_force_ex
splits those parents over processes and merges the canonical forms as
sets, so maxima, witness sets and the examined counter are identical
regardless of parallelism; only the witnesses reported become graph6.

Witnesses are reported in canonical form: the lexicographically minimal
adjacency bit encoding over all vertex permutations, which is also the
minimal graph6 body.  canonical_encoding finds it without touching all n!
permutations, by a search over vertex placements that holds the unplaced
vertices as an ordered partition into cells of equal adjacency toward the
placed ones (in the spirit of McKay and Piperno, Practical graph
isomorphism II, 2014).  Only the first cell is branched on, its twins
once each, and a placement whose encoding prefix exceeds the best found
is cut before it splits the cells; none of these rules can lose the
minimum.  The extremal graphs are block-stars, made of cliques of closed
twins and classes of open twins, so the twin rule removes most of their
search.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterator

from .errors import OracleSizeError, ParameterError, WitnessOrderError
from .family import ForbiddenFamily, is_family_free
from .formulas import extremal_value
from .graphs import (
    Graph,
    _iter_bits,
    count_cliques,
    count_cliques_in_mask,
    reach,
    twin_masks,
    twin_partition,
)
from .graph_io import graph6_masks, graph6_string, to_graph6
from .matching import gallai_edmonds_set, max_matching

# perfbench/tracer.py rebinds these names in this module, which does not
# call them; they stay importable so that its bindings resolve
from .constructors import build_block_star, build_woodall_G0  # noqa: F401
from .formulas import ex_even_edges, ex_odd  # noqa: F401
from .matching import has_matching_of_size  # noqa: F401

_ORACLE_BUDGET = 2_000_000  # one-vertex extensions per query
_WITNESS_CAP = 100


# ---------------------------------------------------------------------------
# canonical forms


def canonical_encoding(graph: Graph) -> int:
    """Minimal adjacency encoding over all relabelings: the graph6 body
    (graph_io.graph6_string) of the relabeling whose body is least.

    Read from the top, the body holds, for each position j = 1..n-1, the
    j adjacency bits of position j toward positions 0..j-1.

    The search places vertices at positions 0, 1, ...; placing a vertex at
    position j makes its code (adjacency toward the placed ones, the first
    placed on top) the entry of position j.  A node holds the unplaced
    vertices as an ordered partition, cells (mask, code) by increasing
    code; placing v splits each cell into the non-neighbours of v
    (code << 1), then the neighbours (code << 1 | 1), which keeps the
    order.  Three rules prune, none of which can discard the minimum:

    * only the first cell, of minimum code, is branched on: the next
      entry is compared before every later one;
    * of the unplaced vertices that are twins (masks[u] & ~bit(v) ==
      masks[v] & ~bit(u): equal open neighborhoods if non-adjacent, equal
      closed ones if adjacent), only the lowest-labelled is tried: twins
      share a cell, and transposing two of them is an automorphism that
      fixes every placed vertex, so their subtrees yield the same encodings;
    * a placement whose encoding prefix exceeds the best one found is cut
      before the cells are split: its entry is the split code of the first
      cell left, the parent's first cell or else its second.

    There is no size limit or budget, and the time is exponential on
    sparse graphs without twins: minimum codes place an independent set
    first, and a long cycle has very many orderings of one (the cycle C_n
    takes 0.1 s at n = 14, 1.1 s at n = 16 and 14 s at n = 18).  The
    oracle calls it only on the classes its budget admits (_ORACLE_BUDGET).
    """
    n = graph.n
    if n <= 1:
        return 0
    masks = graph.adjacency_masks
    twins = twin_masks(masks)
    width = n * (n - 1) // 2
    best = 1 << width  # above every encoding

    def rec(j: int, prefix: int, cells: list[tuple[int, int]]) -> None:
        # prefix: the encoding through position j, whose code is cells[0]'s
        nonlocal best
        if j == n - 1:
            best = prefix
            return
        first, low_code = cells[0]
        prefix <<= j + 1
        shift = width - (j + 1) * (j + 2) // 2
        tried = 0
        rest = first
        while rest:
            low = rest & -rest
            rest ^= low
            if tried & low:
                continue
            v = low.bit_length() - 1
            tried |= twins[v]
            on = masks[v]
            off = ~(on | low)  # the non-neighbours of v, v excluded
            cell, code = (first ^ low, low_code) if first ^ low else cells[1]
            child = prefix | (code << 1 if cell & off else code << 1 | 1)
            if child > best >> shift:
                continue
            split = []
            for cell, code in cells:
                if cell & off:
                    split.append((cell & off, code << 1))
                if cell & on:
                    split.append((cell & on, code << 1 | 1))
            rec(j + 1, child, split)

    rec(0, 0, [((1 << n) - 1, 0)])
    return best


def graph_from_encoding(enc: int, n: int) -> Graph:
    """The graph on n vertices with the graph6 body enc."""
    return Graph._trusted(graph6_masks(n, enc))


def canonical_graph(graph: Graph) -> Graph:
    """The relabeling of graph with the minimal encoding.  Exponential on
    sparse graphs without twins, with no limit: see canonical_encoding."""
    return graph_from_encoding(canonical_encoding(graph), graph.n)


def canonical_graph6(graph: Graph) -> str:
    """The minimal graph6 string over all relabelings.  Exponential on
    sparse graphs without twins, with no limit: see canonical_encoding."""
    return graph6_string(graph.n, canonical_encoding(graph))


# ---------------------------------------------------------------------------
# isomorphism-free enumeration


def enumerate_family_free(n: int, family: ForbiddenFamily) -> Iterator[Graph]:
    """Every family-free graph on n vertices, once per isomorphism class.

    Grows graphs one vertex at a time (freeness is inherited by induced
    subgraphs) with canonical-form deduplication at each level; only the
    extensions that pass the parent's family test (_free_extension_test)
    and the exact filters of _augmentations are canonicalised.  Yields
    canonical graphs in encoding order.  Raises OracleSizeError before a
    level passes _ORACLE_BUDGET.
    """
    _charge(0, 1, n)
    yield from _grow_classes(n, family)[0]


def _charge(tried: int, classes: int, size: int) -> int:
    """tried plus the classes * 2^(size - 1) extensions that grow graphs on
    size - 1 vertices to size; OracleSizeError if that passes _ORACLE_BUDGET
    (at once past its bit length: classes >= 1, edgeless graphs are free)."""
    if size < 1:
        raise ParameterError(f"n must be >= 1, got {size}")
    if size > _ORACLE_BUDGET.bit_length() or (
        tried + (classes << (size - 1)) > _ORACLE_BUDGET
    ):
        raise OracleSizeError(
            f"the graphs on {size} vertices take at least {tried:,} + "
            f"{classes:,}*2^{size - 1} one-vertex extensions, past the oracle "
            f"budget of {_ORACLE_BUDGET:,}; use the formula modules beyond that"
        )
    return tried + (classes << (size - 1))


def _grow_classes(n: int, family: ForbiddenFamily) -> tuple[list[Graph], int]:
    """The canonical family-free graphs on n >= 0 vertices in encoding
    order, and the one-vertex extensions tried to grow them (the filtered
    ones included).

    Each level is _charge'd first, then grown from the one below by
    _new_classes counting K_{size+1}, which no extension has, so every
    class ties at 0 and is kept."""
    level = [Graph(0)]
    tried = 0
    for size in range(1, n + 1):
        tried = _charge(tried, len(level), size)
        _, found = _new_classes(level, family, size + 1)
        level = [graph_from_encoding(key, size) for key in sorted(found)]
    return level, tried


def _new_classes(
    parents: list[Graph], family: ForbiddenFamily, r: int
) -> tuple[int, set[int]]:
    """The largest K_r count over the family-free one-vertex extensions of
    parents, and the canonical encodings of the extensions that reach it.

    Each parent's neighbourhoods are walked from the largest down, so the
    best count rises early, and each passes, cheapest first, the filters of
    _augmentations, the count cut (below the best count so far), the
    parent's family test (_free_extension_test, built on the first
    extension that passes the cut, so a parent none of whose extensions
    reaches the count pays for no test) and _keeps_new_vertex; only the
    extensions left are canonicalised.  The filters lose no class.  When
    the parents are split over processes, a class C is found by the
    process holding the parent C - v that the argument of _augmentations
    names."""
    best = -1
    found: set[int] = set()
    for parent in parents:
        base = parent.adjacency_masks
        degrees = [m.bit_count() for m in base]
        inherited = count_cliques(parent, r)
        free = None
        for nbr in _augmentations(base, degrees):
            count = inherited + count_cliques_in_mask(base, nbr, r - 1)
            if count < best:
                continue
            if free is None:
                free = _free_extension_test(parent, family)
            if not (free(nbr) and _keeps_new_vertex(base, degrees, nbr)):
                continue
            if count > best:
                best = count
                found.clear()
            found.add(canonical_encoding(Graph._trusted(_extension_masks(base, nbr))))
    return best, found


def _augmentations(base: tuple[int, ...], degrees: list[int]) -> Iterator[int]:
    """The neighbourhoods (masks below len(base), from the largest down)
    whose extensions of the graph with adjacency masks base and vertex
    degrees degrees pass the cheap parts of two exact filters, which
    together lose no class:

    * canonical deletion by invariant: the new vertex w has the largest
      deletion key of the extension, ties kept (_keeps_new_vertex).  As w
      gets degree |nbr| and every parent vertex keeps at least its degree,
      only |nbr| >= the parent's maximum degree is tested here; the
      caller runs _keeps_new_vertex itself last, after cheaper tests;
    * parent twin rule: within each open or closed class of twins of the
      parent (graphs.twin_partition), nbr takes the lowest-labelled
      members (_takes_lowest_twins).

    A class C has a vertex v of largest key, and C - v is family-free
    (freeness is inherited by induced subgraphs), so it is a parent, and
    its extension that recreates v passes the first filter.  Swapping two
    twins of the parent is an automorphism that fixes w and maps one
    neighbourhood onto the other, so moving that neighbourhood onto the
    lowest twins gives an isomorphic extension in which w has the same
    key; it passes both.  Duplicates pass too: the caller's set of
    canonical forms removes them, so no orbits are needed.  Every filter
    only drops extensions, so their order does not change the result.
    """
    floor = max(degrees, default=0)
    twins = chain(*twin_partition(base))
    classes = [sum(1 << v for v in c) for c in twins if len(c) > 1]
    for nbr in range((1 << len(base)) - 1, -1, -1):
        if nbr.bit_count() >= floor and _takes_lowest_twins(classes, nbr):
            yield nbr


def _deletion_key(
    masks: tuple[int, ...] | list[int], degrees: list[int], v: int
) -> tuple[int, list[int]]:
    """The invariant that picks the canonical deletion vertex: the degree
    of v and the sorted degrees of its neighbours (degrees[u] is the
    degree of u in the graph with adjacency masks masks)."""
    return degrees[v], sorted(degrees[u] for u in _iter_bits(masks[v]))


def _keeps_new_vertex(base: tuple[int, ...], degrees: list[int], nbr: int) -> bool:
    """Whether the vertex w = len(base), joined to the vertices of nbr, has
    the largest _deletion_key in that extension of the graph with
    adjacency masks base and vertex degrees degrees (ties count as
    largest).  Decided from the parent's degrees: w adds one to the degree
    of each of its neighbours."""
    w = len(base)
    width = nbr.bit_count()
    ext = [d + ((nbr >> v) & 1) for v, d in enumerate(degrees)]
    if max(ext, default=0) > width:
        return False
    ties = [v for v in range(w) if ext[v] == width]
    if not ties:
        return True
    ext.append(width)
    masks = _extension_masks(base, nbr)
    own = _deletion_key(masks, ext, w)
    return all(_deletion_key(masks, ext, v) <= own for v in ties)


def _takes_lowest_twins(classes: list[int], nbr: int) -> bool:
    """Whether nbr takes the lowest-labelled members of each class in
    classes (disjoint masks): no member it misses lies below its highest
    member of that class."""
    for members in classes:
        if members & ~nbr & ((1 << (nbr & members).bit_length()) - 1):
            return False
    return True


def _extension_masks(base: tuple[int, ...], nbr: int) -> list[int]:
    """Adjacency masks base plus one new vertex, labelled len(base), joined
    to the vertices in the mask nbr (below len(base))."""
    new_bit = 1 << len(base)
    masks = [m | new_bit if (nbr >> v) & 1 else m for v, m in enumerate(base)]
    masks.append(nbr)
    return masks


# ---------------------------------------------------------------------------
# family tests of one-vertex extensions


def _free_extension_test(
    parent: Graph, family: ForbiddenFamily
) -> Callable[[int], bool]:
    """For a family-free parent G, the test of a neighbourhood mask nbr
    for whether G + w, w joined to the vertices of nbr, is family-free.

    Built once per parent, it reads each extension off two facts about G:

    * matching: nu(G + w) = nu(G) + 1 iff nbr meets D(G), the vertices
      that some maximum matching misses (matching.gallai_edmonds_set).
      So with bound s, every extension is free when nu(G) < s, and when
      nu(G) = s the free ones are those with nbr & D == 0;
    * cycles: G has no cycle of length >= k_c, so every such cycle of
      G + w passes through w, and is w plus a u-v path of G with u, v in
      nbr and at least k_c - 1 vertices.  So G + w is free iff no u in
      nbr has far[u] & nbr nonzero (_far_ends).
    """
    blocked = 0
    s = family.matching_bound
    if s is not None and max_matching(parent) == s:
        blocked = gallai_edmonds_set(parent)
    if family.cycle_min_len is None:
        return lambda nbr: not nbr & blocked
    far = _far_ends(parent.adjacency_masks, family.cycle_min_len - 1)

    def free(nbr: int) -> bool:
        if nbr & blocked:
            return False
        m = nbr
        while m:
            low = m & -m
            m ^= low
            if far[low.bit_length() - 1] & nbr:
                return False
        return True

    return free


def _far_ends(adj: tuple[int, ...], length: int) -> list[int]:
    """far[u]: the mask of the vertices v that u reaches by a path of at
    least `length` >= 2 vertices in the graph with adjacency masks adj.

    The relation is symmetric, so the path DFS from u looks only for ends
    v > u of its component, and cuts a branch once the vertices it can
    still reach (graphs.reach) are too few to make the path long enough or
    hold no wanted end not found yet.  A start whose component has fewer
    than `length` vertices is skipped, and a start stops once every
    wanted end is found."""
    n = len(adj)
    everything = (1 << n) - 1
    far = [0] * n
    for u in range(n):
        component = reach(adj, everything, 1 << u)
        want = component & ~((2 << u) - 1)
        if component.bit_count() < length or not want:
            continue
        found = 0
        stack = [(u, 1 << u, 1)]
        while stack and want & ~found:
            v, on_path, size = stack.pop()
            rest = component & ~on_path
            step = adj[v] & rest
            if size + 1 >= length:
                found |= step  # each step ends a path of size + 1 vertices
            ahead = reach(adj, rest, step)
            if size + ahead.bit_count() < length or not ahead & want & ~found:
                continue
            while step:
                low = step & -step
                step ^= low
                stack.append((low.bit_length() - 1, on_path | low, size + 1))
        found &= want
        far[u] |= found
        for v in _iter_bits(found):
            far[v] |= 1 << u
    return far


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

    Raises OracleSizeError before the first level that would take
    examined past _ORACLE_BUDGET, and before any work, K_n included, for
    n >= 22.  Results (examined and the refusal included) are identical
    for any jobs value.
    """
    _charge(0, 1, n)
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
        examined = _charge(examined, len(parents), n)
        # dense parents first, so the best count rises early and most
        # extensions are dropped before their family test
        parents.reverse()
        workers = _worker_count(jobs, len(parents))
        shares = [parents[i::workers] for i in range(workers)]
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(
                    pool.map(_new_classes, shares, [family] * workers, [r] * workers)
                )
        else:
            results = [_new_classes(shares[0], family, r)]
        best = max(top for top, _ in results)
        keys = set().union(*(found for top, found in results if top == best))
        # for one n, graph6 strings sort as their bodies do
        witnesses = [graph6_string(n, key) for key in sorted(keys)[:_WITNESS_CAP]]
    return OracleResult(
        n=n,
        family=family,
        max_count=best,
        witnesses=tuple(witnesses),
        examined=examined,
        elapsed_ms=(time.perf_counter() - start) * 1000.0,
    )


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
    The budget admits n = 10 for that family, where the oracle gives 18
    and ex_odd 17.
    """

    k: int
    s: int
    r: int
    parity: str
    rows: tuple[RegionRow, ...]
    first_agreement_n: int | None



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
    length >= 2k+1, "even" forbids length >= 2k; formulas.extremal_value
    picks the formula, as the command line's compute does.  Rows where
    the witness does not fit on n vertices (WitnessOrderError) carry
    formula None and count as disagreement; any other ParameterError of
    the formula is raised before the oracle runs.
    """
    if parity not in ("odd", "even"):
        raise ParameterError(f"parity must be 'odd' or 'even', got {parity!r}")
    probes = [(n, _formula_or_none(parity, n, k, s, r)) for n in n_range]
    k_c = 2 * k + 1 if parity == "odd" else 2 * k
    family = ForbiddenFamily(cycle_min_len=k_c, matching_bound=s, clique_order=r)
    rows = []
    for n, ev in probes:
        oracle = brute_force_ex(n, family, jobs=jobs)
        formula_value = None if ev is None else ev.value
        rows.append(
            RegionRow(
                n=n,
                oracle_value=oracle.max_count,
                formula_value=formula_value,
                agrees=formula_value == oracle.max_count,
                below_threshold=True if ev is None else ev.asymptotic_warning,
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


def _formula_or_none(parity: str, n: int, k: int, s: int, r: int):
    """extremal_value at n, or None when n is below the witness order."""
    try:
        return extremal_value(parity, n, k, s, r)
    except WitnessOrderError:
        return None
