"""Exhaustive ground truth for small orders.

One engine answers every question here: orderly generation of the
family-free graphs on n vertices, which builds each isomorphism class
once, in canonical form, with no deduplication (Read, Every one a winner,
Ann. Discrete Math. 2, 1978; Faradzev, Constructive enumeration of
combinatorial objects, Colloq. Internat. CNRS 260, 1978).

The canonical form of a graph is its relabeling of least graph6 body
(graph_io): the adjacency bits column by column, the pair (0, 1) on top.
The body of G on m + 1 vertices is the body of G - m followed by the
column of m, so minimality is inherited by G - m (a smaller relabeling of
it would make G smaller), as freeness is.  So a minimal free graph is a
minimal free parent P plus a last vertex m joined to a mask nbr, of body
body(P) << m | column(nbr) (vertex 0 on top), and its class names that
one P and nbr.  _new_classes keeps an extension iff it is minimal, and a
level holds the kept extensions themselves.  Two necessary conditions,
read off P, drop most extensions first (_columns):

* column dominance: for every x < m, nbr on 0..x-1 is not below column x
  of P; else swapping x with the new vertex keeps columns 1..x-1 and
  shrinks column x.  Over all x this is one threshold, the largest;
* highest twins: nbr takes the highest-labelled members of each class of
  twins of P (graphs.twin_partition); else, for twins u < u' with u in nbr
  and u' not, the automorphism of P that swaps them maps the extension
  onto one whose last column has the bit of u moved down to u'.

The exact test, _is_minimal, is the cell search of canonical_encoding
started with the extension's own body as the best: it stops at the first
placement whose prefix is below that body, and none is iff the body is
minimal.  Witnesses are the kept bodies, and the oracle never calls
canonical_encoding, which runs the same search from above every body.

A query may try _ORACLE_BUDGET one-vertex extensions (the examined unit),
charged a level at a time before the level runs, whatever the parallelism.

No extension is family-checked on its own.  Its parent is family-free,
so _free_extension_test reads the freeness of every extension off two
facts about the parent, computed once per parent: the vertices that some
maximum matching misses (one alternating forest), and the pairs of
vertices joined by a path long enough to close a forbidden cycle through
the new vertex (one path search).  Each extension then costs one AND for
the matching and one lookup per neighbour for the cycles.

One function, _new_classes, extends a list of parents and counts K_r:
the K_r count of an extension is the parent's count plus the
(r-1)-cliques in the new vertex's neighbourhood, an extension below the
best count seen so far is dropped before its family test, a parent's test
is built only once one of its extensions reaches that count, and only the
family-free extensions that reach it are tested for minimality.  One loop,
_levels, runs it on every level: with r = size + 1 below n, which no
extension reaches, so every class ties at 0 and is kept, and with the
family's r at n.  For jobs > 1 it deals the parents of every level over
processes; each class has one minimal parent, so maxima, witness sets and
the examined counter are identical regardless of parallelism.
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
    """Minimal adjacency encoding over all relabelings, by _cell_search:
    the graph6 body (graph_io.graph6_string) of the relabeling whose body
    is least.  Read from the top, the body holds, for each position
    j = 1..n-1, the j adjacency bits of position j toward positions 0..j-1.

    There is no size limit or budget, and the time is exponential on
    sparse graphs without twins: minimum codes place an independent set
    first, and a long cycle has very many orderings of one (the cycle C_n
    takes 0.1 s at n = 14, 1.1 s at n = 16 and 14 s at n = 18).
    """
    n = graph.n
    if n <= 1:
        return 0
    masks = graph.adjacency_masks
    return _cell_search(masks, twin_masks(masks), 1 << (n * (n - 1) // 2), False)


def _is_minimal(masks: list[int], twins: list[int], body: int) -> bool:
    """Whether body, the encoding of the graph with adjacency masks masks
    under its own labels, is minimal: no prefix of _cell_search is below."""
    return len(masks) <= 1 or _cell_search(masks, twins, body, True) == body


def _cell_search(
    masks: tuple[int, ...] | list[int], twins: list[int], best: int, stop: bool
) -> int:
    """The least encoding of the graph with adjacency masks masks (n >= 2
    vertices) if it is below best, else best.  With stop, it returns at
    the first placement whose prefix is below best's: that prefix padded
    with zeros, below best but not always the least.  twins[v] masks a
    class of twins holding v, of a partition finer than or equal to
    graphs.twin_partition's (twin_masks gives that partition itself).

    The search (in the spirit of McKay and Piperno, Practical graph
    isomorphism II, 2014) places vertices at positions 0, 1, ...; placing
    a vertex at position j makes its code (adjacency toward the placed
    ones, the first placed on top) the entry of position j.  A node holds
    the unplaced vertices as an ordered partition, cells (mask, code) by
    increasing code; placing v splits each cell into the non-neighbours of
    v (code << 1), then the neighbours (code << 1 | 1), which keeps the
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

    So the minimum lies below a placement the search makes, and if it is
    below best, that placement's prefix is below best's.  The search walks
    an explicit stack of nodes (j, prefix, cells, untried), so n has no
    recursion depth limit (K_1500 takes 0.1 s).
    """
    n = len(masks)
    width = n * (n - 1) // 2

    # the current node: position j, its prefix << (j + 1), cells, untried
    j, prefix, cells, untried = 0, 0, [((1 << n) - 1, 0)], (1 << n) - 1
    stack = []
    while True:
        first, low_code = cells[0]
        shift = width - (j + 1) * (j + 2) // 2
        bound = best >> shift  # best's prefix up to position j + 1
        while untried:
            low = untried & -untried
            v = low.bit_length() - 1
            untried &= ~twins[v]  # twins[v] holds v
            on = masks[v]
            off = ~(on | low)  # the non-neighbours of v, v excluded
            cell, code = (first ^ low, low_code) if first ^ low else cells[1]
            child = prefix | (code << 1 if cell & off else code << 1 | 1)
            if child > bound:
                continue
            if stop and child < bound:
                return child << shift
            if j + 2 == n:  # a leaf: every position is placed, shift is 0
                best = bound = child
                continue
            split = []
            for cell, code in cells:
                if cell & off:
                    split.append((cell & off, code << 1))
                if cell & on:
                    split.append((cell & on, code << 1 | 1))
            stack.append((j, prefix, cells, untried))
            j += 1
            prefix, cells = child << (j + 1), split
            untried = split[0][0]
            break
        else:
            if not stack:
                return best
            j, prefix, cells, untried = stack.pop()


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
    """Every family-free graph on n vertices, once per isomorphism class,
    canonical and in encoding order, by orderly generation (see the module
    docstring).  Raises OracleSizeError before a level passes
    _ORACLE_BUDGET."""
    _charge(0, 1, n)
    yield from (Graph._trusted(masks) for _, masks in _levels(n, family, n + 1, 1)[1])


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


def _levels(
    n: int, family: ForbiddenFamily, r: int, jobs: int
) -> tuple[int, list[tuple[int, list[int]]], int]:
    """The largest K_r count over the canonical family-free graphs on
    n >= 1 vertices, the classes that reach it as (body, adjacency masks)
    in encoding order, and the one-vertex extensions tried to grow them.
    Below n a level counts K_{size+1}, so every class is kept.  Each level
    is _charge'd, then its parents, dense ones first so that the best count
    rises early, are dealt round-robin over _worker_count processes."""
    level, examined, pool = [(0, [])], 0, None
    try:
        for size in range(1, n + 1):
            examined = _charge(examined, len(level), size)
            workers = _worker_count(jobs, len(level))
            if workers > 1 and pool is None:  # one per query, sized for any level
                from concurrent.futures import ProcessPoolExecutor

                pool = ProcessPoolExecutor(_worker_count(jobs, jobs))
            shares = [level[-1 - i :: -workers] for i in range(workers)]
            k = r if size == n else size + 1
            run = pool.map if workers > 1 else map
            results = list(run(_new_classes, shares, [family] * workers, [k] * workers))
            best = max(top for top, _ in results)
            level = sorted(c for top, found in results if top == best for c in found)
    finally:
        if pool is not None:
            pool.shutdown()
    return best, level, examined


def _new_classes(
    parents: list[tuple[int, list[int]]], family: ForbiddenFamily, r: int
) -> tuple[int, list[tuple[int, list[int]]]]:
    """The largest K_r count over the family-free one-vertex extensions of
    parents, canonical graphs as (body, adjacency masks), and the minimal
    extensions that reach it, in the same form and in no order.

    Each parent's neighbourhoods come from _columns, from the largest
    down, so the best count rises early, and each passes, cheapest first,
    the count cut (below the best count so far), the parent's family test
    (_free_extension_test, built on the first extension that passes the
    cut) and _is_minimal.  No clique is counted where none can be: a
    parent on fewer than r vertices has no K_r, and a neighbourhood of
    fewer than r - 1 vertices no K_{r-1}."""
    best = -1
    found = []
    for body, base in parents:
        parent = Graph._trusted(base)
        m = len(base)
        inherited = count_cliques(parent, r) if r <= m else 0
        partition = chain(*twin_partition(base))
        classes = [sum(1 << v for v in c) for c in partition if len(c) > 1]
        free = None
        for nbr in _columns(base, classes):
            count = inherited
            if nbr.bit_count() >= r - 1:
                count += count_cliques_in_mask(base, nbr, r - 1)
            if count < best:
                continue
            if free is None:
                free = _free_extension_test(parent, family)
            if not free(nbr):
                continue
            key = body << m | int(format(nbr, f"0{m}b")[::-1], 2)
            masks, twins = _extension(base, classes, nbr)
            if not _is_minimal(masks, twins, key):
                continue
            if count > best:
                best = count
                found.clear()
            found.append((key, masks))
    return best, found


def _columns(base: tuple[int, ...], classes: list[int]) -> Iterator[int]:
    """The neighbourhoods nbr (masks below len(base), from the largest
    down) of a new last vertex of the canonical graph with adjacency masks
    base that pass column dominance and take the highest twins of each of
    classes, its twin classes of two or more (see the module docstring).
    Columns compare from vertex 0 down: a mask a is above b iff the lowest
    bit of a ^ b is in a.  So nbr passes iff it is not below floor, the
    largest column, and misses no member of a class above one it takes."""
    floor = 0
    for x in range(1, len(base)):
        column = base[x] & ((1 << x) - 1)
        diff = column ^ floor
        if column & diff & -diff:
            floor = column
    for nbr in range((1 << len(base)) - 1, -1, -1):
        diff = nbr ^ floor
        if diff and not nbr & diff & -diff:
            continue
        for members in classes:
            taken = nbr & members
            if members & ~nbr & -(taken & -taken):
                break
        else:
            yield nbr


def _extension(
    base: tuple[int, ...], classes: list[int], nbr: int
) -> tuple[list[int], list[int]]:
    """Adjacency masks base plus a vertex w = len(base) joined to the mask
    nbr, and twins for _cell_search: each parent class in classes split
    into its members in nbr and the rest, as w sees the members of a part
    alike, and w alone (leaving out its twins only prunes less)."""
    new_bit = 1 << len(base)
    masks = [m | new_bit if (nbr >> v) & 1 else m for v, m in enumerate(base)]
    masks.append(nbr)
    twins = [1 << v for v in range(len(masks))]
    for members in classes:
        for part in (members & nbr, members & ~nbr):
            if part & (part - 1):  # two or more
                for v in _iter_bits(part):
                    twins[v] = part
    return masks, twins


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
        best, classes, examined = _levels(n, family, r, jobs)
        # for one n, graph6 strings sort as their bodies do
        witnesses = [graph6_string(n, body) for body, _ in classes[:_WITNESS_CAP]]
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
    than there are parent classes to extend or CPUs to run them (those of
    the process's affinity mask where os reports one)."""
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    return max(1, min(jobs, parents, cpus))


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
