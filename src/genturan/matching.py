"""Exact maximum matching and matching-bound certificates.

The primary matching routine is an augmenting-path algorithm with blossom
contraction (exact for general graphs).  A dynamic program over vertex
subsets serves as an independent oracle for n <= 12.  has_matching_of_size
(t disjoint edges on a vertex bitmask) has no caller in the package; it
is kept only because perfbench/tracer.py binds it.

A matching bound nu(G) <= s always has a short certificate: a vertex set
X with |X| + sum_i floor(|C_i|/2) <= s over the components C_i of G - X.
The alternating-tree code that augments matchings builds one: grown from
every exposed vertex of a maximum matching, its outer vertices are the
Gallai-Edmonds set D, and X = N(D) - D attains nu(G) exactly.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import ParameterError, SizeLimitError
from .graphs import Graph, _iter_bits, induced_masks, twin_kernel

_ENUMERATION_LIMIT = 12


def _greedy_matching(adj: tuple[int, ...], n: int) -> list[int]:
    """A maximal matching (mates, -1 if exposed) to start the blossom: by
    increasing degree, a pendant takes its neighbour before anyone else."""
    match = [-1] * n
    for u in sorted(range(n), key=lambda v: adj[v].bit_count()):
        if match[u] == -1:
            for v in _iter_bits(adj[u]):
                if match[v] == -1:
                    match[u] = v
                    match[v] = u
                    break
    return match


def _augment_from(
    adj_lists: list[list[int]], match: list[int], roots: list[int], n: int
) -> list[bool] | None:
    """Grow an alternating forest from the exposed vertices `roots`: augment
    along the first augmenting path and return None, or, if there is none,
    return the outer marks.  `base` maps each vertex to the base of its
    blossom; an odd cycle found by the BFS is contracted by re-basing every
    vertex on its two tree paths.
    """
    parent = [-1] * n
    base = list(range(n))
    in_queue = [False] * n
    for root in roots:
        in_queue[root] = True
    queue = deque(roots)

    def lowest_common_base(a: int, b: int) -> int:
        seen = [False] * n
        while True:
            a = base[a]
            seen[a] = True
            if match[a] == -1:
                break
            a = parent[match[a]]
        while True:
            b = base[b]
            if seen[b]:
                return b
            b = parent[match[b]]

    def mark_path(v: int, b: int, child: int, in_blossom: list[bool]) -> None:
        while base[v] != b:
            in_blossom[base[v]] = True
            in_blossom[base[match[v]]] = True
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    while queue:
        v = queue.popleft()
        for to in adj_lists[v]:
            if base[v] == base[to] or match[v] == to:
                continue
            if in_queue[to]:
                # v-to joins two outer vertices of one tree (of two trees
                # would be an augmenting path): contract the odd cycle.
                cur_base = lowest_common_base(v, to)
                in_blossom = [False] * n
                mark_path(v, cur_base, to, in_blossom)
                mark_path(to, cur_base, v, in_blossom)
                for i in range(n):
                    if in_blossom[base[i]]:
                        base[i] = cur_base
                        if not in_queue[i]:
                            in_queue[i] = True
                            queue.append(i)
            elif parent[to] == -1:
                parent[to] = v
                if match[to] == -1:
                    while to != -1:
                        prev = parent[to]
                        nxt = match[prev]
                        match[to] = prev
                        match[prev] = to
                        to = nxt
                    return None
                in_queue[match[to]] = True
                queue.append(match[to])
    return in_queue


def _maximum_matching_array(graph: Graph) -> list[int]:
    n = graph.n
    adj = graph.adjacency_masks
    match = _greedy_matching(adj, n)
    adj_lists = [list(_iter_bits(adj[v])) for v in range(n)]
    for root in range(n):
        if match[root] == -1:
            _augment_from(adj_lists, match, [root], n)
    return match


def max_matching(graph: Graph) -> int:
    """nu(G), the size of a maximum matching."""
    return len(maximum_matching_edges(graph))


def maximum_matching_edges(graph: Graph) -> list[tuple[int, int]]:
    """One maximum matching as increasing (u, v) pairs with u < v, found on
    the twin kernel (graphs.twin_kernel) and mapped back.

    The matching is cached on graph, so is_family_free, max_matching and
    berge_tutte_certificate run one blossom between them; each call
    returns a fresh list."""
    if graph._matching is None:
        kernel, labels = twin_kernel(graph)
        match = _maximum_matching_array(kernel)
        graph._matching = [
            (labels[u], labels[match[u]]) for u in range(kernel.n) if match[u] > u
        ]
    return list(graph._matching)


def max_matching_by_enumeration(graph: Graph) -> int:
    """Independent oracle: exact nu(G) by dynamic programming over all
    vertex subsets.  Limited to n <= 12."""
    n = graph.n
    if n > _ENUMERATION_LIMIT:
        raise SizeLimitError(
            f"enumeration oracle handles n <= {_ENUMERATION_LIMIT}, got n={n}"
        )
    adj = graph.adjacency_masks
    size = 1 << n
    best_for = [0] * size
    for mask in range(1, size):
        low = mask & -mask
        v = low.bit_length() - 1
        rest = mask ^ low
        best = best_for[rest]
        m = adj[v] & rest
        while m:
            lu = m & -m
            m ^= lu
            cand = 1 + best_for[rest ^ lu]
            if cand > best:
                best = cand
        best_for[mask] = best
    return best_for[size - 1]


def has_matching_of_size(adj: tuple[int, ...] | list[int], active: int, t: int) -> bool:
    """True iff there are t pairwise-disjoint edges among the vertices of
    the bitmask `active`: nu(G[active]) >= t, by the blossom."""
    return max_matching(Graph._trusted(induced_masks(adj, active))) >= t


def _component_sizes(graph: Graph, removed: tuple[int, ...]) -> list[int]:
    """Sizes of the components of G - X, X the vertices `removed`, in one
    depth-first pass with a flag per vertex (linear in the graph)."""
    adj, seen, sizes = graph.adjacency_masks, bytearray(graph.n), []
    for v in removed:
        seen[v] = 1
    for root in range(graph.n):
        if not seen[root]:
            seen[root] = 1
            stack, size = [root], 0
            while stack:
                size += 1
                for w in _iter_bits(adj[stack.pop()]):
                    if not seen[w]:
                        seen[w] = 1
                        stack.append(w)
            sizes.append(size)
    return sizes


@dataclass(frozen=True)
class BergeTutteCertificate:
    """Witness that nu(G) <= bound: deleting vertex_set leaves components
    whose floor-halved sizes, plus |vertex_set|, stay within the bound."""

    vertex_set: tuple[int, ...]
    component_sizes: tuple[int, ...]
    bound: int
    slack: int

    @property
    def isolated_count(self) -> int:
        """Number of 1-vertex components of G - X."""
        return sum(1 for c in self.component_sizes if c == 1)

    @property
    def large_component_sizes(self) -> tuple[int, ...]:
        """Sizes of the components of G - X with at least two vertices."""
        return tuple(c for c in self.component_sizes if c >= 2)

    @property
    def matching_upper_bound(self) -> int:
        return len(self.vertex_set) + sum(c // 2 for c in self.component_sizes)


def _validate_certificate(graph: Graph, cert: BergeTutteCertificate, s: int) -> None:
    if not all(0 <= v < graph.n for v in cert.vertex_set):
        raise AssertionError("certificate vertex out of range")
    sizes = tuple(sorted(_component_sizes(graph, cert.vertex_set)))
    if sizes != tuple(sorted(cert.component_sizes)):
        raise AssertionError("certificate component sizes do not match the graph")
    if sum(sizes) + len(cert.vertex_set) != graph.n:
        raise AssertionError("certificate components do not partition V - X")
    if cert.slack != s - cert.matching_upper_bound or cert.slack < 0:
        raise AssertionError("certificate slack is inconsistent")


def gallai_edmonds_set(graph: Graph) -> int:
    """D(G) as a vertex mask: the vertices that some maximum matching
    misses (Lovasz-Plummer, Matching Theory, ch. 3).

    D is the set of outer vertices of one alternating forest grown from
    every exposed vertex of the cached maximum matching.  So nu(G + w) =
    nu(G) + 1 for a new vertex w iff N(w) meets D: w matched to v in D
    extends a maximum matching that misses v, and a matching of G + w
    larger than nu(G) covers w by an edge wv and leaves one of G - v of
    size nu(G)."""
    n = graph.n
    match = [-1] * n
    for u, v in maximum_matching_edges(graph):
        match[u], match[v] = v, u
    adj_lists = [list(_iter_bits(a)) for a in graph.adjacency_masks]
    outer = _augment_from(adj_lists, match, [v for v in range(n) if match[v] < 0], n)
    if outer is None:
        raise AssertionError("the cached matching is not maximum")
    # one int from a bit string: OR-ing 1 << v per vertex is quadratic
    return int("0" + "".join("1" if o else "0" for o in reversed(outer)), 2)


def berge_tutte_certificate(graph: Graph, s: int) -> BergeTutteCertificate | None:
    """The Gallai-Edmonds certificate of nu(G) <= s; None iff nu(G) > s.

    Returns A = N(D) - D, D = gallai_edmonds_set(graph) (the vertices
    some maximum matching misses).  |A| + sum floor(|K|/2) over
    the components K of G - A is nu(G), so slack = s - nu(G).  A depends
    on G alone: the certificate is unique, but not always the smallest.
    """
    if s < 0:
        raise ParameterError(f"s must be >= 0, got {s}")
    nu = len(maximum_matching_edges(graph))
    if nu > s:
        return None
    adj = graph.adjacency_masks
    d_mask = gallai_edmonds_set(graph)
    a_mask = 0
    for v in _iter_bits(d_mask):
        a_mask |= adj[v]
    vertex_set = tuple(list(_iter_bits(a_mask & ~d_mask)))
    sizes = _component_sizes(graph, vertex_set)
    cert = BergeTutteCertificate(vertex_set, tuple(sizes), s, s - nu)
    _validate_certificate(graph, cert, s)
    return cert
