"""Immutable simple-graph type and exact clique counting.

Vertices are labeled 0..n-1.  Adjacency is stored as one Python integer
bitmask per vertex, so adjacency tests are single bit probes and
neighborhood intersections are bitwise ANDs regardless of n (Python ints
are arbitrary precision, so the same code path serves n > 64).

twin_partition is the one partition of a graph, or of an induced
subgraph, into classes of twins (equal open or equal closed
neighborhoods), and the one place that tells open classes from closed
ones; the cycle search and its bound, canonical forms and the oracle's
twin rule read it, and twin_masks gives each vertex its class as a mask.
The whole-graph partition is cached on the graph, and the twin kernel
and the clique quotient are read off that one cached result.

Cliques are counted on the quotient of the graph by its twin partition.
Adjacency between two classes is all-or-nothing, since twins agree on
every vertex outside their pair, so a K_r of the graph is a clique Q of
the quotient with j_C >= 1 members taken from each class C of Q, the
j_C summing to r.  A closed class is a clique, whose j members can be
any C(|C|, j) of them; an open class is independent, so it gives one
member, any of |T|.  The extremal graphs are block-stars of closed
cliques and open classes, and shrink to a handful of classes.  One loop
on an explicit stack (_weighted_cliques) does the count, with no depth
limit; the plain count of count_cliques_in_mask is the same loop with no
weights.
"""

from __future__ import annotations

from itertools import chain, combinations
from typing import Iterable, Iterator

from .errors import ParameterError


class Graph:
    """Finite simple undirected graph on vertices 0..n-1.

    Immutable after construction, but for three caches, each filled on
    first use and a function of the adjacency alone: twin_kernel's kernel,
    the whole-graph twin_partition and maximum_matching_edges's matching.
    Equality and hashing ignore them.  Graphs are values here, so
    instances are safe to share between threads.
    """

    __slots__ = ("n", "_adj", "_num_edges", "_kernel", "_twins", "_matching")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ParameterError(f"n must be >= 0, got {n}")
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ParameterError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ParameterError(f"loop at vertex {u} is not allowed")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self._adj = tuple(adj)
        self._num_edges = sum(m.bit_count() for m in adj) // 2
        self._kernel = self._twins = self._matching = None

    @classmethod
    def from_adjacency_masks(cls, masks: Iterable[int]) -> "Graph":
        """Build from per-vertex neighbor bitmasks (validated for symmetry)."""
        masks = list(masks)
        n = len(masks)
        for v, m in enumerate(masks):
            if m >> n:
                raise ParameterError(f"adjacency mask of vertex {v} exceeds n={n}")
            if (m >> v) & 1:
                raise ParameterError(f"loop at vertex {v} is not allowed")
        for v in range(n):
            for u in _iter_bits(masks[v]):
                if not (masks[u] >> v) & 1:
                    raise ParameterError(f"asymmetric adjacency between {u} and {v}")
        return cls._trusted(masks)

    @classmethod
    def _trusted(cls, masks: list[int]) -> "Graph":
        """Build from masks already known to be valid, without checks."""
        g = cls.__new__(cls)
        g.n = len(masks)
        g._adj = tuple(masks)
        g._num_edges = sum(m.bit_count() for m in masks) // 2
        g._kernel = g._twins = g._matching = None
        return g

    @classmethod
    def complete(cls, n: int) -> "Graph":
        full = (1 << n) - 1
        return cls._trusted([full ^ (1 << v) for v in range(n)])

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def adjacency_mask(self, v: int) -> int:
        return self._adj[v]

    @property
    def adjacency_masks(self) -> tuple[int, ...]:
        return self._adj

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self._adj[u] >> v) & 1)

    def degree(self, v: int) -> int:
        return self._adj[v].bit_count()

    def neighbors(self, v: int) -> Iterator[int]:
        return _iter_bits(self._adj[v])

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as (u, v) with u < v, in lexicographic order."""
        for u in range(self.n):
            for v in _iter_bits(self._adj[u] >> (u + 1)):
                yield (u, v + u + 1)

    def relabeled(self, perm: list[int]) -> "Graph":
        """New graph where old vertex v becomes perm[v]."""
        if sorted(perm) != list(range(self.n)):
            raise ParameterError("perm must be a permutation of 0..n-1")
        return Graph(self.n, [(perm[u], perm[v]) for u, v in self.edges()])

    def is_connected(self) -> bool:
        if self.n <= 1:
            return True
        full = (1 << self.n) - 1
        return reach(self._adj, full, 1) == full

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self._adj == other._adj
        )

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.num_edges})"


_WIDE_MASK = 1024


def _iter_bits(mask: int) -> Iterator[int]:
    """Indices of set bits, ascending.

    Clearing the low bit copies the whole remaining mask, so a mask wider
    than _WIDE_MASK bits (a hub of a large graph) is walked as its binary
    string instead, in time linear in its width."""
    if mask.bit_length() > _WIDE_MASK:
        bits = format(mask, "b")[::-1]
        i = bits.find("1")
        while i >= 0:
            yield i
            i = bits.find("1", i + 1)
        return
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def reach(adj: tuple[int, ...] | list[int], allowed: int, seeds: int) -> int:
    """Bitmask of the vertices of `allowed` reachable from `seeds & allowed`
    by paths that stay inside `allowed` (breadth-first, one bitmask per
    layer)."""
    seen = 0
    frontier = seeds & allowed
    while frontier:
        seen |= frontier
        nxt = 0
        m = frontier
        while m:
            low = m & -m
            m ^= low
            nxt |= adj[low.bit_length() - 1]
        frontier = nxt & allowed & ~seen
    return seen


def twin_partition(
    masks: tuple[int, ...] | list[int], alive: int | None = None
) -> tuple[list[list[int]], list[list[int]]]:
    """The classes of twins (equal open or equal closed neighborhoods) of
    the graph with adjacency masks masks induced on the vertex mask alive
    (None: every vertex), as (open_classes, closed_classes): each class is
    its increasing list of vertices, and each kind is ordered by lowest
    member.  An open class is two or more pairwise non-adjacent twins (an
    edge uv would put v in N(u) = N(v)); a closed class is a clique of
    twins, singletons included.  A vertex outside alive is in no class.

    No vertex has both an open and a closed twin (a closed twin x of v is
    adjacent to every open twin u of v, as x is in N(v) = N(u), and then u
    is in N[x] = N[v]), so the classes partition alive, and swapping two
    members of one class is an automorphism of the induced graph.  Members
    are collected as lists, not masks, so a class of m members costs
    O(m)."""
    if alive is None:  # range walks every vertex in half _iter_bits's time
        vertices, alive = range(len(masks)), (1 << len(masks)) - 1
    else:
        vertices = _iter_bits(alive)
    open_twins: dict[int, list[int]] = {}
    for v in vertices:
        open_twins.setdefault(masks[v] & alive, []).append(v)
    open_classes = []
    closed_twins: dict[int, list[int]] = {}
    for hood, members in open_twins.items():
        if len(members) > 1:
            open_classes.append(members)
        else:
            v = members[0]
            closed_twins.setdefault(hood | 1 << v, []).append(v)
    return open_classes, list(closed_twins.values())


def twin_masks(
    masks: tuple[int, ...] | list[int], alive: int | None = None
) -> list[int]:
    """twins[v] = the mask of v's class in twin_partition(masks, alive),
    0 for v outside alive."""
    twins = [0] * len(masks)
    for members in chain(*twin_partition(masks, alive)):
        class_mask = sum(1 << v for v in members)
        for v in members:
            twins[v] = class_mask
    return twins


def _graph_twins(graph: Graph) -> tuple[list[list[int]], list[list[int]]]:
    """twin_partition of the whole graph, cached on graph."""
    if graph._twins is None:
        graph._twins = twin_partition(graph._adj)
    return graph._twins


def induced_masks(masks: tuple[int, ...] | list[int], keep: int) -> list[int]:
    """The adjacency masks of the subgraph induced on the vertex mask keep,
    its vertices relabelled 0, 1, ... in increasing order."""
    labels = list(_iter_bits(keep))
    index = {v: i for i, v in enumerate(labels)}
    return [sum(1 << index[u] for u in _iter_bits(masks[v] & keep)) for v in labels]


def twin_kernel(graph: Graph) -> tuple[Graph, tuple[int, ...]]:
    """The twin kernel of graph and its labels: kernel vertex i is vertex
    labels[i] of graph, and labels is increasing.

    The kernel is induced by the |N| lowest members of each open class of
    twin_partition (twins with one neighborhood N) and by each closed class
    with a neighbour, relabelled in order; it is graph itself when that
    drops nothing, and is cached on graph, as a family check asks for it
    once per constraint.

    It keeps the circumference and the matching number, and its cycles and
    matchings are those of graph under labels.  Open twins are pairwise
    non-adjacent, so every edge at a member ends in N.  A cycle has at most
    2|N| edges at N and uses two at each member on it; a matching has at
    most |N| edges at N and uses one at each member it covers: either uses
    at most |N| members of the class.  A permutation of a class is an
    automorphism fixing every vertex outside it, so, applied one class
    after another, these move the used members onto the kept ones
    (neighborhood diversity; Lampis, 2012).
    """
    if graph._kernel is not None:
        kernel, labels = graph._kernel
        return kernel or graph, labels
    adj = graph._adj
    open_classes, closed_classes = _graph_twins(graph)
    labels = [v for c in open_classes for v in c[: adj[c[0]].bit_count()]]
    labels += [v for c in closed_classes if adj[c[0]] for v in c]
    labels.sort()
    kernel = None  # stands for graph itself, so the cache is no reference cycle
    if len(labels) < graph.n:
        kernel = Graph._trusted(induced_masks(adj, sum(1 << v for v in labels)))
    graph._kernel = (kernel, tuple(labels))
    return kernel or graph, graph._kernel[1]


def clique_quotient(graph: Graph) -> tuple[int, dict[int, list[int]]]:
    """The quotient of graph by twin_partition, as (reps, weights): reps
    masks the lowest member of every class, which stands for the class,
    so two classes are joined iff their representatives are; weights maps
    the representative of each class of two or more to its row, in which
    entry j - 1 counts the ways to take j members of the class into a
    clique: |T| for j = 1 only for an open class T, and C(|C|, j) for a
    closed class C.  A class missing from weights is one vertex.  Read off
    the twin partition cached on graph."""
    open_classes, closed_classes = _graph_twins(graph)
    reps = sum(1 << c[0] for c in chain(open_classes, closed_classes))
    weights = {c[0]: [len(c)] for c in open_classes}
    for c in closed_classes:
        if len(c) > 1:
            row = [len(c)]  # C(|C|, j) from C(|C|, j - 1), exactly
            for j in range(2, len(c) + 1):
                row.append(row[-1] * (len(c) - j + 1) // j)
            weights[c[0]] = row
    return reps, weights


def count_cliques(graph: Graph, r: int) -> int:
    """Number of r-vertex subsets of `graph` that induce a complete subgraph.

    N_1 = n and N_2 = the edge count; r larger than n gives 0 before any
    quotient is built.  For r >= 3 it sums, over the cliques Q of the
    clique_quotient (every r reads the one twin partition cached on
    graph), the product over the classes C of Q of the ways to take j_C
    members of C, over the j_C >= 1 that sum to r (see the module
    docstring).
    """
    if r < 1:
        raise ParameterError(f"r must be >= 1, got {r}")
    if r > graph.n:
        return 0
    if r == 1:
        return graph.n
    if r == 2:
        return graph.num_edges
    reps, weights = clique_quotient(graph)
    return _weighted_cliques(graph._adj, weights, reps, r)


def _weighted_cliques(
    adj: tuple[int, ...] | list[int], weights: dict[int, list[int]], cand: int, r: int
) -> int:
    """Ways to take r vertices from the classes represented in cand so
    that they form a clique, each class given as in clique_quotient: the
    one clique count, on a stack of frames (cand, r, ways), each adding
    ways times its own count to the total, so it has no depth limit.

    A frame takes its lowest class v and leaves the rest of cand to its
    own loop: with j members of v, the clique's other r - j vertices come
    from the classes of cand joined to v, a frame of its own.  A class
    missing from weights is one vertex.  A class gives at most
    len(weights[v]) vertices and slack sums len - 1 over all of them, so
    fewer than r - slack classes cannot hold r vertices, nor fewer than r
    classes once cand holds no class of weights."""
    multi = slack = 0
    if weights:
        for v, row in weights.items():
            multi |= 1 << v
            slack += len(row) - 1
    elif r == 1:
        return cand.bit_count()
    total, ways, stack = 0, 1, []
    while True:
        if r == 1:
            total += ways * cand.bit_count()
            m = cand & multi
            while m:
                low = m & -m
                m ^= low
                total += ways * (weights[low.bit_length() - 1][0] - 1)
        else:
            while cand and cand.bit_count() + (slack if cand & multi else 0) >= r:
                low = cand & -cand
                cand ^= low
                v = low.bit_length() - 1
                rest = cand & adj[v]
                if not low & multi:
                    if r == 2 and not rest & multi:  # a frame of r = 1, counted here
                        total += ways * rest.bit_count()
                    elif rest:
                        stack.append((rest, r - 1, ways))
                    continue
                row = weights[v]
                if len(row) >= r:
                    total += ways * row[r - 1]
                if rest:
                    for j in range(1, min(len(row), r - 1) + 1):
                        stack.append((rest, r - j, ways * row[j - 1]))
        if not stack:
            return total
        cand, r, ways = stack.pop()


def count_cliques_in_mask(adj: tuple[int, ...] | list[int], cand: int, r: int) -> int:
    """r-cliques (r >= 1) using only vertices of `cand`, for the oracle's
    incremental counts: _weighted_cliques with no weights, so every
    vertex is its own class."""
    return _weighted_cliques(adj, {}, cand, r)


def count_cliques_by_enumeration(graph: Graph, r: int) -> int:
    """Independent oracle: test all C(n, r) vertex subsets directly."""
    if r < 1:
        raise ParameterError(f"r must be >= 1, got {r}")
    total = 0
    for subset in combinations(range(graph.n), r):
        if all(graph.has_edge(u, v) for u, v in combinations(subset, 2)):
            total += 1
    return total


def switch_vertex(graph: Graph, v: int, target: Iterable[int]) -> Graph:
    """Detach v from all its neighbors, then join v to every vertex in `target`.

    The degree of v in the result equals |target|; v must not be in target.
    """
    target = set(target)
    if v in target:
        raise ParameterError(f"vertex {v} must not belong to the target set")
    if not (0 <= v < graph.n):
        raise ParameterError(f"vertex {v} out of range")
    for u in target:
        if not (0 <= u < graph.n):
            raise ParameterError(f"target vertex {u} out of range")
    masks = list(graph._adj)
    for u in _iter_bits(masks[v]):
        masks[u] &= ~(1 << v)
    masks[v] = 0
    for u in target:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return Graph.from_adjacency_masks(masks)
