"""Exact circumference and long-cycle detection.

Every cycle of a graph lies inside one block, so both searches decompose
the graph into blocks and run a path DFS per block.  Five devices keep
the search exact but fast on the structured graphs this package builds:

* both searches run on the twin kernel (graphs.twin_kernel, which proves
  it exact) and map the cycle found back; the dominated-clique blocks of
  the extremal graphs shrink to a handful of vertices;
* a block is searched only if a twin-class count leaves room for a cycle
  of the length needed (_cycle_bound).  An open-twin class T with
  neighbourhood N is independent, so a cycle C reaches each vertex of
  C & T from N and back: |C & T| <= |C & N| <= |N|, and equality makes C
  alternate between T and N inside T | N, so a cycle longer than
  |T| + |N| uses at most |N| - 1 members of T.  Summing these caps over
  the classes, which partition the block, bounds the length of every
  such cycle.  The central kernel blocks of St2 and of H(n, k, a) with
  2a + 1 < k have as many vertices as the forbidden length, the bound
  puts them one short, and so they need no DFS at all.  The longest-cycle
  search of a block also stops as soon as the bound on the vertices not
  yet exhausted leaves no room for a cycle longer than the best found;
* start vertices are processed in decreasing-degree order and deleted
  once exhausted (all cycles through them have been seen);
* twins among the still-alive vertices (the open or closed twin classes
  of G[alive], read from graphs.twin_partition) are interchangeable on
  any cycle: swapping two twins off the path is an automorphism of
  G[alive] that fixes the path, so only the least unused member of each
  class is ever tried as an extension.  The kernel leaves up to |N|
  members per open class, keeps every closed one, and deleting exhausted
  start vertices makes new twins, so this still pays: on the extremal
  witness grid up to n = 60 (976 seed-1 relabelled graphs, 1952 calls at
  the family threshold and one below; 2-vCPU Xeon, Python 3.11.7),
  `find_cycle_geq` takes 0.18-0.27 s with every device, 1.1-1.3 s
  without the block bound, and in single runs 10.8 s with neither the
  bound nor the twin skip and 6.8 s with neither the bound nor the
  kernel;
* a branch is cut when the path length plus the number of vertices still
  reachable from its endpoint cannot beat the best known cycle (or reach
  the requested length).

An optional node-expansion budget turns a runaway search into a
BudgetExceededError instead of an unbounded run.
"""

from __future__ import annotations

from .blocks import _raw_blocks
from .errors import BudgetExceededError, ParameterError
from .graphs import Graph, _iter_bits, reach, twin_kernel, twin_masks, twin_partition


class _SearchState:
    __slots__ = ("expansions", "budget")

    def __init__(self, budget: int | None):
        self.expansions = 0
        self.budget = budget

    def tick(self) -> None:
        self.expansions += 1
        if self.budget is not None and self.expansions > self.budget:
            raise BudgetExceededError(
                f"cycle search exceeded budget of {self.budget} node expansions"
            )


def _longest_cycle_in_block(
    adj: tuple[int, ...],
    block_mask: int,
    target: int | None,
    state: _SearchState,
) -> tuple[int, list[int] | None]:
    """Longest cycle using only vertices of block_mask.

    With target set, stops at the first cycle of length >= target; without
    it, as soon as _cycle_bound rules out a longer cycle than the best
    found among the vertices still alive, which hold every cycle the
    remaining search could see.
    """
    best_len = 0
    best_cycle: list[int] | None = None
    alive = block_mask
    order = sorted(
        _iter_bits(block_mask),
        key=lambda v: (-(adj[v] & block_mask).bit_count(), v),
    )
    for start in order:
        needed = target if target is not None else best_len + 1
        if alive.bit_count() < max(needed, 3):
            break
        twins = twin_masks(adj, alive)
        path = [start]
        on_path = 1 << start

        def rec(v: int) -> bool:
            nonlocal best_len, best_cycle, on_path
            state.tick()
            if len(path) >= 3 and (adj[v] >> start) & 1:
                if len(path) > best_len:
                    best_len = len(path)
                    best_cycle = list(path)
                    if target is not None:
                        if best_len >= target:
                            return True
                    elif _cycle_bound(adj, alive, best_len + 1) < best_len + 1:
                        return True  # no longer cycle left in alive
            free = alive & ~on_path
            threshold = best_len if target is None else target - 1
            if len(path) + free.bit_count() <= threshold:
                return False
            m = adj[v] & free
            if len(path) + reach(adj, free, m).bit_count() <= threshold:
                return False
            seen_classes = 0
            while m:
                low = m & -m
                m ^= low
                if low & seen_classes:
                    continue
                u = low.bit_length() - 1
                seen_classes |= twins[u]
                path.append(u)
                on_path |= low
                aborted = rec(u)
                path.pop()
                on_path ^= low
                if aborted:
                    return True
            return False

        found = rec(start)
        del rec  # rec refers to itself through its closure: break the cycle
        if found:
            return best_len, best_cycle
        alive ^= 1 << start
    return best_len, best_cycle


def _cycle_bound(adj: tuple[int, ...], block: int, needed: int) -> int:
    """A number U such that every cycle of G[block] with at least `needed`
    vertices has at most U of them, so U < needed rules such cycles out.

    U sums over the classes of twin_partition(adj, block).  An open class
    T with neighbourhood N (within block) adds min(|T|, |N| - 1) if
    |T| + |N| < needed and min(|T|, |N|) otherwise, never below 0.  Let C
    be a cycle with |C| >= needed.  T is independent, so both cycle edges
    at each vertex of C & T end in N, and N takes at most two cycle edges
    per vertex: 2|C & T| <= 2|C & N|.  With equality every cycle edge at
    C & N ends in T as well, so C alternates between T and N and lies
    inside T | N, which is impossible when |T| + |N| < needed <= |C|;
    there |C & T| <= |N| - 1.  Every member of a closed class adds 1 if it
    has two or more neighbours in block, as a cycle vertex does; for
    needed >= 3 that is also what the rule above gives a class of one.
    The classes partition block, so the contributions add up to a bound on
    |C|.  U <= |block|; on the twin-kernel block of St2(n, 6, q) (K_7 with
    five dominators, plus five attachment vertices) it gives 7 + 4 = 11,
    one short of 12.
    """
    open_classes, closed_classes = twin_partition(adj, block)
    bound = 0
    for members in open_classes:
        degree = (adj[members[0]] & block).bit_count()
        cap = degree if len(members) + degree >= needed else max(degree - 1, 0)
        bound += min(len(members), cap)
    for members in closed_classes:
        if (adj[members[0]] & block).bit_count() >= 2:
            bound += len(members)  # closed twins share one degree
    return bound


def _longest_cycle(
    graph: Graph, target: int | None, budget: int | None
) -> tuple[int, list[int] | None]:
    """(length, vertex list) of a longest cycle, or with target set of the
    first one found of length >= target; (0, None) if acyclic.  Blocks of
    the twin kernel are searched largest first, each only if _cycle_bound
    leaves room for a cycle of the length needed."""
    kernel, labels = twin_kernel(graph)
    adj = kernel.adjacency_masks
    masks = [b for b in _raw_blocks(kernel)[0] if b.bit_count() >= 3]
    state = _SearchState(budget)
    best_len, best_cycle = 0, None
    for mask in sorted(masks, key=lambda m: -m.bit_count()):
        needed = target or best_len + 1
        # _cycle_bound never exceeds the block size; the size test is cheaper
        if mask.bit_count() < needed or _cycle_bound(adj, mask, needed) < needed:
            continue
        length, cycle = _longest_cycle_in_block(adj, mask, target, state)
        if length > best_len:
            best_len, best_cycle = length, cycle
            if target is not None and length >= target:
                break
    return best_len, best_cycle and [labels[v] for v in best_cycle]


def circumference(graph: Graph, budget: int | None = None) -> int:
    """Length of a longest cycle; 0 if the graph is acyclic.

    Exact.  With a budget, raises BudgetExceededError when the search
    expands more nodes than allowed.
    """
    return _longest_cycle(graph, None, budget)[0]


def find_cycle_geq(
    graph: Graph, k_c: int, budget: int | None = None
) -> list[int] | None:
    """The first cycle found of length >= k_c, as a vertex list, or None."""
    if k_c < 3:
        raise ParameterError(f"cycle length threshold must be >= 3, got {k_c}")
    length, cycle = _longest_cycle(graph, k_c, budget)
    return cycle if length >= k_c else None


def has_cycle_geq(graph: Graph, k_c: int, budget: int | None = None) -> bool:
    """True iff some cycle has length >= k_c."""
    return find_cycle_geq(graph, k_c, budget=budget) is not None


def circumference_by_enumeration(graph: Graph) -> int:
    """Independent oracle: try every vertex subset and every cyclic order.

    Factorial; intended for n <= 7 test graphs only.
    """
    from itertools import combinations, permutations

    best = 0
    for size in range(graph.n, 2, -1):
        if size <= best:
            break
        for subset in combinations(range(graph.n), size):
            first = subset[0]
            for rest in permutations(subset[1:]):
                order = (first,) + rest
                if all(
                    graph.has_edge(order[i], order[(i + 1) % size])
                    for i in range(size)
                ):
                    best = max(best, size)
                    break
            if best == size:
                break
    return best
