"""Exact circumference and long-cycle detection.

Every cycle of a graph lies inside one block, so both searches decompose
the graph into blocks and run a path DFS per block.  Four devices keep
the search exact but fast on the structured graphs this package builds:

* both searches run on the twin kernel (graphs.twin_kernel, which proves
  it exact) and map the cycle found back; the dominated-clique blocks of
  the extremal graphs shrink to a handful of vertices;
* start vertices are processed in decreasing-degree order and deleted
  once exhausted (all cycles through them have been seen);
* vertices with identical open neighborhoods among the still-alive
  vertices are interchangeable on any cycle, so only the least unused
  member of each such twin class is ever tried as an extension.  The
  kernel leaves up to |N| members per class and deleting exhausted start
  vertices makes new twins, so this still pays: on the extremal witness
  grid up to n = 60 (976 graphs, 1952 calls; 2-vCPU Xeon, Python 3.11),
  `find_cycle_geq` took 1.8 s with both devices, 13.6 s with the kernel
  alone and 7.7 s with neither;
* a branch is cut when the path length plus the number of vertices still
  reachable from its endpoint cannot beat the best known cycle (or reach
  the requested length).

An optional node-expansion budget turns a runaway search into a
BudgetExceededError instead of an unbounded run.
"""

from __future__ import annotations

from .blocks import _raw_blocks
from .errors import BudgetExceededError, ParameterError
from .graphs import Graph, _iter_bits, reach, twin_class_masks, twin_kernel


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
    n: int,
    target: int | None,
    state: _SearchState,
) -> tuple[int, list[int] | None]:
    """Longest cycle using only vertices of block_mask.

    With target set, stops at the first cycle of length >= target.
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
        class_mask = twin_class_masks(adj, alive, n)
        path = [start]
        on_path = 1 << start

        def rec(v: int) -> bool:
            nonlocal best_len, best_cycle, on_path
            state.tick()
            if len(path) >= 3 and (adj[v] >> start) & 1:
                if len(path) > best_len:
                    best_len = len(path)
                    best_cycle = list(path)
                    if target is not None and best_len >= target:
                        return True
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
                seen_classes |= class_mask[u]
                path.append(u)
                on_path |= low
                aborted = rec(u)
                path.pop()
                on_path ^= low
                if aborted:
                    return True
            return False

        if rec(start):
            return best_len, best_cycle
        alive ^= 1 << start
    return best_len, best_cycle


def _longest_cycle(
    graph: Graph, target: int | None, budget: int | None
) -> tuple[int, list[int] | None]:
    """(length, vertex list) of a longest cycle, or with target set of the
    first one found of length >= target; (0, None) if acyclic.  Blocks of
    the twin kernel are searched largest first."""
    kernel, labels = twin_kernel(graph)
    adj = kernel.adjacency_masks
    masks = [b for b in _raw_blocks(kernel)[0] if b.bit_count() >= 3]
    state = _SearchState(budget)
    best_len, best_cycle = 0, None
    for mask in sorted(masks, key=lambda m: -m.bit_count()):
        if mask.bit_count() < (target or best_len + 1):
            continue
        length, cycle = _longest_cycle_in_block(adj, mask, kernel.n, target, state)
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
