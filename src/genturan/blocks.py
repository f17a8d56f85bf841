"""Block decomposition and the hub-gluing star transform.

A block is a maximal 2-connected subgraph or a bridge (an isolated vertex
counts as a trivial block).  Blocks pairwise intersect in at most one
vertex, every edge lies in exactly one block, and any clique of size >= 2
lies inside a single block.

Blocks are ordered so that each block after the first meets the union of
its predecessors in exactly one vertex, its representative.  The star
transform re-glues every later block at a single hub: within each block
the representative is renamed to the hub, which preserves the edge count,
all clique counts, and the multiset of block orders.

Blocks are vertex bitmasks over Graph.adjacency_masks from the lowpoint
DFS through the ordering, the long-cycle search (cycles.py) and the star
transform; only BlockDecomposition spells them out as sorted tuples.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DisconnectedGraphError, ParameterError
from .graphs import Graph, _iter_bits


@dataclass(frozen=True)
class BlockDecomposition:
    """Ordered blocks of a connected graph.

    representatives[i] is the unique vertex block i shares with the union
    of blocks 0..i-1 (None for the first block).
    """

    blocks: tuple[tuple[int, ...], ...]
    cut_vertices: tuple[int, ...]
    representatives: tuple[int | None, ...]

    def block_orders(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.blocks)


def _vertices(mask: int) -> list[int]:
    """The vertices of mask, ascending; also the ascending-tuple sort key.
    A list: tuple() of a generator over-allocates and then shrinks, which
    over many calls fragments the heap and raises the peak RSS."""
    return list(_iter_bits(mask))


def _raw_blocks(graph: Graph) -> tuple[list[int], int]:
    """Vertex masks of the blocks of every component, in the order the DFS
    closes them, and the mask of the cut vertices.

    Iterative lowpoint DFS (Hopcroft-Tarjan) over the adjacency masks,
    neighbours taken lowest bit first.  The low point is kept as a mask:
    every non-tree edge of a DFS joins a vertex to an ancestor, so up[v],
    the ancestors of v adjacent to a vertex of v's subtree (v itself may
    be in it and is ignored), decides the lowpoint test.  The tree edge
    u-v closes a block exactly when up[v] has no vertex above u (low[v] >=
    disc[u]).  A vertex stack holds the visited vertices not yet in a
    block: the block is the stack popped down to v, plus u.  Isolated
    vertices become single-vertex blocks.
    """
    adj = graph.adjacency_masks
    blocks: list[int] = []
    cuts = visited = 0
    for root in range(graph.n):
        if (visited >> root) & 1:
            continue
        visited |= 1 << root
        if not adj[root]:
            blocks.append(1 << root)
            continue
        path, ups, pending = [root], [0], []
        on_path = 1 << root
        root_children = 0
        while path:
            v = path[-1]
            fresh = adj[v] & ~visited
            if fresh:
                bit = fresh & -fresh
                w = bit.bit_length() - 1
                visited |= bit
                path.append(w)
                ups.append(adj[w] & on_path)
                on_path |= bit
                pending.append(w)
                root_children += v == root
                continue
            path.pop()
            up = ups.pop()
            on_path ^= 1 << v
            if not path:
                continue
            u = path[-1]
            if up & on_path & ~(1 << u):
                ups[-1] |= up
                continue
            block = 1 << u
            w = -1
            while w != v:
                w = pending.pop()
                block |= 1 << w
            blocks.append(block)
            if u != root or root_children >= 2:
                cuts |= 1 << u
    return blocks, cuts


def _order_blocks(blocks: list[int], first: int) -> tuple[list[int], list[int | None]]:
    """Order block masks starting from blocks[first] so each later block
    shares exactly one vertex with the union of earlier ones.
    Deterministic: the next block minimises (shared vertex, ascending
    vertex tuple); the tuple order is not the masks' integer order."""
    ordered = [blocks[first]]
    reps: list[int | None] = [None]
    covered = blocks[first]
    remaining = sorted(blocks[:first] + blocks[first + 1 :], key=_vertices)
    while remaining:
        best = min(
            (
                (shared.bit_length() - 1, i)
                for i, b in enumerate(remaining)
                if (shared := b & covered) and not shared & (shared - 1)
            ),
            default=None,
        )
        if best is None:
            raise DisconnectedGraphError("block structure is not connected")
        block = remaining.pop(best[1])
        ordered.append(block)
        reps.append(best[0])
        covered |= block
    return ordered, reps


def _decompose(graph: Graph) -> tuple[list[int], list[int | None], int]:
    """Ordered block masks, representatives and cut-vertex mask of a
    connected graph, in the order block_decomposition documents."""
    if not graph.is_connected():
        raise DisconnectedGraphError("block_decomposition requires a connected graph")
    raw, cuts = _raw_blocks(graph)
    if not raw:
        return [], [], 0
    first = raw.index(min(raw, key=_vertices))
    return (*_order_blocks(raw, first), cuts)


def block_decomposition(graph: Graph) -> BlockDecomposition:
    """Blocks, cut vertices and representatives of a connected graph.

    The first block is the one with the lexicographically smallest vertex
    tuple; ties elsewhere break toward the smallest shared vertex.  The
    empty graph has no blocks.
    """
    ordered, reps, cuts = _decompose(graph)
    return BlockDecomposition(
        blocks=tuple(tuple(_vertices(b)) for b in ordered),
        cut_vertices=tuple(_vertices(cuts)),
        representatives=tuple(reps),
    )


def star_transform(graph: Graph, b1_index: int, u1: int) -> Graph:
    """Re-glue every block at the hub u1 of the chosen first block.

    Later blocks are processed in decomposition order; within each, the
    representative vertex is renamed to u1.  The result has the same
    vertex set, the same number of edges, the same clique counts for
    every order, and all blocks share u1.
    """
    blocks = _decompose(graph)[0]
    if not 0 <= b1_index < len(blocks):
        raise ParameterError(f"b1_index {b1_index} out of range")
    if u1 not in range(graph.n) or not (blocks[b1_index] >> u1) & 1:
        raise ParameterError(f"u1={u1} is not a vertex of block {b1_index}")
    adj = graph.adjacency_masks
    masks = [0] * graph.n
    for block, rep in zip(*_order_blocks(blocks, b1_index)):
        old = u1 if rep is None else rep  # renamed to u1 within this block
        for a in _iter_bits(block):
            nbrs = adj[a] & block
            if (nbrs >> old) & 1:
                nbrs ^= (1 << old) ^ (1 << u1)
            masks[u1 if a == old else a] |= nbrs
    return Graph._trusted(masks)
