"""Shared graph builders and hypothesis strategies."""

from __future__ import annotations

import random

from hypothesis import strategies as st

from genturan import Graph, build_H, build_St1, build_St2, build_extremal_odd, ex_odd


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(n: int) -> Graph:
    return Graph(n, [(0, i) for i in range(1, n)])


def bowtie() -> Graph:
    """Two triangles sharing vertex 2."""
    return Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


def random_connected_graph(rng: random.Random, n: int, extra: float = 0.25) -> Graph:
    """Random spanning tree plus a sprinkle of extra edges."""
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        j = rng.randrange(i)
        u, v = order[i], order[j]
        edges.add((min(u, v), max(u, v)))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < extra:
                edges.add((u, v))
    return Graph(n, sorted(edges))


def relabeled_witnesses():
    """Extremal witnesses of every kind up to n = 60, each relabelled by a
    seeded permutation."""
    rng = random.Random(60)
    built = []
    for k in (2, 3, 4):
        for s in (2 * k + 1, 3 * k, 4 * k):
            for r in (2, k + 1):
                attached = ex_odd(10**6, k, s, r).witness.attached
                order = (2 * k + 1) + sum(c - 1 for c in attached)
                for n in sorted({order, (order + 60) // 2, 60}):
                    built.append(build_extremal_odd(n, k, s, r))
    for k in (2, 4, 6):
        for q in (1, 3):
            for n in ((q - 1) * (2 * k - 2) + 2 * k, 60):
                built.append(build_St1(n, k, q))
                built.append(build_St2(n, k, q))
    for k, a in ((5, 1), (8, 2), (10, 4)):
        built.append(build_H(30, k, a))
    for g in built:
        perm = list(range(g.n))
        rng.shuffle(perm)
        yield g.relabeled(perm)


@st.composite
def graphs(draw, max_n: int = 9, min_n: int = 1) -> Graph:
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    return Graph(n, [e for i, e in enumerate(pairs) if (mask >> i) & 1])


@st.composite
def connected_graphs(draw, max_n: int = 9, min_n: int = 2) -> Graph:
    n = draw(st.integers(min_n, max_n))
    seed = draw(st.integers(0, 2**32 - 1))
    extra = draw(st.floats(0.0, 0.6))
    return random_connected_graph(random.Random(seed), n, extra)


@st.composite
def graphs_with_twin_class(draw, max_n: int = 8):
    """A random graph on b vertices plus t > |N| copies of one random
    neighborhood N among them (a planted twin class), labels shuffled so
    the class is not always the highest-labelled vertices."""
    size = draw(st.integers(1, 3))
    t = draw(st.integers(size + 1, max_n - size))
    b = draw(st.integers(size, max_n - t))
    pairs = [(u, v) for u in range(b) for v in range(u + 1, b)]
    edges = [e for e in pairs if draw(st.booleans())]
    hood = draw(st.lists(st.integers(0, b - 1), min_size=size, max_size=size,
                         unique=True))
    edges += [(w, c) for c in range(b, b + t) for w in hood]
    perm = draw(st.permutations(range(b + t)))
    return Graph(b + t, [(perm[u], perm[v]) for u, v in edges])


@st.composite
def graphs_with_planted_classes(draw, max_base: int = 5, max_classes: int = 3):
    """A random base graph plus up to max_classes planted twin classes of
    1 to 6 vertices each, open (independent) or closed (a clique), each
    joined to all of a random set of base vertices and earlier classes;
    labels shuffled."""
    b = draw(st.integers(0, max_base))
    pairs = [(u, v) for u in range(b) for v in range(u + 1, b)]
    edges = [e for e in pairs if draw(st.booleans())]
    units = [[v] for v in range(b)]
    n = b
    for _ in range(draw(st.integers(1, max_classes))):
        members = list(range(n, n + draw(st.integers(1, 6))))
        if draw(st.booleans()):
            edges += [(u, v) for i, u in enumerate(members) for v in members[i + 1:]]
        joined = [unit for unit in units if draw(st.booleans())]
        edges += [(u, v) for unit in joined for u in unit for v in members]
        units.append(members)
        n += len(members)
    perm = draw(st.permutations(range(n)))
    return Graph(n, [(perm[u], perm[v]) for u, v in edges])
