"""Concrete extremal witness graphs.

The central object is the dominated-clique graph: a clique K_{k-a} whose
first a vertices dominate n-(k-a) additional attachment vertices.  It is
2-connected for a >= 2, has matching number floor(k/2) once n >= k, and
no cycle of length >= k when 2a < k.  Extremal witnesses are block stars:
one such central block with clique blocks glued to its first dominator.

Vertex labeling is deterministic everywhere (clique vertices first with
dominators 0..a-1, attachment vertices after; attached blocks follow the
central block in non-increasing size order), so identical specs always
serialize byte-for-byte identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import GraphFormatError, ParameterError, WitnessOrderError
from .formulas import check_h_params, ex_odd
from .graphs import Graph


@dataclass(frozen=True)
class HGraphParams:
    """Dominated-clique graph parameters: order n, clique+attachment
    profile k, dominating set size a (needs 2a <= k and n >= k-a)."""

    n: int
    k: int
    a: int

    def __post_init__(self) -> None:
        check_h_params(self.n, self.k, self.a)

    def to_json(self) -> dict:
        return {"type": "H", "n": self.n, "k": self.k, "a": self.a}


@dataclass(frozen=True)
class BlockStarSpec:
    """Symbolic block star: a central block (dominated-clique graph or a
    single clique) with clique blocks attached at the hub.

    The hub is always vertex 0 of the central block (its first dominator),
    so it is covered by every maximum matching of the central block.
    Attached orders are kept in non-increasing order.
    """

    central: HGraphParams | int
    attached: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if isinstance(self.central, int):
            _clique_order(self.central, 1, "central clique order")
        att = tuple(sorted(self.attached, reverse=True))
        for c in att:
            _clique_order(c, 2, "attached clique orders")
        object.__setattr__(self, "attached", att)

    @property
    def central_order(self) -> int:
        return self.central if isinstance(self.central, int) else self.central.n

    @property
    def total_order(self) -> int:
        return self.central_order + sum(c - 1 for c in self.attached)

    def to_json(self) -> dict:
        central = (
            {"type": "K", "order": self.central}
            if isinstance(self.central, int)
            else self.central.to_json()
        )
        return {"central": central, "attached": list(self.attached), "hub": 0}


def _clique_order(c: int, least: int, what: str) -> int:
    if c < least:
        raise ParameterError(f"{what} must be >= {least}, got {c}")
    return c


def central_block_order(
    n: int, central_k: int, attached: tuple[int, ...], label: str
) -> int:
    """Order n - sum(c-1) left to the central block of an n-vertex block
    star with the given attached clique orders.  Raises WitnessOrderError
    naming the witness order central_k + sum(c-1) for `label` when that is
    below central_k, the least central order that reaches its designed
    matching number."""
    glued = sum(c - 1 for c in attached)
    if n - glued < central_k:
        raise WitnessOrderError(
            f"n={n} is below the witness order {central_k + glued} for {label}"
        )
    return n - glued


def build_H(n, k: int | None = None, a: int | None = None) -> Graph:
    """The dominated-clique graph: K_{k-a} on 0..k-a-1 (dominators are
    0..a-1) plus n-(k-a) attachment vertices joined to all dominators.

    Accepts either (n, k, a) or a single HGraphParams.
    """
    if isinstance(n, HGraphParams):
        params = n
    else:
        params = HGraphParams(n=n, k=k, a=a)
    n, a, clique = params.n, params.a, params.k - params.a
    full, low = (1 << n) - 1, (1 << clique) - 1
    # dominators see every other vertex, the rest of the clique sees the
    # clique, and each attachment vertex sees exactly the dominators
    return Graph._trusted(
        [full ^ (1 << v) for v in range(a)]
        + [low ^ (1 << v) for v in range(a, clique)]
        + [(1 << a) - 1] * (n - clique)
    )


def build_block_star(spec: BlockStarSpec) -> Graph:
    """Render a block star: central block first, then each attached clique
    sharing exactly the hub (vertex 0)."""
    m = spec.central_order
    if isinstance(spec.central, int):
        base = Graph.complete(m)
    else:
        base = build_H(spec.central)
    masks = list(base.adjacency_masks)
    nxt = m
    for order in spec.attached:
        block = ((1 << (order - 1)) - 1) << nxt
        masks.extend(block ^ (1 << v) | 1 for v in range(nxt, nxt + order - 1))
        nxt += order - 1
    # the hub (vertex 0) sees every attached vertex, and they come last
    masks[0] |= (1 << nxt) - (1 << m)
    return Graph._trusted(masks)


def build_extremal_odd(n: int, k: int, s: int, r: int) -> Graph:
    """The extremal witness for: no cycle of length >= 2k+1, nu <= s.

    Case selection (comparing 2k and 2t+1 against tau(k, r)) and the
    witness-order check are shared with ex_odd, so the built graph's K_r
    count equals the formula value exactly.
    """
    return build_block_star(ex_odd(n, k, s, r).witness)


def _st_spec(central_n: int, k: int, q: int, central_k: int) -> BlockStarSpec:
    """Block star with central H_{central_n, central_k, k-1} and q-1
    attached cliques of order 2k-1: St1 at central_k = 2k-1, St2 at 2k."""
    if q < 1:
        raise ParameterError(f"q must be >= 1, got {q}")
    return BlockStarSpec(
        central=HGraphParams(n=central_n, k=central_k, a=k - 1),
        attached=(2 * k - 1,) * (q - 1),
    )


def st1_spec(n: int, k: int, q: int) -> BlockStarSpec:
    """Block star with central H_{n-(q-1)(2k-2), 2k-1, k-1} and q-1
    attached cliques of order 2k-1."""
    return _st_spec(n - (q - 1) * (2 * k - 2), k, q, 2 * k - 1)


def st2_spec(n: int, k: int, q: int) -> BlockStarSpec:
    """Block star with central H_{n-(q-1)(2k-2), 2k, k-1} and q-1
    attached cliques of order 2k-1."""
    return _st_spec(n - (q - 1) * (2 * k - 2), k, q, 2 * k)


def build_St1(n: int, k: int, q: int) -> Graph:
    return build_block_star(st1_spec(n, k, q))


def build_St2(n: int, k: int, q: int) -> Graph:
    return build_block_star(st2_spec(n, k, q))


def build_woodall_G0(n: int, k: int) -> Graph:
    """q cliques K_{k-1} and one K_{p+1}, all sharing vertex 0, where
    n = q(k-2) + p + 1.  Edge count q*C(k-1, 2) + C(p+1, 2); no cycle of
    length >= k."""
    if k < 3:
        raise ParameterError(f"k must be >= 3, got {k}")
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    q, p = divmod(n - 1, k - 2)
    orders = [k - 1] * q + ([p + 1] if p >= 1 else [])
    central, *attached = orders or [1]  # n = 1: the hub alone
    return build_block_star(BlockStarSpec(central=central, attached=tuple(attached)))


def build_multipartite_G(n: int, k: int, s: int) -> Graph:
    """Complete k-partite graph: one class of size n-s, then s vertices
    split into k-1 classes as equally as possible (larger classes first)."""
    if k < 2:
        raise ParameterError(f"k must be >= 2, got {k}")
    if s < k - 1:
        raise ParameterError(f"need s >= k-1, got s={s}, k={k}")
    if n <= s:
        raise ParameterError(f"need n > s, got n={n}, s={s}")
    base, rem = divmod(s, k - 1)
    sizes = [n - s] + [base + 1] * rem + [base] * (k - 1 - rem)
    full = (1 << n) - 1
    masks = []
    for size in sizes:
        part = ((1 << size) - 1) << len(masks)
        masks.extend([full ^ part] * size)
    return Graph._trusted(masks)


def format_block_star_spec(spec: BlockStarSpec) -> str:
    """Line format: first line "H n k a" or "K c", then one attached
    clique order per line."""
    if isinstance(spec.central, int):
        lines = [f"K {spec.central}"]
    else:
        c = spec.central
        lines = [f"H {c.n} {c.k} {c.a}"]
    lines.extend(str(order) for order in spec.attached)
    return "\n".join(lines) + "\n"


def parse_block_star_spec(text: str) -> BlockStarSpec:
    """Inverse of format_block_star_spec; blank lines are ignored.  Every
    fault, of form or of value, raises GraphFormatError naming its line."""
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines:
        raise GraphFormatError("empty block-star spec")
    line, head = lines[0], lines[0].split()
    if (head[0], len(head)) not in (("H", 4), ("K", 2)):
        raise GraphFormatError(f"first line must be 'H n k a' or 'K c', got {line!r}")
    what = "central block line"
    try:
        if head[0] == "H":
            central = HGraphParams(*map(int, head[1:]))
        else:
            central = _clique_order(int(head[1]), 1, "central clique order")
        what, attached = "attached clique order", []
        for line in lines[1:]:
            attached.append(_clique_order(int(line), 2, "attached clique orders"))
    except ValueError as exc:
        raise GraphFormatError(f"bad {what} {line!r}: {exc}") from None
    return BlockStarSpec(central=central, attached=tuple(attached))
