"""Bit-exact graph serialization: graph6 and plain edge lists.

graph6 is the standard printable-ASCII encoding: N(n) followed by the
upper-triangle adjacency bits in column order ((0,1), (0,2), (1,2),
(0,3), ...), packed big-endian into 6-bit groups offset by 63.  The
optional ">>graph6<<" header is accepted on input and never written.

The upper-triangle bits, read as one integer with the pair (0,1) in the
top bit, are the body of the graph: graph6_string packs an order and a
body, graph6_masks unpacks a body into adjacency masks.  The oracle's
canonical encoding is such a body, so it is written and read here too.

Both directions work on whole masks, not bit by bit.  The encoder writes
column v (u = 0..v-1) as one binary string of adj[v]'s low v bits, joins
the columns, and turns the result into the body with one int(bits, 2).
A byte string of 24k bits is 4k 6-bit groups, and base64 writes exactly
those groups, so binascii does the packing and a translation table moves
its alphabet onto chr(63)..chr(126).  The decoder inverts this: base64
back to the body (bits past the last pair are padding and dropped), one
binary string, each column's low mask by one int(), and the upper bits
set while walking the column's ones.

The edge-list format is one "u v" pair per line, 0-indexed, blank lines
ignored.  It carries no vertex count, so trailing isolated vertices do
not survive a round trip unless n is passed explicitly when reading.
"""

from __future__ import annotations

import binascii

from .errors import GraphFormatError, ParameterError
from .graphs import Graph

GRAPH6_HEADER = ">>graph6<<"

_BASE64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_GRAPH6_BYTES = bytes(range(63, 127))
_FROM_BASE64 = bytes.maketrans(_BASE64, _GRAPH6_BYTES)
_TO_BASE64 = bytes.maketrans(_GRAPH6_BYTES, _BASE64)


def _encode_order(n: int) -> list[int]:
    if n < 0:
        raise ParameterError(f"n must be >= 0, got {n}")
    if n <= 62:
        return [n + 63]
    if n <= 258047:
        return [126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]
    if n <= 68719476735:
        return [126, 126] + [((n >> s) & 63) + 63 for s in (30, 24, 18, 12, 6, 0)]
    raise ParameterError(f"n={n} too large for graph6")


def to_graph6(graph: Graph) -> str:
    """Encode a graph as a graph6 string (no header, no newline)."""
    n, adj = graph.n, graph.adjacency_masks
    # column v lists u = 0..v-1, lowest bit first
    bits = "".join(format(adj[v] & ((1 << v) - 1), f"0{v}b")[::-1] for v in range(1, n))
    return graph6_string(n, int(bits or "0", 2))


def graph6_string(n: int, body: int) -> str:
    """The graph6 string of the graph on n vertices whose body, its
    n(n-1)/2 upper-triangle bits in graph6 order read from the top bit,
    is the integer body."""
    width = n * (n - 1) // 2
    pad = -width % 24
    text = binascii.b2a_base64(
        (body << pad).to_bytes((width + pad) // 8, "big"), newline=False
    ).translate(_FROM_BASE64)[:(width + 5) // 6]
    return bytes(_encode_order(n)).decode("ascii") + text.decode("ascii")


def graph6_masks(n: int, body: int) -> list[int]:
    """The adjacency masks of the graph on n vertices with graph6 body
    body (see graph6_string)."""
    bits = format(body, f"0{n * (n - 1) // 2}b")
    adj = [0] * n
    p = 0
    for v in range(1, n):
        adj[v] = int(bits[p:p + v][::-1], 2)
        bit = 1 << v
        u = bits.find("1", p, p + v)
        while u >= 0:
            adj[u - p] |= bit
            u = bits.find("1", u + 1, p + v)
        p += v
    return adj


def from_graph6(text: str) -> Graph:
    """Decode a graph6 string; the ">>graph6<<" header is optional."""
    s = text.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER):]
    if not s:
        raise GraphFormatError("empty graph6 string")
    if not s.isascii() or s.encode("ascii").translate(None, _GRAPH6_BYTES):
        raise GraphFormatError("graph6 contains bytes outside chr(63)..chr(126)")
    raw = s.encode("ascii")
    if raw[0] != 126:
        n = raw[0] - 63
        pos = 1
    elif len(raw) >= 2 and raw[1] != 126:
        if len(raw) < 4:
            raise GraphFormatError("truncated graph6 order field")
        n = ((raw[1] - 63) << 12) | ((raw[2] - 63) << 6) | (raw[3] - 63)
        pos = 4
    else:
        if len(raw) < 8:
            raise GraphFormatError("truncated graph6 order field")
        n = 0
        for b in raw[2:8]:
            n = (n << 6) | (b - 63)
        pos = 8
    need = (n * (n - 1) // 2 + 5) // 6
    body = raw[pos:]
    if len(body) != need:
        raise GraphFormatError(
            f"graph6 body has {len(body)} groups, expected {need} for n={n}"
        )
    data = binascii.a2b_base64(body.translate(_TO_BASE64) + b"A" * (-len(body) % 4))
    # bits past the last pair are padding
    bits = int.from_bytes(data, "big") >> (8 * len(data) - n * (n - 1) // 2)
    return Graph._trusted(graph6_masks(n, bits))


def to_edgelist(graph: Graph) -> str:
    """One "u v" line per edge, lexicographic order, trailing newline."""
    lines = [f"{u} {v}" for u, v in graph.edges()]
    return "\n".join(lines) + ("\n" if lines else "")


def from_edgelist(text: str, n: int | None = None) -> Graph:
    """Parse an edge list; n defaults to 1 + the largest vertex mentioned."""
    edges = []
    top = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: non-integer vertex in {raw!r}")
        if u < 0 or v < 0:
            raise GraphFormatError(f"line {lineno}: negative vertex in {raw!r}")
        if u == v:
            raise GraphFormatError(f"line {lineno}: loop at vertex {u} in {raw!r}")
        edges.append((u, v))
        top = max(top, u, v)
    if n is None:
        n = top + 1
    elif top >= n:
        raise GraphFormatError(f"edge list mentions vertex {top} but n={n}")
    return Graph(n, edges)


def write_graph(graph: Graph, fmt: str) -> str:
    if fmt == "graph6":
        return to_graph6(graph) + "\n"
    if fmt == "edgelist":
        return to_edgelist(graph)
    raise ParameterError(f"unknown format {fmt!r}")


def read_graph(text: str, fmt: str, n: int | None = None) -> Graph:
    if fmt == "graph6":
        return from_graph6(text)
    if fmt == "edgelist":
        return from_edgelist(text, n=n)
    raise ParameterError(f"unknown format {fmt!r}")
