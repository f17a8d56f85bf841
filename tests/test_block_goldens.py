"""Golden block decompositions and star transforms.

For every relabelled extremal witness (conftest.relabeled_witnesses) and
200 seeded random connected graphs with n <= 12, the file
data/block_goldens.json pins three digests: the input graph6, the
decomposition (blocks, cut vertices and representatives in order), and
the graph6 of star_transform(g, b1, u1) for every block b1 and every
vertex u1 of it.  The block order and its tie-breaks are part of the
output contract, so any change to them fails here.

Regenerate the file with `python tests/test_block_goldens.py`, and only
when an output change is intended.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

from genturan import block_decomposition, star_transform, to_graph6

from conftest import random_connected_graph, relabeled_witnesses

GOLDEN_PATH = Path(__file__).parent / "data" / "block_goldens.json"


def _graphs():
    for i, g in enumerate(relabeled_witnesses()):
        yield f"witness-{i}", g
    rng = random.Random(2024)
    for i in range(200):
        n = rng.randrange(1, 13)
        extra = rng.choice((0.0, 0.05, 0.1, 0.2, 0.35))
        yield f"random-{i}", random_connected_graph(rng, n, extra)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _record(g) -> dict[str, str]:
    dec = block_decomposition(g)
    stars = [
        to_graph6(star_transform(g, b1, u1))
        for b1, block in enumerate(dec.blocks)
        for u1 in block
    ]
    return {
        "graph6": _digest(to_graph6(g)),
        "decomposition": _digest(
            repr((dec.blocks, dec.cut_vertices, dec.representatives))
        ),
        "star_transforms": _digest("\n".join(stars)),
    }


def test_block_goldens():
    expected = json.loads(GOLDEN_PATH.read_text())
    actual = {name: _record(g) for name, g in _graphs()}
    assert sorted(actual) == sorted(expected)
    for name in expected:
        assert actual[name] == expected[name], name


if __name__ == "__main__":
    records = {name: _record(g) for name, g in _graphs()}
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(records)} records to {GOLDEN_PATH}", file=sys.stderr)
