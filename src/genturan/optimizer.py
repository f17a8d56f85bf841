"""Finite maximization over feasible block profiles for the even case.

A profile (x, y, z) stands for x attached blocks of order 2k-1, y of
order 2k-2 and one of order z (z = 1 meaning no final block), around a
central block with a (k-1)-vertex attachment set.  Feasibility encodes
the matching budget: the central block contributes k (family T1, full
matching) or k-1 (family T2, reduced central block), each attached block
of order c contributes floor((c-1)/2), and the total must stay within s:

    T1: (k-1)x + (k-2)y + floor((z-1)/2) + k     <= s
    T2: (k-1)x + (k-2)y + floor((z-1)/2) + (k-1) <= s

T1 is nonempty iff s >= k; T2 iff s >= k-1.  Both sets are finite for
k >= 3 (at k = 2 the y coefficient vanishes and y would be unbounded, so
those inputs are rejected; the even edge formula covers k = 2 directly).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import comb

from .constructors import BlockStarSpec, HGraphParams, central_block_order
from .errors import ParameterError
from .formulas import g_value

# family -> shrink: its central block is H_{m, 2k - shrink, k-1}, which
# covers k - shrink matching edges, and its offset is discounted by
# shrink * C(k-1, r-2)
_FAMILIES = {"T1": 0, "T2": 1}


@dataclass(frozen=True)
class FeasibleTriple:
    """A feasible block profile with its offset value once evaluated."""

    x: int
    y: int
    z: int
    family: str
    g: int | None = None


def _check_even_domain(k: int, s: int, r: int = 2) -> None:
    """The even case's domain, checked in one order by every entry point
    (ex_even through solve_even, extremal_even_witness, maximize_g,
    enumerate_feasible), so that one fault gets one message: r >= 2,
    k >= 3 (at k = 2 the y count is unbounded), k >= r, s >= k - 1."""
    if r < 2:
        raise ParameterError(f"r must be >= 2, got {r}")
    if k < 3:
        raise ParameterError(f"k must be >= 3, got {k}")
    if k < r:
        raise ParameterError(f"need k >= r, got k={k}, r={r}")
    if s < k - 1:
        raise ParameterError(f"need s >= k-1, got s={s}, k={k}")


def enumerate_feasible(k: int, s: int, family: str) -> list[FeasibleTriple]:
    """All feasible (x, y, z) for the family, in lexicographic order.

    Bounds follow from the budget: x <= budget/(k-1), y <= budget/(k-2)
    and 1 <= z <= 2k-1 where budget = s - central cost.
    """
    _check_even_domain(k, s)
    if family not in _FAMILIES:
        raise ParameterError(
            f"family must be one of {tuple(_FAMILIES)}, got {family!r}"
        )
    budget = s - (k - _FAMILIES[family])
    out: list[FeasibleTriple] = []
    if budget < 0:
        return out
    for x in range(budget // (k - 1) + 1):
        rest_x = budget - (k - 1) * x
        for y in range(rest_x // (k - 2) + 1):
            rest = rest_x - (k - 2) * y
            for z in range(1, 2 * k):
                if (z - 1) // 2 <= rest:
                    out.append(FeasibleTriple(x=x, y=y, z=z, family=family))
    return out


def maximize_g(k: int, r: int, s: int, family: str) -> tuple[int, FeasibleTriple]:
    """Exact maximum of the block-profile offset over the family.

    Ties break to the lexicographically smallest (x, y, z): max keeps the
    first maximum, and enumerate_feasible lists in that order.  An empty
    feasible set (family T1 with s = k-1) is rejected.
    """
    _check_even_domain(k, s, r)
    triples = enumerate_feasible(k, s, family)
    if not triples:
        raise ParameterError(
            f"feasible set {family} is empty for k={k}, s={s}"
        )
    value, best = max(
        ((g_value(t.x, t.y, t.z, k, r), t) for t in triples), key=lambda c: c[0]
    )
    return value, replace(best, g=value)


def solve_even(n: int, k: int, r: int, s: int) -> tuple[int, str, BlockStarSpec]:
    """The even-case maximum on n vertices: (offset, family, witness spec).

    The offset is the larger of the T1 maximum and the T2 maximum less
    C(k-1, r-2); ties between families resolve to T1.  The winning profile
    (x, y, z) becomes x blocks of order 2k-1, y of order 2k-2 and one of
    order z (omitted at z = 1) around a central block H_{m, 2k, k-1}
    (family T1) or H_{m, 2k-1, k-1} (family T2).  Compositions whose
    central block would be too small to reach its designed matching
    number are rejected.
    """
    _check_even_domain(k, s, r)
    candidates = []
    for family, shrink in _FAMILIES.items():  # T1 first: max keeps it on ties
        if s >= k - shrink:  # T1 is empty at s = k-1
            value, triple = maximize_g(k, r, s, family)
            candidates.append((value - shrink * comb(k - 1, r - 2), family, triple))
    offset, family, triple = max(candidates, key=lambda c: c[0])
    central_k = 2 * k - _FAMILIES[family]
    attached = (
        (2 * k - 1,) * triple.x
        + (2 * k - 2,) * triple.y
        + ((triple.z,) if triple.z >= 2 else ())
    )
    profile = (
        f"the winning profile (x={triple.x}, y={triple.y}, z={triple.z}, {family})"
    )
    central_n = central_block_order(n, central_k, attached, profile)
    spec = BlockStarSpec(
        central=HGraphParams(n=central_n, k=central_k, a=k - 1), attached=attached
    )
    return offset, family, spec


def extremal_even_witness(n: int, k: int, r: int, s: int) -> BlockStarSpec:
    """Block-star spec realizing the even-case maximum on n vertices
    (the witness part of solve_even)."""
    return solve_even(n, k, r, s)[2]
