"""Forbidden families {C_{>=k}, M_{s+1}} and the freeness check."""

from __future__ import annotations

from dataclasses import dataclass

from .cycles import find_cycle_geq
from .errors import ParameterError
from .graphs import Graph
from .matching import maximum_matching_edges


@dataclass(frozen=True)
class ForbiddenFamily:
    """What a graph must avoid, plus which clique is being counted.

    cycle_min_len forbids every cycle of length >= its value (None: no
    cycle constraint).  matching_bound s forbids any matching of size
    s + 1, i.e. requires nu(G) <= s (None: no matching constraint).
    clique_order r names the counted pattern K_r.
    """

    cycle_min_len: int | None = None
    matching_bound: int | None = None
    clique_order: int = 2

    def __post_init__(self) -> None:
        if self.cycle_min_len is not None and self.cycle_min_len < 3:
            raise ParameterError(
                f"cycle_min_len must be >= 3, got {self.cycle_min_len}"
            )
        if self.matching_bound is not None and self.matching_bound < 0:
            raise ParameterError(
                f"matching_bound must be >= 0, got {self.matching_bound}"
            )
        if self.clique_order < 2:
            raise ParameterError(f"clique_order must be >= 2, got {self.clique_order}")

    def describe(self) -> str:
        parts = []
        if self.cycle_min_len is not None:
            parts.append(f"no cycle of length >= {self.cycle_min_len}")
        if self.matching_bound is not None:
            parts.append(f"matching number <= {self.matching_bound}")
        constraint = " and ".join(parts) if parts else "unconstrained"
        return f"{constraint}; counting K_{self.clique_order}"

    def to_json(self) -> dict:
        return {
            "cycle_min_len": self.cycle_min_len,
            "matching_bound": self.matching_bound,
            "clique_order": self.clique_order,
        }


@dataclass(frozen=True)
class FamilyCheckReport:
    """Outcome of a freeness check, with a violation witness when false.

    Truthiness equals is_free.  `cycle` is a vertex sequence of a cycle of
    length >= cycle_min_len; `matching` is a matching of size
    matching_bound + 1.
    """

    is_free: bool
    violated: str | None = None
    cycle: tuple[int, ...] | None = None
    matching: tuple[tuple[int, int], ...] | None = None

    def __bool__(self) -> bool:
        return self.is_free


def is_family_free(graph: Graph, family: ForbiddenFamily) -> FamilyCheckReport:
    """Check both constraints, reporting the first violation found."""
    if family.cycle_min_len is not None:
        cycle = find_cycle_geq(graph, family.cycle_min_len)
        if cycle is not None:
            return FamilyCheckReport(False, violated="cycle", cycle=tuple(cycle))
    if family.matching_bound is not None:
        edges = maximum_matching_edges(graph)
        if len(edges) > family.matching_bound:
            witness = tuple(edges[: family.matching_bound + 1])
            return FamilyCheckReport(False, violated="matching", matching=witness)
    return FamilyCheckReport(True)
