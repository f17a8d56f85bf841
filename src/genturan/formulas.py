"""Closed-form extremal clique counts for graphs with no long cycles and
bounded matching number.

All quantities are exact integers (math.comb, arbitrary precision).  The
recurring building block is the graph obtained from a clique K_{k-a} by
attaching n-(k-a) extra vertices to a fixed a-subset of it; its K_b count
is

    f_b(n, k, a) = C(k-a, b) + (n-k+a) * C(a, b-1).

The threshold

    tau(k, r) = min { k0 : k0*C(k, r-1) < C(k0+1, r) }

decides whether attaching large clique blocks beats absorbing their
vertices into the attachment set; it always exceeds k, and the function
x -> C(x+1, r) - x*C(k, r-1) is nondecreasing for x >= tau(k, r).

The extremal value for forbidden cycles of length >= 2k+1 with matching
number <= s is C(k, r-1)*n + h(r, k, s) where h has three regimes driven
by comparing 2k and 2t+1 against tau(k, r) (s = k + q(k-1) + t with
0 <= t <= k-2).  For forbidden cycles of length >= 2k the value is
C(k-1, r-1)*n plus a finite maximization of g(x, y, z) over feasible
block profiles, which specializes at r = 2 to

    (k-1)n - C(k, 2) + (k-1)(q-1) + eps,   eps = [t >= 1],

with q = floor(s/(k-1)) and t = s - q(k-1).

extremal_value is the one dispatch from (parity, k, r, edges-only) to
these formulas, for the command line and the oracle's region probe.  A
formula refuses an n only below its witness's order (WitnessOrderError,
from constructors.central_block_order); other refusals ignore n.

Every value returned here is the exact extremal count only once n is
large enough; asymptotic_warning marks results below the documented
safety threshold (n < 6s), where the exhaustive oracle is the authority.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import TYPE_CHECKING

from .errors import ParameterError

if TYPE_CHECKING:
    from .constructors import BlockStarSpec

_TAU_SCAN_LIMIT = 10**6
_ASYMPTOTIC_SAFETY_FACTOR = 6


def f_value(n: int, k: int, a: int, b: int) -> int:
    """C(k-a, b) + (n-k+a)*C(a, b-1): the K_b count of the graph K_{k-a}
    plus n-(k-a) vertices each joined to the same a clique vertices."""
    check_h_params(n, k, a)
    if b < 1:
        raise ParameterError(f"b must be >= 1, got b={b}")
    return comb(k - a, b) + (n - k + a) * comb(a, b - 1)


def check_h_params(n: int, k: int, a: int) -> None:
    """The domain of H(n, k, a), shared with constructors.HGraphParams."""
    if a < 1:
        raise ParameterError(f"a must be >= 1, got a={a}")
    if 2 * a > k:
        raise ParameterError(f"need 2a <= k, got a={a}, k={k}")
    if n < k - a:
        raise ParameterError(f"need n >= k-a, got n={n}, k-a={k - a}")


def tau(k: int, r: int) -> int:
    """Smallest k0 with k0*C(k, r-1) < C(k0+1, r); upward scan.

    Always > k.  tau(k, 2) = 2k.  Aborts if no k0 <= 10^6 qualifies,
    which only happens for hypothesis-violating inputs.
    """
    if k < 2:
        raise ParameterError(f"k must be >= 2, got {k}")
    if r < 2:
        raise ParameterError(f"r must be >= 2, got {r}")
    base = comb(k, r - 1)
    for k0 in range(1, _TAU_SCAN_LIMIT + 1):
        if k0 * base < comb(k0 + 1, r):
            return k0
    raise ParameterError(f"tau scan exceeded {_TAU_SCAN_LIMIT} for k={k}, r={r}")


@dataclass(frozen=True)
class OddCaseParams:
    """Derived quantities for the odd-threshold value at (k, r, s).

    s = k + q(k-1) + t with 0 <= t <= k-2.  Exactly one case applies:
    Case1 when 2k <= tau(k, r); Case2 when 2t+1 < tau(k, r) <= 2k-1;
    Case3 when 2t+1 >= tau(k, r).
    """

    k: int
    r: int
    s: int
    q: int
    t: int
    A: int
    tau_kr: int
    case: str


def odd_case_params(k: int, r: int, s: int) -> OddCaseParams:
    if k < 2:
        raise ParameterError(f"k must be >= 2, got {k}")
    if r < 2:
        raise ParameterError(f"r must be >= 2, got {r}")
    if r > k + 1:
        raise ParameterError(f"need r <= k+1, got r={r}, k={k}")
    if s < 2 * k + 1:
        raise ParameterError(f"need s >= 2k+1, got s={s}, k={k}")
    q, t = divmod(s - k, k - 1)
    assert 0 <= t <= k - 2
    a_total = k + 1 + q * (2 * k - 1) + (2 * t + 1)
    t_kr = tau(k, r)
    if 2 * k <= t_kr:
        case = "Case1"
    elif 2 * t + 1 < t_kr:
        case = "Case2"
    else:
        case = "Case3"
    return OddCaseParams(k=k, r=r, s=s, q=q, t=t, A=a_total, tau_kr=t_kr, case=case)


def _odd_blocks(k: int, r: int, s: int) -> tuple[OddCaseParams, tuple[int, ...], int]:
    """The case at (k, r, s), the attached clique orders of its witness
    (none in Case1, q of order 2k in Case2, and one more of order 2t+2 in
    Case3) and the offset h they give: C(k+1, r) - (k+1)*C(k, r-1) plus
    C(c, r) - (c-1)*C(k, r-1) for each attached order c."""
    p = odd_case_params(k, r, s)
    blocks = [] if p.case == "Case1" else [(2 * k, p.q)]
    if p.case == "Case3":
        blocks.append((2 * p.t + 2, 1))
    base = comb(k, r - 1)
    h = comb(k + 1, r) - (k + 1) * base + sum(
        count * (comb(c, r) - (c - 1) * base) for c, count in blocks
    )
    return p, tuple(c for c, count in blocks for _ in range(count)), h


def h_value(r: int, k: int, s: int) -> int:
    """The n-free offset of the odd-threshold extremal count (may be
    negative: it offsets the linear term C(k, r-1)*n)."""
    return _odd_blocks(k, r, s)[2]


def g_value(x: int, y: int, z: int, k: int, r: int) -> int:
    """Clique-count offset of a block profile against the even threshold:
    x blocks of order 2k-1, y of order 2k-2, one of order z, around a
    central block whose attachment set has k-1 vertices."""
    if x < 0 or y < 0:
        raise ParameterError(f"x and y must be >= 0, got x={x}, y={y}")
    if not 1 <= z <= 2 * k - 1:
        raise ParameterError(f"need 1 <= z <= 2k-1, got z={z}, k={k}")
    if k < 2:
        raise ParameterError(f"k must be >= 2, got {k}")
    if r < 2:
        raise ParameterError(f"r must be >= 2, got {r}")
    return (
        x * comb(2 * k - 1, r)
        + y * comb(2 * k - 2, r)
        + comb(z, r)
        + comb(k + 1, r)
        - (k + 1 + x * (2 * k - 2) + y * (2 * k - 3) + (z - 1)) * comb(k - 1, r - 1)
    )


@dataclass(frozen=True)
class EvenCaseParams:
    """Derived quantities for the even-threshold edge value at (k, s):
    q = floor(s/(k-1)), t = s - q(k-1), eps = 1 iff t >= 1."""

    k: int
    s: int
    q: int
    t: int
    epsilon: int


def even_case_params(k: int, s: int) -> EvenCaseParams:
    if k < 2:
        raise ParameterError(f"k must be >= 2, got {k}")
    if s < k - 1:
        raise ParameterError(f"need s >= k-1, got s={s}, k={k}")
    q, t = divmod(s, k - 1)
    epsilon = 1 if t >= 1 else 0
    return EvenCaseParams(k=k, s=s, q=q, t=t, epsilon=epsilon)


@dataclass(frozen=True)
class ExtremalValue:
    """A computed extremal count with its achieving construction.

    asymptotic_warning is set when n is below the documented safety
    threshold (n < 6s); there the formula still equals the clique count
    of the witness, but a denser family-free graph may exist and only the
    exhaustive oracle can decide.
    """

    value: int
    regime: str
    witness: "BlockStarSpec"
    asymptotic_warning: bool

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "case": self.regime,
            "witness": self.witness.to_json(),
            "asymptotic_warning": self.asymptotic_warning,
        }


def _warn(n: int, s: int) -> bool:
    return n < _ASYMPTOTIC_SAFETY_FACTOR * s


def ex_odd(n: int, k: int, s: int, r: int) -> ExtremalValue:
    """Extremal K_r count: no cycle of length >= 2k+1 and nu <= s.

    Value is C(k, r-1)*n + h(r, k, s); the witness is a block star with a
    dominated-clique central block and, outside Case1, q clique blocks of
    order 2k (plus one of order 2t+2 in Case3).  Requires n at least the
    witness order (central block large enough for full matching number).
    """
    from .constructors import BlockStarSpec, HGraphParams, central_block_order

    p, attached, h = _odd_blocks(k, r, s)
    central_n = central_block_order(n, 2 * k + 1, attached, p.case)
    spec = BlockStarSpec(
        central=HGraphParams(n=central_n, k=2 * k + 1, a=k), attached=attached
    )
    return ExtremalValue(comb(k, r - 1) * n + h, p.case, spec, _warn(n, s))


def ex_even(n: int, k: int, s: int, r: int) -> ExtremalValue:
    """Extremal K_r count: no cycle of length >= 2k and nu <= s (k >= 3).

    Value is C(k-1, r-1)*n + max of the block-profile offset g over the
    two feasible families (the second discounted by C(k-1, r-2)); the
    witness realizes the winning profile.  The first family is empty
    exactly when s = k-1, in which case only the second competes.
    solve_even checks the domain (r >= 2, k >= 3, k >= r, s >= k-1).
    """
    from .optimizer import solve_even

    offset, family, spec = solve_even(n, k, r, s)
    return ExtremalValue(comb(k - 1, r - 1) * n + offset, family, spec, _warn(n, s))


def ex_even_edges(n: int, k: int, s: int) -> ExtremalValue:
    """Extremal edge count: no cycle of length >= 2k and nu <= s.

    (k-1)n - C(k, 2) + (k-1)(q-1) + eps, with witness St1(n, 2k, q) when
    eps = 0 and St2(n, 2k, q) when eps = 1.
    """
    from .constructors import _st_spec, central_block_order

    p = even_case_params(k, s)
    value = (k - 1) * n - comb(k, 2) + (k - 1) * (p.q - 1) + p.epsilon
    central_k = 2 * k - 1 + p.epsilon
    attached = (2 * k - 1,) * (p.q - 1)
    central_n = central_block_order(n, central_k, attached, f"k={k}, s={s}")
    spec = _st_spec(central_n, k, p.q, central_k)
    return ExtremalValue(value, "St2" if p.epsilon else "St1", spec, _warn(n, s))


def extremal_value(
    parity: str, n: int, k: int, s: int, r: int, edges_only: bool = False
) -> ExtremalValue:
    """The extremal K_r count on n vertices with nu <= s and no cycle of
    length >= 2k+1 (parity "odd") or >= 2k ("even"): ex_odd at odd
    parity; at even parity ex_even_edges if edges_only (which needs r = 2)
    or k = r = 2, else ex_even.  At r = 2, k >= 3 the even formulas agree
    but for the regime label (T1/T2 against St2/St1)."""
    if edges_only and r != 2:
        raise ParameterError(f"--edges-only requires r=2, got r={r}")
    if parity == "odd":
        return ex_odd(n, k, s, r)
    if parity != "even":
        raise ParameterError(f"parity must be 'odd' or 'even', got {parity!r}")
    if edges_only or (k == 2 and r == 2):
        return ex_even_edges(n, k, s)
    return ex_even(n, k, s, r)


def ex_matching_only(n: int, s: int) -> int:
    """Extremal edge count under nu <= s alone:
    max{f_2(n, 2s+1, s), C(2s+1, 2)}.

    The first term is evaluated algebraically as C(s+1, 2) + (n-s-1)*s so
    the max is well-defined for every n >= 1; it describes the true
    extremal value once n >= 2s+1 (below that the complete graph K_n is
    feasible and denser).
    """
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    if s < 1:
        raise ParameterError(f"s must be >= 1, got {s}")
    dominated = comb(s + 1, 2) + (n - s - 1) * s
    return max(dominated, comb(2 * s + 1, 2))


def woodall_bound(n: int, k: int) -> int:
    """Maximum edges of an n-vertex graph with no cycle of length >= k:
    q*C(k-1, 2) + C(p+1, 2) where n = q(k-2) + p + 1, 0 <= p <= k-2."""
    if k < 3:
        raise ParameterError(f"k must be >= 3, got {k}")
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    q, p = divmod(n - 1, k - 2)
    return q * comb(k - 1, 2) + comb(p + 1, 2)
