#!/usr/bin/env python3
"""Where the asymptotic formulas start agreeing with exhaustive truth.

The closed forms are exact only once n is large enough.  At small n the
exhaustive oracle is the authority: it maximizes the clique count over
every family-free graph, grown one vertex at a time once per
isomorphism class within a budget of one-vertex extensions, and reports
canonical extremal witnesses.  A region
probe's first agreement holds within the probed range only.

The classic cautionary instance: forbid cycles of length >= 5 and
matchings of size 6 on 7 vertices.  The formula witness (a dominated
clique) gives 11 edges, but two K_4 blocks sharing a vertex give 12.
"""

from genturan import (
    ForbiddenFamily,
    brute_force_ex,
    build_woodall_G0,
    canonical_graph6,
    ex_matching_only,
    ex_odd,
    verify_formula_region,
    woodall_bound,
)

print("=" * 70)
print("1. The n = 7 counterexample to using the formula too early")
print("=" * 70)
print()
fam = ForbiddenFamily(cycle_min_len=5, matching_bound=5, clique_order=2)
oracle = brute_force_ex(7, fam)
formula = ex_odd(7, 2, 5, 2)
print(f"  oracle max at n=7: {oracle.max_count}")
print(f"  formula value:     {formula.value} "
      f"(asymptotic_warning={formula.asymptotic_warning})")
print(f"  extremal witness:  {oracle.witnesses[0]} "
      f"(= shared-vertex K_4 pair: "
      f"{canonical_graph6(build_woodall_G0(7, 5)) == oracle.witnesses[0]})")
print()

print("=" * 70)
print("2. Region probes: smallest n where oracle and formula agree")
print("=" * 70)
print()
for (k, s, parity) in [(2, 2, "even"), (2, 5, "odd")]:
    report = verify_formula_region(k, s, 2, parity, range(4, 8))
    print(f"  parity={parity}, k={k}, s={s}:")
    for row in report.rows:
        mark = "agree" if row.agrees else "DIFFER"
        warn = " (below threshold)" if row.below_threshold else ""
        print(f"    n={row.n}: oracle={row.oracle_value} "
              f"formula={row.formula_value} {mark}{warn}")
    print(f"    first agreement onward (probed range only): "
          f"{report.first_agreement_n}")
    print()

print("=" * 70)
print("3. Oracle equivalences where exact theory covers all n")
print("=" * 70)
print()
print("matching bound only (n >= 2s+1):")
for s in (1, 2, 3):
    for n in range(2 * s + 1, 8):
        got = brute_force_ex(n, ForbiddenFamily(matching_bound=s)).max_count
        assert got == ex_matching_only(n, s)
        print(f"  n={n} s={s}: {got}", end="")
    print()
print()
print("cycle bound only (every n):")
for k in (4, 5):
    for n in range(3, 8):
        got = brute_force_ex(n, ForbiddenFamily(cycle_min_len=k)).max_count
        assert got == woodall_bound(n, k)
    print(f"  k={k}: oracle == block bound for all n <= 7")
