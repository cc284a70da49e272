"""Which sphere bundles carry prescribed invariants, exactly.

Given an order r and a target triple (s1, s2, s3), the solver decides
for which a the bundle S_{a,a-r} carries exactly those invariants.  The
answer is a finite set of residue classes mod 168r, computed through
integer E-values and a square-root search that needs no factorization:
an admissible root s of r + e1 modulo 224r must satisfy s = 1 - e2
(mod 8r), and 224r = 28 · 8r, so the solver tests just those 28 lifts —
every step exact.  A brute-force scan of every s in [0, 224r), filtered
mod 8r, gives the same roots.

Run:  python3 demos/03_residue_solver.py
"""

from fractions import Fraction

from kreckstolz import (
    EdiffeoProblem,
    Orientation,
    ediffeo_solve,
    load_fixtures,
    profile_sphere,
)
from kreckstolz.errors import CongruenceFailure, DivisibilityFailure, ParityFailure

# ---------------------------------------------------------------------------
# The order-3 walkthrough: the invariants of W_{1,1}.
# ---------------------------------------------------------------------------

problem = EdiffeoProblem(3, Fraction(1, 112), Fraction(-1, 36), Fraction(1, 18))
print("order 3, s = (1/112, -1/36, 1/18)")
print(f"  integer E-values: ({problem.e1}, {problem.e2}, {problem.e3})")

modulus = 224 * problem.r
roots = tuple(s for s in range(modulus) if (s * s - problem.r - problem.e1) % modulus == 0)
print(f"  square roots of {problem.r + problem.e1} mod {modulus}, by scanning all {modulus}: {roots}")

solution = ediffeo_solve(problem, Orientation.PRESERVING)
filtered = tuple(s for s in roots if (s + problem.e2 - 1) % (8 * problem.r) == 0)
print(f"  roots passing the mod-8r filter: {filtered}")
print(f"  the solver's admissible roots:   {solution.admissible_roots}"
      f" (same: {filtered == solution.admissible_roots})")
print(f"  canonical witnesses:             {solution.witness_roots}")
print(f"  solved residues: {', '.join(str(c) for c in solution.residues)}")

# Round trip: both classes really do carry the prescribed invariants.
for cls in solution.residues:
    p = profile_sphere(cls.value, cls.value - 3)
    print(f"  check a = {cls.value}: s = ({p.s1}, {p.s2}, {p.s3})")
print()

# ---------------------------------------------------------------------------
# A catalog space of large order.  The solve succeeds in exactly one
# orientation; the other fails a divisibility condition, which is itself
# informative (the linking forms rule that orientation out).
# ---------------------------------------------------------------------------

fixtures = load_fixtures()
big = next(f for f in fixtures if f.space.k == (56, 103, -159))
problem = EdiffeoProblem(19513, big.s1, big.s2, big.s3)
print("order 19513 catalog entry (k = (56,103,-159))")
for orientation in Orientation:
    try:
        solution = ediffeo_solve(problem, orientation)
    except (DivisibilityFailure, ParityFailure, CongruenceFailure) as exc:
        print(f"  {orientation.value}: no solution ({type(exc).__name__})")
        continue
    print(f"  {orientation.value}: {', '.join(str(c) for c in solution.residues)}")
print()
print("Note: the reversing solve returns TWO classes; both round-trip to")
print("identical invariants, so the pair of bundles is itself diffeomorphic.")
