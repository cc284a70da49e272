"""Invariant profiles across the five families.

Every space handled by the library is summarized by the same record: its
cohomology type (spin "E" or non-spin "Ebar"), the order r of H^4, the
three classifying rationals s1, s2, s3 modulo 1, the first Pontryagin
class modulo r, the linking class(es), and what is known about pi4.
This script computes one profile per family and prints it.

Run:  python3 demos/01_invariant_profiles.py
"""

from kreckstolz import (
    fixture_profile,
    load_fixtures,
    profile_circle,
    profile_sphere,
    profile_spin_circle,
    profile_spin_sphere,
)


def show(title, prof):
    print(f"{title}")
    print(f"  type {prof.cohomology_type.value}, r = {prof.r}")
    print(f"  s = ({prof.s1}, {prof.s2}, {prof.s3})")
    lk = "trivial" if prof.lk is None else ", ".join(str(c) for c in sorted(prof.lk, key=lambda c: c.value))
    print(f"  p1 = {prof.p1},  lk = {lk},  pi4 = {prof.pi4.value}")
    print()


# A non-spin 3-sphere bundle over CP^2.  S_{2,-1} is the smallest
# interesting example: order 3, and (as demo 02 shows) diffeomorphic to
# the homogeneous space with the same order-3 invariants.
show("sphere bundle S_{2,-1}", profile_sphere(2, -1))

# Its spin sibling: same base, total space not spin (type Ebar).
show("spin sphere bundle Sbar_{0,1}", profile_spin_sphere(0, 1))

# A circle bundle over a 2-sphere bundle over CP^2.  t = 1 identifies
# these with the homogeneous Aloff-Wallach family; gcd(a, b) = 1 is
# required, and r = |t(a+b)^2 - ab|.
show("circle bundle M^1_{1,1} (Aloff-Wallach W_{1,1})", profile_circle(1, 1, 1))

# The spin circle family: r = |a^2 - t b^2|; the type depends on the
# parity of b (non-spin for odd b, spin for even b).
show("spin circle bundle Mbar^0_{3,2}", profile_spin_circle(0, 3, 2))

# A parameter-space entry.  The s-values of these biquotients are not
# computed by a closed form in this library; they ship as a catalog of
# fixtures, keyed by the two weight triples.
fixtures = load_fixtures()
w11 = next(f for f in fixtures if f.space.k == (1, 1, -2))
show("catalog space with k = (1,1,-2), l = (0,0,0)", fixture_profile(w11))

# The order-3 bundle and the order-3 catalog space above carry the same
# invariants: demo 02 turns this observation into verdicts.
