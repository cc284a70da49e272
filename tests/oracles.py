"""Test-only oracles: reference decisions the library does not ship.

The library decides diffeomorphism and homeomorphism from the Kreck–Stolz
invariants (s1, s2, s3) alone (`ks_diffeomorphic`, `ks_homeomorphic`).
The substitution tests below replace s3 by the linking class; within one
bundle construction they must agree with the full tests, which makes them
a cross-check of the profile constructors.  Pytest does not collect this
module (its name does not match `test_*.py`); tests import it by name.
It uses only public library names.
"""

from __future__ import annotations

from typing import Callable, Optional

from kreckstolz.classification import Orientation
from kreckstolz.errors import DomainError
from kreckstolz.exact_arith import mod_one, require_instance
from kreckstolz.profiles import CohomologyType, InvariantProfile, lk_compatible, reversed_profile


def _decide(
    p: InvariantProfile,
    q: InvariantProfile,
    project: Callable[[InvariantProfile], tuple],
) -> Optional[Orientation]:
    """Compare projected invariants and linking classes in both orientations.

    An identification needs equal cohomology type and order.  Preserving
    is tried first and wins when both hold; the reversal of q is built
    only when the preserving comparison fails.  The linking classes are
    compared up to the sign ambiguity a candidate set carries.
    """
    if p.cohomology_type is not q.cohomology_type or p.r != q.r:
        return None
    target = project(p)
    if target == project(q) and lk_compatible(p.lk, q.lk):
        return Orientation.PRESERVING
    q = reversed_profile(q)
    if target == project(q) and lk_compatible(p.lk, q.lk):
        return Orientation.REVERSING
    return None


# ---------------------------------------------------------------------------
# The linking-form substitution (s3 replaced by the linking class).
# ---------------------------------------------------------------------------


def _require_substitution_applies(p: InvariantProfile, q: InvariantProfile) -> None:
    require_instance(p, InvariantProfile, "p")
    require_instance(q, InvariantProfile, "q")
    for x in (p, q):
        if x.cohomology_type is CohomologyType.E and x.r % 2 == 0:
            raise DomainError(
                "replacing s3 by the linking class requires type Ebar or odd order"
            )


def lk_diffeomorphic(
    p: InvariantProfile, q: InvariantProfile
) -> Optional[Orientation]:
    """Diffeomorphism test by (s1, s2, lk), substituting the linking class
    for s3.

    Defined for type-Ebar (not spin) profiles of any order and type-E
    (spin) profiles of odd order.  This is a consistency companion to
    ks_diffeomorphic, never the primary decision path: the substituted
    data determines s3 within each bundle construction but is strictly
    coarser across constructions (see lk_homeomorphic).
    """
    _require_substitution_applies(p, q)
    return _decide(p, q, lambda pr: (pr.s1, pr.s2))


def lk_homeomorphic(
    p: InvariantProfile, q: InvariantProfile, use_p1: bool = False
) -> Optional[Orientation]:
    """Homeomorphism test by (28·s1, s2, lk), or by (p1, s2, lk).

    The p1 variant is available only for type-E (spin) profiles of odd
    order.  Caveat: pairs of spaces from different constructions can share
    (28·s1, s2, p1, lk) while their s3 differ by exactly 1/2, so a match
    here is weaker than ks_homeomorphic; within a single sphere-bundle
    family the two tests agree.
    """
    _require_substitution_applies(p, q)
    if require_instance(use_p1, bool, "use_p1"):
        for x in (p, q):
            if x.cohomology_type is not CohomologyType.E:
                raise DomainError("the p1 substitution applies only to type E")
        if p.r == q.r and p.p1 != q.p1:
            return None
        return _decide(p, q, lambda pr: (pr.s2,))
    return _decide(p, q, lambda pr: (mod_one(28 * pr.s1), pr.s2))
