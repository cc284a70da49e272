"""The invariant profile shared by every family of spaces.

A profile carries everything the classification theorems consume: the
cohomology type (spin or not), the order r of H^4, the three
characteristic numbers s1, s2, s3 in Q/Z, the first Pontryagin class
p1 mod r, the linking-form class(es) mod r, and what is known about pi4.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .errors import DomainError
from .exact_arith import ModOneValue, ResidueClass, ratio_mod_one, require_instance

__all__ = [
    "CohomologyType",
    "InvariantProfile",
    "Pi4",
    "lk_compatible",
    "pi4_compatible",
    "reversed_profile",
]


# The three characteristic numbers (s1, s2, s3) of a space, each in Q/Z.
STriple = tuple[ModOneValue, ModOneValue, ModOneValue]


class CohomologyType(Enum):
    """Cohomology type of the manifold: E (spin) or Ebar (not spin)."""

    E = "E"
    EBAR = "Ebar"

    # Members are singletons that compare by identity, so the identity hash
    # agrees with equality and skips Enum.__hash__, a call in Python that
    # every search key holding a type would pay.
    __hash__ = object.__hash__


class Pi4(Enum):
    """Known value of pi4: proven trivial, proven Z/2, or open."""

    ZERO = "0"
    Z2 = "Z2"
    UNKNOWN = "unknown"

    # Members are singletons that compare by identity, so the identity hash
    # agrees with equality and skips Enum.__hash__, a call in Python that
    # every match entry group holding a pi4 value would pay.
    __hash__ = object.__hash__


@dataclass(frozen=True)
class InvariantProfile:
    """The full classifying data of one oriented space."""

    cohomology_type: CohomologyType
    r: int
    s1: ModOneValue
    s2: ModOneValue
    s3: ModOneValue
    p1: ResidueClass
    lk: Optional[frozenset[ResidueClass]]
    pi4: Pi4

    def __post_init__(self) -> None:
        if self.r < 1:
            raise DomainError(f"|H^4| must be positive, got {self.r}")
        for s in (self.s1, self.s2, self.s3):
            if not 0 <= s.numerator < s.denominator:
                raise DomainError(f"s-value {s} not reduced modulo 1")
        if self.p1.modulus != self.r:
            raise DomainError("p1 must be a residue modulo r")
        if self.lk is not None:
            if not self.lk or any(c.modulus != self.r for c in self.lk):
                raise DomainError("linking classes must be nonempty residues modulo r")

    @property
    def s_triple(self) -> STriple:
        return (self.s1, self.s2, self.s3)


def reversed_profile(profile: InvariantProfile) -> InvariantProfile:
    """The profile of the same space with reversed orientation.

    The s-values and the linking classes change sign; the cohomology
    type, r, p1 mod r and pi4 are orientation independent.
    """
    require_instance(profile, InvariantProfile, "profile")
    return InvariantProfile(
        profile.cohomology_type,
        profile.r,
        *map(_negated, profile.s_triple),
        profile.p1,
        negated_lk(profile.lk, profile.r),
        profile.pi4,
    )


def negated_lk(lk: Optional[frozenset[ResidueClass]], r: int) -> Optional[frozenset[ResidueClass]]:
    """The linking classes of the orientation reversal: each class negated modulo r."""
    if lk is None:
        return None
    return frozenset(ResidueClass((-c.value) % r, r) for c in lk)


def pi4_conflict(pi4: Pi4) -> Optional[Pi4]:
    """The pi4 value that contradicts this one: the other proven value, or None when pi4 is open."""
    if pi4 is Pi4.ZERO:
        return Pi4.Z2
    if pi4 is Pi4.Z2:
        return Pi4.ZERO
    return None


def pi4_compatible(a: Pi4, b: Pi4) -> bool:
    """False exactly when one side is proven 0 and the other proven Z/2."""
    return b is not pi4_conflict(a)


def lk_compatible(a: Optional[frozenset[ResidueClass]], b: Optional[frozenset[ResidueClass]]) -> bool:
    """Whether two linking-class sets can describe the same space.

    Each side lists the candidate classes for its space (a single class
    when known exactly, a sign-ambiguous pair for Eschenburg spaces);
    compatibility means the candidate sets intersect.
    """
    if a is None or b is None:
        return a is None and b is None
    return bool(a & b)


def _negated(s: ModOneValue) -> ModOneValue:
    """-s modulo 1: (-n) % d over the same denominator d > 0."""
    return ratio_mod_one(-s.numerator, s.denominator)
