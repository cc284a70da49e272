"""Invariant profiles of the four bundle families.

Families and parameter conventions:

* sphere: the 3-sphere bundle over the complex projective plane with
  parameters (a, b); non-spin, |H^4| = |a - b|.
* spin-sphere: its spin companion, also parametrized by (a, b) with
  |H^4| = |a - b|.
* circle: the circle bundle with Euler class t over the non-spin
  2-sphere bundle with coprime parameters (a, b); |H^4| =
  |t(a+b)^2 - ab|.
* spin-circle: the circle bundle with Euler class t over the spin
  2-sphere bundle with coprime parameters (a, b); |H^4| = |a^2 - t b^2|;
  spin exactly when b is odd.

The circle families need an auxiliary pair (m, n) with am - bn = 1
(respectively am + bn = 1, m odd whenever b is odd); every profile is
independent of the admissible choice, which choose_mn makes
deterministically.

All characteristic numbers are computed over a single cleared
denominator; the term-by-term rational evaluation lives in the test
suite as an independent oracle.  The s-values of the two families that
the search sources list are also public as integer pairs (sphere_s1,
sphere_s23, circle_s1, circle_s23), which their profile constructors
call, so each formula has one copy.  The rest of those two profiles
(p1, linking class, pi4) is built by sphere_profile_with and
circle_profile_with from s-values given mod 1, which the search reads
from its integer keys instead of computing them again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional

from .errors import DegenerateOrder, DomainError, NotCoprime
from .exact_arith import ResidueClass, check_input_digits, ratio_mod_one
from .profiles import CohomologyType, InvariantProfile, Pi4, STriple

__all__ = [
    "BundleSpec",
    "Family",
    "MnPair",
    "choose_mn",
    "circle_s1",
    "circle_s23",
    "describe_bundle_spec",
    "natural_partner",
    "parse_bundle_spec",
    "profile",
    "profile_circle",
    "profile_sphere",
    "profile_spin_circle",
    "profile_spin_sphere",
    "sphere_s1",
    "sphere_s23",
]


class Family(Enum):
    """The four bundle families."""

    SPHERE = "sphere"
    SPIN_SPHERE = "spin-sphere"
    CIRCLE = "circle"
    SPIN_CIRCLE = "spin-circle"


_CIRCLE_FAMILIES = (Family.CIRCLE, Family.SPIN_CIRCLE)


class MnPair(NamedTuple):
    m: int
    n: int


@dataclass(frozen=True)
class BundleSpec:
    """Parameters naming one member of one family."""

    family: Family
    a: int
    b: int
    t: Optional[int] = None

    def __post_init__(self) -> None:
        if not isinstance(self.family, Family):
            raise DomainError(f"unknown family {self.family!r}")
        for name in ("a", "b"):
            if not isinstance(getattr(self, name), int):
                raise DomainError(f"parameter {name} must be an integer")
        if self.family in _CIRCLE_FAMILIES:
            if not isinstance(self.t, int):
                raise DomainError(f"family {self.family.value} requires the Euler parameter t")
        elif self.t is not None:
            raise DomainError(f"family {self.family.value} takes no Euler parameter")


def describe_bundle(family: Family, a: int, b: int, t: Optional[int] = None) -> str:
    """Compact text form of a family member, 'family:a,b' or, with t, 'family:t,a,b'."""
    if t is None:
        return f"{family.value}:{a},{b}"
    return f"{family.value}:{t},{a},{b}"


def describe_bundle_spec(spec: BundleSpec) -> str:
    """Compact text form, inverse of parse_bundle_spec."""
    return describe_bundle(spec.family, spec.a, spec.b, spec.t)


def parse_bundle_spec(text: str) -> BundleSpec:
    """Parse 'sphere:a,b', 'spin-sphere:a,b', 'circle:t,a,b', 'spin-circle:t,a,b'."""
    name, _, rest = text.partition(":")
    try:
        family = Family(name.strip())
    except ValueError:
        raise DomainError(f"unknown family {name!r}") from None
    try:
        values = [int(v.strip()) for v in rest.split(",")]
    except ValueError:
        raise DomainError(f"parameters of {text!r} must be integers") from None
    check_input_digits(*values)
    expected = 3 if family in _CIRCLE_FAMILIES else 2
    if len(values) != expected:
        raise DomainError(f"family {family.value} takes {expected} parameters, got {len(values)}")
    if family in _CIRCLE_FAMILIES:
        return BundleSpec(family, values[1], values[2], t=values[0])
    return BundleSpec(family, values[0], values[1])


def _bezout(x: int, y: int) -> tuple[int, int, int]:
    """(g, u, v) with u*x + v*y = g = gcd(x, y) >= 0."""
    old_r, r = x, y
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    if old_r < 0:
        old_r, old_u, old_v = -old_r, -old_u, -old_v
    return old_r, old_u, old_v


def choose_mn(spec: BundleSpec) -> MnPair:
    """A deterministic admissible (m, n) for a circle-family spec.

    circle: am - bn = 1. spin-circle: am + bn = 1 with m odd whenever b
    is odd (one parity correction (m, n) -> (m + b, n - a) suffices; for
    even b the relation already forces m odd).
    """
    if spec.family not in _CIRCLE_FAMILIES:
        raise DomainError(f"(m, n) only exists for circle families, not {spec.family.value}")
    return mn_pair(spec.family, spec.a, spec.b)


def mn_pair(family: Family, a: int, b: int) -> MnPair:
    """choose_mn's pair for a circle family and integers (a, b), with no BundleSpec to build."""
    g, u, v = _bezout(a, b)
    if g != 1:
        raise NotCoprime(f"parameters ({a}, {b}) must be coprime")
    if family is Family.CIRCLE:
        return MnPair(u, -v)
    m, n = u, v
    if b % 2 == 1 and m % 2 == 0:
        m, n = m + b, n - a
    return MnPair(m, n)


def _pi4_sphere(r: int) -> Pi4:
    return Pi4.Z2 if r % 2 == 0 else Pi4.UNKNOWN


def _lk_set(value: int, r: int) -> Optional[frozenset[ResidueClass]]:
    return None if r == 1 else frozenset({ResidueClass(value % r, r)})


def _sphere_order(a: int, b: int) -> int:
    """a - b, the signed order of H^4 of both sphere families; never 0."""
    d = a - b
    if d == 0:
        raise DegenerateOrder(f"parameters ({a}, {b}) give |H^4| = 0")
    return d


def sphere_s1(a: int, b: int) -> tuple[int, int]:
    """s1 of the non-spin 3-sphere bundle (a, b) as a cleared pair (numerator, denominator)."""
    d = _sphere_order(a, b)
    return (a + b + 2) ** 2 - abs(d), 224 * d


def sphere_s23(a: int, b: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """s2 and s3 of the non-spin 3-sphere bundle (a, b) as cleared pairs."""
    d = _sphere_order(a, b)
    return (-(a + b + 1), 24 * d), (-(a + b - 2), 6 * d)


def profile_sphere(a: int, b: int) -> InvariantProfile:
    """Invariant profile of the non-spin 3-sphere bundle with parameters (a, b)."""
    s1 = ratio_mod_one(*sphere_s1(a, b))
    s2, s3 = sphere_s23(a, b)
    return sphere_profile_with(a, b, (s1, ratio_mod_one(*s2), ratio_mod_one(*s3)))


def sphere_profile_with(a: int, b: int, s_triple: STriple) -> InvariantProfile:
    """The profile of the non-spin 3-sphere bundle (a, b), given its s-values mod 1.

    `s_triple` must be the s-triple of sphere_s1 and sphere_s23, reduced
    mod 1; it is not checked here.
    """
    d = _sphere_order(a, b)
    r = abs(d)
    p1 = ResidueClass((2 * a + 2 * b + 4) % r, r)
    return InvariantProfile(CohomologyType.E, r, *s_triple, p1, _lk_set(1 if d > 0 else -1, r), _pi4_sphere(r))


def profile_spin_sphere(a: int, b: int) -> InvariantProfile:
    """Invariant profile of the spin 3-sphere bundle with parameters (a, b)."""
    d = _sphere_order(a, b)
    r = abs(d)
    sgn = 1 if d > 0 else -1
    s1_num = 3 * (2 * a + 2 * b + 3) ** 2 - 7 * (4 * a + 4 * b + 5) - 12 * r
    return InvariantProfile(
        cohomology_type=CohomologyType.EBAR,
        r=r,
        s1=ratio_mod_one(s1_num, 2688 * d),
        s2=ratio_mod_one(-(a + b - 1), 12 * d),
        s3=ratio_mod_one(-(a + b - 5), 4 * d),
        p1=ResidueClass((2 * a + 2 * b + 3) % r, r),
        lk=_lk_set(sgn, r),
        pi4=Pi4.UNKNOWN,
    )


def _checked_mn(family: Family, a: int, b: int, mn: Optional[tuple[int, int]]) -> MnPair:
    """choose_mn's pair for a coprime (a, b), or the given pair once validated."""
    if mn is None:
        return mn_pair(family, a, b)
    if math.gcd(a, b) != 1:
        raise NotCoprime(f"parameters ({a}, {b}) must be coprime")
    m, n = mn
    sign = -1 if family is Family.CIRCLE else 1
    if a * m + sign * b * n != 1:
        raise DomainError(f"(m, n) = {mn} does not satisfy am {'-' if sign < 0 else '+'} bn = 1")
    if family is Family.SPIN_CIRCLE and b % 2 == 1 and m % 2 == 0:
        raise DomainError(f"(m, n) = {mn} needs odd m when b is odd")
    return MnPair(m, n)


def _circle_order(t: int, a: int, b: int) -> int:
    """s = t(a+b)^2 - ab, the signed order of H^4 of the circle bundle (t, a, b); never 0."""
    s = t * (a + b) ** 2 - a * b
    if s == 0:
        raise DegenerateOrder(f"parameters (t={t}, {a}, {b}) give |H^4| = 0")
    return s


def circle_s1(t: int, a: int, b: int) -> tuple[int, int]:
    """s1 of the circle bundle (t, a, b) as a cleared pair (numerator, 672 s).

    Here s = t(a+b)^2 - ab, so |H^4| = |s|.  Unlike s2 and s3, s1 needs
    neither the auxiliary pair (m, n) nor coprimality of (a, b).
    """
    s = _circle_order(t, a, b)
    if s > 0:
        sw = 0
    else:
        border = b + (1 - t) * (a + b)
        if border == 0:
            raise AssertionError("impossible: s < 0 forces a nonzero border term")
        sw = 2 if border > 0 else -2
    A = a + b
    x = 3 * a * b + (t - 1) * (8 + A * A)
    return -3 * s * sw - 12 * A * (t - 1) ** 2 + A * x * s, 672 * s


def circle_s23(t: int, a: int, b: int, m: int, n: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """s2 and s3 of the circle bundle (t, a, b) as cleared pairs over 24 s and 6 s.

    (m, n) is an auxiliary pair with am - bn = 1; the values modulo 1 do
    not depend on which one.  The pair is not checked here.
    """
    s = _circle_order(t, a, b)
    A, M = a + b, m + n
    brace1 = (
        (t - 1) * M * (2 - A * M - 2 * M * M)
        - a * m * (m + 2 * n)
        - b * n * (n + 2 * m)
        - 6 * m * n * M
    )
    brace2 = (
        (t * t - 1) * A * M * M * (2 - M * M)
        + (t - 1)
        * (
            m**4 * (3 * a + b)
            + n**4 * (a + 3 * b)
            - 2 * A * M * M
            + 2 * (a * m * m + b * n * n) * (2 * n * m - 1)
        )
        + a * m**4
        + b * n**4
        - 6 * m * m * n * n * A
        - 4 * m * n * (a * n * n + b * m * m)
    )
    brace1p = (
        (t - 1) * M * (1 - A * M - 4 * M * M)
        - a * m * (m + 2 * n)
        - b * n * (n + 2 * m)
    )
    brace2p = (
        (t * t - 1) * A * M * M * (1 - 2 * M * M)
        + (t - 1)
        * (
            2 * m**4 * (3 * a + b)
            + 2 * n**4 * (a + 3 * b)
            - A * M * M
            + (a * m * m + b * n * n) * (8 * n * m - 1)
        )
        + 2 * a * m**4
        + 2 * b * n**4
        - 12 * m * m * n * n * A
        - 8 * m * n * (a * n * n + b * m * m)
    )
    return (brace1 * s + brace2, 24 * s), (brace1p * s + 2 * brace2p, 6 * s)


def profile_circle(t: int, a: int, b: int, mn: Optional[tuple[int, int]] = None) -> InvariantProfile:
    """Invariant profile of the circle bundle over the non-spin 2-sphere bundle.

    The optional mn pins the auxiliary pair with am - bn = 1; the result
    does not depend on the admissible choice.
    """
    m, n = _checked_mn(Family.CIRCLE, a, b, mn)
    s1 = ratio_mod_one(*circle_s1(t, a, b))
    s2, s3 = circle_s23(t, a, b, m, n)
    return circle_profile_with(t, a, b, m, n, (s1, ratio_mod_one(*s2), ratio_mod_one(*s3)))


def circle_profile_with(t: int, a: int, b: int, m: int, n: int, s_triple: STriple) -> InvariantProfile:
    """The profile of the circle bundle (t, a, b), given (m, n) and its s-values mod 1.

    (m, n) must satisfy am - bn = 1 and `s_triple` must be the s-triple
    of circle_s1 and circle_s23, reduced mod 1; neither is checked here.
    """
    s = _circle_order(t, a, b)
    r = abs(s)
    sgn = 1 if s > 0 else -1
    A, M = a + b, m + n
    lk_bracket = (
        -(t * t) * A * M**4
        + t * (m**4 * (3 * a + b) + n**4 * (a + 3 * b) + 4 * n * m * (a * m * m + b * n * n))
        - a * m**4
        - b * n**4
    )
    if t % 2 == 0:
        pi4 = Pi4.Z2
    elif t in (1, -1):
        pi4 = Pi4.ZERO
    else:
        pi4 = Pi4.UNKNOWN
    p1 = ResidueClass((4 * (1 - t) * A * A) % r, r)
    return InvariantProfile(CohomologyType.E, r, *s_triple, p1, _lk_set(sgn * lk_bracket, r), pi4)


def profile_spin_circle(t: int, a: int, b: int, mn: Optional[tuple[int, int]] = None) -> InvariantProfile:
    """Invariant profile of the circle bundle over the spin 2-sphere bundle.

    Spin (type Ebar) exactly when b is odd. The optional mn pins the
    auxiliary pair with am + bn = 1 (m odd whenever b is odd).
    """
    m, n = _checked_mn(Family.SPIN_CIRCLE, a, b, mn)
    s = a * a - t * b * b
    if s == 0:
        raise DegenerateOrder(f"parameters (t={t}, {a}, {b}) give |H^4| = 0")
    r = abs(s)
    sgn = 1 if s > 0 else -1
    if s > 0:
        sw = 0
    else:
        border = b * (t + 1)
        if border == 0:
            raise AssertionError("impossible: s < 0 forces b(t+1) nonzero")
        sw = 2 if border > 0 else -2
    q = n * n + t * m * m
    g = b * q - 2 * a * n * m
    alpha = a * q + 2 * t * b * n * m
    beta = b * q + 2 * a * n * m
    body = b * (6 + 8 * t + 3 * a * a + b * b * t)
    square = b * (3 + 4 * t) ** 2
    if b % 2 == 0:
        ctype = CohomologyType.E
        s1 = ratio_mod_one(-4 * s * sw + body * s - square, 896 * s)
        s2 = ratio_mod_one(-g * s - (4 * n * m * alpha - (3 + 4 * t - 2 * q) * beta), 48 * s)
        s3 = ratio_mod_one(-g * s - (16 * n * m * alpha - (3 + 4 * t - 8 * q) * beta), 12 * s)
    else:
        ctype = CohomologyType.EBAR
        s1 = ratio_mod_one(
            -12 * s * sw
            + 3 * body * s
            - 3 * square
            - 14 * g * s
            + 7 * (-2 * n * m * alpha + (6 + 8 * t - q) * beta),
            2688 * s,
        )
        s2 = ratio_mod_one(-g * s - (10 * n * m * alpha - (3 + 4 * t - 5 * q) * beta), 24 * s)
        s3 = ratio_mod_one(-g * s - (26 * n * m * alpha - (3 + 4 * t - 13 * q) * beta), 8 * s)
    lk_bracket = (
        b * n**4
        + 6 * b * t * n * n * m * m
        + 4 * a * t * n * m**3
        + 4 * a * n**3 * m
        + b * t * t * m**4
    )
    return InvariantProfile(
        cohomology_type=ctype,
        r=r,
        s1=s1,
        s2=s2,
        s3=s3,
        p1=ResidueClass(((3 + 4 * t) * b * b) % r, r),
        lk=_lk_set(-sgn * lk_bracket, r),
        pi4=Pi4.Z2 if t == 0 else Pi4.UNKNOWN,
    )


def profile(spec: BundleSpec, mn: Optional[tuple[int, int]] = None) -> InvariantProfile:
    """Invariant profile of any bundle spec."""
    if spec.family is Family.SPHERE:
        return profile_sphere(spec.a, spec.b)
    if spec.family is Family.SPIN_SPHERE:
        return profile_spin_sphere(spec.a, spec.b)
    if spec.family is Family.CIRCLE:
        return profile_circle(spec.t, spec.a, spec.b, mn=mn)
    return profile_spin_circle(spec.t, spec.a, spec.b, mn=mn)


def natural_partner(spec: BundleSpec) -> Optional[BundleSpec]:
    """The sphere-bundle spec a circle-bundle spec is naturally identified with.

    circle with a + b = 1: same space as sphere(-t, a(a-1)), orientation
    preserving. spin-circle with b = 1: same space as spin-sphere(t, a^2),
    orientation preserving. Anything else: None.
    """
    if spec.family is Family.CIRCLE and spec.a + spec.b == 1:
        return BundleSpec(Family.SPHERE, -spec.t, spec.a * (spec.a - 1))
    if spec.family is Family.SPIN_CIRCLE and spec.b == 1:
        return BundleSpec(Family.SPIN_SPHERE, spec.t, spec.a * spec.a)
    return None
