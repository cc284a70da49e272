"""Invariant profiles of the four bundle families.

Families and parameter conventions:

* sphere: the non-spin 3-sphere bundle over the complex projective
  plane with parameters (a, b); |H^4| = |a - b|; spin total space (type E).
* spin-sphere: its spin companion, also parametrized by (a, b), with
  |H^4| = |a - b|; total space not spin (type Ebar).
* circle: the circle bundle with Euler class t over the non-spin
  2-sphere bundle with coprime parameters (a, b); |H^4| =
  |t(a+b)^2 - ab|; spin total space (type E).
* spin-circle: the circle bundle with Euler class t over the spin
  2-sphere bundle with coprime parameters (a, b); |H^4| = |a^2 - t b^2|;
  the total space is spin (type E) exactly when b is even.

The circle families need an auxiliary pair (m, n) with am - bn = 1
(respectively am + bn = 1, m odd whenever b is odd); every profile is
independent of the admissible choice.  choose_mn(family, a, b) makes it
deterministically, and is the only place that computes one: the profile
constructors take no pair from their caller.

All characteristic numbers are computed over a single cleared
denominator; the term-by-term rational evaluation lives in the test
suite as an independent oracle.  Every constructor assembles its profile
in _profile from cleared s-value pairs and from p1, the linking classes
and pi4 as integer residues mod r; the search sources build entries from
the same sphere_s1, sphere_s23, sphere_p1_lk_pi4 and their circle twins,
so each formula has one copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import gcd
from typing import Optional

from .errors import DegenerateOrder, DomainError, NotCoprime
from .exact_arith import (
    ResidueClass, excerpt, inv_mod, ratio_mod_one, read_int, require_instance, require_ints, require_text
)
from .profiles import CohomologyType, InvariantProfile, Pi4

__all__ = [
    "BundleSpec",
    "Family",
    "choose_mn",
    "circle_s1",
    "circle_s23",
    "describe_bundle",
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


@dataclass(frozen=True)
class BundleSpec:
    """Parameters naming one member of one family."""

    family: Family
    a: int
    b: int
    t: Optional[int] = None

    def __post_init__(self) -> None:
        if not isinstance(self.family, Family):
            raise DomainError(f"unknown family {excerpt(self.family)}")
        require_ints(a=self.a, b=self.b)
        if self.family in _CIRCLE_FAMILIES:
            if not isinstance(self.t, int) or isinstance(self.t, bool):
                raise DomainError(f"family {self.family.value} requires the Euler parameter t")
        elif self.t is not None:
            raise DomainError(f"family {self.family.value} takes no Euler parameter")


def describe_bundle(family: Family, a: int, b: int, t: Optional[int] = None) -> str:
    """Compact text form of a family member, 'family:a,b' or, with t, 'family:t,a,b' (parse_bundle_spec reads it)."""
    if not isinstance(family, Family):
        raise DomainError(f"unknown family {excerpt(family)}")
    name = family._value_  # the member's value as a plain attribute; .value is a Python-level property
    return f"{name}:{a},{b}" if t is None else f"{name}:{t},{a},{b}"


def parse_bundle_spec(text: str) -> BundleSpec:
    """Parse 'sphere:a,b', 'spin-sphere:a,b', 'circle:t,a,b', 'spin-circle:t,a,b'."""
    name, _, rest = require_text(text, "a bundle descriptor").partition(":")
    try:
        family = Family(name.strip())
    except ValueError:
        raise DomainError(f"unknown family {excerpt(name)}") from None
    values = [read_int(v) for v in rest.split(",")]
    expected = 3 if family in _CIRCLE_FAMILIES else 2
    if len(values) != expected:
        raise DomainError(f"family {family.value} takes {expected} parameters, got {len(values)}")
    if family in _CIRCLE_FAMILIES:
        return BundleSpec(family, values[1], values[2], t=values[0])
    return BundleSpec(family, values[0], values[1])


def choose_mn(family: Family, a: int, b: int) -> tuple[int, int]:
    """A deterministic admissible (m, n) for a circle family and coprime integers (a, b).

    circle: am - bn = 1, with m the inverse of a mod |b| in (-|b|/2, |b|/2],
    as small as the extended-Euclid pair; (a, 0) for b = 0, where a = ±1.
    spin-circle: n negated (am + bn = 1), then m made odd for odd b by
    (m, n) -> (m + b, n - a); for even b, m is already odd.
    """
    if family not in _CIRCLE_FAMILIES:
        raise DomainError(f"(m, n) only exists for circle families, not {excerpt(getattr(family, 'value', family))}")
    require_ints(a=a, b=b)
    if gcd(a, b) != 1:
        raise NotCoprime(f"parameters ({a}, {b}) must be coprime")
    if b == 0:
        return a, 0
    m = inv_mod(a, abs(b))
    if 2 * m > abs(b):
        m -= abs(b)
    n = (a * m - 1) // b
    if family is Family.CIRCLE:
        return m, n
    if b % 2 == 1 and m % 2 == 0:
        return m + b, -n - a
    return m, -n


def _pi4_sphere(r: int) -> Pi4:
    return Pi4.Z2 if r % 2 == 0 else Pi4.UNKNOWN


def _lk(value: int, r: int) -> Optional[tuple[int, ...]]:
    """The linking class of a bundle as a tuple of residues mod r; None when r = 1."""
    return None if r == 1 else (value % r,)


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


def _profile(
    cohomology_type: CohomologyType, r: int, s_pairs: tuple[tuple[int, int], ...],
    p1: int, lk: Optional[tuple[int, ...]], pi4: Pi4,
) -> InvariantProfile:
    """The profile with s1, s2, s3 the cleared pairs (numerator, denominator) mod 1, and p1, lk residues mod r."""
    s1, s2, s3 = [ratio_mod_one(n, d) for n, d in s_pairs]
    lk_classes = None if lk is None else frozenset(ResidueClass(v, r) for v in lk)
    return InvariantProfile(cohomology_type, r, s1, s2, s3, ResidueClass(p1, r), lk_classes, pi4)


def profile_sphere(a: int, b: int) -> InvariantProfile:
    """Invariant profile of the non-spin 3-sphere bundle with parameters (a, b)."""
    require_ints(a=a, b=b)
    return _profile(CohomologyType.E, abs(a - b), (sphere_s1(a, b), *sphere_s23(a, b)), *sphere_p1_lk_pi4(a, b))


def sphere_p1_lk_pi4(a: int, b: int) -> tuple[int, Optional[tuple[int, ...]], Pi4]:
    """p1, the linking classes (residues mod r) and pi4 of the non-spin 3-sphere bundle (a, b)."""
    d = _sphere_order(a, b)
    r = abs(d)
    return (2 * a + 2 * b + 4) % r, _lk(1 if d > 0 else -1, r), _pi4_sphere(r)


def profile_spin_sphere(a: int, b: int) -> InvariantProfile:
    """Invariant profile of the spin 3-sphere bundle with parameters (a, b)."""
    require_ints(a=a, b=b)
    d = _sphere_order(a, b)
    r = abs(d)
    s1 = 3 * (2 * a + 2 * b + 3) ** 2 - 7 * (4 * a + 4 * b + 5) - 12 * r, 2688 * d
    s_pairs = s1, (-(a + b - 1), 12 * d), (-(a + b - 5), 4 * d)
    return _profile(CohomologyType.EBAR, r, s_pairs, (2 * a + 2 * b + 3) % r, _lk(1 if d > 0 else -1, r), Pi4.UNKNOWN)


def _circle_order(t: int, a: int, b: int) -> int:
    """s = t(a+b)^2 - ab, the signed order of H^4 of the circle bundle (t, a, b); never 0."""
    s = t * (a + b) ** 2 - a * b
    if s == 0:
        raise DegenerateOrder(f"parameters (t={t}, {a}, {b}) give |H^4| = 0")
    return s


def _switch(s: int, border: int) -> int:
    """The switch term of a circle family's s1: 0 if the signed order s > 0, else 2 sign(border).

    No border term vanishes when s < 0: circle, b = (t-1)(a+b) gives s = (a+b)^2((t-1)^2 + 1);
    spin circle, b(t+1) = 0 gives s = a^2 or a^2 + b^2.
    """
    if s > 0:
        return 0
    if border == 0:
        raise AssertionError("impossible: s < 0 forces a nonzero border term")
    return 2 if border > 0 else -2


def circle_s1(t: int, a: int, b: int) -> tuple[int, int]:
    """s1 of the circle bundle (t, a, b) as a cleared pair (numerator, 672 s).

    Here s = t(a+b)^2 - ab, so |H^4| = |s|.  Unlike s2 and s3, s1 needs
    neither the auxiliary pair (m, n) nor coprimality of (a, b).
    """
    s = _circle_order(t, a, b)
    sw = _switch(s, b + (1 - t) * (a + b))
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


def profile_circle(t: int, a: int, b: int) -> InvariantProfile:
    """Invariant profile of the circle bundle over the non-spin 2-sphere bundle."""
    require_ints(t=t, a=a, b=b)
    return _circle_profile(t, a, b, *choose_mn(Family.CIRCLE, a, b))


def _circle_profile(t: int, a: int, b: int, m: int, n: int) -> InvariantProfile:
    """profile_circle with the auxiliary pair given; (m, n) must satisfy am - bn = 1 (not checked)."""
    s_pairs = circle_s1(t, a, b), *circle_s23(t, a, b, m, n)
    return _profile(CohomologyType.E, abs(_circle_order(t, a, b)), s_pairs, *circle_p1_lk_pi4(t, a, b, m, n))


def circle_p1_lk_pi4(
    t: int, a: int, b: int, m: int, n: int
) -> tuple[int, Optional[tuple[int, ...]], Pi4]:
    """p1, the linking classes (residues mod r) and pi4 of the circle bundle (t, a, b); am - bn = 1 (not checked)."""
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
    return (4 * (1 - t) * A * A) % r, _lk(sgn * lk_bracket, r), pi4


def profile_spin_circle(t: int, a: int, b: int) -> InvariantProfile:
    """Invariant profile of the circle bundle over the spin 2-sphere bundle; not spin (type Ebar) exactly when b is odd."""
    require_ints(t=t, a=a, b=b)
    return _spin_circle_profile(t, a, b, *choose_mn(Family.SPIN_CIRCLE, a, b))


def _spin_circle_profile(t: int, a: int, b: int, m: int, n: int) -> InvariantProfile:
    """profile_spin_circle with the pair given; am + bn = 1, m odd if b is odd (not checked)."""
    s = a * a - t * b * b
    if s == 0:
        raise DegenerateOrder(f"parameters (t={t}, {a}, {b}) give |H^4| = 0")
    r = abs(s)
    sgn = 1 if s > 0 else -1
    sw = _switch(s, b * (t + 1))
    q = n * n + t * m * m
    g = b * q - 2 * a * n * m
    alpha = a * q + 2 * t * b * n * m
    beta = b * q + 2 * a * n * m
    body = b * (6 + 8 * t + 3 * a * a + b * b * t)
    square = b * (3 + 4 * t) ** 2
    if b % 2 == 0:
        ctype = CohomologyType.E
        s_pairs = (
            (-4 * s * sw + body * s - square, 896 * s),
            (-g * s - (4 * n * m * alpha - (3 + 4 * t - 2 * q) * beta), 48 * s),
            (-g * s - (16 * n * m * alpha - (3 + 4 * t - 8 * q) * beta), 12 * s),
        )
    else:
        ctype = CohomologyType.EBAR
        s1_num = -12 * s * sw + 3 * body * s - 3 * square - 14 * g * s
        s_pairs = (
            (s1_num + 7 * (-2 * n * m * alpha + (6 + 8 * t - q) * beta), 2688 * s),
            (-g * s - (10 * n * m * alpha - (3 + 4 * t - 5 * q) * beta), 24 * s),
            (-g * s - (26 * n * m * alpha - (3 + 4 * t - 13 * q) * beta), 8 * s),
        )
    lk_bracket = (
        b * n**4
        + 6 * b * t * n * n * m * m
        + 4 * a * t * n * m**3
        + 4 * a * n**3 * m
        + b * t * t * m**4
    )
    p1 = ((3 + 4 * t) * b * b) % r
    return _profile(ctype, r, s_pairs, p1, _lk(-sgn * lk_bracket, r), Pi4.Z2 if t == 0 else Pi4.UNKNOWN)


def profile(spec: BundleSpec) -> InvariantProfile:
    """Invariant profile of any bundle spec."""
    require_instance(spec, BundleSpec, "spec")
    if spec.family is Family.SPHERE:
        return profile_sphere(spec.a, spec.b)
    if spec.family is Family.SPIN_SPHERE:
        return profile_spin_sphere(spec.a, spec.b)
    if spec.family is Family.CIRCLE:
        return profile_circle(spec.t, spec.a, spec.b)
    return profile_spin_circle(spec.t, spec.a, spec.b)


def natural_partner(spec: BundleSpec) -> Optional[BundleSpec]:
    """The sphere-bundle spec a circle-bundle spec is naturally identified with.

    circle with a + b = 1: same space as sphere(-t, a(a-1)), orientation
    preserving. spin-circle with b = 1: same space as spin-sphere(t, a^2),
    orientation preserving. Anything else: None.
    """
    require_instance(spec, BundleSpec, "spec")
    if spec.family is Family.CIRCLE and spec.a + spec.b == 1:
        return BundleSpec(Family.SPHERE, -spec.t, spec.a * (spec.a - 1))
    if spec.family is Family.SPIN_CIRCLE and spec.b == 1:
        return BundleSpec(Family.SPIN_SPHERE, spec.t, spec.a * spec.a)
    return None
