"""Eschenburg biquotient parameters, their invariants and fixtures.

A space is given by two integer triples k, l with equal sums. The order
of H^4 is r = |sigma2(k) - sigma2(l)|, the signed linking number is
s = sigma3(k) - sigma3(l), and p1 = 2*sigma1(k)^2 - 6*sigma2(k) mod r.
The characteristic numbers s1, s2, s3 of these spaces are not computed
here from (k, l); they enter through fixture files of known values.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from importlib import resources
from itertools import permutations
from pathlib import Path
from typing import Iterable, Iterator, Optional, Union

from .errors import (
    DegenerateOrder,
    DomainError,
    InconsistentFixture,
    MissingFixture,
    ParseError,
    UnequalSums,
)
from .exact_arith import (
    ModOneValue, ResidueClass, excerpt, inv_mod, mod_one, read_fraction, read_int, require_instance, require_ints
)
from .profiles import CohomologyType, InvariantProfile, Pi4

__all__ = [
    "EschenburgFixture",
    "EschenburgInvariants",
    "EschenburgSpace",
    "enumerate_positively_curved",
    "fixture_profile",
    "invariants",
    "is_free",
    "is_positively_curved",
    "load_fixtures",
    "normalize",
    "order_invariants",
]

Triple = tuple[int, int, int]

_DEFAULT_FIXTURES = "eschenburg_fixtures.txt"
# An s-value token: an integer or n/d.  read_fraction also reads decimals.
_S_VALUE = re.compile(r"[-+]?[0-9]+(?:/[0-9]+)?")
# Largest possible denominators of s1, s2, s3 relative to r for this type.
_DENOMINATOR_BOUNDS = (224, 24, 6)


@dataclass(frozen=True)
class EschenburgSpace:
    """Parameter pair (k, l) of an Eschenburg biquotient; unequal sums raise UnequalSums."""

    k: Triple
    l: Triple

    def __post_init__(self) -> None:
        for name in ("k", "l"):
            value = getattr(self, name)
            try:
                triple = tuple(value)
            except TypeError:  # not iterable
                raise DomainError(f"{name} must be a triple of integers, got {excerpt(value)}") from None
            if len(triple) != 3 or not all(type(v) is int for v in triple):
                raise DomainError(f"{name} must be a triple of integers, got {excerpt(triple)}")
            object.__setattr__(self, name, triple)
        if sum(self.k) != sum(self.l):
            raise UnequalSums(f"sum {sum(self.k)} != {sum(self.l)} for {self.k}, {self.l}")

    @classmethod
    def homogeneous(cls, p: int, q: int) -> "EschenburgSpace":
        """The homogeneous member W_{p,q}: parameters (p, q, -p-q) and (0, 0, 0)."""
        return cls((p, q, -(p + q)), (0, 0, 0))


@dataclass(frozen=True)
class EschenburgInvariants:
    """Invariants computable directly from the parameters."""

    r: int
    s_signed: int
    p1: ResidueClass
    lk_pair: Optional[frozenset[ResidueClass]]
    free: bool
    positively_curved: bool

    def profile(self, s1: ModOneValue, s2: ModOneValue, s3: ModOneValue) -> InvariantProfile:
        """The full invariant profile of the space, given its s-values mod 1.

        Eschenburg spaces are spin (type E) with pi4 = 0; the linking class is
        only known up to sign, so both candidates are listed.
        """
        return InvariantProfile(CohomologyType.E, self.r, s1, s2, s3, self.p1, self.lk_pair, Pi4.ZERO)


@dataclass(frozen=True)
class EschenburgFixture:
    """A space together with its externally known s-values (reduced mod 1)."""

    space: EschenburgSpace
    s1: ModOneValue
    s2: ModOneValue
    s3: ModOneValue


def _sigma(t: Triple) -> tuple[int, int, int]:
    a, b, c = t
    return (a + b + c, a * b + a * c + b * c, a * b * c)


def is_free(space: EschenburgSpace) -> bool:
    """Whether the circle action with these parameters is free.

    Freeness requires, for every assignment of l-entries to k-entries,
    that the three differences have no common factor; by the equal-sum
    constraint this is equivalent to every pair of differences taken at
    distinct indices being coprime.
    """
    require_instance(space, EschenburgSpace, "space")
    return all(
        math.gcd(
            space.k[0] - space.l[p[0]],
            space.k[1] - space.l[p[1]],
            space.k[2] - space.l[p[2]],
        )
        == 1
        for p in permutations(range(3))
    )


def is_positively_curved(space: EschenburgSpace) -> bool:
    """Whether the standard metric has positive sectional curvature.

    The criterion: every k-entry lies outside [min(l), max(l)], or every
    l-entry lies outside [min(k), max(k)]. For equal-sum triples this
    global form is equivalent to the per-index form of the condition.
    """
    require_instance(space, EschenburgSpace, "space")
    lo_l, hi_l = min(space.l), max(space.l)
    lo_k, hi_k = min(space.k), max(space.k)
    return all(not lo_l <= v <= hi_l for v in space.k) or all(
        not lo_k <= v <= hi_k for v in space.l
    )


def order_invariants(space: EschenburgSpace) -> tuple[int, int, ResidueClass]:
    """The order r, the signed linking number s and p1 mod r.

    These come from the parameters by arithmetic alone; unlike
    invariants(), nothing here tests freeness or curvature.
    """
    require_instance(space, EschenburgSpace, "space")
    sig_k = _sigma(space.k)
    sig_l = _sigma(space.l)
    r_signed = sig_k[1] - sig_l[1]
    if r_signed == 0:
        raise DegenerateOrder(f"sigma2 coincide for {space.k}, {space.l}")
    r = abs(r_signed)
    return r, sig_k[2] - sig_l[2], ResidueClass((2 * sig_k[0] ** 2 - 6 * sig_k[1]) % r, r)


def invariants(space: EschenburgSpace) -> EschenburgInvariants:
    """The order r, signed linking number, p1 mod r, and linking classes.

    lk_pair is the sign-ambiguous pair {s^-1, -s^-1} mod r; it is None
    when r = 1 (trivial group) and also when gcd(s, r) > 1, which only
    happens for parameters that do not act freely.
    """
    r, s_signed, p1 = order_invariants(space)
    lk_pair = None
    if r > 1 and math.gcd(s_signed, r) == 1:
        u = inv_mod(s_signed, r)
        lk_pair = frozenset({ResidueClass(u, r), ResidueClass((-u) % r, r)})
    return EschenburgInvariants(
        r=r,
        s_signed=s_signed,
        p1=p1,
        lk_pair=lk_pair,
        free=is_free(space),
        positively_curved=is_positively_curved(space),
    )


def normalize(space: EschenburgSpace) -> EschenburgSpace:
    """Canonical representative under the parameter symmetries.

    The symmetries: permuting each triple, shifting both triples by a
    common constant, negating both triples, and swapping k with l. The
    canonical form sorts both triples ascending, shifts so min(l) = 0,
    and takes the lexicographically smallest of the four sign/swap
    variants.
    """
    require_instance(space, EschenburgSpace, "space")
    candidates = []
    for kk, ll in ((space.k, space.l), (space.l, space.k)):
        for sign in (1, -1):
            k_sorted = sorted(sign * v for v in kk)
            l_sorted = sorted(sign * v for v in ll)
            shift = l_sorted[0]
            candidates.append(
                (
                    tuple(v - shift for v in k_sorted),
                    tuple(v - shift for v in l_sorted),
                )
            )
    k_best, l_best = min(candidates)
    return EschenburgSpace(k_best, l_best)


def _representatives(r_max: int) -> Iterator[tuple[EschenburgSpace, int]]:
    """Every free, positively curved class with 1 <= r < r_max once, as its normalize() form, with r.

    The scan walks the branch k1 >= k2 > l1 >= l2 >= 0 = l3 (form A). With
    l = (l1, l2, 0) and k = (l1 + x, l1 + y, l2 - l1 - x - y), x >= y >= 1,
        r = l1*(l1 - l2) + (2*l1 - l2)*(x + y) + x*x + x*y + y*y.
    Why one A form per class suffices:
    1. Sort each triple descending and shift so min(l) = 0 (a box form);
       then k1 >= (l1 + l2)/3 >= 0. A curved box form has k1 > l1 with
       k3 < 0 and k2 < 0 (form B) or k2 > l1 (form A), or k1 < l1 with
       k3 > 0 (form C); k1 = l1 never qualifies. For k1 > l1, l1 lies in
       [k3, k1] unless k3 > l1, which would put the sum of k above
       3*l1 >= l1 + l2; so every k-entry must avoid [0, l1]. For k1 < l1,
       k1 lies in [0, l1], so every l-entry must avoid [k3, k1], and 0
       forces k3 > 0.
    2. A class has four box forms: itself, its negation, its k <-> l swap
       and the swap of its negation. Negating and shifting by l1 maps B to
       A and A to B. Swapping and shifting by k3 maps C to a form with
       k1 > l1, and a form with k1 > l1 and k3 < 0 to one with k1 < l1.
       So every class has an A form, and only one: the other three forms
       of an A form lie in B and C.
    3. The A form is normalize()'s choice: its smallest k-entry is
       l2 - l1 - x - y, the negated form's is -x, and both swapped forms
       have positive k-entries; l1 - l2 + y >= 1 makes the first smallest.
    4. Every entry of an A form is at most l1 + x + y in absolute value,
       and r >= l1*(x + y) + x + y >= l1 + x + y; so the form lies in the
       box of side 3*r_max of the enumeration.
    r grows with x and with y, so its least value for given (l1, l2) is
    at x = y = 1: (l1 + 1)*(l1 + 3) - (l1 + 2)*l2, which falls as l2
    grows, to 2*l1 + 3 at l2 = l1. These bound the four loops. The
    curvature and freeness tests still decide every candidate.
    """
    for l1 in range((r_max - 2) // 2):  # 2*l1 + 3 < r_max
        for l2 in range(max(0, ((l1 + 1) * (l1 + 3) - r_max) // (l1 + 2) + 1), l1 + 1):
            base, slope = l1 * (l1 - l2), 2 * l1 - l2
            y = 1
            while base + 2 * slope * y + 3 * y * y < r_max:  # r at x = y
                x = y
                while (r := base + slope * (x + y) + x * x + x * y + y * y) < r_max:
                    space = EschenburgSpace((l2 - l1 - x - y, l1 + y, l1 + x), (0, l2, l1))
                    if is_positively_curved(space) and is_free(space):
                        yield space, r
                    x += 1
                y += 1


def enumerate_positively_curved(r_max: int) -> list[EschenburgSpace]:
    """All normalized free, positively curved spaces with r < r_max, sorted by (r, k, l).

    Each class is listed once, in normalize()'s form; that form has every
    entry at most r in absolute value, so it lies in the box of side
    3*r_max with min(l) = 0 (the documented convention of this
    enumeration).
    """
    require_ints(r_max=r_max)
    if r_max < 1:
        raise DomainError(f"r_max must be positive, got {r_max}")
    found = sorted(_representatives(r_max), key=lambda pair: (pair[1], pair[0].k, pair[0].l))
    return [space for space, _ in found]


def _parse_int_triple(text: str, label: str) -> Triple:
    tokens = text.split()
    if len(tokens) != 3:
        raise DomainError(f"{label} must have three entries, got {excerpt(text)}")
    return tuple(read_int(t) for t in tokens)  # type: ignore[return-value]


def _parse_fraction_triple(text: str) -> tuple[Fraction, Fraction, Fraction]:
    tokens = text.split()
    if len(tokens) != 3:
        raise DomainError(f"expected three s-values, got {excerpt(text)}")
    if not all(map(_S_VALUE.fullmatch, tokens)):
        raise DomainError(f"s-values must be fractions, got {excerpt(text)}")
    return tuple(map(read_fraction, tokens))  # type: ignore[return-value]


def load_fixtures(source: Union[str, Path, None] = None) -> list[EschenburgFixture]:
    """Parse a fixture file of lines 'k1 k2 k3 | l1 l2 l3 | s1 s2 s3'.

    Each s-value is an integer n or a ratio n/d; anything else is a
    ParseError.  '#' starts a comment, blank lines are skipped. Each parsed space is
    validated: the parameters must be balanced and nondegenerate, and
    each s-denominator must divide its bound (224r, 24r, 6r), otherwise
    the line cannot belong to the space and InconsistentFixture is
    raised. The file is read as UTF-8; bytes that do not decode raise
    ParseError. Without a source argument the packaged registry is loaded;
    it is parsed once per process, and every call returns a new list of
    the same frozen fixtures.  A file given as source is re-read on every
    call.
    """
    if source is None:
        return list(_packaged_fixtures())
    if not isinstance(source, (str, os.PathLike)):
        raise DomainError(f"a fixture source must be a path, got {excerpt(source)}")
    return _parse_fixtures(Path(source).read_bytes())


@cache
def _packaged_fixtures() -> tuple[EschenburgFixture, ...]:
    data = resources.files("kreckstolz.data").joinpath(_DEFAULT_FIXTURES).read_bytes()
    return tuple(_parse_fixtures(data))


def _parse_fixtures(data: bytes) -> list[EschenburgFixture]:
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # Number lines as the loop below does; "x" stands for the bad byte, so
        # a prefix that ends in a line break puts it on a new line.
        line_number = len((data[: exc.start].decode("utf-8") + "x").splitlines())
        raise ParseError(line_number, f"not valid UTF-8 ({exc.reason})") from None
    fixtures = []
    for line_number, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("#", 1)[0].strip()
        if not content:
            continue
        parts = content.split("|")
        try:
            if len(parts) != 3:
                raise DomainError("expected 'k1 k2 k3 | l1 l2 l3 | s1 s2 s3'")
            k = _parse_int_triple(parts[0], "k")
            l = _parse_int_triple(parts[1], "l")
            s_values = _parse_fraction_triple(parts[2])
        except DomainError as exc:
            raise ParseError(line_number, str(exc)) from None
        try:
            space = EschenburgSpace(k, l)
            inv = invariants(space)
        except DomainError as exc:
            raise InconsistentFixture(f"line {line_number}: {exc}") from exc
        for s, bound in zip(s_values, _DENOMINATOR_BOUNDS):
            if (bound * inv.r) % s.denominator != 0:
                raise InconsistentFixture(
                    f"line {line_number}: denominator of {s} incompatible with r = {inv.r}"
                )
        fixtures.append(EschenburgFixture(space, *(mod_one(s) for s in s_values)))
    return fixtures


def find_fixture(
    fixtures: Iterable[EschenburgFixture],
    k: tuple[int, ...],
    l: tuple[int, ...],
    s1: Optional[Fraction] = None,
) -> EschenburgFixture:
    """The first fixture in catalog order with parameters (k, l).

    Two lines may record the same space in opposite orientations; passing
    `s1` (compared modulo 1) selects one of them.  Raises MissingFixture
    when no fixture matches.
    """
    target = None if s1 is None else mod_one(s1)
    for fixture in fixtures:
        if fixture.space.k == k and fixture.space.l == l and (target is None or fixture.s1 == target):
            return fixture
    detail = "" if s1 is None else f" and s1 = {s1} mod 1"
    raise MissingFixture(f"no fixture with k={k}, l={l}{detail}")


def fixture_profile(fixture: EschenburgFixture) -> InvariantProfile:
    """The full invariant profile of a fixture space (see EschenburgInvariants.profile)."""
    require_instance(fixture, EschenburgFixture, "fixture")
    return invariants(fixture.space).profile(fixture.s1, fixture.s2, fixture.s3)
