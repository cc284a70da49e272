"""Eschenburg biquotient parameters, their invariants and fixtures.

A space is given by two integer triples k, l with equal sums. The order
of H^4 is r = |sigma2(k) - sigma2(l)|, the signed linking number is
s = sigma3(k) - sigma3(l), and p1 = 2*sigma1(k)^2 - 6*sigma2(k) mod r.
The characteristic numbers s1, s2, s3 of these spaces are not computed
here from (k, l); they enter through fixture files of known values.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from importlib import resources
from itertools import chain, permutations
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
from .exact_arith import ModOneValue, ResidueClass, check_input_digits, inv_mod, mod_one
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
# An s-value token: an integer or n/d.  Fraction also reads decimals and
# exponents, and a token like 1e100000000 would make it build a power of
# ten with a hundred million digits.
_S_VALUE = re.compile(r"[-+]?[0-9]+(?:/[0-9]+)?")
# Largest possible denominators of s1, s2, s3 relative to r for this type.
_DENOMINATOR_BOUNDS = (224, 24, 6)


@dataclass(frozen=True)
class EschenburgSpace:
    """Parameter pair (k, l) of an Eschenburg biquotient."""

    k: Triple
    l: Triple

    def __post_init__(self) -> None:
        for name in ("k", "l"):
            triple = tuple(getattr(self, name))
            if len(triple) != 3 or not all(isinstance(v, int) for v in triple):
                raise DomainError(f"{name} must be a triple of integers, got {triple}")
            object.__setattr__(self, name, triple)

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


@dataclass(frozen=True)
class EschenburgFixture:
    """A space together with its externally known s-values (reduced mod 1)."""

    space: EschenburgSpace
    s1: ModOneValue
    s2: ModOneValue
    s3: ModOneValue

    @property
    def s_triple(self) -> tuple[ModOneValue, ModOneValue, ModOneValue]:
        return (self.s1, self.s2, self.s3)


def _sigma(t: Triple) -> tuple[int, int, int]:
    a, b, c = t
    return (a + b + c, a * b + a * c + b * c, a * b * c)


def _require_balanced(space: EschenburgSpace) -> None:
    if sum(space.k) != sum(space.l):
        raise UnequalSums(f"sum {sum(space.k)} != {sum(space.l)} for {space.k}, {space.l}")


def is_free(space: EschenburgSpace) -> bool:
    """Whether the circle action with these parameters is free.

    Freeness requires, for every assignment of l-entries to k-entries,
    that the three differences have no common factor; by the equal-sum
    constraint this is equivalent to every pair of differences taken at
    distinct indices being coprime.
    """
    _require_balanced(space)
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
    _require_balanced(space)
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
    sig_k = _sigma(space.k)
    sig_l = _sigma(space.l)
    _require_balanced(space)
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


def _outside(total: int, w: int, lo: int, hi: int) -> tuple[range, ...]:
    """The integers x in [lo, hi] with (2*x - total)^2 > w, as ranges."""
    if w < 0:
        return (range(lo, hi + 1),)
    g = math.isqrt(w)  # an integer m has m^2 > w exactly when |m| > g
    return (
        range(lo, min(hi, (total - g - 1) // 2) + 1),
        range(max(lo, (total + g) // 2 + 1), hi + 1),
    )


def _k1_ranges(l1: int, l2: int, r_max: int, bound: int) -> tuple[range, ...]:
    """The k1 worth scanning against l = (l1, l2, 0), l1 >= l2 >= 0.

    Write S = l1 + l2, rest = S - k1 = k2 + k3, u = k2 - k3 = 2*k2 - rest
    and t = 3*k1 - S, so that 0 <= u <= t. Then 4*(sigma2(k) - sigma2(l))
    = c - u^2 with c = rest^2 + 4*k1*rest - 4*l1*l2 = (4*D - t^2)/3,
    D = l1^2 - l1*l2 + l2^2, and r < r_max reads c - 4*r_max < u^2 <
    c + 4*r_max. Some u in [0, t] fits only if D - 3*r_max < t^2 <
    4*D + 12*r_max: this is the window in k1.

    Positive curvature splits at l1 (see _k2_ranges), and
    rest^2 - c = 4*(k1 - l1)*(k1 - l2) narrows each side. Below l1 it
    needs k3 > 0, i.e. u < rest, so c - 4*r_max < rest^2: that is
    (l1 - k1)*(k1 - l2) < r_max, or (2*k1 - S)^2 > (l1 - l2)^2 - 4*r_max.
    Above l1 it needs k3 < 0, i.e. u > rest, so for rest >= 0 also
    rest^2 < c + 4*r_max: (2*k1 - S)^2 < (l1 - l2)^2 + 4*r_max.
    k1 = l1 never qualifies, so no range holds it.
    """
    total = l1 + l2
    d = l1 * l1 - l1 * l2 + l2 * l2
    t_lo = math.isqrt(d - 3 * r_max) + 1 if d >= 3 * r_max else 0
    lo = -(-(total + t_lo) // 3)
    hi = min(bound, (total + math.isqrt(4 * d + 12 * r_max - 1)) // 3)
    gap = (l1 - l2) ** 2
    # rest >= 0 up to k1 = S; beyond it the window in t alone bounds k1.
    top = (total + math.isqrt(gap + 4 * r_max - 1)) // 2
    return _outside(total, gap - 4 * r_max, lo, min(hi, l1 - 1)) + (
        range(max(lo, l1 + 1), min(hi, top) + 1),
        range(max(lo, total + 1, top + 1), hi + 1),
    )


def _k2_ranges(l1: int, l2: int, k1: int, lo: int, hi: int) -> tuple[range, ...]:
    """The k2 in [lo, hi] for which (k1, k2, k3) against (l1, l2, 0) can be
    positively curved, with l1 >= l2 >= 0, k1 != l1 and k1 >= k2 >= k3 =
    S - k1 - k2.

    Here 0 = min(l) <= k1, because k1 >= S/3 >= 0.
    k1 > l1: l1 lies in [k3, k1] unless k3 > l1, which would put the sum
      of k above 3*l1 >= S; so every k-entry must avoid [0, l1]: k3 < 0
      (k2 > rest) and k2 < 0 or k2 > l1.
    k1 < l1: k1 lies in [0, l1], so every l-entry must avoid [k3, k1]:
      0 forces k3 > 0 (k2 < rest), and l2 forces k3 > l2 when l2 <= k1.
    (k1 = l1: l1 lies in [k3, k1] and k1 in [0, l1], so nothing qualifies.)
    """
    rest = l1 + l2 - k1
    if k1 > l1:
        return (
            range(max(lo, rest + 1), min(hi, -1) + 1),
            range(max(lo, rest + 1, l1 + 1), hi + 1),
        )
    return (range(lo, min(hi, rest - 1 - (l2 if l2 <= k1 else 0)) + 1),)


def _representatives(r_max: int) -> Iterator[tuple[EschenburgSpace, int]]:
    """Every free, positively curved (k, l) with 1 <= r < r_max in the scan box, with r.

    The box holds l = (l1, l2, 0) and k = (k1, k2, k3) with l1 >= l2 >= 0,
    k1 >= k2 >= k3 and every entry at most 3*r_max in absolute value.
    Only the l2, k1 and k2 that can pass the order and curvature filters
    are visited; the filters themselves still decide every candidate.
    """
    bound = 3 * r_max
    for l1 in range(bound + 1):
        # Every candidate has r > l2*(l1 - l2), by the branches of _k2_ranges:
        # k2 > l1: with x = k1 - l1, y = k2 - l1 >= 1,
        #   r = l1*(l1 - l2) + (2*l1 - l2)*(x + y) + x*x + x*y + y*y;
        # k2 < 0: k1 > S and sigma2(k) <= -(k1 - S)*(3*k1 + S)/4 < 0, so r > l1*l2;
        # k1 < l1: k lies strictly inside one of the gaps (0, l2), (l2, l1).
        #   Shifting it to (0, w) and using that entries >= 1 with sum s
        #   have squares summing to at most (s - 2)^2 + 2 gives
        #   r = (|l|^2 - |k|^2)/2 >= l2*(l1 - l2) + 3.
        # So l2*(l1 - l2) < r_max, i.e. (2*l2 - l1)^2 > l1^2 - 4*r_max.
        for l2 in chain.from_iterable(_outside(l1, l1 * l1 - 4 * r_max, 0, l1)):
            sig2_l = l1 * l2
            for k1 in chain.from_iterable(_k1_ranges(l1, l2, r_max, bound)):
                rest = l1 + l2 - k1
                # r < r_max as an interval of u = 2*k2 - rest >= 0 (see _k1_ranges).
                c = rest * rest + 4 * k1 * rest - 4 * sig2_l
                low = c - 4 * r_max + 1
                u_lo = math.isqrt(low - 1) + 1 if low > 0 else 0
                u_hi = math.isqrt(c + 4 * r_max - 1)
                k2_lo = max(-(-(rest + u_lo) // 2), rest - bound)  # k3 <= bound
                k2_hi = min((rest + u_hi) // 2, k1, rest + bound)  # k3 >= -bound
                for k2 in chain.from_iterable(_k2_ranges(l1, l2, k1, k2_lo, k2_hi)):
                    k3 = rest - k2
                    r = abs(k1 * k2 + k3 * (k1 + k2) - sig2_l)
                    if r < 1 or r >= r_max:
                        continue
                    space = EschenburgSpace((k1, k2, k3), (l1, l2, 0))
                    if is_positively_curved(space) and is_free(space):
                        yield space, r


def enumerate_positively_curved(r_max: int) -> list[EschenburgSpace]:
    """All normalized free, positively curved spaces with r < r_max.

    Representatives are scanned with min(l) = 0 and all entries bounded
    by 3*r_max in absolute value (the documented convention of this
    enumeration), deduplicated by normalize() and sorted by (r, k, l).
    """
    if r_max < 1:
        raise DomainError(f"r_max must be positive, got {r_max}")
    # r is invariant under the symmetries normalize() uses.
    found = {normalize(space): r for space, r in _representatives(r_max)}
    return sorted(found, key=lambda s: (found[s], s.k, s.l))


def _parse_int_triple(text: str, line_number: int, label: str) -> Triple:
    tokens = text.split()
    if len(tokens) != 3:
        raise ParseError(line_number, f"{label} must have three entries, got {text!r}")
    try:
        return tuple(int(t) for t in tokens)  # type: ignore[return-value]
    except ValueError:
        raise ParseError(line_number, f"{label} entries must be integers, got {text!r}") from None


def _parse_fraction_triple(text: str, line_number: int) -> tuple[Fraction, Fraction, Fraction]:
    tokens = text.split()
    if len(tokens) != 3:
        raise ParseError(line_number, f"expected three s-values, got {text!r}")
    try:
        if not all(_S_VALUE.fullmatch(t) for t in tokens):
            raise ValueError
        return tuple(Fraction(t) for t in tokens)  # type: ignore[return-value]
    except (ValueError, ZeroDivisionError):
        raise ParseError(line_number, f"s-values must be fractions, got {text!r}") from None


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
        if len(parts) != 3:
            raise ParseError(line_number, "expected 'k1 k2 k3 | l1 l2 l3 | s1 s2 s3'")
        k = _parse_int_triple(parts[0], line_number, "k")
        l = _parse_int_triple(parts[1], line_number, "l")
        s_values = _parse_fraction_triple(parts[2], line_number)
        try:
            check_input_digits(*k, *l, *(n for s in s_values for n in (s.numerator, s.denominator)))
        except DomainError as exc:
            raise ParseError(line_number, str(exc)) from None
        space = EschenburgSpace(k, l)
        try:
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
    """The full invariant profile of a fixture space.

    Eschenburg spaces are non-spin with pi4 = 0; the linking class is
    only known up to sign, so both candidates are listed.
    """
    inv = invariants(fixture.space)
    return InvariantProfile(
        cohomology_type=CohomologyType.E,
        r=inv.r,
        s1=fixture.s1,
        s2=fixture.s2,
        s3=fixture.s3,
        p1=inv.p1,
        lk=inv.lk_pair,
        pi4=Pi4.ZERO,
    )
