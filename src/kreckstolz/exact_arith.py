"""Exact modular and rational arithmetic used by every other module.

All quantities are integers or fractions.Fraction; nothing here (or
anywhere else in the package) touches floating point. Square roots
modulo m are returned as the complete, sorted set of solutions, because
the downstream solver must enumerate every admissible root.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from .errors import DomainError, ModuliNotCoprime, NotCoprime

__all__ = [
    "Factorization",
    "ResidueClass",
    "crt_combine",
    "factorize",
    "inv_mod",
    "mod_one",
    "ratio_mod_one",
    "sqrt_mod",
]

# Exact rational number; alias documents intent in signatures.
Rational = Fraction
# A Rational canonically reduced to the interval [0, 1), i.e. an element of Q/Z.
ModOneValue = Fraction

_TRIAL_DIVISION_BOUND = 10**6
# Miller-Rabin witnesses: the primes up to 41 decide primality of every
# n below psi_13, the least strong pseudoprime to all of them
# (Sorenson-Webster 2017).  Without 41 the bound drops to psi_12 =
# 318665857834031151167461 = 399165290221 * 798330580441.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PROVEN_BELOW = 3317044064679887385961981


# The parsers and the CLI flags read integers of at most MAX_INPUT_DIGITS
# decimal digits, because Python converts an int to text only up to 4,300
# digits (its default limit) and raises ValueError beyond.  The printed
# integer of highest degree in the inputs is the s1 denominator 672s of a
# circle bundle (t, a, b), with s = t(a+b)^2 - ab of degree 3: for |t|, |a|,
# |b| < 10^D it is below 672 * 5 * 10^(3D) < 10^(3D + 4).  (The spin circle's
# 2688s, with s = a^2 - tb^2, stays below the same bound.)  So D = 1,000
# keeps every printed integer to at most 3,004 digits.
MAX_INPUT_DIGITS = 1000
_INPUT_BOUND = 10**MAX_INPUT_DIGITS


def check_input_digits(*values: int) -> None:
    """Raise DomainError unless every value has at most MAX_INPUT_DIGITS decimal digits."""
    for value in values:
        if not -_INPUT_BOUND < value < _INPUT_BOUND:
            raise DomainError(f"integers are limited to {MAX_INPUT_DIGITS} digits")


def ratio_mod_one(n: int, d: int) -> ModOneValue:
    """The rational n/d reduced modulo 1 into [0, 1), for integers n and d != 0.

    The numerator is reduced with an integer % before the single Fraction
    is built, which is several times cheaper than Fraction(n, d) % 1.
    n % d has the sign of d and is smaller in size, so the quotient lies
    in [0, 1) for either sign of d.
    """
    return Fraction(n % d, d)


def mod_one(q: Union[Rational, int]) -> ModOneValue:
    """Reduce a rational number modulo 1 into [0, 1)."""
    return ratio_mod_one(q.numerator, q.denominator)


def inv_mod(a: int, m: int) -> int:
    """Multiplicative inverse of a modulo m, in [0, m)."""
    if m < 1:
        raise DomainError(f"modulus must be positive, got {m}")
    try:
        return pow(a, -1, m)
    except ValueError:
        raise NotCoprime(f"{a} is not invertible modulo {m}") from None


@dataclass(frozen=True)
class ResidueClass:
    """An integer residue: value modulo modulus, normalized to [0, modulus)."""

    value: int
    modulus: int

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise DomainError(f"modulus must be positive, got {self.modulus}")
        if not 0 <= self.value < self.modulus:
            raise DomainError(f"value {self.value} not reduced modulo {self.modulus}")

    def __str__(self) -> str:
        return f"{self.value} mod {self.modulus}"


@dataclass(frozen=True)
class Factorization:
    """Prime factorization as ((p1, e1), (p2, e2), ...) with p1 < p2 < ..."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        previous = 1
        for p, e in self.pairs:
            if p <= previous or e < 1:
                raise DomainError(f"malformed factorization {self.pairs}")
            previous = p

    @property
    def n(self) -> int:
        """The factored integer."""
        return math.prod(p**e for p, e in self.pairs)


def _is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin below psi_13; DomainError for a larger n that passes."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for base in _MR_BASES:
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_PROVEN_BELOW:
        raise DomainError(
            f"cannot certify {n} as prime: the Miller-Rabin test is proven only below {_MR_PROVEN_BELOW}"
        )
    return True


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of composite odd n, found deterministically."""
    if n % 2 == 0:
        return 2
    for c in itertools.count(1):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise AssertionError("unreachable")


def factorize(n: int) -> Factorization:
    """Prime factorization of a positive integer; factorize(1) is empty.

    A cofactor of at least psi_13 that Miller-Rabin takes for a prime
    cannot be certified, and raises DomainError.
    """
    if n < 1:
        raise DomainError(f"can only factorize positive integers, got {n}")
    counts: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            counts[p] = counts.get(p, 0) + 1
            n //= p
    d = 7
    # 2/4-alternating wheel over numbers coprime to 2 and 3.
    step = 4
    while d * d <= n and d <= _TRIAL_DIVISION_BOUND:
        while n % d == 0:
            counts[d] = counts.get(d, 0) + 1
            n //= d
        d += step
        step = 6 - step
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if _is_probable_prime(m):
            counts[m] = counts.get(m, 0) + 1
            continue
        f = _pollard_rho(m)
        stack.append(f)
        stack.append(m // f)
    return Factorization(tuple(sorted(counts.items())))


def crt_combine(residues: Iterable[ResidueClass]) -> ResidueClass:
    """Combine residues over pairwise coprime moduli into one residue class."""
    value, modulus = 0, 1
    for r in residues:
        if math.gcd(modulus, r.modulus) != 1:
            raise ModuliNotCoprime(f"moduli {modulus} and {r.modulus} share a factor")
        t = ((r.value - value) * inv_mod(modulus, r.modulus)) % r.modulus
        value += modulus * t
        modulus *= r.modulus
    return ResidueClass(value % modulus, modulus)


def _tonelli_shanks(a: int, p: int) -> int | None:
    """One square root of a modulo an odd prime p for a unit a, else None."""
    a %= p
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # Write p - 1 = q * 2^s with q odd.
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, i = t, 0
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def _sqrt_mod_odd_prime_power(a: int, p: int, k: int) -> list[int]:
    """All roots of x^2 = a modulo p^k for odd prime p, sorted."""
    q = p**k
    a %= q
    if a == 0:
        step = p ** ((k + 1) // 2)
        return list(range(0, q, step))
    e = 0
    a0 = a
    while a0 % p == 0:
        a0 //= p
        e += 1
    if e % 2 == 1:
        return []
    # Solve y^2 = a0 modulo p^(k-e) for the unit part, then rescale.
    ke = k - e
    y = _tonelli_shanks(a0, p)
    if y is None:
        return []
    # Hensel lifting: the derivative 2y is a unit, so the root is unique per sign.
    pj = p
    for _ in range(ke - 1):
        pj *= p
        y = (y - (y * y - a0) * inv_mod(2 * y, pj)) % pj
    scale = p ** (e // 2)
    period = p**ke
    roots = set()
    for base in (y % period, (-y) % period):
        for t in range(scale):
            roots.add(scale * (base + t * period) % q)
    return sorted(roots)


def _sqrt_mod_power_of_two(a: int, k: int) -> list[int]:
    """All roots of x^2 = a modulo 2^k, by lifting complete solution sets."""
    a %= 1 << k
    solutions = [x for x in range(2) if x * x % 2 == a % 2]
    for j in range(1, k):
        mod = 1 << (j + 1)
        target = a % mod
        lifted = []
        for x in solutions:
            for y in (x, x + (1 << j)):
                if y * y % mod == target:
                    lifted.append(y)
        solutions = lifted
    return sorted(solutions)


def sqrt_mod(a: int, m: int) -> tuple[int, ...]:
    """The complete sorted tuple of solutions of x^2 = a modulo m."""
    if m < 1:
        raise DomainError(f"modulus must be positive, got {m}")
    if m == 1:
        return (0,)
    a %= m
    local: list[tuple[int, list[int]]] = []
    for p, k in factorize(m).pairs:
        roots = _sqrt_mod_power_of_two(a, k) if p == 2 else _sqrt_mod_odd_prime_power(a, p, k)
        if not roots:
            return ()
        local.append((p**k, roots))
    combined = []
    for choice in itertools.product(*(roots for _, roots in local)):
        combined.append(crt_combine([ResidueClass(x, q) for (q, _), x in zip(local, choice)]).value)
    return tuple(sorted(combined))
