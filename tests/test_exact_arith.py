"""Tests for the exact arithmetic layer.

Oracles used here are deliberately naive reimplementations (brute-force
enumeration, trial division) so the fast library code is checked against
independent logic rather than against itself.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kreckstolz.errors import DomainError, NotCoprime
from kreckstolz.exact_arith import (
    DECIMAL_INT,
    MAX_INPUT_DIGITS,
    Factorization,
    ResidueClass,
    crt_combine,
    excerpt,
    factorize,
    inv_mod,
    mod_one,
    ratio_mod_one,
    read_fraction,
    read_int,
    require_instance,
    sqrt_mod,
)

# The least strong pseudoprimes to all primes up to 37 and up to 41
# (Sorenson-Webster).
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981

# Frozen expected root sets for the worked examples used downstream.
ROOTS_9_MOD_672 = (3, 45, 291, 333, 339, 381, 627, 669)


def naive_sqrt_table(m: int) -> dict[int, list[int]]:
    """All square roots mod m by direct enumeration: a -> sorted roots."""
    table: dict[int, list[int]] = {}
    for x in range(m):
        table.setdefault(x * x % m, []).append(x)
    return table


def naive_is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


class TestModOne:
    def test_worked_example(self):
        assert mod_one(Fraction(-201, 952)) == Fraction(751, 952)

    def test_integers_collapse_to_zero(self):
        assert mod_one(Fraction(5)) == 0
        assert mod_one(Fraction(-3)) == 0
        assert mod_one(Fraction(0)) == 0

    def test_accepts_plain_int(self):
        assert mod_one(7) == 0

    @given(st.fractions())
    def test_range_and_integrality_of_difference(self, q):
        v = mod_one(q)
        assert 0 <= v < 1
        assert (q - v).denominator == 1

    @given(st.fractions(), st.fractions())
    def test_additivity(self, q1, q2):
        assert mod_one(q1 + q2) == mod_one(mod_one(q1) + mod_one(q2))

    @given(st.one_of(st.fractions(), st.integers()))
    def test_agrees_with_fraction_mod_one(self, q):
        v = mod_one(q)
        assert v == Fraction(q) % 1
        assert type(v) is Fraction


class TestRatioModOne:
    @given(st.integers(), st.integers().filter(bool))
    def test_agrees_with_fraction_mod_one(self, n, d):
        v = ratio_mod_one(n, d)
        assert v == Fraction(n, d) % 1
        assert type(v) is Fraction and 0 <= v.numerator < v.denominator

    def test_negative_denominator_and_integer_values(self):
        assert ratio_mod_one(1, -4) == Fraction(3, 4)
        assert ratio_mod_one(-8, 4) == 0
        assert ratio_mod_one(0, -3) == 0
        assert ratio_mod_one(-201, 952) == Fraction(751, 952)


class TestInvMod:
    def test_worked_example(self):
        assert inv_mod(10, 17) == 12

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            inv_mod(6, 9)

    def test_modulus_one(self):
        assert inv_mod(5, 1) == 0

    def test_nonpositive_modulus(self):
        with pytest.raises(DomainError, match="^modulus must be positive, got 0$"):
            inv_mod(3, 0)

    def test_negative_argument(self):
        a, m = -10, 17
        v = inv_mod(a, m)
        assert 0 <= v < m and (a * v) % m == 1

    @given(st.integers(min_value=-(10**9), max_value=10**9), st.integers(min_value=2, max_value=10**9))
    def test_inverse_law(self, a, m):
        if math.gcd(a, m) != 1:
            with pytest.raises(NotCoprime):
                inv_mod(a, m)
        else:
            v = inv_mod(a, m)
            assert 0 <= v < m
            assert (a * v) % m == 1


class TestFactorize:
    def test_672(self):
        assert factorize(672).pairs == ((2, 5), (3, 1), (7, 1))

    def test_9184(self):
        assert factorize(9184).pairs == ((2, 5), (7, 1), (41, 1))

    def test_one(self):
        assert factorize(1).pairs == ()

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            factorize(0)
        with pytest.raises(DomainError):
            factorize(-12)

    def test_value_round_trip(self):
        f = factorize(672)
        assert f.n == 672

    def test_exhaustive_small(self):
        for n in range(1, 4001):
            f = factorize(n)
            value = 1
            previous = 0
            for p, e in f.pairs:
                assert p > previous, "primes must be strictly increasing"
                assert e >= 1
                assert naive_is_prime(p)
                value *= p**e
                previous = p
            assert value == n

    def test_sampled_up_to_million(self):
        rng = random.Random(20260815)
        samples = [rng.randrange(2, 10**6) for _ in range(400)]
        # Boundary cases around the trial-division cutoff.  Trial division
        # runs up to 10**6, so only products of primes above it reach
        # Pollard rho: two distinct ones, a square, a cube, and PSI_12.
        samples += [999983, 999979 * 2, 999983 * 999979, 1000003 * 999983, 2**31 - 1]
        samples += [1000003 * 1000033, 1000003**2, 1000003**3, PSI_12]
        for n in samples:
            f = factorize(n)
            value = 1
            for p, e in f.pairs:
                assert naive_is_prime(p) or p > 10**7  # big primes checked by reconstruction
                value *= p**e
            assert value == n

    def test_strong_pseudoprimes_to_the_first_primes(self):
        # PSI_12 passes Miller-Rabin to every base up to 37 but not to 41.
        assert factorize(PSI_12).pairs == ((399165290221, 1), (798330580441, 1))
        # PSI_13 passes every base up to 41, so its primality is unproven.
        with pytest.raises(DomainError, match="cannot certify 3317044064679887385961981 as prime"):
            factorize(PSI_13)

    def test_factorization_is_hashable_and_ordered(self):
        assert factorize(12) == Factorization(pairs=((2, 2), (3, 1)))
        assert hash(factorize(12)) == hash(factorize(12))

    @pytest.mark.parametrize("pairs", [((3, 1), (2, 1)), ((2, 0),), ((1, 1),)], ids=["unordered", "zero_exponent", "one"])
    def test_factorization_validation(self, pairs):
        with pytest.raises(DomainError):
            Factorization(pairs)


class TestResidueClass:
    def test_str(self):
        assert str(ResidueClass(2, 504)) == "2 mod 504"

    def test_validation(self):
        with pytest.raises(DomainError):
            ResidueClass(5, 5)
        with pytest.raises(DomainError):
            ResidueClass(-1, 5)
        with pytest.raises(DomainError):
            ResidueClass(0, 0)

    def test_hashable_equality(self):
        assert ResidueClass(3, 7) == ResidueClass(3, 7)
        assert len({ResidueClass(3, 7), ResidueClass(3, 7)}) == 1


class TestCrtCombine:
    def test_worked_example(self):
        combined = crt_combine([ResidueClass(3, 32), ResidueClass(2, 7)])
        assert combined == ResidueClass(163, 224)

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            crt_combine([ResidueClass(1, 4), ResidueClass(3, 6)])

    def test_empty(self):
        assert crt_combine([]) == ResidueClass(0, 1)

    def test_single(self):
        assert crt_combine([ResidueClass(5, 9)]) == ResidueClass(5, 9)

    @given(st.lists(st.sampled_from([(2, 5), (3, 3), (5, 2), (7, 2), (11, 1), (13, 1)]), unique_by=lambda t: t[0], min_size=1, max_size=4), st.randoms(use_true_random=False))
    def test_round_trip(self, prime_powers, rng):
        residues = []
        for p, e in prime_powers:
            m = p**e
            residues.append(ResidueClass(rng.randrange(m), m))
        combined = crt_combine(residues)
        assert combined.modulus == math.prod(r.modulus for r in residues)
        for r in residues:
            assert combined.value % r.modulus == r.value


class TestSqrtMod:
    def test_nine_mod_672(self):
        roots = sqrt_mod(9, 672)
        assert roots == ROOTS_9_MOD_672
        assert len(roots) == 8
        assert {3, 627} <= set(roots)

    def test_zero_mod_seven(self):
        assert sqrt_mod(0, 7) == (0,)

    def test_3721_mod_9184(self):
        roots = sqrt_mod(3721, 9184)
        assert len(roots) == 16
        assert {61, 1251, 9123} <= set(roots)
        assert all(x * x % 9184 == 3721 for x in roots)

    def test_modulus_one(self):
        assert sqrt_mod(0, 1) == (0,)
        assert sqrt_mod(12, 1) == (0,)

    def test_nonpositive_modulus(self):
        with pytest.raises(DomainError, match="^modulus must be positive, got 0$"):
            sqrt_mod(1, 0)

    def test_input_reduced_mod_m(self):
        assert sqrt_mod(9 + 672, 672) == ROOTS_9_MOD_672
        assert sqrt_mod(9 - 672, 672) == ROOTS_9_MOD_672

    def test_no_roots(self):
        assert sqrt_mod(2, 3) == ()
        assert sqrt_mod(5, 8) == ()

    def test_exhaustive_agreement_small_moduli(self):
        for m in range(1, 321):
            table = naive_sqrt_table(m)
            for a in range(m):
                assert sqrt_mod(a, m) == tuple(table.get(a, ())), (a, m)

    def test_sampled_agreement_up_to_ten_thousand(self):
        rng = random.Random(7_0815)
        for _ in range(60):
            m = rng.randrange(321, 10_001)
            table = naive_sqrt_table(m)
            for _ in range(25):
                a = rng.randrange(m)
                assert sqrt_mod(a, m) == tuple(table.get(a, ())), (a, m)
            # Guaranteed-solvable cases as well: squares hit every root list.
            for _ in range(25):
                x = rng.randrange(m)
                a = x * x % m
                assert sqrt_mod(a, m) == tuple(table[a]), (a, m)

    @settings(deadline=None)
    @given(st.integers(min_value=1, max_value=10**6), st.data())
    def test_roots_square_correctly_and_close_under_negation(self, m, data):
        x = data.draw(st.integers(min_value=0, max_value=m - 1))
        a = x * x % m
        roots = sqrt_mod(a, m)
        assert x in roots
        assert list(roots) == sorted(set(roots))
        for y in roots:
            assert y * y % m == a
            assert (m - y) % m in roots


class TestReadInt:
    # Signs, digits (ASCII and Arabic-Indic), underscores and whitespace:
    # the characters of every text int() reads as a decimal integer.
    int_like = st.text(alphabet="0123456789\u0663_+- \t", max_size=12)

    @given(int_like)
    def test_decimal_int_matches_what_int_reads(self, text):
        try:
            int(text)
        except ValueError:
            assert DECIMAL_INT.fullmatch(text) is None
        else:
            assert DECIMAL_INT.fullmatch(text) is not None

    @given(int_like)
    def test_agrees_with_int(self, text):
        try:
            expected = int(text)
        except ValueError:
            with pytest.raises(DomainError, match=r"^'.*' is not an integer$"):
                read_int(text)
        else:
            assert read_int(text) == expected

    def test_leading_zeros(self):
        assert read_int("0" * 2000 + "7") == 7

    @pytest.mark.parametrize(
        "text",
        ["9" * 4301, "9" * 5000, " -" + "9_" * 4400 + "9\t", "+" + "9" * (MAX_INPUT_DIGITS + 1)],
        ids=["4301", "5000", "sign_underscores_spaces", "under_the_int_limit"],
    )
    def test_long_decimal_text_is_past_the_digit_bound(self, text):
        with pytest.raises(DomainError, match=f"^integers are limited to {MAX_INPUT_DIGITS} digits$"):
            read_int(text)

    def test_long_text_is_named_by_its_first_40_characters(self):
        text = "x" + "9" * 5000
        with pytest.raises(DomainError) as info:
            read_int(text)
        assert str(info.value) == f"{text[:40]!r}... is not an integer"


class TestReadFraction:
    @given(st.fractions(), st.sampled_from(["", " ", "\t"]))
    def test_reads_its_own_text(self, q, space):
        assert read_fraction(f"{space}{q}{space}") == q

    @pytest.mark.parametrize(
        "text, expected",
        [("3", 3), ("-3/4", Fraction(-3, 4)), ("+6/8", Fraction(3, 4)), ("0.25", Fraction(1, 4)),
         ("-.5", Fraction(-1, 2)), ("1_000/3", Fraction(1000, 3)), (" 5/6\t", Fraction(5, 6))],
    )
    def test_accepts_integers_ratios_and_decimals(self, text, expected):
        assert read_fraction(text) == expected

    @pytest.mark.parametrize("text", ["1e3", "2E-1", "1/2e3", "1/0", "0/0", "1//2", "x", "", "1/2/3", "0x10"])
    def test_refuses_exponents_zero_denominators_and_other_text(self, text):
        with pytest.raises(DomainError) as info:
            read_fraction(text)
        assert str(info.value) == f"invalid Fraction value: {text!r}"

    def test_long_text_is_named_by_its_first_40_characters(self):
        text = "x" + "9" * 5000
        with pytest.raises(DomainError) as info:
            read_fraction(text)
        assert str(info.value) == f"invalid Fraction value: {text[:40]!r}..."

    @pytest.mark.parametrize("digits", [MAX_INPUT_DIGITS + 1, 4301, 5000])
    @pytest.mark.parametrize(
        "spell", [lambda n: n, lambda n: f"-{n}/7", lambda n: f"1/{n}", lambda n: f"0.{n}"],
        ids=["integer", "numerator", "denominator", "decimal"],
    )
    def test_long_parts_are_past_the_digit_bound(self, spell, digits):
        with pytest.raises(DomainError, match=f"^integers are limited to {MAX_INPUT_DIGITS} digits$"):
            read_fraction(spell("9" * digits))


class TestExcerpt:
    @pytest.mark.parametrize(
        "value, shown",
        [("sphere", "'sphere'"), ("x" * 41, f"{'x' * 40!r}..."), (5, "5"), ((1, 1), "(1, 1)"),
         (tuple(range(30)), f"{str(tuple(range(30)))[:40]}..."), (10**5000, "<int>"), ((10**5000,), "<tuple>")],
        ids=["str", "long_str", "int", "tuple", "long_tuple", "int_past_the_text_limit", "tuple_past_the_text_limit"],
    )
    def test_shows_at_most_40_characters_of_any_value(self, value, shown):
        assert excerpt(value) == shown


class TestRequireInstance:
    def test_returns_a_value_of_the_kind(self):
        value = ResidueClass(1, 3)
        assert require_instance(value, ResidueClass, "c") is value
        assert require_instance(True, int, "n") is True

    @pytest.mark.parametrize(
        "value, kind, message",
        [
            (5, ResidueClass, "c must be a ResidueClass, got 5"),
            ("no", bool, "c must be a bool, got 'no'"),
            (None, int, "c must be an int, got None"),
            ("x" * 41, Factorization, f"c must be a Factorization, got {'x' * 40!r}..."),
        ],
        ids=["class", "bool", "article_an", "long_str"],
    )
    def test_names_the_parameter_and_the_kind(self, value, kind, message):
        with pytest.raises(DomainError) as caught:
            require_instance(value, kind, "c")
        assert str(caught.value) == message
