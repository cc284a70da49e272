"""Tests for Eschenburg biquotient parameters and their invariants."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from importlib import resources
from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kreckstolz.errors import (
    DegenerateOrder,
    DomainError,
    InconsistentFixture,
    ParseError,
    UnequalSums,
)
from kreckstolz.eschenburg import (
    EschenburgSpace,
    _representatives,
    enumerate_positively_curved,
    fixture_profile,
    invariants,
    is_free,
    is_positively_curved,
    load_fixtures,
    normalize,
    order_invariants,
)
from kreckstolz.exact_arith import MAX_INPUT_DIGITS, ResidueClass
from kreckstolz.profiles import CohomologyType, Pi4

W11 = EschenburgSpace((1, 1, -2), (0, 0, 0))


def sigma(values):
    a, b, c = values
    return (a + b + c, a * b + a * c + b * c, a * b * c)


# Strategy: balanced parameter pairs (equal entry sums) with nonzero order.
def balanced_spaces(max_entry=30):
    ints = st.integers(min_value=-max_entry, max_value=max_entry)

    def build(k1, k2, k3, l1, l2):
        l3 = k1 + k2 + k3 - l1 - l2
        return EschenburgSpace((k1, k2, k3), (l1, l2, l3))

    return st.builds(build, ints, ints, ints, ints, ints)


def box_scan(r_max):
    """enumerate_positively_curved by brute force over the whole box.

    It visits every (l1, l2, k1, k2) in the box of side 3*r_max and
    filters, so it is slow but plainly complete: the oracle for the
    scan of the library.
    """
    if r_max < 1:
        raise DomainError(f"r_max must be positive, got {r_max}")
    bound = 3 * r_max
    found: set[EschenburgSpace] = set()
    for l1 in range(bound + 1):
        for l2 in range(l1 + 1):
            total = l1 + l2
            sig2_l = l1 * l2
            for k1 in range(-(-total // 3), bound + 1):
                rest = total - k1
                k2_lo = max(-(-rest // 2), rest - bound)  # k2 >= k3 and k3 <= bound
                k2_hi = min(k1, rest + bound)
                for k2 in range(k2_lo, k2_hi + 1):
                    k3 = rest - k2
                    r = abs(k1 * k2 + k3 * (k1 + k2) - sig2_l)
                    if r < 1 or r >= r_max:
                        continue
                    space = EschenburgSpace((k1, k2, k3), (l1, l2, 0))
                    if is_positively_curved(space) and is_free(space):
                        found.add(normalize(space))
    return sorted(found, key=lambda s: (invariants(s).r, s.k, s.l))


class TestConstruction:
    def test_homogeneous_member(self):
        assert EschenburgSpace.homogeneous(1, 1) == W11

    def test_tuple_coercion(self):
        s = EschenburgSpace([1, 1, -2], [0, 0, 0])
        assert s.k == (1, 1, -2) and s.l == (0, 0, 0)

    def test_wrong_arity(self):
        with pytest.raises(Exception):
            EschenburgSpace((1, 2), (0, 0, 0))

    def test_unequal_sums(self):
        # A space is balanced once built, so no consumer checks the sums again.
        with pytest.raises(UnequalSums) as exc:
            EschenburgSpace((1, 0, 0), (0, 0, 0))
        assert str(exc.value) == "sum 1 != 0 for (1, 0, 0), (0, 0, 0)"


@pytest.mark.parametrize("call", [is_free, is_positively_curved, order_invariants, invariants, normalize])
@pytest.mark.parametrize("value", [5, None, ((1, 1, -2), (0, 0, 0))])
def test_entry_points_refuse_what_is_not_a_space(call, value):
    with pytest.raises(DomainError, match="^space must be an EschenburgSpace, got "):
        call(value)


class TestFreeness:
    def test_examples(self):
        assert is_free(W11) is True
        assert is_free(EschenburgSpace((2, 2, 2), (6, 0, 0))) is False
        assert is_free(EschenburgSpace((1, 2, 5), (8, 0, 0))) is True

    def test_unequal_sums(self):
        # The constructor refuses the space before is_free can see it.
        with pytest.raises(UnequalSums):
            is_free(EschenburgSpace((1, 0, 0), (0, 0, 0)))

    @given(balanced_spaces())
    def test_matches_all_assignment_readings(self, space):
        # The 6-permutation reading must coincide with requiring gcd 1 for
        # every pair of differences taken at distinct indices on both sides.
        by_permutation = all(
            math.gcd(
                space.k[0] - space.l[p[0]],
                space.k[1] - space.l[p[1]],
                space.k[2] - space.l[p[2]],
            )
            == 1
            for p in permutations(range(3))
        )
        pairwise = all(
            math.gcd(space.k[i1] - space.l[j1], space.k[i2] - space.l[j2]) == 1
            for i1, i2 in permutations(range(3), 2)
            for j1, j2 in permutations(range(3), 2)
        )
        assert is_free(space) == by_permutation == pairwise


class TestCurvature:
    def test_examples(self):
        assert is_positively_curved(EschenburgSpace((1, 2, 5), (8, 0, 0))) is True
        assert is_positively_curved(EschenburgSpace((1, 0, -1), (0, 0, 0))) is False
        assert is_positively_curved(EschenburgSpace((3, 1, 4), (0, 0, 8))) is True
        assert is_positively_curved(W11) is True

    @given(balanced_spaces())
    def test_matches_per_index_reading(self, space):
        lo_l, hi_l = min(space.l), max(space.l)
        lo_k, hi_k = min(space.k), max(space.k)
        per_index = all(
            not (lo_l <= ki <= hi_l) or not (lo_k <= li <= hi_k)
            for ki, li in zip(space.k, space.l)
        )
        # The two readings agree only pointwise per matched index when the
        # sums are equal; the library uses the global form.
        global_form = all(not (lo_l <= ki <= hi_l) for ki in space.k) or all(
            not (lo_k <= li <= hi_k) for li in space.l
        )
        assert global_form == is_positively_curved(space)
        if global_form:
            assert per_index
        # Conversely the per-index form implies the global one (this is a
        # theorem for equal sums, exercised here on random instances).
        if per_index:
            assert global_form


class TestInvariants:
    def test_w11(self):
        inv = invariants(W11)
        assert inv.r == 3
        assert inv.s_signed == -2
        assert inv.p1 == ResidueClass(0, 3)
        assert inv.free and inv.positively_curved
        assert inv.lk_pair == frozenset({ResidueClass(1, 3), ResidueClass(2, 3)})

    def test_17_example(self):
        inv = invariants(EschenburgSpace((1, 2, 5), (8, 0, 0)))
        assert inv.r == 17
        assert inv.p1 == ResidueClass(9, 17)
        assert inv.s_signed == 10

    def test_41_example(self):
        inv = invariants(EschenburgSpace((2, 3, 7), (12, 0, 0)))
        assert inv.r == 41

    def test_order_one(self):
        # sigma2 differs by 1: lk undefined (the group is trivial).
        space = EschenburgSpace((1, 0, 0), (1, 0, 0))
        with pytest.raises(DegenerateOrder):
            invariants(space)

    def test_degenerate(self):
        with pytest.raises(DegenerateOrder):
            invariants(EschenburgSpace((1, 1, 1), (1, 1, 1)))

    def test_unequal_sums(self):
        # The constructor refuses the space before invariants can see it.
        with pytest.raises(UnequalSums):
            invariants(EschenburgSpace((1, 0, 0), (0, 0, 0)))

    def test_lk_none_when_r_is_one(self):
        space = EschenburgSpace((2, 0, 0), (1, 1, 0))
        inv = invariants(space)
        assert inv.r == 1
        assert inv.lk_pair is None

    @given(balanced_spaces())
    def test_symmetry_invariance(self, space):
        try:
            base = invariants(space)
        except DegenerateOrder:
            return
        rng = random.Random(hash(space.k + space.l) & 0xFFFF)
        pk = tuple(rng.sample(range(3), 3))
        pl = tuple(rng.sample(range(3), 3))
        c = rng.randrange(-5, 6)
        transforms = [
            EschenburgSpace(tuple(space.k[i] for i in pk), tuple(space.l[i] for i in pl)),
            EschenburgSpace(tuple(v + c for v in space.k), tuple(v + c for v in space.l)),
            EschenburgSpace(tuple(-v for v in space.k), tuple(-v for v in space.l)),
            EschenburgSpace(space.l, space.k),
        ]
        for other in transforms:
            inv = invariants(other)
            assert inv.r == base.r
            assert inv.p1 == base.p1
            assert inv.free == base.free
            assert inv.positively_curved == base.positively_curved
            assert inv.s_signed % base.r in {base.s_signed % base.r, -base.s_signed % base.r}
            assert inv.lk_pair == base.lk_pair

    @given(balanced_spaces(), st.integers(min_value=-8, max_value=8))
    def test_shift_law(self, space, c):
        try:
            base = invariants(space)
        except DegenerateOrder:
            return
        shifted = EschenburgSpace(tuple(v + c for v in space.k), tuple(v + c for v in space.l))
        inv = invariants(shifted)
        sig2_k = sigma(space.k)[1]
        sig2_l = sigma(space.l)[1]
        # The signed third-symmetric-function difference moves by c times the
        # second-symmetric-function difference, hence is constant modulo r.
        assert inv.s_signed == base.s_signed + c * (sig2_k - sig2_l)
        assert inv.s_signed % base.r == base.s_signed % base.r

    @given(balanced_spaces())
    def test_free_implies_unit_linking_number(self, space):
        try:
            inv = invariants(space)
        except DegenerateOrder:
            return
        if inv.free:
            assert math.gcd(inv.s_signed, inv.r) == 1
            if inv.r > 1:
                assert inv.lk_pair is not None


class TestNormalize:
    def test_shift_negation_equivalence(self):
        a = normalize(EschenburgSpace((1, 1, -2), (0, 0, 0)))
        b = normalize(EschenburgSpace((2, 2, -1), (1, 1, 1)))
        assert a == b

    def test_min_l_is_zero(self):
        n = normalize(EschenburgSpace((1, 2, 5), (8, 0, 0)))
        assert min(n.l) == 0
        assert n.k == tuple(sorted(n.k)) and n.l == tuple(sorted(n.l))

    def test_family_order(self):
        p = 3
        space = EschenburgSpace((p, 1, 1), (p + 2, 0, 0))
        assert invariants(space).r == 2 * p + 1 == 7
        assert invariants(normalize(space)).r == 7

    @given(balanced_spaces(), st.integers(min_value=-6, max_value=6))
    def test_canonical_under_group(self, space, c):
        rng = random.Random((hash(space.k + space.l) ^ c) & 0xFFFF)
        base = normalize(space)
        pk = tuple(rng.sample(range(3), 3))
        pl = tuple(rng.sample(range(3), 3))
        k = tuple(space.k[i] + c for i in pk)
        l = tuple(space.l[i] + c for i in pl)
        variants = [
            EschenburgSpace(k, l),
            EschenburgSpace(tuple(-v for v in k), tuple(-v for v in l)),
            EschenburgSpace(l, k),
        ]
        for v in variants:
            assert normalize(v) == base


class TestEnumerate:
    def test_contains_w11(self):
        spaces = enumerate_positively_curved(4)
        assert normalize(W11) in spaces

    def test_all_results_valid(self):
        spaces = enumerate_positively_curved(10)
        seen = set()
        for s in spaces:
            inv = invariants(s)
            assert inv.free and inv.positively_curved
            assert 1 <= inv.r < 10
            assert inv.r % 2 == 1
            assert s == normalize(s)
            assert s not in seen
            seen.add(s)
        rs = [invariants(s).r for s in spaces]
        assert rs == sorted(rs)

    def test_every_small_odd_order_is_hit(self):
        spaces = enumerate_positively_curved(10)
        orders = {invariants(s).r for s in spaces}
        # The two-parameter family (p,1,1),(p+2,0,0) realizes every odd
        # order 2p+1 >= 3, and those representatives are free and curved.
        assert {3, 5, 7, 9} <= orders

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(DomainError, match="^r_max must be positive, got 0$"):
            enumerate_positively_curved(0)

    @pytest.mark.parametrize("r_max", range(1, 17))
    def test_matches_box_scan(self, r_max):
        # The one-branch scan yields the box's classes: same spaces, same order.
        assert enumerate_positively_curved(r_max) == box_scan(r_max)

    @pytest.mark.parametrize("r_max", range(1, 14))
    def test_scan_visits_every_box_point(self, r_max):
        # Every class of the box appears exactly once, in its normalized
        # form, so a pruning error cannot hide behind another form of the
        # same class; compare the scan's forms themselves.
        bound = 3 * r_max
        expected = set()
        for l1 in range(bound + 1):
            for l2 in range(l1 + 1):
                for k1 in range(-bound, bound + 1):
                    for k2 in range(-bound, k1 + 1):
                        k3 = l1 + l2 - k1 - k2
                        if not -bound <= k3 <= k2:
                            continue
                        space = EschenburgSpace((k1, k2, k3), (l1, l2, 0))
                        r = abs(sigma(space.k)[1] - sigma(space.l)[1])
                        if 1 <= r < r_max and is_positively_curved(space) and is_free(space):
                            expected.add((normalize(space), r))
        found = list(_representatives(r_max))
        assert len(found) == len(set(found))
        assert all(normalize(space) == space for space, _ in found)
        assert set(found) == expected


class TestFixtures:
    GOOD = """
# registry of spaces with known characteristic numbers
1 1 -2 | 0 0 0 | 1/112 -1/36 1/18

2 3 7 | 12 0 0 | 115/287 65/164 -33/82  # trailing comment
"""

    def test_load_good(self, tmp_path):
        path = tmp_path / "fixtures.txt"
        path.write_text(self.GOOD)
        fixtures = load_fixtures(path)
        assert len(fixtures) == 2
        first = fixtures[0]
        assert first.space == W11
        assert first.s1 == Fraction(1, 112)
        assert first.s2 == Fraction(35, 36)   # stored reduced modulo 1
        assert first.s3 == Fraction(1, 18)
        assert fixtures[1].space.k == (2, 3, 7)

    def test_load_from_string_lines(self, tmp_path):
        path = tmp_path / "fixtures.txt"
        path.write_text("1 1 -2 | 0 0 0 | 1/112 35/36 1/18\n")
        [fx] = load_fixtures(path)
        assert fx.s2 == Fraction(35, 36)

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# fine\n1 1 -2 | 0 0 | 1/112 35/36 1/18\n")
        with pytest.raises(ParseError) as exc:
            load_fixtures(path)
        assert exc.value.line_number == 2

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
    def test_non_utf8_bytes_are_parse_error_on_their_line(self, tmp_path, newline):
        path = tmp_path / "bad.txt"
        lines = [b"# fine", b"1 1 -2 | 0 0 0 | 1/112 35/36 1/18", b"", b"2 3 7 | 12 0 0 | 0 0 0  # \xe9t\xe9"]
        path.write_bytes(newline.join(lines) + newline)
        with pytest.raises(ParseError) as exc:
            load_fixtures(path)
        assert exc.value.line_number == 4
        assert str(exc.value) == "line 4: not valid UTF-8 (invalid continuation byte)"

    def test_parse_error_non_integer(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 1 x | 0 0 0 | 0 0 0\n")
        with pytest.raises(ParseError) as exc:
            load_fixtures(path)
        assert exc.value.line_number == 1

    def test_parse_error_wrong_number_of_parts(self, tmp_path):
        # The mutation fuzz below reaches this message only by chance.
        path = tmp_path / "bad.txt"
        path.write_text("1 1 -2 | 0 0 0\n")
        with pytest.raises(ParseError) as exc:
            load_fixtures(path)
        assert str(exc.value) == "line 1: expected 'k1 k2 k3 | l1 l2 l3 | s1 s2 s3'"

    def test_parse_error_bad_fraction(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 1 -2 | 0 0 0 | 1/112 35//36 1/18\n")
        with pytest.raises(ParseError):
            load_fixtures(path)

    def test_inconsistent_denominator(self, tmp_path):
        path = tmp_path / "bad.txt"
        # r = 3 here, so the s1 denominator must divide 224*3 = 672; 5 does not.
        path.write_text("1 1 -2 | 0 0 0 | 1/5 0 0\n")
        with pytest.raises(InconsistentFixture):
            load_fixtures(path)

    def test_s_values_must_be_integers_or_ratios(self, tmp_path):
        # Fraction would read these, and an exponent sets how large a power
        # of ten it builds.
        path = tmp_path / "bad.txt"
        for token in ("1e100000000", "0.5", "1/2e3"):
            path.write_text(f"1 1 -2 | 0 0 0 | 1/112 35/36 {token}\n")
            with pytest.raises(ParseError, match="s-values must be fractions"):
                load_fixtures(path)

    @pytest.mark.parametrize("digits", [4301, 5000])
    @pytest.mark.parametrize("spell", ["{}", "-1/{}"], ids=["numerator", "denominator"])
    def test_long_s_value_is_past_the_digit_bound(self, tmp_path, spell, digits):
        # The same reader as the --s flags: int() alone refuses these for their length.
        path = tmp_path / "bad.txt"
        path.write_text(f"1 1 -2 | 0 0 0 | 1/112 35/36 {spell.format('9' * digits)}\n")
        with pytest.raises(ParseError) as exc:
            load_fixtures(path)
        assert str(exc.value) == f"line 1: integers are limited to {MAX_INPUT_DIGITS} digits"

    def test_zero_denominator_is_parse_error(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 1 -2 | 0 0 0 | 1/112 35/36 1/0\n")
        with pytest.raises(ParseError) as exc:
            load_fixtures(path)
        assert str(exc.value) == "line 1: invalid Fraction value: '1/0'"

    def test_inconsistent_space(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 1 1 | 1 1 1 | 0 0 0\n")
        with pytest.raises(InconsistentFixture):
            load_fixtures(path)

    def test_unbalanced_space(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 0 0 | 0 0 0 | 0 0 0\n")
        with pytest.raises(InconsistentFixture) as exc:
            load_fixtures(path)
        assert str(exc.value) == "line 1: sum 1 != 0 for (1, 0, 0), (0, 0, 0)"

    def test_packaged_default(self):
        fixtures = load_fixtures()
        assert any(fx.space == W11 for fx in fixtures)

    def test_packaged_default_returns_a_new_list_each_call(self):
        first = load_fixtures()
        second = load_fixtures()
        assert first == second
        assert first is not second
        first.clear()
        assert load_fixtures() == second
        assert len(second) == 19

    def test_explicit_source_is_reread_each_call(self, tmp_path):
        path = tmp_path / "fixtures.txt"
        path.write_text("1 1 -2 | 0 0 0 | 1/112 -1/36 1/18\n")
        [fx] = load_fixtures(path)
        assert fx.space == W11
        path.write_text(self.GOOD)
        assert len(load_fixtures(path)) == 2
        path.write_text("1 1 -2 | 0 0 0 | 1/5 0 0\n")
        with pytest.raises(InconsistentFixture):
            load_fixtures(path)

    def test_fixture_profile(self, tmp_path):
        path = tmp_path / "fixtures.txt"
        path.write_text("1 1 -2 | 0 0 0 | 1/112 -1/36 1/18\n")
        [fx] = load_fixtures(path)
        profile = fixture_profile(fx)
        assert profile.cohomology_type is CohomologyType.E
        assert profile.r == 3
        assert profile.s_triple == (Fraction(1, 112), Fraction(35, 36), Fraction(1, 18))
        assert profile.p1 == ResidueClass(0, 3)
        assert profile.lk == frozenset({ResidueClass(1, 3), ResidueClass(2, 3)})
        assert profile.pi4 is Pi4.ZERO


CATALOG = resources.files("kreckstolz.data").joinpath("eschenburg_fixtures.txt").read_bytes()
CATALOG_LINES = [line for line in CATALOG.splitlines() if line.strip() and not line.startswith(b"#")]

# (edit, position, bytes): a position is taken modulo the line length.
edits = st.tuples(
    st.sampled_from(("delete", "insert", "replace")),
    st.integers(min_value=0),
    st.one_of(st.sampled_from([c.encode() for c in " -+/|#0123456789e._\t\n"]), st.binary(min_size=1, max_size=2)),
)


def mutated(line: bytes, mutations) -> bytes:
    for edit, position, text in mutations:
        i = position % (len(line) + 1)
        if edit == "insert":
            line = line[:i] + text + line[i:]
        else:
            line = line[:i] + (text if edit == "replace" else b"") + line[i + 1:]
    return line


@given(st.sampled_from(CATALOG_LINES), st.lists(edits, min_size=1, max_size=3))
def test_mutated_catalog_lines_raise_only_parse_or_consistency_errors(tmp_path_factory, line, mutations):
    path = tmp_path_factory.getbasetemp() / "mutated.txt"
    path.write_bytes(mutated(line, mutations) + b"\n")
    try:
        load_fixtures(path)
    except (ParseError, InconsistentFixture):
        pass

