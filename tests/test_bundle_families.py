"""Tests for the four bundle families.

The oracle below recomputes every characteristic number term by term
with Fractions, transcribed independently from the closed forms used by
the library (which clears denominators first). Agreement on a grid
guards against transcription slips in either place.
"""

from __future__ import annotations

import math
from fractions import Fraction as Fr

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from kreckstolz.bundle_families import (
    BundleSpec,
    Family,
    choose_mn,
    describe_bundle,
    natural_partner,
    parse_bundle_spec,
    profile,
    profile_circle,
    profile_sphere,
    profile_spin_circle,
    profile_spin_sphere,
    _circle_profile,
    _spin_circle_profile,
    _switch,
)
from kreckstolz.atlas_search import (
    AtlasIndex,
    build_index,
    eschenburg_descriptor,
    find_matches,
    fixture_entries,
    fixture_source,
    match_all,
    parse_source,
    parse_space,
    profile_key,
    render_matches_json,
    render_matches_text,
    render_matches_tsv,
    render_table_text,
    reproduce_table,
    sphere_source,
)
from kreckstolz.classification import (
    EdiffeoProblem,
    Orientation,
    chen_bundle,
    ediffeo_solve,
    kruggel_homotopy,
    ks_diffeomorphic,
    ks_homeomorphic,
    sphere_congruence_classify,
    torus_reduction,
)
from kreckstolz.errors import DegenerateOrder, DomainError, NotCoprime
from kreckstolz.eschenburg import fixture_profile
from kreckstolz.exact_arith import ResidueClass, mod_one
from kreckstolz.profiles import (
    CohomologyType,
    Pi4,
    reversed_profile,
)
from oracles import lk_diffeomorphic, lk_homeomorphic


def same_invariants(p, q):
    return ks_diffeomorphic(p, q) is Orientation.PRESERVING and p.p1 == q.p1

# ---------------------------------------------------------------------------
# Oracle: naive term-by-term evaluation of the published closed forms.
# ---------------------------------------------------------------------------


def oracle_sphere(a, b):
    d = a - b
    sgn = 1 if d > 0 else -1
    s1 = Fr((a + b + 2) ** 2, 2**5 * 7 * d) - Fr(sgn, 2**5 * 7)
    s2 = -Fr(a + b + 1, 2**3 * 3 * d)
    s3 = -Fr(a + b - 2, 2 * 3 * d)
    return mod_one(s1), mod_one(s2), mod_one(s3)


def oracle_spin_sphere(a, b):
    d = a - b
    sgn = 1 if d > 0 else -1
    s1 = Fr((2 * a + 2 * b + 3) ** 2, 2**7 * 7 * d) - Fr(4 * a + 4 * b + 5, 2**7 * 3 * d) - Fr(sgn, 2**5 * 7)
    s2 = -Fr(a + b - 1, 2**2 * 3 * d)
    s3 = -Fr(a + b - 5, 2**2 * d)
    return mod_one(s1), mod_one(s2), mod_one(s3)


def oracle_circle(t, a, b, m, n):
    assert a * m - b * n == 1
    s = t * (a + b) ** 2 - a * b
    assert s != 0
    if s > 0:
        sw = 0
    else:
        sw = 2 if b + (1 - t) * (a + b) > 0 else -2
    A, M = a + b, m + n
    s1 = (
        -Fr(sw, 2**5 * 7)
        - Fr(A * (t - 1) ** 2, 2**3 * 7 * s)
        + Fr(A, 2**5 * 3 * 7) * (3 * a * b + (t - 1) * (8 + A**2))
    )
    brace1 = (
        (t - 1) * M * (2 - A * M - 2 * M**2)
        - a * m * (m + 2 * n)
        - b * n * (n + 2 * m)
        - 6 * m * n * M
    )
    brace2 = (
        (t**2 - 1) * A * M**2 * (2 - M**2)
        + (t - 1)
        * (
            m**4 * (3 * a + b)
            + n**4 * (a + 3 * b)
            - 2 * A * M**2
            + 2 * (a * m**2 + b * n**2) * (2 * n * m - 1)
        )
        + a * m**4
        + b * n**4
        - 6 * m**2 * n**2 * A
        - 4 * m * n * (a * n**2 + b * m**2)
    )
    s2 = Fr(brace1, 2**3 * 3) + Fr(brace2, 2**3 * 3 * s)
    brace1p = (
        (t - 1) * M * (1 - A * M - 4 * M**2)
        - a * m * (m + 2 * n)
        - b * n * (n + 2 * m)
    )
    brace2p = (
        (t**2 - 1) * A * M**2 * (1 - 2 * M**2)
        + (t - 1)
        * (
            2 * m**4 * (3 * a + b)
            + 2 * n**4 * (a + 3 * b)
            - A * M**2
            + (a * m**2 + b * n**2) * (8 * n * m - 1)
        )
        + 2 * a * m**4
        + 2 * b * n**4
        - 12 * m**2 * n**2 * A
        - 8 * m * n * (a * n**2 + b * m**2)
    )
    s3 = Fr(brace1p, 2 * 3) + Fr(brace2p, 3 * s)
    lk_bracket = (
        -(t**2) * A * M**4
        + t * (m**4 * (3 * a + b) + n**4 * (a + 3 * b) + 4 * n * m * (a * m**2 + b * n**2))
        - a * m**4
        - b * n**4
    )
    return mod_one(s1), mod_one(s2), mod_one(s3), mod_one(Fr(lk_bracket, s))


def oracle_spin_circle(t, a, b, m, n):
    assert a * m + b * n == 1
    if b % 2 == 1:
        assert m % 2 == 1
    s = a * a - t * b * b
    assert s != 0
    if s > 0:
        sw = 0
    else:
        sw = 2 if b * (t + 1) > 0 else -2
    Q = n * n + t * m * m
    g = b * Q - 2 * a * n * m
    alpha = a * Q + 2 * t * b * n * m
    beta = b * Q + 2 * a * n * m
    common_s1 = (
        -Fr(sw, 2**5 * 7)
        + Fr(b * (6 + 8 * t + 3 * a * a + b * b * t), 2**7 * 7)
        - Fr(b * (3 + 4 * t) ** 2, 2**7 * 7 * s)
    )
    if b % 2 == 0:
        s1 = common_s1
        s2 = -Fr(g, 2**4 * 3) - Fr(4 * n * m * alpha - (3 + 4 * t - 2 * Q) * beta, 2**4 * 3 * s)
        s3 = -Fr(g, 2**2 * 3) - Fr(16 * n * m * alpha - (3 + 4 * t - 8 * Q) * beta, 2**2 * 3 * s)
    else:
        s1 = (
            common_s1
            - Fr(g, 2**6 * 3)
            + Fr(-2 * n * m * alpha + (6 + 8 * t - Q) * beta, 2**7 * 3 * s)
        )
        s2 = -Fr(g, 2**3 * 3) - Fr(10 * n * m * alpha - (3 + 4 * t - 5 * Q) * beta, 2**3 * 3 * s)
        s3 = -Fr(g, 2**3) - Fr(26 * n * m * alpha - (3 + 4 * t - 13 * Q) * beta, 2**3 * s)
    lk_bracket = b * n**4 + 6 * b * t * n * n * m * m + 4 * a * t * n * m**3 + 4 * a * n**3 * m + b * t * t * m**4
    return mod_one(s1), mod_one(s2), mod_one(s3), mod_one(-Fr(lk_bracket, s))


def lk_singleton(profile_obj):
    assert profile_obj.lk is not None and len(profile_obj.lk) == 1
    return next(iter(profile_obj.lk)).value


def coprime_pairs(limit):
    return [
        (a, b)
        for a in range(-limit, limit + 1)
        for b in range(-limit, limit + 1)
        if math.gcd(a, b) == 1
    ]


# ---------------------------------------------------------------------------
# Worked examples.
# ---------------------------------------------------------------------------


class TestSphere:
    def test_small_example(self):
        p = profile_sphere(2, -1)
        assert p.s_triple == (Fr(1, 112), Fr(35, 36), Fr(1, 18))
        assert p.r == 3
        assert p.cohomology_type is CohomologyType.E
        assert p.p1 == ResidueClass(0, 3)
        assert p.pi4 is Pi4.UNKNOWN  # odd order: suspected trivial, not proven
        assert lk_singleton(p) == 1

    def test_large_example(self):
        p = profile_sphere(2285, 2244)
        assert p.s_triple == (Fr(115, 287), Fr(65, 164), Fr(49, 82))
        assert p.r == 41

    def test_degenerate(self):
        with pytest.raises(DegenerateOrder):
            profile_sphere(2, 2)

    def test_even_order_pi4(self):
        assert profile_sphere(3, 1).pi4 is Pi4.Z2

    def test_reversal_swaps_parameters(self):
        for a, b in [(2, -1), (5, 2), (0, 7), (-3, 4)]:
            assert profile_sphere(b, a) == reversed_profile(profile_sphere(a, b))

    def test_oracle_agreement(self):
        for a in range(-15, 16):
            for b in range(-15, 16):
                if a == b:
                    continue
                p = profile_sphere(a, b)
                assert p.s_triple == oracle_sphere(a, b)
                assert p.p1.value == (2 * a + 2 * b + 4) % p.r
                if p.r > 1:
                    assert lk_singleton(p) == (1 if a > b else -1) % p.r

    def test_s3_is_affine_in_s2(self):
        for a in range(-20, 21):
            for d in range(1, 8):
                p = profile_sphere(a, a - d)
                assert p.s3 == mod_one(4 * p.s2 + Fr(1, 2 * d))

    def test_denominator_bounds(self):
        for a in range(-12, 13):
            for b in range(-12, 13):
                if a == b:
                    continue
                p = profile_sphere(a, b)
                assert (224 * p.r) % p.s1.denominator == 0
                assert (24 * p.r) % p.s2.denominator == 0
                assert (6 * p.r) % p.s3.denominator == 0


class TestSpinSphere:
    def test_zero_one(self):
        p = profile_spin_sphere(0, 1)
        assert p.s_triple == (Fr(0), Fr(0), Fr(0))
        assert p.r == 1
        assert p.cohomology_type is CohomologyType.EBAR
        assert p.pi4 is Pi4.UNKNOWN
        assert p.lk is None

    def test_chen_example_order(self):
        assert profile_spin_sphere(62500, 57600).r == 4900

    def test_degenerate(self):
        with pytest.raises(DegenerateOrder):
            profile_spin_sphere(5, 5)

    def test_reversal_swaps_parameters(self):
        for a, b in [(4, 0), (1, -2), (7, 3)]:
            assert profile_spin_sphere(b, a) == reversed_profile(profile_spin_sphere(a, b))

    def test_oracle_agreement(self):
        for a in range(-15, 16):
            for b in range(-15, 16):
                if a == b:
                    continue
                p = profile_spin_sphere(a, b)
                assert p.s_triple == oracle_spin_sphere(a, b)
                assert p.p1.value == (2 * a + 2 * b + 3) % p.r


class TestChooseMn:
    def test_circle(self):
        for a, b in coprime_pairs(12):
            m, n = choose_mn(Family.CIRCLE, a, b)
            assert a * m - b * n == 1

    def test_spin_circle_parity(self):
        for a, b in coprime_pairs(12):
            m, n = choose_mn(Family.SPIN_CIRCLE, a, b)
            assert a * m + b * n == 1
            if b % 2 == 1:
                assert m % 2 == 1

    @given(st.integers(-(10**9), 10**9), st.integers(-(10**9), 10**9))
    @example(1, 0)
    @example(-1, 0)
    @example(7, 1)
    @example(-8, 1)
    @example(6, -1)
    @example(-9, -1)
    @example(0, 1)
    @example(0, -1)
    def test_relation_and_parity_at_scale(self, a, b):
        if math.gcd(a, b) != 1:
            for family in (Family.CIRCLE, Family.SPIN_CIRCLE):
                with pytest.raises(NotCoprime):
                    choose_mn(family, a, b)
            return
        m, n = choose_mn(Family.CIRCLE, a, b)
        assert a * m - b * n == 1
        m, n = choose_mn(Family.SPIN_CIRCLE, a, b)
        assert a * m + b * n == 1
        if b % 2 == 1:
            assert m % 2 == 1

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            choose_mn(Family.CIRCLE, 2, 4)

    def test_wrong_family(self):
        with pytest.raises(DomainError, match="^\\(m, n\\) only exists for circle families, not 'sphere'$"):
            choose_mn(Family.SPHERE, 2, 1)

    @pytest.mark.parametrize("family, shown", [("circle", "'circle'"), (None, "None")])
    def test_a_family_that_is_no_family_member_is_domain_error(self, family, shown):
        with pytest.raises(DomainError, match=f"^\\(m, n\\) only exists for circle families, not {shown}$"):
            choose_mn(family, 2, 1)

    @pytest.mark.parametrize("bad", ["3", 1.5, None, True])
    @pytest.mark.parametrize("family", [Family.CIRCLE, Family.SPIN_CIRCLE])
    def test_non_int_parameters_are_domain_errors(self, family, bad):
        with pytest.raises(DomainError, match="^parameter a must be an integer$"):
            choose_mn(family, bad, 2)
        with pytest.raises(DomainError, match="^parameter b must be an integer$"):
            choose_mn(family, 1, bad)


class TestNoCallerPair:
    """The profile constructors take their pair from choose_mn only."""

    def test_mn_keyword_is_gone(self):
        with pytest.raises(TypeError):
            profile_circle(1, 2, 1, mn=(1, 0))
        with pytest.raises(TypeError):
            profile_spin_circle(1, 3, 1, mn=(1, 0))


class TestCircle:
    def test_w11(self):
        p = profile_circle(1, 1, 1)
        assert p.s_triple == (Fr(1, 112), Fr(35, 36), Fr(1, 18))
        assert p.r == 3
        assert p.cohomology_type is CohomologyType.E
        assert p.pi4 is Pi4.ZERO
        assert p.p1 == ResidueClass(0, 3)

    def test_table_anchor(self):
        p = profile_circle(-403, 638, -607)
        assert p.r == 17
        assert p.s_triple == (Fr(751, 952), Fr(55, 204), Fr(23, 102))
        assert p.p1 == ResidueClass(9, 17)

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            profile_circle(1, 2, 4)

    def test_degenerate(self):
        with pytest.raises(DegenerateOrder):
            profile_circle(0, 1, 0)  # s = t(a+b)^2 - ab = 0

    def test_order_one(self):
        p = profile_circle(1, 1, -1)  # s = 1
        assert p.r == 1 and p.lk is None

    def test_pi4(self):
        assert profile_circle(2, 1, 1).pi4 is Pi4.Z2
        assert profile_circle(1, 1, 1).pi4 is Pi4.ZERO
        assert profile_circle(-1, 1, 1).pi4 is Pi4.ZERO
        assert profile_circle(3, 1, 1).pi4 is Pi4.UNKNOWN

    def test_oracle_agreement(self):
        for t in range(-4, 5):
            for a, b in coprime_pairs(6):
                s = t * (a + b) ** 2 - a * b
                if s == 0:
                    continue
                mn = choose_mn(Family.CIRCLE, a, b)
                p = profile_circle(t, a, b)
                o1, o2, o3, olk = oracle_circle(t, a, b, *mn)
                assert p.s_triple == (o1, o2, o3)
                assert p.p1.value == (4 * (1 - t) * (a + b) ** 2) % p.r
                if p.r > 1:
                    want = olk * p.r
                    assert want.denominator == 1
                    assert lk_singleton(p) == int(want) % p.r

    def test_mn_independence(self):
        for t in range(-4, 5):
            for a, b in coprime_pairs(5):
                s = t * (a + b) ** 2 - a * b
                if s == 0:
                    continue
                base = profile_circle(t, a, b)
                m, n = choose_mn(Family.CIRCLE, a, b)
                for j in range(-5, 6):
                    assert _circle_profile(t, a, b, m + j * b, n + j * a) == base

    def test_parameter_swap(self):
        for t in range(-4, 5):
            for a, b in coprime_pairs(6):
                if t * (a + b) ** 2 - a * b == 0:
                    continue
                assert profile_circle(t, a, b) == profile_circle(t, b, a)

    def test_negation_reverses(self):
        for t in range(-4, 5):
            for a, b in coprime_pairs(6):
                if t * (a + b) ** 2 - a * b == 0:
                    continue
                assert profile_circle(t, -a, -b) == reversed_profile(profile_circle(t, a, b))

    def test_sign_w_unreachable_branch(self):
        # s < 0 forces b + (1-t)(a+b) != 0: if it vanished, a+b | 1 and then
        # s = 1 + b^2 > 0. Exercised over a grid for confidence.
        for t in range(-6, 7):
            for a, b in coprime_pairs(8):
                s = t * (a + b) ** 2 - a * b
                if s < 0:
                    assert b + (1 - t) * (a + b) != 0

    def test_switch_refuses_a_vanishing_border_term(self):
        # The branch the grid above never reaches raises, also under python -O.
        with pytest.raises(AssertionError) as excinfo:
            _switch(-1, 0)
        assert str(excinfo.value) == "impossible: s < 0 forces a nonzero border term"


class TestSpinCircle:
    def test_zero_example(self):
        p = profile_spin_circle(0, 1, 1)
        assert p.s_triple == (Fr(0), Fr(0), Fr(0))
        assert p.r == 1
        assert p.cohomology_type is CohomologyType.EBAR
        assert p.pi4 is Pi4.Z2

    def test_chen_partner_order(self):
        p = profile_spin_circle(0, 70, 5899)
        assert p.r == 4900
        assert p.s2 == Fr(383, 400)

    def test_type_by_parity(self):
        assert profile_spin_circle(1, 2, 1).cohomology_type is CohomologyType.EBAR
        assert profile_spin_circle(1, 1, 2).cohomology_type is CohomologyType.E

    def test_degenerate(self):
        with pytest.raises(DegenerateOrder):
            profile_spin_circle(1, 1, 1)
        with pytest.raises(DegenerateOrder):
            profile_spin_circle(4, 2, 1)

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            profile_spin_circle(1, 2, 4)

    def test_pi4(self):
        assert profile_spin_circle(0, 2, 1).pi4 is Pi4.Z2
        assert profile_spin_circle(3, 5, 1).pi4 is Pi4.UNKNOWN

    def test_oracle_agreement(self):
        for t in range(-4, 5):
            for a, b in coprime_pairs(6):
                s = a * a - t * b * b
                if s == 0:
                    continue
                mn = choose_mn(Family.SPIN_CIRCLE, a, b)
                p = profile_spin_circle(t, a, b)
                o1, o2, o3, olk = oracle_spin_circle(t, a, b, *mn)
                assert p.s_triple == (o1, o2, o3)
                assert p.p1.value == ((3 + 4 * t) * b * b) % p.r
                if p.r > 1:
                    want = olk * p.r
                    assert want.denominator == 1
                    assert lk_singleton(p) == int(want) % p.r

    def test_mn_independence(self):
        for t in range(-4, 5):
            for a, b in coprime_pairs(5):
                if a * a - t * b * b == 0:
                    continue
                base = profile_spin_circle(t, a, b)
                m, n = choose_mn(Family.SPIN_CIRCLE, a, b)
                for j in range(-5, 6):
                    m2, n2 = m + j * b, n - j * a
                    if b % 2 == 1 and m2 % 2 == 0:
                        continue
                    assert _spin_circle_profile(t, a, b, m2, n2) == base

    def test_negation_laws(self):
        for t in range(-4, 5):
            for a, b in coprime_pairs(6):
                if a * a - t * b * b == 0:
                    continue
                base = profile_spin_circle(t, a, b)
                assert profile_spin_circle(t, -a, b) == base
                assert profile_spin_circle(t, a, -b) == reversed_profile(base)
                assert profile_spin_circle(t, -a, -b) == reversed_profile(base)

    def test_sign_w_unreachable_branch(self):
        for t in range(-6, 7):
            for a, b in coprime_pairs(8):
                if a * a - t * b * b < 0:
                    assert b * (t + 1) != 0


class TestNaturalIdentifications:
    def test_w11_is_circle_bundle(self):
        # The t=1 circle bundle over parameters (1,1) is the homogeneous
        # space with Eschenburg parameters (1,1,-2), (0,0,0).
        from kreckstolz.eschenburg import EschenburgFixture, EschenburgSpace, fixture_profile

        fx = EschenburgFixture(
            EschenburgSpace((1, 1, -2), (0, 0, 0)), Fr(1, 112), Fr(35, 36), Fr(1, 18)
        )
        assert same_invariants(profile_circle(1, 1, 1), fixture_profile(fx))

    def test_circle_to_sphere(self):
        for t in range(-5, 6):
            for p in range(-5, 6):
                if t + p * (p - 1) == 0:  # degenerate on both sides at once
                    continue
                assert same_invariants(
                    profile_circle(t, p, 1 - p), profile_sphere(-t, p * (p - 1))
                )

    def test_w_family_to_sphere(self):
        # The t=1 circle bundle over (p, 1) meets the sphere bundle with
        # parameters (-1, p(p+1)); with these orientation conventions the
        # identification reverses orientation (it preserves it for the
        # parameters (-p, p+1), which name the same space with the
        # opposite orientation).
        for p in range(2, 12):
            assert same_invariants(
                profile_circle(1, p, 1), reversed_profile(profile_sphere(-1, p * (p + 1)))
            )
            assert same_invariants(
                profile_circle(1, -p, p + 1), profile_sphere(-1, p * (p + 1))
            )

    def test_spin_circle_to_spin_sphere(self):
        for t in range(-5, 6):
            for k in range(-5, 6):
                if t == k * k:
                    continue
                assert same_invariants(
                    profile_spin_circle(t, k, 1), profile_spin_sphere(t, k * k)
                )

    def test_chen_coincidence(self):
        assert same_invariants(
            profile_spin_sphere(62500, 57600), profile_spin_circle(0, 70, 5899)
        )

    def test_lens_like_reversal(self):
        # The q-th spin sphere bundle over the swapped parameters meets the
        # t=0 spin circle family with reversed orientation.
        for q in range(2, 8):
            left = profile_spin_sphere(q * q, 0)
            right = profile_spin_circle(0, q, 1)
            assert same_invariants(left, reversed_profile(right))

    def test_natural_partner(self):
        assert natural_partner(BundleSpec(Family.CIRCLE, 2, -1, t=1)) == BundleSpec(
            Family.SPHERE, -1, 2
        )
        assert natural_partner(BundleSpec(Family.SPIN_CIRCLE, 5, 1, t=3)) == BundleSpec(
            Family.SPIN_SPHERE, 3, 25
        )
        assert natural_partner(BundleSpec(Family.CIRCLE, 3, 1, t=1)) is None
        assert natural_partner(BundleSpec(Family.SPHERE, 2, 1)) is None

    def test_natural_partner_profiles_agree(self):
        for t in range(-4, 5):
            for a, b in coprime_pairs(5):
                spec = BundleSpec(Family.CIRCLE, a, b, t=t)
                partner = natural_partner(spec)
                if partner is None:
                    continue
                try:
                    left = profile(spec)
                    right = profile(partner)
                except DegenerateOrder:
                    continue
                assert same_invariants(left, right)


class TestSpecPlumbing:
    def test_describe_parse_round_trip(self):
        for spec in [
            BundleSpec(Family.SPHERE, 2, -1),
            BundleSpec(Family.SPIN_SPHERE, 0, 1),
            BundleSpec(Family.CIRCLE, 638, -607, t=-403),
            BundleSpec(Family.SPIN_CIRCLE, 70, 5899, t=0),
        ]:
            assert parse_bundle_spec(describe_bundle(spec.family, spec.a, spec.b, spec.t)) == spec

    def test_parse_errors(self):
        with pytest.raises(DomainError):
            parse_bundle_spec("sphere:1")
        with pytest.raises(DomainError):
            parse_bundle_spec("circle:1,2")
        with pytest.raises(DomainError):
            parse_bundle_spec("unknown:1,2")

    def test_unknown_family(self):
        with pytest.raises(DomainError, match="^unknown family 'sphere'$"):
            BundleSpec("sphere", 1, 0)

    @pytest.mark.parametrize(
        "family, shown",
        [(5, "5"), (10**5000, "<int>"), ("x" * 5000, f"{'x' * 40!r}...")],
        ids=["int", "long_int", "long_str"],
    )
    def test_unknown_family_is_echoed_in_at_most_40_characters(self, family, shown):
        with pytest.raises(DomainError) as caught:
            BundleSpec(family, 1, 0)
        assert str(caught.value) == f"unknown family {shown}"

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: profile(5), "spec must be a BundleSpec, got 5"),
            (lambda: natural_partner(5), "spec must be a BundleSpec, got 5"),
            (lambda: torus_reduction(5), "spec must be a BundleSpec, got 5"),
            (lambda: describe_bundle("sphere", 1, 2), "unknown family 'sphere'"),
            (lambda: ks_diffeomorphic(5, 5), "p must be an InvariantProfile, got 5"),
            (lambda: ks_diffeomorphic(profile_sphere(2, 1), 5), "q must be an InvariantProfile, got 5"),
            (lambda: ks_homeomorphic(5, 5), "p must be an InvariantProfile, got 5"),
            (lambda: lk_diffeomorphic(5, 5), "p must be an InvariantProfile, got 5"),
            (lambda: lk_homeomorphic(5, 5), "p must be an InvariantProfile, got 5"),
            (lambda: kruggel_homotopy(5, 5), "p must be an InvariantProfile, got 5"),
            (lambda: reversed_profile(5), "profile must be an InvariantProfile, got 5"),
            (lambda: find_matches(5, 5), "left must be a Source, got 5"),
            (lambda: find_matches(sphere_source(1, 0, 2), 5), "right must be a Source, got 5"),
            (lambda: reproduce_table("A", 5), "fixtures must be a Sequence, got 5"),
            (lambda: reproduce_table("B", [5]), "fixtures[0] must be an EschenburgFixture, got 5"),
            (lambda: chen_bundle(5), "params must be a ChenParams, got 5"),
            (lambda: fixture_profile(5), "fixture must be an EschenburgFixture, got 5"),
            (lambda: eschenburg_descriptor(5), "space must be an EschenburgSpace, got 5"),
            (lambda: ediffeo_solve(5), "problem must be an EdiffeoProblem, got 5"),
            (
                lambda: ediffeo_solve(EdiffeoProblem(1, 0, 0, 0), "reversing"),
                "orientation must be an Orientation, got 'reversing'",
            ),
            (lambda: sphere_congruence_classify(2, 1, 14, 13, spin="no"), "spin must be a bool, got 'no'"),
            (
                lambda: lk_homeomorphic(profile_spin_sphere(5, 2), profile_spin_sphere(5, 2), use_p1="no"),
                "use_p1 must be a bool, got 'no'",
            ),
            (
                lambda: find_matches(sphere_source(1, 0, 2), sphere_source(1, 0, 2), require_pi4_compat="no"),
                "require_pi4_compat must be a bool, got 'no'",
            ),
            (lambda: build_index(5), "profiles must be an Iterable, got 5"),
            (lambda: fixture_entries(5), "fixtures must be an Iterable, got 5"),
            (lambda: fixture_source(5), "fixtures must be an Iterable, got 5"),
            (lambda: match_all(5, 5), "left must be an AtlasIndex, got 5"),
            (lambda: match_all(AtlasIndex({}), 5), "right must be an AtlasIndex, got 5"),
            (
                lambda: match_all(AtlasIndex({}), AtlasIndex({}), "no"),
                "require_pi4_compat must be a bool, got 'no'",
            ),
            (lambda: render_matches_text(5), "records must be an Iterable, got 5"),
            (lambda: render_matches_tsv(5), "records must be an Iterable, got 5"),
            (lambda: render_matches_json(5), "records must be an Iterable, got 5"),
            (lambda: render_table_text(5), "report must be a TableReport, got 5"),
            (lambda: profile_key(5), "profile must be an InvariantProfile, got 5"),
            (
                lambda: parse_space("eschenburg:1,1,-2|0,0,0", 5),
                "load_fixtures must be a Callable, got 5",
            ),
        ],
        ids=[
            "profile", "natural_partner", "torus_reduction", "describe_bundle", "ks_diffeomorphic",
            "ks_diffeomorphic_q", "ks_homeomorphic", "lk_diffeomorphic", "lk_homeomorphic", "kruggel_homotopy",
            "reversed_profile", "find_matches", "find_matches_right", "reproduce_table", "reproduce_table_row",
            "chen_bundle", "fixture_profile", "eschenburg_descriptor", "ediffeo_solve", "ediffeo_orientation",
            "sphere_congruence_spin", "lk_homeomorphic_use_p1", "find_matches_pi4", "build_index",
            "fixture_entries", "fixture_source", "match_all", "match_all_right", "match_all_pi4",
            "render_matches_text", "render_matches_tsv", "render_matches_json", "render_table_text", "profile_key",
            "parse_space_load_fixtures",
        ],
    )
    def test_wrong_object_type_is_a_domain_error(self, call, message):
        with pytest.raises(DomainError) as caught:
            call()
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "call",
        [
            lambda: fixture_entries([5]),
            lambda: fixture_source([5]),
            lambda: parse_source("fixtures", lambda: [5]),
            lambda: parse_space("eschenburg:1,1,-2|0,0,0", lambda: [5]),
        ],
        ids=["fixture_entries", "fixture_source", "parse_source", "parse_space"],
    )
    def test_a_catalog_element_of_wrong_type_is_a_domain_error(self, call):
        # Every entry point that takes a catalog checks its elements as reproduce_table does.
        with pytest.raises(DomainError) as caught:
            call()
        assert str(caught.value) == "fixtures[0] must be an EschenburgFixture, got 5"

    def test_t_required_exactly_for_circle_families(self):
        with pytest.raises(DomainError):
            BundleSpec(Family.CIRCLE, 1, 1)
        with pytest.raises(DomainError):
            BundleSpec(Family.SPHERE, 1, 0, t=2)

    @pytest.mark.parametrize("bad", [2.0, Fr(5, 2), "3"], ids=["float", "fraction", "str"])
    @pytest.mark.parametrize(
        "construct, names",
        [
            (profile_sphere, "ab"),
            (profile_spin_sphere, "ab"),
            (profile_circle, "tab"),
            (profile_spin_circle, "tab"),
        ],
        ids=lambda v: getattr(v, "__name__", v),
    )
    def test_constructors_reject_non_int_parameters(self, construct, names, bad):
        # A valid member of each family; each parameter in turn is replaced.
        valid = {"t": 1, "a": 2, "b": 1} if len(names) == 3 else {"a": 2, "b": -1}
        construct(*valid.values())
        for name in names:
            args = [bad if key == name else value for key, value in valid.items()]
            with pytest.raises(DomainError, match=f"^parameter {name} must be an integer$"):
                construct(*args)

    @given(st.integers(min_value=-60, max_value=60), st.integers(min_value=-60, max_value=60))
    def test_reversal_involution(self, a, b):
        if a == b:
            return
        p = profile_sphere(a, b)
        assert reversed_profile(reversed_profile(p)) == p
