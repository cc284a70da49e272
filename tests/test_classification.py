"""Tests for decision procedures: diffeomorphism, homeomorphism, homotopy,
closed-form sphere-bundle congruences, the Eschenburg-to-sphere-bundle solver,
and the Einstein-family helpers.

Expected values are frozen from hand computation before the implementation was
written; grid tests compare the closed-form congruences against the direct
invariant comparisons they must agree with.
"""

import dataclasses
import math
from decimal import Decimal
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kreckstolz import classification
from kreckstolz.bundle_families import (
    BundleSpec,
    Family,
    profile_circle,
    profile_sphere,
    profile_spin_circle,
    profile_spin_sphere,
)
from kreckstolz.classification import (
    ChenParams,
    EdiffeoProblem,
    HomotopyVerdict,
    Orientation,
    TorusReduction,
    chen_bundle,
    ediffeo_solve,
    einstein_congruence,
    kruggel_homotopy,
    ks_diffeomorphic,
    ks_homeomorphic,
    sphere_congruence_classify,
    torus_reduction,
)
from kreckstolz.errors import (
    CongruenceFailure,
    DivisibilityFailure,
    DomainError,
    MismatchedOrder,
    ParityFailure,
    WrongFamily,
)
from kreckstolz.eschenburg import fixture_profile, load_fixtures
from kreckstolz.exact_arith import ResidueClass, mod_one, sqrt_mod
from kreckstolz.profiles import CohomologyType, InvariantProfile, Pi4, lk_compatible, pi4_compatible, reversed_profile
from oracles import lk_diffeomorphic, lk_homeomorphic

# ---------------------------------------------------------------------------
# Frozen expected values.
# ---------------------------------------------------------------------------

# The order-3 homogeneous-space chain: invariants (1/112, -1/36, 1/18).
W11_E_VALUES = (6, -2, 1)
W11_ADMISSIBLE = (3, 291, 339, 627)  # every root of 9 mod 672 that is ≡ 3 mod 24
W11_WITNESSES = (3, 627)             # canonical witness per residue class
W11_RESIDUES = (2, 146)              # mod 504

# The order-41 catalog row: invariants (115/287, 65/164, -33/82).
R41_E_VALUES = (3680, 390, -99)
R41_ADMISSIBLE = (1251, 4531, 5843, 9123)
R41_WITNESSES = (1251, 9123)
R41_RESIDUES = (2285, 5237)          # mod 6888

# W_{56,103}: order 19513; the reversing solve has TWO residue classes.
# 273181 is the classical one; 2614741 differs by 120·r and indexes a bundle
# with identical invariants (verified below by direct comparison and by the
# closed-form congruence: 56r | 120r·2868411 because 2868411 = 7·409773).
W56_RESIDUES = (273181, 2614741)     # mod 3278184


def load_fixture(k, s1=None):
    """Fetch the packaged fixture with the given k-triple (and s1 when two
    fixtures share (k, l))."""
    hits = [
        f
        for f in load_fixtures()
        if f.space.k == tuple(k) and (s1 is None or f.s1 == mod_one(Fraction(s1)))
    ]
    assert len(hits) == 1
    return hits[0]


# ---------------------------------------------------------------------------
# Kreck-Stolz diffeomorphism / homeomorphism decisions.
# ---------------------------------------------------------------------------


def test_circle_bundle_matches_order_3_fixture():
    fx = fixture_profile(load_fixture((1, 1, -2)))
    assert ks_diffeomorphic(profile_circle(1, 1, 1), fx) is Orientation.PRESERVING
    assert ks_homeomorphic(profile_circle(1, 1, 1), fx) is Orientation.PRESERVING


def test_sphere_bundle_matches_order_41_fixture():
    fx = fixture_profile(load_fixture((2, 3, 7), s1=Fraction(115, 287)))
    assert ks_diffeomorphic(profile_sphere(2285, 2244), fx) is Orientation.PRESERVING


def test_parameter_swap_is_reversing():
    p = profile_sphere(2, -1)
    q = profile_sphere(-1, 2)
    assert ks_diffeomorphic(p, q) is Orientation.REVERSING
    assert ks_homeomorphic(p, q) is Orientation.REVERSING


def test_homeomorphic_but_not_diffeomorphic():
    # a ≡ a' mod 12r but the second diffeomorphism congruence fails.
    p = profile_sphere(2, -1)
    q = profile_sphere(38, 35)
    assert ks_homeomorphic(p, q) is Orientation.PRESERVING
    assert ks_diffeomorphic(p, q) is None


def test_not_homeomorphic():
    assert ks_homeomorphic(profile_sphere(2, -1), profile_sphere(26, 23)) is None


def test_type_and_order_must_match():
    assert ks_diffeomorphic(profile_sphere(2, -1), profile_spin_sphere(4, 1)) is None
    assert ks_diffeomorphic(profile_sphere(2, -1), profile_sphere(3, -2)) is None


def test_pi4_conflict_blocks_unknown_does_not():
    p = profile_circle(1, 1, 1)
    conflicting = dataclasses.replace(p, pi4=Pi4.Z2)
    vague = dataclasses.replace(p, pi4=Pi4.UNKNOWN)
    assert ks_diffeomorphic(p, conflicting) is None
    assert ks_diffeomorphic(p, vague) is Orientation.PRESERVING


def test_self_negating_profile_prefers_preserving():
    p = profile_spin_sphere(0, 1)
    assert p.s_triple == (0, 0, 0)
    assert ks_diffeomorphic(p, p) is Orientation.PRESERVING


def test_diffeomorphic_implies_homeomorphic_on_grid():
    profiles = [profile_sphere(a, a - 5) for a in range(-10, 11)]
    profiles += [profile_spin_sphere(a, a - 4) for a in range(-10, 11)]
    for p, q in combinations(profiles, 2):
        d = ks_diffeomorphic(p, q)
        if d is not None:
            assert ks_homeomorphic(p, q) is not None


# ---------------------------------------------------------------------------
# Kruggel homotopy decisions.
# ---------------------------------------------------------------------------


def test_homotopy_case_a_equivalent():
    fx = fixture_profile(load_fixture((1, 1, -2)))
    p = profile_circle(1, 1, 1)
    assert p.pi4 is Pi4.ZERO and fx.pi4 is Pi4.ZERO
    assert kruggel_homotopy(p, fx) is HomotopyVerdict.EQUIVALENT


def test_homotopy_case_a_reversal_is_not_equivalent():
    # The same underlying manifold with reversed orientation fails the
    # orientation-preserving criterion: 2r·s2 differs (5/6 vs 1/6).
    p = profile_circle(1, 1, 1)
    q = profile_circle(1, 2, -1)  # equals reversed_profile(p) by the partner laws
    assert q.s_triple == reversed_profile(p).s_triple
    assert kruggel_homotopy(p, q) is HomotopyVerdict.NOT_EQUIVALENT


def test_homotopy_case_b_self():
    p = profile_circle(2, 1, 1)
    assert p.pi4 is Pi4.Z2 and p.r == 7
    assert kruggel_homotopy(p, profile_circle(2, 1, 1)) is HomotopyVerdict.EQUIVALENT


def test_homotopy_case_c_spin_order_48():
    base = profile_spin_sphere(49, 1)
    same = profile_spin_sphere(73, 25)    # p1 shifts by 4·24 ≡ 0 mod 24
    other = profile_spin_sphere(52, 4)    # p1 shifts by 12 mod 24
    assert base.r == same.r == other.r == 48
    assert kruggel_homotopy(base, same) is HomotopyVerdict.EQUIVALENT
    assert kruggel_homotopy(base, other) is HomotopyVerdict.NOT_EQUIVALENT


def test_homotopy_undetermined_cases():
    # Unknown pi4 on both sides (non-spin spheres of odd order).
    assert (
        kruggel_homotopy(profile_sphere(2, -1), profile_sphere(2, -1))
        is HomotopyVerdict.UNDETERMINED
    )
    # Type Ebar with order not divisible by 24.
    assert (
        kruggel_homotopy(profile_spin_sphere(3, 1), profile_spin_sphere(3, 1))
        is HomotopyVerdict.UNDETERMINED
    )
    # Cohomology types differ.
    assert (
        kruggel_homotopy(profile_sphere(3, 1), profile_spin_sphere(3, 1))
        is HomotopyVerdict.UNDETERMINED
    )


def test_homotopy_definite_negatives():
    # Orders differ: cohomology rings differ.
    assert (
        kruggel_homotopy(profile_sphere(2, -1), profile_sphere(3, -2))
        is HomotopyVerdict.NOT_EQUIVALENT
    )
    # Proven pi4 conflict.
    p = profile_circle(1, 1, 1)
    q = dataclasses.replace(p, pi4=Pi4.Z2)
    assert kruggel_homotopy(p, q) is HomotopyVerdict.NOT_EQUIVALENT


def test_homotopy_case_b_matches_definition_on_grid():
    # Type-E profiles with proven Z2 pi4 and odd order: circle bundles, t even.
    profiles = []
    for a, b in [(1, 1), (3, -1), (1, -3), (5, -3), (3, 1), (1, 3)]:
        p = profile_circle(2, a, b)
        if p.r % 2 == 1 and p.r > 1:
            profiles.append(p)
    for p, q in combinations(profiles, 2):
        verdict = kruggel_homotopy(p, q)
        if p.r != q.r:
            assert verdict is HomotopyVerdict.NOT_EQUIVALENT
            continue
        expected = (
            p.lk & q.lk
            and mod_one(p.r * p.s2) == mod_one(q.r * q.s2)
        )
        assert verdict is (
            HomotopyVerdict.EQUIVALENT if expected else HomotopyVerdict.NOT_EQUIVALENT
        )


def three_branch_kruggel_homotopy(p, q):
    """Oracle: kruggel_homotopy as it was written with one branch per decided case."""
    if p.r != q.r:
        return HomotopyVerdict.NOT_EQUIVALENT
    if not pi4_compatible(p.pi4, q.pi4):
        return HomotopyVerdict.NOT_EQUIVALENT
    if p.cohomology_type is not q.cohomology_type:
        return HomotopyVerdict.UNDETERMINED
    r = p.r
    if p.cohomology_type is CohomologyType.E:
        if p.pi4 is Pi4.ZERO and q.pi4 is Pi4.ZERO and r % 2 == 1:
            agree = lk_compatible(p.lk, q.lk) and (
                mod_one(2 * r * p.s2) == mod_one(2 * r * q.s2)
            )
        elif p.pi4 is Pi4.Z2 and q.pi4 is Pi4.Z2 and r % 2 == 1:
            agree = lk_compatible(p.lk, q.lk) and (
                mod_one(r * p.s2) == mod_one(r * q.s2)
            )
        else:
            return HomotopyVerdict.UNDETERMINED
    else:
        if r % 24 != 0:
            return HomotopyVerdict.UNDETERMINED
        agree = lk_compatible(p.lk, q.lk) and (
            (p.p1.value - q.p1.value) % 24 == 0
        )
    return HomotopyVerdict.EQUIVALENT if agree else HomotopyVerdict.NOT_EQUIVALENT


def _homotopy_fields(draw, r):
    residue = st.integers(0, r - 1).map(lambda v: ResidueClass(v, r))
    return {
        "cohomology_type": draw(st.sampled_from(CohomologyType)),
        "r": r,
        "s1": Fraction(0),
        "s2": Fraction(draw(st.integers(0, 48 * r - 1)), 48 * r),
        "s3": Fraction(0),
        "p1": draw(residue),
        "lk": draw(st.none() | st.frozensets(residue, min_size=1, max_size=2)),
        "pi4": draw(st.sampled_from(Pi4)),
    }


@st.composite
def homotopy_pairs(draw):
    """Profile pairs of either type and any pi4; r odd, even, divisible by 24 or not.

    q copies each field of p or draws it afresh, so the decided cases meet
    both agreeing and disagreeing data; now and then q has another order.
    """
    r = draw(st.integers(1, 60) | st.integers(1, 5).map(lambda k: 24 * k))
    p = _homotopy_fields(draw, r)
    r_q = draw(st.sampled_from([r, r, r, r + 1]))
    fresh = _homotopy_fields(draw, r_q)
    if r_q == r:
        q = {name: p[name] if draw(st.booleans()) else value for name, value in fresh.items()}
    else:
        q = fresh
    return InvariantProfile(**p), InvariantProfile(**q)


@settings(max_examples=500)
@given(homotopy_pairs())
def test_homotopy_agrees_with_three_branch_oracle(pair):
    p, q = pair
    assert kruggel_homotopy(p, q) is three_branch_kruggel_homotopy(p, q)


def test_homotopy_agrees_with_three_branch_oracle_on_family_profiles():
    profiles = [profile_sphere(a, b) for a in range(-30, 31) for b in (0, 1, -1) if a != b]
    profiles += [profile_spin_sphere(a, b) for a in range(-30, 31) for b in (0, 1, -1) if a != b]
    profiles += [
        build(t, a, b)
        for build in (profile_circle, profile_spin_circle)
        for t in range(-2, 3)
        for a in range(-6, 7)
        for b in range(-6, 7)
        if math.gcd(a, b) == 1 and (t * (a + b) ** 2 - a * b if build is profile_circle else a * a - t * b * b)
    ]
    by_order = {}
    for p in profiles:
        by_order.setdefault(p.r, []).extend([p, reversed_profile(p)])
    verdicts = set()
    for group in by_order.values():
        for p in group:
            for q in group:
                verdict = kruggel_homotopy(p, q)
                assert verdict is three_branch_kruggel_homotopy(p, q)
                verdicts.add(verdict)
    assert verdicts == set(HomotopyVerdict)


# ---------------------------------------------------------------------------
# Closed-form congruences for sphere bundles.
# ---------------------------------------------------------------------------


def test_congruence_order_3_partners():
    report = sphere_congruence_classify(2, -1, 146, 143, spin=False)
    assert report.homeo_preserving and report.diffeo_preserving
    assert not report.homeo_reversing and not report.diffeo_reversing


def test_congruence_full_period_is_diffeomorphic():
    for a, r in [(0, 1), (5, 3), (-7, 9), (12, 25)]:
        report = sphere_congruence_classify(a, a - r, a + 168 * r, a + 168 * r - r, spin=False)
        assert report.diffeo_preserving
        spin_report = sphere_congruence_classify(a, a - r, a + 6 * r, a + 6 * r - r, spin=True)
        assert spin_report.homeo_preserving


def test_congruence_reversing_examples():
    # Non-spin, order 1: a + a' ≡ 0 mod 12 and a(a+1) + a'(a'+1) ≡ 0 mod 56.
    # S_{0,-1} and S_{48,47} share the self-negating triple (0, 0, 1/2), so
    # every relation holds and the decision procedure prefers the preserving
    # label.
    report = sphere_congruence_classify(0, -1, 48, 47, spin=False)
    assert report.homeo_reversing and report.diffeo_reversing
    assert report.homeo_preserving and report.diffeo_preserving
    assert ks_diffeomorphic(profile_sphere(0, -1), profile_sphere(48, 47)) is (
        Orientation.PRESERVING
    )
    # A reversing-only pair: S_{-14,-15} and S_{14,13}.
    report = sphere_congruence_classify(-14, -15, 14, 13, spin=False)
    assert report.homeo_reversing and report.diffeo_reversing
    assert not report.homeo_preserving and not report.diffeo_preserving
    assert ks_diffeomorphic(profile_sphere(-14, -15), profile_sphere(14, 13)) is (
        Orientation.REVERSING
    )
    # Spin, order 1: the (0,0,0) bundle reverses onto itself.
    report = sphere_congruence_classify(1, 0, 1, 0, spin=True)
    assert report.homeo_reversing and report.diffeo_reversing
    # Spin, order 2: frozen example (1,-1) vs (2,0).
    report = sphere_congruence_classify(1, -1, 2, 0, spin=True)
    assert report.homeo_reversing and report.diffeo_reversing
    assert ks_diffeomorphic(profile_spin_sphere(1, -1), profile_spin_sphere(2, 0)) is (
        Orientation.REVERSING
    )


def test_congruence_reversing_needs_homeomorphism_too():
    # a=0, a'=7 with order 1 satisfies the bare product congruence
    # (0 + 56 ≡ 0 mod 56) but is not a reversing homeomorphism (7 ≢ 0 mod 12),
    # so it must not be reported as a reversing diffeomorphism.
    report = sphere_congruence_classify(0, -1, 7, 6, spin=False)
    assert not report.homeo_reversing and not report.diffeo_reversing
    assert ks_diffeomorphic(profile_sphere(0, -1), profile_sphere(7, 6)) is None


def test_congruence_rejects_mismatched_order():
    with pytest.raises(MismatchedOrder):
        sphere_congruence_classify(2, -1, 3, -2, spin=False)
    with pytest.raises(MismatchedOrder):
        sphere_congruence_classify(2, 2, 2, 2, spin=False)


def test_congruences_agree_with_invariants_on_grid():
    for spin in (False, True):
        profile = profile_spin_sphere if spin else profile_sphere
        for r in (1, 2, 3, 5):
            profiles = {a: profile(a, a - r) for a in range(-40, 41)}
            for a in range(-40, 41):
                for a2 in range(a, 41):
                    report = sphere_congruence_classify(a, a - r, a2, a2 - r, spin=spin)
                    p, q = profiles[a], profiles[a2]
                    assert report.homeo_preserving == (
                        tuple(map(mod_one, (28 * p.s1, p.s2, p.s3)))
                        == tuple(map(mod_one, (28 * q.s1, q.s2, q.s3)))
                    ), (spin, r, a, a2)
                    assert report.diffeo_preserving == (p.s_triple == q.s_triple)
                    rq = reversed_profile(q)
                    assert report.homeo_reversing == (
                        tuple(map(mod_one, (28 * p.s1, p.s2, p.s3)))
                        == tuple(map(mod_one, (28 * rq.s1, rq.s2, rq.s3)))
                    ), (spin, r, a, a2)
                    assert report.diffeo_reversing == (p.s_triple == rq.s_triple)


# ---------------------------------------------------------------------------
# The Eschenburg-to-sphere-bundle solver.
# ---------------------------------------------------------------------------


def test_problem_derives_integer_e_values():
    problem = EdiffeoProblem(3, Fraction(1, 112), Fraction(-1, 36), Fraction(1, 18))
    assert (problem.e1, problem.e2, problem.e3) == W11_E_VALUES


def test_problem_rejects_bad_denominator():
    with pytest.raises(DivisibilityFailure):
        EdiffeoProblem(3, Fraction(1, 113), Fraction(-1, 36), Fraction(1, 18))


def test_problem_rejects_nonpositive_order():
    with pytest.raises(DomainError, match="^order must be a positive integer, got 0$"):
        EdiffeoProblem(0, 0, 0, 0)


def test_problem_keeps_int_and_fraction_s_values_as_given():
    problem = EdiffeoProblem(3, Fraction(1, 112), -1, Fraction(1, 18))
    assert (problem.s1, problem.s2, problem.s3) == (Fraction(1, 112), -1, Fraction(1, 18))
    assert type(problem.s2) is int
    assert (problem.e1, problem.e2, problem.e3) == (6, -72, 1)


@pytest.mark.parametrize(
    "s_values, shown",
    [
        (("1/112", 0, 0), "s1 must be an int or a Fraction, got '1/112'"),
        (("1e200000", 0, 0), "s1 must be an int or a Fraction, got '1e200000'"),
        ((0, 0.5, 0), "s2 must be an int or a Fraction, got 0.5"),
        ((0, 0, Decimal("0.5")), "s3 must be an int or a Fraction, got Decimal('0.5')"),
    ],
    ids=["text", "text_exponent", "float", "decimal"],
)
def test_problem_refuses_s_values_that_are_not_int_or_fraction(s_values, shown):
    with pytest.raises(DomainError) as caught:
        EdiffeoProblem(3, *s_values)
    assert str(caught.value) == shown


@pytest.mark.parametrize(
    "change, message",
    [
        ({"r": 0}, "|H^4| must be positive, got 0"),
        ({"s2": Fraction(37, 36)}, "s-value 37/36 not reduced modulo 1"),
        ({"p1": ResidueClass(0, 5)}, "p1 must be a residue modulo r"),
        ({"lk": frozenset()}, "linking classes must be nonempty residues modulo r"),
    ],
    ids=["order", "s_value", "p1", "lk"],
)
def test_invariant_profile_validation(change, message):
    valid = profile_sphere(2, -1)
    with pytest.raises(DomainError) as info:
        dataclasses.replace(valid, **change)
    assert str(info.value) == message


def test_order_3_chain():
    problem = EdiffeoProblem(3, Fraction(1, 112), Fraction(-1, 36), Fraction(1, 18))
    assert len(sqrt_mod(9, 672)) == 8
    solution = ediffeo_solve(problem)
    assert solution.orientation is Orientation.PRESERVING
    assert solution.admissible_roots == W11_ADMISSIBLE
    assert solution.witness_roots == W11_WITNESSES
    assert solution.residues == tuple(ResidueClass(a, 504) for a in W11_RESIDUES)


def test_order_3_reversing_fails_congruence():
    problem = EdiffeoProblem(3, Fraction(1, 112), Fraction(-1, 36), Fraction(1, 18))
    with pytest.raises(CongruenceFailure):
        ediffeo_solve(problem, orientation=Orientation.REVERSING)


def test_order_41_chain():
    problem = EdiffeoProblem(
        41, Fraction(115, 287), Fraction(65, 164), Fraction(-33, 82)
    )
    assert (problem.e1, problem.e2, problem.e3) == R41_E_VALUES
    assert 41 + problem.e1 == 61 * 61
    solution = ediffeo_solve(problem)
    assert solution.admissible_roots == R41_ADMISSIBLE
    assert solution.witness_roots == R41_WITNESSES
    assert solution.residues == tuple(ResidueClass(a, 6888) for a in R41_RESIDUES)


def test_order_19513_reversing_chain():
    fx = load_fixture((56, 103, -159))
    problem = EdiffeoProblem(19513, fx.s1, fx.s2, fx.s3)
    with pytest.raises(CongruenceFailure):
        ediffeo_solve(problem)
    solution = ediffeo_solve(problem, orientation=Orientation.REVERSING)
    assert solution.residues == tuple(ResidueClass(a, 3278184) for a in W56_RESIDUES)
    # Both residues index bundles with identical invariants...
    a1, a2 = W56_RESIDUES
    p1 = profile_sphere(a1, a1 - 19513)
    p2 = profile_sphere(a2, a2 - 19513)
    assert p1.s_triple == p2.s_triple
    assert ks_diffeomorphic(p1, p2) is Orientation.PRESERVING
    # ... and the closed-form congruence confirms they are diffeomorphic.
    report = sphere_congruence_classify(a1, a1 - 19513, a2, a2 - 19513, spin=False)
    assert report.diffeo_preserving
    # The bundles carry the reversed fixture invariants.
    assert p1.s_triple == reversed_profile(fixture_profile(fx)).s_triple


def test_parity_failure():
    # E1 = 224·3·(1/224) = 3 is odd.
    problem = EdiffeoProblem(3, Fraction(1, 224), Fraction(-1, 36), Fraction(1, 18))
    with pytest.raises(ParityFailure):
        ediffeo_solve(problem)


def test_congruence_failure_for_circle_bundle_row():
    # The order-17 circle-bundle catalog row is not a sphere bundle:
    # E = (-804, 110, 23) and E3 - E2 - 3 = -90 ≢ 0 mod 51.
    problem = EdiffeoProblem(
        17, Fraction(-201, 952), Fraction(55, 204), Fraction(23, 102)
    )
    assert (problem.e1, problem.e2, problem.e3) == (-804, 110, 23)
    with pytest.raises(CongruenceFailure):
        ediffeo_solve(problem)
    with pytest.raises(CongruenceFailure):
        ediffeo_solve(problem, orientation=Orientation.REVERSING)


def _period_classes(r: int) -> dict[tuple[int, int, int], set[int]]:
    """The e-values (e1, e2, e3) of every S_{a,a-r} with 0 <= a < 168r,
    mapped to the a that carry them, by direct scan with integers only.

    With u = 2a - r + 2, profile_sphere gives s1 = (u^2 - r)/(224r),
    s2 = -(u - 1)/(24r) and s3 = -(u - 4)/(6r); the triple depends only on
    a mod 168r, so one period holds every class."""
    classes: dict[tuple[int, int, int], set[int]] = {}
    for a in range(168 * r):
        u = 2 * a - r + 2
        key = ((u * u - r) % (224 * r), (1 - u) % (24 * r), (4 - u) % (6 * r))
        classes.setdefault(key, set()).add(a)
    return classes


@pytest.mark.parametrize("r", [2, 4, 6, 8, 10, 12, 16, 30])
def test_even_order_solver_agrees_with_period_scan(r):
    # Every triple realized in one period, posed in both orientations: the
    # solver must return exactly the scanned classes, and may refuse an
    # orientation only when the scan finds none.  For even r the bundles
    # have e2 odd and e3 even, the opposite of odd r.
    classes = _period_classes(r)
    weights = (224 * r, 24 * r, 6 * r)
    for key, hits in classes.items():
        problem = EdiffeoProblem(r, *(Fraction(e, w) for e, w in zip(key, weights)))
        negated = tuple((-e) % w for e, w in zip(key, weights))
        for orientation, wanted in (
            (Orientation.PRESERVING, hits),
            (Orientation.REVERSING, classes.get(negated, set())),
        ):
            try:
                solution = ediffeo_solve(problem, orientation)
            except (ParityFailure, CongruenceFailure):
                assert not wanted, (r, key, orientation)
                continue
            assert {c.value for c in solution.residues} == wanted, (r, key, orientation)
            assert all(c.modulus == 168 * r for c in solution.residues)


def test_even_order_parity_and_congruence_messages():
    # e2 = 24·2·(13/16) = 39 is odd, as it must be for even r.
    problem = EdiffeoProblem(2, Fraction(7, 32), Fraction(13, 16), Fraction(1, 2))
    assert [c.value for c in ediffeo_solve(problem).residues] == [5, 149, 173, 317]
    with pytest.raises(CongruenceFailure, match=r"not divisible by 6r = 12"):
        ediffeo_solve(problem, Orientation.REVERSING)
    # An odd-order pattern (e2 even, e3 odd) is refused for even r.
    wrong = EdiffeoProblem(2, Fraction(0), Fraction(1, 48), Fraction(1, 12))
    with pytest.raises(ParityFailure, match=r"^e1 = 0, e2 \+ 1 = 2 and e3 = 1 must all be even$"):
        ediffeo_solve(wrong)


def test_odd_order_obstruction_messages_unchanged():
    problem = EdiffeoProblem(3, Fraction(1, 224), Fraction(-1, 36), Fraction(1, 18))
    with pytest.raises(ParityFailure, match=r"^e1 = 3, e2 = -2 and e3 \+ 1 = 2 must all be even$"):
        ediffeo_solve(problem)
    problem = EdiffeoProblem(3, Fraction(1, 112), Fraction(-1, 36), Fraction(1, 18))
    with pytest.raises(CongruenceFailure, match=r"^e3 - e2 - 3 = -6 is not divisible by 3r = 9$"):
        ediffeo_solve(problem, Orientation.REVERSING)


def test_no_square_root_means_no_solutions():
    # 153 is not a square mod 672 (it is 6 mod 7); conditions (b) hold.
    problem = EdiffeoProblem(3, Fraction(25, 112), Fraction(-1, 36), Fraction(1, 18))
    solution = ediffeo_solve(problem)
    assert solution.residues == ()
    assert solution.admissible_roots == ()


def test_roots_exist_but_none_admissible():
    # Roots of 9 mod 672 are ≡ ±3 mod 24, but condition (c) wants ≡ 11.
    problem = EdiffeoProblem(3, Fraction(1, 112), Fraction(-5, 36), Fraction(11, 18))
    solution = ediffeo_solve(problem)
    assert solution.residues == ()
    assert solution.witness_roots == ()


def test_round_trip_with_lifts():
    problem = EdiffeoProblem(3, Fraction(1, 112), Fraction(-1, 36), Fraction(1, 18))
    target = (mod_one(problem.s1), mod_one(problem.s2), mod_one(problem.s3))
    for res in ediffeo_solve(problem).residues:
        for j in range(4):
            a = res.value + 504 * j
            assert profile_sphere(a, a - 3).s_triple == target


def test_a_residue_that_does_not_round_trip_is_refused(monkeypatch):
    # The solver checks each residue against the bundle's own s-values:
    # a bundle formula off by an orientation fails that check at once.
    real = classification.profile_sphere
    monkeypatch.setattr(classification, "profile_sphere", lambda a, b: reversed_profile(real(a, b)))
    with pytest.raises(AssertionError) as excinfo:
        ediffeo_solve(EdiffeoProblem(3, Fraction(1, 112), Fraction(-1, 36), Fraction(1, 18)))
    assert str(excinfo.value) == "residue 2 mod 504 does not round-trip"


@settings(max_examples=60, deadline=None)
@given(
    r=st.sampled_from([1, 3, 5, 7, 9, 11, 13, 15]),
    a=st.integers(min_value=-2000, max_value=2000),
)
def test_solver_completeness_random(r, a):
    p = profile_sphere(a, a - r)
    problem = EdiffeoProblem(r, p.s1, p.s2, p.s3)
    solution = ediffeo_solve(problem)
    assert a % (168 * r) in {res.value for res in solution.residues}


def _reference_solve(problem, orientation):
    """A reference solver through the complete root set: every square root
    of r + e1 modulo 224r from sqrt_mod, then the mod-8r admissibility
    filter.  Returns (residues, witness_roots, admissible_roots) or raises
    as the solver does."""
    if orientation is Orientation.REVERSING:
        problem = EdiffeoProblem(problem.r, -problem.s1, -problem.s2, -problem.s3)
    r, e1, e2, e3 = problem.r, problem.e1, problem.e2, problem.e3
    odd = r % 2
    e2_name, e2_even = ("e2", e2) if odd else ("e2 + 1", e2 + 1)
    e3_name, e3_even = ("e3 + 1", e3 + 1) if odd else ("e3", e3)
    if e1 % 2 or e2_even % 2 or e3_even % 2:
        raise ParityFailure(
            f"e1 = {e1}, {e2_name} = {e2_even} and {e3_name} = {e3_even} must all be even"
        )
    step, label = (3 * r, "3r") if odd else (6 * r, "6r")
    if (e3 - e2 - 3) % step:
        raise CongruenceFailure(f"e3 - e2 - 3 = {e3 - e2 - 3} is not divisible by {label} = {step}")
    modulus = 224 * r
    roots = sqrt_mod((r + e1) % modulus, modulus)
    admissible = tuple(x for x in roots if (x + e2 - 1) % (8 * r) == 0)
    witness = {}
    for x in admissible:
        residue = ((r + 15 * x) // 2 + 7 * e2 - 8) % (168 * r)
        signed = x - modulus if 2 * x > modulus else x
        held = witness.get(residue)
        if held is None or abs(signed) < abs(held[1]):
            witness[residue] = (x, signed)
    residues = tuple(ResidueClass(a, 168 * r) for a in sorted(witness))
    return residues, tuple(sorted(x for x, _ in witness.values())), admissible


_SOLVER_ORDERS = st.one_of(
    st.integers(min_value=1, max_value=400),
    st.sampled_from([969969, 440895, 2 * 440895, 8 * 3 * 5 * 7, 2**10, 7**5, 27 * 49 * 11]),
)


@st.composite
def _solver_problems(draw):
    """An order with s-values that are either arbitrary admissible fractions
    (mostly obstructed) or the triple of a real bundle S_{a,a-r}, with an
    integer added to each s so the e-values take other representatives."""
    r = draw(_SOLVER_ORDERS)
    weights = (224 * r, 24 * r, 6 * r)
    if draw(st.booleans()):
        numerators = [draw(st.integers(min_value=-3 * w, max_value=3 * w)) for w in weights]
        return EdiffeoProblem(r, *(Fraction(n, w) for n, w in zip(numerators, weights)))
    a = draw(st.integers(min_value=-10**6, max_value=10**6))
    shifts = [draw(st.integers(min_value=-3, max_value=3)) for _ in weights]
    p = profile_sphere(a, a - r)
    return EdiffeoProblem(r, *(s + k for s, k in zip(p.s_triple, shifts)))


@settings(max_examples=300, deadline=None)
@given(problem=_solver_problems(), orientation=st.sampled_from(list(Orientation)))
def test_solver_agrees_with_sqrt_mod_reference(problem, orientation):
    try:
        expected = _reference_solve(problem, orientation)
    except (ParityFailure, CongruenceFailure) as exc:
        with pytest.raises(type(exc)) as caught:
            ediffeo_solve(problem, orientation)
        assert str(caught.value) == str(exc)
        return
    solution = ediffeo_solve(problem, orientation)
    assert (solution.residues, solution.witness_roots, solution.admissible_roots) == expected
    assert solution.orientation is orientation


# ---------------------------------------------------------------------------
# Linking-form substitution consistency checks.
# ---------------------------------------------------------------------------


def substitution_batch():
    """Profiles grouped by construction, restricted to where the
    substitution applies (type Ebar, or type E with odd order)."""
    groups = {"sphere": [], "spin_sphere": [], "circle": [], "spin_circle": []}
    for a in range(-6, 9):
        for r in (1, 3, 5, 7):
            groups["sphere"].append(profile_sphere(a, a - r))
        for r in (1, 2, 3, 4):
            groups["spin_sphere"].append(profile_spin_sphere(a, a - r))
    for t in (-2, -1, 1, 2):
        for a, b in [(1, 1), (2, 1), (3, 1), (1, 2), (3, 2), (2, -1), (5, 2)]:
            for build, name in (
                (profile_circle, "circle"),
                (profile_spin_circle, "spin_circle"),
            ):
                try:
                    groups[name].append(build(t, a, b))
                except DomainError:
                    pass  # degenerate parameters (order zero)
    for name, profiles in groups.items():
        profiles += [reversed_profile(p) for p in profiles]
        groups[name] = [
            p for p in profiles
            if p.cohomology_type is CohomologyType.EBAR or p.r % 2 == 1
        ]
    return groups


def comparable_pairs(profiles):
    for p, q in combinations(profiles, 2):
        if p.r != q.r or p.cohomology_type != q.cohomology_type:
            continue
        if not pi4_compatible(p.pi4, q.pi4):
            continue
        yield p, q


def test_lk_substitution_agrees_within_each_family():
    # Within one bundle construction, s3 is a function of (s2, r), so
    # substituting the linking class for s3 loses nothing and the
    # substituted tests must agree exactly with the full ones.
    for profiles in substitution_batch().values():
        for p, q in comparable_pairs(profiles):
            assert lk_diffeomorphic(p, q) == ks_diffeomorphic(p, q), (p, q)
            assert lk_homeomorphic(p, q) == ks_homeomorphic(p, q), (p, q)


def test_lk_substitution_p1_variant_within_spheres():
    spheres = substitution_batch()["sphere"]
    for p, q in comparable_pairs(spheres):
        assert lk_homeomorphic(p, q, use_p1=True) == ks_homeomorphic(p, q)


def test_lk_substitution_is_coarser_across_families():
    # Across constructions the substituted data has a genuine blind spot:
    # spaces can share (28·s1, s2, p1, lk) while s3 differs by exactly 1/2,
    # so they are not homeomorphic.  The substitution never disagrees at
    # the diffeomorphism level on this batch (full s1 is finer than 28·s1),
    # and a full-test match always implies a substituted match.
    groups = substitution_batch()
    batch = [p for profiles in groups.values() for p in profiles]
    homeo_disagreements = []
    for p, q in comparable_pairs(batch):
        kd, ld = ks_diffeomorphic(p, q), lk_diffeomorphic(p, q)
        kh, lh = ks_homeomorphic(p, q), lk_homeomorphic(p, q)
        assert ld == kd, (p, q)
        if kh is not None:
            assert lh == kh, (p, q)
        elif lh is not None:
            other = q if lh is Orientation.PRESERVING else reversed_profile(q)
            assert mod_one(p.s3 - other.s3) == Fraction(1, 2), (p, q)
            homeo_disagreements.append((p, q))
    assert homeo_disagreements, "expected cross-family blind-spot examples"


def test_lk_substitution_blind_spot_example():
    # Frozen instance of the blind spot: the non-spin sphere with (a, b) =
    # (-2, -3) and the order-1 circle bundle over the spin 2-sphere bundle
    # with (t, a, b) = (2, 3, 2) share 28·s1 = 0 and s2 = 1/6 after
    # reversal, have no linking data (order 1), but s3 = 1/6 vs 2/3.
    p = profile_sphere(-2, -3)
    q = profile_spin_circle(2, 3, 2)
    assert q.cohomology_type is CohomologyType.E and q.r == 1
    assert lk_homeomorphic(p, q) is Orientation.REVERSING
    assert ks_homeomorphic(p, q) is None
    assert mod_one(p.s3 - reversed_profile(q).s3) == Fraction(1, 2)


def test_lk_substitution_rejects_inapplicable_type():
    even_nonspin = profile_sphere(3, 1)  # order 2, type E
    assert even_nonspin.r % 2 == 0
    with pytest.raises(DomainError):
        lk_diffeomorphic(even_nonspin, even_nonspin)
    # Type Ebar is applicable for every order, but not with the p1 substitution.
    even_spin = profile_spin_sphere(3, 1)
    assert lk_diffeomorphic(even_spin, even_spin) is Orientation.PRESERVING
    with pytest.raises(DomainError, match="the p1 substitution applies only to type E"):
        lk_homeomorphic(even_spin, even_spin, use_p1=True)


# ---------------------------------------------------------------------------
# Einstein families, Chen parameters, torus reductions.
# ---------------------------------------------------------------------------


def test_chen_bundle_examples():
    assert chen_bundle(ChenParams(10, 490)) == BundleSpec(Family.SPIN_SPHERE, 62500, 57600)
    assert chen_bundle(ChenParams(7, 7)) == BundleSpec(Family.SPIN_SPHERE, 49, 0)
    assert chen_bundle(ChenParams(2, 1)) == BundleSpec(Family.SPHERE, 2, 0)


def test_chen_params_must_be_nonzero():
    with pytest.raises(DomainError):
        ChenParams(0, 3)


def test_chen_bundle_reduces_to_torus():
    for q1 in range(-6, 7):
        for q2 in range(-6, 7):
            if q1 == 0 or q2 == 0:
                continue
            spec = chen_bundle(ChenParams(q1, q2))
            assert spec.a - spec.b == q1 * q2
            assert torus_reduction(spec).reduces_to_T2


def test_einstein_circle_congruence():
    assert einstein_congruence("L", (3, 1), (3, 1 + 56 * 9))
    assert not einstein_congruence("L", (3, 1), (3, 2))
    with pytest.raises(MismatchedOrder):
        einstein_congruence("L", (3, 1), (4, 1))


def test_einstein_congruence_rejects_unknown_family():
    with pytest.raises(DomainError, match="^unknown Einstein family 'X'; expected 'L' or 'C'$"):
        einstein_congruence("X", (3, 1), (3, 1))


def test_einstein_chen_congruence():
    assert not einstein_congruence("C", ChenParams(1, 6), ChenParams(2, 3))
    assert einstein_congruence("C", ChenParams(1, 6), ChenParams(1, 6))
    assert einstein_congruence("C", ChenParams(1, 6), ChenParams(6, 1))
    with pytest.raises(MismatchedOrder):
        einstein_congruence("C", ChenParams(1, 6), ChenParams(1, 5))
    with pytest.raises(MismatchedOrder):
        einstein_congruence("C", ChenParams(2, 4), ChenParams(1, 8))


@pytest.mark.parametrize(
    "left, right",
    [((1, 6), (2, 3)), (ChenParams(1, 6), (2, 3)), ((1, 6), ChenParams(2, 3))],
    ids=["both", "right", "left"],
)
def test_einstein_chen_congruence_takes_chen_params_only(left, right):
    with pytest.raises(DomainError, match=r"^C-family parameters must be ChenParams, got \(\d, \d\)$"):
        einstein_congruence("C", left, right)


def test_torus_reduction_examples():
    assert torus_reduction(BundleSpec(Family.SPHERE, 2, 0)) == TorusReduction(True, True)
    assert torus_reduction(BundleSpec(Family.SPHERE, 1, 1)) == TorusReduction(False, False)
    assert torus_reduction(BundleSpec(Family.SPHERE, 1, 0)) == TorusReduction(True, False)
    assert torus_reduction(BundleSpec(Family.SPIN_SPHERE, 49, 0)) == TorusReduction(True, True)
    with pytest.raises(WrongFamily):
        torus_reduction(BundleSpec(Family.CIRCLE, 1, 1, t=1))
