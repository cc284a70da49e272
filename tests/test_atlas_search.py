"""Tests for the invariant-keyed atlas: indexes, matching, catalog tables.

Expected values below are frozen from the bundled catalog tables.  Every
residue set, orientation, and match list was verified by hand against
the solver conditions and the closed-form bundle invariants before being
recorded here.  In particular the orientation column records which sign
of the tabulated s-values the solver reproduces; for two sphere rows
(r = 41 and r = 929) the catalog tabulates the values in the
bundle-matched orientation, so the mark on the row and the solved
orientation disagree there (see `test_rows_where_star_and_solve_disagree`).
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from fractions import Fraction as Fr
from functools import partial
from math import gcd
from typing import NamedTuple

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from kreckstolz import atlas_search, eschenburg
from kreckstolz.atlas_search import (
    TABLE_A,
    TABLE_B,
    AtlasIndex,
    MatchRecord,
    _circle_candidates,
    _circle_key,
    _entry_fields,
    _s1_value,
    _sign_blind,
    build_index,
    circle_grid,
    circle_source,
    eschenburg_descriptor,
    find_matches,
    fixture_entries,
    fixture_source,
    key_s_triple,
    match_all,
    parse_source,
    profile_key,
    render_matches_json,
    render_matches_text,
    render_matches_tsv,
    render_table_text,
    reproduce_table,
    sphere_grid,
    sphere_source,
)
from kreckstolz.bundle_families import (
    BundleSpec,
    Family,
    choose_mn,
    circle_p1_lk_pi4,
    circle_s1,
    describe_bundle,
    profile,
    profile_circle,
    profile_sphere,
    profile_spin_sphere,
    sphere_p1_lk_pi4,
    sphere_s1,
    sphere_s23,
)
from kreckstolz.classification import Orientation, ediffeo_solve, ks_diffeomorphic
from kreckstolz.errors import DomainError, InconsistentFixture, MissingFixture
from kreckstolz.eschenburg import EschenburgFixture, EschenburgSpace, fixture_profile, invariants, load_fixtures
from kreckstolz.exact_arith import ResidueClass, mod_one
from kreckstolz.profiles import (
    CohomologyType,
    InvariantProfile,
    Pi4,
    lk_compatible,
    pi4_compatible,
    reversed_profile,
)

PRESERVING = Orientation.PRESERVING
REVERSING = Orientation.REVERSING


@pytest.fixture(scope="module")
def fixtures():
    return load_fixtures()


def fixture_by_k(fixtures, k):
    matches = [fx for fx in fixtures if tuple(fx.space.k) == k]
    assert len(matches) == 1
    return matches[0]


# ---------------------------------------------------------------------------
# Profile keys.
# ---------------------------------------------------------------------------


def test_profile_key_orientation_pair():
    p = profile_sphere(5, 2)
    q = profile_sphere(2, 5)  # opposite orientation of the same bundle
    (kp, flipped_p), (kq, flipped_q) = profile_key(p), profile_key(q)
    assert kp == kq
    assert flipped_p != flipped_q
    assert profile_key(reversed_profile(p)) == (kq, flipped_q)


def key_fractions(key):
    """The s-triple of a bucket key: its integer pairs read as fractions, each kept in lowest terms."""
    pairs = list(zip(key[2::2], key[3::2]))
    assert all(Fr(n, d).as_integer_ratio() == (n, d) for n, d in pairs)
    return tuple(Fr(n, d) for n, d in pairs)


def test_profile_key_canonical_is_lexicographic_minimum():
    p = profile_sphere(5, 2)
    key, flipped = profile_key(p)
    negated = tuple(mod_one(-s) for s in p.s_triple)
    assert key_fractions(key) == min(p.s_triple, negated)
    assert flipped == (key_fractions(key) != p.s_triple)
    assert key[1] == 3
    assert key[0] is p.cohomology_type


def test_profile_key_self_negating_triple():
    # s-triple (0, 0, 1/2) equals its own negation mod 1; both orientations
    # then share the identical key with flipped = False.
    p = profile_sphere(0, -1)
    assert p.s_triple == tuple(mod_one(-s) for s in p.s_triple)
    key, flipped = profile_key(p)
    assert flipped is False
    assert profile_key(reversed_profile(p)) == (key, False)


# Reduced s-values, with 0 and 1/2 (the values equal to their own negation)
# drawn often, so that leading entries of a triple and its negation tie.
s_values = st.one_of(st.sampled_from([Fr(0), Fr(1, 2)]), st.fractions().map(lambda q: q % 1))


def profile_with(s_triple, r=5):
    return InvariantProfile(
        CohomologyType.E, r, *s_triple, ResidueClass(1, r), frozenset({ResidueClass(2, r)}), Pi4.UNKNOWN
    )


@given(st.tuples(s_values, s_values, s_values))
def test_negation_agrees_with_fraction_mod_one(s_triple):
    p = profile_with(s_triple)
    negated = tuple((-s) % 1 for s in s_triple)
    q = reversed_profile(p)
    assert q.s_triple == negated
    assert q.lk == frozenset({ResidueClass(3, 5)})
    assert (q.cohomology_type, q.r, q.p1, q.pi4) == (p.cohomology_type, p.r, p.p1, p.pi4)


@given(st.tuples(s_values, s_values, s_values))
def test_profile_key_is_fraction_lexicographic_minimum(s_triple):
    p = profile_with(s_triple)
    negated = tuple((-s) % 1 for s in s_triple)
    canonical = min(s_triple, negated)
    key, flipped = profile_key(p)
    assert key[:2] == (p.cohomology_type, p.r)
    assert key_fractions(key) == canonical
    assert flipped == (canonical != s_triple)
    reversed_key, reversed_flipped = profile_key(reversed_profile(p))
    assert reversed_key == key and hash(reversed_key) == hash(key)
    assert reversed_flipped == (flipped if negated == s_triple else not flipped)


# ---------------------------------------------------------------------------
# Index construction.
# ---------------------------------------------------------------------------


def entry(spec: BundleSpec):
    from kreckstolz.bundle_families import profile

    return (describe_bundle(spec.family, spec.a, spec.b, spec.t), profile(spec))


def test_index_circle_parameter_swap_shares_bucket_and_bit():
    left = entry(BundleSpec(Family.CIRCLE, 2, 1, t=1))
    right = entry(BundleSpec(Family.CIRCLE, 1, 2, t=1))
    index = build_index([left, right])
    assert len(index) == 2
    ((key, entries),) = index.buckets.items()
    assert (key, entries[0].flipped) == profile_key(left[1])
    assert entries[0].flipped == entries[1].flipped
    assert {e.descriptor for e in entries} == {"circle:1,2,1", "circle:1,1,2"}


def test_index_sphere_parameter_swap_shares_bucket_opposite_bits():
    index = build_index([entry(BundleSpec(Family.SPHERE, 5, 2)), entry(BundleSpec(Family.SPHERE, 2, 5))])
    assert len(index) == 2
    ((_, entries),) = index.buckets.items()
    assert entries[0].flipped != entries[1].flipped


def test_index_empty():
    index = build_index([])
    assert len(index) == 0
    assert index.buckets == {}


def test_index_iteration_is_deterministic():
    entries = sphere_grid(3, -10, 10)
    a = build_index(entries)
    b = build_index(list(entries))
    assert list(a.buckets) == list(b.buckets)
    assert a == b


# ---------------------------------------------------------------------------
# Matching.
# ---------------------------------------------------------------------------

W11_DESCRIPTOR = "eschenburg:1,1,-2|0,0,0"


def test_match_homogeneous_fixture_against_sphere_grid(fixtures):
    w11 = fixture_by_k(fixtures, (1, 1, -2))
    left = build_index(fixture_entries([w11]))
    right = build_index(sphere_grid(3, 0, 504))
    records = match_all(left, right)
    assert {rec.right for rec in records} == {"sphere:2,-1", "sphere:146,143"}
    assert all(rec.left == W11_DESCRIPTOR for rec in records)
    assert all(rec.orientation is PRESERVING for rec in records)
    assert all(rec.evidence == (3, Fr(1, 112), Fr(35, 36), Fr(1, 18)) for rec in records)


def test_match_records_survive_independent_reverification(fixtures):
    w11 = fixture_by_k(fixtures, (1, 1, -2))
    left = build_index(fixture_entries([w11]))
    right = build_index(sphere_grid(3, -200, 200))
    for rec in match_all(left, right):
        a, b = (int(x) for x in rec.right.split(":")[1].split(","))
        verdict = ks_diffeomorphic(fixture_profile(w11), profile_sphere(a, b))
        assert verdict is rec.orientation


def test_match_is_symmetric(fixtures):
    w11 = fixture_by_k(fixtures, (1, 1, -2))
    left = build_index(fixture_entries([w11]))
    right = build_index(sphere_grid(3, 0, 504))
    forward = {(rec.left, rec.right, rec.orientation) for rec in match_all(left, right)}
    backward = {(rec.right, rec.left, rec.orientation) for rec in match_all(right, left)}
    assert forward == backward


def test_match_disjoint_orders_is_empty(fixtures):
    w11 = fixture_by_k(fixtures, (1, 1, -2))
    left = build_index(fixture_entries([w11]))
    right = build_index(sphere_grid(5, 0, 200))
    assert match_all(left, right) == ()


def test_match_pi4_gate_can_be_released():
    # t even gives pi4 = Z/2; a doctored copy claiming pi4 = 0 conflicts,
    # so the pair only matches when the caller drops the pi4 requirement.
    p = profile_circle(2, 2, 1)
    q = dataclasses.replace(p, pi4=Pi4.ZERO)
    left = build_index([("genuine", p)])
    right = build_index([("doctored", q)])
    assert match_all(left, right) == ()
    records = match_all(left, right, require_pi4_compat=False)
    assert [(rec.left, rec.right, rec.orientation) for rec in records] == [
        ("genuine", "doctored", PRESERVING)
    ]


def test_match_rejects_incoherent_p1():
    p = profile_sphere(7, 2)
    q = dataclasses.replace(p, p1=ResidueClass((p.p1.value + 1) % 5, 5))
    with pytest.raises(InconsistentFixture):
        match_all(build_index([("a", p)]), build_index([("b", q)]))


def test_match_rejects_incoherent_linking_class():
    p = profile_sphere(7, 2)
    q = dataclasses.replace(p, lk=frozenset({ResidueClass(2, 5)}))
    with pytest.raises(InconsistentFixture):
        match_all(build_index([("a", p)]), build_index([("b", q)]))


# Reference pair loop: match_all as it was when it decided each pair's
# orientation by comparing s-triples, first as given and then against the
# reversal of the right-hand profile.  The differential tests below hold
# the flip-bit loop of match_all to it, records and error messages alike.


def _reference_orient(p, q, agree):
    if p.cohomology_type is not q.cohomology_type or p.r != q.r:
        return None
    if agree(p, q):
        return Orientation.PRESERVING
    if agree(p, reversed_profile(q)):
        return Orientation.REVERSING
    return None


def _reference_s_triple_agree(right):
    def agree(left, candidate):
        if left.s_triple != candidate.s_triple:
            return False
        orientation = (Orientation.PRESERVING if candidate is right else Orientation.REVERSING).value
        if not lk_compatible(left.lk, candidate.lk):
            raise InconsistentFixture(
                f"s-values match ({orientation}) but linking classes differ: "
                f"{left.lk} vs {candidate.lk}"
            )
        if left.p1 != candidate.p1:
            raise InconsistentFixture(
                f"s-values match ({orientation}) but p1 differs: "
                f"{left.p1} vs {candidate.p1}"
            )
        return True

    return agree


class ReferenceEntry(NamedTuple):
    descriptor: str
    profile: InvariantProfile


def reference_buckets(entries):
    """(descriptor, profile) pairs grouped by profile_key, buckets and entries in input order."""
    buckets = {}
    for descriptor, profile in entries:
        buckets.setdefault(profile_key(profile)[0], []).append(ReferenceEntry(descriptor, profile))
    return buckets


def reference_match_all(left, right, require_pi4_compat=True):
    """The reference pair loop over two lists of (descriptor, profile) pairs, bucketed here, not by build_index."""
    left_buckets, right_buckets = reference_buckets(left), reference_buckets(right)
    records = []
    for key, left_entries in left_buckets.items():
        right_entries = right_buckets.get(key)
        if not right_entries:
            continue
        for left_entry in left_entries:
            profile = left_entry.profile
            for right_entry in right_entries:
                other = right_entry.profile
                if require_pi4_compat and not pi4_compatible(profile.pi4, other.pi4):
                    continue
                orientation = _reference_orient(profile, other, _reference_s_triple_agree(other))
                if orientation is None:
                    continue
                records.append(
                    MatchRecord(
                        left=left_entry.descriptor,
                        right=right_entry.descriptor,
                        orientation=orientation,
                        evidence=(profile.r, profile.s1, profile.s2, profile.s3),
                    )
                )
    return tuple(records)


def match_outcome(match, left, right, require_pi4_compat):
    """("ok", records) or ("inconsistent", message) of one match call."""
    try:
        return "ok", match(left, right, require_pi4_compat)
    except InconsistentFixture as exc:
        return "inconsistent", str(exc)


def _shift_p1(p):
    return dataclasses.replace(p, p1=ResidueClass((p.p1.value + 1) % p.r, p.r))


def _shift_lk(p):
    if p.lk is None:
        return dataclasses.replace(p, lk=frozenset({ResidueClass(0, p.r)}))
    return dataclasses.replace(p, lk=frozenset(ResidueClass((c.value + 1) % p.r, p.r) for c in p.lk))


def _swap_pi4(p):
    return dataclasses.replace(p, pi4=Pi4.Z2 if p.pi4 is Pi4.ZERO else Pi4.ZERO)


CORRUPTIONS = {"p1": _shift_p1, "lk": _shift_lk, "pi4": _swap_pi4}


def corrupted(entries, corrupt, every=7):
    """The entries with every `every`-th profile passed through `corrupt`."""
    return [(d, corrupt(p) if i % every == 3 else p) for i, (d, p) in enumerate(entries)]


@pytest.fixture(scope="module")
def match_sources(fixtures):
    return {
        "sphere r=3 period": sphere_grid(3, 0, 504),
        "sphere r=3 next period": sphere_grid(3, 504, 1008),
        "sphere r=4 period": sphere_grid(4, -336, 336),
        "sphere r=1 period": sphere_grid(1, -84, 84),
        "spin-sphere r=5 run": [
            (describe_bundle(Family.SPIN_SPHERE, a, a - 5), profile_spin_sphere(a, a - 5))
            for a in range(-150, 150)
        ],
        "circle grid": circle_grid(3, 40) + circle_grid(4, 30),
        "fixtures": fixture_entries(fixtures),
    }


def test_match_all_agrees_with_reference_loop(match_sources):
    entry_lists = {}
    for name, entries in match_sources.items():
        entry_lists[name] = entries
        for kind, corrupt in CORRUPTIONS.items():
            entry_lists[f"{name} [{kind}]"] = corrupted(entries, corrupt)
    indexes = {name: build_index(entries) for name, entries in entry_lists.items()}
    seen = {"records": 0, "reversing": 0, "messages": set()}
    for left_name, right_name in itertools.product(indexes, repeat=2):
        if "[" in left_name and "[" in right_name:
            continue
        for require_pi4_compat in (True, False):
            left, right = indexes[left_name], indexes[right_name]
            got = match_outcome(match_all, left, right, require_pi4_compat)
            want = match_outcome(
                reference_match_all, entry_lists[left_name], entry_lists[right_name], require_pi4_compat
            )
            assert got == want, (left_name, right_name, require_pi4_compat)
            if got[0] == "ok":
                seen["records"] += len(got[1])
                seen["reversing"] += sum(rec.orientation is REVERSING for rec in got[1])
            else:
                seen["messages"].add(got[1].split(":")[0])
    # The sources must reach both orientations and every kind of conflict.
    assert seen["reversing"] > 1000 and seen["records"] > seen["reversing"]
    assert seen["messages"] == {
        "s-values match (preserving) but linking classes differ",
        "s-values match (reversing) but linking classes differ",
        "s-values match (preserving) but p1 differs",
        "s-values match (reversing) but p1 differs",
    }


def test_match_all_self_negating_triple_is_preserving():
    p = profile_sphere(0, -1)
    assert reversed_profile(p).s_triple == p.s_triple
    left, right = [("a", p)], [("b", reversed_profile(p))]
    records = match_all(build_index(left), build_index(right))
    assert [(rec.left, rec.right, rec.orientation) for rec in records] == [("a", "b", PRESERVING)]
    assert records == reference_match_all(left, right)


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (
            _shift_lk,
            "s-values match (reversing) but linking classes differ: "
            "frozenset({ResidueClass(value=1, modulus=5)}) vs frozenset({ResidueClass(value=0, modulus=5)})",
        ),
        (_shift_p1, "s-values match (reversing) but p1 differs: 2 mod 5 vs 3 mod 5"),
    ],
    ids=["lk", "p1"],
)
def test_match_all_rejects_incoherent_reversing_pair(corrupt, message):
    p = profile_sphere(7, 2)
    q = corrupt(profile_sphere(2, 7))  # the same bundle, opposite orientation
    left, right = [("a", p)], [("b", q)]
    with pytest.raises(InconsistentFixture) as excinfo:
        match_all(build_index(left), build_index(right))
    assert str(excinfo.value) == message
    assert match_outcome(reference_match_all, left, right, True) == ("inconsistent", message)


def _catalog_lk_text(*values):
    return "frozenset({%s})" % ", ".join(f"ResidueClass(value={v}, modulus=25)" for v in values)


@pytest.mark.parametrize(
    "reverse, message",
    [
        (
            False,
            "s-values match (preserving) but linking classes differ: "
            f"{_catalog_lk_text(7, 18)} vs {_catalog_lk_text(8, 19)}",
        ),
        (
            True,
            "s-values match (reversing) but linking classes differ: "
            f"{_catalog_lk_text(7, 18)} vs {_catalog_lk_text(6, 17)}",
        ),
    ],
    ids=["preserving", "reversing"],
)
def test_match_all_rejects_incoherent_catalog_linking_pair(fixtures, reverse, message):
    # The r = 25 catalog line has the sign-ambiguous pair {7, 18}, whose
    # frozenset iterates 7 first although one built from 7, 18 in that
    # order iterates 18 first: entries keep the classes in the profile's
    # iteration order, and the message prints them so.
    p = fixture_profile(eschenburg.find_fixture(fixtures, (1, 2, -9), (-6, 0, 0)))
    assert [c.value for c in p.lk] == [7, 18]
    assert [c.value for c in frozenset(ResidueClass(v, 25) for v in (7, 18))] == [18, 7]
    q = _shift_lk(reversed_profile(p) if reverse else p)
    left, right = [("a", p)], [("b", q)]
    with pytest.raises(InconsistentFixture) as excinfo:
        match_all(build_index(left), build_index(right))
    assert str(excinfo.value) == message
    assert match_outcome(reference_match_all, left, right, True) == ("inconsistent", message)


# ---------------------------------------------------------------------------
# The s1 prefilter of find_matches.
# ---------------------------------------------------------------------------


def s1_bucket_of(cohomology_type, r, n, d):
    """The s1 bucket that a source gives an entry with s1 = n/d."""
    return _sign_blind(_s1_value(cohomology_type, r, n, d))


nonzero = st.integers(-10**6, 10**6).filter(bool)


@given(st.integers(-10**6, 10**6), nonzero)
def test_sphere_s1_bucket_agrees_with_profile(a, d):
    p = profile_sphere(a, a - d)
    assert s1_bucket_of(CohomologyType.E, abs(d), *sphere_s1(a, a - d)) == profile_key(p)[0][:4]


@given(st.integers(-10**4, 10**4), st.integers(-300, 300), st.integers(-300, 300))
def test_circle_s1_bucket_agrees_with_profile(t, a, b):
    s = t * (a + b) ** 2 - a * b
    assume(gcd(a, b) == 1 and s != 0)
    p = profile_circle(t, a, b)
    assert s1_bucket_of(CohomologyType.E, abs(s), *circle_s1(t, a, b)) == profile_key(p)[0][:4]


@given(st.tuples(s_values, s_values, s_values), st.booleans())
def test_s1_bucket_is_the_head_of_the_triple_key(s_triple, reverse):
    # The identity behind find_matches (its point 2): a space's s1 bucket is
    # the first four fields of its triple key, so equal triple keys give
    # equal s1 buckets.  s_values draws the self-negating 0 and 1/2 often.
    p = profile_with(s_triple)
    p = reversed_profile(p) if reverse else p
    assert s1_bucket_of(p.cohomology_type, p.r, p.s1.numerator, p.s1.denominator) == profile_key(p)[0][:4]


def test_s1_bucket_is_reduced_and_sign_blind():
    assert s1_bucket_of(CohomologyType.E, 3, 9, 12) == (CohomologyType.E, 3, 1, 4)
    assert s1_bucket_of(CohomologyType.E, 3, -9, 12) == (CohomologyType.E, 3, 1, 4)
    assert s1_bucket_of(CohomologyType.E, 3, 9, -12) == (CohomologyType.E, 3, 1, 4)
    assert s1_bucket_of(CohomologyType.E, 3, 6, 12) == (CohomologyType.E, 3, 1, 2)
    assert s1_bucket_of(CohomologyType.E, 3, -24, 12) == (CohomologyType.E, 3, 0, 1)


# The triple stage of find_matches.


def assert_entry_keys_agree(source, i, profile):
    """Entry i of `source` has the triple key and flip bit of `profile`, and its s1 bucket heads that key."""
    value = source.s1[i % len(source.s1)]
    key, flipped = source.key(source.params[i], value)
    assert (key, flipped) == profile_key(profile)
    assert _sign_blind(value) == key[:4]


@given(st.integers(-10**6, 10**6), st.integers(1, 10**6))
def test_sphere_triple_key_agrees_with_profile_key(a, r):
    assert_entry_keys_agree(sphere_source(r, a, a + 1), 0, profile_sphere(a, a - r))


# No deadline: an example builds up to 1,440 profiles.
@settings(deadline=None, max_examples=50)
@given(st.integers(-10**6, 10**6), st.integers(1, 60), st.integers(1, 10**3))
def test_sphere_keys_and_entries_agree_with_profiles_across_periods(start, r, extra):
    # Longer than 12r, so the source reuses its s2, s3 of each class of a
    # mod 12r and its p1, lk, pi4 of each class mod r.
    source = sphere_source(r, start, start + 12 * r + extra % (12 * r) + 1)
    for i, a in enumerate(source.params):
        p = profile_sphere(a, a - r)
        assert_entry_keys_agree(source, i, p)
        assert source.build(a) == _entry_fields((describe_bundle(Family.SPHERE, a, a - r), p))


@given(st.integers(-10**4, 10**4), st.integers(-300, 300), st.integers(-300, 300))
def test_circle_triple_key_agrees_with_profile_key(t, a, b):
    s = t * (a + b) ** 2 - a * b
    assume(gcd(a, b) == 1 and s != 0)
    mn = partial(choose_mn, Family.CIRCLE)
    got = _circle_key(abs(s), mn, (a, b, t), _s1_value(CohomologyType.E, abs(s), *circle_s1(t, a, b)))
    assert got == profile_key(profile_circle(t, a, b))


def sources_with_eager_entries(r, bound):
    """A circle grid and a sphere range, each with its entries built by profile_circle or profile_sphere."""
    start, stop = -3 * r, 3 * r
    return (
        (circle_source(r, bound), circle_grid(r, bound)),
        (sphere_source(r, start, stop), sphere_grid(r, start, stop)),
    )


# No deadline: an example takes 2-50 ms, so only a stall of the machine
# reaches Hypothesis' default 200 ms, and it then fails as FlakyFailure
# although every (r, bound) drawn here passes.
@settings(deadline=None)
@given(st.integers(1, 60), st.integers(0, 12))
def test_source_triple_keys_agree_with_profile_key(r, bound):
    for source, eager in sources_with_eager_entries(r, bound):
        assert len(source.params) == len(eager)
        for i, (_, profile) in enumerate(eager):
            assert_entry_keys_agree(source, i, profile)


# No deadline: an example takes a few ms, so only a stall of the machine
# (or a line tracer) reaches Hypothesis' default 200 ms, and it then fails
# as DeadlineExceeded or FlakyFailure although every example drawn passes.
@settings(deadline=None)
@given(st.integers(1, 50), st.integers(0, 12))
def test_entries_built_from_the_key_equal_the_eager_entries(r, bound):
    # find_matches builds an entry's descriptor, p1, linking classes and
    # pi4 from its parameters, the fields that build_index converts from
    # the eager profile (p1 and lk as residues mod r), and match_all reads
    # its s-values back from its key and flip bit: with the entry's own bit
    # those of profile_sphere or profile_circle, with the other bit their
    # negation.
    for source, eager in sources_with_eager_entries(r, bound):
        for i, (params, (descriptor, profile)) in enumerate(zip(source.params, eager)):
            key, flipped = source.key(params, source.s1[i % len(source.s1)])
            assert source.build(params) == _entry_fields((descriptor, profile))
            assert key_s_triple(key, flipped) == profile.s_triple
            assert key_s_triple(key, not flipped) == reversed_profile(profile).s_triple


@given(st.sampled_from(Family), st.integers(-50, 50), st.integers(-300, 300), st.integers(-300, 300))
def test_integer_entry_fields_wrap_to_the_profile_fields(family, t, a, b):
    # Entries hold p1 and the linking classes as residues mod r; wrapped
    # into ResidueClass and frozenset they are the profile's fields, in all
    # four families, and for the sphere and circle families they are what
    # sphere_p1_lk_pi4 and circle_p1_lk_pi4 return.
    if family in (Family.CIRCLE, Family.SPIN_CIRCLE):
        order = t * (a + b) ** 2 - a * b if family is Family.CIRCLE else a * a - t * b * b
        assume(gcd(a, b) == 1 and order != 0)
        spec = BundleSpec(family, a, b, t)
    else:
        assume(a != b)
        spec = BundleSpec(family, a, b)
    p = profile(spec)
    _, p1, lk, pi4 = _entry_fields(("x", p))
    assert ResidueClass(p1, p.r) == p.p1 and pi4 is p.pi4
    assert (None if lk is None else frozenset(ResidueClass(v, p.r) for v in lk)) == p.lk
    if family is Family.SPHERE:
        assert sphere_p1_lk_pi4(a, b) == (p1, lk, pi4)
    if family is Family.CIRCLE:
        assert circle_p1_lk_pi4(t, a, b, *choose_mn(family, a, b)) == (p1, lk, pi4)


def test_fixture_triple_keys_agree_with_profile_key(fixtures):
    source = fixture_source(fixtures)
    for i, (_, profile) in enumerate(source.params):
        assert_entry_keys_agree(source, i, profile)


# No deadline: an example takes a few ms, so only a stall of the machine
# (or a line tracer) reaches Hypothesis' default 200 ms, and it then fails
# as DeadlineExceeded or FlakyFailure although every example drawn passes.
@settings(deadline=None)
@given(st.integers(1, 300), st.integers(-10**12, 10**12), st.integers(0, 10**6))
def test_sphere_s1_has_period_56r(r, start, offset):
    a = start + offset
    value = _s1_value(CohomologyType.E, r, *sphere_s1(a, a - r))
    assert _s1_value(CohomologyType.E, r, *sphere_s1(a + 56 * r, a + 55 * r)) == value
    # The source stores one period and gives entry i the value at i mod period.
    source = sphere_source(r, start, a + 1)
    value = Fr(*sphere_s1(a, a - r)) % 1
    assert source.s1[offset % len(source.s1)] == (CohomologyType.E, r, value.numerator, value.denominator)


def with_sphere_s_values(fixtures, k, a):
    """The catalog with the s-values of the fixture with parameters k replaced by those of S_{a, a-r}."""
    out = []
    for fx in fixtures:
        if tuple(fx.space.k) == k:
            r = fixture_profile(fx).r
            fx = dataclasses.replace(fx, **dict(zip(("s1", "s2", "s3"), profile_sphere(a, a - r).s_triple)))
        out.append(fx)
    return out


@pytest.fixture(scope="module")
def prefilter_sources(fixtures):
    """Each source with its entries built eagerly by fixture_profile, profile_circle or profile_sphere."""
    # The r = 17 fixture's linking classes {5, 12} meet neither {1} nor {16}.
    lk_catalog = with_sphere_s_values(fixtures, (1, 2, 5), 0)
    # W11 has p1 = 0 mod 3; S_{0,-3} has p1 = 1 mod 3.
    p1_catalog = with_sphere_s_values(fixtures, (1, 1, -2), 0)
    sources = {
        "fixtures": (fixture_source(fixtures), fixture_entries(fixtures)),
        "fixtures [lk]": (fixture_source(lk_catalog), fixture_entries(lk_catalog)),
        "fixtures [p1]": (fixture_source(p1_catalog), fixture_entries(p1_catalog)),
    }
    for r, bound in ((3, 40), (4, 30), (17, 120)):
        sources[f"circle r={r}"] = (circle_source(r, bound), circle_grid(r, bound))
    for r in (1, 3, 4, 17):
        start, stop = -84 * r + 5, 84 * r + 5
        sources[f"sphere r={r} period"] = (sphere_source(r, start, stop), sphere_grid(r, start, stop))
    return sources


def test_find_matches_agrees_with_eager_pipeline(prefilter_sources):
    eager = {name: build_index(entries) for name, (_, entries) in prefilter_sources.items()}
    seen = {"records": 0, "reversing": 0, "messages": set()}
    for left_name, right_name in itertools.product(prefilter_sources, repeat=2):
        if "[" in left_name and "[" in right_name:
            continue
        left, right = prefilter_sources[left_name][0], prefilter_sources[right_name][0]
        for require_pi4_compat in (True, False):
            got = match_outcome(find_matches, left, right, require_pi4_compat)
            want = match_outcome(match_all, eager[left_name], eager[right_name], require_pi4_compat)
            assert got == want, (left_name, right_name, require_pi4_compat)
            if got[0] == "ok":
                seen["records"] += len(got[1])
                seen["reversing"] += sum(rec.orientation is REVERSING for rec in got[1])
            else:
                seen["messages"].add(got[1].split(" but ")[1].split(":")[0])
    # Both orientations and both kinds of conflict must be reached.
    assert seen["reversing"] > 100 and seen["records"] > seen["reversing"]
    assert seen["messages"] == {"linking classes differ", "p1 differs"}


def counted_sphere_s1(monkeypatch):
    """The list of a for which atlas_search computes sphere_s1 from now on."""
    calls = []
    monkeypatch.setattr(atlas_search, "sphere_s1", lambda a, b: calls.append(a) or sphere_s1(a, b))
    return calls


def test_find_matches_builds_profiles_only_for_shared_triple_buckets(fixtures, monkeypatch):
    calls = counted_sphere_s1(monkeypatch)
    built = []
    period = sphere_source(41, 0, 168 * 41)
    source = dataclasses.replace(period, build=lambda a: built.append(a) or period.build(a))
    records = find_matches(fixture_source(fixtures), source)
    # The catalog lists the order-41 space in both orientations.
    assert len(records) == 4
    assert {rec.right for rec in records} == {"sphere:2285,2244", "sphere:5237,5196"}
    # Against the catalog the sphere side is solved (ediffeo_solve), so no
    # s1 value is computed, and only the two entries that share the
    # catalog's whole s-triple are built.
    assert calls == []
    assert built == [2285, 5237]


def test_find_matches_on_a_far_sphere_range_computes_no_s1_value(fixtures, monkeypatch):
    calls = counted_sphere_s1(monkeypatch)
    start, stop, period = 10**15, 10**15 + 10**7, 168 * 41
    records = find_matches(fixture_source(fixtures), sphere_source(41, start, stop))
    expected = [
        f"sphere:{a},{a - 41}"
        for base in range(start - start % period, stop, period)
        for a in (base + 2285, base + 5237)
        if start <= a < stop
    ]
    # Both catalog orientations of the order-41 space, each against every
    # partner in order of a.  The solved classes are walked through the
    # range, a step per partner: no s1 value is computed.
    assert [rec.right for rec in records] == expected * 2
    assert calls == []


def counted_ediffeo_solve(monkeypatch):
    """The list of problems that atlas_search passes to ediffeo_solve from now on."""
    problems = []
    monkeypatch.setattr(atlas_search, "ediffeo_solve", lambda p, o: problems.append(p) or ediffeo_solve(p, o))
    return problems


def test_find_matches_sphere_against_circles_on_a_far_range_walks_one_s1_period(monkeypatch):
    calls, problems = counted_sphere_s1(monkeypatch), counted_ediffeo_solve(monkeypatch)
    r, period = 17, 168 * 17
    base = 10**15 - 10**15 % period
    circles = circle_source(r, 120)
    near = find_matches(sphere_source(r, 0, 3 * period), circles)
    # A sphere range against circles keeps both stages: s1 is computed for
    # one period only, and nothing is solved.  S_{a,a-r}'s s-triple, p1 and
    # linking classes depend on a mod 168r, so a far range repeats the near one.
    del calls[:]
    far = find_matches(sphere_source(r, base, base + 3 * period), circles)
    assert len(near) > 0 and len(calls) <= 56 * r and problems == []
    shifted = [
        dataclasses.replace(rec, left=describe_bundle(Family.SPHERE, a + base, a + base - r))
        for rec in near
        for a in [int(rec.left.split(":")[1].split(",")[0])]
    ]
    assert far == tuple(shifted)


def test_find_matches_solves_order_19513_against_the_catalog(fixtures, monkeypatch):
    calls, problems = counted_sphere_s1(monkeypatch), counted_ediffeo_solve(monkeypatch)
    r = 19513
    records = find_matches(fixture_source(fixtures), sphere_source(r, 0, 168 * r))
    # Criterion 4: the catalog's order-19513 triple is carried, reversed, by
    # exactly the classes 273181 and 2614741 mod 168r.
    assert [(rec.left, rec.right, rec.orientation) for rec in records] == [
        ("eschenburg:56,103,-159|0,0,0", "sphere:273181,253668", REVERSING),
        ("eschenburg:56,103,-159|0,0,0", "sphere:2614741,2595228", REVERSING),
    ]
    # One catalog key of this order, solved in each orientation; no s1.
    assert len(problems) == 2 and calls == []


def test_find_matches_walks_solved_classes_through_a_half_open_range(fixtures):
    catalog = fixture_source(fixtures)
    # The order-41 classes are 2285 and 5237 mod 168r: a range holds a
    # class exactly when start <= a < stop.
    assert {rec.right for rec in find_matches(catalog, sphere_source(41, 2285, 2286))} == {"sphere:2285,2244"}
    assert find_matches(sphere_source(41, 2286, 5237), catalog) == ()


def test_find_matches_walks_no_long_range_without_solved_classes(fixtures, monkeypatch):
    problems = counted_ediffeo_solve(monkeypatch)
    catalog = fixture_source(fixtures)
    # The catalog has no order-2 key, and its order-17 key solves in
    # neither orientation: with no class to walk, a range of 10^18 values
    # costs nothing.
    assert find_matches(catalog, sphere_source(2, 0, 10**18)) == ()
    assert problems == []
    assert find_matches(sphere_source(17, -(10**18), 10**18), catalog) == ()
    assert len(problems) == 2


def test_find_matches_keeps_the_bit_clear_for_a_self_negating_triple():
    # An order-1 space given the s-values (0, 0, 1/2) of S_{0,-1}: the
    # triple is its own negation, so both orientations solve to the same
    # classes, and every match preserves orientation.
    fx = EschenburgFixture(EschenburgSpace((0, 0, 2), (0, 1, 1)), *profile_sphere(0, -1).s_triple)
    catalog, eager_catalog = fixture_source([fx]), build_index(fixture_entries([fx]))
    sphere, eager = sphere_source(1, -200, 200), build_index(sphere_grid(1, -200, 200))
    records = find_matches(catalog, sphere)
    assert records == match_all(eager_catalog, eager)
    assert find_matches(sphere, catalog) == match_all(eager, eager_catalog)
    assert records and {rec.orientation for rec in records} == {PRESERVING}


@pytest.fixture(scope="module")
def catalogs(prefilter_sources):
    """The catalog and its [lk] and [p1] corruptions, each as a source and as an eager index."""
    names = ("fixtures", "fixtures [lk]", "fixtures [p1]")
    return [(prefilter_sources[name][0], build_index(prefilter_sources[name][1])) for name in names]


# No deadline: an example builds up to 2·168r eager sphere profiles and
# takes up to a few seconds, past Hypothesis' default 200 ms, and it then
# fails as DeadlineExceeded or FlakyFailure although every example drawn passes.
@settings(deadline=None, max_examples=30)
@given(st.data())
def test_find_matches_against_the_catalog_agrees_with_eager_pipeline(catalogs, data):
    # The eager side builds every profile of the range, so orders stay at
    # most 300 (the order-19513 range is checked above).
    orders = sorted({key[1] for _, index in catalogs for key in index.buckets if key[0] is CohomologyType.E})
    r = data.draw(st.sampled_from([r for r in orders if r <= 300]))
    start = data.draw(st.integers(-4 * 168 * r, 4 * 168 * r))
    stop = start + data.draw(st.integers(0, 2 * 168 * r))
    sphere, eager = sphere_source(r, start, stop), build_index(sphere_grid(r, start, stop))
    for source, index in catalogs:
        for pi4 in (True, False):
            got = match_outcome(find_matches, source, sphere, pi4), match_outcome(find_matches, sphere, source, pi4)
            assert got == (match_outcome(match_all, index, eager, pi4), match_outcome(match_all, eager, index, pi4))


def test_find_matches_solves_when_56_per_listed_entry_fit_in_the_s1_period(fixtures, monkeypatch):
    calls, problems = counted_sphere_s1(monkeypatch), counted_ediffeo_solve(monkeypatch)
    catalog, eager_catalog = fixture_source(fixtures), build_index(fixture_entries(fixtures))
    # The catalog holds two entries of order 41 (one space, both
    # orientations), so a range of 56 * 2 values is solved and one value
    # fewer runs the two stages.  Both ranges hold the class 2285.
    start = 2285 - 50
    for stop, s1_values, solved in ((start + 112, 0, True), (start + 111, 111, False)):
        del calls[:], problems[:]
        records = find_matches(catalog, sphere_source(41, start, stop))
        assert records and records == match_all(eager_catalog, build_index(sphere_grid(41, start, stop)))
        assert len(calls) == s1_values and bool(problems) is solved


def test_find_matches_walks_a_last_s1_period_cut_short():
    # Two sphere ranges take the two stages.  Ranges of 420 = 2.5 * 168
    # values end inside their last s1 period, where Source.select stops
    # at the first kept position past the end.
    left, right = (3, 0, 420), (3, 504, 924)
    eager = [build_index(sphere_grid(*bounds)) for bounds in (left, right)]
    assert find_matches(sphere_source(*left), sphere_source(*right)) == match_all(*eager) != ()


@pytest.fixture(scope="module")
def small_circle_grids():
    """(r, bound) of the nonempty circle grids with at most r entries, r <= 60 and bound <= 5."""
    return [(r, bound) for r in range(1, 61) for bound in range(6) if 0 < len(circle_source(r, bound).params) <= r]


# No deadline: an example builds up to 56r + 168r eager sphere profiles and
# takes up to a second, past Hypothesis' default 200 ms.  monkeypatch is
# function-scoped: each example installs its own counters, and all are
# undone after the last example.
@settings(deadline=None, max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_find_matches_solves_a_sphere_range_against_a_small_circle_grid(small_circle_grids, monkeypatch, data):
    # A circle grid is a listed source like the catalog: with at most r
    # entries, 56 per entry fit in a range of 56r values, so the range is
    # solved, on either side, and agrees with the eager pipeline.
    calls, problems = counted_sphere_s1(monkeypatch), counted_ediffeo_solve(monkeypatch)
    r, bound = data.draw(st.sampled_from(small_circle_grids))
    circles = circle_source(r, bound)
    start = data.draw(st.integers(-4 * 168 * r, 4 * 168 * r))
    stop = start + 56 * len(circles.params) + data.draw(st.integers(0, 168 * r))
    sphere, eager = sphere_source(r, start, stop), build_index(sphere_grid(r, start, stop))
    eager_circles = build_index(circle_grid(r, bound))
    for pi4 in (True, False):
        del calls[:], problems[:]
        got = match_outcome(find_matches, circles, sphere, pi4), match_outcome(find_matches, sphere, circles, pi4)
        want = match_outcome(match_all, eager_circles, eager, pi4), match_outcome(match_all, eager, eager_circles, pi4)
        assert got == want
        assert calls == [] and problems


def test_find_matches_builds_sphere_entries_from_one_s_triple_per_key(monkeypatch):
    profiled = []
    monkeypatch.setattr(atlas_search, "profile_sphere", lambda a, b: profiled.append(a) or profile_sphere(a, b))
    s_triples = []

    def counted_key_s_triple(key, flipped, *fraction):
        s_triples.append((key, flipped))
        return key_s_triple(key, flipped, *fraction)

    monkeypatch.setattr(atlas_search, "key_s_triple", counted_key_s_triple)
    validated = []
    post_init = InvariantProfile.__post_init__
    monkeypatch.setattr(InvariantProfile, "__post_init__", lambda self: validated.append(self) or post_init(self))
    r = 13
    records = find_matches(sphere_source(r, 0, 168 * r), sphere_source(r, 168 * r, 2 * 168 * r))
    # s1 has period 56r in a, so every entry of a period has partners in
    # the next one and shares its key and bit with other entries.
    assert len(records) > 168 * r
    assert profiled == []
    assert len(s_triples) == len(set(s_triples)) < 168 * r
    # Entries hold p1, lk and pi4, and match_all takes the s-values from
    # the keys: no InvariantProfile is built, for spheres or circles.
    assert validated == []
    assert len(find_matches(sphere_source(r, 0, 168 * r), circle_source(r, 30))) > 0
    assert validated == []


def test_find_matches_computes_each_distinct_value_once(monkeypatch):
    counted = {name: [] for name in ("choose_mn", "sphere_s23", "sphere_p1_lk_pi4")}
    for name, calls in counted.items():
        function = getattr(atlas_search, name)
        monkeypatch.setattr(atlas_search, name, lambda *args, f=function, c=calls: c.append(args) or f(*args))
    r, period = 17, 168 * 17
    circles = circle_source(r, 60)
    keyed = []
    circles = dataclasses.replace(circles, key=lambda hit, s1, key=circles.key: keyed.append(hit) or key(hit, s1))
    spheres = [sphere_source(r, start, start + period) for start in (-period, 0)]
    runs = [find_matches(spheres[0], circles), find_matches(*spheres)]
    assert all(runs) and keyed
    # One Bezout step per (a, b) of a keyed circle entry, shared by its key
    # and its build: (a, b) carries two entries where (a + b)^2 divides 2r.
    assert sorted(args[1:] for args in counted["choose_mn"]) == sorted({(a, b) for a, b, _ in keyed})
    # s2, s3 once per class of a mod 12r, p1, lk, pi4 once per class mod
    # r, in each of the two sphere sources.
    assert 0 < len(counted["sphere_s23"]) <= 2 * 12 * r
    assert 0 < len(counted["sphere_p1_lk_pi4"]) <= 2 * r
    # Each run's evidence holds one Fraction object per distinct s-value.
    for records in runs:
        values = [s for rec in records for s in rec.evidence[1:]]
        assert len({id(s) for s in values}) == len(set(values))


def test_parse_source_loads_fixtures_only_for_a_fixture_source(fixtures):
    calls = []

    def load():
        calls.append(1)
        return fixtures

    assert parse_source("sphere:r=3,start=0,stop=5", load).params == range(0, 5)
    assert parse_source("circle:r=3,bound=2", load).params == circle_source(3, 2).params
    assert calls == []
    assert list(parse_source("fixtures", load).params) == fixture_entries(fixtures)
    assert calls == [1]


# ---------------------------------------------------------------------------
# Grids.
# ---------------------------------------------------------------------------


def test_sphere_grid_contents():
    entries = sphere_grid(3, 0, 5)
    assert [d for d, _ in entries] == [
        "sphere:0,-3",
        "sphere:1,-2",
        "sphere:2,-1",
        "sphere:3,0",
        "sphere:4,1",
    ]
    for descriptor, prof in entries:
        a = int(descriptor.split(":")[1].split(",")[0])
        assert prof == profile_sphere(a, a - 3)


def test_circle_grid_contents():
    entries = circle_grid(17, 40)
    descriptors = [d for d, _ in entries]
    assert len(set(descriptors)) == len(descriptors)
    assert "circle:-17,1,0" in descriptors
    assert "circle:17,1,0" in descriptors
    for _, prof in entries:
        assert prof.r == 17
    assert entries == circle_grid(17, 40)


def reference_circle_params(r, bound):
    """The (a, b, t) of the (2*bound + 1)^2 scan circle_grid once ran, kept as its oracle."""
    params = []
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            s = a + b
            if s == 0:
                continue
            square = s * s
            ab = a * b
            for shifted in (ab - r, ab + r):
                if shifted % square == 0 and gcd(a, b) == 1:
                    params.append((a, b, shifted // square))
    return params


def reference_circle_grid(r, bound):
    return [(describe_bundle(Family.CIRCLE, a, b, t), profile_circle(t, a, b))
            for a, b, t in reference_circle_params(r, bound)]


@pytest.mark.parametrize("r", [1, 2, 3, 4, 17, 25])
def test_circle_grid_matches_full_scan(r):
    # r = 1 and r = 2 have diagonals where both ab - r and ab + r are hits.
    for bound in range(61):
        assert circle_grid(r, bound) == reference_circle_grid(r, bound), bound


# r = 1, 9, 36, 60 and 120 have many square roots of +-r modulo small |s|,
# so their diagonals walk several residue classes of a.
@example(r=1, bound=40)
@example(r=9, bound=40)
@example(r=36, bound=40)
@example(r=60, bound=40)
@example(r=120, bound=40)
@settings(deadline=None)
@given(r=st.integers(1, 500), bound=st.integers(0, 40))
def test_circle_source_params_match_full_scan(r, bound):
    assert list(circle_source(r, bound).params) == reference_circle_params(r, bound)


@settings(deadline=None)
@given(r=st.integers(1, 2000), bound=st.integers(1, 120), data=st.data())
def test_circle_candidates_hold_every_hit_of_their_diagonal_once(r, bound, data):
    s = data.draw(st.integers(1, 2 * bound)) * data.draw(st.sampled_from((1, -1)))
    lo, hi = max(-bound, s - bound), min(bound, s + bound)
    candidates = list(_circle_candidates(r, s, bound))
    assert all(lo <= a <= hi for a in candidates)
    assert len(set(candidates)) == len(candidates)
    square = s * s
    hits = {a for a in range(lo, hi + 1) if (a * (s - a) - r) % square == 0 or (a * (s - a) + r) % square == 0}
    assert hits <= set(candidates)


@pytest.mark.parametrize("r, bound, hits", [(17, 700, 8774), (25, 625, 7510), (41, 615, 8226)])
def test_circle_walk_examines_at_most_four_candidates_per_hit(r, bound, hits):
    # The grids of the benchmark's catalog-vs-circle requests.  Walking
    # every a of each short diagonal examines 7.1-8.2 candidates per hit.
    assert len(circle_source(r, bound).params) == hits
    examined = sum(len(list(_circle_candidates(r, s, bound))) for s in range(-2 * bound, 2 * bound + 1) if s)
    assert examined <= 4 * hits


def test_circle_grid_rejects_nonpositive_order():
    with pytest.raises(DomainError):
        circle_grid(0, 10)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: sphere_source(0, 0, 1), "|H^4| must be positive, got 0"),
        (lambda: circle_source(3, -1), "bound must be nonnegative, got -1"),
        (lambda: parse_source("fixtures:r=1", load_fixtures), "source 'fixtures' takes no parameters"),
    ],
    ids=["sphere_order", "circle_bound", "fixture_parameters"],
)
def test_sources_reject_bad_parameters(make, message):
    with pytest.raises(DomainError) as info:
        make()
    assert str(info.value) == message


# Full-scale recovery of the circle-bundle catalog rows.  The four catalog
# fixtures matched against the full |a|, |b| <= 1000 grid produce exactly
# the five tabulated bundles, each in its four parameter presentations
# (swapping a,b preserves orientation; negating both reverses it).
CIRCLE_CATALOG_MATCHES = {
    ("eschenburg:1,2,5|8,0,0", "circle:-403,638,-607", PRESERVING),
    ("eschenburg:1,2,5|8,0,0", "circle:-403,-607,638", PRESERVING),
    ("eschenburg:1,2,5|8,0,0", "circle:-403,-638,607", REVERSING),
    ("eschenburg:1,2,5|8,0,0", "circle:-403,607,-638", REVERSING),
    ("eschenburg:1,2,-9|-6,0,0", "circle:-7781,621,-614", PRESERVING),
    ("eschenburg:1,2,-9|-6,0,0", "circle:-7781,-614,621", PRESERVING),
    ("eschenburg:1,2,-9|-6,0,0", "circle:-7781,-621,614", REVERSING),
    ("eschenburg:1,2,-9|-6,0,0", "circle:-7781,614,-621", REVERSING),
    ("eschenburg:1,1,16|18,0,0", "circle:-17,805,-632", PRESERVING),
    ("eschenburg:1,1,16|18,0,0", "circle:-17,-632,805", PRESERVING),
    ("eschenburg:1,1,16|18,0,0", "circle:-17,-805,632", REVERSING),
    ("eschenburg:1,1,16|18,0,0", "circle:-17,632,-805", REVERSING),
    ("eschenburg:2,3,7|12,0,0", "circle:-335861,580,-579", REVERSING),
    ("eschenburg:2,3,7|12,0,0", "circle:-335861,579,-580", PRESERVING),
    ("eschenburg:2,3,7|12,0,0", "circle:-335861,-580,579", PRESERVING),
    ("eschenburg:2,3,7|12,0,0", "circle:-335861,-579,580", REVERSING),
    ("eschenburg:2,3,7|12,0,0", "circle:-163661,405,-404", REVERSING),
    ("eschenburg:2,3,7|12,0,0", "circle:-163661,404,-405", PRESERVING),
    ("eschenburg:2,3,7|12,0,0", "circle:-163661,-405,404", PRESERVING),
    ("eschenburg:2,3,7|12,0,0", "circle:-163661,-404,405", REVERSING),
}


def test_match_recovers_circle_catalog_rows(fixtures):
    wanted = [
        ((1, 2, 5), (8, 0, 0), mod_one(Fr(-201, 952))),
        ((1, 2, -9), (-6, 0, 0), mod_one(Fr(19, 50))),
        ((1, 1, 16), (18, 0, 0), mod_one(Fr(47, 308))),
        ((2, 3, 7), (12, 0, 0), mod_one(Fr(-115, 287))),
    ]
    chosen = [
        fx
        for fx in fixtures
        if (tuple(fx.space.k), tuple(fx.space.l), fx.s1) in wanted
    ]
    assert len(chosen) == 4
    left = build_index(fixture_entries(chosen))
    grid = []
    for r in (17, 25, 33, 41):
        grid.extend(circle_grid(r, 1000))
    right = build_index(grid)
    records = match_all(left, right)
    assert {(rec.left, rec.right, rec.orientation) for rec in records} == CIRCLE_CATALOG_MATCHES


# ---------------------------------------------------------------------------
# Catalog tables.
# ---------------------------------------------------------------------------

# Orientation in which the solver reproduces each sphere row's residue
# list: "preserving" means the bundle carries the tabulated values as
# printed, "reversing" means it carries their negation.
A_SOLVED_ORIENTATION = {
    (41, (2, 3, 7)): PRESERVING,
    (127, (17, 16, -7)): PRESERVING,
    (233, (5, 3, -31)): PRESERVING,
    (289, (21, 18, -13)): REVERSING,
    (611, (25, 17, -23)): PRESERVING,
    (617, (24, 19, -23)): PRESERVING,
    (661, (23, 21, -26)): PRESERVING,
    (673, (25, 14, -25)): REVERSING,
    (751, (33, 33, -20)): REVERSING,
    (911, (69, 65, -13)): REVERSING,
    (911, (23, 23, -31)): REVERSING,
    (929, (41, 17, 4)): PRESERVING,
    (991, (51, 45, -19)): REVERSING,
}

A_STARRED = {
    (41, (2, 3, 7)),
    (289, (21, 18, -13)),
    (673, (25, 14, -25)),
    (751, (33, 33, -20)),
    (911, (69, 65, -13)),
    (911, (23, 23, -31)),
    (929, (41, 17, 4)),
    (991, (51, 45, -19)),
}


def test_table_constants_shape():
    assert len(TABLE_A) == 13
    assert len(TABLE_B) == 5
    assert [row.r for row in TABLE_A] == [41, 127, 233, 289, 611, 617, 661, 673, 751, 911, 911, 929, 991]
    assert [row.r for row in TABLE_B] == [17, 25, 33, 41, 41]
    assert {(row.r, row.k) for row in TABLE_A if row.starred} == A_STARRED
    assert [row.starred for row in TABLE_B] == [False, False, False, True, True]
    assert all(row.bundle is None and row.residues for row in TABLE_A)
    assert all(row.bundle is not None and not row.residues for row in TABLE_B)


def test_reproduce_table_a(fixtures):
    report = reproduce_table("A", fixtures)
    assert report.table == "A"
    assert report.passed
    assert len(report.rows) == 13
    for result in report.rows:
        assert result.passed, result.problems
        assert result.orientation is A_SOLVED_ORIENTATION[(result.row.r, result.row.k)]
    by_key = {(res.row.r, res.row.k): res for res in report.rows}
    row41 = by_key[(41, (2, 3, 7))]
    assert {c.value for c in row41.residues} == {2285, 5237}
    assert all(c.modulus == 6888 for c in row41.residues)
    assert row41.partner == "sphere:2285,2244"
    row127 = by_key[(127, (17, 16, -7))]
    assert ResidueClass(17230, 21336) in row127.residues
    sigma1, sigma2 = 17 + 16 - 7, 17 * 16 - 17 * 7 - 16 * 7
    assert row127.p1 == ResidueClass((2 * sigma1**2 - 6 * sigma2) % 127, 127)


@pytest.mark.parametrize("table, calls", [("A", 13), ("B", 5)])
def test_reproduce_table_computes_each_rows_invariants_once(table, calls, fixtures, monkeypatch):
    spaces = []
    for module in (atlas_search, eschenburg):
        monkeypatch.setattr(module, "invariants", lambda space: spaces.append(space) or invariants(space))
    assert reproduce_table(table, fixtures).passed
    assert len(spaces) == calls == len(TABLE_A if table == "A" else TABLE_B)


def test_reproduce_table_b(fixtures):
    report = reproduce_table("B", fixtures)
    assert report.table == "B"
    assert report.passed
    assert len(report.rows) == 5
    for result in report.rows:
        assert result.passed, result.problems
        assert result.residues == ()
        expected = REVERSING if result.row.starred else PRESERVING
        assert result.orientation is expected
    by_bundle = {res.row.bundle: res for res in report.rows}
    row25 = by_bundle[(621, -614, -7781)]
    assert row25.partner == "circle:-7781,621,-614"
    assert tuple(mod_one(s) for s in row25.row.s) == (Fr(19, 50), Fr(7, 10), Fr(33, 50))
    row17 = by_bundle[(638, -607, -403)]
    assert row17.p1 == ResidueClass(9, 17)
    row33 = by_bundle[(805, -632, -17)]
    assert abs(-17 * 173**2 - 805 * (-632)) == 33
    assert row33.partner == "circle:-17,805,-632"


def test_rows_where_star_and_solve_disagree(fixtures):
    # Two sphere rows tabulate the values in the bundle-matched
    # orientation: the row is marked as an orientation-reversing
    # identification, yet the printed values solve directly.  The
    # companion circle table proves this reading for r = 41: it prints
    # the exact negation of the sphere table's values for the same
    # space.
    report = reproduce_table("A", fixtures)
    disagreeing = {
        (res.row.r, res.row.k)
        for res in report.rows
        if res.row.starred != (res.orientation is REVERSING)
    }
    assert disagreeing == {(41, (2, 3, 7)), (929, (41, 17, 4))}
    report_b = reproduce_table("B", fixtures)
    assert all(res.row.starred == (res.orientation is REVERSING) for res in report_b.rows)
    a41 = next(row for row in TABLE_A if row.r == 41)
    b41 = next(row for row in TABLE_B if row.r == 41)
    assert tuple(mod_one(-s) for s in a41.s) == tuple(mod_one(s) for s in b41.s)


def test_reproduce_table_requires_fixtures():
    with pytest.raises(MissingFixture):
        reproduce_table("A", [])


def test_reproduce_table_rejects_unknown_table():
    with pytest.raises(DomainError):
        reproduce_table("C")


@pytest.mark.parametrize("which, shown", [("a", "'a'"), (" A ", "' A '"), (5, "5"), (None, "None")])
def test_reproduce_table_takes_exactly_a_or_b(which, shown):
    with pytest.raises(DomainError) as caught:
        reproduce_table(which)
    assert str(caught.value) == f"unknown table {shown}: expected 'A' or 'B'"


def test_reproduce_table_defaults_to_packaged_fixtures(fixtures):
    assert reproduce_table("B") == reproduce_table("B", fixtures)


# Corrupted catalog rows with the orientation, partner, solved residues and
# the exact problems, in order, that the verifier reports for them.  A41, A127 and B17 are the first rows of their tables.
A41, A127, B17 = TABLE_A[0], TABLE_A[1], TABLE_B[0]
CORRUPTED_ROWS = {
    "A wrong r": (
        "A",
        dataclasses.replace(A41, r=42),
        None,
        "sphere:2285,2243",
        (),
        (
            "recomputed |H^4| = 41, row says 42",
            "linking form is not standard: sigma3(k) - sigma3(l) is not ±1 mod r",
            "DivisibilityFailure: 224·42·(115/287) is not an integer; the denominator must divide 224·r",
        ),
    ),
    "A residue no orientation reproduces": (
        "A",
        dataclasses.replace(A127, residues=(17231,)),
        None,
        "sphere:17231,17104",
        (),
        (
            "tabulated residues reproduced by neither orientation: preserving: solves to {17230}; "
            "reversing: CongruenceFailure: e3 - e2 - 3 = -768 is not divisible by 3r = 381",
        ),
    ),
    "A s-values fail divisibility": (
        "A",
        dataclasses.replace(A41, s=(A41.s[0], Fr(1, 7), A41.s[2])),
        None,
        "sphere:2285,2244",
        (),
        ("DivisibilityFailure: 24·41·(1/7) is not an integer; the denominator must divide 24·r",),
    ),
    "A flipped star": ("A", dataclasses.replace(A41, starred=False), PRESERVING, "sphere:2285,2244", (2285, 5237), ()),
    "B wrong r": (
        "B",
        dataclasses.replace(B17, r=19),
        None,
        "circle:-403,638,-607",
        (),
        ("recomputed |H^4| = 17, row says 19", "|t(a+b)^2 - ab| = 17, row says 19"),
    ),
    "B bundle of another order": (
        "B",
        dataclasses.replace(B17, bundle=(638, -607, -402)),
        None,
        "circle:-402,638,-607",
        (),
        ("|t(a+b)^2 - ab| = 944, row says 17",),
    ),
    "B s-values match neither sign": (
        "B",
        dataclasses.replace(B17, s=(B17.s[0], B17.s[1] + Fr(1, 2), B17.s[2])),
        None,
        "circle:-403,638,-607",
        (),
        (
            "bundle s-values (Fraction(751, 952), Fraction(55, 204), Fraction(23, 102)) "
            "match neither sign of the tabulated values",
        ),
    ),
    "B flipped star": (
        "B",
        dataclasses.replace(B17, starred=True),
        PRESERVING,
        "circle:-403,638,-607",
        (),
        ("orientation mark on the row disagrees with the computed identification",),
    ),
}


@pytest.mark.parametrize("case", list(CORRUPTED_ROWS))
def test_reproduce_table_reports_corrupted_row(case, monkeypatch, fixtures):
    table, row, orientation, partner, residues, problems = CORRUPTED_ROWS[case]
    monkeypatch.setattr(atlas_search, f"TABLE_{table}", (row,))
    (result,) = reproduce_table(table, fixtures).rows
    assert result.row == row
    assert result.orientation is orientation
    assert result.partner == partner
    assert tuple(c.value for c in result.residues) == residues
    assert result.problems == problems


@pytest.mark.parametrize(
    "table, row, message",
    [
        ("A", A41, "full-profile verdict None disagrees with solver orientation"),
        ("B", B17, "full-profile verdict None disagrees with the s-value match"),
    ],
)
def test_reproduce_table_reports_fixture_that_contradicts_the_row(table, row, message, monkeypatch, fixtures):
    # find_fixture selects by (k, l) and s1 only, so a fixture whose s3 is
    # off by 1/2 is found, and only the full-profile verdict notices.
    doctored = [dataclasses.replace(fx, s3=mod_one(fx.s3 + Fr(1, 2))) for fx in fixtures]
    monkeypatch.setattr(atlas_search, f"TABLE_{table}", (row,))
    (result,) = reproduce_table(table, doctored).rows
    assert result.orientation is PRESERVING
    assert result.problems == (message,)


# Rows whose (k, l) is replaced by another space of the same order, each
# verified against a one-line catalog that gives that space the row's
# s-values: (table, row, k, l, partner, problems).  The space's own invariants then
# disagree with the tabulated partner in the ways named.
MISMATCHED_SPACES = {
    "B space not free": (
        "B",
        TABLE_B[2],
        (-7, 3, 3),
        (0, -1, 0),
        "circle:-17,805,-632",
        (
            "parameters do not define a free action",
            "p1 mismatch: 21 mod 33 vs 2 mod 33",
            "full-profile verdict None disagrees with the s-value match",
        ),
    ),
    "B space not positively curved": (
        "B",
        B17,
        (-12, -3, 5),
        (4, -14, 0),
        "circle:-403,638,-607",
        ("space is not positively curved",),
    ),
    "B p1 of another space": (
        "B",
        B17,
        (-5, 1, 3),
        (0, -1, 0),
        "circle:-403,638,-607",
        ("p1 mismatch: 9 mod 17 vs 2 mod 17", "full-profile verdict None disagrees with the s-value match"),
    ),
    "A p1 of another space": (
        "A",
        A41,
        (-8, -7, -7),
        (-12, -10, 0),
        "sphere:2285,2244",
        (
            "linking form is not standard: sigma3(k) - sigma3(l) is not ±1 mod r",
            "p1 mismatch at a=2285: 1 mod 41 vs 2 mod 41",
            "p1 mismatch at a=5237: 1 mod 41 vs 2 mod 41",
            "full-profile verdict None disagrees with solver orientation",
        ),
    ),
}


@pytest.mark.parametrize("case", list(MISMATCHED_SPACES))
def test_reproduce_table_reports_space_that_contradicts_the_row(case, monkeypatch):
    table, base, k, l, partner, problems = MISMATCHED_SPACES[case]
    row = dataclasses.replace(base, k=k, l=l)
    catalog = [EschenburgFixture(EschenburgSpace(k, l), *(mod_one(s) for s in row.s))]
    monkeypatch.setattr(atlas_search, f"TABLE_{table}", (row,))
    (result,) = reproduce_table(table, catalog).rows
    # The partner step reads the row alone, so it finds the genuine row's partner.
    assert (result.orientation, result.partner) == (PRESERVING, partner)
    assert tuple(c.value for c in result.residues) == base.residues
    assert result.problems == problems


# ---------------------------------------------------------------------------
# Rendering.
# ---------------------------------------------------------------------------


def test_render_matches_tsv(fixtures):
    w11 = fixture_by_k(fixtures, (1, 1, -2))
    records = match_all(
        build_index(fixture_entries([w11])),
        build_index(sphere_grid(3, 0, 504)),
    )
    tsv = render_matches_tsv(records)
    lines = tsv.splitlines()
    assert len(lines) == 2
    assert lines[0] == "eschenburg:1,1,-2|0,0,0\tsphere:2,-1\tpreserving\t3\t1/112\t35/36\t1/18"
    assert all(len(line.split("\t")) == 7 for line in lines)


def test_render_matches_text_lists_every_record(fixtures):
    w11 = fixture_by_k(fixtures, (1, 1, -2))
    records = match_all(
        build_index(fixture_entries([w11])),
        build_index(sphere_grid(3, 0, 504)),
    )
    text = render_matches_text(records)
    assert "sphere:2,-1" in text and "sphere:146,143" in text
    assert text == render_matches_text(records)
    assert render_matches_text(()) == "no matches\n"


# Descriptors that json.dumps must escape: quotes, backslashes, control
# characters and non-ASCII text, besides arbitrary text.
awkward_chars = st.sampled_from('"\\/\x00\x1f\x7f\u00e9\u2028\U0001f600')
awkward_text = st.text(st.one_of(awkward_chars, st.characters()), max_size=8)
unit_fractions = st.fractions(min_value=0, max_value=1, max_denominator=10**6).filter(lambda f: f < 1)


@st.composite
def match_records(draw):
    """Records as match_all gives them: a run of records may share one evidence tuple."""
    evidences = draw(
        st.lists(st.tuples(st.integers(1, 10**30), unit_fractions, unit_fractions, unit_fractions), min_size=1)
    )
    shape = st.tuples(awkward_text, awkward_text, st.sampled_from(Orientation), st.sampled_from(evidences))
    return [MatchRecord(*fields) for fields in draw(st.lists(shape, max_size=6))]


@given(match_records())
def test_match_renderers_agree_with_the_per_record_formats(records):
    payload = [
        {
            "left": rec.left,
            "right": rec.right,
            "orientation": rec.orientation.value,
            "r": rec.evidence[0],
            "s1": str(rec.evidence[1]),
            "s2": str(rec.evidence[2]),
            "s3": str(rec.evidence[3]),
        }
        for rec in records
    ]
    assert render_matches_json(records) == json.dumps(payload, sort_keys=True, indent=2) + "\n"
    keys = ("left", "right", "orientation", "r", "s1", "s2", "s3")
    rows = [tuple(str(row[key]) for key in keys) for row in payload]
    assert render_matches_tsv(records) == "".join("\t".join(row) + "\n" for row in rows)
    text = "".join(f"{a} ~ {b} ({o}): r={r}, s=({s1}, {s2}, {s3})\n" for a, b, o, r, s1, s2, s3 in rows)
    assert render_matches_text(records) == (text or "no matches\n")


def test_render_matches_json_of_no_records_is_an_empty_list():
    assert render_matches_json([]) == "[]\n" == json.dumps([], sort_keys=True, indent=2) + "\n"


def test_render_table_text_is_deterministic(fixtures):
    once = render_table_text(reproduce_table("A", fixtures))
    again = render_table_text(reproduce_table("A", fixtures))
    assert once == again
    assert "r=41*" in once
    assert "13/13 rows verified" in once
    b_text = render_table_text(reproduce_table("B", fixtures))
    assert "5/5 rows verified" in b_text
    assert "circle:-7781,621,-614" in b_text


# ---------------------------------------------------------------------------
# Descriptors.
# ---------------------------------------------------------------------------


def test_eschenburg_descriptor_format(fixtures):
    w11 = fixture_by_k(fixtures, (1, 1, -2))
    assert eschenburg_descriptor(w11.space) == "eschenburg:1,1,-2|0,0,0"
