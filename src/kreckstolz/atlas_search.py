"""Invariant-keyed search over families of spaces, plus catalog verification.

Diffeomorphic pairs between two collections of spaces are found in
stages that work on integers before any profile is built.  A source
lists its entries by parameters, each with its s1 value: the cohomology
type, the order r and s1 modulo 1 as a reduced pair, from the family's
cleared s1 formula (for the catalog, from its tabulated s1).  A sphere
range stores these for one period of a only, since s1 of S_{a,a-r}
depends only on a mod 56r.  `find_matches` first keeps the entries whose
s1 bucket (s1 up to sign) occurs on both sides, walking each kept
position of a period through the whole range; then gives each of those
its triple key (the cleared s2 and s3 join s1, in canonical orientation)
and keeps the entries whose triple key occurs on both sides.  Only
those get a full invariant profile, whose s-values are read back from
the triple key and flip bit (key_s_triple), one Fraction triple per key
and bit, rather than computed again.  The triple key is the one bucket
key of the module: `profile_key` gives it for a built profile, and
`build_index` indexes by it too.  It is the orientation-insensitive part
of the profile, so `match_all`, comparing two indexes bucket by bucket,
finds matches of both orientations with each lookup.  The filters
change no output: see `find_matches`.

It also ships the two bundled catalog tables -- sphere-bundle partners
and circle-bundle partners of positively curved biquotients -- together
with `reproduce_table`, which recomputes every row from first
principles.  The catalogs tabulate each row's s-values in one of the two
orientations of the space without saying which; the verifier resolves
the orientation empirically (exactly one sign of the values is realized
by the partner bundle) and reports it per row.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from math import gcd, isqrt
from typing import Any, Callable, Iterable, Iterator, KeysView, NamedTuple, Optional, Sequence

from .bundle_families import (
    BundleSpec,
    Family,
    circle_profile_with,
    circle_s1,
    circle_s23,
    describe_bundle,
    describe_bundle_spec,
    mn_pair,
    parse_bundle_spec,
    profile as bundle_profile,
    profile_circle,
    profile_sphere,
    sphere_profile_with,
    sphere_s1,
    sphere_s23,
)
from .classification import EdiffeoProblem, Orientation, ediffeo_solve, ks_diffeomorphic
from .errors import (
    CongruenceFailure,
    DivisibilityFailure,
    DomainError,
    InconsistentFixture,
    ParityFailure,
)
from .eschenburg import (
    EschenburgFixture,
    EschenburgSpace,
    find_fixture,
    fixture_profile,
    invariants,
    load_fixtures,
)
from .exact_arith import ModOneValue, ResidueClass, check_input_digits, mod_one, ratio_mod_one
from .profiles import (
    CohomologyType,
    InvariantProfile,
    STriple,
    lk_compatible,
    negated_lk,
    pi4_conflict,
)

__all__ = [
    "TABLE_A",
    "TABLE_B",
    "AtlasIndex",
    "IndexEntry",
    "MatchRecord",
    "RowResult",
    "Source",
    "TableReport",
    "TableRow",
    "build_index",
    "circle_grid",
    "circle_source",
    "eschenburg_descriptor",
    "find_matches",
    "fixture_entries",
    "fixture_source",
    "match_all",
    "parse_source",
    "parse_space",
    "profile_key",
    "render_matches_json",
    "render_matches_text",
    "render_matches_tsv",
    "render_table_text",
    "reproduce_table",
    "s1_bucket",
    "sphere_grid",
    "sphere_source",
    "triple_key",
]


# ---------------------------------------------------------------------------
# Keys and indexes.
# ---------------------------------------------------------------------------


# (cohomology type, r, n1, d1, n2, d2, n3, d3): a bucket key, its canonical
# s-triple written as reduced integer pairs (see profile_key).
TripleKey = tuple[CohomologyType, int, int, int, int, int, int, int]


def _reduced(n: int, d: int) -> tuple[int, int]:
    """n/d modulo 1 as the lowest-terms pair (n', d') with 0 <= n' < d', for d != 0.

    This is the numerator and denominator of Fraction(n, d) % 1.
    """
    if d < 0:
        n, d = -n, -d
    n %= d
    g = gcd(n, d)
    return n // g, d // g


def _reverses(pairs: Iterable[tuple[int, int]]) -> bool:
    """Whether the negation of an s-triple is its canonical orientation.

    Each pair (n, d) is an s-value n/d in [0, 1).  Its negation (d - n)/d
    shares the denominator d, so the comparison of the two reduces to 2n
    against d: they tie when n = 0 or 2n = d, and otherwise the first
    value that does not tie decides the lexicographic order.
    """
    for n, d in pairs:
        if n and 2 * n != d:
            return 2 * n > d
    return False


def triple_key(
    cohomology_type: CohomologyType, r: int, s1: tuple[int, int], s2: tuple[int, int], s3: tuple[int, int]
) -> tuple[TripleKey, bool]:
    """The bucket key and flip bit of a space, from cleared s-values.

    Each s-value is a pair (n, d) with d != 0 meaning n/d.  The pairs are
    reduced as Fraction reduces them and put in canonical orientation, so
    a profile with these values has exactly this key and bit (see
    profile_key).
    """
    pairs = (_reduced(*s1), _reduced(*s2), _reduced(*s3))
    flipped = _reverses(pairs)
    if flipped:
        pairs = tuple(((d - n) % d, d) for n, d in pairs)
    (n1, d1), (n2, d2), (n3, d3) = pairs
    return (cohomology_type, r, n1, d1, n2, d2, n3, d3), flipped


def key_s_triple(key: TripleKey, flipped: bool) -> STriple:
    """The s-triple modulo 1 of a space with this bucket key and flip bit.

    The key holds the canonical s-triple as reduced pairs (n, d); a set
    bit means the space carries its negation, -n/d = ((d - n) mod d)/d.
    So this is the inverse of triple_key on its pairs, and profile_key of
    a profile with these s-values gives back the key and the bit.
    """
    _, _, n1, d1, n2, d2, n3, d3 = key
    if flipped:
        n1, n2, n3 = -n1, -n2, -n3
    return ratio_mod_one(n1, d1), ratio_mod_one(n2, d2), ratio_mod_one(n3, d3)


def profile_key(profile: InvariantProfile) -> tuple[TripleKey, bool]:
    """The bucket key of a profile, orientation-insensitive, and its orientation bit.

    The key holds the cohomology type, r and the lexicographically smaller
    of the s-triple and its negation mod 1; the bit says whether that
    minimum differs from the s-triple.  So a profile and its orientation
    reversal share the key and differ only in the bit, except when the
    s-triple equals its own negation: then the bit is clear in both
    orientations.
    """
    pairs = ((s.numerator, s.denominator) for s in profile.s_triple)
    return triple_key(profile.cohomology_type, profile.r, *pairs)


class IndexEntry(NamedTuple):
    """One indexed space: its descriptor, full profile, and orientation bit."""

    descriptor: str
    profile: InvariantProfile
    flipped: bool


@dataclass(frozen=True)
class AtlasIndex:
    """Hash index from bucket keys (see profile_key) to the entries sharing that bucket.

    Iteration order is insertion order, so equal inputs give equal
    indexes and byte-identical downstream reports.
    """

    buckets: dict[TripleKey, tuple[IndexEntry, ...]]

    def __len__(self) -> int:
        return sum(len(entries) for entries in self.buckets.values())


def _grouped(keyed: Iterable[tuple[TripleKey, IndexEntry]]) -> AtlasIndex:
    """The index of (key, entry) pairs, buckets and entries in input order."""
    buckets: dict[TripleKey, list[IndexEntry]] = {}
    for key, entry in keyed:
        buckets.setdefault(key, []).append(entry)
    return AtlasIndex({key: tuple(entries) for key, entries in buckets.items()})


def build_index(profiles: Iterable[tuple[str, InvariantProfile]]) -> AtlasIndex:
    """Index (descriptor, profile) pairs by their bucket key (see profile_key)."""
    keyed = []
    for descriptor, profile in profiles:
        key, flipped = profile_key(profile)
        keyed.append((key, IndexEntry(descriptor, profile, flipped)))
    return _grouped(keyed)


# ---------------------------------------------------------------------------
# Matching.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MatchRecord:
    """One verified diffeomorphic pair.

    `evidence` is the shared invariant tuple (r, s1, s2, s3) of the left
    space; for a reversing match the right space carries its negation.
    """

    left: str
    right: str
    orientation: Orientation
    evidence: tuple[int, ModOneValue, ModOneValue, ModOneValue]


def match_all(
    left: AtlasIndex, right: AtlasIndex, require_pi4_compat: bool = True
) -> tuple[MatchRecord, ...]:
    """All diffeomorphic pairs between two indexes, both orientations.

    Pairs are screened bucket by bucket.  The orientation comes from the
    entries' flip bits: a bucket holds one canonical s-triple, so equal
    bits mean equal s-triples (preserving) and unequal bits mean negated
    ones (reversing); a self-negating triple has both bits clear.  The
    remaining invariants (linking classes up to the fixture sign
    ambiguity, and p1 mod r) are determined by the s-values for genuine
    spaces, so a conflict there means corrupted input data and raises
    InconsistentFixture rather than silently dropping the pair; every
    emitted record thus survives re-checking with ks_diffeomorphic.
    Each pair is checked for pi4, then linking classes, then p1.  What
    depends on one side only is computed once: the evidence and the pi4
    value that blocks a pair per left entry, a right entry's linking
    classes in reversed orientation per bucket.
    With `require_pi4_compat` (the default) a proven pi4 = 0 on one side
    and a proven pi4 = Z/2 on the other blocks the pair; passing False
    drops that gate, for surveys over families whose pi4 is the only
    obstruction.
    """
    records: list[MatchRecord] = []
    for key, left_entries in left.buckets.items():
        right_entries = right.buckets.get(key)
        if not right_entries:
            continue
        # Linking classes of the right entries in reversed orientation,
        # by position, negated on first use.
        reversed_lk: dict[int, Optional[frozenset[ResidueClass]]] = {}
        for left_entry in left_entries:
            profile = left_entry.profile
            evidence = (profile.r, profile.s1, profile.s2, profile.s3)
            blocked = pi4_conflict(profile.pi4) if require_pi4_compat else None
            for j, right_entry in enumerate(right_entries):
                other = right_entry.profile
                if other.pi4 is blocked:
                    continue
                if left_entry.flipped == right_entry.flipped:
                    orientation = Orientation.PRESERVING
                    other_lk = other.lk
                else:
                    orientation = Orientation.REVERSING
                    if j not in reversed_lk:
                        reversed_lk[j] = negated_lk(other.lk, other.r)
                    other_lk = reversed_lk[j]
                if not lk_compatible(profile.lk, other_lk):
                    raise InconsistentFixture(
                        f"s-values match ({orientation.value}) but linking classes differ: "
                        f"{profile.lk} vs {other_lk}"
                    )
                if profile.p1 != other.p1:
                    raise InconsistentFixture(
                        f"s-values match ({orientation.value}) but p1 differs: "
                        f"{profile.p1} vs {other.p1}"
                    )
                records.append(MatchRecord(left_entry.descriptor, right_entry.descriptor, orientation, evidence))
    return tuple(records)


def find_matches(left: Source, right: Source, require_pi4_compat: bool = True) -> tuple[MatchRecord, ...]:
    """match_all of two sources, with profiles built only for possible partners.

    Two integer stages choose the entries that get a profile.  First, each
    side selects (Source.select) its entries whose s1 bucket occurs on
    both sides.  Second, each selected entry gets its triple key and flip
    bit (Source.key), and only the entries whose triple key occurs on both
    sides get a profile, built (Source.build) from the s-triple that
    key_s_triple reads back from its key and bit, once per key and bit in
    one call.  These go, grouped by triple key in source order, to
    match_all.  The result is that of the eager pipeline, match_all of
    build_index of every entry of each side with its profile from the
    family's constructor (sphere_grid, circle_grid, fixture_entries):

    1. Both pipelines key through triple_key.  A source's cleared
       s-values equal those of the eager profile, and triple_key reduces
       them, so Source.key gives profile_key of that profile: the buckets
       and bits of build_index.  key_s_triple undoes the canonical
       orientation on the key's reduced pairs, so it gives back that
       profile's s-values, which triple_key only reduced; the build
       computes p1, lk, pi4 and the descriptor with the code of the
       eager constructor (sphere_profile_with, circle_profile_with; the
       catalog's profiles are built with the source).  So every built
       entry equals the eager one.
    2. Equal triple keys imply equal s1 buckets, as the key holds the type,
       r and s1 up to a sign common to the triple, and s1 up to sign is
       what the s1 bucket records.  So every entry of a bucket that occurs
       on both sides passes both stages on both sides; a bucket that
       occurs on one side only pairs nothing in match_all.  Survivors keep
       their relative order, so the shared buckets come in the eager order
       and hold the same entries in the same order.
    3. match_all therefore visits the same pairs in the same order, so
       the records, their order and the first InconsistentFixture (type
       and message) are those of the eager pipeline.
    4. Source.select yields exactly the entries with a kept s1 bucket, in
       source order, also for a periodic source: entry i has the s1 value
       at position i mod period, and the sphere source proves that period.
    5. The sources build keys and profiles only for valid parameters
       (fixture profiles are built with the source), which cannot raise,
       so skipping entries hides no error.
    """
    shared_s1 = left.buckets() & right.buckets()
    left_keyed, right_keyed = (
        [(p, *source.key(p, s1)) for p, s1 in source.select(shared_s1)] for source in (left, right)
    )
    shared = {key for _, key, _ in left_keyed}.intersection(key for _, key, _ in right_keyed)
    s_triples: dict[tuple[TripleKey, bool], STriple] = {}

    def index(source: Source, keyed: list[tuple[Any, TripleKey, bool]]) -> AtlasIndex:
        entries = []
        for p, key, flipped in keyed:
            if key in shared:
                s_triple = s_triples.get((key, flipped))
                if s_triple is None:
                    s_triple = s_triples[key, flipped] = key_s_triple(key, flipped)
                entries.append((key, IndexEntry(*source.build(p, s_triple), flipped)))
        return _grouped(entries)

    return match_all(index(left, left_keyed), index(right, right_keyed), require_pi4_compat)


# ---------------------------------------------------------------------------
# Sources.
# ---------------------------------------------------------------------------

# (cohomology type, r, n, d): the s1 value n/d modulo 1, reduced as Fraction reduces it.
S1Value = tuple[CohomologyType, int, int, int]
# The same with n replaced by min(n, d - n): s1 up to sign.
S1Bucket = tuple[CohomologyType, int, int, int]


def _s1_value(cohomology_type: CohomologyType, r: int, n: int, d: int) -> S1Value:
    return (cohomology_type, r, *_reduced(n, d))


def _sign_blind(value: S1Value) -> S1Bucket:
    """The s1 bucket of an s1 value: -n/d is (d - n)/d over the same reduced d."""
    cohomology_type, r, n, d = value
    return cohomology_type, r, min(n, d - n), d


def s1_bucket(cohomology_type: CohomologyType, r: int, n: int, d: int) -> S1Bucket:
    """The s1 bucket of a space with s1 = n/d, as a reduced integer pair.

    The bucket holds the smaller of the numerators of s1 and -s1 over
    their common reduced denominator, the same pair for every cleared
    form n/d of the value.
    """
    return _sign_blind(_s1_value(cohomology_type, r, n, d))


@dataclass(frozen=True)
class Source:
    """A collection of spaces whose profiles are built on demand.

    Entry i has parameters `params[i]` and s1 value `s1[i % len(s1)]`: a
    listed source holds one value per entry, a sphere range one period of
    values.  `key(params[i], s1 value)` gives the entry's triple key and
    flip bit (see triple_key), and `build(params[i], s_triple)` its
    (descriptor, profile) index entry, given its s-values modulo 1: those
    that key_s_triple reads back from the key and bit, which the build
    does not compute again.
    """

    params: Sequence[Any]
    s1: tuple[S1Value, ...]
    key: Callable[[Any, S1Value], tuple[TripleKey, bool]]
    build: Callable[[Any, STriple], tuple[str, InvariantProfile]]

    @cached_property
    def _positions(self) -> dict[S1Bucket, list[int]]:
        """The positions i < len(s1) of each s1 bucket, ascending."""
        positions = defaultdict(list)
        for i, value in enumerate(self.s1):
            positions[_sign_blind(value)].append(i)
        return positions

    def buckets(self) -> KeysView[S1Bucket]:
        """The s1 buckets of the entries."""
        return self._positions.keys()

    def select(self, keep: Iterable[S1Bucket]) -> Iterator[tuple[Any, S1Value]]:
        """(params, s1 value) of the entries whose s1 bucket is in `keep`, in source order.

        The positions of the kept buckets in the first period are looked
        up once; the walk then visits them period by period, so a kept
        position costs one step per period and a dropped one nothing.
        """
        positions = self._positions
        kept = sorted(i for bucket in keep if bucket in positions for i in positions[bucket])
        if not kept:
            return
        count = len(self.params)
        for base in range(0, count, len(self.s1)):
            for i in kept:
                if base + i >= count:
                    break
                yield self.params[base + i], self.s1[i]


def eschenburg_descriptor(space: EschenburgSpace) -> str:
    """Stable descriptor string for a parameter pair, e.g. 'eschenburg:1,1,-2|0,0,0'."""
    k = ",".join(str(x) for x in space.k)
    l = ",".join(str(x) for x in space.l)
    return f"eschenburg:{k}|{l}"


def parse_space(
    text: str, load_fixtures: Callable[[], Sequence[EschenburgFixture]]
) -> tuple[str, InvariantProfile]:
    """The normalized descriptor and the profile of the space that `text` names.

    Bundle descriptors ('sphere:a,b', 'spin-sphere:a,b', 'circle:t,a,b',
    'spin-circle:t,a,b') go through parse_bundle_spec and are computed
    directly.  'eschenburg:k1,k2,k3|l1,l2,l3', the form that
    eschenburg_descriptor writes, is looked up in the catalog that
    `load_fixtures` supplies, since the s-values of these spaces are
    external inputs; if several fixtures share (k, l) the first in catalog
    order is used.  `load_fixtures` is called for an Eschenburg descriptor
    and for nothing else.  Malformed text raises DomainError.
    """
    if not text.startswith("eschenburg:"):
        spec = parse_bundle_spec(text)
        return describe_bundle_spec(spec), bundle_profile(spec)
    k_text, sep, l_text = text.removeprefix("eschenburg:").partition("|")
    if not sep:
        raise DomainError(f"cannot parse {text!r}: expected eschenburg:k1,k2,k3|l1,l2,l3")
    triples = []
    for part in (k_text, l_text):
        try:
            triples.append(tuple(int(v) for v in part.split(",")))
        except ValueError as exc:
            raise DomainError(
                f"cannot parse parameters {part!r}: expected comma-separated integers"
            ) from exc
    check_input_digits(*triples[0], *triples[1])
    space = EschenburgSpace(*triples)
    fixture = find_fixture(load_fixtures(), space.k, space.l)
    return eschenburg_descriptor(space), fixture_profile(fixture)


def _built(entry: tuple[str, InvariantProfile], s_triple: STriple) -> tuple[str, InvariantProfile]:
    return entry


def _fixture_key(entry: tuple[str, InvariantProfile], s1: S1Value) -> tuple[TripleKey, bool]:
    return profile_key(entry[1])


def fixture_source(fixtures: Iterable[EschenburgFixture]) -> Source:
    """The fixture spaces, profiles built from their s-values.

    A catalog is small, so its profiles are built here, at once, and an
    invalid hand-made fixture raises here rather than only when it could
    match.
    """
    entries = tuple(fixture_entries(fixtures))
    s1 = tuple(_s1_value(p.cohomology_type, p.r, p.s1.numerator, p.s1.denominator) for _, p in entries)
    return Source(entries, s1, _fixture_key, _built)


def fixture_entries(
    fixtures: Iterable[EschenburgFixture],
) -> list[tuple[str, InvariantProfile]]:
    """Index entries for fixture spaces, profiles built from their s-values."""
    return [(eschenburg_descriptor(fx.space), fixture_profile(fx)) for fx in fixtures]


def _sphere_entry(r: int, a: int, s_triple: STriple) -> tuple[str, InvariantProfile]:
    return describe_bundle(Family.SPHERE, a, a - r), sphere_profile_with(a, a - r, s_triple)


def _sphere_key(r: int, a: int, s1: S1Value) -> tuple[TripleKey, bool]:
    return triple_key(CohomologyType.E, r, s1[2:], *sphere_s23(a, a - r))


def sphere_source(r: int, start: int, stop: int) -> Source:
    """The non-spin sphere bundles S_{a, a-r} with a in [start, stop).

    s1 is computed for the first min(stop - start, 56r) values of a only,
    one period: with x = 2a - r + 2, sphere_s1 gives s1 = (x^2 - r)/(224r),
    and moving a by 56r adds 224r(x + 56r) to x^2, which leaves s1 mod 1
    unchanged.  A range of more than sys.maxsize values, which has no
    length in Python and would ask for unbounded work, is refused.
    """
    if r < 1:
        raise DomainError(f"|H^4| must be positive, got {r}")
    if stop - start > sys.maxsize:
        raise DomainError(f"sphere range [{start}, {stop}) holds {stop - start} values, more than {sys.maxsize}")
    a_values = range(start, stop)
    s1 = tuple(_s1_value(CohomologyType.E, r, *sphere_s1(a, a - r)) for a in a_values[: 56 * r])
    return Source(a_values, s1, partial(_sphere_key, r), partial(_sphere_entry, r))


def sphere_grid(r: int, start: int, stop: int) -> list[tuple[str, InvariantProfile]]:
    """Entries for the non-spin sphere bundles S_{a, a-r} with a in [start, stop), from profile_sphere."""
    a_values = sphere_source(r, start, stop).params
    return [(describe_bundle(Family.SPHERE, a, a - r), profile_sphere(a, a - r)) for a in a_values]


def _circle_candidates(r: int, s: int, bound: int) -> Iterable[int]:
    """The a that circle_grid tests on the diagonal a + b = s != 0.

    With |a|, |b| <= bound, a runs over [lo, hi], and a hit needs
    ab = t*s^2 + o for an integer t and o = r or -r.  Walking a costs
    hi - lo + 1 steps.  Walking t costs about (bound - |s|/2)^2 / s^2
    steps, far fewer once |s| grows: ab = a*(s - a) lies between its
    value at the ends of [lo, hi] and s^2 // 4 (taken at a = s/2, inside
    [lo, hi]), which bounds t; and for each t, a is a root of
    a^2 - s*a + (t*s^2 + o) = 0, an integer exactly when the discriminant
    s^2 - 4*(t*s^2 + o) >= 0 is a square q^2 (then q = s mod 2, as q^2 =
    s^2 mod 4, and a = (s - q)/2 or (s + q)/2).  The cheaper walk is taken.
    """
    lo, hi = max(-bound, s - bound), min(bound, s + bound)
    square = s * s
    ab_min, ab_max = lo * (s - lo), square // 4
    if hi - lo + 1 <= 2 * ((ab_max - ab_min + 2 * r) // square + 1):
        return range(lo, hi + 1)
    found = set()
    for offset in (r, -r):
        for t in range(-((offset - ab_min) // square), (ab_max - offset) // square + 1):
            disc = square - 4 * (t * square + offset)
            q = isqrt(disc)
            if q * q == disc:
                found.update(a for a in ((s - q) // 2, (s + q) // 2) if lo <= a <= hi)
    return found


def _circle_entry(hit: tuple[int, int, int], s_triple: STriple) -> tuple[str, InvariantProfile]:
    a, b, t = hit
    m, n = mn_pair(Family.CIRCLE, a, b)
    return describe_bundle(Family.CIRCLE, a, b, t), circle_profile_with(t, a, b, m, n, s_triple)


def _circle_key(r: int, hit: tuple[int, int, int], s1: S1Value) -> tuple[TripleKey, bool]:
    a, b, t = hit
    m, n = mn_pair(Family.CIRCLE, a, b)
    return triple_key(CohomologyType.E, r, s1[2:], *circle_s23(t, a, b, m, n))


def circle_source(r: int, bound: int) -> Source:
    """The circle bundles with the given r and |a|, |b| <= bound.

    The twisting parameter is not bounded: for each coprime (a, b) both
    integers t with |t (a+b)^2 - ab| = r are admitted when they exist,
    however large.  Entries come ordered by a, then b, then t with
    ab - r = t (a+b)^2 before ab + r = t (a+b)^2.  Each diagonal a + b = s
    is searched output-sensitively (see _circle_candidates), and every
    candidate passes the same divisibility, coprimality and bound tests.
    The parameters of an entry are (a, b, t).
    """
    if r < 1:
        raise DomainError(f"|H^4| must be positive, got {r}")
    if bound < 0:
        raise DomainError(f"bound must be nonnegative, got {bound}")
    hits = []
    for s in range(-2 * bound, 2 * bound + 1):
        if s == 0:
            continue
        square = s * s
        for a in _circle_candidates(r, s, bound):
            b = s - a
            ab = a * b
            for shifted in (ab - r, ab + r):
                if shifted % square == 0 and gcd(a, b) == 1 and abs(a) <= bound and abs(b) <= bound:
                    hits.append((a, b, shifted // square))
    hits.sort()  # by (a, b, t); ab - r = t (a+b)^2 has the smaller t
    s1 = tuple(_s1_value(CohomologyType.E, r, *circle_s1(t, a, b)) for a, b, t in hits)
    return Source(tuple(hits), s1, partial(_circle_key, r), _circle_entry)


def circle_grid(r: int, bound: int) -> list[tuple[str, InvariantProfile]]:
    """Entries for all circle bundles with the given r and |a|, |b| <= bound (see circle_source)."""
    hits = circle_source(r, bound).params
    return [(describe_bundle(Family.CIRCLE, a, b, t), profile_circle(t, a, b)) for a, b, t in hits]


def _require_keys(head: str, params: dict[str, int], keys: tuple[str, ...]) -> None:
    missing = set(keys) - params.keys()
    if missing:
        raise DomainError(f"{head} source needs {', '.join(keys)} (missing {sorted(missing)})")
    unknown = params.keys() - set(keys)
    if unknown:
        raise DomainError(f"unknown {head} source parameter {sorted(unknown)[0]!r}")


def parse_source(text: str, load_fixtures: Callable[[], Sequence[EschenburgFixture]]) -> Source:
    """The source named by 'fixtures', 'sphere:r=..,start=..,stop=..' or 'circle:r=..,bound=..'.

    `load_fixtures` supplies the catalog of a 'fixtures' source and is
    called for no other source.  Malformed, unknown, missing or repeated
    parameters raise DomainError.
    """
    head, _, rest = text.partition(":")
    params = {}
    if rest:
        for pair in rest.split(","):
            key, sep, value = pair.partition("=")
            if not sep:
                raise DomainError(f"cannot parse source parameter {pair!r}: expected key=value")
            if key in params:
                raise DomainError(f"source parameter {key!r} given twice")
            try:
                params[key] = int(value)
            except ValueError as exc:
                raise DomainError(f"source parameter {pair!r} is not an integer") from exc
    check_input_digits(*params.values())
    if head == "fixtures":
        if params:
            raise DomainError("source 'fixtures' takes no parameters")
        return fixture_source(load_fixtures())
    if head == "sphere":
        _require_keys(head, params, ("r", "start", "stop"))
        return sphere_source(params["r"], params["start"], params["stop"])
    if head == "circle":
        _require_keys(head, params, ("r", "bound"))
        return circle_source(params["r"], params["bound"])
    raise DomainError(
        f"unknown source {head!r}: expected fixtures, sphere:r=..,start=..,stop=.., or circle:r=..,bound=.."
    )


# ---------------------------------------------------------------------------
# Catalog tables.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TableRow:
    """One catalog row.

    Sphere rows carry the tabulated residue list (values mod 168r);
    circle rows carry the partner bundle parameters (a, b, t).  The
    s-values are stored exactly as tabulated, which fixes an orientation
    of the space only implicitly; `starred` reproduces the catalog's
    orientation-reversal mark.
    """

    r: int
    starred: bool
    k: tuple[int, int, int]
    l: tuple[int, int, int]
    s: tuple[Fraction, Fraction, Fraction]
    residues: tuple[int, ...] = ()
    bundle: Optional[tuple[int, int, int]] = None


def _row(r, starred, k, l, s1, s2, s3, residues=(), bundle=None):
    return TableRow(r, starred, k, l, (Fraction(s1), Fraction(s2), Fraction(s3)), tuple(residues), bundle)


TABLE_A: tuple[TableRow, ...] = (
    _row(41, True, (2, 3, 7), (12, 0, 0), "115/287", "65/164", "-33/82", (2285, 5237)),
    _row(127, False, (17, 16, -7), (14, 12, 0), "3489/14224", "-403/1524", "-41/762", (17230,)),
    _row(233, False, (5, 3, -31), (-23, 0, 0), "-1863/6524", "-31/2796", "-59/1398", (2943, 36495)),
    _row(289, True, (21, 18, -13), (16, 10, 0), "-397/1156", "121/1734", "481/1734", (21194, 42002)),
    _row(611, False, (25, 17, -23), (14, 5, 0), "-15789/68432", "-1565/3666", "1075/3666", (69423, 84087)),
    _row(617, False, (24, 19, -23), (14, 6, 0), "-3567/8638", "1043/3702", "473/3702", (13030,)),
    _row(661, False, (23, 21, -26), (18, 0, 0), "1787/37016", "-41/661", "-327/1322", (56346, 72210)),
    _row(673, True, (25, 14, -25), (8, 6, 0), "-529/2692", "181/4038", "721/4038", (49154, 81458)),
    _row(751, True, (33, 33, -20), (26, 20, 0), "-12629/84112", "-2351/9012", "-199/4506", (7036, 43084)),
    _row(911, True, (69, 65, -13), (63, 58, 0), "-7445/102032", "1375/5466", "31/5466", (123457, 145321)),
    _row(911, True, (23, 23, -31), (14, 1, 0), "31083/102032", "167/1822", "667/1822", (1457, 132641)),
    _row(929, True, (41, 17, 4), (62, 0, 0), "1441/6503", "401/11148", "805/5574", (22359, 44655)),
    _row(991, True, (51, 45, -19), (43, 34, 0), "-44333/110992", "2863/5946", "-443/5946", (18113, 89465)),
)

TABLE_B: tuple[TableRow, ...] = (
    _row(17, False, (1, 2, 5), (8, 0, 0), "-201/952", "55/204", "23/102", bundle=(638, -607, -403)),
    _row(25, False, (1, 2, -9), (-6, 0, 0), "19/50", "-3/10", "-17/50", bundle=(621, -614, -7781)),
    _row(33, False, (1, 1, 16), (18, 0, 0), "47/308", "-125/396", "53/198", bundle=(805, -632, -17)),
    _row(41, True, (2, 3, 7), (12, 0, 0), "-115/287", "-65/164", "33/82", bundle=(580, -579, -335861)),
    _row(41, True, (2, 3, 7), (12, 0, 0), "-115/287", "-65/164", "33/82", bundle=(405, -404, -163661)),
)


@dataclass(frozen=True)
class RowResult:
    """Verification outcome for one catalog row.

    `orientation` says which sign of the tabulated s-values the partner
    bundle realizes (preserving = as printed).  For sphere rows
    `residues` is the solved residue set mod 168r.  `p1` is the common
    first Pontryagin class mod r of both sides.
    """

    row: TableRow
    space: str
    partner: str
    orientation: Optional[Orientation]
    residues: tuple[ResidueClass, ...]
    p1: Optional[ResidueClass]
    problems: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.problems


@dataclass(frozen=True)
class TableReport:
    """Per-row verification results for one catalog table."""

    table: str
    rows: tuple[RowResult, ...]

    @property
    def passed(self) -> bool:
        return all(row.passed for row in self.rows)


def _check_space(row: TableRow, inv, problems: list[str]) -> None:
    if inv.r != row.r:
        problems.append(f"recomputed |H^4| = {inv.r}, row says {row.r}")
    if not inv.free:
        problems.append("parameters do not define a free action")
    if not inv.positively_curved:
        problems.append("space is not positively curved")
    # The residue solver presupposes the standard linking form; circle rows do not.
    if row.bundle is None and inv.s_signed % row.r not in (1 % row.r, (-1) % row.r):
        problems.append(
            "linking form is not standard: sigma3(k) - sigma3(l) is not ±1 mod r"
        )


def _row_s(row: TableRow, orientation: Orientation) -> tuple[ModOneValue, ...]:
    """The row's s-values modulo 1: as printed when preserving, negated when reversing."""
    sign = 1 if orientation is Orientation.PRESERVING else -1
    return tuple(mod_one(sign * s) for s in row.s)


_Partner = tuple[Optional[Orientation], tuple[ResidueClass, ...], BundleSpec]


def _sphere_partner(row: TableRow, p1: ResidueClass, problems: list[str]) -> _Partner:
    """Solve a sphere row's s-values in both orientations against its residue list."""
    orientation: Optional[Orientation] = None
    solved: tuple[ResidueClass, ...] = ()
    target = {value % (168 * row.r) for value in row.residues}
    try:
        problem = EdiffeoProblem(row.r, *row.s)
    except DivisibilityFailure as exc:
        problems.append(f"{type(exc).__name__}: {exc}")
    else:
        outcomes = {}
        for candidate in Orientation:
            try:
                solution = ediffeo_solve(problem, candidate)
            except (DivisibilityFailure, ParityFailure, CongruenceFailure) as exc:
                outcomes[candidate] = f"{type(exc).__name__}: {exc}"
                continue
            if {c.value for c in solution.residues} == target:
                orientation, solved = candidate, solution.residues
            else:
                outcomes[candidate] = "solves to {%s}" % ", ".join(
                    str(c.value) for c in solution.residues
                )
        if orientation is None:
            problems.append(
                "tabulated residues reproduced by neither orientation: "
                + "; ".join(f"{c.value}: {msg}" for c, msg in outcomes.items())
            )
        else:
            expected = _row_s(row, orientation)
            for a in row.residues:
                partner_profile = profile_sphere(a, a - row.r)
                if partner_profile.s_triple != expected:
                    problems.append(f"bundle at a={a} has s-values {partner_profile.s_triple}")
                if partner_profile.p1 != p1:
                    problems.append(f"p1 mismatch at a={a}: {partner_profile.p1} vs {p1}")
    anchor = min(row.residues)
    return orientation, solved, BundleSpec(Family.SPHERE, anchor, anchor - row.r)


def _circle_partner(row: TableRow, p1: ResidueClass, problems: list[str]) -> _Partner:
    """Match a circle row's bundle against its s-values up to sign."""
    a, b, t = row.bundle
    orientation: Optional[Orientation] = None
    if abs(t * (a + b) ** 2 - a * b) != row.r:
        problems.append(f"|t(a+b)^2 - ab| = {abs(t * (a + b) ** 2 - a * b)}, row says {row.r}")
    else:
        partner_profile = profile_circle(t, a, b)
        if partner_profile.r != row.r:
            problems.append(f"bundle |H^4| = {partner_profile.r}, row says {row.r}")
        orientation = next((o for o in Orientation if partner_profile.s_triple == _row_s(row, o)), None)
        if orientation is None:
            problems.append(
                f"bundle s-values {partner_profile.s_triple} match neither sign "
                f"of the tabulated values"
            )
        else:
            if row.starred != (orientation is Orientation.REVERSING):
                problems.append(
                    "orientation mark on the row disagrees with the computed identification"
                )
            if partner_profile.p1 != p1:
                problems.append(f"p1 mismatch: {partner_profile.p1} vs {p1}")
    return orientation, (), BundleSpec(Family.CIRCLE, a, b, t=t)


def _verify_row(row: TableRow, fixtures: Sequence[EschenburgFixture]) -> RowResult:
    """Check the row's space, then its partner, then the full-profile verdict."""
    problems: list[str] = []
    fixture = find_fixture(fixtures, row.k, row.l, s1=row.s[0])
    inv = invariants(fixture.space)
    _check_space(row, inv, problems)
    partner_step = _sphere_partner if row.bundle is None else _circle_partner
    orientation, residues, partner = partner_step(row, inv.p1, problems)
    if orientation is not None:
        verdict = ks_diffeomorphic(fixture_profile(fixture), bundle_profile(partner))
        if verdict is not orientation:
            basis = "solver orientation" if row.bundle is None else "the s-value match"
            problems.append(f"full-profile verdict {verdict} disagrees with {basis}")
    return RowResult(
        row=row,
        space=eschenburg_descriptor(fixture.space),
        partner=describe_bundle_spec(partner),
        orientation=orientation,
        residues=residues,
        p1=inv.p1,
        problems=tuple(problems),
    )


def reproduce_table(
    which: str, fixtures: Optional[Sequence[EschenburgFixture]] = None
) -> TableReport:
    """Recompute one catalog table row by row.

    Table A (sphere partners): recomputes r, freeness, curvature, the
    standard-linking-form precondition, runs the residue solver in both
    orientations against the tabulated s-values, and requires exactly
    the tabulated residue set; then re-verifies each listed bundle's
    profile and p1 against the fixture space.  Table B (circle
    partners): checks |t(a+b)^2 - ab| = r, matches the bundle's s-triple
    against the tabulated values up to sign, and verifies p1 coherence
    and the full-profile verdict, including the catalog's
    orientation-reversal mark.

    `fixtures` defaults to the packaged catalog.  Raises MissingFixture
    when a row's space is absent from them.
    """
    table = which.strip().upper()
    if table not in ("A", "B"):
        raise DomainError(f"unknown table {which!r}: expected 'A' or 'B'")
    if fixtures is None:
        fixtures = load_fixtures()
    rows = TABLE_A if table == "A" else TABLE_B
    return TableReport(table=table, rows=tuple(_verify_row(row, fixtures) for row in rows))


# ---------------------------------------------------------------------------
# Rendering.
# ---------------------------------------------------------------------------


def _evidence_texts(
    records: Iterable[MatchRecord], quote: Callable[[str], str] = str
) -> Iterator[tuple[MatchRecord, tuple[str, str, str, str]]]:
    """Each record with its evidence as text: r, then each s-value's "n/d" passed through `quote`.

    match_all gives all records of one left entry the same evidence
    tuple, so a run of records that share it is formatted once.
    """
    evidence = texts = None
    for record in records:
        if record.evidence is not evidence:
            evidence = record.evidence
            r, *s_triple = evidence
            texts = (str(r), *(quote(str(s)) for s in s_triple))
        yield record, texts


def render_matches_tsv(records: Iterable[MatchRecord]) -> str:
    """Machine-readable matches: left, right, orientation, r, s1, s2, s3."""
    return "".join(
        "\t".join((record.left, record.right, record.orientation.value, *texts)) + "\n"
        for record, texts in _evidence_texts(records)
    )


# One match object as json.dumps(..., sort_keys=True, indent=2) writes it
# inside a list: keys sorted, each value already encoded.
_JSON_RECORD = (
    '  {{\n    "left": {},\n    "orientation": {},\n    "r": {},\n    "right": {},\n'
    '    "s1": {},\n    "s2": {},\n    "s3": {}\n  }}'
)


def render_matches_json(records: Iterable[MatchRecord]) -> str:
    """The matches as a JSON list of objects with keys left, right, orientation, r, s1, s2, s3.

    The text is json.dumps(payload, sort_keys=True, indent=2) + "\n" of
    that list, with r an integer and the s-values as "n/d" strings.  With
    an indent json.dumps runs its encoder in Python; here only the string
    values pass through json.dumps, into a fixed template.
    """
    dumps = json.dumps
    objects = [
        _JSON_RECORD.format(dumps(record.left), dumps(record.orientation.value), r, dumps(record.right), s1, s2, s3)
        for record, (r, s1, s2, s3) in _evidence_texts(records, dumps)
    ]
    if not objects:
        return "[]\n"
    return "[\n" + ",\n".join(objects) + "\n]\n"


def render_matches_text(records: Iterable[MatchRecord]) -> str:
    """Human-readable match list, one line per record."""
    lines = [
        f"{record.left} ~ {record.right} ({record.orientation.value}): r={r}, s=({s1}, {s2}, {s3})\n"
        for record, (r, s1, s2, s3) in _evidence_texts(records)
    ]
    return "".join(lines) or "no matches\n"


def render_table_text(report: TableReport) -> str:
    """Human-readable per-row verification report for a catalog table."""
    lines = [f"catalog table {report.table}"]
    for result in report.rows:
        row = result.row
        star = "*" if row.starred else ""
        k = ",".join(str(x) for x in row.k)
        l = ",".join(str(x) for x in row.l)
        orientation = result.orientation.value if result.orientation else "undetermined"
        detail = ""
        if result.residues:
            values = ", ".join(str(c.value) for c in result.residues)
            detail = f" a in {{{values}}} mod {168 * row.r}"
        status = "ok" if result.passed else "FAILED: " + "; ".join(result.problems)
        lines.append(
            f"  r={row.r}{star} [{k} | {l}] {result.space} ~ {result.partner} "
            f"({orientation}){detail}: {status}"
        )
    verified = sum(1 for result in report.rows if result.passed)
    lines.append(f"{verified}/{len(report.rows)} rows verified")
    return "".join(line + "\n" for line in lines)
