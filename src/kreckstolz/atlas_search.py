"""Invariant-keyed search over families of spaces, plus catalog verification.

Diffeomorphic pairs between two collections of spaces are found on
integers before any profile is built.  A `Source` (listed: the catalog,
a circle grid; solvable: a sphere range) gives each entry its s1 value,
its triple key (`profile_key`) and its index entry; `find_matches`
chooses which entries get built, and its points 1-6 prove that this
changes no output; `match_all` checks each pair of a shared bucket.
`sphere_source` proves its periods, `_circle_candidates` its walk of
the circle diagonals.

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
from functools import cache, cached_property, partial
from itertools import chain
from math import gcd, isqrt
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .bundle_families import (
    Family,
    choose_mn,
    circle_p1_lk_pi4,
    circle_s1,
    circle_s23,
    describe_bundle,
    parse_bundle_spec,
    profile as bundle_profile,
    profile_circle,
    profile_sphere,
    sphere_p1_lk_pi4,
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
    EschenburgInvariants,
    EschenburgSpace,
    find_fixture,
    fixture_profile,
    invariants,
    load_fixtures,
)
from .exact_arith import (
    ModOneValue,
    ResidueClass,
    excerpt,
    mod_one,
    ratio_mod_one,
    read_fraction,
    read_int,
    require_instance,
    require_ints,
    require_text,
)
from .profiles import (
    CohomologyType,
    InvariantProfile,
    Pi4,
    STriple,
    pi4_conflict,
    reversed_profile,
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
    "sphere_grid",
    "sphere_source",
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


def _oriented_key(cohomology_type: CohomologyType, r: int, pairs: Sequence[tuple[int, int]]) -> tuple[TripleKey, bool]:
    """The triple key and flip bit of s-values given as reduced pairs (n, d), 0 <= n < d.

    The negation (d - n)/d of n/d shares d, so the two compare as 2n with d
    (a tie when n = 0 or 2n = d); the first value that does not tie decides.
    """
    flipped = False
    for n, d in pairs:
        if n and 2 * n != d:
            flipped = 2 * n > d
            break
    if flipped:
        pairs = tuple(((d - n) % d, d) for n, d in pairs)
    (n1, d1), (n2, d2), (n3, d3) = pairs
    return (cohomology_type, r, n1, d1, n2, d2, n3, d3), flipped


def key_s_triple(
    key: TripleKey, flipped: bool, fraction: Callable[[int, int], ModOneValue] = ratio_mod_one
) -> STriple:
    """The s-triple modulo 1 of a space with this bucket key and flip bit.

    The key holds the canonical s-triple as reduced pairs (n, d); a set
    bit means the space carries its negation, -n/d = ((-n) mod d)/d.
    So this undoes the orientation that _oriented_key chose, and profile_key
    of a profile with these s-values gives back the key and the bit.
    Each value is `fraction` (ratio_mod_one, or match_all's memo of it)
    of its reduced pair (n, d), 0 <= n < d.
    """
    _, _, n1, d1, n2, d2, n3, d3 = key
    if flipped:
        n1, n2, n3 = -n1 % d1, -n2 % d2, -n3 % d3
    return fraction(n1, d1), fraction(n2, d2), fraction(n3, d3)


def profile_key(profile: InvariantProfile) -> tuple[TripleKey, bool]:
    """The bucket key of a profile, orientation-insensitive, and its orientation bit.

    The key holds the cohomology type, r and the lexicographically smaller
    of the s-triple and its negation mod 1; the bit says whether that
    minimum differs from the s-triple.  So a profile and its orientation
    reversal share the key and differ only in the bit, except when the
    s-triple equals its own negation: then the bit is clear in both
    orientations.
    """
    require_instance(profile, InvariantProfile, "profile")
    pairs = tuple((s.numerator, s.denominator) for s in profile.s_triple)
    return _oriented_key(profile.cohomology_type, profile.r, pairs)


class IndexEntry(NamedTuple):
    """One indexed space: its descriptor, the invariants its bucket key leaves out, and its orientation bit."""

    descriptor: str
    p1: int  # a residue mod the key's r
    lk: Optional[tuple[int, ...]]  # ascending residues mod r; None if r = 1
    pi4: Pi4
    flipped: bool


# The fields of an IndexEntry before its flip bit, as Source.build gives them.
EntryFields = tuple[str, int, Optional[tuple[int, ...]], Pi4]


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


def _entry_fields(entry: tuple[str, InvariantProfile]) -> EntryFields:
    """The IndexEntry fields before the flip bit of a (descriptor, profile) pair: p1 and lk as residues mod r."""
    descriptor, profile = entry
    lk = None if profile.lk is None else tuple(sorted(c.value for c in profile.lk))
    return descriptor, profile.p1.value, lk, profile.pi4


def build_index(profiles: Iterable[tuple[str, InvariantProfile]]) -> AtlasIndex:
    """Index (descriptor, profile) pairs by their bucket key (see profile_key)."""
    keyed = []
    for entry in require_instance(profiles, Iterable, "profiles"):
        key, flipped = profile_key(entry[1])
        keyed.append((key, IndexEntry(*_entry_fields(entry), flipped)))
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
    Each pair is checked for pi4, then linking classes, then p1, in
    visiting order: left entries in bucket order, each against the right
    entries of its bucket in order, so the first conflicting pair raises.
    The evidence (r from the key, the s-values from key_s_triple) is built
    once per bucket and left bit, so the records of a run share one
    tuple, and its s-values are interned per call: a reduced pair (n, d)
    gets its Fraction from ratio_mod_one at its first occurrence, and
    every later evidence tuple reuses that object.
    With `require_pi4_compat` (the default) a proven pi4 = 0 on one side
    and a proven pi4 = Z/2 on the other blocks the pair; passing False
    drops that gate, for surveys over families whose pi4 is the only
    obstruction.
    """
    require_instance(left, AtlasIndex, "left")
    require_instance(right, AtlasIndex, "right")
    require_instance(require_pi4_compat, bool, "require_pi4_compat")
    records: list[MatchRecord] = []
    fraction = cache(ratio_mod_one)  # one Fraction per s-value of this call
    for key, left_entries in left.buckets.items():
        right_entries = right.buckets.get(key)
        if not right_entries:
            continue
        r = key[1]
        evidences: dict[bool, tuple[int, ModOneValue, ModOneValue, ModOneValue]] = {}  # per left bit
        for left_entry in left_entries:
            flipped = left_entry.flipped
            evidence = evidences.get(flipped) or evidences.setdefault(
                flipped, (r, *key_s_triple(key, flipped, fraction))
            )
            records += [MatchRecord(left_entry.descriptor, other.descriptor, o, evidence) for other in right_entries
                        if (o := _orientation(r, left_entry, other, require_pi4_compat))]
    return tuple(records)


def _orientation(r: int, left: IndexEntry, right: IndexEntry, require_pi4_compat: bool) -> Optional[Orientation]:
    """The orientation of a pair of entries of a bucket of order r, or None if pi4 blocks it.

    A conflict in lk or p1 raises match_all's InconsistentFixture.
    """
    _, p1, lk, pi4, flipped = left
    _, other_p1, other_lk, other_pi4, other_flipped = right
    if require_pi4_compat and other_pi4 is pi4_conflict(pi4):
        return None
    reversing = flipped != other_flipped
    orientation = Orientation.REVERSING if reversing else Orientation.PRESERVING
    if reversing and other_lk is not None:
        other_lk = [-v % r for v in other_lk]
    if (lk is None) != (other_lk is None) or lk is not None and set(lk).isdisjoint(other_lk):
        raise InconsistentFixture(
            f"s-values match ({orientation.value}) but linking classes differ: "
            f"{_lk_text(lk, r)} vs {_lk_text(other_lk, r)}"
        )
    if p1 != other_p1:
        raise InconsistentFixture(
            f"s-values match ({orientation.value}) but p1 differs: {p1} mod {r} vs {other_p1} mod {r}"
        )
    return orientation


def _lk_text(values: Optional[Iterable[int]], r: int) -> str:
    """Linking classes as invariants prints them: ascending, each as "v mod r", or "trivial" if there are none."""
    return ", ".join(f"{v} mod {r}" for v in sorted(values)) if values else "trivial"


def find_matches(left: Source, right: Source, require_pi4_compat: bool = True) -> tuple[MatchRecord, ...]:
    """match_all of two sources, with entries built only for possible partners.

    Two integer stages choose the entries that get built.  First, each
    side selects (Source.select) its entries whose s1 bucket occurs on
    both sides.  Second, each selected entry gets its triple key and flip
    bit (Source.key), and only the entries whose triple key occurs on both
    sides are built (Source.build) into index entries.  These go, grouped
    by triple key in source order, to match_all.  The result is that of
    the eager pipeline, match_all of build_index of every entry of each
    side with its profile from the family's constructor (sphere_grid,
    circle_grid, fixture_entries):

    1. Both pipelines key through _oriented_key.  A source's cleared
       s-values equal those of the eager profile, and reduced they are the
       profile's pairs, so Source.key gives profile_key of that profile:
       the buckets and bits of build_index.  The build computes the
       descriptor, p1, lk and pi4 with the code of the eager constructor
       (sphere_p1_lk_pi4, circle_p1_lk_pi4, whose integers the constructor
       wraps; the catalog's profiles are built with the source), so every
       built entry equals the one that build_index makes of the eager
       profile through _entry_fields.  No entry holds s-values:
       match_all reads them from the key for both pipelines alike.
    2. An entry's s1 bucket is the first four fields of its triple key.
       For s1 = n/d reduced, both hold the type, r and d; the bucket
       holds min(n, d - n), the key n or (d - n) mod d.  These agree: s1
       decides the canonical orientation, taking the smaller numerator,
       unless 2n = d or n = 0, where n and (d - n) mod d are equal.  So
       equal triple keys imply equal s1 buckets, and every entry of a
       bucket that occurs on both sides passes both stages on both
       sides; a bucket that occurs on one side only pairs nothing in
       match_all.  Survivors keep their relative order, so the shared
       buckets come in the eager order and hold the same entries in the
       same order.
    3. match_all therefore visits the same pairs in the same order, so
       the records, their order and the first InconsistentFixture (type
       and message) are those of the eager pipeline.
    4. Source.select yields exactly the entries with a kept s1 bucket, in
       source order, also for a periodic source: entry i has the s1 value
       at position i mod period, and the sphere source proves that period.
    5. The sources build keys and entries only for valid parameters
       (fixture profiles are built with the source), which cannot raise,
       so skipping entries hides no error.
    6. When one side is solvable (order r), the other listed, and 56n is
       at most the solvable side's s1 period, n the listed entries of type
       E and order r, both stages are skipped: for each of their keys,
       ediffeo_solve of key_s_triple(key, False) returns every class of a
       mod 168r whose bundle carries that triple (preserving: bit clear)
       or its negation (reversing: bit set), round-tripped, and none if it
       raises.  As the s-triple of S_{a,a-r} depends on a mod 168r only,
       the classes walked through the range give, in order of a, the
       entries and bits that points 2 and 4 keep (a self-negating triple
       keeps the bit clear); no other listed entry shares a key with the
       range.  56 weighs the solver's 28 lifts in 2 orientations per key
       against one s1 value per period position.
    """
    require_instance(left, Source, "left")
    require_instance(right, Source, "right")
    keyed = None
    solvable, listed = (left, right) if left.solve else (right, left)
    if solvable.solve and not listed.solve:
        r, solve = solvable.solve
        own = [(p, s1) for p, s1 in zip(listed.params, listed.s1) if s1[:2] == (CohomologyType.E, r)]
        if 56 * len(own) <= solvable.period:
            listed_keyed = [(p, *listed.key(p, s1)) for p, s1 in own]
            solved = solve(key for _, key, _ in listed_keyed)
            keyed = [listed_keyed, solved] if listed is left else [solved, listed_keyed]
    if keyed is None:
        keyed = [[(p, *s.key(p, s1)) for p, s1 in s.select(other)] for s, other in ((left, right), (right, left))]
    left_keyed, right_keyed = keyed
    shared = {key for _, key, _ in left_keyed}.intersection(key for _, key, _ in right_keyed)

    def index(source: Source, keyed: list[tuple[Any, TripleKey, bool]]) -> AtlasIndex:
        return _grouped((key, IndexEntry(*source.build(p), flipped)) for p, key, flipped in keyed if key in shared)

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


@dataclass(frozen=True)
class Source:
    """A collection of spaces whose profiles are built on demand, listed or solvable.

    Entry i has parameters `params[i]` and s1 value `s1[i % period]`; `s1`
    holds `s1_of` of the first `period` parameters, computed on first use.
    `key(params[i], s1 value)` gives the entry's triple key and flip bit,
    those of profile_key, and `build(params[i])` its descriptor, p1,
    linking classes and pi4, the fields of its IndexEntry before the bit.
    A listed source has one s1 value per entry.  A solvable source has one
    period and `solve`: its order r and its solver, from triple keys of type
    E and order r to (params, key, bit) of its entries that carry them.
    """

    params: Sequence[Any]
    period: int
    s1_of: Callable[[Any], S1Value]
    key: Callable[[Any, S1Value], tuple[TripleKey, bool]]
    build: Callable[[Any], EntryFields]
    solve: Optional[tuple[int, Callable[[Iterable[TripleKey]], list[tuple[Any, TripleKey, bool]]]]] = None

    @cached_property
    def s1(self) -> tuple[S1Value, ...]:
        return tuple(map(self.s1_of, self.params[: self.period]))

    @cached_property
    def _positions(self) -> dict[S1Bucket, list[int]]:
        """The positions i < period of each s1 bucket, ascending."""
        positions = defaultdict(list)
        for i, value in enumerate(self.s1):
            positions[_sign_blind(value)].append(i)
        return positions

    def select(self, other: Source) -> Iterator[tuple[Any, S1Value]]:
        """(params, s1 value) of the entries whose s1 bucket `other` has too, in source order.

        The kept positions of the first period are looked up once and then
        walked period by period: one step per kept position and period.
        """
        shared = other._positions
        kept = sorted(i for bucket, positions in self._positions.items() if bucket in shared for i in positions)
        if not kept:
            return
        count = len(self.params)
        for base in range(0, count, self.period):
            for i in kept:
                if base + i >= count:
                    break
                yield self.params[base + i], self.s1[i]


def eschenburg_descriptor(space: EschenburgSpace) -> str:
    """Stable descriptor string for a parameter pair, e.g. 'eschenburg:1,1,-2|0,0,0'."""
    require_instance(space, EschenburgSpace, "space")
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
    require_instance(load_fixtures, Callable, "load_fixtures")
    if not require_text(text, "a space descriptor").startswith("eschenburg:"):
        spec = parse_bundle_spec(text)
        return describe_bundle(spec.family, spec.a, spec.b, spec.t), bundle_profile(spec)
    k_text, sep, l_text = text.removeprefix("eschenburg:").partition("|")
    if not sep:
        raise DomainError(f"cannot parse {excerpt(text)}: expected eschenburg:k1,k2,k3|l1,l2,l3")
    space = EschenburgSpace(*(tuple(read_int(v) for v in part.split(",")) for part in (k_text, l_text)))
    fixture = find_fixture(_fixtures(load_fixtures(), Iterable), space.k, space.l)
    return eschenburg_descriptor(space), fixture_profile(fixture)


def _fixture_s1(entry: tuple[str, InvariantProfile]) -> S1Value:
    p = entry[1]
    return _s1_value(p.cohomology_type, p.r, p.s1.numerator, p.s1.denominator)


def _fixture_key(entry: tuple[str, InvariantProfile], s1: S1Value) -> tuple[TripleKey, bool]:
    return profile_key(entry[1])


def fixture_source(fixtures: Iterable[EschenburgFixture]) -> Source:
    """The fixture spaces, profiles built from their s-values, as a listed source.

    A catalog is small, so its profiles are built here, at once, and an
    invalid hand-made fixture raises here rather than only when it could
    match.
    """
    entries = tuple(fixture_entries(fixtures))
    return Source(entries, len(entries), _fixture_s1, _fixture_key, _entry_fields)


def fixture_entries(
    fixtures: Iterable[EschenburgFixture],
) -> list[tuple[str, InvariantProfile]]:
    """Index entries for fixture spaces, profiles built from their s-values."""
    return [(eschenburg_descriptor(fx.space), fixture_profile(fx)) for fx in _fixtures(fixtures, Iterable)]


def _fixtures(fixtures: Iterable[EschenburgFixture], kind: type) -> tuple[EschenburgFixture, ...]:
    """The fixtures as a tuple; DomainError unless they are a `kind` (Sequence, Iterable) of EschenburgFixture."""
    fixtures = tuple(require_instance(fixtures, kind, "fixtures"))
    for i, fixture in enumerate(fixtures):
        require_instance(fixture, EschenburgFixture, f"fixtures[{i}]")
    return fixtures


def _sphere_entry(r: int, p1_lk_pi4: Callable[[int], tuple], a: int) -> EntryFields:
    return describe_bundle(Family.SPHERE, a, a - r), *p1_lk_pi4(a % r)


def _sphere_s1(r: int, a: int) -> S1Value:
    return _s1_value(CohomologyType.E, r, *sphere_s1(a, a - r))


def _sphere_key(r: int, s23: Callable[[int], tuple], a: int, s1: S1Value) -> tuple[TripleKey, bool]:
    return _oriented_key(CohomologyType.E, r, (s1[2:], *s23(a % (12 * r))))


def _solve_sphere(r: int, a_values: range, keys: Iterable[TripleKey]) -> list[tuple[int, TripleKey, bool]]:
    """(a, key, bit), in order of a, of the S_{a,a-r} in the range that carry these keys (find_matches, point 6)."""
    classes, period = {}, 168 * r
    for key in dict.fromkeys(keys):
        for flipped, orientation in zip((False, True), Orientation):
            try:
                solution = ediffeo_solve(EdiffeoProblem(r, *key_s_triple(key, False)), orientation)
            except (DivisibilityFailure, ParityFailure, CongruenceFailure):
                continue
            for c in solution.residues:  # a self-negating triple keeps the bit clear
                classes.setdefault((c.value - a_values.start) % period, (key, flipped))
    offsets, count = sorted(classes), len(a_values)
    walk = range(0, count, period) if offsets else ()  # no class: no walk through a long range
    return [(a_values[i + o], *classes[o]) for i in walk for o in offsets if i + o < count]


def sphere_source(r: int, start: int, stop: int) -> Source:
    """The non-spin sphere bundles S_{a, a-r} with a in [start, stop), as a solvable source.

    s1 is computed for the first min(stop - start, 56r) values of a only,
    one period: with x = 2a - r + 2, sphere_s1 gives s1 = (x^2 - r)/(224r),
    and moving a by 56r adds 224r(x + 56r) to x^2, which leaves s1 mod 1
    unchanged.  The reduced s2 and s3 are computed once per class of a mod
    12r, at its least residue c >= 0, on first use: s2 = -(2a - r + 1)/(24r)
    and s3 = -(2a - r - 2)/(6r), and moving a by 12r moves both numerators
    by 24r, a multiple of both denominators.  p1, lk and pi4 are computed
    once per class of a mod r, at its least residue, on first use:
    p1 = (4a - 2r + 4) mod r, and lk and pi4 depend on r only.  A range
    of more than sys.maxsize values, which has no length in Python and
    would ask for unbounded work, is refused.
    """
    require_ints(r=r, start=start, stop=stop)
    if r < 1:
        raise DomainError(f"|H^4| must be positive, got {r}")
    if stop - start > sys.maxsize:
        raise DomainError(f"sphere range [{start}, {stop}) holds {stop - start} values, more than {sys.maxsize}")
    a_values = range(start, stop)
    s23 = cache(lambda c: tuple(_reduced(*s) for s in sphere_s23(c, c - r)))
    p1_lk_pi4 = cache(lambda c: sphere_p1_lk_pi4(c, c - r))
    return Source(a_values, min(56 * r, len(a_values)), partial(_sphere_s1, r), partial(_sphere_key, r, s23),
                  partial(_sphere_entry, r, p1_lk_pi4), (r, partial(_solve_sphere, r, a_values)))


def sphere_grid(r: int, start: int, stop: int) -> list[tuple[str, InvariantProfile]]:
    """Entries for the non-spin sphere bundles S_{a, a-r} with a in [start, stop), from profile_sphere."""
    a_values = sphere_source(r, start, stop).params
    return [(describe_bundle(Family.SPHERE, a, a - r), profile_sphere(a, a - r)) for a in a_values]


def _circle_candidates(r: int, s: int, bound: int) -> Iterable[int]:
    """The a that circle_grid tests on the diagonal a + b = s != 0.

    With |a|, |b| <= bound, a runs over [lo, hi], and a hit needs
    ab = t*s^2 + o for an integer t and o = r or -r, so a*(s - a) = +-r
    mod s^2.  Modulo m = |s| this reads -a^2 = +-r: a hit's a lies in a
    class c mod m with c^2 = r or c^2 = -r (mod m).  Walking those
    classes costs m steps to find the roots c, then about
    roots * (hi - lo) / m steps; at m = 1 it is the plain walk of every a.
    Walking t costs about (bound - m/2)^2 / s^2 steps, far fewer once m
    grows: ab = a*(s - a) lies between its value at the ends of [lo, hi]
    and s^2 // 4 (taken at a = s/2, inside [lo, hi]), which bounds t; and
    for each t, a is a root of a^2 - s*a + (t*s^2 + o) = 0, an integer
    exactly when the discriminant s^2 - 4*(t*s^2 + o) >= 0 is a square q^2
    (then q = s mod 2, as q^2 = s^2 mod 4, and a = (s - q)/2 or
    (s + q)/2).  The cheaper walk is taken by counted steps: the roots are
    sought only when m is below the t-walk's count, and their classes are
    walked when roots * ((hi - lo) // m + 1) is at most that count.

    Either walk yields each a at most once (the classes are distinct, the
    t-walk collects a set) and only a in [lo, hi] (the t-walk keeps no
    other root), so |a| <= bound, and b = s - a has |b| <= bound too:
    a >= s - bound gives b <= bound, and a <= s + bound gives b >= -bound.
    circle_source therefore tests no bound itself.
    """
    lo, hi = max(-bound, s - bound), min(bound, s + bound)
    square, m = s * s, abs(s)
    ab_min, ab_max = lo * (s - lo), square // 4
    t_steps = 2 * ((ab_max - ab_min + 2 * r) // square + 1)
    if m < t_steps:
        roots = [c for c in range(m) if (c * c - r) % m == 0 or (c * c + r) % m == 0]
        if len(roots) * ((hi - lo) // m + 1) <= t_steps:
            return chain.from_iterable(range(lo + (c - lo) % m, hi + 1, m) for c in roots)
    found = set()
    for offset in (r, -r):
        for t in range(-((offset - ab_min) // square), (ab_max - offset) // square + 1):
            disc = square - 4 * (t * square + offset)
            q = isqrt(disc)
            if q * q == disc:
                found.update(a for a in ((s - q) // 2, (s + q) // 2) if lo <= a <= hi)
    return found


def _circle_s1(r: int, hit: tuple[int, int, int]) -> S1Value:
    a, b, t = hit
    return _s1_value(CohomologyType.E, r, *circle_s1(t, a, b))


def _circle_entry(mn: Callable[[int, int], tuple[int, int]], hit: tuple[int, int, int]) -> EntryFields:
    a, b, t = hit
    return describe_bundle(Family.CIRCLE, a, b, t), *circle_p1_lk_pi4(t, a, b, *mn(a, b))


def _circle_key(
    r: int, mn: Callable[[int, int], tuple[int, int]], hit: tuple[int, int, int], s1: S1Value
) -> tuple[TripleKey, bool]:
    a, b, t = hit
    s2, s3 = circle_s23(t, a, b, *mn(a, b))
    return _oriented_key(CohomologyType.E, r, (s1[2:], _reduced(*s2), _reduced(*s3)))


def circle_source(r: int, bound: int) -> Source:
    """The circle bundles with the given r and |a|, |b| <= bound.

    The twisting parameter is not bounded: for each coprime (a, b) both
    integers t with |t (a+b)^2 - ab| = r are admitted when they exist,
    however large.  Entries come ordered by a, then b, then t with
    ab - r = t (a+b)^2 before ab + r = t (a+b)^2.  Each diagonal a + b = s
    is searched output-sensitively (see _circle_candidates, which also
    keeps every candidate within the bound): a hit has a^2 = r or -r
    (mod |s|), as a(s - a) = +-r (mod s^2), so the diagonal is walked
    through the classes of a mod |s| with that property, or through t
    when that counts fewer steps.  Every candidate passes the same
    divisibility and coprimality tests, so the walk changes no entry.
    The parameters of an entry are (a, b, t).  Its pair (m, n) is
    chosen once per (a, b), on first use, for its key and its build.
    """
    require_ints(r=r, bound=bound)
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
                if shifted % square == 0 and gcd(a, b) == 1:
                    hits.append((a, b, shifted // square))
    hits.sort()  # by (a, b, t); ab - r = t (a+b)^2 has the smaller t
    mn = cache(partial(choose_mn, Family.CIRCLE))
    return Source(tuple(hits), len(hits), partial(_circle_s1, r), partial(_circle_key, r, mn),
                  partial(_circle_entry, mn))


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
        raise DomainError(f"unknown {head} source parameter {excerpt(sorted(unknown)[0])}")


def parse_source(text: str, load_fixtures: Callable[[], Sequence[EschenburgFixture]]) -> Source:
    """The source named by 'fixtures', 'sphere:r=..,start=..,stop=..' or 'circle:r=..,bound=..'.

    `load_fixtures` supplies the catalog of a 'fixtures' source and is
    called for no other source.  Malformed, unknown, missing or repeated
    parameters raise DomainError.
    """
    head, _, rest = require_text(text, "a source").partition(":")
    params = {}
    if rest:
        for pair in rest.split(","):
            key, sep, value = pair.partition("=")
            if not sep:
                raise DomainError(f"cannot parse source parameter {excerpt(pair)}: expected key=value")
            if key in params:
                raise DomainError(f"source parameter {excerpt(key)} given twice")
            params[key] = read_int(value)
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
        f"unknown source {excerpt(head)}: expected fixtures, sphere:r=..,start=..,stop=.., or circle:r=..,bound=.."
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
    return TableRow(r, starred, k, l, tuple(map(read_fraction, (s1, s2, s3))), tuple(residues), bundle)


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
    p1: ResidueClass
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


_Partner = tuple[Optional[Orientation], tuple[ResidueClass, ...], str, Optional[InvariantProfile]]


def _sphere_partner(row: TableRow, inv: EschenburgInvariants, problems: list[str]) -> _Partner:
    """Solve a sphere row's s-values in both orientations against its residue list.

    The listed bundles carry the solved s-values unchecked: each listed a is a
    solved residue mod 168r, ediffeo_solve raises unless each solved residue's
    bundle carries them, and S_{a,a-r}'s s-triple depends on a mod 168r only.
    """
    # The residue solver presupposes the standard linking form.
    if inv.s_signed % row.r not in (1 % row.r, (-1) % row.r):
        problems.append("linking form is not standard: sigma3(k) - sigma3(l) is not ±1 mod r")
    anchor = min(row.residues)
    partner = describe_bundle(Family.SPHERE, anchor, anchor - row.r)
    try:
        problem = EdiffeoProblem(row.r, *row.s)
    except DivisibilityFailure as exc:
        problems.append(f"{type(exc).__name__}: {exc}")
        return None, (), partner, None
    target = {value % (168 * row.r) for value in row.residues}
    orientation, solved, outcomes = None, (), {}
    for candidate in Orientation:
        try:
            solution = ediffeo_solve(problem, candidate)
        except (ParityFailure, CongruenceFailure) as exc:
            outcomes[candidate] = f"{type(exc).__name__}: {exc}"
            continue
        if {c.value for c in solution.residues} == target:
            orientation, solved = candidate, solution.residues
        else:
            outcomes[candidate] = "solves to {%s}" % ", ".join(str(c.value) for c in solution.residues)
    if orientation is None:
        problems.append(
            "tabulated residues reproduced by neither orientation: "
            + "; ".join(f"{c.value}: {msg}" for c, msg in outcomes.items())
        )
        return None, (), partner, None
    bundles = [(a, profile_sphere(a, a - row.r)) for a in row.residues]
    problems += [f"p1 mismatch at a={a}: {bundle.p1} vs {inv.p1}" for a, bundle in bundles if bundle.p1 != inv.p1]
    return orientation, solved, partner, dict(bundles)[anchor]


def _circle_partner(row: TableRow, inv: EschenburgInvariants, problems: list[str]) -> _Partner:
    """Match a circle row's bundle against its s-values up to sign."""
    a, b, t = row.bundle
    partner, partner_profile = describe_bundle(Family.CIRCLE, a, b, t), profile_circle(t, a, b)
    if partner_profile.r != row.r:
        problems.append(f"|t(a+b)^2 - ab| = {partner_profile.r}, row says {row.r}")
        return None, (), partner, None
    signs = (partner_profile.s_triple, reversed_profile(partner_profile).s_triple)  # preserving, reversing
    tabulated = tuple(mod_one(s) for s in row.s)
    orientation = next((o for o, s in zip(Orientation, signs) if s == tabulated), None)
    if orientation is None:
        problems.append(f"bundle s-values {partner_profile.s_triple} match neither sign of the tabulated values")
        return None, (), partner, None
    if row.starred != (orientation is Orientation.REVERSING):
        problems.append("orientation mark on the row disagrees with the computed identification")
    if partner_profile.p1 != inv.p1:
        problems.append(f"p1 mismatch: {partner_profile.p1} vs {inv.p1}")
    return orientation, (), partner, partner_profile


def _verify_row(row: TableRow, fixtures: Sequence[EschenburgFixture]) -> RowResult:
    """Check the row's space, then its partner, then the full-profile verdict."""
    problems: list[str] = []
    fixture = find_fixture(fixtures, row.k, row.l, s1=row.s[0])
    inv = invariants(fixture.space)
    if inv.r != row.r:
        problems.append(f"recomputed |H^4| = {inv.r}, row says {row.r}")
    if not inv.free:
        problems.append("parameters do not define a free action")
    if not inv.positively_curved:
        problems.append("space is not positively curved")
    partner_step = _sphere_partner if row.bundle is None else _circle_partner
    orientation, residues, partner, partner_profile = partner_step(row, inv, problems)
    if orientation is not None:
        verdict = ks_diffeomorphic(inv.profile(fixture.s1, fixture.s2, fixture.s3), partner_profile)
        if verdict is not orientation:
            basis = "solver orientation" if row.bundle is None else "the s-value match"
            problems.append(f"full-profile verdict {verdict} disagrees with {basis}")
    return RowResult(
        row=row,
        space=eschenburg_descriptor(fixture.space),
        partner=partner,
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
    the tabulated residue set; then checks each listed bundle's p1
    against the fixture space and the full-profile verdict on the
    smallest.  Table B (circle partners): checks |t(a+b)^2 - ab| = r,
    matches the bundle's s-triple against the tabulated values up to
    sign, and verifies p1 coherence and the full-profile verdict,
    including the catalog's orientation-reversal mark.

    `fixtures` defaults to the packaged catalog.  Raises MissingFixture
    when a row's space is absent from them.
    """
    if which not in ("A", "B"):
        raise DomainError(f"unknown table {excerpt(which)}: expected 'A' or 'B'")
    fixtures = _fixtures(load_fixtures() if fixtures is None else fixtures, Sequence)
    rows = TABLE_A if which == "A" else TABLE_B
    return TableReport(table=which, rows=tuple(_verify_row(row, fixtures) for row in rows))


# ---------------------------------------------------------------------------
# Rendering.
# ---------------------------------------------------------------------------


def _evidence_texts(
    records: Iterable[MatchRecord], quote: Callable[[str], str] = str
) -> Iterator[tuple[MatchRecord, tuple[str, str, str, str]]]:
    """Each record with its evidence as text: r, then each s-value's "n/d" passed through `quote`.

    match_all gives all records of one bucket and left flip bit the same
    evidence tuple, so a run of records that share it is formatted once.
    """
    evidence = texts = None
    for record in require_instance(records, Iterable, "records"):
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
    values are encoded, with encode_basestring_ascii (what json.dumps
    calls for a str under its default ensure_ascii=True), into a fixed
    template; the orientation text is read as `_value_`, not through the
    enum's Python-level `value` property.
    """
    quote = json.encoder.encode_basestring_ascii
    objects = [
        _JSON_RECORD.format(quote(record.left), quote(record.orientation._value_), r, quote(record.right), s1, s2, s3)
        for record, (r, s1, s2, s3) in _evidence_texts(records, quote)
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
    require_instance(report, TableReport, "report")
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
