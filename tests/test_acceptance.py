"""Release acceptance gate: one test per numbered criterion.

Each test verifies one release criterion end to end and prints a single
``criterion N (<name>): PASS|FAIL`` line (visible with ``pytest -s``; the
per-test PASSED/FAILED column of ``pytest -v`` carries the same
information).  All checks are exact — integer and rational arithmetic
only, tolerance zero.

Criterion 4 pins the order-19513 catalog entry's residue set to
{273181, 2614741} mod 3278184.  The classical value {273181} under-counts:
the sphere bundle at a = 2614741 carries the identical (s1, s2, s3), and a
scan of every a in one full period (the s-triple of S_{a,a-r} depends only
on a mod 168r) finds exactly these two classes and no third.  The test runs
that scan itself, so completeness is checked without trusting the solver.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from kreckstolz import (
    BundleSpec,
    ChenParams,
    EdiffeoProblem,
    EschenburgSpace,
    Family,
    Orientation,
    ResidueClass,
    TABLE_A,
    build_index,
    chen_bundle,
    choose_mn,
    ediffeo_solve,
    enumerate_positively_curved,
    eschenburg_descriptor,
    fixture_entries,
    fixture_profile,
    invariants,
    ks_diffeomorphic,
    ks_homeomorphic,
    lk_compatible,
    load_fixtures,
    match_all,
    mod_one,
    profile,
    profile_circle,
    profile_sphere,
    profile_spin_circle,
    profile_spin_sphere,
    reproduce_table,
    reversed_profile,
    sphere_congruence_classify,
    sqrt_mod,
)
from kreckstolz.bundle_families import _circle_profile, _spin_circle_profile
from kreckstolz.errors import (
    CongruenceFailure,
    DegenerateOrder,
    DivisibilityFailure,
    ParityFailure,
)

F = Fraction


def same_invariants(p, q):
    return ks_diffeomorphic(p, q) is Orientation.PRESERVING and p.p1 == q.p1


def _report(number: int, name: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {number} ({name}): {status}")
    if failures:
        shown = "; ".join(failures[:8])
        extra = f" ... and {len(failures) - 8} more" if len(failures) > 8 else ""
        raise AssertionError(f"criterion {number} ({name}): {shown}{extra}")


def test_criterion_01_order3_solver_chain():
    """From (r=3, 1/112, -1/36, 1/18): integer E-values (6, -2, 1); the
    square roots of 9 mod 672 number eight; the admissibility filter keeps
    the canonical witnesses {3, 627} (the full filtered set is
    {3, 291, 339, 627}, collapsing pairwise to the same residues); the
    solved residue set is exactly {2, 146} mod 504."""
    failures: list[str] = []
    problem = EdiffeoProblem(3, F(1, 112), F(-1, 36), F(1, 18))
    if (problem.e1, problem.e2, problem.e3) != (6, -2, 1):
        failures.append(f"E-values {(problem.e1, problem.e2, problem.e3)} != (6, -2, 1)")
    roots = sqrt_mod(9, 672)
    if len(roots) != 8:
        failures.append(f"sqrt_mod(9, 672) returned {len(roots)} roots, expected 8")
    solution = ediffeo_solve(problem, Orientation.PRESERVING)
    if solution.witness_roots != (3, 627):
        failures.append(f"witness roots {solution.witness_roots} != (3, 627)")
    if solution.admissible_roots != (3, 291, 339, 627):
        failures.append(
            f"admissible roots {solution.admissible_roots} != (3, 291, 339, 627)"
        )
    expected = (ResidueClass(2, 504), ResidueClass(146, 504))
    if solution.residues != expected:
        failures.append(f"residues {solution.residues} != {expected}")
    _report(1, "order-3 solver chain", failures)


def test_criterion_02_table_a_rows():
    """All 13 catalog-A rows verify: recomputed order matches, the space is
    free and positively curved, the signed linking number is +-1 mod r, and
    the solver's residue set equals the bracketed list mod 168r (under the
    per-row orientation the solver itself determines).  Anchor: the r=41
    row yields {2285, 5237} mod 6888."""
    failures: list[str] = []
    report = reproduce_table("A")
    if len(report.rows) != 13:
        failures.append(f"expected 13 rows, got {len(report.rows)}")
    for result in report.rows:
        if not result.passed:
            failures.append(f"r={result.row.r}: {'; '.join(result.problems)}")
    anchor = next(rr for rr in report.rows if rr.row.r == 41)
    values = {c.value for c in anchor.residues}
    moduli = {c.modulus for c in anchor.residues}
    if values != {2285, 5237} or moduli != {6888}:
        failures.append(f"r=41 anchor residues {sorted(values)} mod {moduli} != {{2285, 5237}} mod 6888")
    _report(2, "catalog table A rows", failures)


def test_criterion_03_table_a_bundle_profiles():
    """For every catalog-A row and every listed residue a, the sphere
    bundle S_{a,a-r} carries exactly the tabulated (s1, s2, s3) mod 1 —
    directly for rows whose computed identification preserves orientation,
    negated for the reversing rows (the catalog stores each space's values
    in its own orientation; the verifier resolves the side per row).
    Anchor: S_{2285,2244} matches the printed (115/287, 65/164, -33/82)
    literally."""
    failures: list[str] = []
    report = reproduce_table("A")
    checked = 0
    for result in report.rows:
        printed = tuple(mod_one(s) for s in result.row.s)
        negated = tuple(mod_one(-s) for s in result.row.s)
        expected = printed if result.orientation is Orientation.PRESERVING else negated
        for cls in result.residues:
            got = profile_sphere(cls.value, cls.value - result.row.r).s_triple
            checked += 1
            if got != expected:
                failures.append(
                    f"r={result.row.r}, a={cls.value}: bundle triple {got} != {expected}"
                )
    if checked < 13:
        failures.append(f"only {checked} (row, residue) pairs checked")
    anchor = profile_sphere(2285, 2244)
    literal = (F(115, 287), F(65, 164), mod_one(F(-33, 82)))
    if anchor.s_triple != literal:
        failures.append(f"S_2285,2244 triple {anchor.s_triple} != printed {literal}")
    _report(3, "catalog table A bundle profiles", failures)


def _sphere_period_hits(r: int, target: tuple[Fraction, Fraction, Fraction]) -> set[int]:
    """Every a with 0 <= a < 168r whose sphere bundle S_{a,a-r} carries the
    s-triple ``target`` (each entry in [0, 1)), found by direct scan with
    integer arithmetic only, independently of the residue solver.

    With b = a - r, profile_sphere gives
        s1 = ((2a-r+2)^2 - r) / (224r),
        s2 = -(2a-r+1) / (24r),
        s3 = -(2a-r-2) / (6r).
    Replacing a by a + 56r adds 224r(2a-r+2+56r) to the s1 numerator,
    a + 12r adds -24r to the s2 numerator and a + 3r adds -6r to the s3
    numerator, so modulo 1 the three values have periods 56r, 12r and 3r in
    a.  The triple therefore depends only on a mod lcm(56, 12, 3)r = 168r,
    the solver's modulus, and one period holds every class."""
    m1, m2, m3 = 224 * r, 24 * r, 6 * r
    scaled = [s * m for s, m in zip(target, (m1, m2, m3))]
    if any(x.denominator != 1 for x in scaled):
        return set()
    n1, n2, n3 = (int(x) for x in scaled)
    return {
        a
        for a in range(168 * r)
        if -(2 * a - r - 2) % m3 == n3
        and -(2 * a - r + 1) % m2 == n2
        and ((2 * a - r + 2) ** 2 - r) % m1 == n1
    }


def test_criterion_04_table_b_and_order19513_residues():
    """Catalog-B rows: each circle bundle reproduces the tabulated s-triple
    (in the row's tabulated orientation — the starred rows record the
    orientation-reversed values), the stated order, and a first Pontryagin
    class coherent with the parameter side; anchor: the r=17 row has
    p1 = 9 mod 17 on both sides.  Then the order-19513 entry: the solver's
    residue set is exactly {273181, 2614741} mod 3278184.  Every returned
    class must round-trip to the listed bundle's invariants (soundness), and
    a scan of every a in one full period must find exactly the returned
    classes in the solver's orientation and none in an orientation the
    solver refuses (completeness).  That scan is what proves the reference
    value: the classical single class {273181} misses 2614741."""
    failures: list[str] = []
    report = reproduce_table("B")
    if len(report.rows) != 5:
        failures.append(f"expected 5 rows, got {len(report.rows)}")
    for result in report.rows:
        if not result.passed:
            failures.append(f"r={result.row.r}: {'; '.join(result.problems)}")
    anchor = next(rr for rr in report.rows if rr.row.r == 17)
    if anchor.p1 != ResidueClass(9, 17):
        failures.append(f"r=17 anchor p1 {anchor.p1} != 9 mod 17")

    fixtures = load_fixtures()
    fx = next(f for f in fixtures if f.space.k == (56, 103, -159))
    problem = EdiffeoProblem(19513, fx.s1, fx.s2, fx.s3)
    given = fixture_profile(fx)
    oriented = {
        Orientation.PRESERVING: given.s_triple,
        Orientation.REVERSING: reversed_profile(given).s_triple,
    }
    solution = None
    for orientation in Orientation:
        try:
            solution = ediffeo_solve(problem, orientation)
            break
        except (DivisibilityFailure, ParityFailure, CongruenceFailure):
            missed = _sphere_period_hits(19513, oriented[orientation])
            if missed:
                failures.append(
                    f"solver refuses the {orientation.value} orientation, "
                    f"but the period scan finds {sorted(missed)}"
                )
    if solution is None:
        failures.append("no orientation admits a solution for the order-19513 entry")
    else:
        listed = profile_sphere(273181, 253668).s_triple
        for cls in solution.residues:
            got = profile_sphere(cls.value, cls.value - 19513).s_triple
            if got != listed:
                failures.append(
                    f"residue {cls} does not round-trip to the listed bundle's invariants"
                )
        values = {c.value for c in solution.residues}
        moduli = {c.modulus for c in solution.residues}
        if values != {273181, 2614741} or moduli != {3278184}:
            failures.append(
                f"order-19513 residue set {sorted(values)} mod {moduli} "
                "!= {273181, 2614741} mod 3278184"
            )
        scanned = _sphere_period_hits(19513, oriented[solution.orientation])
        if scanned != values:
            failures.append(
                f"period scan finds {sorted(scanned)}, solver returns {sorted(values)}"
            )
    _report(4, "catalog table B and order-19513 residues", failures)


def test_criterion_05_natural_diffeomorphism_laws():
    """Identification laws across families, as profile equalities.

    (a) circle(t, p, 1-p) = sphere(-t, p(p-1)) for |p|, |t| <= 20;
    (b) spin-circle(t, k, 1) = spin-sphere(t, k^2) for |k|, |t| <= 20;
    (c) circle(1, 1, 1) matches the order-3 catalog space, orientation
        preserving;
    (d) the q1=q2=q torus-reducible spin bundle SpinSphere(q^2, 0) is
        diffeomorphic to spin-circle(0, q, 1) for 1 <= q <= 20 (the
        identification reverses orientation relative to the a > b
        parameter ordering);
    (e) spin-sphere(62500, 57600) and spin-circle(0, 70, 5899) carry
        identical profiles."""
    failures: list[str] = []

    checked_a = 0
    for t in range(-20, 21):
        for p in range(-20, 21):
            try:
                left = profile_circle(t, p, 1 - p)
            except DegenerateOrder:
                continue
            right = profile_sphere(-t, p * (p - 1))
            checked_a += 1
            if not same_invariants(left, right):
                failures.append(f"(a) t={t}, p={p}: circle and sphere profiles differ")
    if checked_a < 1500:
        failures.append(f"(a) only {checked_a} cases checked")

    checked_b = 0
    for t in range(-20, 21):
        for k in range(-20, 21):
            if t == k * k:
                continue
            left = profile_spin_circle(t, k, 1)
            right = profile_spin_sphere(t, k * k)
            checked_b += 1
            if not same_invariants(left, right):
                failures.append(f"(b) t={t}, k={k}: spin profiles differ")
    if checked_b < 1500:
        failures.append(f"(b) only {checked_b} cases checked")

    fixtures = load_fixtures()
    w11 = next(f for f in fixtures if f.space.k == (1, 1, -2) and f.space.l == (0, 0, 0))
    aloff = profile_circle(1, 1, 1)
    if ks_diffeomorphic(aloff, fixture_profile(w11)) is not Orientation.PRESERVING:
        failures.append("(c) circle(1,1,1) does not match the order-3 catalog space")
    if aloff.s_triple != (F(1, 112), mod_one(F(-1, 36)), F(1, 18)):
        failures.append(f"(c) circle(1,1,1) triple {aloff.s_triple} unexpected")

    for q in range(1, 21):
        left = profile(chen_bundle(ChenParams(q, q)))
        right = profile_spin_circle(0, q, 1)
        if left.r != q * q:
            failures.append(f"(d) q={q}: order {left.r} != q^2")
        if ks_diffeomorphic(left, right) is None:
            failures.append(f"(d) q={q}: no diffeomorphism found")
        if not same_invariants(left, reversed_profile(right)):
            failures.append(f"(d) q={q}: profiles do not agree after reversal")

    big_sphere = profile_spin_sphere(62500, 57600)
    big_circle = profile_spin_circle(0, 70, 5899)
    if big_sphere.s_triple != big_circle.s_triple or not same_invariants(big_sphere, big_circle):
        failures.append("(e) the order-4900 pair disagrees")
    _report(5, "natural diffeomorphism laws", failures)


def test_criterion_06_auxiliary_choice_and_symmetry_laws():
    """(a) The (m, n)-independence of both circle families: every shifted
    admissible pair (j in [-5, 5]) yields the identical profile, on the
    documented sub-grid |a|, |b| <= 12, |t| <= 4.
    (b) Swap law circle(t, a, b) = circle(t, b, a) and (c) the negation
    laws — circle(t, -a, -b) reverses; spin-circle(t, -a, b) preserves and
    spin-circle(t, a, -b) reverses — on the full grid |a|, |b| <= 50,
    |t| <= 10 (profiles cached per t)."""
    failures: list[str] = []

    small_pairs = [
        (a, b)
        for a in range(-12, 13)
        for b in range(-12, 13)
        if math.gcd(a, b) == 1
    ]
    checked_mn = 0
    for t in range(-4, 5):
        for a, b in small_pairs:
            try:
                base_c = profile_circle(t, a, b)
            except DegenerateOrder:
                base_c = None
            if base_c is not None:
                m, n = choose_mn(Family.CIRCLE, a, b)
                for j in range(-5, 6):
                    got = _circle_profile(t, a, b, m + b * j, n + a * j)
                    checked_mn += 1
                    if got != base_c:
                        failures.append(f"(a) circle t={t}, a={a}, b={b}, j={j} differs")
            try:
                base_s = profile_spin_circle(t, a, b)
            except DegenerateOrder:
                base_s = None
            if base_s is not None:
                m, n = choose_mn(Family.SPIN_CIRCLE, a, b)
                for j in range(-5, 6):
                    m2, n2 = m + b * j, n - a * j
                    if b % 2 == 1 and m2 % 2 == 0:
                        continue
                    got = _spin_circle_profile(t, a, b, m2, n2)
                    checked_mn += 1
                    if got != base_s:
                        failures.append(f"(a) spin t={t}, a={a}, b={b}, j={j} differs")
    if checked_mn < 50_000:
        failures.append(f"(a) only {checked_mn} shifted pairs checked")

    big_pairs = [
        (a, b)
        for a in range(-50, 51)
        for b in range(-50, 51)
        if math.gcd(a, b) == 1
    ]
    checked_laws = 0
    for t in range(-10, 11):
        circle_cache: dict[tuple[int, int], object] = {}
        spin_cache: dict[tuple[int, int], object] = {}
        for a, b in big_pairs:
            try:
                circle_cache[(a, b)] = profile_circle(t, a, b)
            except DegenerateOrder:
                pass
            try:
                spin_cache[(a, b)] = profile_spin_circle(t, a, b)
            except DegenerateOrder:
                pass
        for (a, b), p in circle_cache.items():
            if (b, a) >= (a, b) and circle_cache.get((b, a)) != p:
                failures.append(f"(b) circle t={t}: ({a},{b}) vs ({b},{a}) differ")
            if circle_cache.get((-a, -b)) != reversed_profile(p):
                failures.append(f"(c) circle t={t}: ({a},{b}) negation law fails")
            checked_laws += 1
        for (a, b), p in spin_cache.items():
            if spin_cache.get((-a, b)) != p:
                failures.append(f"(c) spin t={t}: ({a},{b}) vs (-a,b) differ")
            if spin_cache.get((a, -b)) != reversed_profile(p):
                failures.append(f"(c) spin t={t}: ({a},{b}) vs (a,-b) differ")
            checked_laws += 1
    if checked_laws < 200_000:
        failures.append(f"(b)/(c) only {checked_laws} profiles checked")
    _report(6, "auxiliary-choice and symmetry laws", failures)


def test_criterion_07_sphere_s3_relation():
    """s3 = 4*s2 + 1/(2r) mod 1 for every S_{a,a-r} with 1 <= r <= 100 and
    |a| <= 200."""
    failures: list[str] = []
    for a in range(-200, 201):
        for r in range(1, 101):
            p = profile_sphere(a, a - r)
            if p.s3 != mod_one(4 * p.s2 + F(1, 2 * r)):
                failures.append(f"a={a}, r={r}: s3 relation fails")
    _report(7, "sphere-bundle s3 relation", failures)


def test_criterion_08_congruence_oracle_equivalence():
    """The closed-form congruences agree with direct invariant comparison
    for every pair S_{a,a-r}, S_{a',a'-r} (and the spin family) with
    |a|, |a'| <= 300 and 1 <= r <= 50, in both orientations.

    The direct side replicates the decision procedure exactly: triple
    equality (diffeomorphism), (28*s1, s2, s3) equality (homeomorphism),
    the same after negation, with the reversing cases additionally gated
    by linking-class compatibility (which within one family depends only
    on r).  Triples are interned to integers so the 18 million pair
    comparisons stay fast; a strided sub-sample is re-verified against
    ks_diffeomorphic / ks_homeomorphic literally."""
    failures: list[str] = []
    span = range(-300, 301)
    sample_count = 0
    for spin in (False, True):
        family_profile = profile_spin_sphere if spin else profile_sphere
        for r in range(1, 51):
            profiles = [family_profile(a, a - r) for a in span]
            rev_ok = lk_compatible(profiles[0].lk, reversed_profile(profiles[0]).lk)
            intern: dict[tuple, int] = {}

            def _id(triple: tuple) -> int:
                return intern.setdefault(triple, len(intern))

            data = []
            for p in profiles:
                d = p.s_triple
                h = (mod_one(28 * p.s1), p.s2, p.s3)
                nd = tuple(mod_one(-x) for x in d)
                nh = tuple(mod_one(-x) for x in h)
                data.append((_id(d), _id(h), _id(nd), _id(nh)))
            classify = sphere_congruence_classify
            for i, a in enumerate(span):
                da, ha, nda, nha = data[i]
                b = a - r
                for j in range(i, 601):
                    a2 = a + (j - i)
                    rep = classify(a, b, a2, a2 - r, spin)
                    db, hb, ndb, nhb = data[j]
                    if (
                        rep.diffeo_preserving != (da == db)
                        or rep.homeo_preserving != (ha == hb)
                        or rep.diffeo_reversing != ((da == ndb) and rev_ok)
                        or rep.homeo_reversing != ((ha == nhb) and rev_ok)
                    ):
                        failures.append(f"spin={spin}, r={r}, a={a}, a'={a2}: disagreement")
                    if (i * 601 + j) % 9973 == 0:
                        p, q = profiles[i], profiles[j]
                        diffeo = ks_diffeomorphic(p, q)
                        homeo = ks_homeomorphic(p, q)
                        direct_diffeo = (
                            Orientation.PRESERVING
                            if da == db
                            else Orientation.REVERSING
                            if (da == ndb) and rev_ok
                            else None
                        )
                        direct_homeo = (
                            Orientation.PRESERVING
                            if ha == hb
                            else Orientation.REVERSING
                            if (ha == nhb) and rev_ok
                            else None
                        )
                        sample_count += 1
                        if diffeo is not direct_diffeo or homeo is not direct_homeo:
                            failures.append(
                                f"spin={spin}, r={r}, a={a}, a'={a2}: interned oracle "
                                "disagrees with the decision procedure"
                            )
    if sample_count < 1500:
        failures.append(f"only {sample_count} pairs re-verified against the decision procedure")
    _report(8, "congruence oracle equivalence", failures)


def test_criterion_09_parameter_symmetry_and_enumeration():
    """Invariance of (r, p1, |s| mod r, linking pair, freeness, curvature)
    under parameter permutations, common shifts, negation, and swap, on
    10^4 seeded random samples; and every enumerated positively curved
    space (bound 10) is free, positively curved, of odd order, with
    gcd(s, r) = 1."""
    failures: list[str] = []
    rng = random.Random(20260815)
    sampled = 0
    for _ in range(10_000):
        k = (rng.randint(-40, 40), rng.randint(-40, 40), rng.randint(-40, 40))
        l0, l1 = rng.randint(-40, 40), rng.randint(-40, 40)
        l = (l0, l1, sum(k) - l0 - l1)
        space = EschenburgSpace(k, l)
        try:
            base = invariants(space)
        except DegenerateOrder:
            continue
        sampled += 1
        pk = rng.sample(range(3), 3)
        pl = rng.sample(range(3), 3)
        c = rng.randint(-6, 6)
        transforms = [
            EschenburgSpace(tuple(k[i] for i in pk), tuple(l[i] for i in pl)),
            EschenburgSpace(tuple(v + c for v in k), tuple(v + c for v in l)),
            EschenburgSpace(tuple(-v for v in k), tuple(-v for v in l)),
            EschenburgSpace(l, k),
        ]
        for other in transforms:
            inv = invariants(other)
            ok = (
                inv.r == base.r
                and inv.p1 == base.p1
                and inv.free == base.free
                and inv.positively_curved == base.positively_curved
                and inv.s_signed % base.r in {base.s_signed % base.r, -base.s_signed % base.r}
                and inv.lk_pair == base.lk_pair
            )
            if not ok:
                failures.append(f"k={k}, l={l} vs {other.k}, {other.l}: invariants moved")
    if sampled < 9000:
        failures.append(f"only {sampled} non-degenerate samples drawn")

    spaces = enumerate_positively_curved(10)
    if not spaces:
        failures.append("enumeration at bound 10 is empty")
    for space in spaces:
        inv = invariants(space)
        if not (inv.free and inv.positively_curved and inv.r % 2 == 1):
            failures.append(f"{eschenburg_descriptor(space)}: enumeration postcondition fails")
        if math.gcd(inv.s_signed, inv.r) != 1:
            failures.append(f"{eschenburg_descriptor(space)}: gcd(s, r) != 1")
    _report(9, "parameter-symmetry invariance and enumeration", failures)


def test_criterion_10_parity_exclusions():
    """No diffeomorphism between the even-order torus-reducible sphere
    bundles (q1 + q2 odd, q <= 30) and any odd-order catalog, Aloff-Wallach
    (circle t=1), or t=0 spin-circle profile; and none between the
    Aloff-Wallach profiles (p1 = 0) and the t=0 spin-circle family with
    even second parameter (p1 = 12 b^2 != 0), matched with the pi4 gate
    released so the comparison reaches the s-values."""
    failures: list[str] = []

    chen_entries = []
    for q1 in range(1, 31):
        for q2 in range(1, 31):
            if (q1 + q2) % 2 == 1:
                prof = profile(chen_bundle(ChenParams(q1, q2)))
                if prof.r % 2 != 0 or prof.r != q1 * q2:
                    failures.append(f"chen({q1},{q2}): order {prof.r} not the even q1*q2")
                chen_entries.append((f"chen:{q1},{q2}", prof))

    odd_entries = list(fixture_entries(load_fixtures()))
    aloff_entries = []
    for a in range(1, 13):
        for b in range(1, 13):
            if math.gcd(a, b) == 1:
                prof = profile_circle(1, a, b)
                aloff_entries.append((f"circle:1,{a},{b}", prof))
                if prof.p1.value != 0:
                    failures.append(f"circle:1,{a},{b}: p1 {prof.p1} != 0")
    odd_entries.extend(aloff_entries)
    for a in range(1, 16, 2):
        for b in range(1, 16):
            if math.gcd(a, b) == 1 and a > 1:
                odd_entries.append((f"spin-circle:0,{a},{b}", profile_spin_circle(0, a, b)))
    for name, prof in odd_entries:
        if prof.r % 2 != 1:
            failures.append(f"{name}: expected odd order, got {prof.r}")

    first = match_all(build_index(chen_entries), build_index(odd_entries))
    if first:
        failures.append(f"{len(first)} even-vs-odd matches found, e.g. {first[0]}")

    second_right = []
    for a in range(1, 16):
        for b in range(1, 16):
            if math.gcd(a, 2 * b) == 1 and a > 1:
                prof = profile_spin_circle(0, a, 2 * b)
                if prof.p1.value == 0:
                    failures.append(f"spin-circle:0,{a},{2 * b}: p1 unexpectedly 0")
                second_right.append((f"spin-circle:0,{a},{2 * b}", prof))
    second = match_all(
        build_index(aloff_entries), build_index(second_right), require_pi4_compat=False
    )
    if second:
        failures.append(f"{len(second)} Aloff-Wallach vs t=0 spin matches, e.g. {second[0]}")
    _report(10, "parity exclusions", failures)
