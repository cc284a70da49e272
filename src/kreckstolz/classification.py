"""Decision procedures on invariant profiles.

This module answers the classification questions: exact orientation-aware
diffeomorphism and homeomorphism tests, the partial homotopy classification,
closed-form congruences for the sphere-bundle families, a solver expressing
which sphere bundles S_{a,a-r} carry a prescribed set of invariants, and
helpers for two families of Einstein manifolds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from math import isqrt
from typing import Callable, NamedTuple, Optional, Union

from .bundle_families import BundleSpec, Family, profile_sphere
from .errors import (
    CongruenceFailure,
    DivisibilityFailure,
    DomainError,
    MismatchedOrder,
    ParityFailure,
    WrongFamily,
)
from .exact_arith import ResidueClass, excerpt, mod_one, require_instance, require_ints
from .profiles import (
    CohomologyType,
    InvariantProfile,
    Pi4,
    lk_compatible,
    pi4_compatible,
    reversed_profile,
)

__all__ = [
    "ChenParams",
    "EdiffeoProblem",
    "EdiffeoSolution",
    "HomotopyVerdict",
    "Orientation",
    "SphereCongruences",
    "TorusReduction",
    "chen_bundle",
    "ediffeo_solve",
    "einstein_congruence",
    "kruggel_homotopy",
    "ks_diffeomorphic",
    "ks_homeomorphic",
    "sphere_congruence_classify",
    "torus_reduction",
]


class Orientation(Enum):
    """Orientation behaviour of an identification between two spaces."""

    PRESERVING = "preserving"
    REVERSING = "reversing"


class HomotopyVerdict(Enum):
    """Outcome of the partial homotopy classification."""

    EQUIVALENT = "equivalent"
    NOT_EQUIVALENT = "not-equivalent"
    UNDETERMINED = "undetermined"


# ---------------------------------------------------------------------------
# Diffeomorphism and homeomorphism.
# ---------------------------------------------------------------------------


def _require_profiles(p: object, q: object) -> None:
    require_instance(p, InvariantProfile, "p")
    require_instance(q, InvariantProfile, "q")


def _decide(
    p: InvariantProfile,
    q: InvariantProfile,
    project: Callable[[InvariantProfile], tuple],
) -> Optional[Orientation]:
    """Compare projected invariants and linking classes in both orientations.

    An identification needs pi4 data that do not conflict and equal
    cohomology type and order.  Preserving is tried first and wins when
    both hold; the reversal of q is built only when the preserving
    comparison fails.  The linking classes are compared up to the sign
    ambiguity a candidate set carries.
    """
    _require_profiles(p, q)
    if not pi4_compatible(p.pi4, q.pi4) or p.cohomology_type is not q.cohomology_type or p.r != q.r:
        return None
    target = project(p)
    if target == project(q) and lk_compatible(p.lk, q.lk):
        return Orientation.PRESERVING
    q = reversed_profile(q)
    if target == project(q) and lk_compatible(p.lk, q.lk):
        return Orientation.REVERSING
    return None


def ks_diffeomorphic(
    p: InvariantProfile, q: InvariantProfile
) -> Optional[Orientation]:
    """Orientation of a diffeomorphism between the two spaces, if any.

    Two spaces of the same cohomology type and order are orientation
    preserving diffeomorphic exactly when all three s-invariants agree
    modulo 1, and orientation reversing diffeomorphic exactly when they
    agree after a sign flip.  Preserving is reported when both hold.  A
    proven pi4 conflict rules an identification out; an open pi4 never
    blocks.
    """
    return _decide(p, q, lambda pr: pr.s_triple)


def ks_homeomorphic(
    p: InvariantProfile, q: InvariantProfile
) -> Optional[Orientation]:
    """Orientation of a homeomorphism, using (28·s1, s2, s3) modulo 1."""
    return _decide(p, q, lambda pr: (mod_one(28 * pr.s1), pr.s2, pr.s3))


# ---------------------------------------------------------------------------
# Homotopy classification (three decided cases).
# ---------------------------------------------------------------------------


def kruggel_homotopy(p: InvariantProfile, q: InvariantProfile) -> HomotopyVerdict:
    """Orientation-preserving homotopy equivalence, where it is decided.

    Decided cases: type E (spin), odd order, pi4 proven trivial on both
    sides (linking classes and 2r·s2 decide); type E, odd order, pi4
    proven Z/2 on both sides (linking classes and r·s2 decide); type Ebar
    (not spin) with order divisible by 24 (linking classes and p1 mod 24
    decide).  Everything else — including any open pi4 and every type-E
    pair of even order — is undetermined.  Unequal orders or a proven pi4
    conflict are definite obstructions.
    """
    _require_profiles(p, q)
    if p.r != q.r or not pi4_compatible(p.pi4, q.pi4):
        return HomotopyVerdict.NOT_EQUIVALENT
    if p.cohomology_type is not q.cohomology_type:
        return HomotopyVerdict.UNDETERMINED
    r = p.r
    if p.cohomology_type is CohomologyType.EBAR and r % 24 == 0:
        p_datum, q_datum = p.p1.value % 24, q.p1.value % 24
    elif p.cohomology_type is CohomologyType.E and p.pi4 is q.pi4 is not Pi4.UNKNOWN and r % 2 == 1:
        scale = 2 * r if p.pi4 is Pi4.ZERO else r
        p_datum, q_datum = mod_one(scale * p.s2), mod_one(scale * q.s2)
    else:
        return HomotopyVerdict.UNDETERMINED
    agree = lk_compatible(p.lk, q.lk) and p_datum == q_datum
    return HomotopyVerdict.EQUIVALENT if agree else HomotopyVerdict.NOT_EQUIVALENT


# ---------------------------------------------------------------------------
# Closed-form congruences for the sphere-bundle families.
# ---------------------------------------------------------------------------


class SphereCongruences(NamedTuple):
    """The four relations between S_{a,b} and S_{a',b'} of equal order."""

    homeo_preserving: bool
    diffeo_preserving: bool
    homeo_reversing: bool
    diffeo_reversing: bool


def sphere_congruence_classify(
    a: int, b: int, a2: int, b2: int, spin: bool = False
) -> SphereCongruences:
    """Evaluate the classification congruences between two sphere bundles.

    Requires a - b = a2 - b2 > 0 (the congruences compare bundles of equal
    order in their standard orientations).  Orientation-reversing relations
    exist only for order 1 (non-spin) and orders 1 and 2 (spin); for larger
    orders they are reported False.  The reversing diffeomorphism clause
    includes the reversing homeomorphism congruence: a diffeomorphism is in
    particular a homeomorphism, and the bare product congruence alone admits
    pairs (such as a=0, a'=7 at order 1, non-spin) that fail it.
    """
    require_ints(a=a, b=b, a2=a2, b2=b2)
    require_instance(spin, bool, "spin")
    r = a - b
    if r != a2 - b2 or r < 1:
        raise MismatchedOrder(
            f"the congruences require equal positive order, got {a - b} and {a2 - b2}"
        )
    if spin:
        hp = (a - a2) % (6 * r) == 0
        dp = hp and ((a - a2) * (3 * (a + a2) - 3 * r + 1)) % (168 * r) == 0
        hr1 = r == 1 and (a + a2 - 2) % 6 == 0
        hr2 = r == 2 and (a + a2 - 3) % 12 == 0
        dr = (hr1 and (a * (3 * a - 2) + a2 * (3 * a2 - 2) - 2) % 168 == 0) or (
            hr2 and (a * (3 * a - 5) + a2 * (3 * a2 - 5)) % 336 == 0
        )
        return SphereCongruences(hp, dp, hr1 or hr2, dr)
    hp = (a - a2) % (12 * r) == 0
    dp = hp and ((a - a2) * (a + a2 - r + 2)) % (56 * r) == 0
    hr = r == 1 and (a + a2) % 12 == 0
    dr = hr and (a * (a + 1) + a2 * (a2 + 1)) % 56 == 0
    return SphereCongruences(hp, dp, hr, dr)


# ---------------------------------------------------------------------------
# Which sphere bundles carry prescribed invariants.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EdiffeoProblem:
    """Invariants (s1, s2, s3) of a space of order r, in solver form.

    The derived integers e1 = 224r·s1, e2 = 24r·s2, e3 = 6r·s3 exist exactly
    when the denominators of the s-values divide the stated weights times r;
    otherwise no sphere bundle can carry these invariants and construction
    fails.  r is an int and the s-values are ints or Fractions, kept as
    given (text goes through exact_arith.read_fraction first); any rational
    representatives will do: the e-values depend on the representatives,
    the solution set does not.
    """

    r: int
    s1: Fraction
    s2: Fraction
    s3: Fraction
    e1: int = field(init=False)
    e2: int = field(init=False)
    e3: int = field(init=False)

    def __post_init__(self) -> None:
        if not isinstance(self.r, int) or isinstance(self.r, bool) or self.r < 1:
            raise DomainError(f"order must be a positive integer, got {excerpt(self.r)}")
        for i, weight, value in ((1, 224, self.s1), (2, 24, self.s2), (3, 6, self.s3)):
            if not isinstance(value, (int, Fraction)) or isinstance(value, bool):
                raise DomainError(f"s{i} must be an int or a Fraction, got {excerpt(value)}")
            scaled = weight * self.r * value
            if scaled.denominator != 1:
                raise DivisibilityFailure(
                    f"{weight}·{self.r}·({value}) is not an integer; "
                    f"the denominator must divide {weight}·r"
                )
            object.__setattr__(self, f"e{i}", scaled.numerator)


@dataclass(frozen=True)
class EdiffeoSolution:
    """All sphere bundles S_{a,a-r} carrying the prescribed invariants.

    residues: the classes of a modulo 168r, one per solution family.
    witness_roots: for each residue, the admissible square root of smallest
    absolute signed representative modulo 224r that produces it.
    admissible_roots: every square root passing the admissibility congruence
    (distinct admissible roots may collapse to the same residue).
    """

    residues: tuple[ResidueClass, ...]
    orientation: Orientation
    witness_roots: tuple[int, ...]
    admissible_roots: tuple[int, ...]


def ediffeo_solve(
    problem: EdiffeoProblem, orientation: Orientation = Orientation.PRESERVING
) -> EdiffeoSolution:
    """Solve for the sphere bundles S_{a,a-r} carrying the given invariants.

    The reversing variant runs the identical procedure on the negated
    invariants and labels its results as orientation-reversing
    identifications.  With u = 2a - r + 2, the bundle S_{a,a-r} has
    e1 = u^2 - r mod 224r, e2 = 1 - u mod 24r and e3 = 4 - u mod 6r, so u
    has the parity of r and e3 - e2 = 3 mod 6r.  Raises ParityFailure
    when e1, e2 + r + 1 and e3 + r are not all even (for odd r: e1, e2 and
    e3 + 1; for even r: e1, e2 + 1 and e3), CongruenceFailure when
    e3 - e2 - 3 is not divisible by 6r (for odd r the parities make this
    divisibility by 3r, and the message names 3r); when no square root
    is admissible the residue set is empty.  Every returned residue
    round-trips: the bundle's s-invariants equal the (possibly negated)
    inputs modulo 1.

    The admissible roots are the s in [0, 224r) with s^2 = r + e1 mod 224r
    and s = 1 - e2 mod 8r.  No factorization is needed to list them: 8r
    divides 224r with quotient 28, so the second congruence leaves exactly
    the 28 lifts c, c + 8r, ..., c + 27·8r of c = (1 - e2) mod 8r, in
    ascending order, and testing the first congruence on each finds every
    admissible root.
    """
    require_instance(problem, EdiffeoProblem, "problem")
    require_instance(orientation, Orientation, "orientation")
    if orientation is Orientation.REVERSING:
        base = EdiffeoProblem(problem.r, -problem.s1, -problem.s2, -problem.s3)
    else:
        base = problem
    r = base.r
    odd = r % 2
    e2_name, e2_even = ("e2", base.e2) if odd else ("e2 + 1", base.e2 + 1)
    e3_name, e3_even = ("e3 + 1", base.e3 + 1) if odd else ("e3", base.e3)
    if base.e1 % 2 or e2_even % 2 or e3_even % 2:
        raise ParityFailure(
            f"e1 = {base.e1}, {e2_name} = {e2_even} and {e3_name} = {e3_even} "
            "must all be even"
        )
    step, label = (3 * r, "3r") if odd else (6 * r, "6r")
    if (base.e3 - base.e2 - 3) % step:
        raise CongruenceFailure(
            f"e3 - e2 - 3 = {base.e3 - base.e2 - 3} is not divisible by {label} = {step}"
        )
    modulus = 224 * r
    lifts = range((1 - base.e2) % (8 * r), modulus, 8 * r)
    admissible = tuple(s for s in lifts if (s * s - r - base.e1) % modulus == 0)
    witness: dict[int, tuple[int, int]] = {}
    for s in admissible:
        residue = ((r + 15 * s) // 2 + 7 * base.e2 - 8) % (168 * r)
        signed = s - modulus if 2 * s > modulus else s
        held = witness.get(residue)
        if held is None or abs(signed) < abs(held[1]):
            witness[residue] = (s, signed)
    target = (mod_one(base.s1), mod_one(base.s2), mod_one(base.s3))
    for residue in witness:
        if profile_sphere(residue, residue - r).s_triple != target:
            raise AssertionError(f"residue {residue} mod {168 * r} does not round-trip")
    return EdiffeoSolution(
        residues=tuple(ResidueClass(a, 168 * r) for a in sorted(witness)),
        orientation=orientation,
        witness_roots=tuple(sorted(s for s, _ in witness.values())),
        admissible_roots=admissible,
    )


# ---------------------------------------------------------------------------
# Einstein families.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChenParams:
    """Parameters (q1, q2) of a bi-quotient Einstein manifold C_{q1,q2}."""

    q1: int
    q2: int

    def __post_init__(self) -> None:
        require_ints(q1=self.q1, q2=self.q2)
        if self.q1 == 0 or self.q2 == 0:
            raise DomainError("both parameters must be nonzero")

    @property
    def order(self) -> int:
        return self.q1 * self.q2


def chen_bundle(params: ChenParams) -> BundleSpec:
    """The sphere bundle underlying C_{q1,q2}.

    For odd q1 + q2 the total space is the non-spin bundle with
    4a + 1 = (q1+q2)^2 and 4b + 1 = (q1-q2)^2; for even q1 + q2 the spin
    bundle with 4a = (q1+q2)^2 and 4b = (q1-q2)^2.  In both cases the
    order is a - b = q1·q2 and the structure group reduces to a 2-torus.
    """
    require_instance(params, ChenParams, "params")
    total, diff = params.q1 + params.q2, params.q1 - params.q2
    if total % 2:
        return BundleSpec(Family.SPHERE, (total**2 - 1) // 4, (diff**2 - 1) // 4)
    return BundleSpec(Family.SPIN_SPHERE, total**2 // 4, diff**2 // 4)


_LensParams = tuple[int, int]


def einstein_congruence(
    kind: str,
    params: Union[ChenParams, _LensParams],
    params2: Union[ChenParams, _LensParams],
) -> bool:
    """Sufficient diffeomorphism congruence within an Einstein family.

    kind "L": params are pairs (a, b) describing L_{a,b}; two members with
    the same a != 0 are diffeomorphic when b ≡ b' mod 56·a^2.
    kind "C": params are ChenParams; two members with the
    same order q1·q2 and the same parity of q1 + q2 are diffeomorphic when
    q1^2 + q2^2 ≡ q1'^2 + q2'^2 mod 672·|q1·q2|.
    Both congruences are sufficient, not necessary: members may also be
    identified under finer relations the congruence does not certify.
    Raises MismatchedOrder when the comparison does not apply.
    """
    if kind == "L":
        for x in (params, params2):
            if not (isinstance(x, tuple) and len(x) == 2):
                raise DomainError(f"L-family parameters must be pairs (a, b), got {excerpt(x)}")
        (a, b), (a2, b2) = params, params2
        require_ints(a=a, b=b, a2=a2, b2=b2)
        if a != a2 or a == 0:
            raise MismatchedOrder(
                f"L-family comparison requires equal nonzero first parameter, "
                f"got {a} and {a2}"
            )
        return (b - b2) % (56 * a * a) == 0
    if kind == "C":
        p, q = params, params2
        for x in (p, q):
            if not isinstance(x, ChenParams):
                raise DomainError(f"C-family parameters must be ChenParams, got {excerpt(x)}")
        if p.order != q.order:
            raise MismatchedOrder(
                f"C-family comparison requires equal q1·q2, got {p.order} and {q.order}"
            )
        if (p.q1 + p.q2 - q.q1 - q.q2) % 2:
            raise MismatchedOrder(
                "C-family comparison requires equal parity of q1 + q2 "
                "(the two members lie in different bundle families)"
            )
        return (p.q1**2 + p.q2**2 - q.q1**2 - q.q2**2) % (672 * abs(p.order)) == 0
    raise DomainError(f"unknown Einstein family {excerpt(kind)}; expected 'L' or 'C'")


# ---------------------------------------------------------------------------
# Structure-group reductions of the sphere bundles.
# ---------------------------------------------------------------------------


class TorusReduction(NamedTuple):
    """Whether a sphere bundle's structure group reduces to U(2) or T^2."""

    reduces_to_U2: bool
    reduces_to_T2: bool


def _is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


def torus_reduction(spec: BundleSpec) -> TorusReduction:
    """Structure-group reductions of S_{a,b} or its spin companion.

    The group reduces to U(2) exactly when 4b + 1 (non-spin) or 4b (spin)
    is a perfect square, and to the 2-torus exactly when 4a + 1 and 4b + 1
    (non-spin) or 4a and 4b (spin) are both perfect squares.
    """
    require_instance(spec, BundleSpec, "spec")
    if spec.family is Family.SPHERE:
        p_minus, p_plus = 4 * spec.a + 1, 4 * spec.b + 1
    elif spec.family is Family.SPIN_SPHERE:
        p_minus, p_plus = 4 * spec.a, 4 * spec.b
    else:
        raise WrongFamily(
            f"structure-group reduction applies to sphere bundles, "
            f"not {excerpt(spec.family.value)}"
        )
    u2 = _is_square(p_plus)
    return TorusReduction(u2, u2 and _is_square(p_minus))
