"""Seeded request generators for the benchmark workloads.

Every workload is a closed loop with one client that replays one *round*
of `kreckstolz` command lines, in order, until the measuring time is up.
A round is built from the seed alone.  The parameters that set a
request's cost (orders, grid sizes, the mix of request kinds) form a
fixed multiset per workload, and the seed chooses the rest: period
starts, bundle parameters, catalog pairs, output formats and request
order.  Whole rounds are timed, so medians and rates do not depend on
where the clock happened to stop.

Each request carries the facts its output is checked against (see
checks.py).  Those facts come from the catalog data and closed-form
formulas, never from running the program.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

FORMATS = ("text", "tsv", "json")

# The orders of catalog table A up to 300 (TABLE_A in the program).
TABLE_A_ORDERS = (41, 127, 233, 289)

# Odd orders near 10**6 and below with many odd prime factors; these give
# the residue solver its largest root sets.
COMPOSITE_ORDERS = (255255, 285285, 373065, 440895, 692835, 765765, 969969)
# (r, a0) whose triple leaves 14 admissible square roots, each solve about
# 9 ms at this commit: the slowest requests of cli_mix.  24 of them per
# round put its p99 inside one class of equal cost.
HEAVY_COMPOSITES = ((969969, 372196), (440895, 326528), (440895, 997765), (440895, 965824))

# The fixed command lines named in ROADMAP.md that cost milliseconds.  The
# match and enumerate cases run in grid_index and enumerate instead.
W_3 = ("--s1", "1/112", "--s2=-1/36", "--s3", "1/18")
W_19513 = ("--s1=-5/14", "--s2=-204887/234156", "--s3=-58543/117078")


@dataclass(frozen=True)
class Request:
    """One command line plus what its output must satisfy."""

    kind: str
    argv: tuple[str, ...]
    expect: dict = field(default_factory=dict, compare=False)


@dataclass(frozen=True)
class Catalog:
    """What the generators need from the fixture catalog.

    `descriptors` names each catalog space once; `table_a` holds
    (descriptor, r, tabulated residues) and `table_b` holds
    (descriptor, partner circle bundle) for the catalog tables.
    """

    descriptors: tuple[str, ...]
    table_a: tuple[tuple[str, int, tuple[int, ...]], ...]
    table_b: tuple[tuple[str, str], ...]


def catalog_from_library(fixtures, table_a, table_b) -> Catalog:
    def descriptor(k, l):
        return "eschenburg:" + ",".join(map(str, k)) + "|" + ",".join(map(str, l))

    seen = []
    for fx in fixtures:
        d = descriptor(fx.space.k, fx.space.l)
        if d not in seen:
            seen.append(d)
    return Catalog(
        descriptors=tuple(seen),
        table_a=tuple((descriptor(row.k, row.l), row.r, row.residues) for row in table_a),
        table_b=tuple(
            (descriptor(row.k, row.l), "circle:%d,%d,%d" % (row.bundle[2], row.bundle[0], row.bundle[1]))
            for row in table_b
        ),
    )


def _fmt(argv, fmt):
    return tuple(argv) + ("--format", fmt)


# ---------------------------------------------------------------------------
# Closed-form sphere-bundle s-values (the formulas of the source paper, as
# documented for profile_sphere); used to pose ediffeo problems.
# ---------------------------------------------------------------------------


def sphere_s_values(a: int, b: int) -> tuple[Fraction, Fraction, Fraction]:
    d = a - b
    return (
        Fraction((a + b + 2) ** 2 - abs(d), 224 * d) % 1,
        Fraction(-(a + b + 1), 24 * d) % 1,
        Fraction(-(a + b - 2), 6 * d) % 1,
    )


def _ediffeo_argv(r, s, fmt):
    return _fmt(("ediffeo", "-r", str(r), f"--s1={s[0]}", f"--s2={s[1]}", f"--s3={s[2]}"), fmt)


# ---------------------------------------------------------------------------
# grid_index: the catalog against whole sphere periods and circle grids.
# ---------------------------------------------------------------------------


def _period(rng, r):
    start = rng.randrange(-4 * 168 * r, 4 * 168 * r)
    return start, f"sphere:r={r},start={start},stop={start + 168 * r}"


def grid_index(seed: int, smoke: bool = False) -> list[Request]:
    rng = random.Random(f"grid_index/{seed}")
    orders = [41] if smoke else list(TABLE_A_ORDERS) + [rng.randrange(61, 72, 2)]
    circles = [(17, 120)] if smoke else [(17, 700), (25, rng.randrange(621, 630)), (41, rng.randrange(612, 621))]
    requests = []
    for r in orders:
        start, source = _period(rng, r)
        argv = _fmt(("match", "--left", "fixtures", "--right", source), rng.choice(FORMATS))
        requests.append(Request("fixtures_sphere", argv, {"r": r, "start": start}))
    for r, bound in circles:
        argv = ("match", "--left", "fixtures", "--right", f"circle:r={r},bound={bound}")
        requests.append(Request("fixtures_circle", _fmt(argv, rng.choice(FORMATS)), {"r": r}))
    rng.shuffle(requests)
    return requests


# ---------------------------------------------------------------------------
# grid_match: large sources on both sides, in every output format.
# ---------------------------------------------------------------------------


def grid_match(seed: int, smoke: bool = False) -> list[Request]:
    rng = random.Random(f"grid_match/{seed}")
    # Each order keeps its format, so the largest output is the same for
    # every seed.
    period_orders = [11] if smoke else [43, 45, 47]
    circle_orders = [17] if smoke else [17, 25, 33]
    bound = 60 if smoke else 430
    requests = []
    for r, fmt in zip(period_orders, FORMATS):
        start, left = _period(rng, r)
        right = f"sphere:r={r},start={start + 168 * r},stop={start + 2 * 168 * r}"
        argv = _fmt(("match", "--left", left, "--right", right), fmt)
        requests.append(Request("sphere_sphere", argv, {"r": r, "start": start}))
    for r, fmt in zip(circle_orders, FORMATS):
        start, left = _period(rng, r)
        argv = _fmt(("match", "--left", left, "--right", f"circle:r={r},bound={bound}"), fmt)
        requests.append(Request("sphere_circle", argv, {"r": r}))
    rng.shuffle(requests)
    return requests


# ---------------------------------------------------------------------------
# enumerate: the positively curved scan over a band of bounds.
# ---------------------------------------------------------------------------

# Every bound in a band around 17 once, and 17 four more times, so that the
# median latency falls inside one class of equal cost.
ENUMERATE_BOUNDS = tuple(range(12, 23)) + (17,) * 4


def enumerate_(seed: int, smoke: bool = False) -> list[Request]:
    rng = random.Random(f"enumerate/{seed}")
    band = [6, 8, 10] if smoke else list(ENUMERATE_BOUNDS)
    rng.shuffle(band)
    return [
        Request("enumerate", _fmt(("enumerate", "--r-max", str(r)), rng.choice(FORMATS)), {"r_max": r})
        for r in band
    ]


# ---------------------------------------------------------------------------
# cli_mix: thousands of small requests of every subcommand.
# ---------------------------------------------------------------------------

# Documented bad inputs: (argv, exit code the CLI documents for them).
# `--s1 1/0` is a usage error by the CLI's contract; at this commit it
# escapes cli.run as ZeroDivisionError and is counted as failed.
BAD_INPUTS = (
    (("invariants", "foo:1"), 1),
    (("invariants", "sphere:3,3"), 1),
    (("invariants", "eschenburg:9,9,9|0,0,0"), 1),
    (("invariants", "circle:1,2,4"), 1),
    (("invariants",), 2),
    (("invariants", "--family", "sphere", "-a", "1"), 2),
    (("classify", "sphere:1,0"), 2),
    (("ediffeo", "-r", "0", "--s1", "0", "--s2", "0", "--s3", "0"), 1),
    (("ediffeo", "-r", "3", "--s1", "1/5", "--s2", "0", "--s3", "0"), 1),
    (("ediffeo", "-r", "3", "--s1", "abc", "--s2", "0", "--s3", "0"), 2),
    (("ediffeo", "-r", "3", "--s1", "1/0", "--s2", "0", "--s3", "0"), 2),
    (("enumerate", "--r-max", "0"), 1),
    (("match", "--left", "fixtures", "--right", "nowhere"), 1),
    (("match", "--left", "sphere:r=3,start=0", "--right", "fixtures"), 1),
    (("tables", "C"), 2),
)

# Requests per round for each kind.  The total and the mix are fixed; the
# seed draws the parameters.
MIX = {
    "inv_bundle": 280,
    "inv_flags": 40,
    "inv_eschenburg": 60,
    "cls_catalog": 80,
    "cls_fixtures": 20,
    "cls_natural": 120,
    "cls_random": 120,
    "ed_odd_small": 160,
    "ed_odd_large": 100,
    "ed_composite": 16,
    "ed_heavy": 24,
    "ed_even": 100,
}
SMOKE_SHARE = 20  # a smoke round keeps 1/20 of each kind


def _random_bundle(rng) -> tuple[str, tuple[int, ...], int]:
    """(family, parameters in descriptor order, r) of a valid bundle."""
    while True:
        family = rng.choice(("sphere", "spin-sphere", "circle", "spin-circle"))
        if family in ("sphere", "spin-sphere"):
            a = rng.randrange(-3000, 3000)
            b = a - rng.choice((-1, 1)) * rng.randrange(1, 1000)
            return family, (a, b), abs(a - b)
        a, b, t = rng.randrange(-80, 81), rng.randrange(-80, 81), rng.randrange(-60, 61)
        if math.gcd(a, b) != 1:
            continue
        r = abs(t * (a + b) ** 2 - a * b) if family == "circle" else abs(a * a - t * b * b)
        if r:
            return family, (t, a, b), r


def _descriptor(family, params):
    return family + ":" + ",".join(map(str, params))


def _odd(n):
    return n | 1


def cli_mix(seed: int, catalog: Catalog, smoke: bool = False) -> list[Request]:
    rng = random.Random(f"cli_mix/{seed}")
    share = SMOKE_SHARE if smoke else 1
    requests: list[Request] = []

    def add(kind, argv, fmt=None, **expect):
        requests.append(Request(kind, _fmt(argv, fmt or rng.choice(FORMATS)), expect))

    def count(kind):
        return max(1, MIX[kind] // share)

    for _ in range(count("inv_bundle")):
        family, params, r = _random_bundle(rng)
        add("inv_bundle", ("invariants", _descriptor(family, params)), r=r)
    for _ in range(count("inv_flags")):
        family, params, r = _random_bundle(rng)
        if len(params) == 3:
            flags = ("-t", str(params[0]), "-a", str(params[1]), "-b", str(params[2]))
        else:
            flags = ("-a", str(params[0]), "-b", str(params[1]))
        add("inv_flags", ("invariants", "--family", family) + flags, r=r)
    for _ in range(count("inv_eschenburg")):
        add("inv_eschenburg", ("invariants", rng.choice(catalog.descriptors)))

    for _ in range(count("cls_catalog")):
        if rng.random() < 0.7:
            space, r, residues = rng.choice(catalog.table_a)
            a = rng.choice(residues) + 168 * r * rng.randrange(-5, 6)
            partner = f"sphere:{a},{a - r}"
        else:
            space, partner = rng.choice(catalog.table_b)
        pair = (space, partner) if rng.random() < 0.5 else (partner, space)
        add("cls_catalog", ("classify",) + pair, diffeomorphic=True)
    for _ in range(count("cls_fixtures")):
        add("cls_fixtures", ("classify", rng.choice(catalog.descriptors), rng.choice(catalog.descriptors)))
    for _ in range(count("cls_natural")):
        # circle with a + b = 1 is sphere(-t, a(a-1)); spin-circle with
        # b = 1 is spin-sphere(t, a^2); both orientation preserving.
        while True:
            a, t = rng.randrange(-200, 201), rng.randrange(-5000, 5001)
            if rng.random() < 0.5:
                if t + a * (a - 1) != 0:
                    pair = (f"circle:{t},{a},{1 - a}", f"sphere:{-t},{a * (a - 1)}")
                    break
            elif a * a - t != 0:
                pair = (f"spin-circle:{t},{a},1", f"spin-sphere:{t},{a * a}")
                break
        add("cls_natural", ("classify",) + pair, diffeomorphic="preserving")
    for _ in range(count("cls_random")):
        family, params, r = _random_bundle(rng)
        if family in ("sphere", "spin-sphere") and rng.random() < 0.5:
            a = rng.randrange(-3000, 3000)
            other = _descriptor(family, (a, a - (params[0] - params[1])))
        else:
            other = _descriptor(*_random_bundle(rng)[:2])
        add("cls_random", ("classify", _descriptor(family, params), other))

    # The composite-order triples set the latency tail (their cost depends
    # on a0 through the number of square roots), so they are the same for
    # every seed; the seed picks only sign, format and position.
    composite_a0 = random.Random("cli_mix/composite")

    def ediffeo(kind, r, a0=None):
        if a0 is None:
            a0 = (composite_a0 if kind == "ed_composite" else rng).randrange(-10**6, 10**6)
        s = sphere_s_values(a0, a0 - r)
        negated = rng.random() < 0.5
        if negated:
            s = tuple(-x for x in s)
        requests.append(
            Request(kind, _ediffeo_argv(r, s, rng.choice(FORMATS)), {"a0": a0, "r": r, "negated": negated})
        )

    for _ in range(count("ed_odd_small")):
        ediffeo("ed_odd_small", _odd(rng.randrange(0, 1000)))
    for _ in range(count("ed_odd_large")):
        ediffeo("ed_odd_large", _odd(rng.randrange(1000, 10**6)))
    for i in range(count("ed_composite")):
        ediffeo("ed_composite", COMPOSITE_ORDERS[i % len(COMPOSITE_ORDERS)])
    for i in range(count("ed_heavy")):
        ediffeo("ed_heavy", *HEAVY_COMPOSITES[i % len(HEAVY_COMPOSITES)])
    for i in range(count("ed_even")):
        ediffeo("ed_even", 2 * rng.randrange(1, 500) if i % 2 else 2 * rng.randrange(500, 5 * 10**5))

    fixed_formats = FORMATS[:1] if smoke else FORMATS
    for fmt in fixed_formats:
        add("fixed", ("invariants", "sphere:2,-1"), fmt)
        add("fixed", ("classify", "eschenburg:1,1,-2|0,0,0", "circle:1,1,1"), fmt, diffeomorphic="preserving")
        add("fixed", ("ediffeo", "-r", "3") + W_3, fmt, residues={"preserving": [2, 146]})
        add("fixed", ("ediffeo", "-r", "19513") + W_19513, fmt)
        add("tables", ("tables", "A"), fmt)
        add("tables", ("tables", "B"), fmt)
    for argv, code in BAD_INPUTS:
        for _ in range(1 if smoke else 2):
            requests.append(Request("bad_input", argv, {"exit": code}))

    rng.shuffle(requests)
    return requests


# ---------------------------------------------------------------------------

WORKLOADS = ("grid_index", "grid_match", "cli_mix", "enumerate")


def build(workload: str, seed: int, catalog: Catalog, smoke: bool = False) -> list[Request]:
    """The round of requests for one workload and seed."""
    if workload == "grid_index":
        return grid_index(seed, smoke)
    if workload == "grid_match":
        return grid_match(seed, smoke)
    if workload == "cli_mix":
        return cli_mix(seed, catalog, smoke)
    if workload == "enumerate":
        return enumerate_(seed, smoke)
    raise ValueError(f"unknown workload {workload!r}")
