"""Output checks for every benchmark request.

`Checker.problems` returns what is wrong with one request's first
outcome; an empty list means the request passed.  The properties hold
for any seed:

* every `ediffeo` residue round-trips through `profile_sphere` to the
  posed triple (preserving) or to its negation (reversing), and the known
  `a0 mod 168r` of the bundle that posed the triple is found in the
  matching orientation;
* every `match` record re-verifies with `ks_diffeomorphic` on the
  profiles parsed back from its descriptors, and the catalog partners
  that lie inside a searched grid are found;
* every `enumerate` list is sorted by (r, k, l), has every r below the
  bound, and, for bounds up to 40, matches the recorded golden digest;
* smaller requests meet the verdicts their construction implies, and
  documented bad inputs exit with their documented code.

`known_defect` names a failure that is documented at the commit the
benchmark was written for; such failures are counted in `failed` but do
not make the run incorrect.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction
from typing import NamedTuple, Optional

from workloads import Request

ORIENTATIONS = ("preserving", "reversing")


class Outcome(NamedTuple):
    """What one execution of `cli.run` produced."""

    code: Optional[int]
    stdout: str
    stderr: str
    error: Optional[str]  # exception type that escaped cli.run, if any


def digest(outcome: Outcome) -> str:
    head = f"{outcome.code}|{outcome.error}\n".encode()
    return hashlib.sha256(head + outcome.stdout.encode()).hexdigest()[:16]


def _fmt(request: Request) -> str:
    argv = request.argv
    return argv[argv.index("--format") + 1] if "--format" in argv else "text"


# ---------------------------------------------------------------------------
# Parsers, one per subcommand and format.
# ---------------------------------------------------------------------------

_MATCH_TEXT = re.compile(r"^(\S+) ~ (\S+) \((preserving|reversing)\): r=(\d+), s=\(([^,]+), ([^,]+), ([^)]+)\)$")


def parse_match(fmt: str, text: str) -> list[tuple]:
    """Records as (left, right, orientation, r, s1, s2, s3)."""
    if fmt == "json":
        return [
            (d["left"], d["right"], d["orientation"], d["r"], Fraction(d["s1"]), Fraction(d["s2"]), Fraction(d["s3"]))
            for d in json.loads(text)
        ]
    if fmt == "text" and text == "no matches\n":
        return []
    records = []
    for line in text.splitlines():
        if fmt == "tsv":
            fields = line.split("\t")
            if len(fields) != 7:
                raise ValueError(f"bad tsv match line {line!r}")
        else:
            m = _MATCH_TEXT.match(line)
            if not m:
                raise ValueError(f"bad text match line {line!r}")
            fields = m.groups()
        left, right, orientation, r, s1, s2, s3 = fields
        records.append((left, right, orientation, int(r), Fraction(s1), Fraction(s2), Fraction(s3)))
    return records


def parse_ediffeo(fmt: str, text: str) -> dict:
    """orientation -> list of residues mod 168r, or the obstruction text."""
    if fmt == "json":
        payload = json.loads(text)
        return {
            o: [int(c.split()[0]) for c in payload[o]["residues"]] if payload[o]["residues"] is not None
            else payload[o]["reason"]
            for o in ORIENTATIONS
            if o in payload
        }
    result = {}
    sep = "\t" if fmt == "tsv" else ": "
    for line in text.splitlines():
        orientation, _, value = line.partition(sep)
        if value.startswith("no solution ("):
            result[orientation] = value[len("no solution (") : -1]
        else:
            result[orientation] = [int(c.split()[0]) for c in value.split(", ")] if value else []
    return result


def parse_enumerate(fmt: str, text: str) -> list[tuple[str, int]]:
    if fmt == "json":
        return [(d["space"], d["r"]) for d in json.loads(text)]
    rows = []
    for line in text.splitlines():
        if fmt == "tsv":
            space, r = line.split("\t")[:2]
        else:
            space, r_field = line.split("  ")[:2]
            r = r_field.removeprefix("r=")
        rows.append((space, int(r)))
    return rows


def parse_fields(fmt: str, text: str) -> dict:
    """Key/value output of `invariants` and `classify`."""
    if fmt == "json":
        return {k: ("none" if v is None else str(v)) for k, v in json.loads(text).items()}
    sep = "\t" if fmt == "tsv" else ": "
    return {k.replace(" ", "_"): v for k, v in (line.split(sep, 1) for line in text.splitlines())}


def _eschenburg_key(descriptor: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    k, l = descriptor[len("eschenburg:") :].split("|")
    return tuple(map(int, k.split(","))), tuple(map(int, l.split(",")))


# ---------------------------------------------------------------------------


class Checker:
    """Checks outcomes with the library's own public functions.

    Run it only while no tracing wrapper is installed.
    """

    def __init__(self, kreckstolz, enumerate_golden: dict):
        self.k = kreckstolz
        self.fixtures = kreckstolz.load_fixtures()
        self.enumerate_golden = enumerate_golden
        self._profiles: dict = {}

    # -- profiles parsed back from descriptors ------------------------------

    def _bundle_profile(self, descriptor: str):
        prof = self._profiles.get(descriptor)
        if prof is None:
            prof = self._profiles[descriptor] = self.k.profile(self.k.parse_bundle_spec(descriptor))
        return prof

    def _fixture_profiles(self, descriptor: str):
        key = _eschenburg_key(descriptor)
        return [
            self.k.fixture_profile(fx) for fx in self.fixtures if (tuple(fx.space.k), tuple(fx.space.l)) == key
        ]

    # -- per-kind checks -----------------------------------------------------

    def problems(self, request: Request, outcome: Outcome) -> list[str]:
        if request.kind == "bad_input":
            want = request.expect["exit"]
            if outcome.error is not None:
                return [f"{outcome.error} escaped cli.run (documented exit {want})"]
            return [] if outcome.code == want else [f"exit {outcome.code}, documented exit {want}"]
        if outcome.error is not None:
            return [f"{outcome.error} escaped cli.run"]
        if outcome.code != 0:
            return [f"exit {outcome.code}: {outcome.stderr.strip()[-200:]}"]
        check = getattr(self, "_check_" + request.argv[0])
        try:
            return check(request, _fmt(request), outcome.stdout)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"unparseable output: {type(exc).__name__}: {exc}"]

    def _check_match(self, request, fmt, text):
        problems = []
        records = parse_match(fmt, text)
        for left, right, orientation, r, *s in records:
            if left.startswith("eschenburg:"):
                candidates = [p for p in self._fixture_profiles(left) if list(p.s_triple) == s]
            else:
                candidates = [self._bundle_profile(left)]
            if not candidates or candidates[0].r != r or list(candidates[0].s_triple) != s:
                problems.append(f"record {left} ~ {right}: evidence does not belong to the left space")
                continue
            verdict = self.k.ks_diffeomorphic(candidates[0], self._bundle_profile(right))
            if verdict is None or verdict.value != orientation:
                problems.append(f"record {left} ~ {right} ({orientation}) re-verifies as {verdict}")
        problems.extend(self._expected_partners(request, records))
        return problems[:5]

    def _expected_partners(self, request, records):
        """Matches that the search must find, from the catalog tables."""
        r = request.expect["r"]
        found = {(left, right) for left, right, *_ in records}
        missing = []
        if request.kind == "fixtures_sphere":
            for row in self.k.TABLE_A:
                if row.r != r:
                    continue
                space = self.k.eschenburg_descriptor(self.k.EschenburgSpace(row.k, row.l))
                start = request.expect["start"]
                for residue in row.residues:
                    a = start + (residue - start) % (168 * r)
                    if (space, f"sphere:{a},{a - r}") not in found:
                        missing.append(f"table A partner sphere:{a},{a - r} of {space} not found")
        elif request.kind == "fixtures_circle":
            bound = int(request.argv[4].rsplit("=", 1)[1])
            for row in self.k.TABLE_B:
                a, b, t = row.bundle
                if row.r == r and max(abs(a), abs(b)) <= bound:
                    space = self.k.eschenburg_descriptor(self.k.EschenburgSpace(row.k, row.l))
                    if (space, f"circle:{t},{a},{b}") not in found:
                        missing.append(f"table B partner circle:{t},{a},{b} of {space} not found")
        elif request.kind == "sphere_sphere":
            # S_{a,a-r} and S_{a+168r,a+168r-r} carry equal profiles.
            start = request.expect["start"]
            shifted = {
                (left, right) for left, right, orientation, *_ in records if orientation == "preserving"
            }
            for a in range(start, start + 168 * r):
                b = a + 168 * r
                if (f"sphere:{a},{a - r}", f"sphere:{b},{b - r}") not in shifted:
                    missing.append(f"sphere:{a},{a - r} does not match its translate by 168r")
                    break
        return missing

    def _check_ediffeo(self, request, fmt, text):
        argv = request.argv
        r = int(argv[argv.index("-r") + 1])
        posed = []
        for name in ("--s1", "--s2", "--s3"):
            token = next(t for i, t in enumerate(argv) if t.startswith(name + "=") or argv[i - 1] == name)
            posed.append(Fraction(token.split("=", 1)[1] if "=" in token else token))
        answer = parse_ediffeo(fmt, text)
        problems = []
        for orientation in ORIENTATIONS:
            residues = answer.get(orientation)
            if not isinstance(residues, list):
                continue
            sign = 1 if orientation == "preserving" else -1
            target = tuple((sign * s) % 1 for s in posed)
            for a in residues:
                if self.k.profile_sphere(a, a - r).s_triple != target:
                    problems.append(f"{orientation} residue {a} mod {168 * r} does not round-trip")
        if "a0" in request.expect:
            orientation = "reversing" if request.expect["negated"] else "preserving"
            residues = answer.get(orientation)
            a0 = request.expect["a0"] % (168 * r)
            if not isinstance(residues, list) or a0 not in residues:
                problems.append(f"known bundle a0 = {a0} mod {168 * r} missing from {orientation}: {residues}")
        for orientation, wanted in request.expect.get("residues", {}).items():
            if not set(wanted) <= set(answer.get(orientation) or ()):
                problems.append(f"{orientation} misses {wanted}")
        return problems

    def _check_enumerate(self, request, fmt, text):
        r_max = request.expect["r_max"]
        rows = parse_enumerate(fmt, text)
        problems = []
        keys = [(r,) + _eschenburg_key(space) for space, r in rows]
        if keys != sorted(keys):
            problems.append("list is not sorted by (r, k, l)")
        if any(not 1 <= r < r_max for r, *_ in keys):
            problems.append(f"an entry has r outside [1, {r_max})")
        golden = self.enumerate_golden.get(str(r_max))
        if golden is not None and hashlib.sha256(text.encode()).hexdigest() != golden[fmt]:
            problems.append(f"output differs from the recorded r_max={r_max} golden ({fmt})")
        return problems

    def _check_invariants(self, request, fmt, text):
        fields = parse_fields(fmt, text)
        problems = []
        if "r" in request.expect and int(fields["r"]) != request.expect["r"]:
            problems.append(f"r = {fields['r']}, expected {request.expect['r']}")
        if not all(0 <= Fraction(fields[s]) < 1 for s in ("s1", "s2", "s3")):
            problems.append("an s-value is not reduced mod 1")
        return problems

    def _check_classify(self, request, fmt, text):
        fields = parse_fields(fmt, text)
        problems = []
        want = request.expect.get("diffeomorphic")
        got = fields["diffeomorphic"]
        if want is True and got not in ORIENTATIONS:
            problems.append("catalog partners are not diffeomorphic")
        elif isinstance(want, str) and got != want:
            problems.append(f"diffeomorphic: {got}, expected {want}")
        if got in ORIENTATIONS and fields["homeomorphic"] not in ORIENTATIONS:
            problems.append("diffeomorphic but not homeomorphic")
        return problems

    def _check_tables(self, request, fmt, text):
        if fmt == "json":
            ok = json.loads(text)["passed"] is True
        elif fmt == "tsv":
            ok = all(line.split("\t")[5] == "pass" for line in text.splitlines())
        else:
            counts = text.splitlines()[-1].split()[0].split("/")
            ok = counts[0] == counts[1]
        return [] if ok else ["a catalog row failed verification"]


def known_defect(request: Request, outcome: Outcome) -> Optional[str]:
    """The documented defect a failed request shows, if it is one."""
    argv = request.argv
    if argv[0] == "ediffeo" and outcome.code == 0 and "-r" in argv:
        r = int(argv[argv.index("-r") + 1])
        if r % 2 == 0 and outcome.stdout.count("ParityFailure") == 2:
            return "even-order ediffeo answers ParityFailure in both orientations"
    if request.kind == "bad_input" and "1/0" in argv and outcome.error == "ZeroDivisionError":
        return "ediffeo --s1 1/0 raises ZeroDivisionError out of cli.run"
    return None
