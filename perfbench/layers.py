"""Per-layer tracing from outside the program.

`Tracer.install` replaces public functions of the `kreckstolz` modules
with wrappers, in every module namespace that refers to them, so calls
between modules pass through the wrappers too.  Nothing under `src/`
changes.  Each wrapped call records a span (name, start, end, parent
span, request id) in flat in-memory arrays; a few wrappers also record
counts taken from arguments and results.  `Tracer.uninstall` puts the
original functions back.

A span's self time is its duration minus the time its direct child spans
cover.  The counts a wrapper takes after a call are charged to no span:
their time is subtracted from the parent's self time.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns

# Span name -> (module, function).  The `cli.load_fixtures` span is the
# catalog read that the CLI makes per request.
SPANNED = {
    "cli.run": ("cli", "run"),
    "cli.build_parser": ("cli", "build_parser"),
    "cli.load_fixtures": ("eschenburg", "load_fixtures"),
    "exact_arith.sqrt_mod": ("exact_arith", "sqrt_mod"),
    "exact_arith.factorize": ("exact_arith", "factorize"),
    "bundle_families.profile_sphere": ("bundle_families", "profile_sphere"),
    "bundle_families.profile_circle": ("bundle_families", "profile_circle"),
    "bundle_families.profile_spin_sphere": ("bundle_families", "profile_spin_sphere"),
    "bundle_families.profile_spin_circle": ("bundle_families", "profile_spin_circle"),
    "profiles.reversed_profile": ("profiles", "reversed_profile"),
    "eschenburg.enumerate_positively_curved": ("eschenburg", "enumerate_positively_curved"),
    "eschenburg.is_positively_curved": ("eschenburg", "is_positively_curved"),
    "eschenburg.is_free": ("eschenburg", "is_free"),
    "eschenburg.normalize": ("eschenburg", "normalize"),
    "eschenburg.invariants": ("eschenburg", "invariants"),
    "classification.ediffeo_solve": ("classification", "ediffeo_solve"),
    "classification.ks_diffeomorphic": ("classification", "ks_diffeomorphic"),
    "classification.ks_homeomorphic": ("classification", "ks_homeomorphic"),
    "classification.kruggel_homotopy": ("classification", "kruggel_homotopy"),
    "atlas_search.sphere_grid": ("atlas_search", "sphere_grid"),
    "atlas_search.circle_grid": ("atlas_search", "circle_grid"),
    "atlas_search.build_index": ("atlas_search", "build_index"),
    "atlas_search.match_all": ("atlas_search", "match_all"),
    "atlas_search.render_text": ("atlas_search", "render_matches_text"),
    "atlas_search.render_tsv": ("atlas_search", "render_matches_tsv"),
    "atlas_search.reproduce_table": ("atlas_search", "reproduce_table"),
}
# Counted without a span: too small and too frequent to time one by one.
COUNTED = {"exact_arith.mod_one": ("exact_arith", "mod_one")}

PROFILE_SPANS = tuple(f"bundle_families.profile_{f}" for f in ("sphere", "circle", "spin_sphere", "spin_circle"))

# The traced run's metrics, in BENCHMARK.json order: (name, unit).
PER_LAYER = (
    ("cli.run.self_ms", "ms"),
    ("cli.build_parser.calls", "calls/round"),
    ("cli.build_parser.us_per_call", "us"),
    ("cli.load_fixtures.calls_per_request", "calls/request"),
    ("cli.load_fixtures.us_per_call", "us"),
    ("exact_arith.sqrt_mod.calls", "calls/round"),
    ("exact_arith.sqrt_mod.us_per_call", "us"),
    ("exact_arith.sqrt_mod.roots_per_call", "roots/call"),
    ("exact_arith.factorize.us_per_call", "us"),
    ("exact_arith.mod_one.calls_per_profile", "calls/profile"),
    ("bundle_families.profile_sphere.calls", "calls/round"),
    ("bundle_families.profile_sphere.us_per_call", "us"),
    ("bundle_families.profile_circle.calls", "calls/round"),
    ("bundle_families.profile_circle.us_per_call", "us"),
    ("bundle_families.profile_spin_sphere.calls", "calls/round"),
    ("bundle_families.profile_spin_sphere.us_per_call", "us"),
    ("bundle_families.profile_spin_circle.calls", "calls/round"),
    ("bundle_families.profile_spin_circle.us_per_call", "us"),
    ("profiles.reversed_profile.calls", "calls/round"),
    ("profiles.reversed_profile.us_per_call", "us"),
    ("eschenburg.enumerate_positively_curved.self_s", "s"),
    ("eschenburg.is_positively_curved.calls", "calls/round"),
    ("eschenburg.is_free.calls", "calls/round"),
    ("eschenburg.normalize.calls", "calls/round"),
    ("eschenburg.invariants.calls", "calls/round"),
    ("eschenburg.found_per_candidate", "ratio"),
    ("classification.ediffeo_solve.us_per_call", "us"),
    ("classification.ediffeo_solve.residues_per_root", "ratio"),
    ("classification.ks_diffeomorphic.us_per_call", "us"),
    ("classification.ks_homeomorphic.us_per_call", "us"),
    ("classification.kruggel_homotopy.us_per_call", "us"),
    ("atlas_search.sphere_grid.self_s", "s"),
    ("atlas_search.circle_grid.self_s", "s"),
    ("atlas_search.circle_grid.entries_per_pair_scanned", "ratio"),
    ("atlas_search.build_index.us_per_entry", "us"),
    ("atlas_search.build_index.buckets", "count"),
    ("atlas_search.build_index.largest_bucket", "count"),
    ("atlas_search.match_all.pairs_screened", "count"),
    ("atlas_search.match_all.us_per_pair", "us"),
    ("atlas_search.match_all.matches_per_pair", "ratio"),
    ("atlas_search.render.us_per_record", "us"),
    ("atlas_search.reproduce_table.ms_per_call", "ms"),
    ("trace.requests_per_s", "1/s"),
    ("trace.overhead_requests_per_s", "1/s"),
)


class Tracer:
    """Spans and counts of one traced run.

    The wrappers are built once; `install` and `uninstall` swap them in and
    out, so traced and untraced rounds can alternate.
    """

    def __init__(self, package) -> None:
        self.names: list[str] = []
        # One entry per span, indexed by span id.
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_after = array("q")  # ns spent taking counts after the call
        self.stack: list[int] = []  # ids of the open spans
        self.request_id = -1
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.largest_bucket = 0
        self._bindings = self._wrap(package)  # (module, attribute, original, wrapper)

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, name, fn, after=None):
        name_id = len(self.names)
        self.names.append(name)
        stack = self.stack
        span_name, span_parent, span_request = self.span_name, self.span_parent, self.span_request
        span_start, span_end, span_after = self.span_start, self.span_end, self.span_after

        def wrapper(*args, **kwargs):
            span_id = len(span_start)
            span_name.append(name_id)
            span_parent.append(stack[-1] if stack else -1)
            span_request.append(self.request_id)
            span_end.append(0)
            span_after.append(0)
            stack.append(span_id)
            span_start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                end = span_end[span_id] = perf_counter_ns()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
                span_after[span_id] = perf_counter_ns() - end
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, name, fn):
        """Counts calls, and separately those made directly inside a profile constructor."""
        counts = self.counts
        stack, span_name = self.stack, self.span_name
        profile_ids = {self.names.index(n) for n in PROFILE_SPANS}

        def wrapper(*args, **kwargs):
            counts[name] += 1
            if stack and span_name[stack[-1]] in profile_ids:
                counts[name + ".in_profile"] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counts taken from arguments and results -----------------------------

    def _after_sqrt_mod(self, args, kwargs, roots):
        self.counts["sqrt_mod.roots"] += len(roots)

    def _after_ediffeo(self, args, kwargs, solution):
        self.counts["ediffeo.residues"] += len(solution.residues)
        self.counts["ediffeo.admissible_roots"] += len(solution.admissible_roots)

    def _after_circle_grid(self, args, kwargs, entries):
        bound = args[1] if len(args) > 1 else kwargs["bound"]
        self.counts["circle_grid.pairs"] += (2 * bound + 1) ** 2
        self.counts["circle_grid.entries"] += len(entries)

    def _after_build_index(self, args, kwargs, index):
        sizes = [len(entries) for entries in index.buckets.values()]
        self.counts["build_index.entries"] += sum(sizes)
        self.counts["build_index.buckets"] += len(sizes)
        self.largest_bucket = max([self.largest_bucket] + sizes)

    def _after_match_all(self, args, kwargs, records):
        left, right = args[0], args[1]
        pairs = 0
        for key, entries in left.buckets.items():
            other = right.buckets.get(key)
            if other:
                pairs += len(entries) * len(other)
        self.counts["match_all.pairs"] += pairs
        self.counts["match_all.records"] += len(records)

    def _after_render(self, args, kwargs, text):
        self.counts["render.records"] += len(args[0])

    def _after_enumerate(self, args, kwargs, spaces):
        self.counts["enumerate.found"] += len(spaces)

    # -- install / uninstall -------------------------------------------------

    def _wrap(self, package) -> list[tuple[object, str, object, object]]:
        """Wrappers for every module binding of a traced function."""
        after = {
            "exact_arith.sqrt_mod": self._after_sqrt_mod,
            "classification.ediffeo_solve": self._after_ediffeo,
            "atlas_search.circle_grid": self._after_circle_grid,
            "atlas_search.build_index": self._after_build_index,
            "atlas_search.match_all": self._after_match_all,
            "atlas_search.render_text": self._after_render,
            "atlas_search.render_tsv": self._after_render,
            "eschenburg.enumerate_positively_curved": self._after_enumerate,
        }
        modules = [m for n, m in sys.modules.items() if n.startswith(package.__name__ + ".")]
        replacements = {}
        for name, (module, attr) in SPANNED.items():
            original = getattr(sys.modules[f"{package.__name__}.{module}"], attr)
            replacements[id(original)] = (original, self._span_wrapper(name, original, after.get(name)))
        for name, (module, attr) in COUNTED.items():
            original = getattr(sys.modules[f"{package.__name__}.{module}"], attr)
            replacements[id(original)] = (original, self._count_wrapper(name, original))
        bindings = []
        for module in modules:
            for attr, value in vars(module).items():
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    bindings.append((module, attr, value, hit[1]))
        return bindings

    def install(self) -> None:
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)

    # -- results ---------------------------------------------------------------

    def totals(self) -> dict[str, list[int]]:
        """name -> [calls, total ns, self ns], from the recorded spans."""
        child = [0] * len(self.span_start)
        for i, parent in enumerate(self.span_parent):
            if parent >= 0:
                child[parent] += self.span_end[i] - self.span_start[i] + self.span_after[i]
        totals = {name: [0, 0, 0] for name in self.names}
        for i, name_id in enumerate(self.span_name):
            duration = self.span_end[i] - self.span_start[i]
            entry = totals[self.names[name_id]]
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - child[i]
        return totals

    def direct_children(self, child: str, parent: str) -> int:
        """Number of `child` spans opened directly inside a `parent` span."""
        child_id, parent_id = self.names.index(child), self.names.index(parent)
        return sum(
            1
            for i, name_id in enumerate(self.span_name)
            if name_id == child_id and self.span_parent[i] >= 0 and self.span_name[self.span_parent[i]] == parent_id
        )

    def metrics(self, rounds: int, requests: int, traced_rps: float, untraced_rps: float):
        """(metrics in PER_LAYER order, {metric: why it is absent})."""
        totals = self.totals()
        counts = self.counts
        values: dict[str, float] = {}
        absent: dict[str, str] = {}

        def calls(name):
            return totals[name][0]

        def ratio(metric, num, den, why):
            if den:
                values[metric] = num / den
            else:
                values[metric] = 0.0
                absent[metric] = why

        def per_call(metric, name, scale):
            ratio(metric, totals[name][1] / scale, calls(name), f"{name} is not called on this workload")

        def self_per_call(metric, name):
            ratio(metric, totals[name][2] / 1e9, calls(name), f"{name} is not called on this workload")

        ratio("cli.run.self_ms", totals["cli.run"][2] / 1e6, requests, "no request ran")
        for name in (
            "cli.build_parser", "exact_arith.sqrt_mod", "profiles.reversed_profile", "eschenburg.is_positively_curved",
            "eschenburg.is_free", "eschenburg.normalize", "eschenburg.invariants",
        ) + PROFILE_SPANS:
            values[f"{name}.calls"] = calls(name) / rounds
        for name in (
            "cli.build_parser", "cli.load_fixtures", "exact_arith.sqrt_mod", "exact_arith.factorize",
            "profiles.reversed_profile", "classification.ediffeo_solve", "classification.ks_diffeomorphic",
            "classification.ks_homeomorphic", "classification.kruggel_homotopy",
        ) + PROFILE_SPANS:
            per_call(f"{name}.us_per_call", name, 1e3)
        values["cli.load_fixtures.calls_per_request"] = calls("cli.load_fixtures") / requests
        ratio("exact_arith.sqrt_mod.roots_per_call", counts["sqrt_mod.roots"], calls("exact_arith.sqrt_mod"),
              "sqrt_mod is not called on this workload")
        ratio("exact_arith.mod_one.calls_per_profile", counts["exact_arith.mod_one.in_profile"],
              sum(calls(n) for n in PROFILE_SPANS), "no profile is constructed on this workload")
        self_per_call("eschenburg.enumerate_positively_curved.self_s", "eschenburg.enumerate_positively_curved")
        tests = self.direct_children("eschenburg.is_positively_curved", "eschenburg.enumerate_positively_curved")
        ratio("eschenburg.found_per_candidate", counts["enumerate.found"], tests,
              "enumerate_positively_curved is not called on this workload")
        ratio("classification.ediffeo_solve.residues_per_root", counts["ediffeo.residues"],
              counts["ediffeo.admissible_roots"], "ediffeo_solve finds no admissible root on this workload")
        self_per_call("atlas_search.sphere_grid.self_s", "atlas_search.sphere_grid")
        self_per_call("atlas_search.circle_grid.self_s", "atlas_search.circle_grid")
        ratio("atlas_search.circle_grid.entries_per_pair_scanned", counts["circle_grid.entries"],
              counts["circle_grid.pairs"], "circle_grid is not called on this workload")
        ratio("atlas_search.build_index.us_per_entry", totals["atlas_search.build_index"][1] / 1e3,
              counts["build_index.entries"], "build_index indexes no entry on this workload")
        ratio("atlas_search.build_index.buckets", counts["build_index.buckets"], calls("atlas_search.build_index"),
              "build_index is not called on this workload")
        values["atlas_search.build_index.largest_bucket"] = self.largest_bucket
        if not calls("atlas_search.build_index"):
            absent["atlas_search.build_index.largest_bucket"] = "build_index is not called on this workload"
        ratio("atlas_search.match_all.pairs_screened", counts["match_all.pairs"], calls("atlas_search.match_all"),
              "match_all is not called on this workload")
        ratio("atlas_search.match_all.us_per_pair", totals["atlas_search.match_all"][1] / 1e3,
              counts["match_all.pairs"], "match_all screens no pair on this workload")
        ratio("atlas_search.match_all.matches_per_pair", counts["match_all.records"], counts["match_all.pairs"],
              "match_all screens no pair on this workload")
        render_ns = totals["atlas_search.render_text"][1] + totals["atlas_search.render_tsv"][1]
        ratio("atlas_search.render.us_per_record", render_ns / 1e3, counts["render.records"],
              "no match record is rendered as text or tsv on this workload")
        per_call("atlas_search.reproduce_table.ms_per_call", "atlas_search.reproduce_table", 1e6)
        values["trace.requests_per_s"] = traced_rps
        values["trace.overhead_requests_per_s"] = untraced_rps - traced_rps
        return {name: values[name] for name, _ in PER_LAYER}, absent

    def write(self, path: Path) -> None:
        """Spans as int64 columns (name, parent, request, start ns, end ns) plus a JSON header."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path.with_suffix(".json"), "w") as fh:
            json.dump({"names": self.names, "spans": len(self.span_start),
                       "columns": ["name", "parent", "request", "start_ns", "end_ns"]}, fh)
        with open(path.with_suffix(".bin"), "wb") as fh:
            for column in (self.span_name, self.span_parent, self.span_request):
                array("q", column).tofile(fh)
            self.span_start.tofile(fh)
            self.span_end.tofile(fh)
