"""One workload in one process: set up, measure, check, report.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
        [--setup-only] [--smoke] [--spawned-at T]

run.py starts this script once per measured run and once per extra
set-up sample, so peak memory, warm caches and set-up time never carry
over between workloads.  It prints one JSON line.  `--spawned-at` is the
CLOCK_MONOTONIC time at which the parent started the process; set-up
time runs from there to the first timed request.

The program is imported from `src/` of the checkout this file sits in
and driven through `kreckstolz.cli.run` from this single thread.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden"
TRACE_DIR = ROOT / ".perfbench_out"

import checks  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


def load_program():
    """Import kreckstolz from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import kreckstolz
    from kreckstolz import cli

    if Path(kreckstolz.__file__).resolve().parent != src / "kreckstolz":
        raise ImportError(f"kreckstolz was imported from {kreckstolz.__file__}, not from {src}")
    return kreckstolz, cli


def build_requests(kreckstolz, workload: str, seed: int, smoke: bool):
    catalog = workloads.catalog_from_library(kreckstolz.load_fixtures(), kreckstolz.TABLE_A, kreckstolz.TABLE_B)
    return workloads.build(workload, seed, catalog, smoke)


class Measurement:
    """Start and end of every execution, first-round outcomes, digests per request."""

    def __init__(self, requests):
        self.intervals: list[tuple[float, float]] = []
        self.first: list[checks.Outcome] = []
        self.digests: list[set[str]] = [set() for _ in requests]
        self.rounds = 0

    def latencies(self, sampler=None) -> list[float]:
        """Seconds per execution: wall time, or normalised by `sampler`."""
        if sampler is None:
            return [end - start for start, end in self.intervals]
        return [sampler.normalise(start, end) for start, end in self.intervals]


def requests_per_s(latencies) -> float:
    return len(latencies) / sum(latencies)


def measure(cli, requests, seconds: float, tracer=None, rounds=None, into=None) -> Measurement:
    """Replay whole rounds for about `seconds` (or exactly `rounds` of them).

    Adds to `into` when it is given, else to a new Measurement.
    """
    m = into or Measurement(requests)
    real_stdout, real_stderr = sys.stdout, sys.stderr
    began = time.perf_counter()
    done = 0
    while True:
        for i, request in enumerate(requests):
            out, err = io.StringIO(), io.StringIO()
            argv = list(request.argv)
            error = None
            if tracer is not None:
                tracer.request_id = len(m.intervals)
            sys.stdout, sys.stderr = out, err
            start = time.perf_counter()
            try:
                code = cli.run(argv)
            except Exception as exc:  # counted as a failed request, never fatal
                code, error = None, type(exc).__name__
            end = time.perf_counter()
            sys.stdout, sys.stderr = real_stdout, real_stderr
            m.intervals.append((start, end))
            outcome = checks.Outcome(code, out.getvalue(), err.getvalue(), error)
            m.digests[i].add(checks.digest(outcome))
            if m.rounds == 0:
                m.first.append(outcome)
        m.rounds += 1
        done += 1
        if rounds is not None:
            if done >= rounds:
                return m
        else:
            # Stop at the round boundary nearest to `seconds`.
            elapsed = time.perf_counter() - began
            if elapsed + elapsed / (2 * done) >= seconds:
                return m


def kind_digests(requests, first, skip=()) -> dict[str, str]:
    """One digest per request kind over the round's outputs, in round order."""
    hashes = {}
    for i, (request, outcome) in enumerate(zip(requests, first)):
        if i in skip:
            continue
        h = hashes.setdefault(request.kind, hashlib.sha256())
        h.update(f"{i}:{checks.digest(outcome)}\n".encode())
    return {kind: h.hexdigest()[:16] for kind, h in sorted(hashes.items())}


def load_json(name: str) -> dict:
    path = GOLDEN / name
    return json.loads(path.read_text()) if path.is_file() else {}


def verify(kreckstolz, workload, seed, requests, m: Measurement, smoke: bool, golden=None):
    """(indices of failed requests, unexpected problems, known-defect counts)."""
    checker = checks.Checker(kreckstolz, load_json("enumerate_rmax.json"))
    failed: set[int] = set()
    unexpected: list[str] = []
    known: Counter = Counter()
    for i, (request, outcome) in enumerate(zip(requests, m.first)):
        problems = checker.problems(request, outcome)
        if len(m.digests[i]) > 1:
            problems.append("output differs between rounds")
        if not problems:
            continue
        failed.add(i)
        defect = checks.known_defect(request, outcome)
        if defect and len(m.digests[i]) == 1:
            known[defect] += 1
        else:
            unexpected.append(f"{request.kind} {' '.join(request.argv)}: {'; '.join(problems)}")
    if golden is None and not smoke:
        golden = load_json(f"{workload}.json").get("seeds", {}).get(str(seed))
    if golden:
        recorded_failed = set(golden["failed"])
        if golden["requests"] != len(requests):
            unexpected.append(f"round has {len(requests)} requests, recorded {golden['requests']}")
        else:
            for kind, value in kind_digests(requests, m.first, recorded_failed).items():
                if golden["kinds"].get(kind) != value:
                    unexpected.append(f"outputs of kind {kind} differ from the digest recorded for seed {seed}")
    return failed, unexpected, known


def latency_metrics(latencies) -> dict:
    ms = sorted(1e3 * x for x in latencies)
    p99 = statistics.quantiles(ms, n=100, method="inclusive")[98] if len(ms) > 1 else ms[0]
    return {
        "requests_per_s": requests_per_s(latencies),
        "latency_p50_ms": statistics.median(ms),
        "latency_p99_ms": p99,
        "beyond_p99": sum(1 for x in ms if x > p99),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spawned-at", type=float, default=None)
    args = parser.parse_args(argv)

    kreckstolz, cli = load_program()
    requests = build_requests(kreckstolz, args.workload, args.seed, args.smoke)
    gc.collect()
    setup_s = time.monotonic() - args.spawned_at if args.spawned_at is not None else None
    setup = {"setup_s": setup_s, "setup_kernel_s": speed.kernel_time()}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    seconds = 0.0 if args.smoke else args.seconds
    tracer = sampler = None
    if args.trace:
        import layers

        # Traced and untraced rounds alternate, so that the tracing overhead
        # is not swamped by changes in machine speed between two long blocks.
        tracer = layers.Tracer(kreckstolz)
        m, untraced = Measurement(requests), Measurement(requests)
        began = time.perf_counter()
        while True:
            tracer.install()
            try:
                measure(cli, requests, 0.0, tracer=tracer, rounds=1, into=m)
            finally:
                tracer.uninstall()
            measure(cli, requests, 0.0, rounds=1, into=untraced)
            elapsed = time.perf_counter() - began
            if elapsed + elapsed / (2 * m.rounds) >= 2 * seconds:
                break
        for seen, more in zip(m.digests, untraced.digests):
            seen.update(more)
    else:
        with speed.SpeedSampler() as sampler:
            m = measure(cli, requests, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failed_idx, unexpected, known = verify(kreckstolz, args.workload, args.seed, requests, m, args.smoke)
    attempted = len(m.intervals)
    failed = m.rounds * len(failed_idx)
    if tracer is not None:
        traced_rps, untraced_rps = requests_per_s(m.latencies()), requests_per_s(untraced.latencies())
        metrics, absent = tracer.metrics(m.rounds, attempted, traced_rps, untraced_rps)
        tracer.write(TRACE_DIR / f"trace-{args.workload}-{args.seed}")
    else:
        metrics, absent = latency_metrics(m.latencies(sampler)), {}
        metrics.update(success_ratio=(attempted - failed) / attempted, peak_rss_mb=peak_rss_mb)
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "wall": latency_metrics(m.latencies()),
        "kernel_ms": sampler.median_kernel_s() * 1e3 if sampler else None,
        "absent": absent,
        "rounds": m.rounds,
        "round_requests": len(requests),
        **setup,
        "known_defects": dict(known),
        "problems": unexpected[:20],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
