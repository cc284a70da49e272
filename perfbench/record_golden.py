"""Record the golden digests the benchmark checks outputs against.

    python3 perfbench/record_golden.py [--seeds 0-23] [--workloads W ...] [--enumerate-rmax]

`--enumerate-rmax` writes golden/enumerate_rmax.json: the sha256 of the
`enumerate --r-max R` output in every format for every R up to 40.

For each workload and seed it runs one round and writes, to
golden/<workload>.json, the round size, the indices of the requests that
fail their checks (only documented defects are accepted) and one digest
per request kind over the outputs of all other requests.  Record only on
a commit whose outputs are known good: the benchmark then reports any
change to these bytes as incorrect.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

import workloads
from worker import GOLDEN, build_requests, kind_digests, load_program, measure, verify

ENUMERATE_RMAX = range(1, 41)


def record_enumerate(cli) -> None:
    golden = {}
    for r_max in ENUMERATE_RMAX:
        golden[str(r_max)] = {}
        for fmt in workloads.FORMATS:
            request = workloads.Request("enumerate", ("enumerate", "--r-max", str(r_max), "--format", fmt))
            outcome = measure(cli, [request], 0.0, rounds=1).first[0]
            if outcome.code != 0:
                sys.exit(f"enumerate --r-max {r_max} exited {outcome.code}")
            golden[str(r_max)][fmt] = hashlib.sha256(outcome.stdout.encode()).hexdigest()
        print(f"enumerate r_max={r_max} recorded", flush=True)
    (GOLDEN / "enumerate_rmax.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def record_workload(kreckstolz, cli, workload: str, seeds) -> None:
    path = GOLDEN / f"{workload}.json"
    data = json.loads(path.read_text()) if path.is_file() else {"seeds": {}}
    for seed in seeds:
        requests = build_requests(kreckstolz, workload, seed, smoke=False)
        m = measure(cli, requests, 0.0, rounds=1)
        failed, unexpected, known = verify(kreckstolz, workload, seed, requests, m, smoke=False, golden={})
        if unexpected:
            sys.exit(f"{workload} seed {seed}: refusing to record failures: {unexpected[:3]}")
        data["seeds"][str(seed)] = {
            "requests": len(requests),
            "failed": sorted(failed),
            "kinds": kind_digests(requests, m.first, failed),
        }
        print(f"{workload} seed={seed}: {len(requests)} requests, known defects {dict(known)}", flush=True)
    data["seeds"] = dict(sorted(data["seeds"].items(), key=lambda item: int(item[0])))
    path.write_text(json.dumps(data, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-23", help="inclusive range, e.g. 0-23")
    parser.add_argument("--workloads", nargs="*", default=list(workloads.WORKLOADS))
    parser.add_argument("--enumerate-rmax", action="store_true")
    args = parser.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    kreckstolz, cli = load_program()
    GOLDEN.mkdir(exist_ok=True)
    if args.enumerate_rmax:
        record_enumerate(cli)
    for workload in args.workloads:
        record_workload(kreckstolz, cli, workload, seeds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
