"""Benchmark of the kreckstolz command-line interface.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Runs from the root of a checkout.  One workload runs in its own worker
process (perfbench/worker.py), a closed loop with one client that calls
`kreckstolz.cli.run` on a seeded round of command lines until S seconds
have passed, in whole rounds.  Every output is checked.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with `--trace 0`, the
per-layer metrics of a traced run with `--trace 1`.

Times are normalised to a reference machine speed (see speed.py); the
raw wall-clock figures are printed beside them.  `setup_s` is the median
over SETUP_SAMPLES fresh processes of the time from process start to the
first timed request (import, first catalog read, input generation).

`--smoke` runs every workload once, traced and untraced, on one small
round, checks every output and exits 0 only if all of them pass.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

WORKLOADS = ("grid_index", "grid_match", "cli_mix", "enumerate")
END_TO_END = (
    ("requests_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("success_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
SETUP_SAMPLES = 9  # the measured run plus eight set-up-only processes
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def run_worker(deadline: float, *args: str) -> dict:
    """Start one worker, wait for it, and return its JSON result."""
    command = [sys.executable, str(WORKER), *args, "--spawned-at", repr(time.monotonic())]
    with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError("worker did not finish before the deadline") from None
    if proc.returncode != 0 or not stdout.strip():
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def run_one(workload: str, seed: int, seconds: int, trace: int, deadline: float) -> dict:
    common = ("--workload", workload, "--seed", str(seed), "--seconds", str(seconds))
    result = run_worker(deadline, *common, "--trace", str(trace))
    out = {key: result[key] for key in ("correct", "attempted", "failed")}
    print(
        f"{workload} seed={seed}: {result['rounds']} round(s) of {result['round_requests']} requests, "
        f"{result['attempted']} attempted, {result['failed']} failed"
    )
    for defect, count in result["known_defects"].items():
        print(f"  known defect, {count} request(s) per round: {defect}")
    for problem in result["problems"]:
        print(f"  CHECK FAILED: {problem}")
    if trace:
        import layers

        units = dict(layers.PER_LAYER)
        out["metrics"] = {name: {"value": value, "unit": units[name]} for name, value in result["metrics"].items()}
        for name, why in result["absent"].items():
            print(f"  absent: {name} reads 0 ({why})")
    else:
        samples = [result] + [run_worker(deadline, *common, "--setup-only") for _ in range(SETUP_SAMPLES - 1)]
        setups = [x["setup_s"] * speed.REFERENCE_KERNEL_S / x["setup_kernel_s"] for x in samples]
        metrics = dict(result["metrics"], setup_s=statistics.median(setups))
        print(f"  set-up wall clock: median {statistics.median(x['setup_s'] for x in samples):.6g} s")
        out["metrics"] = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
        wall = result["wall"]
        print(f"  latency samples: {result['attempted']}, beyond p99: {result['metrics']['beyond_p99']}")
        print(f"  median kernel time {result['kernel_ms']:.4f} ms (reference {1e3 * speed.REFERENCE_KERNEL_S} ms); "
              f"wall clock: {wall['requests_per_s']:.6g} requests/s, p50 {wall['latency_p50_ms']:.6g} ms, "
              f"p99 {wall['latency_p99_ms']:.6g} ms")
    for name, metric in out["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    return out


def smoke(deadline: float) -> int:
    failures = []
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            result = run_worker(deadline, "--workload", workload, "--seed", "0", "--smoke", "--trace", trace)
            print(f"smoke {workload} trace={trace}: {'ok' if result['correct'] else 'FAILED'} "
                  f"({result['attempted']} requests, {result['failed']} failed)")
            if not result["correct"]:
                failures.append(workload)
                for problem in result["problems"]:
                    print(f"  {problem}")
    print(json.dumps({"smoke": "ok" if not failures else "failed", "failed_workloads": failures}))
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if not (ROOT / "src" / "kreckstolz" / "cli.py").is_file():
        print(f"no kreckstolz sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.smoke:
            return smoke(deadline)
        out = run_one(args.workload, args.seed, args.seconds, args.trace, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
