"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench

They run every workload in smoke mode, check that the output checks
catch wrong outputs, and check that BENCHMARK.json and the harness name
the same workloads and metrics.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from worker import load_program  # noqa: E402

kreckstolz, cli = load_program()


def test_benchmark_json_names_what_the_harness_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"
    )


def test_smoke_runs_and_checks_every_workload():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"], cwd=ROOT, capture_output=True, text=True, timeout=170
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {"smoke": "ok", "failed_workloads": []}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_mix", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_rounds_depend_on_the_seed_only(workload):
    catalog = workloads.catalog_from_library(kreckstolz.load_fixtures(), kreckstolz.TABLE_A, kreckstolz.TABLE_B)
    first = workloads.build(workload, 7, catalog)
    assert [r.argv for r in first] == [r.argv for r in workloads.build(workload, 7, catalog)]
    assert [r.argv for r in first] != [r.argv for r in workloads.build(workload, 8, catalog)]


def _outcome(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.run(list(argv))
    return checks.Outcome(code, out.getvalue(), "", None)


def _checker():
    return checks.Checker(kreckstolz, json.loads((HERE / "golden" / "enumerate_rmax.json").read_text()))


def test_ediffeo_checks_catch_a_wrong_residue():
    s = workloads.sphere_s_values(1000, 1000 - 5)
    request = workloads.Request(
        "ed_odd_small", workloads._ediffeo_argv(5, s, "text"), {"a0": 1000, "r": 5, "negated": False}
    )
    good = _outcome(request.argv)
    assert _checker().problems(request, good) == []
    value = str(1000 % 840)
    bad = good._replace(stdout=good.stdout.replace(f"{value} mod 840", f"{int(value) + 1} mod 840"))
    assert _checker().problems(request, bad)


def test_match_checks_catch_a_wrong_orientation():
    request = workloads.Request(
        "fixtures_circle",
        ("match", "--left", "fixtures", "--right", "circle:r=17,bound=700", "--format", "tsv"),
        {"r": 17},
    )
    good = _outcome(request.argv)
    assert _checker().problems(request, good) == []
    lines = good.stdout.splitlines()
    flipped = lines[0].replace("reversing", "preserving") if "reversing" in lines[0] else lines[0].replace(
        "preserving", "reversing"
    )
    assert _checker().problems(request, good._replace(stdout="\n".join([flipped] + lines[1:]) + "\n"))
    without_partner = [line for line in lines if "circle:-403,638,-607" not in line]
    assert len(without_partner) < len(lines)
    assert _checker().problems(request, good._replace(stdout="\n".join(without_partner) + "\n"))


def test_enumerate_checks_catch_a_reordered_list():
    request = workloads.Request("enumerate", ("enumerate", "--r-max", "12", "--format", "tsv"), {"r_max": 12})
    good = _outcome(request.argv)
    assert _checker().problems(request, good) == []
    lines = good.stdout.splitlines()
    assert _checker().problems(request, good._replace(stdout="\n".join(lines[::-1]) + "\n"))


def test_known_defects_are_recognised():
    request = workloads.Request("bad_input", ("ediffeo", "-r", "3", "--s1", "1/0", "--s2", "0", "--s3", "0"), {"exit": 2})
    crashed = checks.Outcome(None, "", "", "ZeroDivisionError")
    assert _checker().problems(request, crashed)
    assert checks.known_defect(request, crashed)
    even = workloads.Request("ed_even", ("ediffeo", "-r", "2", "--s1=7/32", "--s2=13/16", "--s3=1/2"), {})
    assert checks.known_defect(even, _outcome(even.argv))
