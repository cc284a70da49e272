"""Run every script in demos/ and the README library tour as a user would.

Each demo is started in its own interpreter with the source tree on
PYTHONPATH and must exit 0 and print something.  The first python block
under "## Library tour" in README.md is run statement by statement, and
the values its comments state are checked.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kreckstolz import HomotopyVerdict, Orientation, ResidueClass

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_runs(demo):
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, cwd=ROOT, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


def tour_statements() -> list[ast.stmt]:
    """The statements of the first python block under "## Library tour" in README.md."""
    readme = (ROOT / "README.md").read_text()
    section = readme[readme.index("\n## Library tour\n"):]
    start = section.index("```python\n") + len("```python\n")
    return ast.parse(section[start:section.index("\n```", start)]).body


def test_readme_library_tour():
    namespace: dict = {}
    records = []
    for statement in tour_statements():
        exec(compile(ast.Module([statement], type_ignores=[]), "README.md", "exec"), namespace)
        if any(isinstance(target, ast.Name) and target.id == "records" for target in getattr(statement, "targets", [])):
            records.append(namespace["records"])
    inv = namespace["inv"]
    assert (inv.r, inv.p1, inv.free, inv.positively_curved) == (3, ResidueClass(0, 3), True, True)
    left, right = namespace["left"], namespace["right"]
    assert namespace["ks_diffeomorphic"](left, right) is Orientation.PRESERVING
    assert namespace["ks_homeomorphic"](left, right) is Orientation.PRESERVING
    assert namespace["kruggel_homotopy"](left, right) is HomotopyVerdict.UNDETERMINED
    assert namespace["solution"].residues == (ResidueClass(2, 504), ResidueClass(146, 504))
    assert namespace["report"].passed
    # match_all over the profiled sides, then find_matches over the same sides as sources.
    assert len(records) == 2 and records[0] and records[0] == records[1]
