"""The library computes without floats and checks without `assert`.

Every s-value is an exact element of Q/Z, so `src/kreckstolz` may hold no
float literal, no use of the name `float` and no `math` function that
returns a float.  Nor may it hold an `assert` statement: `python -O`
strips them, so no guarantee may rest on one.  Only `__init__.py` may
star-import, so that each module's names are visible where they are used.
Only `exact_arith.py` may call `int(`: every input integer is read by
`exact_arith.read_int`, which applies the digit bound.  For the same
reason only `exact_arith.py` may call `Fraction(`: rational text is read by
`exact_arith.read_fraction`, and every other rational is built there from
integers.  Nor may any other module use the `!r` conversion in an f-string: input text is echoed
through `exact_arith.excerpt`, which shows at most 40 characters of it.
No module imports a `_`-prefixed name from another: what a module shares
is public.
The checks read tokens, or for `!r` the syntax tree, so comments and
docstrings may still mention such things.
"""

from __future__ import annotations

import ast
import tokenize
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "kreckstolz").glob("*.py"))

# The math functions that return integers for integer arguments.
INTEGER_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm", "perm", "prod"}


def code_tokens(path: Path) -> list[tokenize.TokenInfo]:
    """The tokens of a file, without comments and non-logical line breaks."""
    with path.open("rb") as handle:
        return [t for t in tokenize.tokenize(handle.readline) if t.type not in (tokenize.NL, tokenize.COMMENT)]


def float_uses(path: Path) -> list[str]:
    """'line: token' for each float literal, `float`, or float `math` name in a file."""
    tokens = code_tokens(path)
    found = []
    for i, tok in enumerate(tokens):
        text = tok.string
        if tok.type == tokenize.NUMBER:
            is_float = not text.lower().startswith(("0x", "0o", "0b")) and any(c in text.lower() for c in ".ej")
        elif tok.type == tokenize.NAME and text == "float":
            is_float = True
        elif tok.type == tokenize.NAME and i >= 2 and tokens[i - 1].string == "." and tokens[i - 2].string == "math":
            is_float = text not in INTEGER_MATH
        elif tok.type == tokenize.NAME and text == "import" and i >= 2 and tokens[i - 1].string == "math":
            # from math import a, b as c: every imported name must be an integer function.
            names = []
            for follower in tokens[i + 1:]:
                if follower.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
                    break
                names.append(follower.string)
            imported = [n for prev, n in zip(["import", *names], names) if n.isidentifier() and "as" not in (prev, n)]
            found += [f"{tok.start[0]}: math.{n}" for n in imported if n not in INTEGER_MATH]
            continue
        else:
            continue
        if is_float:
            found.append(f"{tok.start[0]}: {text}")
    return found


def assert_uses(path: Path) -> list[str]:
    """'line: assert' for each assert statement in a file; `assert` is a keyword, so each token is one."""
    return [f"{t.start[0]}: assert" for t in code_tokens(path) if t.type == tokenize.NAME and t.string == "assert"]


def star_imports(path: Path) -> list[str]:
    """'line: import *' for each star import in a file."""
    tokens = code_tokens(path)
    return [
        f"{tok.start[0]}: import *"
        for tok, follower in zip(tokens, tokens[1:])
        if tok.type == tokenize.NAME and tok.string == "import" and follower.string == "*"
    ]


def int_calls(path: Path) -> list[str]:
    """'line: int(' for each call of the builtin int in a file."""
    tokens = code_tokens(path)
    return [
        f"{tok.start[0]}: int("
        for prev, tok, follower in zip(tokens, tokens[1:], tokens[2:])
        if tok.string == "int" and follower.string == "(" and prev.string not in (".", "def")
    ]


def fraction_calls(path: Path) -> list[str]:
    """'line: Fraction(' for each call of Fraction in a file, qualified or not."""
    tokens = code_tokens(path)
    return [
        f"{tok.start[0]}: Fraction("
        for prev, tok, follower in zip(tokens, tokens[1:], tokens[2:])
        if tok.string == "Fraction" and follower.string == "(" and prev.string not in ("def", "class")
    ]


def repr_conversions(path: Path) -> list[str]:
    """'line: !r' for each f-string field with the `!r` conversion in a file."""
    nodes = ast.walk(ast.parse(path.read_bytes(), str(path)))
    lines = [n.lineno for n in nodes if isinstance(n, ast.FormattedValue) and n.conversion == ord("r")]
    return [f"{line}: !r" for line in sorted(lines)]


def private_imports(path: Path) -> list[str]:
    """'line: name' for each `_`-prefixed name a file imports from a module of the package."""
    nodes = ast.walk(ast.parse(path.read_bytes(), str(path)))
    found = [
        (node.lineno, alias.name)
        for node in nodes
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("kreckstolz"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    return [f"{line}: {name}" for line, name in sorted(found)]


def test_the_guard_reads_every_module():
    assert {p.name for p in SOURCES} >= {"atlas_search.py", "bundle_families.py", "exact_arith.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_floats_in_the_library(path):
    assert float_uses(path) == []


def test_the_guard_catches_each_kind(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "import math\n"
        "from math import gcd, sqrt as root\n"
        "x = 0.5 + 1e3 + 2j + 0xE  # 0.25 in a comment\n"
        "y = float(3) + math.floor(2) + math.isqrt(4)\n"
        "z = '1.5'\n"
    )
    assert float_uses(path) == ["2: math.sqrt", "3: 0.5", "3: 1e3", "3: 2j", "4: float", "4: floor"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_asserts_in_the_library(path):
    assert assert_uses(path) == []


def test_the_assert_guard_catches_statements_only(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "def f(x):\n"
        '    """assert in a docstring"""\n'
        "    assert x, 'assert in a string'  # assert in a comment\n"
        "    assert_ok = 1\n"
        "    assert (x\n"
        "            and x)\n"
    )
    assert assert_uses(path) == ["3: assert", "5: assert"]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"], ids=lambda p: p.name)
def test_no_star_imports_outside_the_package_init(path):
    assert star_imports(path) == []


def test_the_star_import_guard_catches_statements_only(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        '"""from .errors import * in a docstring"""\n'
        "from .errors import *\n"
        "x = 'import *'  # from .profiles import *\n"
        "from .profiles import (\n"
        "    Pi4,\n"
        ")\n"
        "from .exact_arith import  *\n"
    )
    assert star_imports(path) == ["2: import *", "7: import *"]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "exact_arith.py"], ids=lambda p: p.name)
def test_only_exact_arith_calls_int(path):
    assert int_calls(path) == []


def test_the_int_guard_catches_calls_only(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "def f(x: int, y: tuple[int, ...]) -> int:\n"
        '    """int(x) in a docstring"""\n'
        "    if isinstance(x, int):  # int(x) in a comment\n"
        "        return int(x) + int (y[0]) + 'int(x)'.count('int(')\n"
        "    return x.int(2) + print_int(3)\n"
        "def int(x): return x\n"
    )
    assert int_calls(path) == ["4: int(", "4: int("]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "exact_arith.py"], ids=lambda p: p.name)
def test_only_exact_arith_calls_fraction(path):
    assert fraction_calls(path) == []


def test_the_fraction_guard_catches_calls_only(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "from fractions import Fraction\n"
        "def f(x: Fraction) -> tuple[Fraction, ...]:\n"
        '    """Fraction(x) in a docstring"""\n'
        "    if isinstance(x, Fraction):  # Fraction(x) in a comment\n"
        "        return Fraction(x), fractions.Fraction (1, 2), 'Fraction(x)'\n"
        "    return (Fraction\n"
        "            (x),)\n"
        "class Fraction(int): pass\n"
    )
    assert fraction_calls(path) == ["5: Fraction(", "5: Fraction(", "6: Fraction("]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "exact_arith.py"], ids=lambda p: p.name)
def test_only_exact_arith_echoes_with_repr(path):
    assert repr_conversions(path) == []


def test_the_repr_guard_catches_f_string_fields_only(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        'def f(x):\n'
        '    """f"{x!r}" in a docstring"""\n'
        '    a = f"{x!r}" + "{x!r}" + "{!r}".format(x)  # f"{x!r}" in a comment\n'
        '    b = f"{x!s} {x!a} {x} {x:>4} {excerpt(x)}"\n'
        "    return a + b + f'{x}' f'{x!r:>10}' + f'{f\"{x!r}\"}'\n"
    )
    assert repr_conversions(path) == ["3: !r", "5: !r", "5: !r"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_imports_a_private_name_from_another(path):
    assert private_imports(path) == []


def test_the_private_import_guard_catches_package_imports_only(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        '"""from .errors import _x in a docstring"""\n'
        "from __future__ import annotations\n"
        "from .bundle_families import BundleSpec, _require_spec\n"
        "from functools import _lru_cache_wrapper\n"
        "from .profiles import (\n"
        "    Pi4,\n"
        "    _negated as negated,\n"
        ")\n"
        "from kreckstolz.eschenburg import _sigma\n"
        "from . import _private\n"
    )
    assert private_imports(path) == ["3: _require_spec", "5: _negated", "9: _sigma", "10: _private"]
