"""Tests for the command-line interface.

Each test drives `run` with a concrete argument vector and asserts on
the exit status and the captured streams.  Expected numbers are the
frozen values used throughout the suite (the order-3 homogeneous space
and its sphere-bundle partners, and the bundled catalog tables).
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kreckstolz

from kreckstolz import (
    BundleSpec,
    ChenParams,
    DomainError,
    EdiffeoProblem,
    EschenburgSpace,
    Family,
    chen_bundle,
    circle_source,
    ediffeo_solve,
    einstein_congruence,
    enumerate_positively_curved,
    load_fixtures,
    parse_bundle_spec,
    parse_source,
    parse_space,
    reproduce_table,
    sphere_congruence_classify,
    sphere_source,
)
from kreckstolz.cli import main, run
from kreckstolz.exact_arith import MAX_INPUT_DIGITS, read_fraction, read_int

W11_LINE = "1 1 -2 | 0 0 0 | 1/112 -1/36 1/18\n"


def out_err(capsys):
    captured = capsys.readouterr()
    return captured.out, captured.err


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def test_invariants_sphere_json(capsys):
    code = run(["invariants", "--family", "sphere", "-a", "2", "-b", "-1", "--format", "json"])
    out, err = out_err(capsys)
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data["s1"] == "1/112"
    assert data["s2"] == "35/36"
    assert data["s3"] == "1/18"
    assert data["r"] == 3
    assert data["cohomology_type"] == "E"
    assert data["p1"] == "0 mod 3"
    assert data["lk"] == ["1 mod 3"]
    # canonical JSON: re-serializing the parsed payload is byte-identical
    assert json.dumps(data, sort_keys=True, indent=2) + "\n" == out


def test_invariants_positional_descriptor_matches_flags(capsys):
    assert run(["invariants", "sphere:2,-1", "--format", "json"]) == 0
    positional, _ = out_err(capsys)
    assert run(["invariants", "--family", "sphere", "-a", "2", "-b", "-1", "--format", "json"]) == 0
    flags, _ = out_err(capsys)
    assert positional == flags


def _run_captured(argv):
    """(exit status, stdout, stderr) of one run, for tests that cannot use capsys."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


# Small ranges, so degenerate (|H^4| = 0) and non-coprime parameters are drawn often.
@settings(deadline=None)
@given(
    st.sampled_from(["sphere", "spin-sphere", "circle", "spin-circle"]),
    st.integers(-12, 12),
    st.integers(-12, 12),
    st.integers(-12, 12),
    st.sampled_from(["text", "tsv", "json"]),
)
def test_invariants_flags_read_as_their_descriptor(family, a, b, t, fmt):
    circle = family.endswith("circle")
    descriptor = f"{family}:{t},{a},{b}" if circle else f"{family}:{a},{b}"
    flags = ["--family", family, "-a", str(a), "-b", str(b)] + (["-t", str(t)] if circle else [])
    by_flags = _run_captured(["invariants", *flags, "--format", fmt])
    assert by_flags == _run_captured(["invariants", descriptor, "--format", fmt])
    assert by_flags[0] in (0, 1)


def test_invariants_text_fields(capsys):
    code = run(["invariants", "circle:1,2,1"])
    out, _ = out_err(capsys)
    assert code == 0
    assert "r: 7" in out
    assert "pi4: 0" in out


def test_invariants_eschenburg_fixture(capsys):
    code = run(["invariants", "eschenburg:1,1,-2|0,0,0", "--format", "json"])
    out, err = out_err(capsys)
    assert code == 0, err
    data = json.loads(out)
    assert data["s1"] == "1/112"
    assert data["s2"] == "35/36"
    assert data["s3"] == "1/18"
    assert data["pi4"] == "0"
    assert data["lk"] == ["1 mod 3", "2 mod 3"]


@pytest.mark.parametrize(
    "descriptor, name, triple",
    [
        ("eschenburg:1,1|0,0,0", "k", "(1, 1)"),
        ("eschenburg:1,1,-2,0|0,0,0", "k", "(1, 1, -2, 0)"),
        ("eschenburg:1,1,-2|0,0", "l", "(0, 0)"),
        ("eschenburg:1,1,-2|0,0,0,0", "l", "(0, 0, 0, 0)"),
    ],
)
def test_invariants_eschenburg_wrong_length_is_domain_error(descriptor, name, triple, capsys):
    code = run(["invariants", descriptor])
    out, err = out_err(capsys)
    assert (code, out) == (1, "")
    assert err == f"DomainError: {name} must be a triple of integers, got {triple}\n"


def test_invariants_unbalanced_eschenburg_is_unequal_sums(capsys):
    # The space is refused when built, before the catalog is searched for it.
    code = run(["invariants", "eschenburg:9,9,9|0,0,0"])
    out, err = out_err(capsys)
    assert (code, out) == (1, "")
    assert err == "UnequalSums: sum 27 != 0 for (9, 9, 9), (0, 0, 0)\n"


def test_invariants_degenerate_order_is_domain_error(capsys):
    code = run(["invariants", "--family", "sphere", "-a", "2", "-b", "2"])
    _, err = out_err(capsys)
    assert code == 1
    assert "DegenerateOrder" in err


def test_invariants_requires_exactly_one_input_style(capsys):
    assert run(["invariants"]) == 2
    capsys.readouterr()
    assert run(["invariants", "sphere:2,-1", "--family", "sphere", "-a", "2", "-b", "-1"]) == 2
    capsys.readouterr()
    assert run(["invariants", "--family", "sphere", "-a", "1"]) == 2
    out, err = out_err(capsys)
    assert out == "" and "--family requires -a and -b" in err


def test_invariants_t_flag_validation(capsys):
    assert run(["invariants", "--family", "sphere", "-a", "2", "-b", "-1", "-t", "1"]) == 2
    capsys.readouterr()
    assert run(["invariants", "--family", "circle", "-a", "2", "-b", "1"]) == 2


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def test_classify_preserving_pair(capsys):
    code = run(["classify", "sphere:2,-1", "sphere:146,143", "--format", "json"])
    out, _ = out_err(capsys)
    assert code == 0
    data = json.loads(out)
    assert data["diffeomorphic"] == "preserving"
    assert data["homeomorphic"] == "preserving"
    assert data["homotopy"] == "undetermined"


def test_classify_fixture_with_itself(capsys):
    code = run(["classify", "eschenburg:1,1,-2|0,0,0", "eschenburg:1,1,-2|0,0,0"])
    out, _ = out_err(capsys)
    assert code == 0
    assert "diffeomorphic: preserving" in out
    assert "homotopy: equivalent" in out


def test_classify_unrelated_spheres(capsys):
    code = run(["classify", "sphere:0,-3", "sphere:1,-2", "--format", "json"])
    out, _ = out_err(capsys)
    assert code == 0
    data = json.loads(out)
    assert data["diffeomorphic"] is None
    assert data["homeomorphic"] is None
    assert data["homotopy"] == "undetermined"


def test_classify_different_orders_not_homotopy_equivalent(capsys):
    code = run(["classify", "sphere:2,-1", "sphere:3,-2", "--format", "json"])
    out, _ = out_err(capsys)
    assert code == 0
    data = json.loads(out)
    assert data["diffeomorphic"] is None
    assert data["homotopy"] == "not-equivalent"


# ---------------------------------------------------------------------------
# ediffeo
# ---------------------------------------------------------------------------


def test_ediffeo_solves_order_three_values(capsys):
    code = run(["ediffeo", "-r", "3", "--s1", "1/112", "--s2=-1/36", "--s3", "1/18"])
    out, _ = out_err(capsys)
    assert code == 0
    assert "2 mod 504" in out
    assert "146 mod 504" in out
    assert "reversing: no solution" in out


def test_ediffeo_single_orientation(capsys):
    code = run(
        ["ediffeo", "-r", "3", "--s1", "1/112", "--s2=-1/36", "--s3", "1/18", "--orientation", "preserving"]
    )
    out, _ = out_err(capsys)
    assert code == 0
    assert "2 mod 504" in out
    assert "reversing" not in out


def test_ediffeo_json(capsys):
    code = run(
        ["ediffeo", "-r", "3", "--s1", "1/112", "--s2=-1/36", "--s3", "1/18", "--format", "json"]
    )
    out, _ = out_err(capsys)
    assert code == 0
    data = json.loads(out)
    assert data["r"] == 3
    assert data["preserving"]["residues"] == ["2 mod 504", "146 mod 504"]
    assert data["reversing"]["residues"] is None
    assert "CongruenceFailure" in data["reversing"]["reason"]


def test_ediffeo_solves_even_order(capsys):
    code = run(["ediffeo", "-r", "2", "--s1=7/32", "--s2=13/16", "--s3=1/2"])
    out, _ = out_err(capsys)
    assert code == 0
    assert out == (
        "preserving: 5 mod 336, 149 mod 336, 173 mod 336, 317 mod 336\n"
        "reversing: no solution (CongruenceFailure: e3 - e2 - 3 = 30 is not divisible by 6r = 12)\n"
    )


PSI_12 =318665857834031151167461  # 399165290221 * 798330580441
PSI_13 = 3317044064679887385961981


def _sphere_s_flags(a, b):
    prof = kreckstolz.profile_sphere(a, b)
    return [f"--s1={prof.s1}", f"--s2={prof.s2}", f"--s3={prof.s3}"]


def test_ediffeo_order_with_strong_pseudoprime_factor(capsys):
    code = run(["ediffeo", "-r", str(PSI_12), "--format", "json"] + _sphere_s_flags(12345, 12345 - PSI_12))
    out, err = out_err(capsys)
    assert code == 0, err
    assert json.loads(out)["preserving"]["residues"] == [f"12345 mod {168 * PSI_12}"]


@pytest.mark.parametrize(
    "r",
    [PSI_13, (2**61 - 1) * (2**89 - 1)],
    ids=["psi13", "mersenne_61_89"],
)
def test_ediffeo_solves_orders_that_cannot_be_factored(r, capsys):
    # The solver needs no factorization of 224r, so an order whose primality
    # factorize cannot certify, or a product of two large primes, is solved.
    code = run(["ediffeo", "-r", str(r), "--orientation", "preserving"] + _sphere_s_flags(12345, 12345 - r))
    out, err = out_err(capsys)
    assert (code, err) == (0, "")
    assert out == f"preserving: 12345 mod {168 * r}\n"


@pytest.mark.parametrize("flag", ["--s1", "--s2", "--s3"])
def test_ediffeo_zero_denominator_is_usage_error(flag, capsys):
    argv = ["ediffeo", "-r", "3", "--s1", "0", "--s2", "0", "--s3", "0"]
    argv[argv.index(flag) + 1] = "1/0"
    code = run(argv)
    _, err = out_err(capsys)
    assert code == 2
    assert f"argument {flag}: invalid Fraction value: '1/0'" in err


@pytest.mark.parametrize("text", ["1e3", "2E-1"])
def test_ediffeo_exponent_is_usage_error(text, capsys):
    # Fraction reads exponents, and a large one means a huge power of ten.
    code = run(["ediffeo", "-r", "3", f"--s1={text}", "--s2", "0", "--s3", "0"])
    _, err = out_err(capsys)
    assert code == 2
    assert f"argument --s1: invalid Fraction value: '{text}'" in err


def test_ediffeo_decimal_reads_as_its_fraction(capsys):
    outcomes = []
    for text in ("0.5", "1/2"):
        code = run(["ediffeo", "-r", "3", f"--s1={text}", "--s2", "0", "--s3", "0"])
        outcomes.append((code, *out_err(capsys)))
    assert outcomes[0] == outcomes[1]
    assert "invalid Fraction value" not in outcomes[0][2]


def test_ediffeo_divisibility_error(capsys):
    code = run(["ediffeo", "-r", "3", "--s1", "1/5", "--s2", "0", "--s3", "0"])
    _, err = out_err(capsys)
    assert code == 1
    assert "DivisibilityFailure" in err


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------


def test_enumerate_lists_order_three_space(capsys):
    code = run(["enumerate", "--r-max", "5"])
    out, _ = out_err(capsys)
    assert code == 0
    assert "eschenburg:-2,1,1|0,0,0" in out
    assert "r=3" in out


def test_enumerate_deterministic_tsv(capsys):
    assert run(["enumerate", "--r-max", "9", "--format", "tsv"]) == 0
    first, _ = out_err(capsys)
    assert run(["enumerate", "--r-max", "9", "--format", "tsv"]) == 0
    second, _ = out_err(capsys)
    assert first == second
    assert all(len(line.split("\t")) == 4 for line in first.splitlines())


# ---------------------------------------------------------------------------
# match
# ---------------------------------------------------------------------------


def test_match_fixtures_against_sphere_grid(capsys):
    code = run(
        ["match", "--left", "fixtures", "--right", "sphere:r=3,start=0,stop=504", "--format", "tsv"]
    )
    out, _ = out_err(capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "eschenburg:1,1,-2|0,0,0\tsphere:2,-1\tpreserving\t3\t1/112\t35/36\t1/18"
    assert len(lines) == 2


def test_match_empty_result(capsys):
    code = run(["match", "--left", "fixtures", "--right", "sphere:r=3,start=0,stop=2", "--ignore-pi4"])
    out, _ = out_err(capsys)
    assert code == 0
    assert out == "no matches\n"


def test_match_unknown_source(capsys):
    code = run(["match", "--left", "bogus:x=1", "--right", "fixtures"])
    _, err = out_err(capsys)
    assert code == 1
    assert "DomainError" in err


@pytest.mark.parametrize(
    "source, message",
    [
        ("sphere:r=3,start=0,stop=5,bogus=7", "DomainError: unknown sphere source parameter 'bogus'\n"),
        ("circle:r=3,bound=2,start=0", "DomainError: unknown circle source parameter 'start'\n"),
        ("sphere:r=3,start=0,stop=5,r=4", "DomainError: source parameter 'r' given twice\n"),
        ("circle:r=3,bound=2,bound=2", "DomainError: source parameter 'bound' given twice\n"),
    ],
)
def test_match_source_rejects_unknown_and_repeated_keys(source, message, capsys):
    for argv in (["--left", source, "--right", "fixtures"], ["--left", "fixtures", "--right", source]):
        code = run(["match", *argv])
        out, err = out_err(capsys)
        assert (code, out, err) == (1, "", message)


@pytest.mark.parametrize("side", ["--left", "--right"])
def test_match_sphere_range_beyond_sys_maxsize_is_domain_error(side, capsys):
    # Such a range has no len() in Python; the work it asks for is unbounded anyway.
    stop = 10**19
    argv = {"--left": "fixtures", "--right": "fixtures", side: f"sphere:r=41,start=0,stop={stop}"}
    code = run(["match", *itertools.chain.from_iterable(argv.items())])
    out, err = out_err(capsys)
    assert (code, out) == (1, "")
    assert err == f"DomainError: sphere range [0, {stop}) holds {stop} values, more than {sys.maxsize}\n"


# ---------------------------------------------------------------------------
# The digit bound on integer inputs
# ---------------------------------------------------------------------------

DIGIT_BOUND_MESSAGE = f"integers are limited to {MAX_INPUT_DIGITS} digits"


def test_output_integer_past_the_int_to_str_limit_is_domain_error(capsys):
    # int() reads this 4,299-digit a, but s1 is printed over 224r, with
    # more than the 4,300 digits Python converts to text.
    code = run(["invariants", "sphere:9" + "0" * 4298 + ",1"])
    out, err = out_err(capsys)
    assert (code, out, err) == (1, "", f"DomainError: {DIGIT_BOUND_MESSAGE}\n")


def test_ediffeo_order_past_the_int_to_str_limit_is_usage_error(capsys):
    # Every flag is under 4,301 digits, but the answer is printed mod 168r.
    r = int("9" + "0" * 4296 + "1")
    code = run(["ediffeo", "-r", str(r)] + _sphere_s_flags(12345, 12345 - r))
    out, err = out_err(capsys)
    assert (code, out) == (2, "")
    assert f"argument -r: {DIGIT_BOUND_MESSAGE}" in err


LONG = str(10**MAX_INPUT_DIGITS)  # one digit past the bound
# Past the 4,300 digits that int() and Fraction() read from text at all.
NINES_4301, NINES_5000 = "9" * 4301, "9" * 5000


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["invariants", f"sphere:{LONG},1"], 1, DIGIT_BOUND_MESSAGE),
        (["invariants", f"eschenburg:{LONG},0,0|0,0,0"], 1, DIGIT_BOUND_MESSAGE),
        (["invariants", "--family", "sphere", "-a", LONG, "-b", "1"], 2, DIGIT_BOUND_MESSAGE),
        (["ediffeo", "-r", "3", f"--s1=1/{LONG}", "--s2", "0", "--s3", "0"], 2, DIGIT_BOUND_MESSAGE),
        (["enumerate", "--r-max", LONG], 2, DIGIT_BOUND_MESSAGE),
        (["match", "--left", "fixtures", "--right", f"sphere:r=3,start={LONG},stop={LONG}1"], 1, DIGIT_BOUND_MESSAGE),
        # Tokens that int() itself refuses for their length; a sign, _ and whitespace are allowed.
        *(
            case
            for nines in (NINES_4301, NINES_5000)
            for case in (
                (["invariants", f"sphere:{nines},1"], 1, DIGIT_BOUND_MESSAGE),
                (["match", "--left", "fixtures", "--right", f"sphere:r={nines},start=0,stop=1"], 1, DIGIT_BOUND_MESSAGE),
                (["invariants", "--family", "sphere", "-a", nines, "-b", "1"], 2, DIGIT_BOUND_MESSAGE),
                (["ediffeo", "-r", "3", "--s1", nines, "--s2", "0", "--s3", "0"], 2, DIGIT_BOUND_MESSAGE),
            )
        ),
        (["invariants", f"sphere: -{'9_' * 4400}9 ,1"], 1, DIGIT_BOUND_MESSAGE),
        (["ediffeo", "-r", "3", f"--s1=-1/{NINES_5000}", "--s2", "0", "--s3", "0"], 2, DIGIT_BOUND_MESSAGE),
        # Tokens that are not integers, named in the error.
        (["invariants", "spin-circle:1,2.0,1"], 1, "DomainError: '2.0' is not an integer"),
        (["invariants", "eschenburg:1,x,-2|0,0,0"], 1, "DomainError: 'x' is not an integer"),
        (["invariants", "eschenburg:1,1,-2|0,1/2,0"], 1, "DomainError: '1/2' is not an integer"),
        (["match", "--left", "fixtures", "--right", "circle:r=17,bound=1e3"], 1, "DomainError: '1e3' is not an integer"),
        (["invariants", "--family", "sphere", "-a", "0x10", "-b", "1"], 2, "argument -a: '0x10' is not an integer"),
        (["ediffeo", "-r", "3.0", "--s1", "0", "--s2", "0", "--s3", "0"], 2, "argument -r: '3.0' is not an integer"),
        (["enumerate", "--r-max", "twelve"], 2, "argument --r-max: 'twelve' is not an integer"),
        # A long token that is not a number is named by its first 40 characters.
        (["invariants", f"sphere:x{NINES_5000},1"], 1, f"DomainError: 'x{NINES_5000[:39]}'... is not an integer"),
        (
            ["ediffeo", "-r", "3", "--s1", f"x{NINES_5000}", "--s2", "0", "--s3", "0"],
            2,
            f"argument --s1: invalid Fraction value: 'x{NINES_5000[:39]}'...",
        ),
    ],
    ids=[
        "descriptor", "eschenburg", "flag", "fraction", "r_max", "source",
        *(
            f"{entry}_{digits}"
            for digits in (4301, 5000)
            for entry in ("descriptor", "source", "flag_a", "fraction_s1")
        ),
        "descriptor_sign_underscores_spaces", "fraction_denominator_5000",
        "non_int_descriptor", "non_int_eschenburg_k", "non_int_eschenburg_l", "non_int_source",
        "non_int_a", "non_int_r", "non_int_r_max", "non_int_long_descriptor", "non_int_long_fraction",
    ],
)
def test_integers_past_the_digit_bound_are_rejected(argv, code, message, capsys):
    assert run(argv) == code
    out, err = out_err(capsys)
    assert out == "" and message in err
    assert len(err.splitlines()[-1].encode()) < 200


def test_catalog_integer_past_the_digit_bound_is_parse_error(tmp_path, capsys):
    path = tmp_path / "catalog.txt"
    path.write_text(W11_LINE + f"{LONG} 1 -2 | 0 0 0 | 1/112 -1/36 1/18\n")
    code = run(["invariants", "eschenburg:1,1,-2|0,0,0", "--fixtures", str(path)])
    out, err = out_err(capsys)
    assert (code, out, err) == (1, "", f"ParseError: line 2: {DIGIT_BOUND_MESSAGE}\n")


@pytest.mark.parametrize(
    "line, token",
    [("1 1 -2.0 | 0 0 0 | 1/112 -1/36 1/18", "-2.0"), ("1 1 -2 | 0 0 zero | 1/112 -1/36 1/18", "zero")],
    ids=["k", "l"],
)
def test_catalog_non_integer_entry_is_parse_error(line, token, tmp_path, capsys):
    path = tmp_path / "catalog.txt"
    path.write_text(W11_LINE + line + "\n")
    code = run(["invariants", "eschenburg:1,1,-2|0,0,0", "--fixtures", str(path)])
    out, err = out_err(capsys)
    assert (code, out, err) == (1, "", f"ParseError: line 2: {token!r} is not an integer\n")


X5000 = "x" * 5000


@pytest.mark.parametrize(
    "argv, catalog_line, error",
    [
        (["invariants", f"{X5000}:1"], None, "DomainError"),
        (["invariants", f"eschenburg:{X5000}"], None, "DomainError"),
        (["invariants", "eschenburg:" + ",".join("1" * 3000) + "|0,0,0"], None, "DomainError"),
        (["match", "--left", "fixtures", "--right", X5000], None, "DomainError"),
        (["match", "--left", "fixtures", "--right", f"sphere:{X5000}"], None, "DomainError"),
        (["match", "--left", "fixtures", "--right", f"sphere:r=1,start=0,stop=1,{X5000}=1"], None, "DomainError"),
        (["match", "--left", "fixtures", "--right", f"sphere:{X5000}=1,{X5000}=2"], None, "DomainError"),
        (["invariants", "eschenburg:1,1,-2|0,0,0"], " ".join("1" * 3002) + " | 0 0 0 | 0 0 0", "ParseError"),
        (["invariants", "eschenburg:1,1,-2|0,0,0"], "1 1 -2 | 0 0 0 | " + " ".join("0" * 3000), "ParseError"),
        (["invariants", "eschenburg:1,1,-2|0,0,0"], f"1 1 -2 | 0 0 0 | 0 0 {X5000}", "ParseError"),
    ],
    ids=[
        "bundle_family", "eschenburg_descriptor", "eschenburg_triple", "source", "source_pair",
        "source_unknown_key", "source_repeated_key", "catalog_k", "catalog_s_count", "catalog_s_text",
    ],
)
def test_long_input_is_echoed_in_at_most_40_characters(argv, catalog_line, error, tmp_path, capsys):
    if catalog_line is not None:
        path = tmp_path / "catalog.txt"
        path.write_text(catalog_line + "\n")
        argv = [*argv, "--fixtures", str(path)]
    assert run(argv) == 1
    out, err = out_err(capsys)
    assert out == "" and err.startswith(f"{error}: ") and "..." in err
    assert err.count("\n") == 1 and len(err.encode()) < 200


@pytest.mark.parametrize(
    "call",
    [
        lambda: BundleSpec(10**5000, 1, 0),
        lambda: EschenburgSpace((10**5000,) * 4, (0, 0, 0)),
        lambda: einstein_congruence(X5000, (3, 1), (3, 1)),
        lambda: reproduce_table(X5000),
    ],
    ids=["bundle_spec_family", "eschenburg_space_triple", "einstein_family", "table"],
)
def test_library_echoes_raise_only_bounded_domain_errors(call):
    with pytest.raises(DomainError) as caught:
        call()
    assert len(str(caught.value)) < 200


# The s-values of W_{1,1} at r = 3: solvable preserving, not reversing.
W11_PROBLEM = EdiffeoProblem(3, Fraction(1, 112), Fraction(-1, 36), Fraction(1, 18))

# Library entry points and values of the wrong type for them: each takes text
# or a path, except EdiffeoProblem, whose r is an int (not a bool), and
# ediffeo_solve, whose orientation is an Orientation, not its text.
# load_fixtures(None) is the packaged catalog.
WRONG_TYPE_CALLS = {
    "read_int": (read_int, (5.7, None)),
    "read_fraction": (read_fraction, (5, None)),
    "parse_bundle_spec": (lambda v: parse_bundle_spec(v), (5, None)),
    "parse_space": (lambda v: parse_space(v, load_fixtures), (5, None)),
    "parse_source": (lambda v: parse_source(v, load_fixtures), (5, None)),
    "eschenburg_space": (lambda v: EschenburgSpace(v, (0, 0, 0)), (5, None)),
    "load_fixtures": (lambda v: load_fixtures(v), (5,)),
    "ediffeo_problem": (lambda v: EdiffeoProblem(v, 0, 0, 0), ("3", None, True)),
    "ediffeo_solve": (lambda v: ediffeo_solve(W11_PROBLEM, v), ("reversing",)),
}


@pytest.mark.parametrize(
    "name, value", [(name, value) for name, (_, values) in WRONG_TYPE_CALLS.items() for value in values]
)
def test_wrong_type_is_a_domain_error_that_echoes_it(name, value):
    call, _ = WRONG_TYPE_CALLS[name]
    with pytest.raises(DomainError) as caught:
        call(value)
    assert str(caught.value).endswith(f"got {value!r}")


@pytest.mark.parametrize(
    "call",
    [
        lambda: ChenParams(None, 1),
        lambda: ChenParams(True, 1),
        lambda: chen_bundle(ChenParams("x", 1)),
        lambda: sphere_congruence_classify(1.5, 0.5, 13.5, 12.5),
        lambda: sphere_congruence_classify(2, 1, 14, 13, spin="no"),
        lambda: einstein_congruence("L", (3.0, 1), (3, 505)),
        lambda: einstein_congruence("L", (3, "x"), (3, 1)),
        lambda: einstein_congruence("L", 5, (3, 1)),
        lambda: sphere_source("3", 0, 5),
        lambda: sphere_source(3, 0.5, 4),
        lambda: circle_source(3.0, 5),
        lambda: enumerate_positively_curved(3.5),
        lambda: EschenburgSpace((True, True, -2), (0, 0, 0)),
        lambda: EdiffeoProblem(3, True, 0, 0),
        lambda: BundleSpec(Family.CIRCLE, 1, 2, t=True),
    ],
    ids=[
        "chen_params",
        "chen_params_bool",
        "chen_bundle",
        "sphere_congruences",
        "sphere_congruences_spin",
        "lens_float",
        "lens_text",
        "lens_not_a_pair",
        "sphere_source_r",
        "sphere_source_start",
        "circle_source",
        "enumerate",
        "eschenburg_bool",
        "ediffeo_bool",
        "circle_t_bool",
    ],
)
def test_integer_parameters_of_another_type_are_domain_errors(call):
    with pytest.raises(DomainError):
        call()


def test_integers_at_the_digit_bound_are_read(capsys):
    big = 10**MAX_INPUT_DIGITS - 1
    assert run(["invariants", f"sphere:{big},1"]) == 0
    by_descriptor, _ = out_err(capsys)
    assert run(["invariants", "--family", "sphere", "-a", str(big), "-b", "1"]) == 0
    by_flags, _ = out_err(capsys)
    assert by_descriptor == by_flags and f"r: {big - 1}\n" in by_descriptor


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


def test_tables_sphere_catalog(capsys):
    code = run(["tables", "A"])
    out, _ = out_err(capsys)
    assert code == 0
    assert "13/13 rows verified" in out


def test_tables_circle_catalog_json(capsys):
    code = run(["tables", "B", "--format", "json"])
    out, _ = out_err(capsys)
    assert code == 0
    data = json.loads(out)
    assert data["table"] == "B"
    assert data["passed"] is True
    assert len(data["rows"]) == 5
    assert data["rows"][0]["p1"] == "9 mod 17"
    assert data["rows"][0]["orientation"] == "preserving"
    assert data["rows"][3]["orientation"] == "reversing"


def test_tables_rejects_unknown_table(capsys):
    assert run(["tables", "C"]) == 2


# ---------------------------------------------------------------------------
# fixture sources and global behavior
# ---------------------------------------------------------------------------


def test_fixture_env_var(tmp_path, monkeypatch, capsys):
    path = tmp_path / "only_w11.txt"
    path.write_text(W11_LINE, encoding="utf-8")
    monkeypatch.setenv("KRECKSTOLZ_FIXTURES", str(path))
    assert run(["invariants", "eschenburg:1,1,-2|0,0,0"]) == 0
    capsys.readouterr()
    code = run(["tables", "A"])
    _, err = out_err(capsys)
    assert code == 1
    assert "MissingFixture" in err


def test_fixture_flag_overrides_env(tmp_path, monkeypatch, capsys):
    good = tmp_path / "only_w11.txt"
    good.write_text(W11_LINE, encoding="utf-8")
    monkeypatch.setenv("KRECKSTOLZ_FIXTURES", str(tmp_path / "missing.txt"))
    code = run(["invariants", "eschenburg:1,1,-2|0,0,0", "--fixtures", str(good)])
    _, err = out_err(capsys)
    assert code == 0, err


W11_REVERSED_LINE = "1 1 -2 | 0 0 0 | -1/112 1/36 -1/18\n"


def _w11_s1(capsys, argv):
    assert run(["invariants", "eschenburg:1,1,-2|0,0,0", "--format", "json"] + argv) == 0
    return json.loads(capsys.readouterr().out)["s1"]


def test_fixture_flag_file_is_reread_per_run(tmp_path, capsys):
    path = tmp_path / "w11.txt"
    path.write_text(W11_LINE, encoding="utf-8")
    assert _w11_s1(capsys, ["--fixtures", str(path)]) == "1/112"
    path.write_text(W11_REVERSED_LINE, encoding="utf-8")
    assert _w11_s1(capsys, ["--fixtures", str(path)]) == "111/112"


def test_fixture_env_var_file_is_reread_per_run(tmp_path, monkeypatch, capsys):
    path = tmp_path / "w11.txt"
    path.write_text(W11_REVERSED_LINE, encoding="utf-8")
    monkeypatch.setenv("KRECKSTOLZ_FIXTURES", str(path))
    assert _w11_s1(capsys, []) == "111/112"
    path.write_text(W11_LINE, encoding="utf-8")
    assert _w11_s1(capsys, []) == "1/112"


# The four subcommands that read the catalog, each reading it once.
CATALOG_READERS = {
    "invariants": ["invariants", "eschenburg:1,1,-2|0,0,0"],
    "classify": ["classify", "eschenburg:1,1,-2|0,0,0", "sphere:2,-1"],
    "match": ["match", "--left", "fixtures", "--right", "sphere:r=3,start=0,stop=1"],
    "tables": ["tables", "A"],
}


@pytest.mark.parametrize("argv", list(CATALOG_READERS.values()), ids=list(CATALOG_READERS))
def test_catalog_readers_take_the_flag_and_the_env_var(argv, tmp_path, monkeypatch, capsys):
    missing = str(tmp_path / "missing.txt")
    assert run([*argv, "--fixtures", missing]) == 1
    monkeypatch.setenv("KRECKSTOLZ_FIXTURES", missing)
    assert run(argv) == 1
    _, err = out_err(capsys)
    assert err.count("FileNotFoundError") == 2


@pytest.mark.parametrize(
    "argv",
    [["ediffeo", "-r", "3", "--s1=1/112", "--s2=-1/36", "--s3=1/18"], ["enumerate", "--r-max", "5"]],
    ids=["ediffeo", "enumerate"],
)
def test_commands_without_a_catalog_take_no_fixtures_flag(argv, tmp_path, monkeypatch, capsys):
    assert run([*argv, "--fixtures", "x"]) == 2
    _, err = out_err(capsys)
    assert "unrecognized arguments: --fixtures x" in err
    monkeypatch.setenv("KRECKSTOLZ_FIXTURES", str(tmp_path / "missing.txt"))
    assert run(argv) == 0


def test_missing_fixture_file_is_reported(tmp_path, capsys):
    code = run(["tables", "A", "--fixtures", str(tmp_path / "nope.txt")])
    _, err = out_err(capsys)
    assert code == 1
    assert "FileNotFoundError" in err


NOT_UTF8 = W11_LINE.encode("utf-8") + b"# caf\xe9\n"


def test_non_utf8_fixture_file_flag_is_parse_error(tmp_path, capsys):
    path = tmp_path / "latin1.txt"
    path.write_bytes(NOT_UTF8)
    code = run(["tables", "A", "--fixtures", str(path)])
    out, err = out_err(capsys)
    assert (code, out) == (1, "")
    assert err == "ParseError: line 2: not valid UTF-8 (invalid continuation byte)\n"


def test_non_utf8_fixture_file_env_var_is_parse_error(tmp_path, monkeypatch, capsys):
    path = tmp_path / "binary.txt"
    path.write_bytes(b"\xff" + NOT_UTF8)
    monkeypatch.setenv("KRECKSTOLZ_FIXTURES", str(path))
    code = run(["invariants", "eschenburg:1,1,-2|0,0,0"])
    out, err = out_err(capsys)
    assert (code, out) == (1, "")
    assert err == "ParseError: line 1: not valid UTF-8 (invalid start byte)\n"


def test_no_subcommand_is_usage_error(capsys):
    assert run([]) == 2


def test_help_exits_cleanly(capsys):
    assert run(["--help"]) == 0


@pytest.mark.parametrize("name", ["invariants", "classify", "ediffeo", "enumerate", "match", "tables"])
def test_every_subcommand_takes_format_and_only_catalog_readers_take_fixtures(name, capsys):
    assert run([name, "--help"]) == 0
    out, _ = out_err(capsys)
    usage = " ".join(out.split())
    head = f"usage: kreckstolz {name} [-h] [--format {{text,json,tsv}}]"
    assert usage.startswith(head)
    assert usage[len(head) :].startswith(" [--fixtures PATH]") == (name in CATALOG_READERS)


def test_module_entry_point():
    src = str(Path(kreckstolz.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    # One request per exit status: success, a domain error, a usage error.
    for argv, code, stream, text in [
        (["tables", "B"], 0, "stdout", "5/5 rows verified"),
        (["invariants", "sphere:3,3"], 1, "stderr", "DegenerateOrder: "),
        (["tables", "C"], 2, "stderr", "invalid choice: 'C'"),
    ]:
        done = subprocess.run(
            [sys.executable, "-m", "kreckstolz.cli", *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert done.returncode == code, done.stderr
        assert text in getattr(done, stream)


@pytest.mark.parametrize(
    "argv, code, stderr_head",
    [
        (["invariants", "sphere:2,-1"], 0, ""),
        (["invariants", "sphere:1,1"], 1, "DegenerateOrder: "),
        (["invariants", "sphere:2,-1", "--no-such-flag"], 2, "usage: "),
    ],
    ids=["success", "domain_error", "usage_error"],
)
def test_console_entry_point_exits_with_the_status(argv, code, stderr_head, monkeypatch, capsys):
    # The installed `kreckstolz` script calls cli.main, which reads sys.argv.
    monkeypatch.setattr(sys, "argv", ["kreckstolz", *argv])
    with pytest.raises(SystemExit) as caught:
        main()
    assert caught.value.code == code
    out, err = out_err(capsys)
    assert err.startswith(stderr_head) and bool(err) == bool(stderr_head)
    if code == 0:
        assert out == (Path(__file__).parent / "golden" / "invariants_sphere.text").read_text(encoding="utf-8")
