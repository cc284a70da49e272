"""Tests for the descriptor grammars: parse_space, parse_source, parse_bundle_spec.

Round trips pin `parse_space` as the inverse of `eschenburg_descriptor`
over the bundled catalog and of `describe_bundle` over drawn specs.
Two hypothesis properties feed generated descriptor text to the parsers
and to the CLI: a parser returns or raises DomainError, and `cli.run`
ends with exit status 0, 1 or 2, never with an exception.
"""

from __future__ import annotations

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kreckstolz import (
    BundleSpec,
    DomainError,
    Family,
    describe_bundle,
    eschenburg_descriptor,
    fixture_profile,
    load_fixtures,
    parse_bundle_spec,
    parse_source,
    parse_space,
    profile,
)
from kreckstolz.cli import run

CATALOG = load_fixtures()
CATALOG_DESCRIPTORS = [eschenburg_descriptor(fx.space) for fx in CATALOG]


def _catalog():
    return CATALOG


def _no_catalog():
    raise AssertionError("only an Eschenburg descriptor may load the catalog")


# ---------------------------------------------------------------------------
# Round trips.
# ---------------------------------------------------------------------------


def test_eschenburg_descriptor_round_trip_over_the_catalog():
    first = {}
    for fx in CATALOG:
        first.setdefault(eschenburg_descriptor(fx.space), fx)
    # The catalog records one space twice, in opposite orientations; the
    # first line wins.
    assert len(first) < len(CATALOG)
    for descriptor in CATALOG_DESCRIPTORS:
        calls = []

        def load():
            calls.append(1)
            return CATALOG

        assert parse_space(descriptor, load) == (descriptor, fixture_profile(first[descriptor]))
        assert calls == [1]


def test_eschenburg_descriptor_needs_both_triples():
    with pytest.raises(DomainError) as caught:
        parse_space("eschenburg:1,1,-2", _no_catalog)
    assert str(caught.value) == "cannot parse 'eschenburg:1,1,-2': expected eschenburg:k1,k2,k3|l1,l2,l3"


params = st.integers(-200, 200)


@st.composite
def bundle_specs(draw):
    family = draw(st.sampled_from(Family))
    t = draw(params) if family in (Family.CIRCLE, Family.SPIN_CIRCLE) else None
    return BundleSpec(family, draw(params), draw(params), t=t)


def spec_text(spec: BundleSpec) -> str:
    return describe_bundle(spec.family, spec.a, spec.b, spec.t)


@given(bundle_specs())
def test_bundle_descriptor_round_trip(spec):
    text = spec_text(spec)
    try:
        expected = (text, profile(spec))
    except DomainError as exc:
        with pytest.raises(type(exc)) as caught:
            parse_space(text, _no_catalog)
        assert str(caught.value) == str(exc)
    else:
        assert parse_space(text, _no_catalog) == expected


# ---------------------------------------------------------------------------
# Generated descriptor text.
# ---------------------------------------------------------------------------

HEADS = ("sphere", "spin-sphere", "circle", "spin-circle", "eschenburg", "fixtures", "bogus", "")
KEYS = ("r", "start", "stop", "bound", "t", "x")
small = st.integers(-40, 40).map(str)
token = st.one_of(
    small,
    st.sampled_from(("", " ", "x", "1/2", "1.0", " 3", "+2", "--1") + KEYS),
    st.builds("{}={}".format, st.sampled_from(KEYS), small),
)
body = st.lists(token, max_size=7).map(",".join)
heads = st.sampled_from(HEADS)
# Free text is at most 16 characters long, too short to spell a sphere or
# circle source whose size is not bounded by the integers above.
descriptors = st.one_of(
    st.builds("{}:{}".format, heads, body),
    st.builds("{}:{}|{}".format, heads, body, body),
    heads,
    bundle_specs().map(spec_text),
    st.sampled_from(CATALOG_DESCRIPTORS),
    st.text(alphabet="0123456789-+,:|= abcehilnoprstuxyz", max_size=16),
    st.text(max_size=16),
)


@settings(deadline=None)
@given(descriptors)
def test_parsers_return_or_raise_domain_error(text):
    for parse in (
        lambda: parse_space(text, _catalog),
        lambda: parse_source(text, _catalog),
        lambda: parse_bundle_spec(text),
    ):
        try:
            parse()
        except DomainError:
            pass


@settings(deadline=None)
@given(descriptors, descriptors, st.sampled_from(("text", "tsv", "json")))
def test_cli_on_descriptor_text_exits_0_1_or_2(left, right, fmt):
    for argv in (
        ["invariants", left],
        ["classify", left, right],
        ["match", "--left", left, "--right", right],
    ):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = run(argv + ["--format", fmt])
        assert code in (0, 1, 2), argv
