"""rpmvercmp / EVR tests, including the property-based ordering laws."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RpmError
from repro.rpm import EVR, compare_evr, parse_evr, rpmvercmp
from repro.rpm.version import EVR_ORDER


class TestRpmVerCmp:
    """The documented RPM corner cases."""

    @pytest.mark.parametrize(
        "a, b, expected",
        [
            ("1.0", "1.0", 0),
            ("1.0", "2.0", -1),
            ("2.0", "1.0", 1),
            ("2.0.1", "2.0", 1),           # leftover content wins
            ("1.0a", "1.0", 1),             # trailing alpha beats nothing
            ("1.0a", "1.0b", -1),           # alpha strcmp
            ("10", "9", 1),                 # numeric, not lexicographic
            ("1.010", "1.10", 0),           # leading zeros stripped
            ("6.5", "6.3", 1),              # the XCBC 0.0.8 OS bump
            ("1.0~rc1", "1.0", -1),         # tilde pre-release sorts older
            ("1.0~rc1", "1.0~rc2", -1),
            ("1.0~~", "1.0~", -1),          # double tilde older still
            ("1.0.a", "1.0.1", -1),         # digits beat alphas
            ("a", "1", -1),
            ("1_0", "1.0", 0),              # separators equivalent
            ("2.6.32", "2.6.32-431", -1),   # extra segment is newer
            ("20140628", "4.6.5", 1),       # date-style versions compare big
        ],
    )
    def test_corner_cases(self, a, b, expected):
        assert rpmvercmp(a, b) == expected

    def test_antisymmetric_on_corners(self):
        cases = ["1.0", "1.0a", "1.0~rc1", "1.010", "2.0.1", "0.0.9"]
        for a in cases:
            for b in cases:
                assert rpmvercmp(a, b) == -rpmvercmp(b, a)


class TestEvr:
    def test_parse_full(self):
        evr = parse_evr("2:1.6.4-3")
        assert (evr.epoch, evr.version, evr.release) == (2, "1.6.4", "3")

    def test_parse_no_epoch_no_release(self):
        evr = parse_evr("4.6.5")
        assert (evr.epoch, evr.version, evr.release) == (0, "4.6.5", "")

    def test_str_roundtrip(self):
        for text in ("1.0-1", "2:1.0-1", "0.0.9"):
            assert str(parse_evr(text)) == text

    @pytest.mark.parametrize("bad", ["", "1.0 2", " 1.0", "1:2:3-4"])
    def test_malformed_rejected(self, bad):
        with pytest.raises(RpmError):
            parse_evr(bad)

    def test_epoch_dominates(self):
        assert parse_evr("1:0.1-1") > parse_evr("9.9-9")

    def test_version_dominates_release(self):
        assert parse_evr("1.1-1") > parse_evr("1.0-99")

    def test_missing_release_matches_any(self):
        # RPM's versioned-dependency rule: "openmpi >= 1.6" matches 1.6-4
        assert parse_evr("1.6") == parse_evr("1.6-4")

    def test_compare_evr_convenience(self):
        assert compare_evr("0.0.8", "0.0.9") == -1
        assert compare_evr("0.0.9-1", "0.0.9-1") == 0


# --- property-based ordering laws ----------------------------------------------

version_strings = st.from_regex(r"[0-9a-z]{1,4}(\.[0-9a-z]{1,4}){0,3}(~rc[0-9])?", fullmatch=True)


@given(version_strings)
@settings(max_examples=120)
def test_reflexive(v):
    assert rpmvercmp(v, v) == 0


@given(version_strings, version_strings)
@settings(max_examples=120)
def test_antisymmetric(a, b):
    assert rpmvercmp(a, b) == -rpmvercmp(b, a)


@given(version_strings, version_strings, version_strings)
@settings(max_examples=150)
def test_transitive(a, b, c):
    """If a<=b and b<=c then a<=c (checked over the <= relation)."""
    if rpmvercmp(a, b) <= 0 and rpmvercmp(b, c) <= 0:
        assert rpmvercmp(a, c) <= 0


@given(version_strings, version_strings)
@settings(max_examples=100)
def test_evr_total_ordering_consistent(a, b):
    ea, eb = parse_evr(a), parse_evr(b)
    assert (ea < eb) == (eb > ea)
    assert (ea == eb) == (eb == ea)
    # exactly one of <, ==, > holds
    assert sum([ea < eb, ea == eb, ea > eb]) == 1


evr_strings = st.tuples(
    version_strings, st.sampled_from(["", "-1", "-2", "-10"])
).map("".join)


@given(evr_strings, evr_strings)
@settings(max_examples=150)
def test_evr_operators_and_sort_order(a, b):
    """``<=``, ``>`` and ``>=`` are the dependency-matching ``_cmp`` (a
    missing release equals every release), each defined directly; the
    sort key ``EVR_ORDER`` agrees with it wherever it orders two EVRs and
    puts a missing release before every release of its version."""
    ea, eb = parse_evr(a), parse_evr(b)
    c = ea._cmp(eb)
    assert (ea < eb, ea <= eb, ea > eb, ea >= eb) == (c < 0, c <= 0, c > 0, c >= 0)
    order = ea._order(eb)
    assert order == -eb._order(ea)
    if c != 0:
        assert order == c
    elif bool(ea.release) != bool(eb.release):
        assert order == (1 if ea.release else -1)
    assert (EVR_ORDER(ea) < EVR_ORDER(eb)) == (order < 0)


@given(version_strings)
@settings(max_examples=80)
def test_tilde_suffix_always_older(v):
    assert rpmvercmp(v + "~beta", v) == -1
