"""The value rules of docqa.errors admit exactly the values their
definitions admit, each checked against an oracle written from the
definition rather than from the rule's own comparisons."""

import math
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docqa.errors import (
    FLOAT_MAX, check_choice, check_int, check_number, check_str, check_type
)

# Every edge the rules have been fooled by, or could be: bools, which Python
# counts as ints; ints past the float range, which compare as finite but
# overflow float(); nan and the infinities; the float range's own ends; the
# longest socket or lock timeout and one past it; empty strings; None.
EDGES = [
    True, False, None, 0, 1, -1, 0.0, -0.0, 0.5, 1.5,
    10**400, -(10**400), int(FLOAT_MAX), int(FLOAT_MAX) + 1, -int(FLOAT_MAX) - 1,
    FLOAT_MAX, -FLOAT_MAX, math.nan, math.inf, -math.inf,
    threading.TIMEOUT_MAX, threading.TIMEOUT_MAX + 1, sys.maxsize, sys.maxsize + 1,
    "", " ", "x", [], [1], {}, {"a": 1}, (), b"x",
]

VALUES = st.one_of(
    st.sampled_from(EDGES),
    st.integers(),
    st.floats(),
    st.text(max_size=3),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=1), st.integers(), max_size=1),
)

INT_BOUNDS = st.one_of(st.none(), st.integers(-3, 3), st.sampled_from([sys.maxsize]))
NUMBER_BOUNDS = st.one_of(
    st.none(), st.integers(-3, 3), st.floats(-3, 3), st.sampled_from([threading.TIMEOUT_MAX])
)

RULES = settings(max_examples=500, derandomize=True, deadline=None)


def admitted(rule, *args, **kwargs):
    """True when `rule` returns the value unchanged, False when it raises
    ValueError worded as "<name> must be <rule>, got <value!r>"."""
    value = args[1]
    try:
        result = rule(*args, **kwargs)
    except ValueError as exc:
        message = str(exc)
        assert message.startswith(f"{args[0]} must be ")
        assert message.endswith(f", got {value!r}")
        return False
    assert result is value
    return True


def finite(value):
    """A float that is not nan or infinite, or an int that a float holds."""
    if isinstance(value, float):
        return math.isfinite(value)
    return abs(value) <= int(sys.float_info.max)


@RULES
@given(value=VALUES, low=INT_BOUNDS, high=INT_BOUNDS)
def test_int_rule(value, low, high):
    expected = (
        type(value) is int
        and not isinstance(value, bool)
        and (low is None or value >= low)
        and (high is None or value <= high)
    )
    assert admitted(check_int, "n", value, low, high) == expected


@RULES
@given(value=VALUES, low=NUMBER_BOUNDS, high=NUMBER_BOUNDS, above=st.booleans())
def test_number_rule(value, low, high, above):
    expected = (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and finite(value)
        and (low is None or (value > low if above else value >= low))
        and (high is None or value <= high)
    )
    assert admitted(check_number, "x", value, low, high, above=above) == expected


@RULES
@given(value=VALUES)
def test_string_rules(value):
    is_str = isinstance(value, str)
    assert admitted(check_str, "s", value) == (is_str and len(value) > 0)
    assert admitted(check_type, "s", value, str) == is_str


@RULES
@given(value=VALUES, null=st.booleans())
def test_type_rule(value, null):
    for kind in (bool, list, dict):
        expected = isinstance(value, kind) or (null and value is None)
        assert admitted(check_type, "v", value, kind, null=null) == expected


NAMES = ["standard", "raster_scan", "shuffled"]

# A set of up to three names, given as each kind of collection docqa checks
# against: a tuple (OrderStrategy), a frozenset (KNOWN_FLAGS) and a sorted
# list of dict keys (the datasets of a config).
CHOICES = st.lists(st.sampled_from(NAMES), unique=True, max_size=3).flatmap(
    lambda names: st.sampled_from([tuple(names), frozenset(names), sorted(dict.fromkeys(names))])
)

# Strings that are, or nearly are, a name.
NEAR_MISSES = [" standard", "standard ", "Standard", "STANDARD", "raster-scan", "null", "None"]
CHOICE_VALUES = st.one_of(VALUES, st.sampled_from(NAMES + NEAR_MISSES))


@RULES
@given(value=CHOICE_VALUES, choices=CHOICES)
def test_choice_rule(value, choices):
    # A list or dict value is refused with ValueError, never hashed.
    expected = isinstance(value, str) and any(value == name for name in choices)
    assert admitted(check_choice, "v", value, choices) == expected
    if not expected:
        with pytest.raises(ValueError) as info:
            check_choice("v", value, choices)
        listing = str(info.value)[len("v must be "):-len(f", got {value!r}")]
        for name in choices:
            assert name in listing
        for stray in (", ,", ", or", " or ,", " or or", "one of ,", "one of or"):
            assert stray not in listing


@pytest.mark.parametrize("choices, value, listing", [
    ((), "x", "one of no names"),
    ((), None, "one of no names"),
    (("a",), "x", "a"),
    (("a",), None, "a"),
    (("a", "b"), "x", "a or b"),
    (("a", "b"), None, "a or b"),
    (("c", "a", "b"), "x", "one of c, a or b"),
    (("c", "a", "b"), None, "one of c, a or b"),
    (frozenset({"c", "a", "b"}), "x", "one of a, b or c"),
    ({"b": 1, "a": 2}, "x", "a or b"),
], ids=["0", "0 null", "1", "1 null", "2", "2 null", "3", "3 null", "set", "dict"])
def test_choice_wording_for_each_size(choices, value, listing):
    # A tuple keeps its order; a set or dict is listed sorted. Null is never
    # a choice, and the listing does not offer it.
    with pytest.raises(ValueError) as info:
        check_choice("v", value, choices)
    assert str(info.value) == f"v must be {listing}, got {value!r}"


@pytest.mark.parametrize("call, message", [
    (lambda: check_int("seed", -1, 0), "seed must be an integer >= 0, got -1"),
    (lambda: check_int("n", True), "n must be an integer, got True"),
    (lambda: check_int("len", 10, 0, 9), "len must be an integer in [0, 9], got 10"),
    (lambda: check_number("x", 10**400), f"x must be a finite number, got {10**400}"),
    (lambda: check_number("t", 0, 0, 5, above=True), "t must be a number in (0, 5], got 0"),
    (lambda: check_number("lp", 0.5, high=0), "lp must be a finite number <= 0, got 0.5"),
    (lambda: check_number("f", math.nan, 0, above=True), "f must be a finite number > 0, got nan"),
    (lambda: check_str("id", ""), "id must be a non-empty string, got ''"),
    (lambda: check_type("text", None, str), "text must be a string, got None"),
    (lambda: check_type("ok", 1, bool), "ok must be a boolean, got 1"),
    (lambda: check_type("tokens", {}, list, null=True), "tokens must be a list or null, got {}"),
    (lambda: check_type("params", [], dict), "params must be an object, got []"),
])
def test_rule_wording(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
