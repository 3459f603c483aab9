"""Exception types and the value rules shared across the toolkit.

The CLI maps these exceptions onto exit codes, so library code should raise
the most specific class that applies: DataError for anything wrong with input
files or record contents, EndpointError for inference endpoint trouble.

Every value docqa reads, from a file, an endpoint reply, a config file or an
argument, is checked here, by one rule per kind of value. A rule returns the
value unchanged when it admits it and otherwise raises
ValueError("<name> must be <rule>, got <value!r>"). Types are exact: a bool
is never an integer or a number, and nothing is coerced. A missing field is
read as None, so the field's own rule refuses it.
"""

import sys

# A number is finite iff it lies within +-FLOAT_MAX: nan fails every bound,
# and so does an int too large for a float, which float() would refuse with
# OverflowError.
FLOAT_MAX = sys.float_info.max

_KINDS = {bool: "a boolean", str: "a string", list: "a list", dict: "an object"}


class DataError(ValueError):
    """Input data violates the schema or an invariant."""


class EndpointError(RuntimeError):
    """The inference endpoint failed, timed out, or answered out of contract."""


def _fault(name: str, kind: str, value, low=None, high=None, above=False) -> ValueError:
    if low is not None and high is not None:
        kind += f" in {'(' if above else '['}{low}, {high}]"
    elif low is not None:
        kind += f" {'>' if above else '>='} {low}"
    elif high is not None:
        kind += f" <= {high}"
    return ValueError(f"{name} must be {kind}, got {value!r}")


def check_int(name: str, value, low: int | None = None, high: int | None = None) -> int:
    """An int (never a bool) from `low` to `high`, inclusive; None is no bound."""
    if type(value) is int and (low is None or low <= value) and (high is None or value <= high):
        return value
    raise _fault(name, "an integer", value, low, high)


def check_number(
    name: str, value, low: float | None = None, high: float | None = None, *, above: bool = False
) -> int | float:
    """A finite int or float (never a bool) from `low` to `high`, inclusive
    unless `above` makes `low` exclusive; None is no bound."""
    if (
        type(value) in (int, float)
        and -FLOAT_MAX <= value <= FLOAT_MAX
        and (low is None or low < value or (low == value and not above))
        and (high is None or value <= high)
    ):
        return value
    kind = "a finite number" if low is None or high is None else "a number"
    raise _fault(name, kind, value, low, high, above)


def check_str(name: str, value) -> str:
    """A non-empty str; check_type(name, value, str) also admits ""."""
    if type(value) is str and value:
        return value
    raise _fault(name, "a non-empty string", value)


def check_type(name: str, value, kind: type, *, null: bool = False):
    """A value of type `kind` (bool, str, list or dict), or None when `null`."""
    if type(value) is kind or (null and value is None):
        return value
    raise _fault(name, _KINDS[kind] + (" or null" if null else ""), value)


def check_choice(name: str, value, choices):
    """One of the strings in `choices`. The fault lists the names in order
    when `choices` is a tuple or list, sorted otherwise."""
    if type(value) is str and value in choices:
        return value
    names = list(choices) if isinstance(choices, (tuple, list)) else sorted(choices)
    if len(names) > 2:
        kind = f"one of {', '.join(names[:-1])} or {names[-1]}"
    else:
        kind = " or ".join(names) or "one of no names"
    raise _fault(name, kind, value)
