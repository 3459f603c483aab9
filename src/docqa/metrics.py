"""Answer scoring: exact match, ANLS, relaxed accuracy, VQA accuracy.

Every per-example score is a float in [0, 1]; dataset_score aggregates a list
of them into the percentage reported for a benchmark. All string comparisons
share one normalization: lowercase, trim, collapse runs of whitespace.
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import DataError, check_choice

# Per-example scores are plain floats in [0, 1].
Score = float

DEFAULT_ANLS_TAU = 0.5


# The metric names a dataset config may carry.
MetricKind = ("exact_match", "anls", "relaxed_accuracy", "vqa_accuracy")


def normalize(text: str) -> str:
    """Lowercase, trim, and collapse internal whitespace to single spaces."""
    return " ".join(text.split()).lower()


def word_haystack(text: str) -> str:
    """The normalized text with one space on each side: the form
    contains_words searches. Build it once per context and reuse it for
    every needle."""
    return f" {normalize(text)} "


def contains_words(haystack: str, needle: str) -> bool:
    """True when the normalized needle is a non-empty run of whole words of
    the text `haystack` was built from by word_haystack: a span a reader
    could copy, so "2024" is not found in "2024-1" nor "1" in "$120"."""
    needle = normalize(needle)
    return bool(needle) and f" {needle} " in haystack


def levenshtein(a: str, b: str, cap: int | None = None) -> int:
    """Edit distance with unit-cost insert, delete, and substitute, capped.

    Returns the exact distance when it is at most `cap`, and `cap + 1`
    otherwise; `cap=None` means no cap. Two lower bounds on the distance
    return `cap + 1` before any bit work when they exceed `cap`: the length
    gap, and, under a cap below the longer length, the longer length minus
    the characters the strings share (counted with multiplicity; every
    matched pair of an alignment uses one). Otherwise the bit-parallel
    recurrence of Myers 1999, as Hyyrö 2001 states it, gives the exact
    distance: per character of the longer string, one column of the table
    held as two ints of vertical +1 and -1 deltas.

    Operates on Unicode code points; no grapheme clustering is attempted.
    """
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    n, m = len(a), len(b)
    if cap is None or cap > n:
        cap = n
    elif cap < 0:
        raise ValueError(f"cap must be non-negative, got {cap!r}")
    over = cap + 1
    if n - m > cap:
        return over
    if cap < n:
        # An alignment pairs at most the characters the strings share,
        # counted with multiplicity, and each other character of `a` costs an
        # edit, so n - shared is a lower bound on the distance.
        shared = 0
        for char in set(a).intersection(b):
            in_a, in_b = a.count(char), b.count(char)
            shared += in_a if in_a < in_b else in_b
        if n - shared > cap:
            return over
    if not b:
        return n
    # Bit j of a mask stands for row j + 1 of the current column, and every
    # `~` is masked to the m bits of the column. Row 0 of the last column is
    # n, so the distance is n plus that column's vertical deltas.
    match: dict[str, int] = {}
    for j, char in enumerate(b):
        match[char] = match.get(char, 0) | 1 << j
    full = (1 << m) - 1
    plus, minus = full, 0
    for char in a:
        eq = match.get(char, 0)
        xv = eq | minus
        xh = (((eq & plus) + plus) ^ plus) | eq
        h_plus = (minus | (full & ~(xh | plus))) << 1 | 1
        h_minus = (plus & xh) << 1
        plus = full & (h_minus | ~(xv | h_plus))
        minus = h_plus & xv
    return min(n + plus.bit_count() - minus.bit_count(), over)


def _require_golds(golds: Sequence[str]) -> None:
    if not golds:
        raise DataError("golds must be a non-empty list")


def anls_single(pred: str, golds: Sequence[str], tau: float = DEFAULT_ANLS_TAU) -> Score:
    """Normalized Levenshtein similarity against the closest gold.

    Per gold: 1 - distance / max(length), on normalized strings, with a pair
    of empty strings counting as a perfect match. The best similarity is kept
    if it reaches tau, otherwise the score is zero.

    Only distances that can reach tau are computed: a gold equal to the
    prediction returns 1.0 at once, and the rest go to levenshtein capped at
    floor((1 - tau) * longest) + 1. A gold past that cap has similarity
    below tau - 1 / longest, so it could never have been kept, and the +1
    keeps float rounding of the cap from dropping one that could. Scores are
    the same floats the full-table computation gives.
    """
    _require_golds(golds)
    # Exact types, as in docqa.errors: a bool is not a number.
    if type(tau) not in (int, float) or not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must lie in [0, 1], got {tau!r}")
    pred_n = normalize(pred)
    best = 0.0
    for gold in golds:
        gold_n = normalize(gold)
        if gold_n == pred_n:
            return 1.0
        longest = max(len(pred_n), len(gold_n))
        cap = math.floor((1.0 - tau) * longest) + 1
        distance = levenshtein(pred_n, gold_n, cap)
        if distance > cap:
            continue
        best = max(best, 1.0 - distance / longest)
    return best if best >= tau else 0.0


def exact_match(pred: str, golds: Sequence[str]) -> Score:
    """1 if the normalized prediction equals any normalized gold."""
    _require_golds(golds)
    pred_n = normalize(pred)
    return 1.0 if any(pred_n == normalize(gold) for gold in golds) else 0.0


def _parse_number(text: str) -> float | None:
    """Read a decimal number, tolerating surrounding whitespace, a percent
    sign, thousands commas, and a sign. The percent sign is stripped as
    formatting, not rescaled. Returns None when the text is not numeric."""
    stripped = text.strip()
    if stripped.endswith("%"):
        stripped = stripped[:-1].strip()
    stripped = stripped.replace(",", "")
    if not stripped:
        return None
    try:
        value = float(stripped)
    except ValueError:
        return None
    if value != value or value in (float("inf"), float("-inf")):
        return None
    return value


def relaxed_accuracy(pred: str, golds: Sequence[str]) -> Score:
    """Exact match that tolerates 5% numeric error (boundary inclusive).

    When both the prediction and a gold parse as numbers they match if
    |p - g| <= 0.05 * |g|; a zero gold therefore admits only a zero
    prediction. Non-numeric pairs fall back to normalized exact match, and
    matching any one gold scores 1.
    """
    _require_golds(golds)
    pred_num = _parse_number(pred)
    for gold in golds:
        gold_num = _parse_number(gold)
        if pred_num is not None and gold_num is not None:
            if abs(pred_num - gold_num) <= 0.05 * abs(gold_num):
                return 1.0
        elif normalize(pred) == normalize(gold):
            return 1.0
    return 0.0


def vqa_accuracy(pred: str, golds: Sequence[str]) -> Score:
    """min(matching annotator answers / 3, 1) over the whole gold answer panel.

    The VQA evaluation instead averages this over the leave-one-annotator-out
    subsets of the panel: for 1, 2 and 3 matches out of 10 answers it gives
    0.3, 0.6 and 0.9 where this gives 1/3, 2/3 and 1, so an example can score
    up to 10 points higher here.
    """
    _require_golds(golds)
    pred_n = normalize(pred)
    matches = sum(1 for gold in golds if normalize(gold) == pred_n)
    return min(matches / 3.0, 1.0)


def score(
    kind: str,
    pred: str,
    golds: Sequence[str],
    *,
    anls_tau: float = DEFAULT_ANLS_TAU,
) -> Score:
    """Apply the scoring function a dataset config names (one of MetricKind)."""
    if kind == "exact_match":
        return exact_match(pred, golds)
    if kind == "anls":
        return anls_single(pred, golds, anls_tau)
    if kind == "relaxed_accuracy":
        return relaxed_accuracy(pred, golds)
    if kind == "vqa_accuracy":
        return vqa_accuracy(pred, golds)
    check_choice("metric", kind, MetricKind)
    raise AssertionError(f"metric {kind!r} has no scorer")


def dataset_score(scores: Sequence[Score]) -> float:
    """Arithmetic mean of per-example scores, reported as a percentage."""
    if not scores:
        raise DataError("cannot aggregate an empty score list")
    return sum(scores) / len(scores) * 100.0
