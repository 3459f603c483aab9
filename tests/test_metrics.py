import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from docqa.errors import DataError
from docqa.metrics import (
    anls_single,
    contains_words,
    dataset_score,
    exact_match,
    levenshtein,
    normalize,
    relaxed_accuracy,
    score,
    vqa_accuracy,
    word_haystack,
)
from oracles import oracle_anls, oracle_levenshtein, random_unicode_string

short_text = st.text(max_size=10)
# A small alphabet makes near matches, and so distances near a cap, common.
small_alphabet_text = st.text(alphabet="abc ", max_size=12)
# Two alphabets sharing only "c": pairs share few characters, so the
# shared-character bound, not the length gap, decides most capped calls.
left_text = st.text(alphabet="abc", max_size=12)
right_text = st.text(alphabet="cxyz", max_size=12)


def edit_randomly(rng: random.Random, text: str, pool: str, edits: int) -> str:
    """`text` after `edits` random inserts, deletes and substitutions, each
    new character drawn from `pool`."""
    chars = list(text)
    for _ in range(edits):
        at = rng.randrange(len(chars) + 1)
        kind = rng.randrange(3) if at < len(chars) else 0
        if kind == 0:
            chars.insert(at, rng.choice(pool))
        elif kind == 1:
            del chars[at]
        else:
            chars[at] = rng.choice(pool)
    return "".join(chars)


class TestNormalize:
    def test_lowercases_trims_and_collapses(self):
        assert normalize("  The\tTotal \n Due ") == "the total due"

    def test_empty_and_whitespace_only(self):
        assert normalize("") == ""
        assert normalize(" \n\t ") == ""


class TestContainsWords:
    def test_whole_word_run_found(self):
        assert contains_words(word_haystack("Total due: $120 paid"), "due: $120")

    def test_word_prefix_or_suffix_not_found(self):
        assert not contains_words(word_haystack("ref 2024-1"), "2024")
        assert not contains_words(word_haystack("$120"), "1")
        assert not contains_words(word_haystack("new yorker"), "new york")

    def test_empty_needle_not_found(self):
        assert not contains_words(word_haystack("x"), "")
        assert not contains_words(word_haystack("x"), "   ")

    def test_needle_is_whole_haystack(self):
        assert contains_words(word_haystack(" March\n"), "march")


class TestLevenshtein:
    def test_identical_strings(self):
        assert levenshtein("abc", "abc") == 0

    def test_inserts_from_empty(self):
        assert levenshtein("", "abc") == 3

    def test_kitten_sitting(self):
        # Classic worked example: 2 substitutions plus 1 insertion.
        assert levenshtein("kitten", "sitting") == 3

    def test_matches_dp_oracle_on_random_unicode(self):
        rng = random.Random(1)
        for _ in range(300):
            a = random_unicode_string(rng)
            b = random_unicode_string(rng)
            assert levenshtein(a, b) == oracle_levenshtein(a, b), (a, b)

    @given(a=short_text, b=short_text)
    def test_symmetry(self, a, b):
        assert levenshtein(a, b) == levenshtein(b, a)

    @given(a=short_text, b=short_text)
    def test_zero_iff_equal(self, a, b):
        assert (levenshtein(a, b) == 0) == (a == b)

    @given(a=short_text, b=short_text, c=short_text)
    def test_triangle_inequality(self, a, b, c):
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)

    @given(a=small_alphabet_text, b=small_alphabet_text, cap=st.integers(0, 14))
    def test_cap_is_exact_up_to_cap_and_over_it_beyond(self, a, b, cap):
        expected = oracle_levenshtein(a, b)
        if expected <= cap:
            assert levenshtein(a, b, cap) == expected
        else:
            assert levenshtein(a, b, cap) == cap + 1

    @given(a=left_text, b=right_text, cap=st.integers(0, 14))
    def test_cap_is_exact_when_the_strings_share_few_characters(self, a, b, cap):
        expected = oracle_levenshtein(a, b)
        if expected <= cap:
            assert levenshtein(a, b, cap) == expected
        else:
            assert levenshtein(a, b, cap) == cap + 1

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError):
            levenshtein("a", "b", -1)

    @pytest.mark.parametrize("alphabet", ["ab", "abcdefghij", "unicode"])
    def test_matches_dp_oracle_on_long_strings_at_every_cap(self, alphabet):
        # Up to 200 characters, so the bit vectors run past 64 bits. Every
        # other pair is a string and an edited copy of it, for distances well
        # under the length, as ANLS sees them.
        rng = random.Random(f"long-{alphabet}")
        pool = "é中𝄞x" if alphabet == "unicode" else alphabet

        def draw():
            if alphabet == "unicode":
                return random_unicode_string(rng, 200)
            return "".join(rng.choice(alphabet) for _ in range(rng.randrange(201)))

        for k in range(16):
            a = draw()
            b = draw() if k % 2 else edit_randomly(rng, a, pool, rng.randrange(1, 40))
            d = oracle_levenshtein(a, b)
            for cap in (None, 0, d - 1, d, d + 1, 64):
                if cap is not None and cap < 0:
                    continue
                expected = d if cap is None or d <= cap else cap + 1
                assert levenshtein(a, b, cap) == expected, (a, b, cap)


class TestAnls:
    def test_exact_answer(self):
        assert anls_single("hello", ["hello"], 0.5) == 1.0

    def test_one_edit_away(self):
        # distance 1 over max length 5
        assert anls_single("helo", ["hello"], 0.5) == pytest.approx(0.8)

    def test_below_threshold_zeroes(self):
        assert anls_single("abc", ["xyz"], 0.5) == 0.0

    def test_best_gold_wins(self):
        assert anls_single("hello", ["xyz", "hello"], 0.5) == 1.0

    def test_both_empty_scores_one(self):
        assert anls_single("", [""], 0.5) == 1.0

    def test_one_side_empty_scores_zero(self):
        assert anls_single("", ["abc"], 0.5) == 0.0

    def test_normalization_applies(self):
        assert anls_single("  HELLO ", ["hello"], 0.5) == 1.0

    def test_empty_golds_rejected(self):
        with pytest.raises(DataError):
            anls_single("x", [], 0.5)

    def test_gold_sharing_no_character_scores_zero(self):
        # tau 0.5 caps the distance at 8, and the length gap is 7, but the
        # strings share no character, so the distance is at least 14.
        assert oracle_levenshtein("unknown", "flabeam deacis") == 14
        assert levenshtein("unknown", "flabeam deacis", 8) == 9
        assert anls_single("unknown", ["flabeam deacis"], 0.5) == 0.0

    def test_tau_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            anls_single("x", ["x"], 1.5)

    @pytest.mark.parametrize("tau", [True, False, "0.5", None], ids=repr)
    def test_tau_that_is_not_a_number_rejected(self, tau):
        # True used to be taken as 1.0, and False as 0.0.
        with pytest.raises(ValueError) as info:
            anls_single("x", ["x"], tau)
        assert str(info.value) == f"tau must lie in [0, 1], got {tau!r}"

    def test_matches_recomputation_oracle(self):
        rng = random.Random(2)
        for _ in range(200):
            pred = random_unicode_string(rng)
            golds = [random_unicode_string(rng) for _ in range(rng.randint(1, 4))]
            tau = rng.choice([0.0, 0.25, 0.5, 0.8, 1.0])
            assert anls_single(pred, golds, tau) == oracle_anls(pred, golds, tau)

    def test_matches_oracle_with_a_gold_past_100_characters(self):
        # The cap and the bit vectors both run past 64. The edit counts put
        # the similarity on both sides of tau.
        rng = random.Random("long-gold")
        words = "total due invoice march $120.00 acct no. école 中文 paid".split()
        for edits in (5, 30, 55, 90):
            gold = ""
            while len(gold) <= 100:
                gold += rng.choice(words) + " "
            pred = edit_randomly(rng, gold, "abc é", edits)
            golds = [random_unicode_string(rng, 200), gold]
            assert anls_single(pred, golds, 0.5) == oracle_anls(pred, golds, 0.5)

    @given(data=st.data())
    def test_cap_boundary_matches_oracle_exactly(self, data):
        # tau * longest is an integer, so (1 - tau) * longest is the largest
        # distance that still reaches tau, up to float rounding. The gold sits
        # at that distance or one edit more.
        longest = data.draw(st.integers(1, 12))
        kept = data.draw(st.integers(0, longest))
        tau = kept / longest
        limit = longest - kept
        distance = data.draw(st.sampled_from([limit, limit + 1]).filter(lambda d: d <= longest))
        pred = data.draw(st.text(alphabet="ab", min_size=longest, max_size=longest))
        positions = data.draw(st.permutations(range(longest)))[:distance]
        gold = "".join("c" if i in positions else c for i, c in enumerate(pred))
        golds = data.draw(st.permutations([gold, data.draw(small_alphabet_text)]))
        assert oracle_levenshtein(pred, gold) == distance
        assert anls_single(pred, golds, tau) == oracle_anls(pred, golds, tau)

    @given(pred=short_text, gold=short_text, tau_lo=st.floats(0, 1), tau_hi=st.floats(0, 1))
    def test_monotone_non_increasing_in_tau(self, pred, gold, tau_lo, tau_hi):
        lo, hi = sorted((tau_lo, tau_hi))
        assert anls_single(pred, [gold], hi) <= anls_single(pred, [gold], lo)

    @given(pred=short_text, extra=short_text, tau=st.floats(0, 1))
    def test_exact_match_implies_full_anls(self, pred, extra, tau):
        golds = [extra, pred]
        if exact_match(pred, golds) == 1.0:
            assert anls_single(pred, golds, tau) == 1.0

    @given(gold=short_text)
    def test_tau_zero_with_matching_gold(self, gold):
        assert anls_single(gold, [gold], 0.0) == 1.0


class TestExactMatch:
    def test_case_insensitive(self):
        assert exact_match("Paris", ["paris"]) == 1.0

    def test_mismatch(self):
        assert exact_match("Paris", ["London"]) == 0.0

    def test_any_gold(self):
        assert exact_match("x", ["y", "x"]) == 1.0

    def test_empty_golds_rejected(self):
        with pytest.raises(DataError):
            exact_match("x", [])


class TestRelaxedAccuracy:
    @pytest.mark.parametrize(
        "pred, gold, expected",
        [
            ("105", "100", 1.0),   # exactly on the 5% boundary, inclusive
            ("106", "100", 0.0),   # just past it
            ("95", "100", 1.0),
            ("94.9", "100", 0.0),
            ("5%", "5", 1.0),      # percent sign is formatting
            ("1,000", "1000", 1.0),
            ("1,050", "1000", 1.0),
            ("-42", "-40", 1.0),   # 5% of |-40| is 2
            ("-43", "-40", 0.0),
            (" 3.14 ", "3.2", 1.0),
            ("0", "0", 1.0),
            ("0.001", "0", 0.0),   # zero gold admits only zero
            ("cat", "cat", 1.0),   # non-numeric falls back to exact match
            ("cat", "dog", 0.0),
            ("10%", "0.1", 0.0),   # percent strips, it does not rescale
        ],
    )
    def test_parser_table(self, pred, gold, expected):
        assert relaxed_accuracy(pred, [gold]) == expected

    def test_any_gold_rule_mixes_numeric_and_text(self):
        assert relaxed_accuracy("105", ["cat", "100"]) == 1.0
        assert relaxed_accuracy("cat", ["100", "cat"]) == 1.0

    def test_empty_golds_rejected(self):
        with pytest.raises(DataError):
            relaxed_accuracy("1", [])

    @given(pred=short_text, gold=short_text)
    def test_non_numeric_inputs_reduce_to_exact_match(self, pred, gold):
        # Strip digits so neither side can parse as a number.
        pred_t = "".join(c for c in pred if not c.isdigit()) + "x"
        gold_t = "".join(c for c in gold if not c.isdigit()) + "x"
        assert relaxed_accuracy(pred_t, [gold_t]) == exact_match(pred_t, [gold_t])


class TestVqaAccuracy:
    def test_three_or_more_matches_saturate(self):
        golds = ["cat"] * 3 + ["dog"] * 7
        assert vqa_accuracy("cat", golds) == 1.0

    def test_single_match(self):
        golds = ["cat"] + ["dog"] * 9
        assert vqa_accuracy("cat", golds) == pytest.approx(1 / 3)

    def test_two_matches(self):
        golds = ["cat", "cat"] + ["dog"] * 8
        assert vqa_accuracy("cat", golds) == pytest.approx(2 / 3)

    def test_no_match(self):
        assert vqa_accuracy("bird", ["cat", "dog"]) == 0.0

    def test_empty_golds_rejected(self):
        with pytest.raises(DataError):
            vqa_accuracy("x", [])


class TestDatasetScore:
    def test_mean_as_percentage(self):
        assert dataset_score([1, 1, 0, 0]) == 50.0

    def test_singleton(self):
        assert dataset_score([1]) == 100.0

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            dataset_score([])

    def test_against_summation_oracle(self):
        rng = random.Random(4)
        values = [rng.random() for _ in range(1000)]
        expected = math.fsum(values) / len(values) * 100.0
        assert dataset_score(values) == pytest.approx(expected, abs=1e-9)


class TestDispatch:
    def test_each_kind_routes_to_its_function(self):
        assert score("exact_match", "a", ["a"]) == 1.0
        assert score("anls", "helo", ["hello"]) == pytest.approx(0.8)
        assert score("relaxed_accuracy", "105", ["100"]) == 1.0
        assert score("vqa_accuracy", "a", ["a", "b", "c"]) == pytest.approx(1 / 3)

    def test_anls_tau_is_forwarded(self):
        assert score("anls", "helo", ["hello"], anls_tau=0.9) == 0.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError) as info:
            score("bleu", "a", ["a"])
        assert str(info.value) == (
            "metric must be one of exact_match, anls, relaxed_accuracy or vqa_accuracy, "
            "got 'bleu'"
        )
