import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from phrasefix import SubstituterConfig, load_lexicon
from phrasefix.distance import ALIGN_THRESHOLD, SpanScores, edit_distances, word_columns

from conftest import random_word
from distance_oracle import (align, f1_similarity, f2_synset, f3_word_order, lcs_length,
                             reference_score)
from distance_oracle import levenshtein as reference_levenshtein

# ASCII, Latin-1, a combining mark, CJK and two astral code points (emoji,
# musical symbol): the kernel keys its bit masks by code point
CODE_POINTS = "ab\xe9\u0301\u4e2d\U0001f600\U0001d11e"


def one_lane(a, b):
    """The kernel's distance of one pair: one word against a single lane."""
    return edit_distances((a,), (b,))[0][0]


class TestLevenshtein:
    @pytest.mark.parametrize("a,b,d", [
        ("abc", "abc", 0),
        ("cat", "cart", 1),
        ("kitten", "sitting", 3),
        ("", "abc", 3),
        ("cart", "cast", 1),
    ])
    def test_known_values(self, a, b, d):
        assert one_lane(a, b) == d

    def test_equals_reference_on_all_short_strings(self):
        strings = ["".join(t) for n in range(5) for t in itertools.product("abc", repeat=n)]
        for a in strings:
            for b in strings:
                assert one_lane(a, b) == reference_levenshtein(a, b), (a, b)

    def test_equals_reference_on_long_unicode_strings(self):
        rng = random.Random(23)
        for _ in range(300):
            a, b = ("".join(rng.choice(CODE_POINTS) for _ in range(rng.randint(0, 150)))
                    for _ in range(2))
            assert one_lane(a, b) == reference_levenshtein(a, b), (a, b)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(a=st.text(max_size=80), b=st.text(max_size=80))
    def test_equals_reference_property(self, a, b):
        assert one_lane(a, b) == reference_levenshtein(a, b)

    def test_metric_axioms(self):
        rng = random.Random(17)
        words = [random_word(rng, 1, 6) for _ in range(40)]
        d = edit_distances(words, words)
        for a, b, c in itertools.product(range(len(words)), repeat=3):
            assert d[a][b] == d[b][a]
            assert (d[a][b] == 0) == (words[a] == words[b])
            assert d[a][b] <= d[a][c] + d[c][b]


def random_strings(rng, count):
    """Empty strings and strings of ``CODE_POINTS`` up to 150 long, so that
    lanes start and end inside and across Python's 30-bit int digits."""
    return ["".join(rng.choice(CODE_POINTS) for _ in range(rng.choice((0, rng.randint(1, 150)))))
            for _ in range(count)]


class TestEditDistances:
    def reference_rows(self, words, others):
        return [[reference_levenshtein(a, b) for b in others] for a in words]

    def test_adjacent_short_lanes_equal_reference(self):
        # every string over "abc" of length 0-4 in one call: lanes of length
        # 0 to 4 side by side, where a carry or a shift could leak
        strings = ["".join(t) for n in range(5) for t in itertools.product("abc", repeat=n)]
        assert edit_distances(strings, strings) == self.reference_rows(strings, strings)

    def test_long_unicode_lanes_equal_reference(self):
        rng = random.Random(29)
        for _ in range(12):
            words = random_strings(rng, rng.randint(1, 4))
            others = random_strings(rng, rng.randint(0, 6))
            assert edit_distances(words, others) == self.reference_rows(words, others)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(words=st.lists(st.text(max_size=30), max_size=4),
           others=st.lists(st.text(max_size=30), max_size=6))
    def test_equals_reference_property(self, words, others):
        assert edit_distances(words, others) == self.reference_rows(words, others)

    def test_widest_field_among_short_lanes(self):
        # one 70-character lane makes every field 128 bits wide, read as its
        # lowest 64; the 1-character lanes around it sit in the same width
        rng = random.Random(41)
        others = ["a", "b", "".join(rng.choice("ab") for _ in range(70)), "a", ""]
        words = ["", "a", "ab" * 20, others[2], others[2][:64] + "b"]
        assert edit_distances(words, others) == self.reference_rows(words, others)

    def test_long_word_widens_the_counter(self):
        # short lanes fit 8-bit fields, but a 300-character word puts their
        # distances near 300, which needs 16
        rng = random.Random(43)
        words = ["".join(rng.choice("abc") for _ in range(300)), "a" * 255, "a" * 256]
        others = ["", "a", "abc", "cab", "aaaaaaa"]
        assert edit_distances(words, others) == self.reference_rows(words, others)

    @pytest.mark.parametrize("m", [7, 8, 15, 16, 31, 32, 63, 64])
    def test_lanes_at_each_field_width_edge(self, m):
        # a lane of W - 1 characters fills its field up to the guard bit
        rng = random.Random(m)
        others = ["".join(rng.choice("ab") for _ in range(k)) for k in (m, 1, m, 0, m - 1)]
        words = [others[0], "b" * m, "ab", "", "".join(rng.choice("ab") for _ in range(m + 3))]
        assert edit_distances(words, others) == self.reference_rows(words, others)

    def test_nul_and_low_control_characters(self):
        # the padding and guards are masked off whatever character they
        # would hold, so NUL and "\x01" count like any other character
        strings = ["\0", "\x01", "\0\0", "a\0b", "\x01\0\x01", "ab", "", "\0" * 9]
        assert edit_distances(strings, strings) == self.reference_rows(strings, strings)
        words = ["\0\xe9\U0001f600", "\x01a"]
        others = ["\0\U0001f600", "\xe9\x01", "a"]
        assert edit_distances(words, others) == self.reference_rows(words, others)

    def test_empty_others_and_empty_words(self):
        assert edit_distances(["abc", ""], []) == [[], []]
        assert edit_distances([], ["abc", ""]) == []
        assert edit_distances([""], ["abc", "", "a" * 70]) == [[3, 0, 70]]
        assert edit_distances([], []) == []

    def test_words_as_a_generator(self):
        others = ["cat", "cart", "dog", ""]
        words = ["cat", "dgo", "x" * 40]
        assert edit_distances((w for w in words), others) == \
            self.reference_rows(words, others)

    def test_word_columns_equal_pairwise_entries(self):
        rng = random.Random(37)
        vocabulary = sorted({random_word(rng, 1, 9) for _ in range(60)})
        # phrases of 1-4 words that repeat words, so that a slot can hold a
        # word twice and several words within reach
        phrases = [tuple(rng.choice(vocabulary) for _ in range(rng.randint(1, 4)))
                   for _ in range(40)]
        words = list(dict.fromkeys([random_word(rng, 1, 9) for _ in range(8)]
                                   + vocabulary[:2]))
        lexicon = load_lexicon(" ".join(words[:3] + vocabulary[5:8]) + "\n")
        columns = word_columns(words, phrases, lexicon)
        assert list(columns) == words
        for w in words:
            mates = lexicon.get(w, ())
            nearest, matched, reaches = columns[w]
            assert nearest == [min(reference_levenshtein(w, r) / max(len(w), len(r))
                                   for r in phrase) for phrase in phrases]
            assert matched == {slot for slot, phrase in enumerate(phrases)
                               if any(r == w or r in mates for r in phrase)}
            expected = {}
            for slot, phrase in enumerate(phrases):
                reach = sorted((reference_levenshtein(w, r), pos)
                               for pos, r in enumerate(phrase))
                if reach[0][0] < ALIGN_THRESHOLD:
                    expected[slot] = [(d, pos) for d, pos in reach if d < ALIGN_THRESHOLD]
            assert reaches == expected


class TestAlign:
    def test_identity_alignment(self):
        p = ("one", "two", "three")
        assert align(p, p, 3) == [(0, 0), (1, 1), (2, 2)]

    def test_one_to_one_under_duplicates(self):
        pairs = align(("cat", "cat"), ("cat",), 3)
        assert pairs == [(0, 0)]

    def test_pairs_respect_threshold_and_injectivity(self):
        rng = random.Random(5)
        words = [random_word(rng, 2, 5) for _ in range(12)]
        for _ in range(200):
            p = tuple(rng.choice(words) for _ in range(rng.randint(1, 5)))
            r = tuple(rng.choice(words) for _ in range(rng.randint(1, 5)))
            thr = rng.randint(1, 3)
            pairs = align(p, r, thr)
            assert len({i for i, _ in pairs}) == len(pairs)
            assert len({j for _, j in pairs}) == len(pairs)
            for i, j in pairs:
                assert reference_levenshtein(p[i], r[j]) < thr


class TestComponents:
    def test_f1_identity(self):
        assert f1_similarity(("a", "b"), ("a", "b")) == 1.0

    def test_f1_single_word_full_distance(self):
        assert f1_similarity(("cat",), ("dog",)) == pytest.approx(0.0)

    def test_f1_range_and_duplication_invariance(self):
        rng = random.Random(9)
        for _ in range(200):
            p = tuple(random_word(rng, 2, 5) for _ in range(rng.randint(1, 4)))
            r = tuple(random_word(rng, 2, 5) for _ in range(rng.randint(1, 4)))
            v = f1_similarity(p, r)
            assert 0.0 <= v <= 1.0
            assert f1_similarity(p, r + r) == pytest.approx(v)

    def test_f2_identity_with_empty_lexicon(self):
        p = ("one", "game", "wonder")
        assert f2_synset(p, p, {}) == 1.0

    def test_f2_synonym_pair_example(self):
        lex = load_lexicon("wonder surprise\n")
        p = ("one", "game", "surprise")
        r = ("one", "game", "wonder")
        assert f2_synset(p, r, lex) == 1.0

    def test_word_column_flags_identity_and_mates(self):
        # "auto" is a mate of "car" but too far from it to align
        phrases = [("car",), ("auto",), ("bar",)]
        _, mates, _ = word_columns(("car",), phrases, {})["car"]
        assert mates == {0}
        lex = load_lexicon("car auto\n")
        _, mates, reaches = word_columns(("car",), phrases, lex)["car"]
        assert mates == {0, 1}
        assert reaches == {0: [(0, 0)], 2: [(1, 0)]}

    def test_f2_disjoint(self):
        assert f2_synset(("aa", "bb"), ("cc", "dd"), {}) == 0.0

    def test_f3_sorted_indices(self):
        p = ("alpha", "beta", "gamma")
        assert f3_word_order(p, p, 3) == 1.0

    def test_f3_crossed_alignment_example(self):
        # alignment tags P=(1,2,3) against R=(1,3,2)
        p = ("alpha", "beta", "gamma")
        r = ("alpha", "gamma", "beta")
        assert f3_word_order(p, r, 2) == pytest.approx(2 / 3)

    def test_f3_no_aligned_pairs(self):
        p, r = ("aaaa",), ("zzzz",)
        assert f3_word_order(p, r, 2) == 0.0

    def test_lcs_properties(self):
        rng = random.Random(3)
        for _ in range(100):
            a = [rng.randint(0, 5) for _ in range(rng.randint(0, 8))]
            b = [rng.randint(0, 5) for _ in range(rng.randint(0, 8))]
            assert lcs_length(a, b) <= min(len(a), len(b))
            assert lcs_length(a, a) == len(a)


def pair_score(p, r, lexicon):
    """The kernel's score of R against P, from the columns stage 1 builds."""
    columns = word_columns(set(p), [r], lexicon)
    scores = SpanScores(1)
    for w in p:
        scores.fold(columns[w])
    (value,) = scores.values([0])
    return value


class TestCombinedScore:
    def test_identity_scores_one(self):
        p = ("the", "trade", "agreement")
        assert pair_score(p, p, {}) == pytest.approx(1.0)

    def test_hand_weighted_sum(self):
        lex = load_lexicon("beta gamma\n")
        p = ("alpha", "beta", "gamma")
        r = ("alpha", "gamma", "beta")
        f1 = f1_similarity(p, r)
        f2 = f2_synset(p, r, lex)
        expected = (f1 + f2 + 2 / 3) / 3
        assert pair_score(p, r, lex) == pytest.approx(expected)

    def test_exact_equal_weight_mean(self):
        # the exact floats, not approx: stage-1 ties are broken on them
        rng = random.Random(67)
        vocab = [random_word(rng, 2, 5) for _ in range(8)]
        lex = load_lexicon(" ".join(vocab[:3]) + "\n" + " ".join(vocab[3:5]) + "\n")
        for _ in range(200):
            p = tuple(rng.choice(vocab) for _ in range(rng.randint(1, 4)))
            r = tuple(rng.choice(vocab) for _ in range(rng.randint(1, 4)))
            assert pair_score(p, r, lex) == reference_score(p, r, lex)

    def test_value_in_unit_interval(self):
        rng = random.Random(21)
        lex = {}
        for _ in range(200):
            p = tuple(random_word(rng, 2, 5) for _ in range(rng.randint(1, 4)))
            r = tuple(random_word(rng, 2, 5) for _ in range(rng.randint(1, 4)))
            assert 0.0 <= pair_score(p, r, lex) <= 1.0 + 1e-12

    def test_invalid_config(self):
        # one similarity: a config takes no mode that would select another
        with pytest.raises(TypeError):
            SubstituterConfig(mode="C")
