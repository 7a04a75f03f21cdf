import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from phrasefix import (SubstituterConfig, SynonymLexicon, levenshtein,
                       load_lexicon)
from phrasefix.distance import MODES, PhraseScore, word_table, word_term

from conftest import random_word
from distance_oracle import (align, count_inversions, f1_similarity, f2_synset,
                             f3_word_order, lcs_length, reference_score)
from distance_oracle import levenshtein as reference_levenshtein

# ASCII, Latin-1, a combining mark, CJK and two astral code points (emoji,
# musical symbol): the kernel keys its bit masks by code point
CODE_POINTS = "ab\xe9\u0301\u4e2d\U0001f600\U0001d11e"


class TestLevenshtein:
    @pytest.mark.parametrize("a,b,d", [
        ("abc", "abc", 0),
        ("cat", "cart", 1),
        ("kitten", "sitting", 3),
        ("", "abc", 3),
        ("cart", "cast", 1),
    ])
    def test_known_values(self, a, b, d):
        assert levenshtein(a, b) == d

    def test_equals_reference_on_all_short_strings(self):
        strings = ["".join(t) for n in range(5) for t in itertools.product("abc", repeat=n)]
        for a in strings:
            for b in strings:
                assert levenshtein(a, b) == reference_levenshtein(a, b), (a, b)

    def test_equals_reference_on_long_unicode_strings(self):
        rng = random.Random(23)
        for _ in range(300):
            a, b = ("".join(rng.choice(CODE_POINTS) for _ in range(rng.randint(0, 150)))
                    for _ in range(2))
            assert levenshtein(a, b) == reference_levenshtein(a, b), (a, b)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(a=st.text(max_size=80), b=st.text(max_size=80))
    def test_equals_reference_property(self, a, b):
        assert levenshtein(a, b) == reference_levenshtein(a, b)

    def test_metric_axioms(self):
        rng = random.Random(17)
        words = [random_word(rng, 1, 6) for _ in range(40)]
        for _ in range(500):
            a, b, c = (rng.choice(words) for _ in range(3))
            dab, dba = levenshtein(a, b), levenshtein(b, a)
            assert dab == dba
            assert (dab == 0) == (a == b)
            assert dab <= levenshtein(a, c) + levenshtein(c, b)


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
                assert levenshtein(p[i], r[j]) < thr


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
        assert f2_synset(p, p, SynonymLexicon()) == 1.0

    def test_f2_synonym_pair_example(self):
        lex = load_lexicon("wonder surprise\n")
        p = ("one", "game", "surprise")
        r = ("one", "game", "wonder")
        assert f2_synset(p, r, lex) == 1.0

    def test_f2_disjoint(self):
        assert f2_synset(("aa", "bb"), ("cc", "dd"), SynonymLexicon()) == 0.0

    def test_f3_sorted_indices(self):
        p = ("alpha", "beta", "gamma")
        for mode, expected in [("rigid", 1.0), ("lcs", 1.0), ("inversion", 1.0)]:
            assert f3_word_order(p, p, mode, 3) == expected

    def test_f3_crossed_alignment_example(self):
        # alignment tags P=(1,2,3) against R=(1,3,2)
        p = ("alpha", "beta", "gamma")
        r = ("alpha", "gamma", "beta")
        assert f3_word_order(p, r, "lcs", 2) == pytest.approx(2 / 3)
        assert f3_word_order(p, r, "inversion", 2) == pytest.approx(1 / 2)
        assert f3_word_order(p, r, "rigid", 2) is None

    def test_f3_no_aligned_pairs(self):
        p, r = ("aaaa",), ("zzzz",)
        assert f3_word_order(p, r, "lcs", 2) == 0.0
        assert f3_word_order(p, r, "inversion", 2) == 0.0
        assert f3_word_order(p, r, "rigid", 2) is None

    def test_inversion_counts(self):
        for m in range(1, 8):
            assert count_inversions(list(range(m, 0, -1))) == m * (m - 1) // 2
            assert count_inversions(list(range(m))) == 0

    def test_lcs_properties(self):
        rng = random.Random(3)
        for _ in range(100):
            a = [rng.randint(0, 5) for _ in range(rng.randint(0, 8))]
            b = [rng.randint(0, 5) for _ in range(rng.randint(0, 8))]
            assert lcs_length(a, b) <= min(len(a), len(b))
            assert lcs_length(a, a) == len(a)


def pair_score(p, r, lexicon, mode):
    """The kernel's score of R against P, from the tables stage 1 builds."""
    state = PhraseScore(mode)
    for w in p:
        state.add(word_term(word_table(w, r, lexicon), r))
    return state.value()


class TestCombinedScore:
    @pytest.mark.parametrize("mode", ["A", "B", "C", "D"])
    def test_identity_scores_one(self, mode):
        p = ("the", "trade", "agreement")
        assert pair_score(p, p, SynonymLexicon(), mode) == pytest.approx(1.0)

    def test_mode_b_rejects_crossed_permutation(self):
        p = ("alpha", "beta", "gamma")
        r = ("gamma", "alpha", "beta")
        assert pair_score(p, r, SynonymLexicon(), "B") is None

    def test_mode_c_hand_weighted_sum(self):
        lex = load_lexicon("beta gamma\n")
        p = ("alpha", "beta", "gamma")
        r = ("alpha", "gamma", "beta")
        f1 = f1_similarity(p, r)
        f2 = f2_synset(p, r, lex)
        expected = (f1 + f2 + 2 / 3) / 3
        assert pair_score(p, r, lex, "C") == pytest.approx(expected)

    @pytest.mark.parametrize("mode", MODES)
    def test_exact_equal_weight_mean(self, mode):
        # the exact floats, not approx: stage-1 ties are broken on them
        rng = random.Random(ord(mode))
        vocab = [random_word(rng, 2, 5) for _ in range(8)]
        lex = load_lexicon(" ".join(vocab[:3]) + "\n" + " ".join(vocab[3:5]) + "\n")
        rejected = 0
        for _ in range(200):
            p = tuple(rng.choice(vocab) for _ in range(rng.randint(1, 4)))
            r = tuple(rng.choice(vocab) for _ in range(rng.randint(1, 4)))
            expected = reference_score(p, r, lex, mode)
            rejected += expected is None
            assert pair_score(p, r, lex, mode) == expected
        assert rejected if mode == "B" else not rejected

    def test_value_in_unit_interval(self):
        rng = random.Random(21)
        lex = SynonymLexicon()
        for _ in range(200):
            p = tuple(random_word(rng, 2, 5) for _ in range(rng.randint(1, 4)))
            r = tuple(random_word(rng, 2, 5) for _ in range(rng.randint(1, 4)))
            v = pair_score(p, r, lex, rng.choice(MODES))
            assert v is None or 0.0 <= v <= 1.0 + 1e-12

    def test_invalid_config(self):
        # the mode is checked where a caller sets it
        with pytest.raises(ValueError):
            SubstituterConfig(mode="E")
