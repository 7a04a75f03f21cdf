import math
import random

import pytest

from phrasefix import (NoiseSpec, bleu, corpus_perplexity, inject_noise,
                       load_lexicon, modified_precision, parse_arpa, train_counts)

from conftest import random_word
from distance_oracle import levenshtein

# the first reference of Papineni et al.'s (2002) worked examples
CAT_REF = ("the", "cat", "is", "on", "the", "mat")


class TestModifiedPrecision:
    def test_seven_the_clips_to_two(self):
        cand = ("the",) * 7
        assert modified_precision(cand, CAT_REF, 1) == (2, 7)

    def test_the_cat_unigrams_and_bigram(self):
        cand = ("the", "cat")
        assert modified_precision(cand, CAT_REF, 1) == (2, 2)
        assert modified_precision(cand, CAT_REF, 2) == (1, 1)

    def test_candidate_shorter_than_n(self):
        assert modified_precision(("x",), CAT_REF, 2) == (0, 0)


class TestBleu:
    def test_perfect_match_scores_one(self):
        assert bleu([CAT_REF], [CAT_REF]) == pytest.approx(1.0)

    def test_zero_overlap_scores_zero(self):
        assert bleu([("x", "y", "z", "w", "v")], [CAT_REF]) == 0.0

    def test_missing_higher_order_match_scores_zero(self):
        # all unigrams match but no bigram does, so BLEU-4 collapses to 0
        cand = [("cat", "the", "mat", "on", "is")]
        assert bleu(cand, [CAT_REF]) == 0.0

    def test_hand_computed_corpus_value(self):
        cands = [("the", "cat", "is", "on", "the", "mat"),
                 ("there", "is", "a", "cat", "on", "a", "mat")]
        refs = [CAT_REF, ("there", "is", "a", "cat", "on", "the", "mat")]
        # aggregate counts over both segments, per order
        precisions = []
        for n in range(1, 5):
            m = t = 0
            for cand, ref in zip(cands, refs):
                mm, tt = modified_precision(cand, ref, n)
                m += mm
                t += tt
            precisions.append(m / t)
        c, r = 13, 13
        expected = math.exp(1 - r / c) * math.exp(
            sum(math.log(p) for p in precisions) / 4)
        assert bleu(cands, refs) == pytest.approx(expected)

    def test_brevity_penalty_applied_only_when_short(self):
        ref = ("a", "b", "c", "d", "e")
        short = [("a", "b", "c", "d")]
        # all 1..4-grams of the short candidate appear in the reference
        val = bleu(short, [ref])
        assert val == pytest.approx(math.exp(1 - 5 / 4))
        assert bleu([ref], [("a", "b", "c", "d")]) < 1.0  # extra gram hurts
        # equal length: penalty is exp(0) = 1
        assert bleu([ref], [ref]) == pytest.approx(1.0)

    def test_corpus_level_not_mean_of_segments(self):
        cands = [("a", "b", "c", "d"), ("a", "b", "c", "d", "e")]
        refs = [("a", "b", "c", "d", "x"), ("a", "b", "c", "d", "e")]
        whole = bleu(cands, refs)
        per_segment = [bleu([c], [r]) for c, r in zip(cands, refs)]
        assert whole != pytest.approx(sum(per_segment) / 2)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            bleu([("a",)], [])
        with pytest.raises(ValueError):
            bleu([], [])


UNIFORM = """\\data\\
ngram 1=2

\\1-grams:
-0.301029995663981\taa
-0.301029995663981\tbb

\\end\\
"""


class TestCorpusPerplexity:
    def test_uniform_unigram_gives_two(self):
        lm = parse_arpa(UNIFORM)
        sents = [("aa", "bb"), ("bb", "aa", "aa")]
        assert corpus_perplexity(lm, sents) == pytest.approx(2.0)

    def test_duplicating_corpus_leaves_value_unchanged(self):
        lm = train_counts([("a", "b", "c"), ("b", "c", "a")], 2)
        sents = [("a", "b", "c"), ("c", "b")]
        once = corpus_perplexity(lm, sents)
        assert corpus_perplexity(lm, sents * 3) == pytest.approx(once)

    def test_token_weighted_hand_oracle(self):
        lm = train_counts([("a", "b", "c"), ("b", "c", "a")], 2)
        sents = [("a", "b", "c"), ("c", "b")]
        total = 0.0
        terms = 0
        for sent in sents:
            for i in range(1, len(sent)):
                total -= lm.score_sequence(sent[i - 1:i] + (sent[i],), 1) / math.log10(2)
                terms += 1
        assert corpus_perplexity(lm, sents) == pytest.approx(2 ** (total / terms))

    def test_is_ten_to_minus_mean_score_sequence(self):
        rng = random.Random(9)
        for order in (1, 2, 3, 4):
            vocab = [random_word(rng, 2, 4) for _ in range(6)]
            lm = train_counts([tuple(rng.choice(vocab) for _ in range(rng.randint(2, 8)))
                               for _ in range(20)], order)
            sents = [tuple(rng.choice(vocab + ["<oov>"]) for _ in range(rng.randint(1, 9)))
                     for _ in range(15)]
            total = 0.0  # left to right, as floats add (not sum()'s compensated sum)
            terms = 0
            for s in sents:
                if len(s) >= order:
                    total += lm.score_sequence(s, order - 1)
                    terms += len(s) - order + 1
            assert corpus_perplexity(lm, sents) == 10 ** -(total / terms)

    @pytest.mark.parametrize("logprob", ["-400", "-1e308"])
    def test_beyond_float_range_rejected(self, logprob):
        # -400 per word overflows the power; -1e308 the sum itself
        lm = parse_arpa(f"\\data\\\nngram 1=2\n\n\\1-grams:\n{logprob} a\n{logprob} b\n"
                        "\n\\end\\\n")
        with pytest.raises(ValueError, match="^perplexity exceeds the float range$"):
            corpus_perplexity(lm, [("a", "b", "a")])

    def test_sentences_below_order_skipped(self):
        lm = train_counts([("a", "b", "c", "d")] * 2, 3)
        long_only = corpus_perplexity(lm, [("a", "b", "c", "d")])
        mixed = corpus_perplexity(lm, [("a", "b", "c", "d"), ("a",), ("a", "b")])
        assert mixed == pytest.approx(long_only)

    def test_empty_or_all_short_rejected(self):
        lm = train_counts([("a", "b", "c")] * 2, 3)
        with pytest.raises(ValueError):
            corpus_perplexity(lm, [])
        with pytest.raises(ValueError):
            corpus_perplexity(lm, [("a", "b")])


class TestInjectNoise:
    def test_zero_ops_is_identity(self):
        s = ("keep", "this", "sentence")
        assert inject_noise(s, NoiseSpec(seed=5)) == s

    def test_deterministic_per_sentence_and_seed(self):
        spec = NoiseSpec(seed=42, swap_adjacent=1, typo_char=1)
        s = ("some", "ordinary", "words", "here")
        assert inject_noise(s, spec) == inject_noise(s, spec)

    def test_different_seeds_eventually_differ(self):
        s = ("alpha", "bravo", "charlie", "delta", "echo")
        outs = {inject_noise(s, NoiseSpec(seed=i, swap_adjacent=1, typo_char=1))
                for i in range(20)}
        assert len(outs) > 1

    def test_swap_preserves_multiset_and_length(self):
        rng = random.Random(2)
        for _ in range(50):
            s = tuple(random_word(rng, 2, 5) for _ in range(rng.randint(2, 8)))
            out = inject_noise(s, NoiseSpec(seed=rng.randint(0, 99), swap_adjacent=2))
            assert sorted(out) == sorted(s)
            assert len(out) == len(s)

    def test_delete_drops_exactly_one_word(self):
        s = ("uno", "dos", "tres", "cuatro")
        out = inject_noise(s, NoiseSpec(seed=3, delete_word=1))
        assert len(out) == 3
        assert all(w in s for w in out)

    def test_too_short_ops_skipped(self):
        s = ("lone",)
        out = inject_noise(s, NoiseSpec(seed=1, swap_adjacent=1, delete_word=1))
        assert out == s

    def test_empty_sentence_stays_empty(self):
        spec = NoiseSpec(seed=0, swap_adjacent=1, delete_word=1, substitute_word=1,
                         typo_char=1, vocabulary=("zz",))
        assert inject_noise((), spec) == ()

    def test_substitute_prefers_lexicon_mates(self):
        lex = load_lexicon("big large\n")
        s = ("big",)
        out = inject_noise(s, NoiseSpec(seed=0, substitute_word=1), lex)
        assert out == ("large",)

    def test_substitute_falls_back_to_vocabulary(self):
        spec = NoiseSpec(seed=0, substitute_word=1, vocabulary=("zz",))
        assert inject_noise(("aa",), spec) == ("zz",)

    def test_typo_changes_edit_distance_one(self):
        rng = random.Random(6)
        for _ in range(50):
            s = tuple(random_word(rng, 3, 7) for _ in range(4))
            out = inject_noise(s, NoiseSpec(seed=rng.randint(0, 999), typo_char=1))
            assert sum(levenshtein(a, b) for a, b in zip(s, out)) == 1

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            NoiseSpec(swap_adjacent=-1)
