import random

import pytest

from phrasefix import (DistanceConfig, ScoredPhrase, SubstituterConfig, SynonymLexicon,
                       build_index, combine_cells, correct_dp, correct_fixed,
                       extract_phrases, find_k_best_common, train_counts)
from phrasefix.corrector import cross_concat
from phrasefix.phrase_index import PhraseDoc

from conftest import random_word
from dp_oracle import exhaustive_best_score, span_candidates

UNBOUNDED = 10 ** 9


def make_setup(corpus, order=2, index_orders=None):
    lm = train_counts(corpus, order)
    docs = extract_phrases(lm, index_orders or {2})
    return lm, docs, build_index(docs)


def random_instance(rng, max_n=6):
    vocab = [random_word(rng, 3, 6) for _ in range(rng.randint(4, 8))]
    corpus = [tuple(rng.choice(vocab) for _ in range(rng.randint(3, 5)))
              for _ in range(3)]
    lm, docs, index = make_setup(corpus)
    sentence = tuple(rng.choice(vocab) for _ in range(rng.randint(2, max_n)))
    config = SubstituterConfig(
        k=UNBOUNDED, t_pool=UNBOUNDED,
        distance=DistanceConfig(mode=rng.choice("ABCD"), d_t=rng.randint(1, 2)))
    return sentence, lm, index, config


class TestCombine:
    @pytest.fixture
    def lm(self):
        return train_counts([("a", "b", "c"), ("b", "c", "d")], 2)

    def test_singleton_cells(self, lm):
        left = [ScoredPhrase(("a",), -1.0)]
        right = [ScoredPhrase(("b",), -1.0)]
        out = combine_cells(left, right, lm, 5)
        assert len(out) == 1
        assert out[0].tokens == ("a", "b")

    def test_full_cells_give_25_pre_truncation(self, lm):
        left = [ScoredPhrase((w,), -1.0) for w in ("a", "b", "c", "d", "e")]
        right = [ScoredPhrase((w, w), -1.0) for w in ("f", "g", "h", "i", "j")]
        assert len(cross_concat(left, right, lm.score_sequence)) == 25
        assert len(combine_cells(left, right, lm, 5)) == 5

    def test_matches_enumerate_score_sort(self, lm):
        rng = random.Random(8)
        left = [ScoredPhrase(tuple(rng.choice("abcd") for _ in range(2)), 0.0)
                for _ in range(3)]
        right = [ScoredPhrase(tuple(rng.choice("abcd") for _ in range(2)), 0.0)
                 for _ in range(3)]
        got = combine_cells(left, right, lm, 4)
        expected = {}
        for a in left:
            for b in right:
                t = a.tokens + b.tokens
                expected.setdefault(t, ScoredPhrase(t, lm.score_sequence(t)))
        ranked = sorted(expected.values(), key=lambda c: (-c.score, c.tokens))[:4]
        assert got == ranked

    def test_rescored_as_whole_not_sum_of_parts(self, lm):
        left = [ScoredPhrase(("a", "b"), lm.score_sequence(("a", "b")))]
        right = [ScoredPhrase(("c",), lm.score_sequence(("c",)))]
        out = combine_cells(left, right, lm, 1)
        # "b c" is a strong stored bigram, so the joint score beats the sum
        assert out[0].score == pytest.approx(lm.score_sequence(("a", "b", "c")))
        assert out[0].score != pytest.approx(left[0].score + right[0].score)


class TestCorrectDp:
    def test_identity_fixpoint(self):
        # the only index doc is the sentence itself, so every cell's best
        # candidate for its own span is the identity
        corpus = [("aa", "bb", "cc")] * 5
        lm = train_counts(corpus, 2)
        sentence = ("aa", "bb", "cc")
        docs = [PhraseDoc(0, sentence, lm.score_sequence(sentence))]
        index = build_index(docs)
        cfg = SubstituterConfig(k=5, t_pool=10)
        result = correct_dp(sentence, index, lm, SynonymLexicon(), cfg)
        assert result.corrected == result.original
        assert result.score_after == pytest.approx(result.score_before)

    def test_swapped_pair_is_restored(self):
        # LM strongly favors the bigram "aa bb"; input starts with it swapped
        corpus = [("aa", "bb", "cc", "dd")] * 8 + [("aa", "bb")] * 2
        lm, docs, index = make_setup(corpus)
        cfg = SubstituterConfig(k=UNBOUNDED, t_pool=UNBOUNDED)
        lex = SynonymLexicon()
        sentence = ("bb", "aa", "cc", "dd")
        result = correct_dp(sentence, index, lm, lex, cfg)
        assert result.corrected[:2] == ("aa", "bb")
        assert result.score_after >= result.score_before
        oracle = exhaustive_best_score(sentence, index, lm, lex, cfg)
        assert result.score_after == pytest.approx(oracle, abs=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_split_evaluation_count(self, n):
        corpus = [tuple("abcdefgh"[:max(2, n)])] * 3
        lm, docs, index = make_setup(corpus)
        cfg = SubstituterConfig(k=2, t_pool=5)
        sentence = tuple("abcdefgh"[i % 8] for i in range(n))
        result = correct_dp(sentence, index, lm, SynonymLexicon(), cfg)
        assert result.stats["split_evals"] == (n ** 3 - n) // 6
        assert result.stats["sub_calls"] == n * (n + 1) // 2

    def test_matches_exhaustive_oracle_with_unbounded_k(self):
        rng = random.Random(14)
        checked = 0
        while checked < 12:
            sentence, lm, index, cfg = random_instance(rng, max_n=5)
            lex = SynonymLexicon()
            result = correct_dp(sentence, index, lm, lex, cfg)
            oracle = exhaustive_best_score(sentence, index, lm, lex, cfg)
            assert result.score_after == pytest.approx(oracle, abs=1e-9)
            checked += 1

    def test_finite_k_never_beats_oracle(self):
        rng = random.Random(15)
        for _ in range(8):
            sentence, lm, index, cfg = random_instance(rng, max_n=5)
            lex = SynonymLexicon()
            candidates = span_candidates(sentence, index, lm, lex, cfg)
            oracle = exhaustive_best_score(sentence, index, lm, lex, cfg, candidates)
            pruned = SubstituterConfig(k=2, t_pool=cfg.t_pool, distance=cfg.distance)
            result = correct_dp(sentence, index, lm, lex, pruned)
            assert result.score_after <= oracle + 1e-9

    def test_never_worse_and_deterministic(self):
        rng = random.Random(16)
        for _ in range(10):
            sentence, lm, index, _ = random_instance(rng, max_n=5)
            cfg = SubstituterConfig(k=3, t_pool=10)
            lex = SynonymLexicon()
            first = correct_dp(sentence, index, lm, lex, cfg)
            second = correct_dp(sentence, index, lm, lex, cfg)
            assert first.score_after >= first.score_before
            assert first.corrected == second.corrected
            assert first.kbest == second.kbest

    def test_kbest_cell_invariants(self):
        rng = random.Random(18)
        sentence, lm, index, _ = random_instance(rng, max_n=5)
        cfg = SubstituterConfig(k=3, t_pool=10)
        result = correct_dp(sentence, index, lm, SynonymLexicon(), cfg)
        assert 1 <= len(result.kbest) <= cfg.k
        scores = [c.score for c in result.kbest]
        assert scores == sorted(scores, reverse=True)

    def test_empty_sentence_rejected(self):
        lm, docs, index = make_setup([("aa", "bb")])
        with pytest.raises(ValueError):
            correct_dp((), index, lm, SynonymLexicon(), SubstituterConfig())

    def test_sub_cache_is_transparent(self):
        corpus = [("aa", "bb", "cc", "dd")] * 4
        lm, docs, index = make_setup(corpus)
        cfg = SubstituterConfig(k=3, t_pool=10)
        cache = {}
        sentence = ("aa", "bb", "cc")
        plain = correct_dp(sentence, index, lm, SynonymLexicon(), cfg)
        warm1 = correct_dp(sentence, index, lm, SynonymLexicon(), cfg, sub_cache=cache)
        warm2 = correct_dp(sentence, index, lm, SynonymLexicon(), cfg, sub_cache=cache)
        assert plain.corrected == warm1.corrected == warm2.corrected
        assert plain.score_after == warm2.score_after


class TestCorrectFixed:
    def chain_setup(self):
        corpus = [("aa", "bb", "dd", "cc")] * 10 + [("aa", "bb", "cc", "dd")]
        lm = train_counts(corpus, 2)
        phrases = [("aa", "bb"), ("bb", "cc"), ("cc", "dd"), ("dd", "cc"), ("bb", "dd")]
        docs = [PhraseDoc(i, p, lm.score_sequence(p)) for i, p in enumerate(phrases)]
        return lm, build_index(docs)

    def test_no_candidates_triggers_identity_guard(self):
        lm = train_counts([("aa", "bb", "cc", "dd")] * 3, 2)
        result = correct_fixed(("aa", "bb", "cc", "dd"), lm, build_index([]), phrase_len=4)
        assert result.corrected == result.original
        assert result.stats["guard_triggered"]
        assert result.score_after == result.score_before

    def test_improving_chain_found(self):
        lm, index = self.chain_setup()
        result = correct_fixed(("aa", "bb", "cc", "dd"), lm, index, phrase_len=4)
        assert result.corrected == ("aa", "bb", "dd", "cc")
        assert result.score_after > result.score_before

    def test_matches_exhaustive_path_enumeration(self):
        lm, index = self.chain_setup()
        phrase = ("aa", "bb", "cc", "dd")
        n = lm.order

        variants = set()

        def walk(cur, start):
            if start + n > len(cur):
                variants.add(cur)
                return
            window = cur[start:start + n]
            for sub in find_k_best_common(index, window):
                walk(cur[:start] + sub + cur[start + n:], start + 1)

        walk(phrase, 0)
        assert variants == {("aa", "bb", "cc", "dd"), ("aa", "bb", "dd", "cc")}
        best = max(variants, key=lm.score_sequence)
        result = correct_fixed(phrase, lm, index, phrase_len=4)
        assert result.corrected == best

    def test_short_remainder_passes_through(self):
        lm, index = self.chain_setup()
        sentence = ("aa", "bb", "cc", "dd", "aa", "bb")
        result = correct_fixed(sentence, lm, index, phrase_len=4)
        assert result.corrected[-2:] == ("aa", "bb")

    def test_never_worse(self):
        rng = random.Random(77)
        for _ in range(10):
            vocab = [random_word(rng, 2, 4) for _ in range(6)]
            corpus = [tuple(rng.choice(vocab) for _ in range(5)) for _ in range(6)]
            lm = train_counts(corpus, 2)
            index = build_index(extract_phrases(lm, {2}))
            sentence = tuple(rng.choice(vocab) for _ in range(rng.randint(2, 9)))
            result = correct_fixed(sentence, lm, index, phrase_len=4)
            assert result.score_after >= result.score_before

    def test_phrase_len_below_order_rejected(self):
        lm, index = self.chain_setup()
        with pytest.raises(ValueError):
            correct_fixed(("aa", "bb"), lm, index, phrase_len=1)
