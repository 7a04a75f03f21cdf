import gc
import random
import weakref

import pytest

from phrasefix import (PhraseIndex, SubstituterConfig, correct_dp, correct_fixed,
                       extract_phrases, find_best_subs, find_k_best_common, train_counts)
from phrasefix.corrector import cross_concat
from phrasefix.substituter import top_k
from phrasefix.phrase_index import PhraseDoc

from conftest import random_word
from dp_oracle import exhaustive_best_score

UNBOUNDED = 10 ** 9


def make_setup(corpus, order=2, index_orders=None):
    lm = train_counts(corpus, order)
    docs = extract_phrases(lm, index_orders or {2})
    return lm, docs, PhraseIndex(docs)


def assert_freed_by_refcount(correct):
    """With the collector off, a model and an index that ``correct(sentence,
    lm, index)`` ran over are freed when their last reference goes."""
    def run():
        lm, _, index = make_setup([("aa", "bb", "cc", "dd")] * 3)
        for sentence in [("bb", "aa", "cc"), ("aa", "bb", "cd", "dd"), ("dd",)]:
            correct(sentence, lm, index)
        return weakref.ref(lm), weakref.ref(index)

    enabled = gc.isenabled()
    gc.disable()
    try:
        lm_ref, index_ref = run()
        assert lm_ref() is None
        assert index_ref() is None
    finally:
        if enabled:
            gc.enable()


def random_instance(rng, max_n=6):
    vocab = [random_word(rng, 3, 6) for _ in range(rng.randint(4, 8))]
    corpus = [tuple(rng.choice(vocab) for _ in range(rng.randint(3, 5)))
              for _ in range(3)]
    lm, docs, index = make_setup(corpus)
    sentence = tuple(rng.choice(vocab) for _ in range(rng.randint(2, max_n)))
    config = SubstituterConfig(k=UNBOUNDED, t_pool=UNBOUNDED, d_t=rng.randint(1, 2))
    return sentence, lm, index, config


def combine(left, right, lm, k):
    """One chart-cell combine step: every concatenation, rescored, top k."""
    return top_k(cross_concat(left, right, lm.score_sequence, {}), k)


class TestCombine:
    @pytest.fixture
    def lm(self):
        return train_counts([("a", "b", "c"), ("b", "c", "d")], 2)

    def test_singleton_cells(self, lm):
        left = {("a",): -1.0}
        right = {("b",): -1.0}
        out = combine(left, right, lm, 5)
        assert len(out) == 1
        assert list(out) == [("a", "b")]

    def test_full_cells_give_25_pre_truncation(self, lm):
        left = {(w,): -1.0 for w in ("a", "b", "c", "d", "e")}
        right = {(w, w): -1.0 for w in ("f", "g", "h", "i", "j")}
        assert len(cross_concat(left, right, lm.score_sequence, {})) == 25
        assert len(combine(left, right, lm, 5)) == 5

    def test_matches_enumerate_score_sort(self, lm):
        rng = random.Random(8)
        left = {tuple(rng.choice("abcd") for _ in range(2)): 0.0 for _ in range(3)}
        right = {tuple(rng.choice("abcd") for _ in range(2)): 0.0 for _ in range(3)}
        got = combine(left, right, lm, 4)
        expected = {}
        for a in left:
            for b in right:
                t = a + b
                expected.setdefault(t, lm.score_sequence(t))
        ranked = sorted(expected.items(), key=lambda item: (-item[1], item[0]))[:4]
        assert list(got.items()) == ranked

    def test_rescored_as_whole_not_sum_of_parts(self, lm):
        left = {("a", "b"): lm.score_sequence(("a", "b"))}
        right = {("c",): lm.score_sequence(("c",))}
        out = combine(left, right, lm, 1)
        # "b c" is a strong stored bigram, so the joint score beats the sum
        assert out[("a", "b", "c")] == pytest.approx(lm.score_sequence(("a", "b", "c")))
        assert out[("a", "b", "c")] != pytest.approx(left[("a", "b")] + right[("c",)])


    def test_into_a_pool_adds_only_new_tuples(self, lm):
        calls = []

        def score(tokens, start=0, total=0.0):
            calls.append((tokens, start))
            return lm.score_sequence(tokens, start, total)

        left = {("a",): -1.0, ("b",): -1.0}
        right = {("c",): -1.0, ("d", "a"): -1.0}
        pool = {("a", "c"): 0.5, ("d",): -2.0}
        assert cross_concat(left, right, score, pool) is pool
        # the pool's entry for ("a", "c") stays, the new tuples follow it, and
        # each is its left part's score continued, the float of the whole
        assert list(pool.items()) == [
            (("a", "c"), 0.5), (("d",), -2.0),
            *((t, lm.score_sequence(t)) for t in [("a", "d", "a"), ("b", "c"), ("b", "d", "a")])]
        assert [c for c in calls if c[1]] == [
            (("a", "d", "a"), 1), (("b", "c"), 1), (("b", "d", "a"), 1)]


class TestCorrectDp:
    def test_identity_fixpoint(self):
        # the only index doc is the sentence itself, so every cell's best
        # candidate for its own span is the identity
        corpus = [("aa", "bb", "cc")] * 5
        lm = train_counts(corpus, 2)
        sentence = ("aa", "bb", "cc")
        docs = [PhraseDoc(0, sentence, lm.score_sequence(sentence))]
        index = PhraseIndex(docs)
        cfg = SubstituterConfig(k=5, t_pool=10)
        result = correct_dp(sentence, index, lm, {}, cfg)
        assert result.corrected == result.original
        assert result.score_after == pytest.approx(result.score_before)

    def test_swapped_pair_is_restored(self):
        # LM strongly favors the bigram "aa bb"; input starts with it swapped
        corpus = [("aa", "bb", "cc", "dd")] * 8 + [("aa", "bb")] * 2
        lm, docs, index = make_setup(corpus)
        cfg = SubstituterConfig(k=UNBOUNDED, t_pool=UNBOUNDED)
        lex = {}
        sentence = ("bb", "aa", "cc", "dd")
        result = correct_dp(sentence, index, lm, lex, cfg)
        assert result.corrected[:2] == ("aa", "bb")
        assert result.score_after >= result.score_before
        oracle = exhaustive_best_score(sentence, index, lm, lex, cfg)
        assert result.score_after == pytest.approx(oracle, abs=1e-9)

    def test_index_keeps_no_state_between_sentences(self):
        # nothing on the index grows with the input: once the first sentence
        # has built what the index derives from its own words, later
        # sentences add nothing
        rng = random.Random(23)
        _, lm, index, config = random_instance(rng)

        def sentence():
            return tuple(random_word(rng, 3, 6) for _ in range(4))

        def sizes():
            return {name: len(value) for name, value in vars(index).items()
                    if hasattr(value, "__len__")}

        correct_dp(sentence(), index, lm, {}, config)
        names, before = sorted(vars(index)), sizes()
        for _ in range(5):
            correct_dp(sentence(), index, lm, {}, config)
            assert sorted(vars(index)) == names
            assert sizes() == before
        # and what it derived does not depend on the queries that built it
        fresh = PhraseIndex(index.docs)
        fresh.retrieve("zzzzzz", 1)
        assert fresh._tables == index._tables

    def test_model_and_index_die_with_their_last_reference(self):
        # correct_dp's LM cache lives for one call and no cycle holds the
        # model or the index, so reference counting alone frees both
        assert_freed_by_refcount(lambda sentence, lm, index: correct_dp(
            sentence, index, lm, {}, SubstituterConfig(k=3, t_pool=10)))

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_split_evaluation_count(self, n):
        corpus = [tuple("abcdefgh"[:max(2, n)])] * 3
        lm, docs, index = make_setup(corpus)
        cfg = SubstituterConfig(k=2, t_pool=5)
        sentence = tuple("abcdefgh"[i % 8] for i in range(n))
        result = correct_dp(sentence, index, lm, {}, cfg)
        assert result.stats["split_evals"] == (n ** 3 - n) // 6
        assert result.stats["sub_calls"] == n * (n + 1) // 2

    def test_matches_exhaustive_oracle_with_unbounded_k(self):
        rng = random.Random(14)
        checked = 0
        while checked < 12:
            sentence, lm, index, cfg = random_instance(rng, max_n=5)
            lex = {}
            result = correct_dp(sentence, index, lm, lex, cfg)
            oracle = exhaustive_best_score(sentence, index, lm, lex, cfg)
            assert result.score_after == pytest.approx(oracle, abs=1e-9)
            checked += 1

    def test_finite_k_never_beats_oracle(self):
        rng = random.Random(15)
        for _ in range(8):
            sentence, lm, index, cfg = random_instance(rng, max_n=5)
            lex = {}
            candidates = find_best_subs(index, lm, lex, sentence, cfg)
            oracle = exhaustive_best_score(sentence, index, lm, lex, cfg, candidates)
            pruned = SubstituterConfig(k=2, t_pool=cfg.t_pool, d_t=cfg.d_t)
            result = correct_dp(sentence, index, lm, lex, pruned)
            assert result.score_after <= oracle + 1e-9

    def test_never_worse_and_deterministic(self):
        rng = random.Random(16)
        for _ in range(10):
            sentence, lm, index, _ = random_instance(rng, max_n=5)
            cfg = SubstituterConfig(k=3, t_pool=10)
            lex = {}
            first = correct_dp(sentence, index, lm, lex, cfg)
            second = correct_dp(sentence, index, lm, lex, cfg)
            assert first.score_after >= first.score_before
            assert first.corrected == second.corrected
            assert list(first.kbest.items()) == list(second.kbest.items())

    def test_kbest_cell_invariants(self):
        # the k-best is the full span's map: best first, ties by tokens, and
        # its first entry is the result
        rng = random.Random(18)
        for t_pool in (10, 3, 10, 3, 10, 3):
            sentence, lm, index, _ = random_instance(rng, max_n=5)
            cfg = SubstituterConfig(k=3, t_pool=t_pool)
            result = correct_dp(sentence, index, lm, {}, cfg)
            assert 1 <= len(result.kbest) <= cfg.k
            assert list(result.kbest.items()) == sorted(result.kbest.items(),
                                                        key=lambda item: (-item[1], item[0]))
            assert next(iter(result.kbest.items())) == (result.corrected, result.score_after)

    def test_empty_sentence_passes_through(self):
        # a line without words keeps the records line-aligned, with no stats;
        # the fixed baseline checks its phrase length first
        lm, docs, index = make_setup([("aa", "bb")])
        for result in (correct_dp((), index, lm, {}, SubstituterConfig()),
                       correct_fixed((), lm, index, phrase_len=2)):
            assert result.to_record() == {"original": "", "corrected": "",
                                          "score_before": 0.0, "score_after": 0.0,
                                          "kbest": [], "stats": {}}
        with pytest.raises(ValueError, match="phrase length 1 below model order 2"):
            correct_fixed((), lm, index, phrase_len=1)


class TestCorrectFixed:
    def chain_setup(self):
        corpus = [("aa", "bb", "dd", "cc")] * 10 + [("aa", "bb", "cc", "dd")]
        lm = train_counts(corpus, 2)
        phrases = [("aa", "bb"), ("bb", "cc"), ("cc", "dd"), ("dd", "cc"), ("bb", "dd")]
        docs = [PhraseDoc(i, p, lm.score_sequence(p)) for i, p in enumerate(phrases)]
        return lm, PhraseIndex(docs)

    def test_no_candidates_triggers_identity_guard(self):
        lm = train_counts([("aa", "bb", "cc", "dd")] * 3, 2)
        result = correct_fixed(("aa", "bb", "cc", "dd"), lm, PhraseIndex([]), phrase_len=4)
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

    @pytest.mark.parametrize("sentence, guard", [
        (("aa", "bb", "cc", "dd"), False), (("aa", "bb", "dd", "cc"), True)])
    def test_kbest_is_the_result(self, sentence, guard):
        lm, index = self.chain_setup()
        result = correct_fixed(sentence, lm, index, phrase_len=4)
        assert result.stats["guard_triggered"] is guard
        assert list(result.kbest.items()) == [(result.corrected, result.score_after)]

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
            index = PhraseIndex(extract_phrases(lm, {2}))
            sentence = tuple(rng.choice(vocab) for _ in range(rng.randint(2, 9)))
            result = correct_fixed(sentence, lm, index, phrase_len=4)
            assert result.score_after >= result.score_before

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "the _best_phrase_sub cycle FOUND in CHANGES.md, ROADMAP item 11: compute_sub "
        "calls itself through its own cell, so a garbage cycle holds the model and index"))
    def test_model_and_index_die_with_their_last_reference(self):
        # ("dd",) is a trailing remainder; the other two hold a full phrase
        assert_freed_by_refcount(lambda sentence, lm, index: correct_fixed(
            sentence, lm, index, phrase_len=2))

    def test_phrase_len_below_order_rejected(self):
        lm, index = self.chain_setup()
        with pytest.raises(ValueError):
            correct_fixed(("aa", "bb"), lm, index, phrase_len=1)
