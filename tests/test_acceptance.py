"""Acceptance gate: one test per contract criterion, each printing a single
pass/fail line with its measured values."""

import contextlib
import math
import random
import string
import time

import pytest

from phrasefix import (DistanceConfig, NoiseSpec, ScoredPhrase, SubstituterConfig,
                       SynonymLexicon, build_index, combine_cells, correct_dp,
                       correct_fixed, extract_phrases, find_k_best_common,
                       inject_noise, levenshtein, modified_precision, parse_arpa,
                       train_counts)
from phrasefix.corrector import cross_concat
from phrasefix.distance import align, count_inversions, f3_word_order
from phrasefix.phrase_index import PhraseDoc, TrieDictionary

from conftest import random_word, synth_corpus
from dp_oracle import enumeration_cost, exhaustive_best_score, span_candidates

# Strict-improvement rate measured once on the fixed synthetic suite below
# (observed 200/200) and pinned; the contract floor is 0.30.
PINNED_IMPROVEMENT_FLOOR = 0.95


@contextlib.contextmanager
def criterion(name):
    """Emit one [PASS]/[FAIL] line per criterion (shown via the -rP report)."""
    try:
        yield
    except BaseException:
        print(f"[FAIL] {name}")
        raise
    print(f"[PASS] {name}")


def test_bleu_worked_examples():
    with criterion("BLEU worked examples (2/7, 2/2, 1/1)"):
        refs = [("the", "cat", "is", "on", "the", "mat"),
                ("there", "is", "a", "cat", "on", "the", "mat")]
        assert modified_precision(("the",) * 7, refs, 1) == (2, 7)
        assert modified_precision(("the", "cat"), refs, 1) == (2, 2)
        assert modified_precision(("the", "cat"), refs, 2) == (1, 1)


def test_word_order_worked_example():
    with criterion("word-order example (lcs 2/3, one inversion)"):
        p = ("alpha", "beta", "gamma")
        r = ("alpha", "gamma", "beta")
        assert f3_word_order(p, r, "lcs", 2) == 2 / 3
        pairs = align(p, r, 2)
        assert count_inversions([j for _, j in pairs]) == 1


def _random_dp_instance(rng):
    vocab = [random_word(rng, 3, 6) for _ in range(rng.randint(4, 10))]
    corpus = [tuple(rng.choice(vocab) for _ in range(rng.randint(3, 5)))
              for _ in range(3)]
    lm = train_counts(corpus, 2)
    index = build_index(extract_phrases(lm, {2}))
    sentence = tuple(rng.choice(vocab) for _ in range(rng.randint(2, 6)))
    cfg = SubstituterConfig(
        k=10 ** 9, t_pool=10 ** 9,
        distance=DistanceConfig(mode=rng.choice("ABCD"), d_t=rng.randint(1, 2)))
    return sentence, lm, index, cfg


def test_dp_matches_exhaustive_oracle():
    rng = random.Random(2024)
    lex = SynonymLexicon()
    start = time.perf_counter()
    checked = 0
    while checked < 200:
        sentence, lm, index, cfg = _random_dp_instance(rng)
        cands = span_candidates(sentence, index, lm, lex, cfg)
        if enumeration_cost(sentence, cands) > 40000:
            continue
        oracle = exhaustive_best_score(sentence, index, lm, lex, cfg, cands)
        full = correct_dp(sentence, index, lm, lex, cfg)
        assert full.score_after == pytest.approx(oracle, abs=1e-9)
        pruned_cfg = SubstituterConfig(k=2, t_pool=cfg.t_pool, distance=cfg.distance)
        pruned = correct_dp(sentence, index, lm, lex, pruned_cfg)
        assert pruned.score_after <= oracle + 1e-9
        checked += 1
    elapsed = time.perf_counter() - start
    with criterion(f"DP equals exhaustive oracle on {checked} instances "
                   f"(1e-9; k=2 one-sided) in {elapsed:.1f}s"):
        assert checked >= 200
        assert elapsed < 10.0


@pytest.fixture(scope="module")
def noisy_suite(synth_lm, synth_index):
    clean = synth_corpus(200, seed=41)
    spec = NoiseSpec(seed=42, swap_adjacent=1, typo_char=1)
    return [inject_noise(s, spec) for s in clean]


def test_never_worse_with_strict_improvement(synth_lm, synth_index, noisy_suite):
    cfg = SubstituterConfig(k=5, t_pool=200, distance=DistanceConfig(mode="C"))
    lex = SynonymLexicon()
    cache = {}
    improved = 0
    start = time.perf_counter()
    for sentence in noisy_suite:
        result = correct_dp(sentence, synth_index, synth_lm, lex, cfg,
                            sub_cache=cache)
        assert result.score_after >= result.score_before - 1e-9
        if result.score_after > result.score_before + 1e-9:
            improved += 1
    elapsed = time.perf_counter() - start
    rate = improved / len(noisy_suite)
    with criterion(f"never-worse on 200 noisy sentences, {rate:.0%} strictly "
                   f"improved (floor {PINNED_IMPROVEMENT_FLOOR:.0%}) in {elapsed:.1f}s"):
        assert rate >= PINNED_IMPROVEMENT_FLOOR >= 0.30
        assert elapsed < 60.0


def test_fixed_baseline_null_behavior(synth_lm, synth_index, noisy_suite):
    with criterion("fixed baseline never lowers score; guard matches "
                   "no-candidate windows"):
        n = synth_lm.order
        for sentence in noisy_suite:
            result = correct_fixed(sentence, synth_lm, synth_index, phrase_len=7)
            assert result.score_after >= result.score_before
            has_candidate = False
            for start in range(0, len(sentence), 7):
                piece = sentence[start:start + 7]
                if len(piece) < 7:
                    continue
                for w in range(len(piece) - n + 1):
                    if find_k_best_common(synth_index, piece[w:w + n]):
                        has_candidate = True
            if not has_candidate:
                assert result.stats["guard_triggered"]
                assert result.corrected == result.original
            if result.stats["guard_triggered"]:
                assert result.corrected == result.original


def test_split_count_law():
    with criterion("split counts (N^3-N)/6 for N in {3,5,8,12}; 25 combine "
                   "candidates pre-truncation"):
        rng = random.Random(9)
        vocab = [random_word(rng, 3, 6) for _ in range(12)]
        corpus = [tuple(rng.choice(vocab) for _ in range(6)) for _ in range(10)]
        lm = train_counts(corpus, 2)
        index = build_index(extract_phrases(lm, {2}))
        cfg = SubstituterConfig(k=5, t_pool=20)
        lex = SynonymLexicon()
        for n in (3, 5, 8, 12):
            sentence = tuple(rng.choice(vocab) for _ in range(n))
            result = correct_dp(sentence, index, lm, lex, cfg)
            assert result.stats["split_evals"] == (n ** 3 - n) // 6
        left = [ScoredPhrase((w,), 0.0) for w in vocab[:5]]
        right = [ScoredPhrase((w, w), 0.0) for w in vocab[5:10]]
        assert len(cross_concat(left, right, lm.score_sequence)) == 25
        assert len(combine_cells(left, right, lm, 5)) == 5


UNIFORM_HALF = """\\data\\
ngram 1=2

\\1-grams:
-0.301029995663981\taa
-0.301029995663981\tbb

\\end\\
"""


def test_metric_suites():
    start = time.perf_counter()
    rng = random.Random(77)

    words = [random_word(rng, 1, 8) for _ in range(60)]
    for _ in range(10000):
        a, b, c = (rng.choice(words) for _ in range(3))
        dab = levenshtein(a, b)
        assert dab == levenshtein(b, a)
        assert (dab == 0) == (a == b)
        assert dab <= levenshtein(a, c) + levenshtein(c, b)

    dictionary = {random_word(rng, 2, 8) for _ in range(200)}
    trie = TrieDictionary(dictionary)
    for d_t in (1, 2, 3):
        for _ in range(40):
            q = random_word(rng, 2, 8)
            assert trie.fuzzy_lookup(q, d_t) == \
                {w for w in dictionary if levenshtein(q, w) < d_t}

    for trial in range(5):
        vocab = [random_word(rng, 3, 6) for _ in range(15)]
        docs = [PhraseDoc(i, tuple(rng.choice(vocab) for _ in range(rng.randint(1, 4))), 0.0)
                for i in range(50)]
        index = build_index(docs)
        for word in vocab:
            expected = sorted(d.docid for d in docs if word in d.tokens)
            assert index.postings.get(word, []) == expected

    uniform = parse_arpa(UNIFORM_HALF)
    assert abs(uniform.perplexity(("aa", "bb", "aa")) - 2.0) < 1e-9

    trained = train_counts(synth_corpus(200, seed=5), 3)
    counts = {}
    for sent in synth_corpus(200, seed=5):
        for n in (1, 2, 3):
            for i in range(len(sent) - n + 1):
                counts[sent[i:i + n]] = counts.get(sent[i:i + n], 0) + 1
    histories = {g[:-1] for g in counts if len(g) > 1} | {()}
    for h in histories:
        seen = {g[-1] for g in counts if g[:-1] == h}
        c_h = sum(counts[h + (w,)] for w in seen)
        t_h = len(seen)
        total = sum(10.0 ** trained.tables[len(h) + 1][h + (w,)].logprob for w in seen)
        assert abs(total + t_h / (c_h + t_h) - 1.0) < 1e-9

    elapsed = time.perf_counter() - start
    with criterion(f"metric suites (lev axioms, trie=scan, postings, PP=2, "
                   f"normalization) in {elapsed:.1f}s"):
        assert elapsed < 30.0


def test_scaling_smoke():
    rng = random.Random(70)

    def long_word():
        return "".join(rng.choice(string.ascii_lowercase)
                       for _ in range(rng.randint(6, 10)))

    vocab = [long_word() for _ in range(4000)]
    corpus = [tuple(rng.choice(vocab) for _ in range(8)) for _ in range(300)]
    lm = train_counts(corpus, 2)
    docs = [PhraseDoc(i, tuple(rng.choice(vocab) for _ in range(rng.randint(2, 3))),
                      -rng.random() * 20)
            for i in range(50000)]
    index = build_index(docs)
    cfg = SubstituterConfig(k=5, t_pool=200, distance=DistanceConfig(mode="C"))
    lex = SynonymLexicon()

    sentence = tuple(rng.choice(vocab) for _ in range(20))
    start = time.perf_counter()
    result = correct_dp(sentence, index, lm, lex, cfg)
    elapsed = time.perf_counter() - start

    for n in (5, 10, 15):
        short = tuple(rng.choice(vocab) for _ in range(n))
        r = correct_dp(short, index, lm, lex, cfg)
        assert r.stats["split_evals"] == (n ** 3 - n) // 6

    with criterion(f"scaling smoke: N=20 over 50k phrases in {elapsed:.2f}s, "
                   f"split curve holds for N in {{5,10,15,20}}"):
        assert len(index.docs) == 50000
        assert result.stats["split_evals"] == (20 ** 3 - 20) // 6
        assert elapsed < 5.0
