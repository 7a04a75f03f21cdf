"""Acceptance gate: one test per contract criterion, each printing a single
pass/fail line with its measured values."""

import contextlib
import math
import random
import string
import time

import pytest

from phrasefix import (NoiseSpec, PhraseIndex, SubstituterConfig, bleu,
                       corpus_perplexity, correct_dp, correct_fixed,
                       extract_phrases, find_best_subs, find_k_best_common, inject_noise,
                       modified_precision, parse_arpa, train_counts)
from phrasefix.corrector import cross_concat
from phrasefix.distance import edit_distances
from phrasefix.substituter import top_k
from distance_oracle import f3_word_order
from distance_oracle import levenshtein as reference_levenshtein
from phrasefix.phrase_index import PhraseDoc

from conftest import random_word, synth_corpus
from dp_oracle import enumeration_cost, exhaustive_best_score

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
        # Papineni et al.'s first reference, which alone gives these counts
        ref = ("the", "cat", "is", "on", "the", "mat")
        assert modified_precision(("the",) * 7, ref, 1) == (2, 7)
        assert modified_precision(("the", "cat"), ref, 1) == (2, 2)
        assert modified_precision(("the", "cat"), ref, 2) == (1, 1)


def test_word_order_worked_example():
    with criterion("word-order example (lcs 2/3)"):
        p = ("alpha", "beta", "gamma")
        r = ("alpha", "gamma", "beta")
        assert f3_word_order(p, r, 2) == 2 / 3


def _random_dp_instance(rng):
    vocab = [random_word(rng, 3, 6) for _ in range(rng.randint(4, 10))]
    corpus = [tuple(rng.choice(vocab) for _ in range(rng.randint(3, 5)))
              for _ in range(3)]
    lm = train_counts(corpus, 2)
    index = PhraseIndex(extract_phrases(lm, {2}))
    sentence = tuple(rng.choice(vocab) for _ in range(rng.randint(2, 6)))
    cfg = SubstituterConfig(k=10 ** 9, t_pool=10 ** 9, d_t=rng.randint(1, 2))
    return sentence, lm, index, cfg


def test_dp_matches_exhaustive_oracle():
    rng = random.Random(2024)
    lex = {}
    start = time.perf_counter()
    checked = 0
    while checked < 200:
        sentence, lm, index, cfg = _random_dp_instance(rng)
        cands = find_best_subs(index, lm, lex, sentence, cfg)
        if enumeration_cost(sentence, cands) > 40000:
            continue
        oracle = exhaustive_best_score(sentence, index, lm, lex, cfg, cands)
        full = correct_dp(sentence, index, lm, lex, cfg)
        assert full.score_after == pytest.approx(oracle, abs=1e-9)
        pruned_cfg = SubstituterConfig(k=2, t_pool=cfg.t_pool, d_t=cfg.d_t)
        pruned = correct_dp(sentence, index, lm, lex, pruned_cfg)
        assert pruned.score_after <= oracle + 1e-9
        checked += 1
    elapsed = time.perf_counter() - start
    with criterion(f"DP equals exhaustive oracle on {checked} instances "
                   f"(1e-9; k=2 one-sided) in {elapsed:.1f}s"):
        assert checked >= 200
        assert elapsed < 10.0


@pytest.fixture(scope="module")
def held_out():
    return synth_corpus(200, seed=41)


@pytest.fixture(scope="module")
def noisy_suite(held_out):
    spec = NoiseSpec(seed=42, swap_adjacent=1, typo_char=1)
    return [inject_noise(s, spec) for s in held_out]


@pytest.fixture(scope="module")
def dp_corrections(synth_lm, synth_index, noisy_suite):
    """``correct_dp`` at the default config on each noisy sentence, and the
    seconds the calls took."""
    cfg = SubstituterConfig()
    start = time.perf_counter()
    results = [correct_dp(s, synth_index, synth_lm, {}, cfg) for s in noisy_suite]
    return results, time.perf_counter() - start


def test_never_worse_with_strict_improvement(dp_corrections):
    results, elapsed = dp_corrections
    improved = 0
    for result in results:
        assert result.score_after >= result.score_before - 1e-9
        if result.score_after > result.score_before + 1e-9:
            improved += 1
    rate = improved / len(results)
    with criterion(f"never-worse on 200 noisy sentences, {rate:.0%} strictly "
                   f"improved (floor {PINNED_IMPROVEMENT_FLOOR:.0%}) in {elapsed:.1f}s"):
        assert rate >= PINNED_IMPROVEMENT_FLOOR >= 0.30
        assert elapsed < 60.0


def test_output_quality_figures(held_out, noisy_suite, dp_corrections):
    # the README's "Output quality" baseline: at its defaults dp shortens
    # every sentence, so BLEU against the clean references falls to 0
    corrected = [r.corrected for r in dp_corrections[0]]
    before, after = bleu(noisy_suite, held_out), bleu(corrected, held_out)
    kept, total = sum(map(len, corrected)), sum(map(len, held_out))
    with criterion(f"held-out BLEU {before:.4f} -> {after:.3f}, {kept} of {total} "
                   f"reference tokens (length ratio {kept / total:.4f})"):
        assert (round(before, 4), after) == (0.3711, 0.0)
        assert (kept, total) == (431, 1528)  # length ratio 0.2821
        example = tuple("the discussed commisksion the trade agreement".split())
        assert {r.corrected for r in dp_corrections[0] if r.original == example} == \
            {("the", "trade")}


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
        index = PhraseIndex(extract_phrases(lm, {2}))
        cfg = SubstituterConfig(k=5, t_pool=20)
        lex = {}
        for n in (3, 5, 8, 12):
            sentence = tuple(rng.choice(vocab) for _ in range(n))
            result = correct_dp(sentence, index, lm, lex, cfg)
            assert result.stats["split_evals"] == (n ** 3 - n) // 6
        left = {(w,): 0.0 for w in vocab[:5]}
        right = {(w, w): 0.0 for w in vocab[5:10]}
        assert len(cross_concat(left, right, lm.score_sequence, {})) == 25
        assert len(top_k(cross_concat(left, right, lm.score_sequence, {}), 5)) == 5


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
        a, b, c = triple = tuple(rng.choice(words) for _ in range(3))
        (_, dab, dac), (dba, _, _), (_, dcb, _) = edit_distances(triple, triple)
        assert dab == dba
        assert (dab == 0) == (a == b)
        assert dab <= dac + dcb

    dictionary = sorted({random_word(rng, 2, 8) for _ in range(200)})
    index = PhraseIndex([PhraseDoc(i, (w,), 0.0) for i, w in enumerate(dictionary)])
    for d_t in (1, 2, 3):
        for _ in range(40):
            q = random_word(rng, 2, 8)
            assert [dictionary[i] for i in index.retrieve(q, d_t)] == \
                [w for w in dictionary if reference_levenshtein(q, w) < d_t]

    for trial in range(5):
        vocab = [random_word(rng, 3, 6) for _ in range(15)]
        phrases = dict.fromkeys(  # each phrase once, in draw order
            tuple(rng.choice(vocab) for _ in range(rng.randint(1, 4))) for _ in range(50))
        docs = [PhraseDoc(i, p, 0.0) for i, p in enumerate(phrases)]
        index = PhraseIndex(docs)
        for word in vocab:
            expected = sorted(d.docid for d in docs if word in d.tokens)
            assert index.postings.get(word, []) == expected

    uniform = parse_arpa(UNIFORM_HALF)
    assert abs(corpus_perplexity(uniform, [("aa", "bb", "aa")]) - 2.0) < 1e-9

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
        total = sum(10.0 ** trained.tables[len(h) + 1][h + (w,)][0] for w in seen)
        assert abs(total + t_h / (c_h + t_h) - 1.0) < 1e-9

    elapsed = time.perf_counter() - start
    with criterion(f"metric suites (lev axioms, lookup=scan, postings, PP=2, "
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
    stored = {}  # each phrase once, in draw order, with its first score
    while len(stored) < 50000:
        phrase = tuple(rng.choice(vocab) for _ in range(rng.randint(2, 3)))
        stored.setdefault(phrase, -rng.random() * 20)
    docs = [PhraseDoc(i, p, s) for i, (p, s) in enumerate(stored.items())]
    index = PhraseIndex(docs)
    cfg = SubstituterConfig(k=5, t_pool=200)
    lex = {}

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
