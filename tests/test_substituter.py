import random

import pytest

from phrasefix import (REJECT, DistanceConfig, ScoredPhrase, SubstituterConfig,
                       SynonymLexicon, build_index, combined_score, find_best_sub,
                       find_k_best_common, levenshtein, train_counts)
from phrasefix.phrase_index import PhraseDoc

from conftest import random_word


def oracle_best_sub(docs, lm, lex, phrase, cfg):
    """Full-scan two-stage reference: brute-force retrieval, then the same
    distance ranking, LM ranking and identity seeding as the contract."""
    phrase = tuple(phrase)
    pool = []
    for doc in docs:
        if not any(levenshtein(q, w) < cfg.distance.d_t
                   for q in phrase for w in doc.tokens):
            continue
        s = combined_score(phrase, doc.tokens, lex, cfg.distance)
        if s is REJECT:
            continue
        pool.append((s, doc))
    pool.sort(key=lambda item: (-item[0], item[1].tokens))
    cand = {d.tokens: ScoredPhrase(d.tokens, d.lm_score) for _, d in pool[:cfg.t_pool]}
    if cfg.include_identity and phrase not in cand:
        cand[phrase] = ScoredPhrase(phrase, lm.score_sequence(phrase))
    return sorted(cand.values(), key=lambda c: (-c.score, c.tokens))[:cfg.k]


@pytest.fixture
def toy_setup():
    corpus = [
        ("the", "european", "extreme", "right"),
        ("extreme", "right", "is", "strong"),
        ("the", "european", "union"),
        ("terrorism", "in", "europe"),
        ("the", "european", "governments"),
        ("europe", "extreme", "right"),
    ]
    lm = train_counts(corpus, 2)
    docs = []
    for i, tokens in enumerate(corpus):
        docs.append(PhraseDoc(i, tokens, lm.score_sequence(tokens)))
    return lm, docs, build_index(docs)


class TestFindBestSub:
    def test_verbatim_phrase_is_retrieved(self, toy_setup):
        lm, docs, index = toy_setup
        cfg = SubstituterConfig(k=6, t_pool=10)
        result = find_best_sub(index, lm, SynonymLexicon(), ("the", "european", "union"), cfg)
        assert ("the", "european", "union") in {c.tokens for c in result}

    def test_toy_output_sorted_by_lm_score(self, toy_setup):
        lm, docs, index = toy_setup
        cfg = SubstituterConfig(k=5, t_pool=10)
        result = find_best_sub(index, lm, SynonymLexicon(), ("europe", "extreme"), cfg)
        assert result
        scores = [c.score for c in result]
        assert scores == sorted(scores, reverse=True)
        assert result == oracle_best_sub(docs, lm, SynonymLexicon(),
                                         ("europe", "extreme"), cfg)

    def test_oracle_equivalence_on_random_instances(self):
        rng = random.Random(99)
        lex = SynonymLexicon()
        for _ in range(20):
            vocab = [random_word(rng, 3, 6) for _ in range(10)]
            corpus = [tuple(rng.choice(vocab) for _ in range(rng.randint(2, 4)))
                      for _ in range(12)]
            lm = train_counts(corpus, 2)
            docs = [PhraseDoc(i, g, lm.score_sequence(g))
                    for i, g in enumerate(sorted({tuple(s) for s in corpus}))]
            index = build_index(docs)
            cfg = SubstituterConfig(
                k=5, t_pool=rng.choice([5, 25]),
                distance=DistanceConfig(mode=rng.choice("ABCD"), d_t=rng.randint(1, 3)))
            phrase = tuple(rng.choice(vocab) for _ in range(rng.randint(1, 3)))
            got = find_best_sub(index, lm, lex, phrase, cfg)
            assert got == oracle_best_sub(docs, lm, lex, phrase, cfg)
            assert len(got) <= cfg.k
            assert got  # identity seeding keeps the list non-empty

    def test_twenty_five_doc_instance_returns_exactly_k(self):
        rng = random.Random(4)
        vocab = [random_word(rng, 3, 5) for _ in range(6)]
        corpus = [tuple(rng.choice(vocab) for _ in range(rng.randint(2, 3)))
                  for _ in range(60)]
        lm = train_counts(corpus, 2)
        grams = sorted({tuple(s) for s in corpus})[:25]
        docs = [PhraseDoc(i, g, lm.score_sequence(g)) for i, g in enumerate(grams)]
        index = build_index(docs)
        cfg = SubstituterConfig(k=5, t_pool=25, distance=DistanceConfig(mode="C"))
        phrase = (vocab[0], vocab[1])
        got = find_best_sub(index, lm, SynonymLexicon(), phrase, cfg)
        assert len(got) == 5
        assert got == oracle_best_sub(docs, lm, SynonymLexicon(), phrase, cfg)

    def test_full_t_matches_oracle_exactly(self, toy_setup):
        lm, docs, index = toy_setup
        cfg = SubstituterConfig(k=4, t_pool=len(docs),
                                distance=DistanceConfig(mode="A"))
        phrase = ("extreme", "right")
        assert find_best_sub(index, lm, SynonymLexicon(), phrase, cfg) == \
            oracle_best_sub(docs, lm, SynonymLexicon(), phrase, cfg)

    def test_identity_disabled_can_return_empty(self, toy_setup):
        lm, docs, index = toy_setup
        cfg = SubstituterConfig(k=3, t_pool=5, include_identity=False)
        result = find_best_sub(index, lm, SynonymLexicon(),
                               ("zzzzzzz", "qqqqqqq"), cfg)
        assert result == []

    def test_raising_t_only_displaces_with_better_scores(self, toy_setup):
        lm, docs, index = toy_setup
        lex = SynonymLexicon()
        phrase = ("europe", "extreme", "right")
        small = find_best_sub(index, lm, lex, phrase,
                              SubstituterConfig(k=3, t_pool=3))
        large = find_best_sub(index, lm, lex, phrase,
                              SubstituterConfig(k=3, t_pool=12))
        large_tokens = {c.tokens for c in large}
        for cand in small:
            if cand.tokens not in large_tokens:
                assert all(other.score >= cand.score for other in large)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            SubstituterConfig(k=10, t_pool=5)


class TestFindKBestCommon:
    def make_docs(self, phrases):
        return [PhraseDoc(i, tuple(p.split()), 0.0) for i, p in enumerate(phrases)]

    def test_direct_set_logic(self):
        index = build_index(self.make_docs(["a b", "a x", "b c y"]))
        got = find_k_best_common(index, ("a", "b", "c"))
        assert got == [("a", "b"), ("b", "c", "y")]

    def test_no_shared_pair_gives_empty(self):
        index = build_index(self.make_docs(["x y", "z w"]))
        assert find_k_best_common(index, ("a", "b")) == []

    def test_short_phrase_gives_empty(self):
        index = build_index(self.make_docs(["a b"]))
        assert find_k_best_common(index, ("a",)) == []

    def test_matches_brute_force(self):
        rng = random.Random(55)
        vocab = [random_word(rng, 2, 4) for _ in range(8)]
        docs = self.make_docs(
            [" ".join(rng.choice(vocab) for _ in range(rng.randint(1, 4)))
             for _ in range(30)])
        index = build_index(docs)
        for _ in range(30):
            phrase = tuple(rng.choice(vocab) for _ in range(rng.randint(2, 4)))
            expected = [d.tokens for d in docs
                        if len(set(phrase) & set(d.tokens)) >= 2]
            assert find_k_best_common(index, phrase) == expected
