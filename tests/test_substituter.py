import random

import pytest

from phrasefix import (ScoredPhrase, SubstituterConfig,
                       SynonymLexicon, build_index, find_best_subs,
                       find_k_best_common, levenshtein, load_lexicon, parse_arpa,
                       train_counts)
from phrasefix.phrase_index import PhraseDoc

from conftest import random_word, retrieve_any
from distance_oracle import reference_score


def whole_span(index, lm, lex, phrase, cfg):
    """The candidate list of the span covering all of ``phrase``."""
    return find_best_subs(index, lm, lex, phrase, cfg)[(0, len(phrase) - 1)]


def oracle_best_sub(docs, lm, lex, phrase, cfg):
    """Full-scan two-stage reference: brute-force retrieval, ranking by the
    component references' mean, then LM ranking and identity seeding as the
    contract."""
    phrase = tuple(phrase)
    pool = []
    for doc in docs:
        if not any(levenshtein(q, w) < cfg.d_t
                   for q in phrase for w in doc.tokens):
            continue
        s = reference_score(phrase, doc.tokens, lex, cfg.mode)
        if s is None:
            continue
        pool.append((s, doc))
    pool.sort(key=lambda item: (-item[0], item[1].tokens))
    cand = {}
    for _, d in pool[:cfg.t_pool]:  # of docs with the same tokens the first counts
        cand.setdefault(d.tokens, ScoredPhrase(d.tokens, d.lm_score))
    cand.setdefault(phrase, ScoredPhrase(phrase, lm.score_sequence(phrase)))
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
        result = whole_span(index, lm, SynonymLexicon(), ("the", "european", "union"), cfg)
        assert ("the", "european", "union") in {c.tokens for c in result}

    def test_toy_output_sorted_by_lm_score(self, toy_setup):
        lm, docs, index = toy_setup
        cfg = SubstituterConfig(k=5, t_pool=10)
        result = whole_span(index, lm, SynonymLexicon(), ("europe", "extreme"), cfg)
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
                mode=rng.choice("ABCD"), d_t=rng.randint(1, 3))
            phrase = tuple(rng.choice(vocab) for _ in range(rng.randint(1, 3)))
            got = whole_span(index, lm, lex, phrase, cfg)
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
        cfg = SubstituterConfig(k=5, t_pool=25, mode="C")
        phrase = (vocab[0], vocab[1])
        got = whole_span(index, lm, SynonymLexicon(), phrase, cfg)
        assert len(got) == 5
        assert got == oracle_best_sub(docs, lm, SynonymLexicon(), phrase, cfg)

    def test_full_t_matches_oracle_exactly(self, toy_setup):
        lm, docs, index = toy_setup
        cfg = SubstituterConfig(k=4, t_pool=len(docs), mode="A")
        phrase = ("extreme", "right")
        assert whole_span(index, lm, SynonymLexicon(), phrase, cfg) == \
            oracle_best_sub(docs, lm, SynonymLexicon(), phrase, cfg)

    def test_raising_t_only_displaces_with_better_scores(self, toy_setup):
        lm, docs, index = toy_setup
        lex = SynonymLexicon()
        phrase = ("europe", "extreme", "right")
        small = whole_span(index, lm, lex, phrase, SubstituterConfig(k=3, t_pool=3))
        large = whole_span(index, lm, lex, phrase, SubstituterConfig(k=3, t_pool=12))
        large_tokens = {c.tokens for c in large}
        for cand in small:
            if cand.tokens not in large_tokens:
                assert all(other.score >= cand.score for other in large)

    def test_invalid_config(self):
        for bad in ({"k": 10, "t_pool": 5}, {"k": 0}, {"mode": "E"}, {"d_t": 0}):
            with pytest.raises(ValueError):
                SubstituterConfig(**bad)


class TestFindBestSubs:
    def test_every_cell_matches_full_scan_oracle(self):
        # The per-sentence sweep must give each span exactly the list the
        # full-scan reference gives it: same floats, same stage-1 cut.
        rng = random.Random(31)
        grew = repeats = 0
        for trial in range(40):
            vocab = [random_word(rng, 2, 5) for _ in range(rng.randint(6, 12))]
            lex = load_lexicon(" ".join(vocab[:3]) + "\n" + " ".join(vocab[2:5]) + "\n")
            corpus = [tuple(rng.choice(vocab) for _ in range(rng.randint(2, 5)))
                      for _ in range(14)]
            lm = train_counts(corpus, 2)
            grams = sorted({tuple(s[a:a + 3]) for s in corpus for a in range(len(s) - 1)})
            rng.shuffle(grams)  # so that docid order is not token order
            docs = [PhraseDoc(i, g, lm.score_sequence(g)) for i, g in enumerate(grams)]
            index = build_index(docs)
            t_pool = rng.choice([1, 3, 8, 50])
            cfg = SubstituterConfig(k=rng.randint(1, min(5, t_pool)), t_pool=t_pool,
                                    mode="ABCD"[trial % 4], d_t=trial // 4 % 3 + 1)
            n = rng.randint(2, 7)
            sentence = [rng.choice(vocab + [random_word(rng, 2, 5)]) for _ in range(n)]
            a, b = rng.sample(range(n), 2)
            sentence[b] = sentence[a]
            sentence = tuple(sentence)
            repeats += len(set(sentence)) < n

            cells = find_best_subs(index, lm, lex, sentence, cfg)
            assert sorted(cells) == [(i, j) for i in range(n) for j in range(i, n)]
            for (i, j), cell in cells.items():
                assert cell == oracle_best_sub(docs, lm, lex, sentence[i:j + 1], cfg)
                if j > i and set(retrieve_any(index, sentence[i:j], cfg.d_t)) < \
                        set(retrieve_any(index, sentence[i:j + 1], cfg.d_t)):
                    grew += 1
        assert repeats == 40
        assert grew > 0

    def test_same_tokens_first_docid_counts(self, toy_setup):
        # build_index accepts two docs with the same tokens; the lower docid's
        # LM score is the one both the sweep and the oracle keep
        lm, docs, _ = toy_setup
        copy = PhraseDoc(len(docs), docs[0].tokens, docs[0].lm_score + 5.0)
        index = build_index(docs + [copy])
        phrase = ("the", "european", "right")
        cfg = SubstituterConfig(k=5, t_pool=10)
        cells = find_best_subs(index, lm, SynonymLexicon(), phrase, cfg)
        for (i, j), cell in cells.items():
            assert cell == oracle_best_sub(docs + [copy], lm, SynonymLexicon(),
                                           phrase[i:j + 1], cfg)
        assert ScoredPhrase(docs[0].tokens, docs[0].lm_score) in cells[(0, 2)]

    def test_identity_keeps_a_retrieved_docs_stored_score(self):
        # the identity is appended after the pool and top_k keeps the first
        # of equal token tuples, so the doc's stored 0.0 beats the LM's -1.301
        lm = parse_arpa("\\data\\\nngram 1=2\nngram 2=1\n\n\\1-grams:\n-0.301 a 0.0\n"
                        "-0.301 b 0.0\n\n\\2-grams:\n-1.0 a b\n\n\\end\\\n")
        assert lm.score_sequence(("a", "b")) == pytest.approx(-1.301)
        index = build_index([PhraseDoc(0, ("a", "b"), 0.0)])
        cfg = SubstituterConfig(k=5, t_pool=10)
        cell = find_best_subs(index, lm, SynonymLexicon(), ("a", "b"), cfg)[(0, 1)]
        assert [c for c in cell if c.tokens == ("a", "b")] == [ScoredPhrase(("a", "b"), 0.0)]

    def test_empty_sentence_rejected(self, toy_setup):
        lm, docs, index = toy_setup
        with pytest.raises(ValueError):
            find_best_subs(index, lm, SynonymLexicon(), (), SubstituterConfig())


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
