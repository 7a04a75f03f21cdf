import dataclasses
import random

import pytest

from phrasefix import (PhraseIndex, SubstituterConfig, find_best_subs,
                       find_k_best_common, load_lexicon, parse_arpa, train_counts)
from phrasefix import substituter
from phrasefix.distance import SpanScores
from phrasefix.phrase_index import PhraseDoc

from conftest import random_word, retrieve_any
from distance_oracle import levenshtein, reference_score


def whole_span(index, lm, lex, phrase, cfg):
    """The candidate map of the span covering all of ``phrase``."""
    return find_best_subs(index, lm, lex, phrase, cfg)[(0, len(phrase) - 1)]


def oracle_best_sub(docs, lm, lex, phrase, cfg):
    """Full-scan two-stage reference: brute-force retrieval, ranking by the
    component references' mean, then LM ranking and identity seeding as the
    contract, as (tokens, score) pairs, best first."""
    phrase = tuple(phrase)
    pool = []
    for doc in docs:
        if not any(levenshtein(q, w) < cfg.d_t
                   for q in phrase for w in doc.tokens):
            continue
        pool.append((reference_score(phrase, doc.tokens, lex), doc))
    pool.sort(key=lambda item: (-item[0], item[1].tokens))
    cand = {d.tokens: d.lm_score for _, d in pool[:cfg.t_pool]}
    cand.setdefault(phrase, lm.score_sequence(phrase))
    return sorted(cand.items(), key=lambda item: (-item[1], item[0]))[:cfg.k]


@pytest.fixture
def rank_branches(monkeypatch):
    """Each ``_rank`` call on a non-empty cell as ``(whether the pool fits
    in t_pool, branch)``: the sort when one ``SpanScores.values`` pass
    scored the cell's whole pool, the shortcut when none scored it."""
    branches = []
    passes = []  # the slots each values pass scored since the last cell
    values, rank = SpanScores.values, substituter._rank

    def counting_values(self, slots):
        passes.append(len(slots))
        return values(self, slots)

    def recording_rank(query, pool, *args):
        cell = rank(query, pool, *args)
        if pool:
            assert passes in ([], [len(pool)])
            branches.append((len(pool) <= args[-1].t_pool, "sort" if passes else "shortcut"))
        passes.clear()
        return cell

    monkeypatch.setattr(SpanScores, "values", counting_values)
    monkeypatch.setattr(substituter, "_rank", recording_rank)
    return branches


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
    return lm, docs, PhraseIndex(docs)


class TestFindBestSub:
    def test_verbatim_phrase_is_retrieved(self, toy_setup):
        lm, docs, index = toy_setup
        cfg = SubstituterConfig(k=6, t_pool=10)
        result = whole_span(index, lm, {}, ("the", "european", "union"), cfg)
        assert ("the", "european", "union") in result

    def test_toy_output_sorted_by_lm_score(self, toy_setup):
        lm, docs, index = toy_setup
        cfg = SubstituterConfig(k=5, t_pool=10)
        result = whole_span(index, lm, {}, ("europe", "extreme"), cfg)
        assert result
        scores = list(result.values())
        assert scores == sorted(scores, reverse=True)
        assert list(result.items()) == oracle_best_sub(docs, lm, {},
                                                       ("europe", "extreme"), cfg)

    def test_oracle_equivalence_on_random_instances(self):
        rng = random.Random(99)
        lex = {}
        for _ in range(20):
            vocab = [random_word(rng, 3, 6) for _ in range(10)]
            corpus = [tuple(rng.choice(vocab) for _ in range(rng.randint(2, 4)))
                      for _ in range(12)]
            lm = train_counts(corpus, 2)
            docs = [PhraseDoc(i, g, lm.score_sequence(g))
                    for i, g in enumerate(sorted({tuple(s) for s in corpus}))]
            index = PhraseIndex(docs)
            cfg = SubstituterConfig(k=5, t_pool=rng.choice([5, 25]), d_t=rng.randint(1, 3))
            phrase = tuple(rng.choice(vocab) for _ in range(rng.randint(1, 3)))
            got = whole_span(index, lm, lex, phrase, cfg)
            assert list(got.items()) == oracle_best_sub(docs, lm, lex, phrase, cfg)
            assert len(got) <= cfg.k
            assert got  # identity seeding keeps the map non-empty

    def test_twenty_five_doc_instance_returns_exactly_k(self):
        rng = random.Random(4)
        vocab = [random_word(rng, 3, 5) for _ in range(6)]
        corpus = [tuple(rng.choice(vocab) for _ in range(rng.randint(2, 3)))
                  for _ in range(60)]
        lm = train_counts(corpus, 2)
        grams = sorted({tuple(s) for s in corpus})[:25]
        docs = [PhraseDoc(i, g, lm.score_sequence(g)) for i, g in enumerate(grams)]
        index = PhraseIndex(docs)
        cfg = SubstituterConfig(k=5, t_pool=25)
        phrase = (vocab[0], vocab[1])
        got = whole_span(index, lm, {}, phrase, cfg)
        assert len(got) == 5
        assert list(got.items()) == oracle_best_sub(docs, lm, {}, phrase, cfg)

    def test_full_t_matches_oracle_exactly(self, toy_setup):
        lm, docs, index = toy_setup
        cfg = SubstituterConfig(k=4, t_pool=len(docs))
        phrase = ("extreme", "right")
        assert list(whole_span(index, lm, {}, phrase, cfg).items()) == \
            oracle_best_sub(docs, lm, {}, phrase, cfg)

    def test_raising_t_only_displaces_with_better_scores(self, toy_setup):
        lm, docs, index = toy_setup
        lex = {}
        phrase = ("europe", "extreme", "right")
        small = whole_span(index, lm, lex, phrase, SubstituterConfig(k=3, t_pool=3))
        large = whole_span(index, lm, lex, phrase, SubstituterConfig(k=3, t_pool=12))
        for tokens, score in small.items():
            if tokens not in large:
                assert all(other >= score for other in large.values())

    def test_invalid_config(self):
        for bad in ({"k": 10, "t_pool": 5}, {"k": 0}, {"d_t": 0}):
            with pytest.raises(ValueError):
                SubstituterConfig(**bad)

    def test_config_is_frozen(self):
        # a checked config cannot be changed into one __post_init__ rejects
        cfg = SubstituterConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.k = 0
        assert cfg == SubstituterConfig()


class TestFindBestSubs:
    def test_every_cell_matches_full_scan_oracle(self, rank_branches):
        # The per-sentence sweep must give each span exactly the map the
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
            index = PhraseIndex(docs)
            t_pool = rng.choice([1, 3, 8, 50])
            cfg = SubstituterConfig(k=rng.randint(1, min(5, t_pool)), t_pool=t_pool,
                                    d_t=trial % 3 + 1)
            n = rng.randint(2, 7)
            sentence = [rng.choice(vocab + [random_word(rng, 2, 5)]) for _ in range(n)]
            a, b = rng.sample(range(n), 2)
            sentence[b] = sentence[a]
            sentence = tuple(sentence)
            repeats += len(set(sentence)) < n

            cells = find_best_subs(index, lm, lex, sentence, cfg)
            assert sorted(cells) == [(i, j) for i in range(n) for j in range(i, n)]
            for (i, j), cell in cells.items():
                assert list(cell.items()) == oracle_best_sub(docs, lm, lex,
                                                             sentence[i:j + 1], cfg)
                if j > i and set(retrieve_any(index, sentence[i:j], cfg.d_t)) < \
                        set(retrieve_any(index, sentence[i:j + 1], cfg.d_t)):
                    grew += 1
        assert repeats == 40
        assert grew > 0
        # both pool sizes, each on its own branch
        assert set(rank_branches) == {(True, "shortcut"), (False, "sort")}

    def test_tie_group_straddles_the_cut(self, rank_branches):
        # every one-letter change of "abc" scores the same against it, and
        # the cut falls inside that tie group. It keeps the group's first
        # docs in tokens order, which is neither docid order nor stage 2's
        # order by LM score. "abc" itself scores above them, "abg" ties with
        # them.
        words = ["abe", "abf", "abd", "abh", "abc"]
        stored = [-3.0, -0.5, -2.0, -0.1, -1.0]
        docs = [PhraseDoc(i, (w,), s) for i, (w, s) in enumerate(zip(words, stored))]
        index = PhraseIndex(docs)
        lm = train_counts([("abc", "abd")], 1)
        for phrase in (("abc",), ("abg",)):
            for t_pool in range(1, 6):
                cfg = SubstituterConfig(k=min(5, t_pool), t_pool=t_pool)
                assert list(whole_span(index, lm, {}, phrase, cfg).items()) == \
                    oracle_best_sub(docs, lm, {}, phrase, cfg)
        cfg = SubstituterConfig(k=3, t_pool=3)
        assert list(whole_span(index, lm, {}, ("abc",), cfg).items()) == [
            (("abc",), -1.0), (("abd",), -2.0), (("abe",), -3.0)]
        assert (False, "sort") in rank_branches

    def test_states_are_scored_only_past_t_pool(self, toy_setup, monkeypatch,
                                                rank_branches):
        # each fold of a word's column, as the number of cells ranked before it
        made = []
        fold = SpanScores.fold

        def counting_fold(self, column):
            made.append(len(rank_branches))
            fold(self, column)

        monkeypatch.setattr(SpanScores, "fold", counting_fold)
        lm, docs, index = toy_setup
        # at d_t 1 a word retrieves the docs that hold it: the spans of
        # (0, 0) .. (2, 2) hold docs {2}, {2, 3}, {1, 2, 3}, {3}, {1, 3}, {1}
        sentence = ("union", "terrorism", "strong")
        cells = find_best_subs(index, lm, {}, sentence, SubstituterConfig(k=2, t_pool=3, d_t=1))
        assert made == []
        assert set(rank_branches) == {(True, "shortcut")}
        rank_branches.clear()
        cfg = SubstituterConfig(k=2, t_pool=2, d_t=1)
        lazy = find_best_subs(index, lm, {}, sentence, cfg)
        # only the full span, the third cell ranked, exceeds t_pool 2: its
        # start folds its three words then, and no other start folds
        assert made == [2, 2, 2]
        assert rank_branches == [(True, "shortcut")] * 2 + [(False, "sort")] + \
            [(True, "shortcut")] * 3
        for (i, j), cell in lazy.items():
            assert list(cell.items()) == oracle_best_sub(docs, lm, {}, sentence[i:j + 1], cfg)
        assert list(cells[(0, 1)].items()) == list(lazy[(0, 1)].items())

    def test_interleaved_doc_lengths_match_oracle(self, rank_branches):
        # docid order is not extract_phrases' order by length (3, 1, 2, 3, 1,
        # ...), and "cat" and "dog" are mates too far apart to align
        grams = [("mat", "cat", "dog"), ("cot",), ("dig", "cat"), ("cat", "dog", "cot"),
                 ("mat",), ("dog", "mat"), ("cot", "cat", "dig"), ("dig",)]
        lm = train_counts(grams, 2)
        docs = [PhraseDoc(i, g, lm.score_sequence(g)) for i, g in enumerate(grams)]
        index = PhraseIndex(docs)
        lex = load_lexicon("cat dog\n")
        sentence = ("cot", "dog", "cat", "dog", "map")
        for t_pool in (1, 2, 3, 5, 8, 20):
            for d_t in (1, 2, 3):
                cfg = SubstituterConfig(k=min(3, t_pool), t_pool=t_pool, d_t=d_t)
                cells = find_best_subs(index, lm, lex, sentence, cfg)
                for (i, j), cell in cells.items():
                    assert list(cell.items()) == oracle_best_sub(docs, lm, lex,
                                                             sentence[i:j + 1], cfg)
        assert set(rank_branches) == {(True, "shortcut"), (False, "sort")}

    def test_sentence_that_retrieves_nothing_keeps_only_identities(self, rank_branches):
        lm = train_counts([("alpha", "beta"), ("gamma",)], 2)
        index = PhraseIndex([PhraseDoc(0, ("alpha", "beta"), -1.0),
                             PhraseDoc(1, ("gamma",), -0.5)])
        sentence = ("zq", "xj", "zq")
        cfg = SubstituterConfig(k=2, t_pool=2)
        assert all(not index.retrieve(w, cfg.d_t) for w in sentence)
        cells = find_best_subs(index, lm, {}, sentence, cfg)
        assert sorted(cells) == [(i, j) for i in range(3) for j in range(i, 3)]
        for (i, j), cell in cells.items():
            span = sentence[i:j + 1]
            assert list(cell.items()) == [(span, lm.score_sequence(span))]
            assert list(cell.items()) == oracle_best_sub(index.docs, lm, {}, span, cfg)
        assert rank_branches == []

    def test_identity_keeps_a_retrieved_docs_stored_score(self):
        # the identity is entered after the pool and a map keeps the first
        # score of a token tuple, so the doc's stored 0.0 beats the LM's -1.301
        lm = parse_arpa("\\data\\\nngram 1=2\nngram 2=1\n\n\\1-grams:\n-0.301 a 0.0\n"
                        "-0.301 b 0.0\n\n\\2-grams:\n-1.0 a b\n\n\\end\\\n")
        assert lm.score_sequence(("a", "b")) == pytest.approx(-1.301)
        index = PhraseIndex([PhraseDoc(0, ("a", "b"), 0.0)])
        cfg = SubstituterConfig(k=5, t_pool=10)
        cell = find_best_subs(index, lm, {}, ("a", "b"), cfg)[(0, 1)]
        assert cell[("a", "b")] == 0.0

    def test_identity_outranked_in_the_pool_stays_out(self):
        # the doc "q" holds the span's tokens with a stored -5.0, below "x";
        # the LM's -0.301 for the identity would rank first, but the first
        # entry for a token tuple counts, so "q" stays out of the 1 best
        lm = parse_arpa("\\data\\\nngram 1=2\n\n\\1-grams:\n-0.301 q\n-0.301 x\n\n\\end\\\n")
        index = PhraseIndex([PhraseDoc(0, ("x",), -0.5), PhraseDoc(1, ("q",), -5.0)])
        cfg = SubstituterConfig(k=1, t_pool=10)
        assert list(whole_span(index, lm, {}, ("q",), cfg).items()) == [(("x",), -0.5)]
        assert list(whole_span(index, lm, {}, ("q",), cfg).items()) == \
            oracle_best_sub(index.docs, lm, {}, ("q",), cfg)

    def test_empty_sentence_has_no_cells(self, toy_setup):
        lm, docs, index = toy_setup
        assert find_best_subs(index, lm, {}, (), SubstituterConfig()) == {}


class TestFindKBestCommon:
    def make_docs(self, phrases):
        return [PhraseDoc(i, tuple(p.split()), 0.0) for i, p in enumerate(phrases)]

    def test_direct_set_logic(self):
        index = PhraseIndex(self.make_docs(["a b", "a x", "b c y"]))
        got = find_k_best_common(index, ("a", "b", "c"))
        assert got == [("a", "b"), ("b", "c", "y")]

    def test_no_shared_pair_gives_empty(self):
        index = PhraseIndex(self.make_docs(["x y", "z w"]))
        assert find_k_best_common(index, ("a", "b")) == []

    def test_short_phrase_gives_empty(self):
        index = PhraseIndex(self.make_docs(["a b"]))
        assert find_k_best_common(index, ("a",)) == []

    def test_matches_brute_force(self):
        rng = random.Random(55)
        vocab = [random_word(rng, 2, 4) for _ in range(8)]
        docs = self.make_docs(dict.fromkeys(  # each phrase once, in draw order
            " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 4)))
            for _ in range(30)))
        index = PhraseIndex(docs)
        for _ in range(30):
            phrase = tuple(rng.choice(vocab) for _ in range(rng.randint(2, 4)))
            expected = [d.tokens for d in docs
                        if len(set(phrase) & set(d.tokens)) >= 2]
            assert find_k_best_common(index, phrase) == expected
