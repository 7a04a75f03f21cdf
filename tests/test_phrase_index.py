import random
import re
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from phrasefix import (build_index, extract_phrases, load_index, parse_arpa, save_index,
                       train_counts)
from phrasefix.lm import LanguageModel
from phrasefix.phrase_index import PhraseDoc

from conftest import random_word, retrieve_any, synth_corpus
from distance_oracle import levenshtein


def make_docs(token_lists):
    return [PhraseDoc(i, tuple(t.split()), -float(i)) for i, t in enumerate(token_lists)]


def scan(index, word, d_t):
    """Sorted docids of the docs holding a word at reference distance < d_t."""
    return [d.docid for d in index.docs
            if any(levenshtein(word, w) < d_t for w in d.tokens)]


class TestExtractPhrases:
    @pytest.fixture
    def lm(self):
        return train_counts([("a", "b"), ("b", "c"), ("a", "b")], 2)

    def test_order_two_only(self, lm):
        docs = extract_phrases(lm, {2})
        assert {d.tokens for d in docs} == {("a", "b"), ("b", "c")}

    def test_union_of_orders(self, lm):
        docs = extract_phrases(lm, {1, 2})
        assert len(docs) == len(lm.tables[1]) + len(lm.tables[2])
        assert [d.docid for d in docs] == list(range(len(docs)))

    def test_scores_match_independent_scoring(self):
        # to the last bit: stage 1 breaks ties on a doc's score
        rng = random.Random(5)
        vocab = [random_word(rng) for _ in range(12)]
        sentences = [tuple(rng.choice(vocab) for _ in range(rng.randint(1, 8)))
                     for _ in range(80)]
        for order in range(1, 5):
            model = train_counts(sentences, order)
            for orders in [range(1, order + 1), {1, 2}, {3}, {1, 3}]:
                if max(orders) > order:
                    continue
                docs = extract_phrases(model, orders)
                assert len(docs) == sum(len(model.tables[n]) for n in set(orders))
                for doc in docs:
                    assert doc.lm_score == model.score_sequence(doc.tokens), (order, doc)

    def test_ngram_without_stored_prefix_scores_exactly(self):
        # "c a b" has no stored "c a", so it is scored by score_sequence,
        # and "c a b c" continues that score
        model = parse_arpa("\\data\\\nngram 1=3\nngram 2=2\nngram 3=2\nngram 4=1\n\n"
                           "\\1-grams:\n-0.7\ta\t-0.3\n-0.1\tb\t-0.2\n-0.9\tc\t-0.4\n\n"
                           "\\2-grams:\n-0.4\ta b\t-0.1\n-0.6\tb c\n\n"
                           "\\3-grams:\n-0.3\ta b c\n-0.2\tc a b\n\n"
                           "\\4-grams:\n-0.1\tc a b c\n\n\\end\\\n")
        docs = extract_phrases(model, range(1, 5))
        assert [d.tokens for d in docs][-3:] == [("a", "b", "c"), ("c", "a", "b"),
                                                 ("c", "a", "b", "c")]
        for doc in docs:
            assert doc.lm_score == model.score_sequence(doc.tokens), doc
        # the unstored "c a" backs off through c's weight to "a"
        assert docs[-2].lm_score == -0.9 + (-0.4 + -0.7) + -0.2

    def test_trained_model_is_scored_without_score_sequence(self, monkeypatch):
        calls = []
        score_sequence = LanguageModel.score_sequence

        def counted(self, *args):
            calls.append(args)
            return score_sequence(self, *args)

        model = train_counts(synth_corpus(50, seed=2), 4)
        monkeypatch.setattr(LanguageModel, "score_sequence", counted)
        docs = extract_phrases(model, range(1, 5))
        assert len(docs) == sum(len(t) for t in model.tables.values())
        assert calls == []

    def test_default_orders(self):
        # 2..N, or 1 for a unigram model
        sentences = synth_corpus(20, seed=4)
        for order, orders in [(1, {1}), (2, {2}), (4, {2, 3, 4})]:
            model = train_counts(sentences, order)
            assert extract_phrases(model) == extract_phrases(model, orders)

    def test_empty_selection(self, lm):
        with pytest.raises(ValueError):
            extract_phrases(lm, set())

    def test_out_of_range_order(self, lm):
        with pytest.raises(ValueError):
            extract_phrases(lm, {3})


class TestBuildIndex:
    def test_small_example(self):
        index = build_index(make_docs(["a b", "b c"]))
        assert index.postings["b"] == [0, 1]
        assert index.postings["a"] == [0]

    def test_single_doc(self):
        index = build_index(make_docs(["x y z"]))
        assert all(index.postings[w] == [0] for w in "xyz")

    def test_duplicate_docid_rejected(self):
        docs = [PhraseDoc(0, ("a",), 0.0), PhraseDoc(0, ("b",), 0.0)]
        with pytest.raises(ValueError, match=re.escape(
                "doc at position 1 has docid 0; docids must be 0..M-1 in order")):
            build_index(docs)

    def test_permuted_docids_rejected(self):
        # docids are looked up as positions in index.docs
        docs = [PhraseDoc(1, ("a",), 0.0), PhraseDoc(0, ("b",), 0.0)]
        with pytest.raises(ValueError, match="doc at position 0 has docid 1;"):
            build_index(docs)

    def test_doc_without_tokens_rejected(self):
        with pytest.raises(ValueError, match="doc 1 has no tokens"):
            build_index([PhraseDoc(0, ("a",), 0.0), PhraseDoc(1, (), 0.0)])

    def test_postings_reconstruct_membership(self):
        rng = random.Random(42)
        vocab = [random_word(rng) for _ in range(20)]
        docs = make_docs(dict.fromkeys(  # each phrase once, in draw order
            " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 4)))
            for _ in range(50)))
        index = build_index(docs)
        for word in vocab:
            expected = sorted(d.docid for d in docs if word in d.tokens)
            assert index.postings.get(word, []) == expected
        covered = set()
        for ids in index.postings.values():
            assert ids == sorted(set(ids))
            covered.update(ids)
        assert covered == set(range(len(docs)))

    def test_same_tokens_twice_rejected(self):
        docs = make_docs(["a b", "b c", "c d", "b c"])
        with pytest.raises(ValueError, match=re.escape(
                "docs 1 and 3 have the same tokens 'b c'")):
            build_index(docs)

    def test_dictionary_holds_exactly_doc_words(self):
        index = build_index(make_docs(["a b", "b c", "ccc", "dddd"]))
        # every word of length < 4 is within distance 4 of the empty query
        assert index.retrieve("", 4) == [0, 1, 2] == scan(index, "", 4)
        assert index.retrieve("a", 1) == [0]
        assert index.retrieve("zz", 1) == []


class TestFuzzyLookup:
    def test_exact_word_always_found(self):
        index = build_index(make_docs(["cat dog", "cart"]))
        assert index.retrieve("cat", 1) == [0]

    def test_cart_matches_cat(self):
        index = build_index(make_docs(["cat", "dog"]))
        assert index.retrieve("cart", 3) == [0] == scan(index, "cart", 3)

    @pytest.mark.parametrize("d_t", [1, 2, 3, 4, 5, 6])
    def test_retrieve_equals_linear_scan(self, d_t):
        rng = random.Random(7)
        words = sorted({random_word(rng, 2, 8) for _ in range(200)})
        index = build_index(make_docs(words))  # one doc per word
        for _ in range(50):
            q = random_word(rng, 2, 8)
            assert index.retrieve(q, d_t) == scan(index, q, d_t)

    @pytest.mark.parametrize("d_t", [1, 2, 3, 4])
    def test_repeated_bigrams_and_pad_characters(self, d_t):
        # repeats are counted as a multiset; the pads may occur inside words
        words = ["aaaa", "aaab", "abab", "baba", "aab", "ab\x02", "\x02ab",
                 "a\x03\x02", "\x03", "\x02\x03ab"]
        index = build_index(make_docs(words))
        for q in words + ["", "a", "aa", "aaaaaa", "ababab", "\x02", "\x03\x02"]:
            assert index.retrieve(q, d_t) == scan(index, q, d_t)

    @pytest.mark.parametrize("d_t", [3, 4])
    @pytest.mark.parametrize("query", ["", "a", "zq", "xyz"])
    def test_short_query_finds_words_sharing_no_bigram(self, query, d_t):
        # max(|q|, |w|) + 1 - 2 * (d_t - 1) <= 0 here, so a match may share
        # no padded bigram with the query
        index = build_index(make_docs(["b", "cd", "ayb", "efgh", "ijklmnop"]))
        found = index.retrieve(query, d_t)
        assert found and found == scan(index, query, d_t)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(words=st.lists(st.text("ab\x02\x03\xe9", min_size=1, max_size=8),
                          min_size=1, max_size=12, unique=True),
           query=st.text("ab\x02\x03\xe9", max_size=8),
           d_t=st.integers(1, 6))
    def test_equals_reference_scan_property(self, words, query, d_t):
        index = build_index([PhraseDoc(i, (w,), 0.0) for i, w in enumerate(words)])
        assert index.retrieve(query, d_t) == scan(index, query, d_t)

    def test_bigram_table_holds_each_padded_bigram_once(self):
        # each word is listed under a padded bigram once per occurrence of
        # it, and under its length once
        index = build_index(make_docs(["aaaa b", "abab", "b cd", "\x02a\x03"]))
        by_bigram, by_length = index._tables
        for w in index.postings:
            padded = f"\x02{w}\x03"
            assert Counter(padded[i:i + 2] for i in range(len(w) + 1)) == \
                Counter({bigram: words.count(w) for bigram, words in by_bigram.items()
                         if w in words})
        assert sum(map(len, by_bigram.values())) == sum(len(w) + 1 for w in index.postings)
        assert sorted(by_length) == [1, 2, 3, 4]
        assert {m: sorted(words) for m, words in by_length.items()} == \
            {m: sorted(w for w in index.postings if len(w) == m) for m in by_length}

    @pytest.mark.parametrize("d_t", [2, 3, 4, 5, 6])
    def test_short_queries_read_the_words_by_length(self, d_t):
        # a query shorter than 2 * (d_t - 1) also takes the words of each
        # length near its own that share no bigram with it
        words = ["x" * m for m in range(1, 13)] + ["b", "ab", "ba", "abc", "qrst", "\x02\x03"]
        index = build_index(make_docs(words))
        for q in ["", "a", "b", "ab", "zz", "abc", "xyz", "abcd", "zzzzz", "\x03"]:
            assert index.retrieve(q, d_t) == scan(index, q, d_t), q


class TestRetrieve:
    @pytest.fixture
    def index(self):
        rng = random.Random(11)
        vocab = [random_word(rng, 3, 7) for _ in range(15)]
        return build_index(make_docs(dict.fromkeys(  # each phrase once, in draw order
            " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 3)))
            for _ in range(60)))), vocab

    def test_verbatim_word_retrieves_doc(self, index):
        idx, _ = index
        for word in idx.docs[5].tokens:
            assert 5 in idx.retrieve(word, 1)

    def test_unknown_far_words_give_empty(self, index):
        idx, _ = index
        assert idx.retrieve("qqqqqqqqqqqqqqq", 2) == []

    def test_matches_brute_force(self, index):
        idx, vocab = index
        rng = random.Random(13)
        for _ in range(60):
            word = rng.choice([rng.choice(vocab), random_word(rng, 2, 7)])
            d_t = rng.randint(1, 4)
            assert idx.retrieve(word, d_t) == scan(idx, word, d_t)

    def test_threshold_below_one_rejected(self, index):
        idx, vocab = index
        with pytest.raises(ValueError):
            idx.retrieve(vocab[0], 0)

    def test_monotone_in_threshold(self, index):
        idx, vocab = index
        rng = random.Random(19)
        for _ in range(20):
            query = tuple(rng.choice(vocab) for _ in range(2))
            prev = set()
            for d_t in (1, 2, 3):
                out = set(retrieve_any(idx, query, d_t))
                assert prev <= out
                prev = out


class TestPhraseDoc:
    def test_fields_in_order_and_read_only(self):
        doc = PhraseDoc(3, ("a", "b"), -1.5)
        assert PhraseDoc._fields == ("docid", "tokens", "lm_score")
        assert tuple(doc) == (3, ("a", "b"), -1.5)
        assert (doc.docid, doc.tokens, doc.lm_score) == (3, ("a", "b"), -1.5)
        with pytest.raises(AttributeError):
            doc.lm_score = 0.0


class TestPersistence:
    def test_extracted_docs_round_trip_exactly(self, tmp_path):
        # the benchmark compares loaded docs in this form with the file's
        docs = extract_phrases(train_counts(synth_corpus(40, seed=8), 3), [2, 3])
        path = tmp_path / "phrases.idx"
        save_index(build_index(docs), path)
        assert [(d.docid, d.lm_score, d.tokens) for d in load_index(path).docs] == \
            [(d.docid, d.lm_score, d.tokens) for d in docs]

    def test_load_peaks_near_what_it_keeps(self, tmp_path):
        # one pass that keeps no line: a load that split every line before
        # converting them would peak well above the index it returns
        rng = random.Random(12)
        vocab = [random_word(rng, 4, 9) for _ in range(3000)]
        phrases = dict.fromkeys(tuple(rng.choice(vocab) for _ in range(rng.randint(2, 3)))
                                for _ in range(22000))
        docs = [PhraseDoc(i, p, -rng.random() * 9) for i, p in enumerate(phrases)]
        assert len(docs) >= 20000
        path = tmp_path / "phrases.idx"
        save_index(build_index(docs), path)
        del docs, phrases
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            index = load_index(path)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - base <= 1.10 * (held - base)

    def test_round_trip_retrieval_identical(self, tmp_path):
        rng = random.Random(31)
        vocab = [random_word(rng, 3, 6) for _ in range(12)]
        phrases = [" ".join(rng.choice(vocab) for _ in range(2)) for _ in range(40)]
        index = build_index(make_docs(list(dict.fromkeys(phrases))))  # each phrase once
        path = tmp_path / "phrases.idx"
        save_index(index, path)
        loaded = load_index(path)
        assert [(d.docid, d.tokens, d.lm_score) for d in loaded.docs] == \
            [(d.docid, d.tokens, d.lm_score) for d in index.docs]
        for _ in range(10):
            query = tuple(rng.choice(vocab) for _ in range(2))
            assert retrieve_any(loaded, query, 3) == retrieve_any(index, query, 3)

    def test_stored_postings_are_not_trusted(self, tmp_path):
        index = build_index(make_docs(["a b", "b c", "c d"]))
        path = tmp_path / "phrases.idx"
        save_index(index, path)
        lines = path.read_text().splitlines(keepends=True)
        lines = [ln.rstrip("\n") + " 999999\n" if ln.startswith("b\t") else ln
                 for ln in lines]
        path.write_text("".join(lines))
        loaded = load_index(path)
        assert loaded.postings == index.postings
        assert loaded.retrieve("b", 2) == index.retrieve("b", 2)

    @pytest.mark.parametrize("word", ["a b", "x\ty", "", "a\nb", "\r"])
    def test_word_the_format_cannot_hold_rejected_before_writing(self, tmp_path, word):
        path = tmp_path / "phrases.idx"
        index = build_index([PhraseDoc(0, (word, "c"), -1.0)])
        with pytest.raises(ValueError, match=re.escape(f"cannot save the word {word!r}")):
            save_index(index, path)
        assert not path.exists()

    @pytest.mark.parametrize("score", ["nan", "inf", "-inf"])
    def test_non_finite_doc_score_rejected(self, tmp_path, score):
        path = tmp_path / "phrases.idx"
        save_index(build_index(make_docs(["a b", "b c"])), path)
        lines = path.read_text().splitlines(keepends=True)
        docid, _, tokens = lines[3].split("\t")
        lines[3] = f"{docid}\t{score}\t{tokens}"  # the second doc line
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match="doc 1 has non-finite score"):
            load_index(path)

    @pytest.mark.parametrize("score", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_doc_score_rejected_before_writing(self, tmp_path, score):
        path = tmp_path / "phrases.idx"
        index = build_index([PhraseDoc(0, ("a", "b"), -1.0), PhraseDoc(1, ("b", "c"), score)])
        message = f"cannot save doc 1: non-finite score {score!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            save_index(index, path)
        assert not path.exists()

    def test_same_tokens_twice_rejected(self, tmp_path):
        path = tmp_path / "phrases.idx"
        save_index(build_index(make_docs(["a b", "b c", "c d"])), path)
        lines = path.read_text().splitlines(keepends=True)
        docid, score, _ = lines[4].split("\t")
        lines[4] = "\t".join([docid, score, lines[2].split("\t")[2]])  # doc 0's tokens
        path.write_text("".join(lines))
        with pytest.raises(ValueError) as err:
            load_index(path)
        assert str(err.value) == f"{path}: docs 0 and 2 have the same tokens 'a b'"

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk"
        path.write_text("not an index\n")
        with pytest.raises(ValueError):
            load_index(path)

    def test_missing_postings_header_names_file_and_line(self, tmp_path):
        path = tmp_path / "phrases.idx"
        save_index(build_index(make_docs(["a b", "b c"])), path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:4]))  # header, count line, both docs
        with pytest.raises(ValueError) as err:
            load_index(path)
        assert str(err.value) == (f"{path}: line 5: expected the postings header "
                                  "after 2 docs, got ''")
