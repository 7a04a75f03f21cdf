import random

import pytest

from phrasefix import build_index, extract_phrases, levenshtein, load_index, save_index, train_counts
from phrasefix.phrase_index import PhraseDoc, TrieDictionary

from conftest import random_word


def make_docs(token_lists):
    return [PhraseDoc(i, tuple(t.split()), -float(i)) for i, t in enumerate(token_lists)]


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

    def test_scores_match_independent_scoring(self, lm):
        for doc in extract_phrases(lm, {1, 2}):
            assert doc.lm_score == pytest.approx(lm.score_sequence(doc.tokens))

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
        with pytest.raises(ValueError):
            build_index(docs)

    def test_permuted_docids_rejected(self):
        # docids are looked up as positions in index.docs
        docs = [PhraseDoc(1, ("a",), 0.0), PhraseDoc(0, ("b",), 0.0)]
        with pytest.raises(ValueError):
            build_index(docs)

    def test_postings_reconstruct_membership(self):
        rng = random.Random(42)
        vocab = [random_word(rng) for _ in range(20)]
        docs = make_docs(
            [" ".join(rng.choice(vocab) for _ in range(rng.randint(1, 4)))
             for _ in range(50)])
        index = build_index(docs)
        for word in vocab:
            expected = sorted(d.docid for d in docs if word in d.tokens)
            assert index.postings.get(word, []) == expected
        covered = set()
        for ids in index.postings.values():
            assert ids == sorted(set(ids))
            covered.update(ids)
        assert covered == set(range(len(docs)))

    def test_dictionary_holds_exactly_doc_words(self):
        docs = make_docs(["a b", "b c", "ccc"])
        index = build_index(docs)
        assert sorted(index.dictionary.words()) == ["a", "b", "c", "ccc"]
        assert "a" in index.dictionary
        assert "zz" not in index.dictionary


class TestFuzzyLookup:
    def test_exact_word_always_found(self):
        index = build_index(make_docs(["cat dog", "cart"]))
        assert "cat" in index.expand_query_word("cat", 1)

    def test_cart_matches_cat(self):
        trie = TrieDictionary(["cat", "dog"])
        assert trie.fuzzy_lookup("cart", 3) == {"cat"}

    @pytest.mark.parametrize("d_t", [1, 2, 3])
    def test_trie_equals_linear_scan(self, d_t):
        rng = random.Random(7)
        words = {random_word(rng, 2, 8) for _ in range(200)}
        trie = TrieDictionary(words)
        for _ in range(50):
            q = random_word(rng, 2, 8)
            expected = {w for w in words if levenshtein(q, w) < d_t}
            assert trie.fuzzy_lookup(q, d_t) == expected


class TestRetrieve:
    @pytest.fixture
    def index(self):
        rng = random.Random(11)
        vocab = [random_word(rng, 3, 7) for _ in range(15)]
        return build_index(make_docs(
            [" ".join(rng.choice(vocab) for _ in range(rng.randint(1, 3)))
             for _ in range(60)])), vocab

    def test_verbatim_word_retrieves_doc(self, index):
        idx, _ = index
        doc = idx.docs[5]
        assert 5 in idx.retrieve(doc.tokens, 2)

    def test_unknown_far_words_give_empty(self, index):
        idx, _ = index
        assert idx.retrieve(("qqqqqqqqqqqqqqq",), 2) == []

    def test_matches_brute_force(self, index):
        idx, vocab = index
        rng = random.Random(13)
        for _ in range(30):
            query = tuple(rng.choice(vocab) for _ in range(rng.randint(1, 3)))
            d_t = rng.randint(1, 3)
            expected = sorted(
                d.docid for d in idx.docs
                if any(levenshtein(q, w) < d_t for q in query for w in d.tokens))
            assert idx.retrieve(query, d_t) == expected

    def test_monotone_in_threshold(self, index):
        idx, vocab = index
        rng = random.Random(19)
        for _ in range(20):
            query = tuple(rng.choice(vocab) for _ in range(2))
            prev = set()
            for d_t in (1, 2, 3):
                out = set(idx.retrieve(query, d_t))
                assert prev <= out
                prev = out


class TestPersistence:
    def test_round_trip_retrieval_identical(self, tmp_path):
        rng = random.Random(31)
        vocab = [random_word(rng, 3, 6) for _ in range(12)]
        index = build_index(make_docs(
            [" ".join(rng.choice(vocab) for _ in range(2)) for _ in range(40)]))
        path = tmp_path / "phrases.idx"
        save_index(index, path)
        loaded = load_index(path)
        assert [(d.docid, d.tokens, d.lm_score) for d in loaded.docs] == \
            [(d.docid, d.tokens, d.lm_score) for d in index.docs]
        for _ in range(10):
            query = tuple(rng.choice(vocab) for _ in range(2))
            assert loaded.retrieve(query, 3) == index.retrieve(query, 3)

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
        assert loaded.retrieve(("b",), 2) == index.retrieve(("b",), 2)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk"
        path.write_text("not an index\n")
        with pytest.raises(ValueError):
            load_index(path)
