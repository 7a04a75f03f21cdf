import math
import random

import pytest

from phrasefix import (LanguageModel, corpus_perplexity, parse_arpa, serialize_arpa,
                       tokenize, train_counts)
from phrasefix.lm import OOV_LOGPROB

from conftest import random_word, synth_corpus

UNIFORM_TWO_WORD = """\
\\data\\
ngram 1=2

\\1-grams:
-0.301029995663981\ta
-0.301029995663981\tb

\\end\\
"""

# order-3 toy: trigram (a b c) stored, (a b d) must back off through "a b"
BACKOFF_TOY = """\
\\data\\
ngram 1=4
ngram 2=2
ngram 3=1

\\1-grams:
-0.5\ta\t0.0
-0.6\tb\t-0.3
-0.7\tc\t0.0
-0.9\td\t0.0

\\2-grams:
-0.25\ta b\t-0.1
-0.4\tb d\t0.0

\\3-grams:
-0.2\ta b c

\\end\\
"""


class TestParseArpa:
    def test_uniform_two_word_model(self):
        lm = parse_arpa(UNIFORM_TWO_WORD)
        assert lm.order == 1
        assert len(lm.tables[1]) == 2
        assert lm.tables[1][("a",)][0] == pytest.approx(math.log10(0.5))
        assert lm.tables[1][("b",)][0] == pytest.approx(math.log10(0.5))

    def test_byte_order_mark_before_the_header(self):
        assert parse_arpa("\ufeff" + BACKOFF_TOY).tables == parse_arpa(BACKOFF_TOY).tables

    def test_byte_order_mark_read_from_a_utf8_file(self, tmp_path):
        # a file saved with a byte-order mark, opened as plain utf-8
        path = tmp_path / "model.arpa"
        path.write_text(BACKOFF_TOY, encoding="utf-8-sig")
        with open(path, encoding="utf-8") as fh:
            assert parse_arpa(fh).tables == parse_arpa(BACKOFF_TOY).tables

    def test_missing_backoff_defaults_to_zero(self):
        text = ("\\data\\\nngram 1=2\nngram 2=1\n\n\\1-grams:\n-0.3\ta\t-0.1\n"
                "-0.3\tb\t0.0\n\n\\2-grams:\n-0.5\ta b\n\n\\end\\\n")
        lm = parse_arpa(text)
        assert lm.tables[2][("a", "b")][1] == 0.0

    def test_count_mismatch(self):
        text = ("\\data\\\nngram 1=3\n\n\\1-grams:\n-0.3\ta\n-0.3\tb\n\n\\end\\\n")
        with pytest.raises(ValueError, match="declared 3 1-grams but parsed 2"):
            parse_arpa(text)

    def test_non_numeric_logprob_names_line(self):
        text = "\\data\\\nngram 1=1\n\n\\1-grams:\nbogus\ta\n\n\\end\\\n"
        with pytest.raises(ValueError, match="line 5"):
            parse_arpa(text)

    @pytest.mark.parametrize("entry", ["inf\ta", "nan\ta", "-0.3\ta\t-inf", "-0.3\ta\tnan"])
    def test_non_finite_number_names_line(self, entry):
        text = f"\\data\\\nngram 1=1\n\n\\1-grams:\n{entry}\n\n\\end\\\n"
        with pytest.raises(ValueError, match="line 5: non-finite"):
            parse_arpa(text)

    def test_a_gram_word_is_never_read_as_a_number(self):
        text = "\\data\\\nngram 1=2\n\n\\1-grams:\n-0.3\tinf\n-0.3\tnan\t-0.1\n\n\\end\\\n"
        assert parse_arpa(text).tables == {1: {("inf",): (-0.3, 0.0), ("nan",): (-0.3, -0.1)}}

    def test_finite_numbers_whose_sum_overflows_load(self):
        text = "\\data\\\nngram 1=1\n\n\\1-grams:\n-1e308\ta\t-1e308\n\n\\end\\\n"
        assert parse_arpa(text).tables == {1: {("a",): (-1e308, -1e308)}}

    def test_section_out_of_sequence(self):
        text = ("\\data\\\nngram 1=1\nngram 2=1\n\n\\2-grams:\n-0.5\ta b\n\n"
                "\\1-grams:\n-0.3\ta\n\n\\end\\\n")
        with pytest.raises(ValueError, match="out of sequence"):
            parse_arpa(text)

    def test_missing_end_marker(self):
        text = "\\data\\\nngram 1=1\n\n\\1-grams:\n-0.3\ta\n"
        with pytest.raises(ValueError, match="end"):
            parse_arpa(text)

    @pytest.mark.parametrize("text,message,line_no", [
        ("ngram 1=1\n\n\\1-grams:\n-0.3\ta\n", "missing \\data\\ header", 4),
        ("\\data\\\n\n\\1-grams:\n-0.3\ta\n\n\\end\\\n",
         "no ngram count declarations after \\data\\", 3),
        # the stream ends right after \\data\\
        ("\\data\\\n", "no ngram count declarations after \\data\\", 2),
        ("\\data\\\nngram 1=1\n\nstray words\n\\1-grams:\n-0.3\ta\n\\end\\\n",
         "unexpected content 'stray words'", 4),
        ("\\data\\\nngram 1=1\nngram 2=1\n\n\\1-grams:\n-0.3\ta\n\n\\2-grams:\n"
         "-0.5\ta\n\n\\end\\\n", "expected 2-gram entry, got '-0.5\\ta'", 9),
        # reported at the \\end\\ line, not at the stream's last line
        ("\\data\\\nngram 1=1\nngram 2=1\n\n\\1-grams:\n-0.3\ta\n\n\\end\\\n\n",
         "missing \\2-grams: section", 8),
        ("\\data\\\nngram 1=1\nngram 2=1\n\n\\1-grams:\n-0.3\ta\tbogus\n",
         "non-numeric backoff 'bogus'", 6),
        # each number is named, the logprob first
        ("\\data\\\nngram 1=1\n\n\\1-grams:\nbogus\ta\n", "non-numeric logprob 'bogus'", 5),
        ("\\data\\\nngram 1=1\n\n\\1-grams:\n1e999\ta\n", "non-finite logprob '1e999'", 5),
        ("\\data\\\nngram 1=1\n\n\\1-grams:\n-0.3\ta\t1e999\n",
         "non-finite backoff '1e999'", 5),
        ("\\data\\\nngram 1=1\n\n\\1-grams:\ninf\ta\tbogus\n", "non-finite logprob 'inf'", 5),
        # the k-th count line must declare order k: order 0 beside order 1,
        # order 0 alone, a repeated order and a gap
        ("\\data\\\nngram 0=1\nngram 1=1\n\n\\0-grams:\n-0.5\n\n\\1-grams:\n"
         "-0.3 a\n\n\\end\\\n", "ngram 0 count out of sequence, expected ngram 1", 2),
        ("\\data\\\nngram 0=1\n\n\\0-grams:\n-0.5\n\n\\end\\\n",
         "ngram 0 count out of sequence, expected ngram 1", 2),
        ("\\data\\\nngram 1=1\nngram 1=2\n\n\\1-grams:\n-0.3 a\n\n\\end\\\n",
         "ngram 1 count out of sequence, expected ngram 2", 3),
        ("\\data\\\nngram 1=1\nngram 3=1\n\n\\1-grams:\n-0.3 a\n\n\\3-grams:\n"
         "-0.2 a a a\n\n\\end\\\n", "ngram 3 count out of sequence, expected ngram 2", 3),
        # a repeated entry is reported at its second line, not as a short count
        ("\\data\\\nngram 1=2\n\n\\1-grams:\n-0.3 a\n-0.4 a\n\n\\end\\\n",
         "repeated 1-gram 'a'", 6),
        ("\\data\\\nngram 1=2\nngram 2=2\n\n\\1-grams:\n-0.3 a -0.1\n-0.3 b -0.1\n\n"
         "\\2-grams:\n-0.2 a b\n-0.5 a  b\n\n\\end\\\n", "repeated 2-gram 'a b'", 11),
    ])
    def test_error_names_message_and_line(self, text, message, line_no):
        with pytest.raises(ValueError) as err:
            parse_arpa(text)
        assert str(err.value) == f"line {line_no}: {message}"

    def test_accepts_spaces_and_tabs(self):
        tabbed = parse_arpa("\\data\\\nngram 1=1\n\n\\1-grams:\n-0.3\ta\n\n\\end\\\n")
        spaced = parse_arpa("\\data\\\nngram 1=1\n\n\\1-grams:\n-0.3 a\n\n\\end\\\n")
        assert tabbed.tables == spaced.tables


def arpa_logprob(lm, word, history):
    """log10 P(word | history) by the ARPA backoff rule, written apart from
    ``score_sequence``: a stored n-gram's logprob, else the history's backoff
    weight (0 if the history is not stored) plus the score under the history
    without its first word, down to ``OOV_LOGPROB`` for an unknown unigram."""
    hit = lm.tables.get(len(history) + 1, {}).get(history + (word,))
    if hit is not None:
        return hit[0]
    if not history:
        return OOV_LOGPROB
    ctx = lm.tables.get(len(history), {}).get(history)
    return (ctx[1] if ctx else 0.0) + arpa_logprob(lm, word, history[1:])


class TestScoring:
    def test_stored_trigram_direct_lookup(self):
        lm = parse_arpa(BACKOFF_TOY)
        assert lm.score_sequence(("a", "b", "c"), 2) == pytest.approx(-0.2)

    def test_backoff_recursion_hand_value(self):
        # (a b, d) absent -> backoff(a b) + score(d | b) = -0.1 + -0.4
        lm = parse_arpa(BACKOFF_TOY)
        assert lm.score_sequence(("a", "b", "d"), 2) == pytest.approx(-0.5)

    def test_oov_floor(self):
        lm = parse_arpa(BACKOFF_TOY)
        assert lm.score_sequence(("zzz",), 0) == OOV_LOGPROB

    def test_stored_ngram_never_backed_off(self):
        lm = parse_arpa(BACKOFF_TOY)
        for n, table in lm.tables.items():
            for gram, entry in table.items():
                assert lm.score_sequence(gram, len(gram) - 1) == pytest.approx(entry[0])

    def test_long_history_truncated(self):
        lm = parse_arpa(BACKOFF_TOY)
        assert lm.score_sequence(("d", "d", "a", "b", "c"), 4) == \
            lm.score_sequence(("a", "b", "c"), 2)

    def test_score_sequence_examples(self):
        lm = parse_arpa(UNIFORM_TWO_WORD)
        assert lm.score_sequence(("a",)) == pytest.approx(-0.30103, abs=1e-5)
        assert lm.score_sequence(("a", "b")) == pytest.approx(-0.60206, abs=1e-5)

    def test_score_sequence_is_positionwise_sum(self):
        rng = random.Random(0)
        toy = parse_arpa(BACKOFF_TOY)
        trained = train_counts(synth_corpus(30, seed=4), 3)
        vocab = sorted(g[0] for g in trained.tables[1]) + ["zzz"]
        for lm, words in ((toy, "abcde"), (trained, vocab)):
            for _ in range(50):
                s = tuple(rng.choice(words) for _ in range(rng.randint(1, 7)))
                terms = [arpa_logprob(lm, s[j], s[max(0, j - lm.order + 1):j])
                         for j in range(len(s))]
                assert lm.score_sequence(s) == pytest.approx(sum(terms))
                start = rng.randrange(len(s))
                assert lm.score_sequence(s, start) == pytest.approx(sum(terms[start:]))

    def test_empty_sequence_rejected(self):
        lm = parse_arpa(UNIFORM_TWO_WORD)
        with pytest.raises(ValueError):
            lm.score_sequence(())

    def test_continued_score_is_bit_identical(self):
        # correct_dp scores a concatenation by continuing its left part's
        # score, so every split must give the very float of the whole
        rng = random.Random(23)
        toy = parse_arpa(BACKOFF_TOY)
        assert toy.score_sequence(("a", "b", "d"), 2) == pytest.approx(-0.1 - 0.4)  # backs off
        cases = [(toy, ("a", "b", "d", "b", "c", "oov", "a", "b", "c"))]
        for order in (1, 2, 3, 4):
            vocab = [random_word(rng, 2, 4) for _ in range(6)]
            corpus = [tuple(rng.choice(vocab) for _ in range(rng.randint(2, 8)))
                      for _ in range(20)]
            lm = train_counts(corpus, order)
            words = vocab + ["<oov>"]
            cases += [(lm, tuple(rng.choice(words) for _ in range(rng.randint(2, 9))))
                      for _ in range(40)]
        cases += [(toy, tuple(rng.choice("abcde") for _ in range(rng.randint(2, 9))))
                  for _ in range(40)]
        for lm, seq in cases:
            whole = lm.score_sequence(seq)
            for start in range(1, len(seq)):
                assert lm.score_sequence(seq, start, lm.score_sequence(seq[:start])) == whole

    @pytest.mark.parametrize("start", [-1, 3, 4])
    def test_start_outside_sequence_rejected(self, start):
        lm = parse_arpa(BACKOFF_TOY)
        with pytest.raises(ValueError, match="outside"):
            lm.score_sequence(("a", "b", "c"), start, -1.0)

    def test_monotone_fallback(self):
        # dropping the stored trigram cannot raise the score: backoff <= 0
        lm = parse_arpa(BACKOFF_TOY)
        assert lm.tables[2][("a", "b")][1] <= 0
        pruned_tables = {n: dict(t) for n, t in lm.tables.items()}
        del pruned_tables[3][("a", "b", "c")]
        pruned = LanguageModel(pruned_tables)
        s = ("a", "b", "c")
        assert pruned.score_sequence(s) <= lm.score_sequence(s)


class TestPerplexity:
    def uniform_bigram_lm(self):
        half = math.log10(0.5)
        tables = {
            1: {(w,): (half, 0.0) for w in "ab"},
            2: {(x, y): (half, 0.0) for x in "ab" for y in "ab"},
        }
        return LanguageModel(tables)

    @pytest.mark.parametrize("length", [2, 5, 12])
    def test_uniform_half_transitions_give_two(self, length):
        lm = self.uniform_bigram_lm()
        s = tuple("ab"[i % 2] for i in range(length))
        assert corpus_perplexity(lm, [s]) == pytest.approx(2.0, abs=1e-9)

    def test_deterministic_model_gives_one(self):
        tables = {
            1: {("a",): (math.log10(0.5), 0.0),
                ("b",): (math.log10(0.5), 0.0)},
            2: {("a", "b"): (0.0, 0.0),
                ("b", "a"): (0.0, 0.0)},
        }
        lm = LanguageModel(tables)
        assert corpus_perplexity(lm, [("a", "b", "a", "b")]) == pytest.approx(1.0)

    def test_too_short_sequence(self):
        lm = self.uniform_bigram_lm()
        with pytest.raises(ValueError):
            corpus_perplexity(lm, [("a",)])

    def test_hand_computed_oracle(self):
        # independent arithmetic over explicit conditional probabilities
        probs = {("a", "b"): 0.5, ("b", "a"): 0.25, ("b", "b"): 0.5, ("a", "a"): 0.25}
        tables = {
            1: {(w,): (math.log10(0.5), 0.0) for w in "ab"},
            2: {g: (math.log10(p), 0.0) for g, p in probs.items()},
        }
        lm = LanguageModel(tables)
        for sent in [("a", "b", "b"), ("b", "a", "a", "b"), ("a", "a", "b", "a")]:
            lp = -sum(math.log2(probs[(sent[i - 1], sent[i])])
                      for i in range(1, len(sent))) / (len(sent) - 1)
            assert corpus_perplexity(lm, [sent]) == pytest.approx(2.0 ** lp, abs=1e-9)


class TestTraining:
    def test_single_sentence_unigrams_symmetric(self):
        lm = train_counts([("a", "b")], 1)
        assert lm.tables[1][("a",)][0] == pytest.approx(lm.tables[1][("b",)][0])

    def test_empty_corpus_rejected(self):
        for corpus in ([], [()], iter([(), ()])):
            with pytest.raises(ValueError, match="empty corpus"):
                train_counts(corpus, 2)

    def test_order_below_one_rejected(self):
        with pytest.raises(ValueError, match="order must be >= 1"):
            train_counts([("a", "b")], 0)
        with pytest.raises(ValueError, match="model order must be >= 1"):
            LanguageModel({})
        with pytest.raises(ValueError, match="model order must be >= 1"):
            LanguageModel({0: {(): (-0.5, 0.0)}})

    def test_logprobs_nonpositive(self):
        lm = train_counts(synth_corpus(50, seed=3), 3)
        for table in lm.tables.values():
            for entry in table.values():
                assert entry[0] <= 0

    def test_normalization_audit(self):
        # recompute Witten-Bell mass from raw counts, independent of trainer
        corpus = synth_corpus(80, seed=11)
        order = 3
        lm = train_counts(corpus, order)
        followers = {}
        for sent in corpus:
            for n in range(1, order + 1):
                for i in range(len(sent) - n + 1):
                    gram = sent[i:i + n]
                    followers.setdefault(gram[:-1], {})
                    followers[gram[:-1]][gram[-1]] = \
                        followers[gram[:-1]].get(gram[-1], 0) + 1
        for hist, nxt in followers.items():
            c_h = sum(nxt.values())
            t_h = len(nxt)
            seen_mass = sum(
                10.0 ** lm.tables[len(hist) + 1][hist + (w,)][0] for w in nxt)
            assert seen_mass + t_h / (c_h + t_h) == pytest.approx(1.0, abs=1e-9)

    def test_model_mass_never_exceeds_one(self):
        lm = train_counts(synth_corpus(40, seed=5), 2)
        vocab = sorted(g[0] for g in lm.tables[1])
        for hist in [()] + [(w,) for w in vocab[:10]]:
            total = sum(10.0 ** lm.score_sequence(hist + (w,), len(hist)) for w in vocab)
            assert total <= 1.0 + 1e-9

    def test_missing_order_round_trips(self):
        # a library-built model may leave an order out: it has no n-grams
        lm = LanguageModel({1: {("a",): (-0.5, -0.2), ("b",): (-0.6, -0.1), ("c",): (-0.9, 0.0)},
                            3: {("a", "b", "c"): (-0.3, 0.0)}})
        assert lm.tables[2] == {}
        again = parse_arpa(serialize_arpa(lm))
        assert again.tables == lm.tables
        rng = random.Random(3)
        for _ in range(40):
            seq = tuple(rng.choice("abcz") for _ in range(rng.randint(1, 6)))
            assert again.score_sequence(seq) == lm.score_sequence(seq), seq
        assert lm.score_sequence(("a", "b", "c"), 2) == -0.3

    def test_serialize_parse_round_trip_score_identical(self):
        corpus = synth_corpus(60, seed=2)
        lm = train_counts(corpus, 3)
        lm2 = parse_arpa(serialize_arpa(lm))
        for sent in corpus[:20]:
            assert lm2.score_sequence(sent) == pytest.approx(
                lm.score_sequence(sent), abs=1e-9)


def test_entries_are_exact_float_pairs():
    # not a tuple subclass: the collector untracks an exact tuple of floats
    for lm in (parse_arpa(BACKOFF_TOY), train_counts(synth_corpus(30, seed=4), 3)):
        for table in lm.tables.values():
            for entry in table.values():
                assert type(entry) is tuple and len(entry) == 2
                assert type(entry[0]) is float and type(entry[1]) is float


def test_tokenize_drops_punctuation_and_case():
    assert tokenize("Fruits, vegetables and their value-added products!") == (
        "fruits", "vegetables", "and", "their", "value", "added", "products")
