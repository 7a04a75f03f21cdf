"""Property tests: arbitrary Unicode input through ``phrasefix correct``, the
ARPA and index files read back what was written, and stage 1's column
kernel scores every prefix of a phrase as the reference does, and ``top_k``
keeps the sorted slice of a map in its order."""

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from phrasefix import (build_index, load_index, load_lexicon, parse_arpa, save_index,
                       serialize_arpa, tokenize, train_counts)
from phrasefix.cli import main
from phrasefix.distance import ALIGN_THRESHOLD, SpanScores, word_columns
from phrasefix.phrase_index import PhraseDoc
from phrasefix.substituter import top_k

from conftest import synth_corpus
from distance_oracle import levenshtein, reference_score

# derandomized, so a run is repeatable; examples bounded to keep tier-1 fast;
# the files a test writes under its tmp_path are rewritten by each example
PROPERTY = settings(derandomize=True, max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

# one line of a text file: no line breaks, and encodable as UTF-8
LINE = st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\r\n"),
               max_size=30)
# what tokenize makes of arbitrary text: words without whitespace
WORD = st.text(st.characters(exclude_categories=("Cs",)), min_size=1, max_size=8).map(
    tokenize).filter(bool).map(lambda words: words[0])


@pytest.fixture(scope="module")
def model_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("props")
    corpus = tmp / "corpus.txt"
    corpus.write_text("".join(" ".join(s) + "\n" for s in synth_corpus(60, seed=2)),
                      encoding="utf-8")
    arpa, idx = tmp / "model.arpa", tmp / "phrases.idx"
    assert main(["train-lm", "--corpus", str(corpus), "--order", "3", "--out", str(arpa)]) == 0
    assert main(["build-index", "--lm", str(arpa), "--out", str(idx)]) == 0
    return tmp, arpa, idx


@pytest.mark.parametrize("algorithm", ["dp", "fixed"])
@PROPERTY
@given(lines=st.lists(LINE, min_size=1, max_size=3))
def test_correct_writes_one_record_per_line(model_files, algorithm, lines):
    tmp, arpa, idx = model_files
    src, out = tmp / f"in-{algorithm}.txt", tmp / f"out-{algorithm}.jsonl"
    src.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    assert main(["correct", "--in", str(src), "--lm", str(arpa), "--index", str(idx),
                 "--algorithm", algorithm, "--k", "2", "--out", str(out)]) == 0
    records = [json.loads(r) for r in out.read_text(encoding="utf-8").splitlines()]
    assert [r["original"] for r in records] == [" ".join(tokenize(line)) for line in lines]


@PROPERTY
@given(corpus=st.lists(st.lists(WORD, min_size=1, max_size=5), min_size=1, max_size=6),
       order=st.integers(1, 3))
def test_arpa_round_trip(corpus, order):
    model = train_counts(corpus, order)
    text = serialize_arpa(model)
    again = parse_arpa(text)
    assert again.order == model.order
    assert again.tables == model.tables
    assert serialize_arpa(again) == text


@PROPERTY
@given(phrases=st.lists(st.tuples(st.lists(WORD, min_size=1, max_size=4),
                                  st.floats(allow_nan=False, allow_infinity=False)),
                        max_size=8, unique_by=lambda phrase: tuple(phrase[0])))
def test_index_round_trip(tmp_path, phrases):
    docs = [PhraseDoc(i, tuple(words), score) for i, (words, score) in enumerate(phrases)]
    path = tmp_path / "phrases.idx"
    save_index(build_index(docs), path)
    loaded = load_index(path)
    assert loaded.docs == docs
    assert loaded.postings == build_index(docs).postings



# phrases over three words and scores from four values: many equal scores,
# so the order rests on the tie break by tokens
TIED_SCORES = st.dictionaries(st.lists(st.sampled_from("abc"), min_size=1, max_size=3).map(tuple),
                              st.sampled_from([-2.0, -1.0, -0.5, 0.0]), max_size=12)


@PROPERTY
@given(scores=TIED_SCORES, k=st.integers(1, 8))
def test_top_k_is_the_sorted_slice_in_order(scores, k):
    best = top_k(scores, k)
    assert len(best) <= k
    assert list(best.items()) == sorted(scores.items(), key=lambda item: (-item[1], item[0]))[:k]


# words of 1-6 letters over two letters: many pairs within ALIGN_THRESHOLD,
# and many beyond it
SHORT_WORD = st.text("ab", min_size=1, max_size=6)


@PROPERTY
@given(data=st.data())
def test_column_kernel_equals_reference_on_every_prefix(data):
    # P always holds "a", a mate of "bbbbb" beyond ALIGN_THRESHOLD, and the
    # last phrase is "bbbbb" alone: a slot that matches a word of P without
    # any position that word can align to
    vocab = ["a", "bbbbb"] + data.draw(st.lists(SHORT_WORD, max_size=6))
    word = st.sampled_from(vocab)
    p = data.draw(st.lists(word, max_size=4))
    p.insert(data.draw(st.integers(0, len(p))), "a")
    phrases = data.draw(st.lists(st.lists(word, min_size=1, max_size=5).map(tuple),
                                 max_size=4)) + [("bbbbb",)]
    synsets = data.draw(st.lists(st.lists(word, min_size=2, max_size=3), max_size=3))
    lexicon = load_lexicon("a bbbbb\n" + "".join(" ".join(s) + "\n" for s in synsets))
    columns = word_columns(set(p), phrases, lexicon)
    _, mates, reaches = columns["a"]
    assert levenshtein("a", "bbbbb") >= ALIGN_THRESHOLD
    assert len(phrases) - 1 in mates and len(phrases) - 1 not in reaches
    scores = SpanScores(len(phrases))
    for m, w in enumerate(p, 1):
        scores.fold(columns[w])
        assert scores.values(range(len(phrases))) == \
            [reference_score(p[:m], r, lexicon) for r in phrases]
