"""Property tests: arbitrary Unicode input through ``phrasefix correct``, and
the ARPA and index files read back what was written."""

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from phrasefix import (build_index, load_index, parse_arpa, save_index,
                       serialize_arpa, tokenize, train_counts)
from phrasefix.cli import main
from phrasefix.phrase_index import PhraseDoc

from conftest import synth_corpus

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

