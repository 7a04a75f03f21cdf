"""Phrase inventory as an IR problem: every LM n-gram of selected orders is a
document, and an inverted index with sorted postings lists maps each word to
its docs. ``PhraseIndex.retrieve`` takes one query word and finds its fuzzy
matches among the postings' words: a padded-bigram count filter (Ukkonen
1992; Gravano et al. 2001) rules out words that cannot be within ``d_t``,
first by a bound that holds for every word and then by the exact one, and
one ``distance.edit_distances`` call verifies the rest. The tables it reads,
the postings' words under each padded bigram and under each length, are
built once per index, on the first call, and depend on neither the query
nor ``d_t``; nothing else is kept between calls."""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from functools import cached_property
from itertools import chain, pairwise, repeat
from operator import add, itemgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

from .distance import edit_distances
from .lm import LanguageModel


class PhraseDoc(NamedTuple):
    """A stored n-gram and its LM score. A tuple, so that ``load_index``
    builds one cheaply and hot loops may read it by position; its fields
    are named for readers such as the benchmark's reload check."""

    docid: int
    tokens: tuple[str, ...]
    lm_score: float


def extract_phrases(lm: LanguageModel, orders: Iterable[int] | None = None) -> list[PhraseDoc]:
    """One PhraseDoc per stored n-gram of a selected order, scored by the LM.
    The orders default to 2..N, or 1 for a unigram model.

    A stored n-gram's score continues its stored (n-1)-word prefix's score
    by its own logprob, the float ``lm.score_sequence`` gives it, so the
    orders are scored from 1 up, each from the previous order's scores. An
    n-gram whose prefix is not stored, as a hand-written model may have, is
    scored by ``score_sequence``; ``train_counts`` stores every prefix.
    """
    if orders is None:
        orders = range(min(2, lm.order), lm.order + 1)
    chosen = sorted(set(orders))
    if not chosen:
        raise ValueError("no n-gram orders selected")
    bad = [n for n in chosen if n < 1 or n > lm.order]
    if bad:
        raise ValueError(f"orders {bad} outside 1..{lm.order}")
    docs = []
    scores = {(): 0.0}
    for n in range(1, chosen[-1] + 1):
        table, prefixes, scores = lm.tables[n], scores, {}
        for gram, (logprob, _) in table.items():
            prefix = prefixes.get(gram[:-1])
            scores[gram] = lm.score_sequence(gram) if prefix is None else prefix + logprob
        if n in chosen:
            for gram in sorted(table):
                docs.append(PhraseDoc(len(docs), gram, scores[gram]))
    return docs


class PhraseIndex:
    """Immutable phrase-document index: the docs, no two with the same
    tokens, and the sorted postings list of each word they hold.
    ``retrieve`` derives its bigram and length tables from the postings'
    words on its first call."""

    def __init__(self, docs: Sequence[PhraseDoc]):
        """Index ``docs``, whose docids must be their positions 0..M-1, each
        with tokens and a finite score, and no two with the same tokens:
        every doc rule, checked here only; an error names a doc by position.

        Docs are visited in docid order, so each postings list is built
        sorted and duplicate-free by appending a docid unless it is last.
        """
        # before the postings exist: checked after them, the sort's lists
        # raised the peak of a load by 0.8 MB on a 50k-doc index
        _reject_duplicate_tokens(docs)
        postings: dict[str, list[int]] = {}
        isfinite = math.isfinite
        for i, (docid, tokens, lm_score) in enumerate(docs):
            if docid != i:
                raise ValueError(f"doc at position {i} has docid {docid}; "
                                 "docids must be 0..M-1 in order")
            if not tokens:
                raise ValueError(f"doc {i} has no tokens")
            if not isfinite(lm_score):
                raise ValueError(f"doc {i} has non-finite score {lm_score!r}")
            for word in tokens:
                ids = postings.get(word)
                if ids is None:
                    postings[word] = [i]
                elif ids[-1] != i:
                    ids.append(i)
        self.docs = list(docs)
        self.postings = postings

    def retrieve(self, word: str, d_t: int) -> list[int]:
        """Sorted docids of every doc holding a word at Levenshtein distance
        < d_t from ``word``.

        Strings at distance k share at least max(|a|, |b|) + 1 - 2k of their
        padded bigrams (``_bigrams``), counted as multisets, because one edit
        changes at most two of them. ``shared`` counts, for each distinct
        bigram of ``word``, every occurrence of it in a word, which is at
        least that multiset count. So only words whose count reaches the
        bound, and whose length gap is below ``d_t``, reach
        ``edit_distances``; the filter drops no match.
        """
        if d_t < 1:
            raise ValueError("d_t must be >= 1")
        n, slack = len(word), 2 * (d_t - 1)
        by_bigram, by_length = self._tables
        shared = Counter(chain.from_iterable(
            map(by_bigram.get, set(_bigrams(word)), repeat(()))))
        # the bound max(|w|, n) + 1 - slack is never below n + 1 - slack, so
        # one comparison per word leaves few words, and only those longer
        # than the query need the exact bound
        least = n + 1 - slack
        words = [w for w, count in shared.items() if count >= least]
        if n < slack:
            # the bound is <= 0 for words shorter than slack, so a match may
            # share no bigram with the query
            words = set(words).union(*(by_length.get(m, ())
                                       for m in range(n - d_t + 1, min(n + d_t, slack))))
        near = [w for w in words if -d_t < (m := len(w)) - n < d_t and shared[w] >= m + 1 - slack]
        (distances,) = edit_distances((word,), near)
        return sorted(set().union(*(
            self.postings[w] for w, d in zip(near, distances) if d < d_t)))

    @cached_property
    def _tables(self) -> tuple[dict[str, list[str]], dict[int, list[str]]]:
        """The postings' words under each of their padded bigrams, once per
        occurrence, and under their lengths."""
        by_bigram: defaultdict[str, list[str]] = defaultdict(list)
        by_length: defaultdict[int, list[str]] = defaultdict(list)
        for w in self.postings:
            for bigram in _bigrams(w):
                by_bigram[bigram].append(w)
            by_length[len(w)].append(w)
        # plain dicts, so that no lookup can add a key
        return dict(by_bigram), dict(by_length)


def _bigrams(word: str) -> Iterator[str]:
    """The |word| + 1 bigrams of ``"\\x02" + word + "\\x03"``, in order."""
    padded = f"\x02{word}\x03"
    return map(add, padded, padded[1:])


_MAGIC = "phrasefix-index"
_VERSION = "1"


def save_index(index: PhraseIndex, path):
    """Write the index in format v1: a header, the docs section, then the
    postings section.

    The postings are derived data: ``load_index`` ignores them and rebuilds
    them from the docs. They are still written because the format-v1 reader
    of the benchmark (``perfbench/checks.py``) requires the section; dropping
    it is a format change (v2) that waits for that reader to change.

    ``load_index`` splits doc tokens on whitespace, so a postings word that
    is empty or holds whitespace is a ``ValueError`` before the file is
    opened. Every other doc rule is the ``PhraseIndex`` constructor's.
    """
    for word in index.postings:
        if word.split() != [word]:
            raise ValueError(f"cannot save the word {word!r}: an index word must be "
                             "non-empty and hold no whitespace")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{_MAGIC}\t{_VERSION}\n")
        fh.write(f"docs\t{len(index.docs)}\n")
        for docid, tokens, lm_score in index.docs:
            fh.write(f"{docid}\t{lm_score!r}\t{' '.join(tokens)}\n")
        fh.write(f"postings\t{len(index.postings)}\n")
        for word in sorted(index.postings):
            ids = " ".join(str(i) for i in index.postings[word])
            fh.write(f"{word}\t{ids}\n")


def load_index(path) -> PhraseIndex:
    """Read the docs section of an index file and index them with
    ``PhraseIndex``; the stored postings are not read. Every error names
    the file. A line that does not parse is named by its line; a doc that
    breaks a doc rule is the constructor's error, named by its position
    (the doc at position N is on line N + 3)."""
    try:
        with open(path, encoding="utf-8") as fh:
            if fh.readline().rstrip("\n").split("\t") != [_MAGIC, _VERSION]:
                raise ValueError("not a phrasefix index file")
            line = fh.readline()
            kind, _, count = line.rstrip("\n").partition("\t")
            if kind != "docs" or not count.isdecimal():
                raise ValueError(f"line 2: expected 'docs<TAB>count' with a count >= 0, "
                                 f"got {line!r}")
            docs = []
            make = PhraseDoc._make
            for line_no in range(3, 3 + int(count)):
                line = fh.readline()
                try:
                    docid, score, tokens = line.rstrip("\n").split("\t")
                    docs.append(make((int(docid), tuple(tokens.split()), float(score))))
                except ValueError:
                    raise ValueError(f"line {line_no}: expected doc {len(docs)} of "
                                     f"{count} as 'docid<TAB>score<TAB>tokens', "
                                     f"got {line!r}") from None
            line = fh.readline()
            if not line.startswith("postings\t"):
                raise ValueError(f"line {3 + len(docs)}: expected the postings header "
                                 f"after {count} docs, got {line!r}")
        return PhraseIndex(docs)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _reject_duplicate_tokens(docs: Sequence[PhraseDoc]):
    """Raise on two docs with the same tokens. ``extract_phrases`` yields
    each stored n-gram once, and ``substituter.find_best_subs`` ranks docs,
    not token tuples: each doc's tokens have one score.

    Equal tokens are found by sorting, not hashing: a hash table of every
    doc's tokens raised peak resident memory by 3.5 MB on a 54k-doc index,
    and ``extract_phrases``' docs are already sorted within each order. The
    sort costs about 3% of a ``build-index``.
    """
    for a, b in pairwise(sorted(docs, key=itemgetter(1))):
        if a.tokens == b.tokens:
            i, j = [i for i, doc in enumerate(docs) if doc.tokens == a.tokens][:2]
            raise ValueError(f"docs {i} and {j} have the same tokens "
                             f"{' '.join(a.tokens)!r}")
