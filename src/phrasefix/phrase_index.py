"""Phrase inventory as an IR problem: every LM n-gram of selected orders is a
document, and an inverted index with sorted postings lists maps each word to
its docs. ``PhraseIndex.retrieve`` takes one query word and finds its fuzzy
matches among the postings' words: a padded-bigram count filter (Ukkonen
1992; Gravano et al. 2001) rules out words that cannot be within ``d_t``,
and ``distance.levenshtein`` verifies the rest. The bigram table is built
once per index, on the first call, and does not depend on the query or on
``d_t``; nothing else is kept between calls."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import pairwise
from operator import attrgetter
from typing import Iterable, Sequence

from .distance import levenshtein
from .lm import LanguageModel


@dataclass(frozen=True)
class PhraseDoc:
    docid: int
    tokens: tuple[str, ...]
    lm_score: float


def extract_phrases(lm: LanguageModel, orders: Iterable[int]) -> list[PhraseDoc]:
    """One PhraseDoc per stored n-gram of a selected order, scored by the LM."""
    chosen = sorted(set(orders))
    if not chosen:
        raise ValueError("no n-gram orders selected")
    bad = [n for n in chosen if n < 1 or n > lm.order]
    if bad:
        raise ValueError(f"orders {bad} outside 1..{lm.order}")
    docs = []
    for n in chosen:
        for gram in sorted(lm.tables.get(n, {})):
            docs.append(PhraseDoc(len(docs), gram, lm.score_sequence(gram)))
    return docs


class PhraseIndex:
    """Immutable phrase-document index: the docs, and the sorted postings
    list of each word they hold. ``retrieve`` derives a bigram table from
    the postings' words on its first call."""

    def __init__(self, docs: list[PhraseDoc], postings: dict[str, list[int]]):
        self.docs = docs
        self.postings = postings

    def retrieve(self, word: str, d_t: int) -> list[int]:
        """Sorted docids of every doc holding a word at Levenshtein distance
        < d_t from ``word``.

        Strings at distance k share at least max(|a|, |b|) + 1 - 2k of their
        padded bigrams (``_bigram_keys``), counted as multisets, because one
        edit changes at most two of them. So only words that share enough
        bigrams with ``word``, and whose length gap is below ``d_t``, reach
        ``levenshtein``; the filter drops no match.
        """
        if d_t < 1:
            raise ValueError("d_t must be >= 1")
        n, slack = len(word), 2 * (d_t - 1)
        shared: Counter[str] = Counter()
        for key in _bigram_keys(word):
            shared.update(self._by_bigram.get(key, ()))
        words = shared.keys()
        if n < slack:
            # the bound is <= 0 for these short words, so a match may share
            # no bigram with the query
            words = words | {w for w in self.postings if len(w) < slack}
        return sorted(set().union(*(
            self.postings[w] for w in words
            if shared[w] >= max(len(w), n) + 1 - slack
            and abs(len(w) - n) < d_t and levenshtein(word, w) < d_t)))

    @cached_property
    def _by_bigram(self) -> dict[tuple[str, int], list[str]]:
        """The postings' words under each of their bigram keys."""
        table: dict[tuple[str, int], list[str]] = {}
        for w in self.postings:
            for key in _bigram_keys(w):
                table.setdefault(key, []).append(w)
        return table


def _bigram_keys(word: str) -> list[tuple[str, int]]:
    """The |word| + 1 bigrams of ``"\\x02" + word + "\\x03"``, the c-th
    repeat of a bigram keyed ``(bigram, c)``, so that the number of keys two
    words share is the size of their bigram multisets' intersection."""
    padded = f"\x02{word}\x03"
    seen: dict[str, int] = {}
    keys = []
    for i in range(len(padded) - 1):
        bigram = padded[i:i + 2]
        c = seen[bigram] = seen.get(bigram, 0) + 1
        keys.append((bigram, c))
    return keys


def build_index(docs: Sequence[PhraseDoc]) -> PhraseIndex:
    """Index ``docs``, whose docids must be their positions 0..M-1.

    Docs are visited in docid order, so each postings list is built sorted
    and duplicate-free by appending a docid unless it is already last.
    """
    postings: dict[str, list[int]] = {}
    for i, doc in enumerate(docs):
        if doc.docid != i:
            raise ValueError(f"doc at position {i} has docid {doc.docid}; "
                             "docids must be 0..M-1 in order")
        if not doc.tokens:
            raise ValueError(f"doc {doc.docid} has no tokens")
        for word in doc.tokens:
            ids = postings.get(word)
            if ids is None:
                postings[word] = [i]
            elif ids[-1] != i:
                ids.append(i)
    return PhraseIndex(list(docs), postings)


_MAGIC = "phrasefix-index"
_VERSION = "1"


def save_index(index: PhraseIndex, path):
    """Write the index in format v1: a header, the docs section, then the
    postings section.

    The postings are derived data: ``load_index`` ignores them and rebuilds
    them from the docs. They are still written because the format-v1 reader
    of the benchmark (``perfbench/checks.py``) requires the section; dropping
    it is a format change (v2) that waits for that reader to change.

    ``load_index`` splits doc tokens on whitespace and needs finite scores,
    so a postings word that is empty or holds whitespace, or a non-finite
    doc score, is a ``ValueError`` before the file is opened. Duplicate
    tokens are left to ``load_index``: ``extract_phrases`` yields none, and
    finding them takes a sort costing about 3% of a ``build-index``.
    """
    for word in index.postings:
        if word.split() != [word]:
            raise ValueError(f"cannot save the word {word!r}: an index word must be "
                             "non-empty and hold no whitespace")
    for doc in index.docs:
        if not math.isfinite(doc.lm_score):
            raise ValueError(f"cannot save doc {doc.docid}: non-finite score {doc.lm_score!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{_MAGIC}\t{_VERSION}\n")
        fh.write(f"docs\t{len(index.docs)}\n")
        for doc in index.docs:
            fh.write(f"{doc.docid}\t{doc.lm_score!r}\t{' '.join(doc.tokens)}\n")
        fh.write(f"postings\t{len(index.postings)}\n")
        for word in sorted(index.postings):
            ids = " ".join(str(i) for i in index.postings[word])
            fh.write(f"{word}\t{ids}\n")


def load_index(path) -> PhraseIndex:
    """Read the docs section of an index file and index them with
    ``build_index``; the stored postings are not read. Two docs with the
    same tokens are an error, and every error names the file and, where the
    file decodes, the line."""
    try:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n").split("\t")
            if header[:1] != [_MAGIC] or len(header) != 2 or header[1] != _VERSION:
                raise ValueError("not a phrasefix index file")
            line = fh.readline()
            kind, _, count = line.rstrip("\n").partition("\t")
            if kind != "docs" or not count.isdecimal():
                raise ValueError(f"line 2: expected 'docs<TAB>count' with a count >= 0, "
                                 f"got {line!r}")
            docs = []
            for line_no in range(3, 3 + int(count)):
                line = fh.readline()
                try:
                    docid, score, tokens = line.rstrip("\n").split("\t")
                    doc = PhraseDoc(int(docid), tuple(tokens.split()), float(score))
                    if doc.docid != len(docs) or not doc.tokens:
                        raise ValueError
                except ValueError:
                    raise ValueError(f"line {line_no}: expected doc {len(docs)} of "
                                     f"{count} as 'docid<TAB>score<TAB>tokens', "
                                     f"got {line!r}") from None
                if not math.isfinite(doc.lm_score):
                    raise ValueError(f"line {line_no}: doc {docid} has non-finite "
                                     f"score {score!r}")
                docs.append(doc)
            line = fh.readline()
            if not line.startswith("postings\t"):
                raise ValueError(f"line {3 + len(docs)}: expected the postings header "
                                 f"after {count} docs, got {line!r}")
        _reject_duplicate_tokens(docs)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return build_index(docs)


def _reject_duplicate_tokens(docs: Sequence[PhraseDoc]):
    """Raise on two docs with the same tokens. ``extract_phrases`` yields
    each stored n-gram once, so a file holding one phrase twice, perhaps
    with two scores, was not written by ``build-index``.

    Equal tokens are found by sorting, not hashing: a hash table of every
    doc's tokens raised peak resident memory by 3.5 MB on a 54k-doc index,
    and a ``build-index`` file is already sorted within each order.
    """
    for a, b in pairwise(sorted(docs, key=attrgetter("tokens"))):
        if a.tokens == b.tokens:
            raise ValueError(f"lines {a.docid + 3} and {b.docid + 3}: docs "
                             f"{a.docid} and {b.docid} have the same tokens "
                             f"{' '.join(a.tokens)!r}")
