"""Phrase inventory as an IR problem: every LM n-gram of selected orders is a
document. A trie over the documents' words answers fuzzy word lookups, and
an inverted index with sorted postings lists maps each word to its docs.
``PhraseIndex.retrieve`` takes one query word; the index keeps no state
between calls."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import pairwise
from operator import attrgetter
from typing import Iterable, Sequence

from .lm import LanguageModel


@dataclass(frozen=True)
class PhraseDoc:
    docid: int
    tokens: tuple[str, ...]
    lm_score: float


class _TrieNode:
    __slots__ = ("children", "word")

    def __init__(self):
        self.children: dict[str, _TrieNode] = {}
        self.word: str | None = None


class TrieDictionary:
    """Prefix tree over dictionary words with pruned fuzzy lookup."""

    def __init__(self, words: Iterable[str]):
        self.root = _TrieNode()
        for word in words:
            node = self.root
            for ch in word:
                node = node.children.setdefault(ch, _TrieNode())
            node.word = word

    def fuzzy_lookup(self, query: str, max_exclusive: int) -> set[str]:
        """All stored words at Levenshtein distance strictly below
        ``max_exclusive``; branches are pruned once every cell of the DP row
        reaches the bound."""
        n = len(query)
        results: set[str] = set()
        row0 = list(range(n + 1))
        stack = [(child, ch, row0) for ch, child in self.root.children.items()]
        if row0[-1] < max_exclusive and self.root.word is not None:
            results.add(self.root.word)
        while stack:
            node, ch, prev = stack.pop()
            cur = [prev[0] + 1]
            for j in range(1, n + 1):
                cur.append(min(cur[j - 1] + 1, prev[j] + 1,
                               prev[j - 1] + (query[j - 1] != ch)))
            if min(cur) >= max_exclusive:
                continue
            if node.word is not None and cur[-1] < max_exclusive:
                results.add(node.word)
            stack.extend((child, c, cur) for c, child in node.children.items())
        return results


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
    """Immutable phrase-document index with trie dictionary and postings."""

    def __init__(self, docs: list[PhraseDoc], dictionary: TrieDictionary,
                 postings: dict[str, list[int]]):
        self.docs = docs
        self.dictionary = dictionary
        self.postings = postings

    def retrieve(self, word: str, d_t: int) -> list[int]:
        """Sorted docids of every doc holding a dictionary word at
        Levenshtein distance < d_t from ``word``."""
        if d_t < 1:
            raise ValueError("d_t must be >= 1")
        matches = self.dictionary.fuzzy_lookup(word, d_t)
        return sorted(set().union(*(self.postings[w] for w in matches)))


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
    return PhraseIndex(list(docs), TrieDictionary(postings), postings)


_MAGIC = "phrasefix-index"
_VERSION = "1"


def save_index(index: PhraseIndex, path):
    """Write the index in format v1: a header, the docs section, then the
    postings section.

    The postings are derived data: ``load_index`` ignores them and rebuilds
    them from the docs. They are still written because the format-v1 reader
    of the benchmark (``perfbench/checks.py``) requires the section; dropping
    it is a format change (v2) that waits for that reader to change.
    """
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
    same tokens are an error."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        if header[:1] != [_MAGIC] or len(header) != 2 or header[1] != _VERSION:
            raise ValueError(f"{path}: not a phrasefix index file")
        kind, count = fh.readline().rstrip("\n").split("\t")
        if kind != "docs":
            raise ValueError(f"{path}: malformed docs header")
        docs = []
        for _ in range(int(count)):
            docid, score, tokens = fh.readline().rstrip("\n").split("\t")
            docs.append(PhraseDoc(int(docid), tuple(tokens.split()), float(score)))
            if not math.isfinite(docs[-1].lm_score):
                raise ValueError(f"{path}: doc {docid} has non-finite score {score!r}")
        if not fh.readline().startswith("postings\t"):
            raise ValueError(f"{path}: malformed postings header")
    _reject_duplicate_tokens(docs, path)
    return build_index(docs)


def _reject_duplicate_tokens(docs: Sequence[PhraseDoc], path):
    """Raise on two docs with the same tokens. ``extract_phrases`` yields
    each stored n-gram once, so a file holding one phrase twice, perhaps
    with two scores, was not written by ``build-index``.

    Equal tokens are found by sorting, not hashing: a hash table of every
    doc's tokens raised peak resident memory by 3.5 MB on a 54k-doc index,
    and a ``build-index`` file is already sorted within each order.
    """
    for a, b in pairwise(sorted(docs, key=attrgetter("tokens"))):
        if a.tokens == b.tokens:
            raise ValueError(f"{path}: docs {a.docid} and {b.docid} have the same "
                             f"tokens {' '.join(a.tokens)!r}")
