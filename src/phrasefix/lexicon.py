"""Synonym lexicon: one synset per line, whose words ``lm.tokenize`` reads
as it reads all input text, so ``Approved, Supported`` holds ``approved``."""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable

from .lm import tokenize


class SynonymLexicon:
    """``mates`` maps each word to every word it shares a synset with.

    Identical words always count as sharing a synset, even with an empty
    lexicon, so an unchanged word is never penalized as unmatched.
    """

    def __init__(self, synsets: Iterable[Iterable[str]] = ()):
        mates = defaultdict(set)
        for synset in synsets:
            synset = set(synset)
            for word in synset:
                mates[word] |= synset - {word}
        self.mates: dict[str, frozenset[str]] = {w: frozenset(m) for w, m in mates.items()}

    def share_synset(self, w1: str, w2: str) -> bool:
        return w1 == w2 or w2 in self.mates.get(w1, ())


def load_lexicon(text) -> SynonymLexicon:
    """Build a lexicon from a string or iterable of lines, each tokenized;
    lines without a word are skipped."""
    lines = text.splitlines() if isinstance(text, str) else text
    return SynonymLexicon(words for line in lines if (words := tokenize(line)))
