"""Synonym lexicon: one synset per line, space-separated lowercase words."""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable


class SynonymLexicon:
    """Word sets plus the inverse word -> synset-id membership map.

    Identical words always count as sharing a synset, even with an empty
    lexicon, so an unchanged word is never penalized as unmatched.
    """

    def __init__(self, synsets: Iterable[Iterable[str]] = ()):
        self.synsets: list[frozenset[str]] = [frozenset(s) for s in synsets]
        self.membership: dict[str, frozenset[int]] = {}
        by_word = defaultdict(set)
        for i, synset in enumerate(self.synsets):
            for word in synset:
                by_word[word].add(i)
        self.membership = {w: frozenset(ids) for w, ids in by_word.items()}

    def share_synset(self, w1: str, w2: str) -> bool:
        if w1 == w2:
            return True
        ids1 = self.membership.get(w1)
        ids2 = self.membership.get(w2)
        return bool(ids1 and ids2 and ids1 & ids2)

    def synonyms(self, word: str) -> set[str]:
        """All words sharing at least one synset with ``word`` (incl. itself)."""
        out = {word}
        for i in self.membership.get(word, ()):
            out |= self.synsets[i]
        return out


def load_lexicon(text) -> SynonymLexicon:
    """Build a lexicon from a string or iterable of lines; empty lines skipped."""
    lines = text.splitlines() if isinstance(text, str) else text
    return SynonymLexicon(words for line in lines if (words := line.split()))
