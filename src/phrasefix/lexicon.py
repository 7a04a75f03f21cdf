"""Synonym lexicon: one synset per line, space-separated lowercase words."""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable


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

    def synonyms(self, word: str) -> set[str]:
        """All words sharing at least one synset with ``word`` (incl. itself)."""
        return {word, *self.mates.get(word, ())}


def load_lexicon(text) -> SynonymLexicon:
    """Build a lexicon from a string or iterable of lines; empty lines skipped."""
    lines = text.splitlines() if isinstance(text, str) else text
    return SynonymLexicon(words for line in lines if (words := line.split()))
