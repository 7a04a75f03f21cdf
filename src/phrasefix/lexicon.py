"""Synonym lexicon: one synset per line, its words separated by whitespace.
Each word is read as ``lm.tokenize`` reads all input text, so ``Approved,
Supported`` holds ``approved`` and ``supported``."""

from __future__ import annotations

from collections import defaultdict

from .lm import tokenize


def load_lexicon(text) -> dict[str, frozenset[str]]:
    """Map each word of a string or iterable of lines to the other words of
    its synsets. A field without a word is skipped; one that tokenizes to
    several words (``well-known``) is a ``ValueError`` naming its line."""
    lines = text.splitlines() if isinstance(text, str) else text
    mates = defaultdict(set)
    for line_no, line in enumerate(lines, 1):
        synset = set()
        for field in line.split():
            words = tokenize(field)
            if len(words) > 1:
                raise ValueError(f"line {line_no}: {field!r} is {len(words)} words, not one")
            synset.update(words)
        for word in synset:
            mates[word] |= synset - {word}
    return {w: frozenset(m) for w, m in mates.items()}
