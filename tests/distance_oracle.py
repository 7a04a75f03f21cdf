"""Independent references for the kernels of ``phrasefix.distance``: the
textbook edit-distance DP, greedy alignment and each component computed
straight from its definition, one phrase pair at a time with no shared
state, and ``reference_score``, their equally weighted mean, so that tests
can compare ``edit_distances`` and the column kernel (``word_columns`` and
``SpanScores``) against them."""

from typing import Sequence

from phrasefix.distance import ALIGN_THRESHOLD


def levenshtein(a: str, b: str) -> int:
    """Unit-cost edit distance by the Wagner-Fischer DP, one row at a time."""
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(cur[j - 1] + 1, prev[j] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def align(p_tokens: Sequence[str], r_tokens: Sequence[str],
          threshold: int) -> list[tuple[int, int]]:
    """Greedy left-to-right one-to-one alignment of P onto R.

    Each word of P takes the still-unaligned word of R at minimal
    Levenshtein distance strictly below ``threshold``; ties go to the
    leftmost word of R.
    """
    if threshold < 1:
        raise ValueError("alignment threshold must be >= 1")
    pairs: list[tuple[int, int]] = []
    used: set[int] = set()
    for i, p in enumerate(p_tokens):
        best = None
        for j, r in enumerate(r_tokens):
            if j in used:
                continue
            d = levenshtein(p, r)
            if d < threshold and (best is None or d < best[0]):
                best = (d, j)
        if best is not None:
            used.add(best[1])
            pairs.append((i, best[1]))
    return pairs


def f1_similarity(p_tokens: Sequence[str], r_tokens: Sequence[str]) -> float:
    """1 minus the mean best normalized edit distance of P's words into R."""
    if not p_tokens or not r_tokens:
        raise ValueError("phrases must be non-empty")
    total = 0.0
    for p in p_tokens:
        total += min(levenshtein(p, r) / max(len(p), len(r)) for r in r_tokens)
    return min(1.0, max(0.0, 1.0 - total / len(p_tokens)))


def f2_synset(p_tokens: Sequence[str], r_tokens: Sequence[str],
              lexicon: dict[str, frozenset[str]]) -> float:
    """Fraction of P's words with an identical word or synset-mate in R."""
    if not p_tokens:
        raise ValueError("phrase must be non-empty")
    matched = sum(
        1 for p in p_tokens if any(p == r or r in lexicon.get(p, ()) for r in r_tokens))
    return matched / len(p_tokens)


def lcs_length(a: Sequence, b: Sequence) -> int:
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, 1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def f3_word_order(p_tokens: Sequence[str], r_tokens: Sequence[str],
                  threshold: int) -> float:
    """Word-order score of R against P after alignment: the LCS of the
    aligned R-indices against their sorted order over the pair count, 0 if
    no pair aligns."""
    seq = [j for _, j in align(p_tokens, r_tokens, threshold)]
    if not seq:
        return 0.0
    return lcs_length(seq, sorted(seq)) / len(seq)


def reference_score(p_tokens: Sequence[str], r_tokens: Sequence[str],
                    lexicon: dict[str, frozenset[str]]) -> float:
    """Equally weighted mean of f1, f2 and the LCS word-order component."""
    parts = (f1_similarity(p_tokens, r_tokens), f2_synset(p_tokens, r_tokens, lexicon),
             f3_word_order(p_tokens, r_tokens, ALIGN_THRESHOLD))
    return sum((1.0 / 3) * v for v in parts)
