"""Independent references for the similarity kernel of ``phrasefix.distance``:
the textbook edit-distance DP, greedy alignment and each component computed
straight from its definition, with no shared state, and ``reference_score``,
their equally weighted mean, so that tests can compare ``levenshtein`` and
``PhraseScore`` against them."""

from typing import Sequence

from phrasefix import SynonymLexicon
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
              lexicon: SynonymLexicon) -> float:
    """Fraction of P's words with an identical word or synset-mate in R."""
    if not p_tokens:
        raise ValueError("phrase must be non-empty")
    matched = sum(
        1 for p in p_tokens if any(lexicon.share_synset(p, r) for r in r_tokens))
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


def count_inversions(seq: Sequence[int]) -> int:
    return sum(
        1 for i in range(len(seq)) for j in range(i + 1, len(seq))
        if seq[i] > seq[j])


def f3_word_order(p_tokens: Sequence[str], r_tokens: Sequence[str], mode: str,
                  threshold: int):
    """Word-order score of R against P after alignment.

    rigid: 1 if the aligned R-indices are strictly increasing, else None.
    lcs: LCS of the R-index sequence against its sorted order over pair count.
    inversion: 1 / (1 + number of inversion pairs).
    """
    pairs = align(p_tokens, r_tokens, threshold)
    seq = [j for _, j in pairs]
    if mode == "rigid":
        if not seq:
            return None
        ordered = all(seq[t] < seq[t + 1] for t in range(len(seq) - 1))
        return 1.0 if ordered else None
    if not seq:
        return 0.0
    if mode == "lcs":
        return lcs_length(seq, sorted(seq)) / len(seq)
    if mode == "inversion":
        return 1.0 / (1.0 + count_inversions(seq))
    raise ValueError(f"unknown word-order mode {mode!r}")


def reference_score(p_tokens: Sequence[str], r_tokens: Sequence[str],
                    lexicon: SynonymLexicon, mode: str):
    """Equally weighted mean of the components ``mode`` enables, or None:
    mode A is f1 + f2; B is f1 + f2 gated by rigid word order; C adds the
    LCS word-order component; D the inversion-pair one."""
    parts = [f1_similarity(p_tokens, r_tokens), f2_synset(p_tokens, r_tokens, lexicon)]
    if mode == "B":
        if f3_word_order(p_tokens, r_tokens, "rigid", ALIGN_THRESHOLD) is None:
            return None
    elif mode in ("C", "D"):
        order = "lcs" if mode == "C" else "inversion"
        parts.append(f3_word_order(p_tokens, r_tokens, order, ALIGN_THRESHOLD))
    return sum((1.0 / len(parts)) * v for v in parts)
