"""Word- and phrase-level similarity: ``levenshtein``, shared by retrieval
and stage 1, and ``PhraseScore``, the one kernel for the equally weighted
mean of the orthographic (f1), synset (f2) and word-order (f3) components.

All components are similarities in [0, 1], higher is better. Word-order
violations under rigid mode yield None instead of a score.
Word order is judged on a greedy left-to-right one-to-one alignment of P's
words onto R's, each pair at Levenshtein distance below ``ALIGN_THRESHOLD``.

The stage-1 sweep of ``substituter.find_best_subs`` runs the kernel over
every span of a sentence. ``tests/distance_oracle.py`` computes the edit
distance and each component independently of the kernels as their
references, and ``reference_score`` there their mean.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Collection, Sequence

from .lexicon import SynonymLexicon


MODES = ("A", "B", "C", "D")
# two aligned words must be at Levenshtein distance below this
ALIGN_THRESHOLD = 3


def levenshtein(a: str, b: str) -> int:
    """Unit-cost edit distance with substitution as a single operation, by
    the bit-vector algorithm of Myers (1999) in Hyyrö's (2003) form: the
    shorter string is the pattern, held in one Python int of any length, and
    ``tests/distance_oracle.py`` keeps the textbook DP as the reference."""
    if len(a) < len(b):
        a, b = b, a
    if a == b or not b:
        return len(a) - len(b)
    peq: dict[str, int] = {}  # per call, so any code point works
    for i, ch in enumerate(b):
        peq[ch] = peq.get(ch, 0) | 1 << i
    last = 1 << len(b) - 1
    full = (last << 1) - 1
    pv, mv, dist = full, 0, len(b)
    for ch in a:
        eq = peq.get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)  # set above the pattern too: masked off in pv
        mh = pv & xh
        if ph & last:
            dist += 1
        elif mh & last:
            dist -= 1
        ph = ph << 1 | 1  # row 0 of the table grows by one per column
        pv = (mh << 1 | ~(xv | ph)) & full
        mv = ph & xv
    return dist


def word_table(word: str, vocabulary: Collection[str],
               lexicon: SynonymLexicon) -> dict[str, tuple[int, float, bool]]:
    """Levenshtein distance, normalized distance and synset match of ``word``
    against each word of ``vocabulary``."""
    table = {}
    for r in vocabulary:
        d = levenshtein(word, r)
        table[r] = (d, d / max(len(word), len(r)), lexicon.share_synset(word, r))
    return table


def word_term(table: dict[str, tuple[int, float, bool]],
              r_tokens: Sequence[str]) -> tuple[float, bool, tuple[int, ...]]:
    """What one word of P contributes against R, read from its ``word_table``:
    its least normalized distance to a word of R, whether R holds a
    synset-mate, and the positions of R it may align to, nearest first and
    leftmost among equals."""
    nearest = None
    mate = False
    reach = []
    for pos, r in enumerate(r_tokens):
        d, norm, syn = table[r]
        if nearest is None or norm < nearest:
            nearest = norm
        mate = mate or syn
        if d < ALIGN_THRESHOLD:
            reach.append((d, pos))
    reach.sort()
    return nearest, mate, tuple(pos for _, pos in reach)


class PhraseScore:
    """The combined score of one phrase R against a phrase P that grows by
    one word on the right per ``add``. ``value()`` is the equally weighted
    mean of the components ``mode`` enables, or None: mode A is f1 + f2;
    B is f1 + f2 gated by rigid word order; C adds the LCS word-order
    component; D the inversion-pair one.

    f1 and f2 are running sums over P's words, taken in P's order. Greedy
    alignment goes left to right, so the alignment for P plus one word
    extends the one for P. Each word-order component follows the aligned
    positions of R as they are appended: rigid order holds while each lies
    right of all before it; the LCS against the sorted positions is their
    longest increasing subsequence (patience tails); and each one adds the
    earlier positions right of it as inversions.
    """

    __slots__ = ("mode", "n", "total", "matched", "used", "aligned", "tails",
                 "inversions", "order")

    def __init__(self, mode: str):
        self.mode = mode
        self.n = 0
        self.total = 0.0
        self.matched = 0
        self.used = 0  # bit mask of the aligned positions of R
        self.aligned = 0
        self.tails: list[int] = []
        self.inversions = 0
        self.order = None if mode == "B" else 0.0

    def add(self, term: tuple[float, bool, tuple[int, ...]]):
        """Extend P by the word whose ``word_term`` against R is ``term``."""
        nearest, mate, reach = term
        self.n += 1
        self.total += nearest
        self.matched += mate
        if self.mode == "A":
            return
        for pos in reach:
            if not self.used >> pos & 1:
                break
        else:
            return
        later = (self.used >> pos).bit_count()
        self.used |= 1 << pos
        self.aligned += 1
        if self.mode == "B":
            rigid = not later and (self.aligned == 1 or self.order is not None)
            self.order = 1.0 if rigid else None
        elif self.mode == "C":
            tails = self.tails
            at = bisect_left(tails, pos)
            tails[at:at + 1] = [pos]
            self.order = len(tails) / self.aligned
        else:
            self.inversions += later
            self.order = 1.0 / (1.0 + self.inversions)

    def value(self) -> float | None:
        """Equally weighted mean of the components, or None."""
        # sum() as in the reference mean: from Python 3.12 it rounds
        # differently from chained +, and stage-1 ties sort on the last bit;
        # f1 is in [0, 1] because each word's term d / max(|p|, |r|) is
        f1 = 1.0 - self.total / self.n
        f2 = self.matched / self.n
        if self.mode == "C" or self.mode == "D":
            w = 1.0 / 3
            return sum((w * f1, w * f2, w * self.order))
        if self.order is None:
            return None
        w = 1.0 / 2
        return sum((w * f1, w * f2))
