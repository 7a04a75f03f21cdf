"""Word- and phrase-level similarity: ``edit_distances``, the one
edit-distance kernel, which retrieval calls once per query word and stage 1
once per sentence (``levenshtein`` is one call of it for one pair), and
``PhraseScore``, the one kernel for the equally weighted mean of the
orthographic (f1), synset (f2) and word-order (f3) components.

All components are similarities in [0, 1], higher is better, and so is
their mean. Word order is judged on a greedy left-to-right one-to-one
alignment of P's words onto R's, each pair at Levenshtein distance below
``ALIGN_THRESHOLD``.

The stage-1 sweep of ``substituter.find_best_subs`` reads each query
word's distances from ``word_tables`` and runs ``PhraseScore`` over every
span of a sentence. ``tests/distance_oracle.py`` computes the edit
distance and each component independently of the kernels as their
references, and ``reference_score`` there their mean.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate
from typing import Collection, Iterable, Sequence


# two aligned words must be at Levenshtein distance below this
ALIGN_THRESHOLD = 3


def edit_distances(words: Iterable[str],
                   others: Sequence[str]) -> list[list[int]]:
    """Unit-cost edit distance, with substitution as a single operation, of
    each of ``words`` to each of ``others``: row i holds ``words[i]``'s
    distances in the order of ``others``.

    The bit-vector algorithm of Myers (1999) in Hyyrö's (2003) form, run on
    many patterns at once (Hyyrö, Fredriksson & Navarro 2005). Each string
    of ``others`` is one lane of a single Python int: its ``len(r)`` pattern
    bits, then a zero guard bit that stops the ``+`` carry and the ``<< 1``
    shifts at the lane's edge. ``lows`` holds bit 0 of every lane, where row
    0 of each table grows by one per column. Each word then makes one pass
    over its own characters, and a lane's distance is read from the final
    column: ``len(word)`` plus the lane's +1 vertical deltas minus its -1
    ones. ``tests/distance_oracle.py`` keeps the textbook DP as the
    reference.
    """
    lanes = "".join(r + "\0" for r in others)  # "\0" marks a guard bit
    full = int("".join("0" + "1" * len(r) for r in reversed(others)) or "0", 2)
    lows = full & ~(full << 1)
    his = list(accumulate(len(r) + 1 for r in others))
    los = [hi - len(r) - 1 for hi, r in zip(his, others)]
    # one mask per character, a bit at each of its places in the lanes: the
    # lanes reversed, that character as "1" and every other as "0"
    digits = dict.fromkeys(map(ord, lanes), "0")
    backwards = lanes[::-1]
    peq: dict[str, int] = {}
    for ch in set(lanes):
        digits[ord(ch)] = "1"
        peq[ch] = int(backwards.translate(digits), 2) & full  # guards stay 0
        digits[ord(ch)] = "0"
    rows = []
    for word in words:
        pv, mv = full, 0
        for ch in word:
            eq = peq.get(ch, 0)
            xv = eq | mv
            xh = (((eq & pv) + pv) ^ pv) | eq
            ph = mv | ~(xh | pv)  # set beyond the lanes too: masked off in pv
            mh = pv & xh
            ph = ph << 1 | lows
            pv = (mh << 1 | ~(xv | ph)) & full
            mv = ph & xv
        # bit i of an int is character i of its reversed binary string
        plus, minus = bin(pv)[:1:-1], bin(mv)[:1:-1]
        rows.append([len(word) + plus.count("1", lo, hi) - minus.count("1", lo, hi)
                     for lo, hi in zip(los, his)])
    return rows


def levenshtein(a: str, b: str) -> int:
    """The edit distance of ``a`` and ``b``, by ``edit_distances``."""
    return edit_distances((a,), (b,))[0][0]


def word_tables(words: Collection[str], vocabulary: Collection[str],
                lexicon: dict[str, frozenset[str]]
                ) -> dict[str, dict[str, tuple[int, float, bool]]]:
    """For each of ``words``, its table of Levenshtein distance, normalized
    distance and synset match against each word of ``vocabulary``, from one
    ``edit_distances`` call that packs the vocabulary once. A word matches
    its ``lexicon`` mates and itself, even with an empty lexicon, so an
    unchanged word is never penalized as unmatched."""
    vocabulary = tuple(vocabulary)
    tables = {}
    for word, row in zip(words, edit_distances(words, vocabulary)):
        mates = lexicon.get(word, ())
        n = len(word)
        tables[word] = {r: (d, d / max(n, len(r)), r == word or r in mates)
                        for r, d in zip(vocabulary, row)}
    return tables


def word_term(table: dict[str, tuple[int, float, bool]],
              r_tokens: Sequence[str]) -> tuple[float, bool, tuple[int, ...]]:
    """What one word of P contributes against R, read from its table of
    ``word_tables``: its least normalized distance to a word of R, whether R
    holds a synset-mate, and the positions of R it may align to, nearest
    first and leftmost among equals."""
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
    mean of f1, f2 and the LCS word-order component f3.

    f1 and f2 are running sums over P's words, taken in P's order. Greedy
    alignment goes left to right, so the alignment for P plus one word
    extends the one for P. f3 follows the aligned positions of R as they
    are appended: their LCS against the sorted positions is their longest
    increasing subsequence, whose length the patience tails keep.
    """

    __slots__ = ("n", "total", "matched", "used", "aligned", "tails")

    def __init__(self):
        self.n = 0
        self.total = 0.0
        self.matched = 0
        self.used = 0  # bit mask of the aligned positions of R
        self.aligned = 0
        self.tails: list[int] = []

    def add(self, term: tuple[float, bool, tuple[int, ...]]):
        """Extend P by the word whose ``word_term`` against R is ``term``."""
        nearest, mate, reach = term
        self.n += 1
        self.total += nearest
        self.matched += mate
        for pos in reach:
            if not self.used >> pos & 1:
                break
        else:
            return
        self.used |= 1 << pos
        self.aligned += 1
        tails = self.tails
        at = bisect_left(tails, pos)
        tails[at:at + 1] = [pos]

    def value(self) -> float:
        """Equally weighted mean of the components."""
        # sum() as in the reference mean: from Python 3.12 it rounds
        # differently from chained +, and stage-1 ties sort on the last bit;
        # f1 is in [0, 1] because each word's term d / max(|p|, |r|) is
        f1 = 1.0 - self.total / self.n
        f2 = self.matched / self.n
        f3 = len(self.tails) / self.aligned if self.aligned else 0.0
        w = 1.0 / 3
        return sum((w * f1, w * f2, w * f3))
