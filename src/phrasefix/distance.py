"""Word- and phrase-level similarity: ``edit_distances``, the one
edit-distance kernel, which retrieval calls once per query word and stage 1
once per sentence (``levenshtein`` is one call of it for one pair), and the
one kernel for the equally weighted mean of the orthographic (f1), synset
(f2) and word-order (f3) components of a phrase P against phrases R.

All components are similarities in [0, 1], higher is better, and so is
their mean. Word order is judged on a greedy left-to-right one-to-one
alignment of P's words onto R's, each pair at Levenshtein distance below
``ALIGN_THRESHOLD``.

The kernel works in columns over a list of phrases R, one slot each:
``word_columns`` gives each word of P its column, and ``SpanScores`` folds
P's columns. Stage 1 (``substituter.find_best_subs``) runs one per start of
a sentence over its retrieved docs. ``tests/distance_oracle.py`` holds the
references for the edit distance, each component and (``reference_score``)
their mean."""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate
from operator import add
from typing import Collection, Iterable, Sequence


# two aligned words must be at Levenshtein distance below this
ALIGN_THRESHOLD = 3

Column = tuple[list[float], set[int], dict[int, list[tuple[int, int]]]]


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


def word_columns(words: Collection[str], phrases: Sequence[Sequence[str]],
                 lexicon: dict[str, frozenset[str]]) -> dict[str, Column]:
    """For each of ``words``, its ``Column`` over ``phrases``, from one
    ``edit_distances`` call that packs their distinct words once: every
    slot's least normalized distance ``d / max(|p|, |r|)`` to a word of its
    phrase; the slots whose phrase holds the word itself or a ``lexicon``
    mate (so even an empty lexicon matches a word to itself); and, for each
    slot whose phrase has words within ``ALIGN_THRESHOLD``, their
    ``(distance, position)`` pairs, nearest first and leftmost among equals.
    """
    holders: dict[str, list[int]] = {}  # each word to the slots that hold it
    for slot, phrase in enumerate(phrases):
        for r in phrase:
            holders.setdefault(r, []).append(slot)
    vocabulary = tuple(holders)
    lengths = [len(r) for r in vocabulary]
    columns = {}
    for word, row in zip(words, edit_distances(words, vocabulary)):
        n = len(word)
        norm = {r: d / (n if n > m else m) for r, d, m in zip(vocabulary, row, lengths)}
        nearest = [min(map(norm.__getitem__, phrase)) for phrase in phrases]
        mates = {slot for r in {word, *lexicon.get(word, ())} for slot in holders.get(r, ())}
        close = {r: d for r, d in zip(vocabulary, row) if d < ALIGN_THRESHOLD}
        reaches = {slot: sorted([(close[r], pos) for pos, r in enumerate(phrases[slot])
                                 if r in close])
                   for slot in {slot for r in close for slot in holders[r]}}
        columns[word] = nearest, mates, reaches
    return columns


class SpanScores:
    """The scores of a phrase P, which grows by one word on the right per
    ``fold``, against each slot of its columns: the equally weighted mean of
    f1, f2 and the LCS word-order component f3.

    f1 and f2 are running sums over P's words, in P's order. The greedy
    alignment for P plus one word extends the one for P, at the word's
    reach. f3 follows the aligned positions of R as they are appended: their
    LCS against the sorted positions is their longest increasing
    subsequence, whose length the patience tails keep.
    """

    __slots__ = ("n", "totals", "matched", "used", "tails", "order")

    def __init__(self, size: int):
        self.n = 0
        self.totals = [0.0] * size
        self.matched = [0] * size
        self.used = [0] * size  # bit mask of each slot's aligned positions
        self.tails: dict[int, list[int]] = {}  # only for slots that aligned
        self.order = [0.0] * size  # each slot's share of f3

    def fold(self, column: Column):
        """Extend P by the word of ``column`` (see ``word_columns``)."""
        nearest, mates, reaches = column
        self.n += 1
        self.totals = list(map(add, self.totals, nearest))
        matched, used, tails, order = self.matched, self.used, self.tails, self.order
        for slot in mates:
            matched[slot] += 1
        w = 1.0 / 3
        for slot, reach in reaches.items():
            mask = used[slot]
            for _, pos in reach:
                if not mask >> pos & 1:
                    break
            else:
                continue
            used[slot] = mask = mask | 1 << pos
            line = tails.get(slot)
            if line is None:
                tails[slot] = line = [pos]
            else:
                at = bisect_left(line, pos)
                line[at:at + 1] = [pos]
            order[slot] = w * (len(line) / mask.bit_count())

    def values(self, slots: Iterable[int]) -> list[float]:
        """The combined score of each of ``slots``, in their order."""
        # sum() as in the reference mean: from Python 3.12 it rounds
        # differently from chained +, and stage-1 ties sort on the last bit;
        # f1 is in [0, 1] because each word's term d / max(|p|, |r|) is
        n, w = self.n, 1.0 / 3
        totals, matched, order = self.totals, self.matched, self.order
        shares = [w * (m / n) for m in range(n + 1)]  # f2's share per count
        return [sum((w * (1.0 - totals[slot] / n), shares[matched[slot]], order[slot]))
                for slot in slots]
