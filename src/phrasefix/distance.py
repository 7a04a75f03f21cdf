"""Word- and phrase-level similarity: ``edit_distances``, the one edit-distance
kernel, which retrieval calls once per query word and stage 1 once per
sentence, and the one kernel for the equally weighted mean of the
orthographic (f1), synset (f2) and word-order (f3) components of a phrase P
against phrases R.

``edit_distances`` packs its strings into one int, each in a field of the
same power-of-two width, and keeps every lane's distance in a counter of
the same fields as it goes, so that all of a word's distances come out of
one conversion to bytes.

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

import sys
from array import array
from bisect import bisect_left
from itertools import repeat
from operator import add
from typing import Collection, Iterable, Sequence


# two aligned words must be at Levenshtein distance below this
ALIGN_THRESHOLD = 3

Column = tuple[list[float], set[int], dict[int, list[tuple[int, int]]]]

# the array typecodes of unsigned ints of 8 to 64 bits
_CODES = {8: "B", 16: "H", 32: "I", 64: "Q"}
_BIG_ENDIAN = sys.byteorder == "big"


def edit_distances(words: Iterable[str],
                   others: Sequence[str]) -> list[list[int]]:
    """Unit-cost edit distance, with substitution as a single operation, of
    each of ``words`` to each of ``others``: row i holds ``words[i]``'s
    distances in the order of ``others``.

    The bit-vector algorithm of Myers (1999) in Hyyrö's (2003) form, run on
    many patterns at once (Hyyrö, Fredriksson & Navarro 2005). Each string
    of ``others`` is one lane of a single Python int, in a field of W bits:
    W is a power of two, at least 8, chosen per call so that the longest
    lane and a zero guard bit above it fit, and so does the largest
    distance. Each lane sits at the top of its field, right below its guard,
    which stops the ``+`` carry and the ``<< 1`` shifts at the lane's edge,
    so bit W - 2 of every field is its lane's last row. ``lows`` holds bit 0
    of every lane, where row 0 of each table grows by one per column.

    Each word makes one pass over its own characters, and each step adds the
    +1 and -1 horizontal deltas of every lane's last row into one counter,
    all fields in one int operation. Each field of the counter then holds
    its lane's distance, and one ``to_bytes`` into an ``array`` reads them
    all. ``tests/distance_oracle.py`` keeps the textbook DP as the
    reference.
    """
    words = tuple(words)
    lengths = list(map(len, others))
    top = max(lengths, default=0)
    longest = max(top, max(map(len, words), default=0))
    width = 8
    while width <= top or longest >> width:
        width *= 2
    # the fields as ints, the lowest 64 bits of each for fields wider than
    # that, little-endian like every int made from bytes here
    code, stride = _CODES[min(width, 64)], max(width // 64, 1)
    fields = array(code, bytes(width // 8 * len(others)))
    fields[::stride] = array(code, lengths)
    if _BIG_ENDIAN:
        fields.byteswap()
    shift = width - 2  # the bit of every lane's last row
    start = int.from_bytes(fields, "little") << shift  # row m of column 0 is m
    last = int.from_bytes((b"\1" + bytes(width // 8 - 1)) * len(others), "little") << shift
    # the fields as binary digits, the lowest field first, each its padding,
    # its lane, then its guard; reversed, they read as one int
    full = int("0" + "0".join(map(str.rjust, map("1".__mul__, lengths), repeat(width - 1),
                                  repeat("0")))[::-1], 2)
    lows = full & ~(full << 1)
    text = "\0" + "\0".join(map(str.rjust, others, repeat(width - 1), repeat("\0")))[::-1]
    # one mask per character of ``words``, a bit at each of its places in
    # the lanes: that character as "1" and every other as "0"; masking with
    # ``full`` clears the padding and guards, whatever character they hold
    digits = dict.fromkeys(range(128) if text.isascii() else map(ord, set(text)), "0")
    peq = dict.fromkeys(set().union(*words), 0)
    for ch in peq:
        if ord(ch) in digits:
            digits[ord(ch)] = "1"
            peq[ch] = int(text.translate(digits), 2) & full
            digits[ord(ch)] = "0"
    size = len(fields) * fields.itemsize
    rows = []
    for word in words:
        pv, mv, score = full, 0, start
        for ch in word:
            eq = peq[ch]
            xv = eq | mv
            xh = (((eq & pv) + pv) ^ pv) | eq
            ph = mv | ~(xh | pv)  # set beyond the lanes too: masked off in pv
            mh = pv & xh
            # exact int arithmetic: a field may borrow from the next one on
            # the way, but ends at its lane's distance, in [0, 2**W); an
            # empty lane's bit W - 2 is padding, where ph is always set, so
            # its distance grows by one per character, as row 0 does
            score += (ph & last) - (mh & last)
            ph = ph << 1 | lows
            pv = (mh << 1 | ~(xv | ph)) & full
            mv = ph & xv
        distances = array(code, (score >> shift).to_bytes(size, "little"))
        if _BIG_ENDIAN:
            distances.byteswap()
        rows.append(distances[::stride].tolist())
    return rows


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
