"""Sentence correction: the bottom-up chart decoder over phrase replacements
and the fixed-length recursive baseline."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .lm import LanguageModel
from .phrase_index import PhraseIndex
from .substituter import SubstituterConfig, find_best_subs, find_k_best_common, top_k

# two-common-word candidates tried per window by the fixed-length baseline
CANDIDATE_CAP = 10


@dataclass
class CorrectionResult:
    original: tuple[str, ...]
    corrected: tuple[str, ...]
    score_before: float
    score_after: float
    kbest: dict[tuple[str, ...], float]  # tokens -> score, best first
    stats: dict

    def to_record(self) -> dict:
        return {
            "original": " ".join(self.original),
            "corrected": " ".join(self.corrected),
            "score_before": self.score_before,
            "score_after": self.score_after,
            "kbest": [{"phrase": " ".join(phrase), "score": score}
                      for phrase, score in self.kbest.items()],
            "stats": self.stats,
        }


def cross_concat(left: Iterable[tuple[str, ...]], right: Iterable[tuple[str, ...]],
                 score_fn: Callable[..., float],
                 out: dict[tuple[str, ...], float]) -> dict[tuple[str, ...], float]:
    """Every concatenation of a left and a right candidate's tokens that
    ``out`` does not hold yet, added to it with its score as a whole phrase.
    ``score_fn`` is ``LanguageModel.score_sequence`` or a memo of it: a
    concatenation's score continues its left part's exact score,
    ``score_fn(a + b, len(a), score_fn(a))``."""
    for a in left:
        head = score_fn(a)
        for b in right:
            tokens = a + b
            if tokens not in out:
                out[tokens] = score_fn(tokens, len(a), head)
    return out


def correct_dp(sentence: Sequence[str], index: PhraseIndex, lm: LanguageModel,
               lexicon: dict[str, frozenset[str]], config: SubstituterConfig) -> CorrectionResult:
    """Chart decoding: stage 1's per-span cells combined bottom-up in place.

    Spans longer than one word extend their cell's map of retrieved
    candidates, tokens to score, with the concatenations of the two sub-span
    cells of each split point that the map does not hold yet. Each is
    rescored as a whole phrase through an LM memo that lives for this call,
    and the map is truncated back to k. The first entry of the full-span
    cell wins. A sentence without words passes through, with no stats.
    """
    tokens = tuple(sentence)
    if not tokens:
        return CorrectionResult((), (), 0.0, 0.0, {}, {})
    n = len(tokens)
    cells = find_best_subs(index, lm, lexicon, tokens, config)
    stats = {"split_evals": 0, "sub_calls": len(cells)}
    memo: dict[tuple[str, ...], float] = {}

    def score(seq, start=0, total=0.0):
        got = memo.get(seq)
        if got is None:
            got = memo[seq] = lm.score_sequence(seq, start, total)
        return got

    for length in range(2, n + 1):
        for i in range(n - length + 1):
            j = i + length - 1
            pool = cells[(i, j)]
            for m in range(i, j):
                stats["split_evals"] += 1
                cross_concat(cells[(i, m)], cells[(m + 1, j)], score, pool)
            cells[(i, j)] = top_k(pool, config.k)

    kbest = cells[(0, n - 1)]
    corrected, score_after = next(iter(kbest.items()))
    return CorrectionResult(tokens, corrected, score(tokens), score_after, kbest, stats)


def correct_fixed(sentence: Sequence[str], lm: LanguageModel,
                  index: PhraseIndex, phrase_len: int) -> CorrectionResult:
    """Fixed-length baseline: split into consecutive phrases of
    ``phrase_len`` words, search each phrase recursively over overlapping
    order-n windows of two-common-word candidates, then keep the rebuilt
    sentence only if it outscores the original.

    A trailing phrase shorter than ``phrase_len`` passes through unchanged.
    Candidate lists per window are capped at CANDIDATE_CAP to keep the
    exponential recursion runnable. A sentence without words passes
    through, with no stats.
    """
    tokens = tuple(sentence)
    if phrase_len < lm.order:
        raise ValueError(f"phrase length {phrase_len} below model order {lm.order}")
    if not tokens:
        return CorrectionResult((), (), 0.0, 0.0, {}, {})

    n = lm.order
    substituted_any = False
    pieces = []
    for start in range(0, len(tokens), phrase_len):
        piece = tokens[start:start + phrase_len]
        if len(piece) < phrase_len:
            pieces.append(piece)
            continue
        best_sub, changed = _best_phrase_sub(piece, lm, index, n)
        substituted_any = substituted_any or changed
        pieces.append(best_sub)

    rebuilt = tuple(w for piece in pieces for w in piece)
    score_before = lm.score_sequence(tokens)
    score_after = lm.score_sequence(rebuilt) if rebuilt != tokens else score_before
    keep = rebuilt != tokens and score_after > score_before
    best, score = (rebuilt, score_after) if keep else (tokens, score_before)
    stats = {"candidate_cap": CANDIDATE_CAP, "phrase_len": phrase_len,
             "substituted_any": substituted_any, "guard_triggered": not keep}
    return CorrectionResult(tokens, best, score_before, score, {best: score}, stats)


def _best_phrase_sub(piece, lm, index, n):
    """Recursive window substitution search over one fixed-length phrase."""
    best = [piece, lm.score_sequence(piece)]

    def compute_sub(cur, start):
        if start + n > len(cur):
            s = lm.score_sequence(cur)
            if s > best[1]:
                best[0], best[1] = cur, s
            return
        window = cur[start:start + n]
        for x in find_k_best_common(index, window)[:CANDIDATE_CAP]:
            compute_sub(cur[:start] + x + cur[start + n:], start + 1)

    compute_sub(piece, 0)
    return best[0], best[0] != piece
