"""Sentence correction: the bottom-up chart decoder over phrase replacements
and the fixed-length recursive baseline."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

from .lm import LanguageModel
from .phrase_index import PhraseIndex
from .substituter import (ScoredPhrase, SubstituterConfig, find_best_subs,
                          find_k_best_common, top_k)

# two-common-word candidates tried per window by the fixed-length baseline
CANDIDATE_CAP = 10


@dataclass
class CorrectionResult:
    original: tuple[str, ...]
    corrected: tuple[str, ...]
    score_before: float
    score_after: float
    kbest: list[ScoredPhrase]
    stats: dict

    def to_record(self) -> dict:
        return {
            "original": " ".join(self.original),
            "corrected": " ".join(self.corrected),
            "score_before": self.score_before,
            "score_after": self.score_after,
            "kbest": [{"phrase": " ".join(c.tokens), "score": c.score}
                      for c in self.kbest],
            "stats": self.stats,
        }


def cross_concat(left: Sequence[ScoredPhrase], right: Sequence[ScoredPhrase],
                 score_fn: Callable[[tuple[str, ...]], float]) -> list[ScoredPhrase]:
    """All |left|*|right| concatenations, each rescored as a whole phrase."""
    out = []
    for a in left:
        for b in right:
            tokens = a.tokens + b.tokens
            out.append(ScoredPhrase(tokens, score_fn(tokens)))
    return out


def correct_dp(sentence: Sequence[str], index: PhraseIndex, lm: LanguageModel,
               lexicon: dict[str, frozenset[str]], config: SubstituterConfig) -> CorrectionResult:
    """Chart decoding: stage 1's per-span cells combined bottom-up in place.

    Spans longer than one word extend their retrieved candidates, for each
    split point, with all pairwise concatenations of the two sub-span cells,
    rescored as whole phrases through an LM cache that lives for this call,
    and are truncated back to k. The top entry of the full-span cell wins.
    """
    tokens = tuple(sentence)
    if not tokens:
        raise ValueError("cannot correct an empty sentence")
    n = len(tokens)
    cells = find_best_subs(index, lm, lexicon, tokens, config)
    stats = {"split_evals": 0, "sub_calls": len(cells)}
    score = functools.cache(lm.score_sequence)
    for length in range(2, n + 1):
        for i in range(n - length + 1):
            j = i + length - 1
            pool = cells[(i, j)]
            for m in range(i, j):
                stats["split_evals"] += 1
                pool.extend(cross_concat(cells[(i, m)], cells[(m + 1, j)], score))
            cells[(i, j)] = top_k(pool, config.k)

    kbest = cells[(0, n - 1)]
    best = kbest[0]
    return CorrectionResult(tokens, best.tokens, score(tokens),
                            best.score, kbest, stats)


def correct_fixed(sentence: Sequence[str], lm: LanguageModel,
                  index: PhraseIndex, phrase_len: int) -> CorrectionResult:
    """Fixed-length baseline: split into consecutive phrases of
    ``phrase_len`` words, search each phrase recursively over overlapping
    order-n windows of two-common-word candidates, then keep the rebuilt
    sentence only if it outscores the original.

    A trailing phrase shorter than ``phrase_len`` passes through unchanged.
    Candidate lists per window are capped at CANDIDATE_CAP to keep the
    exponential recursion runnable.
    """
    tokens = tuple(sentence)
    if not tokens:
        raise ValueError("cannot correct an empty sentence")
    if phrase_len < lm.order:
        raise ValueError(f"phrase length {phrase_len} below model order {lm.order}")

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
    stats = {"candidate_cap": CANDIDATE_CAP, "phrase_len": phrase_len,
             "substituted_any": substituted_any}
    if rebuilt != tokens and score_after > score_before:
        stats["guard_triggered"] = False
        return CorrectionResult(tokens, rebuilt, score_before, score_after,
                                [ScoredPhrase(rebuilt, score_after)], stats)
    stats["guard_triggered"] = True
    return CorrectionResult(tokens, tokens, score_before, score_before,
                            [ScoredPhrase(tokens, score_before)], stats)


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
