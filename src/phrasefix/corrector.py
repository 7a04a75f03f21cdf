"""Sentence correction: the bottom-up chart decoder over phrase replacements
and the fixed-length recursive baseline."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .lexicon import SynonymLexicon
from .lm import LanguageModel
from .phrase_index import PhraseIndex
from .substituter import (ScoredPhrase, SubstituterConfig, find_best_sub,
                          find_k_best_common, top_k)


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


def combine_cells(left: Sequence[ScoredPhrase], right: Sequence[ScoredPhrase],
                  lm: LanguageModel, k: int) -> list[ScoredPhrase]:
    """Concatenate two candidate lists pairwise, rescore whole, keep top k."""
    return top_k(cross_concat(left, right, lm.score_sequence), k)


def correct_dp(sentence: Sequence[str], index: PhraseIndex, lm: LanguageModel,
               lexicon: SynonymLexicon, config: SubstituterConfig,
               sub_cache: dict | None = None) -> CorrectionResult:
    """Chart decoding: per-span candidate lists combined bottom-up.

    Every span [i, j] first gets its retrieved candidates; spans longer than
    one word are then augmented, for each split point, with all pairwise
    concatenations of the two sub-span cells, rescored as whole phrases, and
    truncated back to k. The top entry of the full-span cell is the output.
    ``sub_cache`` (phrase tuple -> candidate list) may be shared across
    sentences corrected under one configuration.
    """
    tokens = tuple(sentence)
    if not tokens:
        raise ValueError("cannot correct an empty sentence")
    n = len(tokens)
    stats = {"split_evals": 0, "sub_calls": 0}

    score_memo: dict[tuple[str, ...], float] = {}

    def score(seq: tuple[str, ...]) -> float:
        s = score_memo.get(seq)
        if s is None:
            s = lm.score_sequence(seq)
            score_memo[seq] = s
        return s

    sub: dict[tuple[int, int], list[ScoredPhrase]] = {}
    for i in range(n):
        for j in range(i, n):
            phrase = tokens[i:j + 1]
            stats["sub_calls"] += 1
            if sub_cache is not None and phrase in sub_cache:
                sub[(i, j)] = sub_cache[phrase]
                continue
            cell = find_best_sub(index, lm, lexicon, phrase, config)
            if sub_cache is not None:
                sub_cache[phrase] = cell
            sub[(i, j)] = cell

    rep: dict[tuple[int, int], list[ScoredPhrase]] = {}
    for i in range(n):
        rep[(i, i)] = sub[(i, i)]
    for length in range(2, n + 1):
        for i in range(n - length + 1):
            j = i + length - 1
            pool = list(sub[(i, j)])
            for m in range(i, j):
                stats["split_evals"] += 1
                pool.extend(cross_concat(rep[(i, m)], rep[(m + 1, j)], score))
            rep[(i, j)] = top_k(pool, config.k)

    kbest = rep[(0, n - 1)]
    best = kbest[0]
    return CorrectionResult(tokens, best.tokens, lm.score_sequence(tokens),
                            best.score, kbest, stats)


def correct_fixed(sentence: Sequence[str], lm: LanguageModel,
                  index: PhraseIndex, phrase_len: int = 7,
                  candidate_cap: int = 10) -> CorrectionResult:
    """Fixed-length baseline: split into consecutive phrases of
    ``phrase_len`` words, search each phrase recursively over overlapping
    order-n windows of two-common-word candidates, then keep the rebuilt
    sentence only if it outscores the original.

    A trailing phrase shorter than ``phrase_len`` passes through unchanged.
    Candidate lists per window are capped to keep the exponential recursion
    runnable.
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
        best_sub, changed = _best_phrase_sub(piece, lm, index, n, candidate_cap)
        substituted_any = substituted_any or changed
        pieces.append(best_sub)

    rebuilt = tuple(w for piece in pieces for w in piece)
    score_before = lm.score_sequence(tokens)
    score_after = lm.score_sequence(rebuilt) if rebuilt != tokens else score_before
    stats = {"candidate_cap": candidate_cap, "phrase_len": phrase_len,
             "substituted_any": substituted_any}
    if rebuilt != tokens and score_after > score_before:
        stats["guard_triggered"] = False
        return CorrectionResult(tokens, rebuilt, score_before, score_after,
                                [ScoredPhrase(rebuilt, score_after)], stats)
    stats["guard_triggered"] = True
    return CorrectionResult(tokens, tokens, score_before, score_before,
                            [ScoredPhrase(tokens, score_before)], stats)


def _best_phrase_sub(piece, lm, index, n, cap):
    """Recursive window substitution search over one fixed-length phrase."""
    best = [piece, lm.score_sequence(piece)]

    def compute_sub(cur, start):
        if start + n > len(cur):
            s = lm.score_sequence(cur)
            if s > best[1]:
                best[0], best[1] = cur, s
            return
        window = cur[start:start + n]
        for x in find_k_best_common(index, window)[:cap]:
            compute_sub(cur[:start] + x + cur[start + n:], start + 1)

    compute_sub(piece, 0)
    return best[0], best[0] != piece
