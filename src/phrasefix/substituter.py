"""Candidate generation: two-stage fuzzy retrieval plus ranking, and the
two-common-words heuristic of the fixed-length baseline."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .distance import SpanScores, word_columns
from .lm import LanguageModel
from .phrase_index import PhraseIndex


@dataclass(frozen=True)
class SubstituterConfig:
    """Keep the k best by LM score of the t_pool best by distance score (see
    ``distance.SpanScores``); query words match at edit distance < d_t.
    Frozen, so a config stays as ``__post_init__`` checked it."""

    k: int = 5
    t_pool: int = 200
    d_t: int = 3

    def __post_init__(self):
        if not 1 <= self.k <= self.t_pool:
            raise ValueError(f"need 1 <= k <= t_pool, got k={self.k} t_pool={self.t_pool}")
        if self.d_t < 1:
            raise ValueError("d_t must be >= 1")


def find_best_subs(index: PhraseIndex, lm: LanguageModel,
                   lexicon: dict[str, frozenset[str]], sentence: Sequence[str],
                   config: SubstituterConfig
                   ) -> dict[tuple[int, int], dict[tuple[str, ...], float]]:
    """Up to k replacement candidates for every span ``sentence[i:j + 1]``,
    keyed ``(i, j)``, each a ``top_k`` map of tokens to log10 LM score.

    Stage 1 retrieves the phrase documents that fuzzy-match a word of the
    span and keeps the t_pool best by combined distance score; stage 2
    re-ranks that pool by LM score. The span itself is seeded into the pool
    before the final truncation, so no cell is empty.

    Each distinct word is retrieved once and gets one column, a slot per
    retrieved doc. The slots are in stage 2's order, ``(-lm_score,
    tokens)``, which no two docs share because their tokens differ
    (``build_index``), so the k best of a pool are its k lowest slots. Each
    start grows its span one word at a time. Once the span has more than
    t_pool docs, it folds their columns into a ``SpanScores``, and one
    ``values`` pass scores each cell's pool.
    """
    tokens = tuple(sentence)
    docs = index.docs
    hits = {w: index.retrieve(w, config.d_t) for w in set(tokens)}
    # a doc read by position, (docid, tokens, lm_score), is cheaper than by
    # field name
    retrieved = sorted(set().union(*hits.values()),
                       key=lambda d: (-docs[d][2], docs[d][1]))
    slot_of = {d: slot for slot, d in enumerate(retrieved)}
    hits = {w: [slot_of[d] for d in found] for w, found in hits.items()}
    ranked = [docs[d][1:] for d in retrieved]  # (tokens, lm_score) per slot
    phrases = [phrase for phrase, _ in ranked]
    columns = word_columns(hits, phrases, lexicon)
    where = {phrase: slot for slot, phrase in enumerate(phrases)}
    cells = {}
    for i in range(len(tokens)):
        pool: set[int] = set()
        scores = SpanScores(len(phrases))
        for j in range(i, len(tokens)):
            pool.update(hits[tokens[j]])
            values = None
            if len(pool) > config.t_pool:
                while scores.n <= j - i:  # the words of the span not folded yet
                    scores.fold(columns[tokens[i + scores.n]])
                values = scores.values(pool)
            cells[(i, j)] = _rank(tokens[i:j + 1], pool, values, phrases, ranked,
                                  where, lm, config)
    return cells


def _rank(query, pool, values, phrases, ranked, where, lm, config):
    """Stage 1's cut to t_pool by distance score, ties by tokens, then
    stage 2's k best, the kept pool's lowest slots, with the identity
    seeded in.

    A pool within t_pool is not cut, and ``values`` is None. Otherwise it
    holds each slot's score in ``pool``'s order: all slots above the
    t_pool-th largest are kept, then those at it in tokens order. The
    identity takes its LM score unless its tokens are in the pool."""
    t_pool = config.t_pool
    if values is None:
        kept = pool
    else:
        cut = sorted(values, reverse=True)[t_pool - 1]
        kept = {slot for slot, v in zip(pool, values) if v > cut}
        tied = sorted([slot for slot, v in zip(pool, values) if v == cut],
                      key=phrases.__getitem__)
        kept.update(tied[:t_pool - len(kept)])
    scores = dict(ranked[slot] for slot in sorted(kept)[:config.k])
    if where.get(query) not in kept:
        scores[query] = lm.score_sequence(query)
    return top_k(scores, config.k)


def top_k(scores: dict[tuple[str, ...], float], k: int) -> dict[tuple[str, ...], float]:
    """The k best of a tokens -> score map by descending score, ties broken
    by tokens, as a new map in that order. A map holds one score per token
    tuple: callers enter the one that counts first (``_rank`` and
    ``correct_dp`` enter the pool before the identity and the
    concatenations)."""
    return dict(sorted(scores.items(), key=lambda item: (-item[1], item[0]))[:k])


def find_k_best_common(index: PhraseIndex,
                       phrase: Sequence[str]) -> list[tuple[str, ...]]:
    """All stored phrases sharing at least two word types with ``phrase``,
    in docid order."""
    hits: Counter[int] = Counter()
    for word in set(phrase):
        hits.update(index.postings.get(word, ()))
    docs = index.docs  # tokens by position, as in ``find_best_subs``
    return [docs[docid][1] for docid in sorted(docid for docid, n in hits.items() if n >= 2)]
