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
class ScoredPhrase:
    tokens: tuple[str, ...]
    score: float  # log10 LM score


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
                   config: SubstituterConfig) -> dict[tuple[int, int], list[ScoredPhrase]]:
    """Up to k replacement candidates for every span ``sentence[i:j + 1]``,
    keyed ``(i, j)``.

    Stage 1 retrieves the phrase documents that fuzzy-match a word of the
    span and keeps the t_pool best by combined distance score; stage 2
    re-ranks that pool by LM score. The span itself is seeded into the pool
    before the final truncation, so no list is empty.

    Each distinct word is retrieved once and gets one column, a slot per
    retrieved doc in docid order. Stage 2 ranks the docs' distinct token
    tuples once, by ``(-lm_score, tokens)`` with the lowest docid's score; a
    doc's place is its tuple's rank. Each start grows its span one word at a
    time. Once the span has more than t_pool docs, it folds their columns
    into a ``SpanScores``, and one ``values`` pass scores each cell's pool.
    """
    tokens = tuple(sentence)
    if not tokens:
        raise ValueError("empty sentence")
    docs = index.docs
    hits = {w: index.retrieve(w, config.d_t) for w in set(tokens)}
    retrieved = sorted(set().union(*hits.values()))
    slot_of = {d: slot for slot, d in enumerate(retrieved)}
    hits = {w: [slot_of[d] for d in found] for w, found in hits.items()}
    phrases = [docs[d].tokens for d in retrieved]
    columns = word_columns(hits, phrases, lexicon)
    # the score of a tuple's lowest docid, which comes last
    lowest = {docs[d].tokens: docs[d].lm_score for d in reversed(retrieved)}
    ranked = sorted(lowest.items(), key=lambda item: (-item[1], item[0]))
    where = {phrase: place for place, (phrase, _) in enumerate(ranked)}
    places = [where[phrase] for phrase in phrases]
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
            cells[(i, j)] = _rank(tokens[i:j + 1], pool, values, phrases, places, ranked,
                                  where, lm, config)
    return cells


def _rank(query, pool, values, phrases, places, ranked, where, lm, config):
    """Stage 1's cut to t_pool by distance score, ties by tokens, then
    stage 2's k best places, with the identity seeded in.

    A pool within t_pool is not cut, and ``values`` is None. Otherwise it
    holds each slot's score in ``pool``'s order: all slots above the
    t_pool-th largest are kept, then those at it in tokens order. Docs with
    equal tokens share the place of their lowest docid, so it does not
    matter which of them a cut keeps; that doc is in every pool that holds
    one of them, because the same words retrieve them. The identity takes
    its LM score unless its tokens are in the pool."""
    t_pool = config.t_pool
    if values is None:
        kept = set(map(places.__getitem__, pool))
    else:
        cut = sorted(values, reverse=True)[t_pool - 1]
        above = [slot for slot, v in zip(pool, values) if v > cut]
        tied = sorted([slot for slot, v in zip(pool, values) if v == cut],
                      key=phrases.__getitem__)
        kept = set(map(places.__getitem__, above))
        kept.update(map(places.__getitem__, tied[:t_pool - len(above)]))
    scores = dict(ranked[place] for place in sorted(kept)[:config.k])
    if where.get(query) not in kept:
        scores[query] = lm.score_sequence(query)
    return top_k(scores, config.k)


def top_k(scores: dict[tuple[str, ...], float], k: int) -> list[ScoredPhrase]:
    """The k best of a tokens -> score map by descending score, ties broken
    by tokens, as ``ScoredPhrase``s. A map holds one score per token tuple:
    callers enter the one that counts first (``_rank`` and ``correct_dp``
    enter the pool before the identity and the concatenations)."""
    best = sorted(scores.items(), key=lambda item: (-item[1], item[0]))[:k]
    return [ScoredPhrase(phrase, score) for phrase, score in best]


def find_k_best_common(index: PhraseIndex,
                       phrase: Sequence[str]) -> list[tuple[str, ...]]:
    """All stored phrases sharing at least two word types with ``phrase``,
    in docid order."""
    hits: Counter[int] = Counter()
    for word in set(phrase):
        hits.update(index.postings.get(word, ()))
    return [index.docs[docid].tokens
            for docid in sorted(docid for docid, n in hits.items() if n >= 2)]
