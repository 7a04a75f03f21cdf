"""Candidate generation: two-stage fuzzy retrieval plus ranking, and the
two-common-words heuristic of the fixed-length baseline."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .distance import PhraseScore, word_tables, word_term
from .lm import LanguageModel
from .phrase_index import PhraseIndex


@dataclass(frozen=True)
class ScoredPhrase:
    tokens: tuple[str, ...]
    score: float  # log10 LM score


@dataclass(frozen=True)
class SubstituterConfig:
    """Keep the k best by LM score of the t_pool best by distance score (see
    ``distance.PhraseScore``); query words match at edit distance < d_t.
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

    Each distinct word is retrieved and scored against the words of the
    retrieved docs once. Stage 2 ranks their distinct token tuples once, by
    ``(-lm_score, tokens)`` with the score of the lowest docid; a doc's
    place is its tuple's rank. Each start then grows its span one word at a
    time. It holds docids only until its span has more than t_pool docs;
    from then on it carries one ``PhraseScore`` per doc, folded from the
    start, so a span's distance scores cost one ``add`` per doc.
    """
    tokens = tuple(sentence)
    if not tokens:
        raise ValueError("empty sentence")
    n = len(tokens)
    docs = index.docs
    hits = {w: index.retrieve(w, config.d_t) for w in set(tokens)}
    retrieved = set().union(*hits.values())
    vocabulary = {r for d in retrieved for r in docs[d].tokens}
    terms = {w: {d: word_term(table, docs[d].tokens) for d in retrieved}
             for w, table in word_tables(hits, vocabulary, lexicon).items()}
    lowest: dict[tuple[str, ...], float] = {}
    for d in sorted(retrieved):
        lowest.setdefault(docs[d].tokens, docs[d].lm_score)
    ranked = sorted(lowest.items(), key=lambda item: (-item[1], item[0]))
    where = {phrase: place for place, (phrase, _) in enumerate(ranked)}
    places = {d: where[docs[d].tokens] for d in retrieved}
    cells = {}
    for i in range(n):
        states: dict[int, PhraseScore | None] = {}
        for j in range(i, n):
            for d in hits[tokens[j]]:
                states.setdefault(d, None)
            if len(states) > config.t_pool:
                column = terms[tokens[j]]
                for d, state in states.items():
                    if state is None:
                        states[d] = state = PhraseScore()
                        for t in range(i, j):
                            state.add(terms[tokens[t]][d])
                    state.add(column[d])
            cells[(i, j)] = _rank(tokens[i:j + 1], states, places, ranked, where, lm, config)
    return cells


def _rank(query, states, places, ranked, where, lm, config):
    """Stage 1's cut to t_pool by distance score, ties by tokens then docid,
    then stage 2's k best places, with the identity seeded in.

    A pool within t_pool is not cut and holds no scores. Otherwise every doc
    above the t_pool-th largest score is kept, and the slots left go to the
    docs at that score in ``(tokens, docid)`` order. Docs with equal tokens
    share the place of their lowest docid, which is in every pool that holds
    one of them: the same words retrieve them, they score the same, and the
    cut keeps lower docids first. The identity takes its LM score unless its
    tokens are in the pool."""
    t_pool = config.t_pool
    if len(states) <= t_pool:
        kept = {places[d] for d in states}
    else:
        values = {d: state.value() for d, state in states.items()}
        cut = sorted(values.values(), reverse=True)[t_pool - 1]
        above = [d for d, v in values.items() if v > cut]
        tied = sorted((ranked[places[d]][0], d) for d, v in values.items() if v == cut)
        kept = {places[d] for d in above}
        kept.update(places[d] for _, d in tied[:t_pool - len(above)])
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
