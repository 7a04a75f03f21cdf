"""Candidate generation: two-stage fuzzy retrieval plus ranking, and the
two-common-words heuristic of the fixed-length baseline."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .distance import MODES, PhraseScore, word_table, word_term
from .lexicon import SynonymLexicon
from .lm import LanguageModel
from .phrase_index import PhraseIndex


@dataclass(frozen=True)
class ScoredPhrase:
    tokens: tuple[str, ...]
    score: float  # log10 LM score


@dataclass
class SubstituterConfig:
    """Keep the k best by LM score of the t_pool best by distance score under
    ``mode`` (see ``distance.PhraseScore``); query words match at edit
    distance < d_t."""

    k: int = 5
    t_pool: int = 200
    mode: str = "C"
    d_t: int = 3

    def __post_init__(self):
        if not 1 <= self.k <= self.t_pool:
            raise ValueError(f"need 1 <= k <= t_pool, got k={self.k} t_pool={self.t_pool}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.d_t < 1:
            raise ValueError("d_t must be >= 1")


def find_best_subs(index: PhraseIndex, lm: LanguageModel, lexicon: SynonymLexicon,
                   sentence: Sequence[str],
                   config: SubstituterConfig) -> dict[tuple[int, int], list[ScoredPhrase]]:
    """Up to k replacement candidates for every span ``sentence[i:j + 1]``,
    keyed ``(i, j)``.

    Stage 1 retrieves the phrase documents that fuzzy-match a word of the
    span and keeps the t_pool best by combined distance score (rejects
    dropped); stage 2 re-ranks that pool by LM score. The span itself is
    seeded into the pool before the final truncation, so no list is empty.

    Each distinct word is retrieved and scored against the words of the
    retrieved docs once. Each start then grows its span one word at a time,
    carrying one ``PhraseScore`` per retrieved doc, so a span's distance
    scores cost one ``add`` per doc instead of a rescan of the span.
    """
    tokens = tuple(sentence)
    if not tokens:
        raise ValueError("empty sentence")
    n = len(tokens)
    docs = index.docs
    hits = {w: index.retrieve(w, config.d_t) for w in set(tokens)}
    retrieved = set().union(*hits.values())
    vocabulary = {r for d in retrieved for r in docs[d].tokens}
    terms = {}
    for w in hits:
        table = word_table(w, vocabulary, lexicon)
        terms[w] = {d: word_term(table, docs[d].tokens) for d in retrieved}
    phrases = {d: ScoredPhrase(docs[d].tokens, docs[d].lm_score) for d in retrieved}
    cells = {}
    for i in range(n):
        states: dict[int, PhraseScore] = {}
        for j in range(i, n):
            column = terms[tokens[j]]
            for d, state in states.items():
                state.add(column[d])
            for d in hits[tokens[j]]:
                if d not in states:
                    states[d] = state = PhraseScore(config.mode)
                    for t in range(i, j + 1):
                        state.add(terms[tokens[t]][d])
            cells[(i, j)] = _rank(tokens[i:j + 1], states, phrases, lm, config)
    return cells


def _rank(query, states, phrases, lm, config):
    """Stage 1 cut to t_pool by distance score, ties by tokens then docid,
    the identity appended last, then stage 2's k best by LM score."""
    scored = []
    for d, state in states.items():
        s = state.value()
        if s is not None:
            scored.append((-s, phrases[d].tokens, d))
    scored.sort()
    pool = [phrases[d] for _, _, d in scored[:config.t_pool]]
    pool.append(ScoredPhrase(query, lm.score_sequence(query)))
    return top_k(pool, config.k)


def top_k(candidates: Iterable[ScoredPhrase], k: int) -> list[ScoredPhrase]:
    """The k best candidates by descending score, ties broken by tokens.
    Of candidates with the same tokens only the first one counts; callers
    rely on this order (``_rank`` appends the identity after the pool, so a
    doc with the query's tokens keeps its stored score)."""
    unique: dict[tuple[str, ...], ScoredPhrase] = {}
    for cand in candidates:
        unique.setdefault(cand.tokens, cand)
    return sorted(unique.values(), key=lambda c: (-c.score, c.tokens))[:k]


def find_k_best_common(index: PhraseIndex,
                       phrase: Sequence[str]) -> list[tuple[str, ...]]:
    """All stored phrases sharing at least two word types with ``phrase``,
    in docid order."""
    hits: Counter[int] = Counter()
    for word in set(phrase):
        hits.update(index.postings.get(word, ()))
    return [index.docs[docid].tokens
            for docid in sorted(docid for docid, n in hits.items() if n >= 2)]
