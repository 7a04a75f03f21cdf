"""Candidate generation: two-stage fuzzy retrieval plus ranking, and the
two-common-words heuristic of the fixed-length baseline."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .distance import MODES, REJECT, combined_score
from .lexicon import SynonymLexicon
from .lm import LanguageModel
from .phrase_index import PhraseDoc, PhraseIndex


@dataclass(frozen=True)
class ScoredPhrase:
    tokens: tuple[str, ...]
    score: float  # log10 LM score


@dataclass
class SubstituterConfig:
    """Keep the k best by LM score of the t_pool best by distance score under
    ``mode`` (see ``combined_score``); query words match at edit distance < d_t."""

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


def find_best_sub(index: PhraseIndex, lm: LanguageModel, lexicon: SynonymLexicon,
                  phrase: Sequence[str], config: SubstituterConfig) -> list[ScoredPhrase]:
    """Up to k replacement candidates for ``phrase``.

    Stage 1 retrieves the fuzzy-matching phrase documents and keeps the
    t_pool best by combined distance score (rejects dropped); stage 2
    re-ranks that pool by LM score. The original phrase is seeded into the
    pool before the final truncation, so the list is never empty.
    """
    query = tuple(phrase)
    if not query:
        raise ValueError("empty phrase")
    scored: list[tuple[float, PhraseDoc]] = []
    for docid in index.retrieve(query, config.d_t):
        doc = index.docs[docid]
        s = combined_score(query, doc.tokens, lexicon, config.mode)
        if s is REJECT:
            continue
        scored.append((s, doc))
    scored.sort(key=lambda item: (-item[0], item[1].tokens))
    pool = [ScoredPhrase(doc.tokens, doc.lm_score) for _, doc in scored[:config.t_pool]]
    if query not in {c.tokens for c in pool}:
        pool.append(ScoredPhrase(query, lm.score_sequence(query)))
    return top_k(pool, config.k)


def top_k(candidates: Iterable[ScoredPhrase], k: int) -> list[ScoredPhrase]:
    """The k best candidates by descending score, ties broken by tokens.
    Of candidates with the same tokens only the first one counts."""
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
