"""Corpus evaluation (BLEU, perplexity) and the seeded noise injector used to
manufacture desk-scale test data."""

from __future__ import annotations

import math
import random
import string
import zlib
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .lexicon import SynonymLexicon
from .lm import LanguageModel

LOG10_2 = math.log10(2.0)


def _ngrams(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def modified_precision(candidate: Sequence[str],
                       references: Sequence[Sequence[str]],
                       n: int) -> tuple[int, int]:
    """(clipped matches, total candidate n-grams) for one segment.

    Each distinct candidate n-gram counts at most its maximum count in any
    single reference.
    """
    counts = _ngrams(candidate, n)
    if not counts:
        return 0, 0
    max_counts: Counter = Counter()
    for ref in references:
        ref_counts = _ngrams(ref, n)
        for gram in counts:
            max_counts[gram] = max(max_counts[gram], ref_counts[gram])
    clipped = sum(min(c, max_counts[gram]) for gram, c in counts.items())
    return clipped, sum(counts.values())


def closest_ref_length(candidate: Sequence[str],
                       references: Sequence[Sequence[str]]) -> int:
    """Reference length closest to the candidate's (shorter wins ties)."""
    c = len(candidate)
    return min((len(r) for r in references),
               key=lambda rl: (abs(rl - c), rl))


def bleu(candidates: Sequence[Sequence[str]],
         reference_sets: Sequence[Sequence[Sequence[str]]],
         max_n: int = 4) -> float:
    """Corpus-level BLEU: geometric mean of aggregated clipped precisions for
    n = 1..max_n times the brevity penalty e^(1 - r/c) when c <= r. Any
    zero aggregate precision yields 0 (unsmoothed)."""
    if len(candidates) != len(reference_sets):
        raise ValueError("candidate and reference lists differ in length")
    if not candidates:
        raise ValueError("empty corpus")
    numer = [0] * (max_n + 1)
    denom = [0] * (max_n + 1)
    c_total = 0
    r_total = 0
    for cand, refs in zip(candidates, reference_sets):
        c_total += len(cand)
        r_total += closest_ref_length(cand, refs)
        for n in range(1, max_n + 1):
            m, t = modified_precision(cand, refs, n)
            numer[n] += m
            denom[n] += t
    if any(numer[n] == 0 or denom[n] == 0 for n in range(1, max_n + 1)):
        return 0.0
    log_mean = sum(math.log(numer[n] / denom[n]) for n in range(1, max_n + 1)) / max_n
    penalty = 1.0 if c_total > r_total else math.exp(1.0 - r_total / c_total)
    return penalty * math.exp(log_mean)


def corpus_perplexity(lm: LanguageModel, sentences: Sequence[Sequence[str]]) -> float:
    """Token-weighted perplexity: one 2**(sum LP / sum terms) over the whole
    corpus, skipping sentences shorter than the model order."""
    sents = [tuple(s) for s in sentences]
    if not sents:
        raise ValueError("empty sentence list")
    total_lp = 0.0
    terms = 0
    for sent in sents:
        if len(sent) < lm.order:
            continue
        for i in range(lm.order - 1, len(sent)):
            total_lp -= lm.score_word(sent[i], sent[i - lm.order + 1:i]) / LOG10_2
        terms += len(sent) - lm.order + 1
    if terms == 0:
        raise ValueError("no sentence is long enough for the model order")
    return 2.0 ** (total_lp / terms)


@dataclass(frozen=True)
class NoiseSpec:
    """Seeded noise recipe: counts per error class (reordering, missing word,
    word choice, spelling)."""

    seed: int = 0
    swap_adjacent: int = 0
    delete_word: int = 0
    substitute_word: int = 0
    typo_char: int = 0
    vocabulary: tuple[str, ...] = ()

    def __post_init__(self):
        if min(self.swap_adjacent, self.delete_word,
               self.substitute_word, self.typo_char) < 0:
            raise ValueError("op counts must be >= 0")


def _typo(word: str, rng: random.Random) -> str:
    letters = string.ascii_lowercase
    ops = ["insert", "substitute"]
    if len(word) >= 2:
        ops.append("delete")
    op = rng.choice(ops)
    if op == "insert":
        pos = rng.randrange(len(word) + 1)
        return word[:pos] + rng.choice(letters) + word[pos:]
    if op == "delete":
        pos = rng.randrange(len(word))
        return word[:pos] + word[pos + 1:]
    pos = rng.randrange(len(word))
    replacement = rng.choice([ch for ch in letters if ch != word[pos]])
    return word[:pos] + replacement + word[pos + 1:]


def inject_noise(sentence: Sequence[str], spec: NoiseSpec,
                 lexicon: SynonymLexicon | None = None) -> tuple[str, ...]:
    """Apply the recipe's error counts to one sentence; deterministic in
    (sentence, spec). Ops the sentence is too short for are skipped."""
    words = list(sentence)
    digest = zlib.crc32(" ".join(sentence).encode("utf-8"))
    rng = random.Random((spec.seed << 32) ^ digest)
    for _ in range(spec.swap_adjacent):
        if len(words) >= 2:
            i = rng.randrange(len(words) - 1)
            words[i], words[i + 1] = words[i + 1], words[i]
    for _ in range(spec.delete_word):
        if len(words) >= 2:
            del words[rng.randrange(len(words))]
    for _ in range(spec.substitute_word):
        if not words:
            break
        i = rng.randrange(len(words))
        mates = sorted(lexicon.mates.get(words[i], ())) if lexicon else []
        if mates:
            words[i] = rng.choice(mates)
        else:
            pool = [w for w in spec.vocabulary if w != words[i]]
            if pool:
                words[i] = rng.choice(pool)
    for _ in range(spec.typo_char):
        if not words:
            break
        i = rng.randrange(len(words))
        words[i] = _typo(words[i], rng)
    return tuple(words)
