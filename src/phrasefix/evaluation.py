"""Corpus evaluation (BLEU, and perplexity from ``LanguageModel.score_sequence``)
and the seeded noise injector used to manufacture desk-scale test data."""

from __future__ import annotations

import math
import random
import string
import zlib
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .lm import LanguageModel

# BLEU's highest n-gram order
MAX_N = 4


def _ngrams(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def modified_precision(candidate: Sequence[str], reference: Sequence[str],
                       n: int) -> tuple[int, int]:
    """(clipped matches, total candidate n-grams) for one segment: each
    candidate n-gram counts at most as often as the reference holds it."""
    counts = _ngrams(candidate, n)
    return sum((counts & _ngrams(reference, n)).values()), sum(counts.values())


def bleu(candidates: Sequence[Sequence[str]],
         references: Sequence[Sequence[str]]) -> float:
    """Corpus-level BLEU against one reference per candidate: geometric mean
    of aggregated clipped precisions for n = 1..MAX_N times the brevity
    penalty e^(1 - r/c) when c <= r. Any zero aggregate precision yields 0
    (unsmoothed)."""
    if len(candidates) != len(references):
        raise ValueError("candidate and reference lists differ in length")
    if not candidates:
        raise ValueError("empty corpus")
    numer = [0] * MAX_N
    denom = [0] * MAX_N
    for cand, ref in zip(candidates, references):
        for n in range(1, MAX_N + 1):
            m, t = modified_precision(cand, ref, n)
            numer[n - 1] += m
            denom[n - 1] += t
    if 0 in numer:  # a zero denominator has a zero numerator
        return 0.0
    log_mean = sum(math.log(m / t) for m, t in zip(numer, denom)) / MAX_N
    c_total = sum(map(len, candidates))
    r_total = sum(map(len, references))
    penalty = 1.0 if c_total > r_total else math.exp(1.0 - r_total / c_total)
    return penalty * math.exp(log_mean)


def corpus_perplexity(lm: LanguageModel, sentences: Sequence[Sequence[str]]) -> float:
    """Token-weighted perplexity: 10 ** -(the mean log10 probability of the
    words with a full history of ``lm.order - 1`` words, over the sentences at
    least ``lm.order`` long). ``ValueError`` if none is, or past the float range."""
    if not sentences:
        raise ValueError("empty sentence list")
    total = 0.0
    terms = 0
    for sent in sentences:
        if len(sent) >= lm.order:
            total += lm.score_sequence(sent, lm.order - 1)
            terms += len(sent) - lm.order + 1
    if terms == 0:
        raise ValueError("no sentence is long enough for the model order")
    try:
        perplexity = 10 ** (-total / terms)
    except OverflowError:
        perplexity = math.inf
    if not math.isfinite(perplexity):  # or the sum itself left the range
        raise ValueError("perplexity exceeds the float range")
    return perplexity


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
                 lexicon: dict[str, frozenset[str]] | None = None) -> tuple[str, ...]:
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
        mates = sorted(lexicon.get(words[i], ())) if lexicon else []
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
