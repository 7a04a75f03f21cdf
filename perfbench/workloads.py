"""Seeded input generators for the three workloads.

Every generator takes the run's seed and writes plain text files: a
training corpus, an optional lexicon, and the noisy inputs with their clean
references. Nothing here imports the program; inputs are made before any
timing starts. Only ``random.Random(seed)`` and sorted lists are used, so
the same seed gives byte-identical files.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass, field

# The acceptance-test grammar (tests/conftest.py): short common words, so
# fuzzy retrieval at d_t=3 returns most of the index for every query word.
SUBJECTS = [
    ("the", "committee"), ("the", "council"), ("the", "parliament"),
    ("the", "commission"), ("the", "ministers"), ("the", "delegates"),
]
VERBS = ["approved", "rejected", "discussed", "supported", "examined"]
OBJECTS = [
    ("the", "new", "proposal"), ("the", "trade", "agreement"),
    ("the", "annual", "budget"), ("the", "fisheries", "policy"),
    ("the", "draft", "resolution"),
]
TAILS = [
    ("last", "week"), ("this", "morning"), ("without", "delay"),
    ("after", "the", "debate"), ("during", "the", "session"),
]
# Synonym sets over the grammar's verbs and nouns. Every verb has a mate, so
# the lexicon substitution always applies.
SUITE_SYNSETS = [
    ("approved", "supported"),
    ("rejected", "dismissed"),
    ("discussed", "examined", "debated"),
    ("committee", "council", "commission"),
    ("proposal", "resolution"),
    ("agreement", "policy"),
]


@dataclass
class Inputs:
    """What a workload hands to the program, plus the clean references."""

    corpus: list[tuple[str, ...]]
    order: int
    dp_noisy: list[tuple[str, ...]]
    dp_refs: list[tuple[str, ...]]
    fixed_noisy: list[tuple[str, ...]]
    fixed_refs: list[tuple[str, ...]]
    synsets: list[tuple[str, ...]] = field(default_factory=list)


# Tail lengths of each block of 8 held-out sentences: the grammar's own
# mix (30% no tail, 42% two words, 28% three) fixed per block, so that
# every run corrects the same sentence lengths and dp time, which grows
# with the cube of the length, does not vary with the seed's draw.
HELD_OUT_TAILS = (0, 0, 2, 2, 2, 2, 3, 3)


def grammar_sentence(rng: random.Random, tail: int | None = None) -> tuple[str, ...]:
    """One sentence; ``tail`` forces no tail (0) or a tail of 2 or 3 words."""
    words = list(rng.choice(SUBJECTS)) + [rng.choice(VERBS)] + list(rng.choice(OBJECTS))
    if tail is None:
        if rng.random() < 0.7:
            words += list(rng.choice(TAILS))
    elif tail:
        words += list(rng.choice([t for t in TAILS if len(t) == tail]))
    return tuple(words)


def held_out(rng: random.Random, n: int) -> list[tuple[str, ...]]:
    out = []
    while len(out) < n:
        block = list(HELD_OUT_TAILS)
        rng.shuffle(block)
        out += [grammar_sentence(rng, tail) for tail in block]
    return out[:n]


def typo(word: str, rng: random.Random) -> str:
    """One character inserted, deleted or substituted."""
    ops = ["insert", "substitute"] + (["delete"] if len(word) >= 2 else [])
    op = rng.choice(ops)
    if op == "insert":
        pos = rng.randrange(len(word) + 1)
        return word[:pos] + rng.choice(string.ascii_lowercase) + word[pos:]
    pos = rng.randrange(len(word))
    if op == "delete":
        return word[:pos] + word[pos + 1:]
    repl = rng.choice([c for c in string.ascii_lowercase if c != word[pos]])
    return word[:pos] + repl + word[pos + 1:]


def add_noise(sentence, rng: random.Random, synsets=()) -> tuple[str, ...]:
    """One lexicon substitution (when ``synsets`` is given and a word has a
    mate), then one adjacent swap, then one typo."""
    words = list(sentence)
    if synsets:
        mates = {w: sorted(set(s) - {w}) for s in synsets for w in s}
        slots = [i for i, w in enumerate(words) if mates.get(w)]
        if slots:
            i = rng.choice(slots)
            words[i] = rng.choice(mates[words[i]])
    i = rng.randrange(len(words) - 1)
    words[i], words[i + 1] = words[i + 1], words[i]
    i = rng.randrange(len(words))
    words[i] = typo(words[i], rng)
    return tuple(words)


def random_vocabulary(rng: random.Random, size: int, lo: int, hi: int) -> list[str]:
    seen: set[str] = set()
    out = []
    while len(out) < size:
        w = "".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(lo, hi)))
        if w not in seen:
            seen.add(w)
            out.append(w)
    return out


def suite(seed: int, n_dp: int, n_fixed: int) -> Inputs:
    rng = random.Random(seed)
    corpus = [grammar_sentence(rng) for _ in range(1000)]
    held = random.Random(seed + 1)
    dp_refs = held_out(held, n_dp)
    fixed_refs = held_out(held, n_fixed)
    noise = random.Random(seed + 2)
    return Inputs(
        corpus=corpus, order=4,
        dp_noisy=[add_noise(s, noise, SUITE_SYNSETS) for s in dp_refs], dp_refs=dp_refs,
        fixed_noisy=[add_noise(s, noise, SUITE_SYNSETS) for s in fixed_refs],
        fixed_refs=fixed_refs, synsets=SUITE_SYNSETS)


def wide(seed: int, n_dp: int, n_fixed: int) -> Inputs:
    """A uniform 4000-word vocabulary of 6-10 letters; inputs are corpus
    sentences of 10 words with one swap and one typo."""
    rng = random.Random(seed)
    vocab = random_vocabulary(rng, 4000, 6, 10)
    corpus = [tuple(rng.choice(vocab) for _ in range(rng.randint(8, 12)))
              for _ in range(3000)]
    tens = [s for s in corpus if len(s) == 10]
    pick = random.Random(seed + 1)
    dp_refs = [pick.choice(tens) for _ in range(n_dp)]
    fixed_refs = [pick.choice(tens) for _ in range(n_fixed)]
    noise = random.Random(seed + 2)
    return Inputs(
        corpus=corpus, order=3,
        dp_noisy=[add_noise(s, noise) for s in dp_refs], dp_refs=dp_refs,
        fixed_noisy=[add_noise(s, noise) for s in fixed_refs], fixed_refs=fixed_refs)


def build(seed: int, n_dp: int, n_fixed: int) -> Inputs:
    """About 12k word types: every other token walks a shuffled 12000-word
    vocabulary once, the others come from 200 frequent words. Training a
    4-gram model on it is dominated by the number of types. The correctors
    get 4-word windows of corpus sentences with one swap and one typo: a
    frequent word retrieves hundreds of docs, so a full 8-word sentence
    costs about a second of dp and a run could hold only a handful."""
    rng = random.Random(seed)
    vocab = random_vocabulary(rng, 12200, 4, 9)
    common, rare = vocab[:200], vocab[200:]
    rng.shuffle(rare)
    corpus = []
    k = 0
    for _ in range(3000):
        words = []
        for slot in range(8):
            if slot % 2 == 0:
                words.append(rare[k % len(rare)])
                k += 1
            else:
                words.append(rng.choice(common))
        corpus.append(tuple(words))
    pick = random.Random(seed + 1)

    def window():
        sent = pick.choice(corpus)
        i = pick.randrange(len(sent) - 3)
        return sent[i:i + 4]

    dp_refs = [window() for _ in range(n_dp)]
    fixed_refs = [window() for _ in range(n_fixed)]
    noise = random.Random(seed + 2)
    return Inputs(
        corpus=corpus, order=4,
        dp_noisy=[add_noise(s, noise) for s in dp_refs], dp_refs=dp_refs,
        fixed_noisy=[add_noise(s, noise) for s in fixed_refs], fixed_refs=fixed_refs)


GENERATORS = {"suite": suite, "wide": wide, "build": build}
