import random
import string

import pytest

from phrasefix import build_index, extract_phrases, train_counts

# Template grammar for desk-scale synthetic corpora. Word shapes are mostly
# long enough that fuzzy retrieval at the default threshold stays selective.
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


def synth_sentence(rng):
    words = list(rng.choice(SUBJECTS)) + [rng.choice(VERBS)] + list(rng.choice(OBJECTS))
    if rng.random() < 0.7:
        words += list(rng.choice(TAILS))
    return tuple(words)


def synth_corpus(n, seed):
    rng = random.Random(seed)
    return [synth_sentence(rng) for _ in range(n)]


def random_word(rng, lo=3, hi=7):
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(lo, hi)))


def retrieve_any(index, words, d_t):
    """Sorted docids that ``index.retrieve`` gives for any of ``words``."""
    return sorted(set().union(*(index.retrieve(w, d_t) for w in words)))


@pytest.fixture(scope="session")
def synth_lm():
    return train_counts(synth_corpus(1000, seed=7), order=4)


@pytest.fixture(scope="session")
def synth_index(synth_lm):
    return build_index(extract_phrases(synth_lm, range(2, synth_lm.order + 1)))
