"""Byte-identity regression: ``phrasefix train-lm`` and ``build-index`` must
keep writing the committed model and index, ``correct --algorithm dp`` the
committed JSONL, with a synonym lexicon, and ``correct --algorithm fixed``
its own committed JSONL.

The committed ``tests/data/golden_dp.jsonl`` was written by the per-span
stage-1 scorer that the per-sentence sweep replaced. Stage-1 ties are broken
on the last bit of the distance score, so any change to those floats shows
here as a changed record. The JSONL pins only the docs that reach a k-best
list; ``golden_model.arpa`` and ``golden_phrases.idx`` pin every logprob,
backoff and doc score, as the model and index were written before
``extract_phrases`` scored each n-gram from its prefix's score.

``golden_fixed.jsonl`` was written by the fixed-length baseline with
``--phrase-len 5``: of its 12 records, 10 are rewritten and 2 kept by the
guard, and its sentences need several recursive windows per phrase and
leave trailing remainders that pass through.

``golden_noise.txt`` is ``inject-noise`` with one edit of each kind per
sentence over the first 60 sentences of the acceptance gate's held-out
split, so that the noisy inputs every held-out measurement rests on stay
the same.

To write the five files again from the ``phrasefix`` on the path:

    python tests/test_dp_golden.py OUT_DIR
"""

import sys
from pathlib import Path

import pytest

from phrasefix.cli import main

from conftest import synth_corpus

DATA = Path(__file__).resolve().parent / "data"
NOISY = DATA / "golden_noisy.txt"
LEXICON = DATA / "golden_lexicon.txt"
GOLDEN = "golden_dp.jsonl"
GOLDEN_MODEL = "golden_model.arpa"
GOLDEN_INDEX = "golden_phrases.idx"
GOLDEN_FIXED = "golden_fixed.jsonl"
GOLDEN_NOISE = "golden_noise.txt"


def correct_golden(tmp: Path, lexicon: Path = LEXICON) -> dict[str, bytes]:
    """Train an order-3 LM on the conftest grammar into ``tmp / GOLDEN_MODEL``,
    index it into ``tmp / GOLDEN_INDEX``, and correct the noisy fixture
    sentences into ``tmp / GOLDEN`` (dp) and ``tmp / GOLDEN_FIXED`` (fixed);
    the four files' bytes by name."""
    corpus = tmp / "corpus.txt"
    corpus.write_text("".join(" ".join(s) + "\n" for s in synth_corpus(300, seed=11)),
                      encoding="utf-8")
    arpa, idx, path, fixed = (tmp / GOLDEN_MODEL, tmp / GOLDEN_INDEX, tmp / GOLDEN,
                              tmp / GOLDEN_FIXED)
    assert main(["train-lm", "--corpus", str(corpus), "--order", "3", "--out", str(arpa)]) == 0
    assert main(["build-index", "--lm", str(arpa), "--out", str(idx)]) == 0
    assert main(["correct", "--in", str(NOISY), "--lm", str(arpa), "--index", str(idx),
                 "--lexicon", str(lexicon), "--algorithm", "dp",
                 "--k", "5", "--t-pool", "40", "--d-t", "3", "--out", str(path)]) == 0
    assert main(["correct", "--in", str(NOISY), "--lm", str(arpa), "--index", str(idx),
                 "--algorithm", "fixed", "--phrase-len", "5", "--out", str(fixed)]) == 0
    return {p.name: p.read_bytes() for p in (arpa, idx, path, fixed)}


def inject_golden(tmp: Path) -> dict[str, bytes]:
    """Inject seeded noise with the fixture lexicon into
    ``synth_corpus(60, seed=41)``, written to ``tmp / GOLDEN_NOISE``; its
    bytes by name."""
    clean, noisy = tmp / "clean.txt", tmp / GOLDEN_NOISE
    clean.write_text("".join(" ".join(s) + "\n" for s in synth_corpus(60, seed=41)),
                     encoding="utf-8")
    assert main(["inject-noise", "--in", str(clean), "--seed", "42", "--swaps", "1",
                 "--deletions", "1", "--substitutions", "1", "--typos", "1",
                 "--lexicon", str(LEXICON), "--out", str(noisy)]) == 0
    return {noisy.name: noisy.read_bytes()}


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    return correct_golden(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def produced_styled(tmp_path_factory):
    """The same run with the lexicon's words capitalized and comma-separated,
    which ``load_lexicon`` tokenizes back to the fixture's synsets."""
    tmp = tmp_path_factory.mktemp("styled")
    lexicon = tmp / "lexicon.txt"
    lexicon.write_text("".join(", ".join(w.capitalize() for w in line.split()) + "\n"
                               for line in LEXICON.read_text(encoding="utf-8").splitlines()),
                       encoding="utf-8")
    return correct_golden(tmp, lexicon)


def test_dp_jsonl_is_byte_identical(produced):
    expected = (DATA / GOLDEN).read_bytes()
    assert expected.count(b"\n") == len(NOISY.read_text(encoding="utf-8").splitlines())
    assert produced[GOLDEN] == expected


def test_styled_lexicon_gives_the_same_jsonl(produced_styled):
    assert produced_styled[GOLDEN] == (DATA / GOLDEN).read_bytes()


def test_fixed_jsonl_is_byte_identical(produced):
    expected = (DATA / GOLDEN_FIXED).read_bytes()
    assert expected.count(b"\n") == len(NOISY.read_text(encoding="utf-8").splitlines())
    assert produced[GOLDEN_FIXED] == expected


@pytest.mark.parametrize("name", [GOLDEN_MODEL, GOLDEN_INDEX])
def test_offline_output_is_byte_identical(produced, name):
    assert produced[name] == (DATA / name).read_bytes()


def test_noise_is_byte_identical(tmp_path):
    assert inject_golden(tmp_path)[GOLDEN_NOISE] == (DATA / GOLDEN_NOISE).read_bytes()


if __name__ == "__main__":
    target = Path(sys.argv[1])
    target.mkdir(parents=True, exist_ok=True)
    for name, data in {**correct_golden(target), **inject_golden(target)}.items():
        print(f"{name}: {len(data)} bytes")
