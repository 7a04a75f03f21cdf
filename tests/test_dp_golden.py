"""Byte-identity regression: ``phrasefix correct --algorithm dp`` must keep
writing the committed JSONL, for modes A-D, with a synonym lexicon.

The committed ``tests/data/golden_dp_<mode>.jsonl`` files were written by
the per-span stage-1 scorer that the per-sentence sweep replaced. Stage-1
ties are broken on the last bit of the distance score, so any change to
those floats shows here as a changed record.

To write the files again from the ``phrasefix`` on the path:

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


def correct_modes(tmp: Path) -> dict[str, bytes]:
    """Train an order-3 LM on the conftest grammar, index it, and correct
    the noisy fixture sentences once per mode."""
    corpus = tmp / "corpus.txt"
    corpus.write_text("".join(" ".join(s) + "\n" for s in synth_corpus(300, seed=11)),
                      encoding="utf-8")
    arpa, idx = tmp / "model.arpa", tmp / "phrases.idx"
    assert main(["train-lm", "--corpus", str(corpus), "--order", "3", "--out", str(arpa)]) == 0
    assert main(["build-index", "--lm", str(arpa), "--out", str(idx)]) == 0
    out = {}
    for mode in "ABCD":
        path = tmp / f"golden_dp_{mode}.jsonl"
        assert main(["correct", "--in", str(NOISY), "--lm", str(arpa), "--index", str(idx),
                     "--lexicon", str(LEXICON), "--algorithm", "dp", "--mode", mode,
                     "--k", "5", "--t-pool", "40", "--d-t", "3", "--out", str(path)]) == 0
        out[mode] = path.read_bytes()
    return out


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    return correct_modes(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("mode", "ABCD")
def test_dp_jsonl_is_byte_identical(produced, mode):
    expected = (DATA / f"golden_dp_{mode}.jsonl").read_bytes()
    assert expected.count(b"\n") == len(NOISY.read_text(encoding="utf-8").splitlines())
    assert produced[mode] == expected


if __name__ == "__main__":
    target = Path(sys.argv[1])
    target.mkdir(parents=True, exist_ok=True)
    for mode, data in correct_modes(target).items():
        print(f"golden_dp_{mode}.jsonl: {len(data)} bytes")
