import re

import pytest

from phrasefix import load_lexicon, tokenize
from phrasefix.distance import word_columns


@pytest.fixture
def lex():
    return load_lexicon("car auto\nwonder surprise\n")


def matches(lexicon, w1, w2):
    """Whether stage 1 counts ``w2`` as a synset match of ``w1``: whether
    the one-word phrase ``w2`` is among the mate slots of ``w1``'s column."""
    _, mates, _ = word_columns((w1,), [(w2,)], lexicon)[w1]
    return 0 in mates


def test_load_builds_mates(lex):
    assert lex == {"car": {"auto"}, "auto": {"car"},
                   "wonder": {"surprise"}, "surprise": {"wonder"}}
    assert all(isinstance(mates, frozenset) for mates in lex.values())


def test_polysemy_across_lines():
    lex = load_lexicon("bank shore\nbank lender\n")
    assert lex["bank"] == {"shore", "lender"}
    assert "lender" not in lex["shore"]
    assert lex["shore"] == {"bank"}


def test_empty_file():
    lex = load_lexicon("\n\n")
    assert lex == {}
    assert matches(lex, "car", "car")
    assert not matches(lex, "car", "auto")


def test_share_synset(lex):
    assert "surprise" in lex["wonder"]
    assert "wonder" not in lex["car"]


def test_identity_counts_even_with_empty_lexicon():
    assert matches({}, "cat", "cat")


def test_symmetry_and_reflexivity(lex):
    words = ["car", "auto", "wonder", "surprise", "unknown"]
    for w1 in words:
        assert matches(lex, w1, w1)
        for w2 in words:
            assert matches(lex, w1, w2) == matches(lex, w2, w1)


def test_mates_are_symmetric():
    lex = load_lexicon("car auto\nbank shore\nbank lender\nwonder surprise marvel\n")
    for word, mates in lex.items():
        assert word not in mates
        for mate in mates:
            assert word in lex[mate]


def test_synonyms_include_self(lex):
    # a word is not its own mate, but it shares a synset with itself
    assert lex["car"] == {"auto"}
    assert matches(lex, "car", "car") and matches(lex, "car", "auto")
    assert "missing" not in lex and matches(lex, "missing", "missing")


def test_lines_are_tokenized_as_input_text():
    lex = load_lexicon("Alpha Omega\nbeta, gamma\n")
    assert lex == {"alpha": {"omega"}, "omega": {"alpha"},
                   "beta": {"gamma"}, "gamma": {"beta"}}
    assert matches(lex, *tokenize("Alpha omega"))
    assert load_lexicon("Approved, Supported\n") == {"approved": {"supported"},
                                                      "supported": {"approved"}}


@pytest.mark.parametrize("field", ["well-known", "don't", "a/b"])
def test_a_field_of_several_words_names_its_line(field):
    # read as one synset, "well" would become a mate of "famous"
    with pytest.raises(ValueError, match=f"^line 2: {re.escape(repr(field))} is 2 words"):
        load_lexicon(f"car auto\n{field} famous\n")


def test_a_field_without_a_word_is_skipped():
    assert load_lexicon("car , auto --\n") == {"car": {"auto"}, "auto": {"car"}}
