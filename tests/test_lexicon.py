import pytest

from phrasefix import SynonymLexicon, load_lexicon, tokenize


@pytest.fixture
def lex():
    return load_lexicon("car auto\nwonder surprise\n")


def test_load_builds_mates(lex):
    assert lex.mates == {"car": {"auto"}, "auto": {"car"},
                         "wonder": {"surprise"}, "surprise": {"wonder"}}
    assert lex.share_synset("auto", "car")
    assert lex.mates["auto"] == {"car"}


def test_polysemy_across_lines():
    lex = load_lexicon("bank shore\nbank lender\n")
    assert lex.mates["bank"] == {"shore", "lender"}
    assert lex.share_synset("bank", "shore") and lex.share_synset("bank", "lender")
    assert not lex.share_synset("shore", "lender")
    assert lex.mates["shore"] == {"bank"}


def test_empty_file():
    lex = load_lexicon("\n\n")
    assert lex.mates == {}
    assert lex.share_synset("car", "car")
    assert not lex.share_synset("car", "auto")


def test_share_synset(lex):
    assert lex.share_synset("wonder", "surprise")
    assert not lex.share_synset("car", "wonder")


def test_identity_counts_even_with_empty_lexicon():
    assert SynonymLexicon().share_synset("cat", "cat")


def test_symmetry_and_reflexivity(lex):
    words = ["car", "auto", "wonder", "surprise", "unknown"]
    for w1 in words:
        assert lex.share_synset(w1, w1)
        for w2 in words:
            assert lex.share_synset(w1, w2) == lex.share_synset(w2, w1)


def test_mates_are_symmetric():
    lex = load_lexicon("car auto\nbank shore\nbank lender\nwonder surprise marvel\n")
    for word, mates in lex.mates.items():
        assert word not in mates
        for mate in mates:
            assert word in lex.mates[mate]


def test_synonyms_include_self(lex):
    # a word is not its own mate, but it shares a synset with itself
    assert lex.mates["car"] == {"auto"}
    assert lex.share_synset("car", "car") and lex.share_synset("car", "auto")
    assert "missing" not in lex.mates and lex.share_synset("missing", "missing")


def test_lines_are_tokenized_as_input_text():
    lex = load_lexicon("Alpha Omega\nbeta, gamma\n")
    assert lex.mates == {"alpha": {"omega"}, "omega": {"alpha"},
                         "beta": {"gamma"}, "gamma": {"beta"}}
    assert lex.share_synset(*tokenize("Alpha omega"))
    assert load_lexicon("Approved, Supported\n").share_synset("approved", "supported")
