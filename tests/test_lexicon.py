import pytest

from phrasefix import SynonymLexicon, load_lexicon


@pytest.fixture
def lex():
    return load_lexicon("car auto\nwonder surprise\n")


def test_load_builds_mates(lex):
    assert lex.mates == {"car": {"auto"}, "auto": {"car"},
                         "wonder": {"surprise"}, "surprise": {"wonder"}}
    assert lex.share_synset("auto", "car")
    assert lex.synonyms("auto") == {"auto", "car"}


def test_polysemy_across_lines():
    lex = load_lexicon("bank shore\nbank lender\n")
    assert lex.mates["bank"] == {"shore", "lender"}
    assert lex.share_synset("bank", "shore") and lex.share_synset("bank", "lender")
    assert not lex.share_synset("shore", "lender")
    assert lex.synonyms("bank") == {"bank", "shore", "lender"}
    assert lex.synonyms("shore") == {"shore", "bank"}


def test_empty_file():
    lex = load_lexicon("\n\n")
    assert lex.mates == {}
    assert lex.synonyms("car") == {"car"}
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
    assert lex.synonyms("car") == {"car", "auto"}
    assert lex.synonyms("missing") == {"missing"}
