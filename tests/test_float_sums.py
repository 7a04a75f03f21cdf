"""Every output is the same whichever way ``sum()`` rounds floats. From
Python 3.12 the builtin adds floats with compensation, so its last bit can
differ from adding them left to right with ``+``, which is what the program
does. Each test computes an output twice, the second time with
``builtins.sum`` replaced by a compensated stand-in, on inputs where a
compensated float sum would change it."""

import builtins
import math

from phrasefix import serialize_arpa, train_counts
from phrasefix.distance import SpanScores, word_columns
from phrasefix.evaluation import bleu

from conftest import synth_corpus


def compensated_sum(items, start=0, _sum=builtins.sum):
    """``math.fsum`` when any item is a float, the builtin otherwise."""
    items = list(items)
    if any(isinstance(x, float) for x in items):
        return math.fsum([start, *items])
    return _sum(items, start)


def plain_and_compensated(monkeypatch, compute):
    """``compute()`` as it is, then with ``builtins.sum`` compensated."""
    plain = compute()
    with monkeypatch.context() as patch:
        patch.setattr(builtins, "sum", compensated_sum)
        assert sum([0.1] * 10) == 1.0  # the stand-in is in place
        compensated = compute()
    return plain, compensated


def test_trained_model(monkeypatch):
    # Witten-Bell backoffs add up each history's seen lower-order mass
    plain, compensated = plain_and_compensated(
        monkeypatch, lambda: serialize_arpa(train_counts(synth_corpus(200, seed=1), 3)))
    assert plain == compensated


def test_span_scores(monkeypatch):
    # each score adds f1's, f2's and f3's thirds: ("a", "cat", "sat") is
    # 2/9 + 2/9 + 1/3
    p = ("the", "cat", "sat")
    phrases = [("the", "cat"), ("a", "cat", "sat"), ("cat", "the", "sat"),
               ("the", "hat", "sat", "on"), ("tha", "cot"), ("sat",), ("at", "the", "cast"),
               ("sit", "cat", "the", "mat")]

    def values():
        columns = word_columns(set(p), phrases, {})
        scores = SpanScores(len(phrases))
        for word in p:
            scores.fold(columns[word])
        return scores.values(range(len(phrases)))

    plain, compensated = plain_and_compensated(monkeypatch, values)
    assert plain == compensated


def test_bleu(monkeypatch):
    # BLEU adds the logs of its four n-gram precisions
    candidates = synth_corpus(20, seed=0)
    references = [s[:2] + ("x",) + s[3:] for s in candidates]
    plain, compensated = plain_and_compensated(
        monkeypatch, lambda: bleu(candidates, references))
    assert plain == compensated
