"""Tests of the benchmark's own checkers and arithmetic.

    python3 -m pytest perfbench/test_checkers.py -q
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import spans  # noqa: E402

TINY = """\\data\\
ngram 1=3
ngram 2=3
ngram 3=1

\\1-grams:
-0.5\ta\t-0.3
-0.6\tb\t-0.2
-0.9\tc

\\2-grams:
-0.1\ta b\t-0.7
-0.4\tb c
-0.8\tc a

\\3-grams:
-0.05\ta b c

\\end\\
"""


@pytest.mark.parametrize("tokens, expected", [
    (("a", "b", "c"), -0.5 - 0.1 - 0.05),       # every n-gram stored
    (("b", "a"), -0.6 + (-0.2 - 0.5)),          # backoff(b) + P(a)
    (("c", "a", "b"), -0.9 - 0.8 - 0.1),        # trigram "c a b" absent, no backoff on "c a"
    (("a", "b", "a"), -0.5 - 0.1 + (-0.7 + (-0.2 - 0.5))),  # two backoff steps
    (("a", "z"), -0.5 + (-0.3 - 99.0)),         # unknown word
])
def test_arpa_scorer_hand_computed(tokens, expected):
    model = checks.Arpa(TINY)
    assert model.order == 3
    assert model.declared == {1: 3, 2: 3, 3: 1}
    assert model.score(tokens) == pytest.approx(expected, abs=1e-12)


def test_check_record_flags_a_wrong_score():
    model = checks.Arpa(TINY)
    good = {"original": "a b c", "corrected": "a b c", "score_before": -0.65,
            "score_after": -0.65, "kbest": [{"phrase": "a b c", "score": -0.65}]}
    assert checks.check_record(good, "A, b c!", model, "dp", frozenset("abc")) == []
    bad = dict(good, score_after=-0.6, kbest=[{"phrase": "a b c", "score": -0.6}])
    assert any("score_after" in e for e in
               checks.check_record(bad, "a b c", model, "dp", frozenset("abc")))


def test_ref_recall_worked_example():
    outputs = [("the", "the", "cat"), ("dog",)]
    refs = [("the", "cat", "sat"), ("a", "dog")]
    # "the" is clipped to its one reference occurrence: (1 + 1) + 1 of 3 + 2.
    assert checks.ref_recall(outputs, refs) == pytest.approx(3 / 5)


def test_self_times_on_a_span_tree():
    tree = [
        ["cli", 0.0, 10.0, -1, -1],
        ["a", 1.0, 4.0, 0, 0],
        ["a.inner", 2.0, 3.0, 1, 0],
        ["b", 5.0, 9.0, 0, 1],
    ]
    samples = [(6.0, 6.5, 3)]  # the sampler interrupted span "b"
    own = spans.self_times(tree, samples)
    assert own == pytest.approx([3.0, 2.0, 1.0, 3.5])
    assert sum(own) + 0.5 == pytest.approx(10.0)
    assert spans.root_of(tree) == [0, 0, 0, 0]


def test_normalized_takes_out_sampler_time_and_host_speed():
    nominal = hostspeed.NOMINAL_REF_S
    # A host running at half speed: every kernel sample takes twice nominal.
    samples = [(t, t + 2 * nominal, -1) for t in (0.0, 0.5, 1.0)]
    # Two samples fall inside [0.25, 1.25]; the program ran for the rest.
    assert hostspeed.busy_inside(samples, 0.25, 1.25) == pytest.approx(4 * nominal)
    assert hostspeed.normalized(samples, 0.25, 1.25) == pytest.approx((1.0 - 4 * nominal) / 2)
