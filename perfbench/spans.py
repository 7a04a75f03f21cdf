"""Spans and counters recorded from outside the program.

``Tracer.install`` wraps public functions where their callers look them up:
module attributes that the calling module bound at import (patching
``phrasefix.distance.combined_score`` would record nothing, because
``substituter`` holds its own reference), module attributes that the CLI
reaches through the module, and class methods. Spans are kept in memory as
``[name, start, end, parent, sentence]`` and written out at the end; the
per-layer numbers are computed from them afterwards by ``self_times``.
"""

from __future__ import annotations

import time
from collections import defaultdict

# (module, attribute, span name); each is patched on the module that calls it.
MODULE_SPANS = [
    ("phrasefix.corrector", "find_best_sub", "substituter.find_best_sub"),
    ("phrasefix.corrector", "cross_concat", "corrector.cross_concat"),
    ("phrasefix.corrector", "find_k_best_common", "substituter.find_k_best_common"),
    ("phrasefix.substituter", "combined_score", "distance.combined_score"),
    ("phrasefix.cli", "correct_dp", "corrector.correct_dp"),
    ("phrasefix.cli", "correct_fixed", "corrector.correct_fixed"),
    ("phrasefix.lm", "train_counts", "lm.train_counts"),
    ("phrasefix.lm", "serialize_arpa", "lm.serialize_arpa"),
    ("phrasefix.lm", "parse_arpa", "lm.parse_arpa"),
    ("phrasefix.phrase_index", "extract_phrases", "phrase_index.extract_phrases"),
    ("phrasefix.phrase_index", "build_index", "phrase_index.build_index"),
    ("phrasefix.phrase_index", "save_index", "phrase_index.save_index"),
    ("phrasefix.phrase_index", "load_index", "phrase_index.load_index"),
]
# (module, class, method, span name or None for a call count only)
METHOD_SPANS = [
    ("phrasefix.lm", "LanguageModel", "score_sequence", "lm.score_sequence"),
    ("phrasefix.phrase_index", "PhraseIndex", "retrieve", "phrase_index.retrieve"),
    ("phrasefix.phrase_index", "PhraseIndex", "expand_query_word", None),
    ("phrasefix.phrase_index", "TrieDictionary", "fuzzy_lookup", "phrase_index.fuzzy_lookup"),
    ("phrasefix.lexicon", "SynonymLexicon", "share_synset", None),
]
ROOT = "cli"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.sentence = -1
        self.missing: list[str] = []

    def current(self) -> int:
        return self.stack[-1] if self.stack else -1

    def call(self, name: str, fn, *args, **kwargs):
        idx = len(self.spans)
        record = [name, 0.0, 0.0, self.current(), self.sentence]
        self.spans.append(record)
        self.stack.append(idx)
        record[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self.stack.pop()

    def _wrap(self, name, fn):
        hooks = {
            "corrector.correct_dp": self._on_sentence,
            "corrector.correct_fixed": self._on_sentence,
            "substituter.find_best_sub": self._on_find_best_sub,
        }
        if name in hooks:
            return hooks[name](name, fn)
        if name == "phrase_index.retrieve":
            def retrieve(*args, **kwargs):
                out = self.call(name, fn, *args, **kwargs)
                self.counts["phrase_index.retrieve.docs"] += len(out)
                return out
            return retrieve
        if name == "distance.combined_score":
            from phrasefix.distance import REJECT

            def combined_score(*args, **kwargs):
                out = self.call(name, fn, *args, **kwargs)
                if out is not REJECT:
                    self.counts["distance.combined_score.accepted"] += 1
                return out
            return combined_score
        return lambda *args, **kwargs: self.call(name, fn, *args, **kwargs)

    def _on_sentence(self, name, fn):
        def correct(*args, **kwargs):
            self.sentence += 1
            out = self.call(name, fn, *args, **kwargs)
            for key in ("sub_calls", "split_evals"):
                if key in out.stats:
                    self.counts[f"corrector.{key}"] += out.stats[key]
            return out
        return correct

    def _on_find_best_sub(self, name, fn):
        def find_best_sub(index, lm, lexicon, phrase, config, *args, **kwargs):
            docs0 = self.counts["phrase_index.retrieve.docs"]
            kept0 = self.counts["distance.combined_score.accepted"]
            out = self.call(name, fn, index, lm, lexicon, phrase, config, *args, **kwargs)
            self.counts["substituter.pool.retrieved"] += self.counts["phrase_index.retrieve.docs"] - docs0
            self.counts["substituter.pool.kept"] += min(
                config.t_pool, self.counts["distance.combined_score.accepted"] - kept0)
            return out
        return find_best_sub

    def _counter(self, key, fn):
        def counted(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self):
        """Patch the program in this process. A function that is gone is
        listed in ``missing`` and its metrics read 0."""
        import importlib

        for mod_name, attr, name in MODULE_SPANS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr, None)
            if fn is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            setattr(mod, attr, self._wrap(name, fn))
        for mod_name, cls_name, method, name in METHOD_SPANS:
            cls = getattr(importlib.import_module(mod_name), cls_name, None)
            fn = getattr(cls, method, None) if cls is not None else None
            if fn is None:
                self.missing.append(f"{mod_name}.{cls_name}.{method}")
                continue
            if name is None:
                setattr(cls, method, self._counter(f"{cls_name}.{method}.calls", fn))
            else:
                setattr(cls, method, self._wrap(name, fn))
        from phrasefix import phrase_index

        union = getattr(phrase_index, "union_postings", None)
        if union is None:
            self.missing.append("phrasefix.phrase_index.union_postings")
        else:
            def union_postings(lists, counter=None):
                own = counter if counter is not None else phrase_index.MergeCounter()
                before = own.comparisons
                out = union(lists, own)
                self.counts["phrase_index.union.comparisons"] += own.comparisons - before
                return out
            phrase_index.union_postings = union_postings


def self_times(spans, samples=()):
    """Per-span self time: duration minus the child spans' durations minus
    the sampler time that interrupted the span itself.

    ``spans`` are ``[name, start, end, parent, sentence]``; ``samples`` are
    ``(start, end, span)`` as recorded by ``hostspeed.Sampler``.
    """
    own = [s[2] - s[1] for s in spans]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    for s0, s1, span in samples:
        if span >= 0:
            own[span] -= s1 - s0
    return own


def root_of(spans) -> list[int]:
    """Index of the root span of every span (parents precede children)."""
    roots = []
    for i, s in enumerate(spans):
        roots.append(i if s[3] < 0 else roots[s[3]])
    return roots
