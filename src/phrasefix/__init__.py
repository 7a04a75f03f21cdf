"""Monolingual noisy-sentence correction with an n-gram language model."""

from .corrector import CorrectionResult, correct_dp, correct_fixed
from .evaluation import NoiseSpec, bleu, corpus_perplexity, inject_noise, modified_precision
from .lexicon import load_lexicon
from .lm import LanguageModel, parse_arpa, serialize_arpa, tokenize, train_counts
from .phrase_index import PhraseIndex, build_index, extract_phrases, load_index, save_index
from .substituter import SubstituterConfig, find_best_subs, find_k_best_common

__all__ = [
    "CorrectionResult", "correct_dp", "correct_fixed",
    "NoiseSpec", "bleu", "corpus_perplexity", "inject_noise", "modified_precision",
    "load_lexicon",
    "LanguageModel", "parse_arpa", "serialize_arpa", "tokenize", "train_counts",
    "PhraseIndex", "build_index", "extract_phrases", "load_index", "save_index",
    "SubstituterConfig", "find_best_subs", "find_k_best_common",
]
