"""N-gram language models: ARPA parsing/serialization, Witten-Bell training
and backoff scoring."""

from __future__ import annotations

import math
import re
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Iterable

# log10 probability of a word the model has no unigram for
OOV_LOGPROB = -99.0

_NON_WORD = re.compile(r"[^\w\s]+")


def tokenize(line: str) -> tuple[str, ...]:
    """Lowercase, replace punctuation with spaces, split on whitespace."""
    return tuple(_NON_WORD.sub(" ", line.lower()).split())


class ArpaParseError(ValueError):
    """Malformed ARPA input; the message names the offending line."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class NgramEntry:
    logprob: float  # log10, <= 0 for trained models
    backoff: float = 0.0  # log10 backoff weight, 0 when absent


class LanguageModel:
    """Immutable n-gram model scored in log10 space with backoff.

    ``tables`` maps each n-gram length to a dict from token tuple to
    NgramEntry. Unknown unigrams score ``OOV_LOGPROB``.
    """

    def __init__(self, order: int, tables: dict[int, dict[tuple[str, ...], NgramEntry]]):
        if order < 1:
            raise ValueError("model order must be >= 1")
        self.order = order
        self.tables = tables

    def score_word(self, word: str, history: Iterable[str] = ()) -> float:
        """log10 P(word | history), backing off to shorter histories."""
        hist = tuple(history)[1 - self.order:] if self.order > 1 else ()
        return self._score_gram(hist + (word,))

    def _score_gram(self, gram: tuple[str, ...]) -> float:
        """log10 P(gram[-1] | gram[:-1]) for a gram of at most ``order`` words."""
        tables = self.tables
        penalty = 0.0
        while True:
            n = len(gram)
            entry = tables.get(n, {}).get(gram)
            if entry is not None:
                return penalty + entry.logprob
            if n == 1:
                return penalty + OOV_LOGPROB
            ctx = tables.get(n - 1, {}).get(gram[:-1])
            if ctx is not None:
                penalty += ctx.backoff
            gram = gram[1:]

    def score_sequence(self, tokens: Iterable[str]) -> float:
        """Total log10 probability; no boundary tokens are added."""
        seq = tuple(tokens)
        if not seq:
            raise ValueError("cannot score an empty sequence")
        order = self.order
        score_gram = self._score_gram
        total = 0.0
        for j in range(1, len(seq) + 1):
            total += score_gram(seq[j - order if j > order else 0:j])
        return total


def _finite(field: str, what: str, line_no: int) -> float:
    try:
        value = float(field)
    except ValueError:
        raise ArpaParseError(f"non-numeric {what} {field!r}", line_no) from None
    if not math.isfinite(value):
        raise ArpaParseError(f"non-finite {what} {field!r}", line_no)
    return value


def parse_arpa(text) -> LanguageModel:
    """Parse an ARPA stream (string or iterable of lines) into a LanguageModel."""
    if isinstance(text, str):
        lines = text.splitlines()
    else:
        lines = [ln.rstrip("\n") for ln in text]

    declared: dict[int, int] = {}
    tables: dict[int, dict[tuple[str, ...], NgramEntry]] = {}
    idx = 0
    n_lines = len(lines)

    while idx < n_lines and lines[idx].strip() != "\\data\\":
        idx += 1
    if idx >= n_lines:
        raise ArpaParseError("missing \\data\\ header", n_lines)
    idx += 1

    while idx < n_lines:
        line = lines[idx].strip()
        if not line:
            idx += 1
            continue
        m = re.fullmatch(r"ngram\s+(\d+)\s*=\s*(\d+)", line)
        if m is None:
            break
        declared[int(m.group(1))] = int(m.group(2))
        idx += 1
    if not declared:
        raise ArpaParseError("no ngram count declarations after \\data\\", idx + 1)

    order = max(declared)
    expected_sections = sorted(declared)
    section_pos = 0
    saw_end = False

    while idx < n_lines:
        line = lines[idx].strip()
        if not line:
            idx += 1
            continue
        if line == "\\end\\":
            saw_end = True
            idx += 1
            break
        m = re.fullmatch(r"\\(\d+)-grams:", line)
        if m is None:
            raise ArpaParseError(f"unexpected content {line!r}", idx + 1)
        n = int(m.group(1))
        if section_pos >= len(expected_sections) or n != expected_sections[section_pos]:
            raise ArpaParseError(f"{n}-gram section out of sequence", idx + 1)
        section_pos += 1
        idx += 1
        table: dict[tuple[str, ...], NgramEntry] = {}
        while idx < n_lines:
            entry_line = lines[idx].strip()
            if not entry_line:
                idx += 1
                continue
            if entry_line.startswith("\\"):
                break
            fields = entry_line.split()
            if len(fields) not in (n + 1, n + 2):
                raise ArpaParseError(f"expected {n}-gram entry, got {entry_line!r}", idx + 1)
            logprob = _finite(fields[0], "logprob", idx + 1)
            backoff = _finite(fields[-1], "backoff", idx + 1) if len(fields) == n + 2 else 0.0
            table[tuple(fields[1:n + 1])] = NgramEntry(logprob, backoff)
            idx += 1
        if len(table) != declared[n]:
            raise ArpaParseError(
                f"declared {declared[n]} {n}-grams but parsed {len(table)}", idx)
        tables[n] = table

    if not saw_end:
        raise ArpaParseError("missing \\end\\ marker", n_lines)
    if section_pos != len(expected_sections):
        missing = expected_sections[section_pos]
        raise ArpaParseError(f"missing \\{missing}-grams: section", n_lines)
    return LanguageModel(order, tables)


def serialize_arpa(lm: LanguageModel) -> str:
    """Emit the model in ARPA layout, tab-separated, orders ascending."""
    out = ["\\data\\"]
    orders = sorted(lm.tables)
    for n in orders:
        out.append(f"ngram {n}={len(lm.tables[n])}")
    out.append("")
    for n in orders:
        out.append(f"\\{n}-grams:")
        for gram in sorted(lm.tables[n]):
            entry = lm.tables[n][gram]
            line = f"{entry.logprob!r}\t" + " ".join(gram)
            if n < lm.order:
                line += f"\t{entry.backoff!r}"
            out.append(line)
        out.append("")
    out.append("\\end\\")
    return "\n".join(out) + "\n"


def train_counts(corpus: Iterable[Iterable[str]], order: int) -> LanguageModel:
    """Train an n-gram model with Witten-Bell discounting.

    For each history h, seen words get P(w|h) = c(h,w) / (c(h) + T(h)) where
    T(h) is the number of distinct continuations of h; the held-out mass
    T(h) / (c(h) + T(h)) is redistributed through the backoff weight of h.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    sentences = [tuple(s) for s in corpus if tuple(s)]
    if not sentences:
        raise ValueError("empty corpus")

    counts: dict[int, Counter] = {n: Counter() for n in range(1, order + 1)}
    for sent in sentences:
        for n in range(1, order + 1):
            for i in range(len(sent) - n + 1):
                counts[n][sent[i:i + n]] += 1

    followers: dict[tuple[str, ...], Counter] = defaultdict(Counter)
    for n in range(1, order + 1):
        for gram, c in counts[n].items():
            followers[gram[:-1]][gram[-1]] += c

    # c(h) + T(h) per history h: P(w|h) = c(h,w) / mass[h]
    mass = {h: sum(ctx.values()) + len(ctx) for h, ctx in followers.items()}

    tables: dict[int, dict[tuple[str, ...], NgramEntry]] = {}
    for n in range(1, order + 1):
        table = {}
        for gram, c in counts[n].items():
            backoff = 0.0
            if n < order and gram in followers:
                ctx = followers[gram]
                held_out = len(ctx) / mass[gram]
                lower = gram[1:]
                seen_lower = sum(counts[n][lower + (w,)] / mass[lower] for w in ctx)
                backoff = math.log10(held_out / (1.0 - seen_lower))
            table[gram] = NgramEntry(math.log10(c / mass[gram[:-1]]), backoff)
        tables[n] = table
    return LanguageModel(order, tables)
