"""N-gram language models: ARPA parsing/serialization, Witten-Bell training,
backoff scoring and perplexity."""

from __future__ import annotations

import math
import re
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Iterable

LOG10_2 = math.log10(2.0)
DEFAULT_OOV_LOGPROB = -99.0

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
    tokens: tuple[str, ...]
    logprob: float  # log10, <= 0 for trained models
    backoff: float = 0.0  # log10 backoff weight, 0 when absent


class LanguageModel:
    """Immutable n-gram model scored in log10 space with backoff.

    ``tables`` maps each n-gram length to a dict from token tuple to
    NgramEntry. Unknown unigrams score ``oov_logprob``.
    """

    def __init__(self, order: int, tables: dict[int, dict[tuple[str, ...], NgramEntry]],
                 oov_logprob: float = DEFAULT_OOV_LOGPROB):
        if order < 1:
            raise ValueError("model order must be >= 1")
        self.order = order
        self.tables = tables
        self.vocabulary = frozenset(g[0] for g in tables.get(1, {}))
        self.oov_logprob = oov_logprob

    def score_word(self, word: str, history: Iterable[str] = ()) -> float:
        """log10 P(word | history), backing off to shorter histories."""
        hist = tuple(history)
        if self.order > 1:
            hist = hist[-(self.order - 1):]
        else:
            hist = ()
        penalty = 0.0
        while True:
            entry = self.tables.get(len(hist) + 1, {}).get(hist + (word,))
            if entry is not None:
                return penalty + entry.logprob
            if not hist:
                return penalty + self.oov_logprob
            ctx = self.tables.get(len(hist), {}).get(hist)
            if ctx is not None:
                penalty += ctx.backoff
            hist = hist[1:]

    def score_sequence(self, tokens: Iterable[str]) -> float:
        """Total log10 probability; no boundary tokens are added."""
        seq = tuple(tokens)
        if not seq:
            raise ValueError("cannot score an empty sequence")
        total = 0.0
        for j in range(len(seq)):
            total += self.score_word(seq[j], seq[max(0, j - self.order + 1):j])
        return total

    def perplexity(self, tokens: Iterable[str]) -> float:
        """2**LP where LP averages -log2 P(S_i | full history) over the
        positions with a complete (order-1)-word history."""
        seq = tuple(tokens)
        length = len(seq)
        if length < self.order:
            raise ValueError(f"sequence of length {length} is shorter than model order {self.order}")
        lp = 0.0
        for i in range(self.order - 1, length):
            lp -= self.score_word(seq[i], seq[i - self.order + 1:i]) / LOG10_2
        return 2.0 ** (lp / (length - self.order + 1))


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
            try:
                logprob = float(fields[0])
            except ValueError:
                raise ArpaParseError(f"non-numeric logprob {fields[0]!r}", idx + 1) from None
            grams = tuple(fields[1:n + 1])
            backoff = 0.0
            if len(fields) == n + 2:
                try:
                    backoff = float(fields[-1])
                except ValueError:
                    raise ArpaParseError(f"non-numeric backoff {fields[-1]!r}", idx + 1) from None
            table[grams] = NgramEntry(grams, logprob, backoff)
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


def train_counts(corpus: Iterable[Iterable[str]], order: int,
                 smoothing: str = "witten-bell") -> LanguageModel:
    """Train an n-gram model with Witten-Bell discounting.

    For each history h, seen words get P(w|h) = c(h,w) / (c(h) + T(h)) where
    T(h) is the number of distinct continuations of h; the held-out mass
    T(h) / (c(h) + T(h)) is redistributed through the backoff weights.
    """
    if smoothing != "witten-bell":
        raise ValueError(f"unsupported smoothing {smoothing!r}")
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
            table[gram] = NgramEntry(gram, math.log10(c / mass[gram[:-1]]), backoff)
        tables[n] = table
    return LanguageModel(order, tables)
