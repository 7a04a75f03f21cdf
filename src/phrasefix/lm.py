"""N-gram language models: ARPA parsing/serialization, Witten-Bell training
and backoff scoring."""

from __future__ import annotations

import math
import re
from collections import Counter
from typing import Iterable

# log10 probability of a word the model has no unigram for
OOV_LOGPROB = -99.0

_NON_WORD = re.compile(r"[^\w\s]+")


def tokenize(line: str) -> tuple[str, ...]:
    """Lowercase, replace punctuation with spaces, split on whitespace."""
    return tuple(_NON_WORD.sub(" ", line.lower()).split())


class LanguageModel:
    """Immutable n-gram model scored in log10 space with backoff.

    ``tables`` maps each n-gram length, up to the order, to a dict from token
    tuple to a ``(logprob, backoff)`` pair. Both are log10; the logprob is
    <= 0 for trained models, and the backoff is 0.0 when the file gives
    none. Unknown unigrams score ``OOV_LOGPROB``. The model holds a table
    for every length 1..order: a length the caller left out has no n-grams.
    """

    def __init__(self, tables: dict[int, dict[tuple[str, ...], tuple[float, float]]]):
        self.order = max(tables, default=0)
        if self.order < 1:
            raise ValueError("model order must be >= 1")
        self.tables = {n: tables.get(n, {}) for n in range(1, self.order + 1)}

    def _score_gram(self, gram: tuple[str, ...]) -> float:
        """log10 P(gram[-1] | gram[:-1]) for a gram of at most ``order`` words."""
        tables = self.tables
        penalty = 0.0
        while True:
            n = len(gram)
            entry = tables[n].get(gram)
            if entry is not None:
                return penalty + entry[0]
            if n == 1:
                return penalty + OOV_LOGPROB
            ctx = tables[n - 1].get(gram[:-1])
            if ctx is not None:
                penalty += ctx[1]
            gram = gram[1:]

    def score_sequence(self, tokens: Iterable[str], start: int = 0,
                       total: float = 0.0) -> float:
        """Total log10 probability; no boundary tokens are added. Given the
        score ``total`` of ``tokens[:start]``, the words from ``start`` on
        are added to it left to right, the float the whole sequence scores."""
        seq = tuple(tokens)
        if not 0 <= start < len(seq):
            raise ValueError(f"start {start} outside a {len(seq)}-word sequence")
        order = self.order
        score_gram = self._score_gram
        for j in range(start + 1, len(seq) + 1):
            total += score_gram(seq[j - order if j > order else 0:j])
        return total


def _finite(field: str, what: str, line_no: int) -> float:
    try:
        value = float(field)
    except ValueError:
        raise ValueError(f"line {line_no}: non-numeric {what} {field!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"line {line_no}: non-finite {what} {field!r}")
    return value


def parse_arpa(text) -> LanguageModel:
    """Parse an ARPA stream (a string, or an iterable of lines such as an open
    file) into a LanguageModel, in one pass that keeps no line.

    ``n`` is None before ``\\data\\`` and 0 among the count declarations,
    of which the k-th must declare order k.
    From the first section header on, ``tables`` is not empty, ``n`` is the
    order of the section being read, and its entries are the lines that do
    not start with a backslash. Every error is a ``ValueError`` that names
    its line, ``line N: ...``: a repeated entry its second line, a missing
    section the ``\\end\\`` line.
    """
    declared: dict[int, int] = {}
    tables: dict[int, dict[tuple[str, ...], tuple[float, float]]] = {}
    n = None
    line_no = 0

    def end_section(at):
        if tables and len(table) != declared[n]:
            raise ValueError(f"line {at}: declared {declared[n]} {n}-grams "
                             f"but parsed {len(table)}")

    for line_no, line in enumerate(text.splitlines() if isinstance(text, str) else text, 1):
        line = line.strip()
        if tables and line and line[0] != "\\":
            fields = line.split()
            if len(fields) not in (n + 1, n + 2):
                raise ValueError(f"line {line_no}: expected {n}-gram entry, got {line!r}")
            try:
                logprob = float(fields[0])
                backoff = float(fields[-1]) if len(fields) == n + 2 else 0.0
                if not math.isfinite(logprob + backoff):
                    raise ValueError
            except ValueError:
                # a value is not a finite float (or two finite ones sum past
                # the largest): ``_finite`` names the first bad one
                logprob = _finite(fields[0], "logprob", line_no)
                backoff = _finite(fields[-1], "backoff", line_no) if len(fields) == n + 2 else 0.0
            gram, entry = tuple(fields[1:n + 1]), (logprob, backoff)
            if table.setdefault(gram, entry) is not entry:
                raise ValueError(f"line {line_no}: repeated {n}-gram {' '.join(gram)!r}")
        elif n is None or not line:  # before \data\, or a blank line
            # a stream may start with a byte-order mark
            if line in ("\\data\\", "\ufeff\\data\\"):
                n = 0
        elif not tables and (m := re.fullmatch(r"ngram\s+(\d+)\s*=\s*(\d+)", line)):
            if int(m[1]) != len(declared) + 1:
                raise ValueError(f"line {line_no}: ngram {m[1]} count out of sequence, "
                                 f"expected ngram {len(declared) + 1}")
            declared[int(m[1])] = int(m[2])
        elif not declared:
            raise ValueError(f"line {line_no}: no ngram count declarations after \\data\\")
        else:
            end_section(line_no - 1)
            if line == "\\end\\":
                break
            m = re.fullmatch(r"\\(\d+)-grams:", line)
            if m is None:
                raise ValueError(f"line {line_no}: unexpected content {line!r}")
            n = int(m[1])
            if n != len(tables) + 1 or n > len(declared):
                raise ValueError(f"line {line_no}: {n}-gram section out of sequence")
            table = tables[n] = {}
    else:
        if n is None:
            raise ValueError(f"line {line_no}: missing \\data\\ header")
        if not declared:
            raise ValueError(f"line {line_no + 1}: no ngram count declarations after \\data\\")
        end_section(line_no)
        raise ValueError(f"line {line_no}: missing \\end\\ marker")
    if len(tables) != len(declared):
        raise ValueError(f"line {line_no}: missing \\{len(tables) + 1}-grams: section")
    return LanguageModel(tables)


def serialize_arpa(lm: LanguageModel) -> str:
    """Emit the model in ARPA layout, tab-separated, orders ascending."""
    out = ["\\data\\"]
    for n, table in lm.tables.items():
        out.append(f"ngram {n}={len(table)}")
    out.append("")
    for n, table in lm.tables.items():
        out.append(f"\\{n}-grams:")
        for gram in sorted(table):
            logprob, backoff = table[gram]
            line = f"{logprob!r}\t" + " ".join(gram)
            if n < lm.order:
                line += f"\t{backoff!r}"
            out.append(line)
        out.append("")
    out.append("\\end\\")
    return "\n".join(out) + "\n"


def train_counts(corpus: Iterable[Iterable[str]], order: int) -> LanguageModel:
    """Train an n-gram model with Witten-Bell discounting.

    ``corpus`` is counted in one pass, so it may be a generator over an open
    file; one without a word is an "empty corpus".

    For each history h, seen words get P(w|h) = c(h,w) / (c(h) + T(h)) where
    T(h) is the number of distinct continuations of h; the held-out mass
    T(h) / (c(h) + T(h)) is redistributed through the backoff weight of h.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    counts: dict[int, Counter] = {n: Counter() for n in range(1, order + 1)}
    for sent in corpus:
        sent = tuple(sent)
        for n, counter in counts.items():
            counter.update(sent[i:i + n] for i in range(len(sent) - n + 1))
    if not counts[1]:
        raise ValueError("empty corpus")

    # each (history, word) pair is one gram, so its count is set, not added,
    # in plain dicts: a ``Counter`` runs Python code on each new key
    followers: dict[tuple[str, ...], dict[str, int]] = {}
    for n in range(1, order + 1):
        for gram, c in counts[n].items():
            followers.setdefault(gram[:-1], {})[gram[-1]] = c

    # c(h) + T(h) per history h: P(w|h) = c(h,w) / mass[h]
    mass = {h: sum(ctx.values()) + len(ctx) for h, ctx in followers.items()}

    tables: dict[int, dict[tuple[str, ...], tuple[float, float]]] = {}
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
            table[gram] = (math.log10(c / mass[gram[:-1]]), backoff)
        tables[n] = table
    return LanguageModel(tables)
