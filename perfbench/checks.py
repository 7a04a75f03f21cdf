"""Output checks made apart from the program.

Everything here reads the files the program wrote (ARPA model, index file,
JSONL records) with the benchmark's own parsers, and compares them with
n-gram counts, scores and properties computed from the generated inputs.
Only ``reload_matches`` calls into the program, because reloading is what it
checks.
"""

from __future__ import annotations

import math
import random
import re
from collections import Counter, defaultdict

# Score of an unknown unigram; the program's documented convention.
OOV_LOGPROB = -99.0
SCORE_TOL = 1e-6

_NON_WORD = re.compile(r"[^\w\s]+")


def tokenize(line: str) -> tuple[str, ...]:
    return tuple(_NON_WORD.sub(" ", line.lower()).split())


class Arpa:
    """A backoff model read from an ARPA file: {n: {gram: (logprob, backoff)}}."""

    def __init__(self, text: str):
        self.declared: dict[int, int] = {}
        self.tables: dict[int, dict[tuple[str, ...], tuple[float, float]]] = {}
        section = None
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line in ("\\data\\", "\\end\\"):
                continue
            m = re.fullmatch(r"ngram (\d+)=(\d+)", line)
            if m:
                self.declared[int(m.group(1))] = int(m.group(2))
                continue
            m = re.fullmatch(r"\\(\d+)-grams:", line)
            if m:
                section = int(m.group(1))
                self.tables[section] = {}
                continue
            fields = line.split()
            gram = tuple(fields[1:section + 1])
            backoff = float(fields[section + 1]) if len(fields) == section + 2 else 0.0
            self.tables[section][gram] = (float(fields[0]), backoff)
        self.order = max(self.declared)

    def logprob(self, word: str, history: tuple[str, ...]) -> float:
        """log10 P(word | history) with standard ARPA backoff."""
        hit = self.tables.get(len(history) + 1, {}).get(history + (word,))
        if hit is not None:
            return hit[0]
        if not history:
            return OOV_LOGPROB
        ctx = self.tables.get(len(history), {}).get(history)
        return (ctx[1] if ctx else 0.0) + self.logprob(word, history[1:])

    def score(self, tokens) -> float:
        """Sum over positions, no sentence-boundary tokens."""
        tokens = tuple(tokens)
        total = 0.0
        for j, word in enumerate(tokens):
            total += self.logprob(word, tokens[max(0, j - self.order + 1):j])
        return total


def count_ngrams(corpus, order: int) -> dict[int, Counter]:
    counts = {n: Counter() for n in range(1, order + 1)}
    for sent in corpus:
        for n in range(1, order + 1):
            for i in range(len(sent) - n + 1):
                counts[n][tuple(sent[i:i + n])] += 1
    return counts


def check_arpa(arpa: Arpa, corpus, order: int, seed: int, samples: int = 200) -> list[str]:
    """Section sizes equal the distinct n-gram counts, and Witten-Bell
    probabilities and backoffs hold on a seeded sample of histories."""
    errors = []
    counts = count_ngrams(corpus, order)
    for n in range(1, order + 1):
        if arpa.declared.get(n) != len(counts[n]) or len(arpa.tables.get(n, {})) != len(counts[n]):
            errors.append(f"{n}-gram section has {len(arpa.tables.get(n, {}))} entries "
                          f"(declared {arpa.declared.get(n)}), corpus has {len(counts[n])}")
    if errors:
        return errors
    followers: dict[tuple[str, ...], Counter] = defaultdict(Counter)
    for n in range(1, order + 1):
        for gram, c in counts[n].items():
            followers[gram[:-1]][gram[-1]] += c

    def wb(gram):
        ctx = followers[gram[:-1]]
        return ctx[gram[-1]] / (sum(ctx.values()) + len(ctx))

    histories = sorted(followers, key=lambda h: (len(h), h))
    rng = random.Random(seed)
    picked = [()] + rng.sample(histories, min(samples, len(histories)))
    for h in picked:
        ctx = followers[h]
        c_h, t_h = sum(ctx.values()), len(ctx)
        total = 0.0
        for w in ctx:
            p = 10.0 ** arpa.tables[len(h) + 1][h + (w,)][0]
            if abs(p - wb(h + (w,))) > 1e-9:
                errors.append(f"P({w}|{' '.join(h)}) = {p}, Witten-Bell gives {wb(h + (w,))}")
            total += p
        if abs(total + t_h / (c_h + t_h) - 1.0) > 1e-9:
            errors.append(f"history {h!r}: probabilities plus held-out mass sum to "
                          f"{total + t_h / (c_h + t_h)}")
        if h and len(h) < order:
            seen_lower = sum(wb(h[1:] + (w,)) for w in ctx)
            expected = math.log10((t_h / (c_h + t_h)) / (1.0 - seen_lower))
            if abs(arpa.tables[len(h)][h][1] - expected) > 1e-6:
                errors.append(f"backoff of {h!r} is {arpa.tables[len(h)][h][1]}, expected {expected}")
    return errors


class IndexFile:
    """The docs and postings of a saved phrase index, read line by line."""

    def __init__(self, text: str):
        lines = text.splitlines()
        if not lines or not lines[0].startswith("phrasefix-index\t"):
            raise ValueError("not a phrasefix index file")
        pos = 1
        self.docs: list[tuple[int, float, tuple[str, ...]]] = []
        self.postings: dict[str, list[int]] = {}
        while pos < len(lines):
            kind, count = lines[pos].split("\t")
            pos += 1
            block = lines[pos:pos + int(count)]
            pos += int(count)
            if kind == "docs":
                for line in block:
                    docid, score, tokens = line.split("\t")
                    self.docs.append((int(docid), float(score), tuple(tokens.split())))
            elif kind == "postings":
                for line in block:
                    word, ids = line.split("\t")
                    self.postings[word] = [int(i) for i in ids.split()]
            else:
                raise ValueError(f"unknown index section {kind!r}")
        self.vocabulary = frozenset(w for _, _, toks in self.docs for w in toks)


def check_index(index: IndexFile, arpa: Arpa, orders, seed: int, samples: int = 50) -> list[str]:
    """Doc count equals the sum of the selected tables; sampled docs carry
    their LM score; sampled postings equal a scan of the docs."""
    errors = []
    expected = sum(len(arpa.tables.get(n, {})) for n in orders)
    if len(index.docs) != expected:
        errors.append(f"index has {len(index.docs)} docs, orders {list(orders)} hold {expected} n-grams")
    if [d[0] for d in index.docs] != list(range(len(index.docs))):
        errors.append("docids are not dense 0..M-1 in file order")
    rng = random.Random(seed)
    for docid, score, tokens in rng.sample(index.docs, min(samples, len(index.docs))):
        if abs(score - arpa.score(tokens)) > SCORE_TOL:
            errors.append(f"doc {docid} scored {score}, model gives {arpa.score(tokens)}")
    words = sorted(index.vocabulary)
    if sorted(index.postings) != words:
        errors.append("postings words differ from the docs' vocabulary")
    for word in rng.sample(words, min(samples, len(words))):
        scan = [d for d, _, toks in index.docs if word in toks]
        if index.postings.get(word) != scan:
            errors.append(f"postings of {word!r} differ from a scan of the docs")
    return errors


def reload_matches(index: IndexFile, path) -> list[str]:
    """The program's own loader returns the docs the file holds."""
    from phrasefix.phrase_index import load_index

    loaded = load_index(path)
    got = [(d.docid, d.lm_score, d.tokens) for d in loaded.docs]
    return [] if got == index.docs else ["load_index returns other docs than the file holds"]


def check_record(record: dict, line: str, arpa: Arpa, algorithm: str,
                 vocabulary: frozenset) -> list[str]:
    """Checks of one ``correct`` output record against its input line."""
    errors = []
    original = tokenize(line)
    if tuple(record["original"].split()) != original:
        return [f"record {record['original']!r} does not match input {line!r}"]
    corrected = tuple(record["corrected"].split())
    kbest = record["kbest"]
    if not kbest or kbest[0]["phrase"] != record["corrected"]:
        errors.append("corrected is not kbest[0]")
    scores = [c["score"] for c in kbest]
    if any(b > a for a, b in zip(scores, scores[1:])):
        errors.append(f"k-best scores increase: {scores}")
    before, after = arpa.score(original), arpa.score(corrected)
    if abs(record["score_before"] - before) > SCORE_TOL:
        errors.append(f"score_before {record['score_before']} != {before}")
    if abs(record["score_after"] - after) > SCORE_TOL:
        errors.append(f"score_after {record['score_after']} != {after}")
    if algorithm == "dp" and record["score_after"] < record["score_before"] - SCORE_TOL:
        errors.append("dp output scores below its input")
    if algorithm == "fixed" and corrected != original and not record["score_after"] > record["score_before"]:
        errors.append("fixed kept a rewrite that does not score higher")
    stray = sorted({w for w in corrected if w not in original and w not in vocabulary})
    if stray:
        errors.append(f"output words in neither input nor index: {stray}")
    return errors


def ref_recall(outputs, references) -> float:
    """Clipped unigram matches of the outputs against their references,
    over the number of reference tokens."""
    matched = total = 0
    for out, ref in zip(outputs, references, strict=True):
        ref_counts = Counter(ref)
        matched += sum(min(c, ref_counts[w]) for w, c in Counter(out).items())
        total += len(ref)
    if total == 0:
        raise ValueError("no reference tokens")
    return matched / total
