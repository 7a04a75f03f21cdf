"""Command-line surface: LM training, index building, noise injection,
correction and evaluation.

Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import sys

from . import evaluation, lm as lm_mod, phrase_index
from .corrector import correct_dp, correct_fixed
from .lexicon import load_lexicon
from .substituter import SubstituterConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


def _open_in(path):
    # an undecodable byte becomes U+FFFD, which ``tokenize`` drops, so one
    # bad line does not abort the run or shift the output
    return open(path, encoding="utf-8", errors="replace")


def _read_sentences(path):
    with _open_in(path) as fh:
        return [lm_mod.tokenize(line) for line in fh]


def _load(read, path):
    """``read`` applied to ``path`` opened as strict UTF-8. A ``ValueError``
    (a bad line, an undecodable byte) is re-raised naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return read(fh)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _open_out(path):
    if path == "-":
        # leave stdout open for the caller
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8")


@contextlib.contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector; it is left as it was found.

    A model or index holds no reference cycles, so a collection while one
    is built, written or loaded only traverses it. With the collector on,
    on the benchmark's 3-4-gram models of 50-54k docs (Intel Xeon, Python
    3.11.7), ``train-lm`` ran 238-319 collections (26-28 ms), ``build-index``
    227-272 (19-23 ms) and ``correct``'s load 310-361 (about 40 ms).
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def cmd_train_lm(args) -> int:
    if args.order < 1:
        return _usage_error(f"--order must be >= 1, got {args.order}")
    with _collector_paused():
        with _open_in(args.corpus) as fh:
            model = lm_mod.train_counts(map(lm_mod.tokenize, fh), args.order)
        with _open_out(args.out) as fh:
            fh.write(lm_mod.serialize_arpa(model))
    return EXIT_OK


def cmd_build_index(args) -> int:
    if args.out == "-":
        return _usage_error("build-index --out must name a file, not - (stdout)")
    try:
        orders = [int(x) for x in args.orders.split(",")] if args.orders is not None else None
    except ValueError:
        return _usage_error(f"--orders must be comma-separated integers, got {args.orders!r}")
    with _collector_paused():
        model = _load(lm_mod.parse_arpa, args.lm)
        try:
            docs = phrase_index.extract_phrases(model, orders)
        except ValueError as exc:  # orders outside 1..model order
            return _usage_error(f"--orders: {exc}")
        phrase_index.save_index(phrase_index.PhraseIndex(docs), args.out)
    return EXIT_OK


def cmd_inject_noise(args) -> int:
    try:
        spec = evaluation.NoiseSpec(
            seed=args.seed, swap_adjacent=args.swaps, delete_word=args.deletions,
            substitute_word=args.substitutions, typo_char=args.typos)
    except ValueError as exc:
        return _usage_error(exc)
    sentences = _read_sentences(args.input)
    vocabulary = tuple(sorted({w for s in sentences for w in s}))
    lexicon = _load(load_lexicon, args.lexicon) if args.lexicon else None
    with _open_out(args.out) as fh:
        for sent in sentences:
            fh.write(" ".join(evaluation.inject_noise(sent, spec, lexicon, vocabulary)) + "\n")
    return EXIT_OK


def _usage_error(message) -> int:
    print(f"phrasefix: {message}", file=sys.stderr)
    return EXIT_USAGE


def cmd_correct(args) -> int:
    try:
        config = SubstituterConfig(k=args.k, t_pool=args.t_pool, d_t=args.d_t)
    except ValueError as exc:
        return _usage_error(exc)
    with _collector_paused():
        model = _load(lm_mod.parse_arpa, args.lm)
        if args.algorithm == "fixed" and args.phrase_len < model.order:
            return _usage_error(f"--phrase-len {args.phrase_len} is below the model "
                                f"order {model.order}")
        sentences = _read_sentences(args.input)
        lexicon = _load(load_lexicon, args.lexicon) if args.lexicon else {}
        index = phrase_index.load_index(args.index)
        # freezing spares the collections run while correcting a pass over
        # what was loaded (about 2 ms on 50k docs). It comes before the
        # collector is enabled again, or the next allocation would collect
        # all of it as young. Unfrozen for in-process callers.
        gc.freeze()

    if args.algorithm == "dp":
        def correct(sent):
            return correct_dp(sent, index, model, lexicon, config)
    else:
        def correct(sent):
            return correct_fixed(sent, model, index, phrase_len=args.phrase_len)

    try:
        with _open_out(args.out) as fh:
            for sent in sentences:
                fh.write(json.dumps(correct(sent).to_record()) + "\n")
    finally:
        gc.unfreeze()
    return EXIT_OK


def cmd_evaluate(args) -> int:
    with _collector_paused():
        model = _load(lm_mod.parse_arpa, args.lm)
    before = _read_sentences(args.before)
    after = _read_sentences(args.after)
    refs = _read_sentences(args.refs)
    if not len(before) == len(after) == len(refs):
        raise ValueError(
            f"aligned files required: {len(before)} before, {len(after)} after, "
            f"{len(refs)} references")
    report = {
        "perplexity_before": _perplexity(model, before),
        "perplexity_after": _perplexity(model, after),
        "bleu_before": evaluation.bleu(before, refs),
        "bleu_after": evaluation.bleu(after, refs),
        "sentence_count": len(before),
    }
    with _open_out(args.out) as fh:
        fh.write(json.dumps(report) + "\n")
    print(f"sentences: {report['sentence_count']}", file=sys.stderr)
    print("perplexity: {} -> {}".format(*(
        "n/a" if report[key] is None else f"{report[key]:.3f}"
        for key in ("perplexity_before", "perplexity_after"))), file=sys.stderr)
    print(f"bleu: {report['bleu_before']:.3f} -> {report['bleu_after']:.3f}",
          file=sys.stderr)
    return EXIT_OK


def _perplexity(model, sentences):
    """``corpus_perplexity`` of one side, or None where it raises (no sentence
    as long as the model order, as in an output the corrector shortened, or
    a value past the float range), so that the rest of the report is written."""
    try:
        return evaluation.corpus_perplexity(model, sentences)
    except ValueError:
        return None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phrasefix", description="Noisy sentence correction with a monolingual n-gram LM")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-lm", help="train a Witten-Bell n-gram LM, emit ARPA")
    p.add_argument("--corpus", required=True)
    p.add_argument("--order", type=int, default=4)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_lm)

    p = sub.add_parser("build-index", help="build the phrase index from an ARPA LM")
    p.add_argument("--lm", required=True)
    p.add_argument("--orders", default=None,
                   help="comma-separated n-gram orders (default 2..N, or 1 for a unigram model)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_index)

    p = sub.add_parser("inject-noise", help="apply seeded noise to a corpus")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", default="-")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--swaps", type=int, default=0)
    p.add_argument("--deletions", type=int, default=0)
    p.add_argument("--substitutions", type=int, default=0)
    p.add_argument("--typos", type=int, default=0)
    p.add_argument("--lexicon", default=None)
    p.set_defaults(func=cmd_inject_noise)

    p = sub.add_parser("correct", help="correct sentences, one JSON record per line")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--lm", required=True)
    p.add_argument("--index", required=True)
    p.add_argument("--lexicon", default=None)
    p.add_argument("--algorithm", choices=("dp", "fixed"), default="dp")
    p.add_argument("--k", type=int, default=SubstituterConfig.k)
    p.add_argument("--t-pool", type=int, default=SubstituterConfig.t_pool)
    p.add_argument("--d-t", type=int, default=SubstituterConfig.d_t)
    p.add_argument("--phrase-len", type=int, default=7)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_correct)

    p = sub.add_parser("evaluate", help="perplexity/BLEU report before vs after")
    p.add_argument("--before", required=True)
    p.add_argument("--after", required=True)
    p.add_argument("--refs", required=True)
    p.add_argument("--lm", required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, 0 after --help
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"phrasefix: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
