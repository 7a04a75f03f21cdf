import gc
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import phrasefix
from phrasefix import (SubstituterConfig, cli, correct_dp, evaluation, load_index,
                       lm as lm_mod, parse_arpa, phrase_index, tokenize, train_counts)
from phrasefix.cli import main

from conftest import synth_corpus


def write_lines(path, sentences):
    path.write_text("".join(" ".join(s) + "\n" for s in sentences), encoding="utf-8")


def run_with_collector(enabled, argv):
    """``main(argv)`` with the caller's collector on or off: the exit code,
    and whether the collector was on and its freeze count after it."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        code = main(argv)
        after = gc.isenabled(), gc.get_freeze_count()
    finally:
        (gc.enable if was else gc.disable)()
    return code, after


def spy_collector(monkeypatch, calls, module, *names):
    """Record in ``calls`` each of ``module``'s functions ``names`` called,
    with whether the collector was on."""
    for name in names:
        def spy(*args, _name=name, _real=getattr(module, name)):
            calls.append((_name, gc.isenabled()))
            return _real(*args)

        monkeypatch.setattr(module, name, spy)


@pytest.fixture
def workspace(tmp_path):
    sentences = synth_corpus(40, seed=3)
    corpus = tmp_path / "corpus.txt"
    write_lines(corpus, sentences)
    return tmp_path, corpus, sentences


class TestTrainLm:
    def test_writes_loadable_arpa(self, workspace):
        tmp, corpus, sentences = workspace
        out = tmp / "model.arpa"
        assert main(["train-lm", "--corpus", str(corpus), "--order", "3",
                     "--out", str(out)]) == 0
        model = parse_arpa(out.read_text(encoding="utf-8"))
        assert model.order == 3
        reference = train_counts(sentences, 3)
        assert model.tables == reference.tables

    def test_missing_corpus_is_data_error(self, tmp_path):
        assert main(["train-lm", "--corpus", str(tmp_path / "nope.txt"),
                     "--out", str(tmp_path / "m.arpa")]) == 2

    def test_missing_required_flag_is_usage_error(self, tmp_path):
        assert main(["train-lm", "--corpus", str(tmp_path / "c.txt")]) == 1

    def test_order_zero_is_usage_error_before_reading(self, tmp_path):
        out = tmp_path / "m.arpa"
        assert main(["train-lm", "--corpus", str(tmp_path / "nope.txt"), "--order", "0",
                     "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("case,code", [("ok", 0), ("empty corpus", 2)])
    def test_leaves_the_collector_as_it_found_it(self, workspace, monkeypatch, enabled,
                                                 case, code):
        tmp, corpus, _ = workspace
        if case == "empty corpus":
            corpus.write_text("\n\n", encoding="utf-8")
        calls = []
        spy_collector(monkeypatch, calls, lm_mod, "train_counts", "serialize_arpa")
        got, after = run_with_collector(enabled, ["train-lm", "--corpus", str(corpus),
                                                  "--order", "3",
                                                  "--out", str(tmp / "m.arpa")])
        assert got == code
        assert after == (enabled, 0)
        # paused while training and writing
        assert calls == {"ok": [("train_counts", False), ("serialize_arpa", False)],
                         "empty corpus": [("train_counts", False)]}[case]


class TestBuildIndex:
    def test_round_trip_retrieval(self, workspace):
        tmp, corpus, sentences = workspace
        arpa = tmp / "model.arpa"
        idx = tmp / "phrases.idx"
        main(["train-lm", "--corpus", str(corpus), "--order", "3", "--out", str(arpa)])
        assert main(["build-index", "--lm", str(arpa), "--out", str(idx)]) == 0
        index = load_index(idx)
        model = train_counts(sentences, 3)
        grams = set(model.tables[2]) | set(model.tables[3])
        assert {d.tokens for d in index.docs} == grams
        assert index.retrieve(sentences[0][0], 2)

    def test_explicit_orders(self, workspace):
        tmp, corpus, _ = workspace
        arpa = tmp / "model.arpa"
        idx = tmp / "phrases.idx"
        main(["train-lm", "--corpus", str(corpus), "--order", "3", "--out", str(arpa)])
        main(["build-index", "--lm", str(arpa), "--orders", "2", "--out", str(idx)])
        assert {len(d.tokens) for d in load_index(idx).docs} == {2}

    def test_non_integer_orders_are_usage_error_before_reading(self, tmp_path):
        idx = tmp_path / "phrases.idx"
        # "" names no order, as "2," names an empty one; neither is the default
        for orders in ("2,x", "2,", ""):
            assert main(["build-index", "--lm", str(tmp_path / "nope.arpa"),
                         "--orders", orders, "--out", str(idx)]) == 1
            assert not idx.exists()

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("case,code", [("default", 0), ("orders 9", 1),
                                           ("corrupt model", 2)])
    def test_leaves_the_collector_as_it_found_it(self, workspace, monkeypatch, enabled,
                                                 case, code):
        tmp, corpus, _ = workspace
        arpa, idx = tmp / "model.arpa", tmp / "phrases.idx"
        main(["train-lm", "--corpus", str(corpus), "--order", "3", "--out", str(arpa)])
        if case == "corrupt model":
            arpa.write_text("garbage\n", encoding="utf-8")
        options = ["--orders", "9"] if case == "orders 9" else []
        calls = []
        spy_collector(monkeypatch, calls, lm_mod, "parse_arpa")
        spy_collector(monkeypatch, calls, phrase_index, "extract_phrases", "save_index")
        got, after = run_with_collector(enabled, ["build-index", "--lm", str(arpa),
                                                  "--out", str(idx)] + options)
        assert got == code
        assert after == (enabled, 0)
        # paused from parsing the model to writing the index
        assert calls == {"default": [("parse_arpa", False), ("extract_phrases", False),
                                     ("save_index", False)],
                         "orders 9": [("parse_arpa", False), ("extract_phrases", False)],
                         "corrupt model": [("parse_arpa", False)]}[case]

    def test_stdout_out_is_usage_error_before_reading(self, tmp_path, monkeypatch, capsys):
        # "-" is stdout for the other commands; an index is only ever a file
        monkeypatch.chdir(tmp_path)
        assert main(["build-index", "--lm", str(tmp_path / "nope.arpa"), "--out", "-"]) == 1
        assert not (tmp_path / "-").exists()
        assert "--out must name a file" in capsys.readouterr().err

    @pytest.mark.parametrize("orders", ["0", "2,4"])
    def test_orders_outside_model_order_are_usage_error(self, workspace, orders):
        tmp, corpus, _ = workspace
        arpa = tmp / "model.arpa"
        idx = tmp / "phrases.idx"
        main(["train-lm", "--corpus", str(corpus), "--order", "3", "--out", str(arpa)])
        assert main(["build-index", "--lm", str(arpa), "--orders", orders,
                     "--out", str(idx)]) == 1
        assert not idx.exists()


class TestInjectNoise:
    def test_deterministic_and_line_aligned(self, workspace):
        tmp, corpus, sentences = workspace
        out1, out2 = tmp / "n1.txt", tmp / "n2.txt"
        argv = ["inject-noise", "--in", str(corpus), "--seed", "42",
                "--swaps", "1", "--typos", "1"]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_text() == out2.read_text()
        noisy = [tuple(line.split()) for line in out1.read_text().splitlines()]
        assert len(noisy) == len(sentences)
        assert any(n != s for n, s in zip(noisy, sentences))

    @pytest.mark.parametrize("flag", ["--swaps", "--deletions", "--substitutions",
                                      "--typos"])
    def test_negative_count_is_usage_error_before_reading(self, tmp_path, flag):
        out = tmp_path / "noisy.txt"
        assert main(["inject-noise", "--in", str(tmp_path / "nope.txt"), flag, "-1",
                     "--out", str(out)]) == 1
        assert not out.exists()

    def test_lexicon_substitutes_a_synset_mate(self, tmp_path):
        inp, lexicon, out = tmp_path / "in.txt", tmp_path / "lex.txt", tmp_path / "out.txt"
        lines = ["alpha beta", "beta alpha", "alpha beta beta", "beta"]
        inp.write_text("".join(line + "\n" for line in lines))
        lexicon.write_text("alpha omega\nbeta theta\n")
        assert main(["inject-noise", "--in", str(inp), "--seed", "5", "--substitutions",
                     "1", "--lexicon", str(lexicon), "--out", str(out)]) == 0
        mate = {"alpha": "omega", "beta": "theta"}
        noisy = out.read_text().splitlines()
        assert len(noisy) == len(lines)
        for before, after in zip(lines, noisy):
            # without the lexicon the other input word would replace it
            changed = [(b, a) for b, a in zip(before.split(), after.split(), strict=True)
                       if b != a]
            assert len(changed) == 1 and changed[0][1] == mate[changed[0][0]]

    def test_wordless_line_gives_blank_line(self, tmp_path):
        inp, out = tmp_path / "in.txt", tmp_path / "out.txt"
        inp.write_text("alpha beta gamma\n\n!!!\ngamma beta alpha\n", encoding="utf-8")
        assert main(["inject-noise", "--in", str(inp), "--seed", "1", "--swaps", "1",
                     "--deletions", "1", "--substitutions", "1", "--typos", "1",
                     "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 4 and lines[1] == lines[2] == ""
        assert lines[0] and lines[3]

    def test_zero_ops_round_trips_corpus(self, workspace):
        tmp, corpus, sentences = workspace
        out = tmp / "same.txt"
        main(["inject-noise", "--in", str(corpus), "--out", str(out)])
        assert [tuple(line.split()) for line in out.read_text().splitlines()] == \
            [tuple(s) for s in sentences]


class TestCorrect:
    def run_pipeline(self, tmp, corpus, extra):
        arpa = tmp / "model.arpa"
        idx = tmp / "phrases.idx"
        noisy = tmp / "noisy.txt"
        fixed = tmp / "out.jsonl"
        main(["train-lm", "--corpus", str(corpus), "--order", "3", "--out", str(arpa)])
        main(["build-index", "--lm", str(arpa), "--out", str(idx)])
        main(["inject-noise", "--in", str(corpus), "--seed", "42", "--swaps", "1",
              "--out", str(noisy)])
        code = main(["correct", "--in", str(noisy), "--lm", str(arpa),
                     "--index", str(idx), "--out", str(fixed)] + extra)
        assert code == 0
        return [json.loads(line) for line in fixed.read_text().splitlines()]

    def test_dp_records_never_worse(self, workspace):
        tmp, corpus, sentences = workspace
        records = self.run_pipeline(tmp, corpus, ["--algorithm", "dp", "--k", "3",
                                                  "--t-pool", "50", "--d-t", "2"])
        assert len(records) == len(sentences)
        for rec in records:
            assert set(rec) >= {"original", "corrected", "score_before",
                                "score_after"}
            assert rec["score_after"] >= rec["score_before"] - 1e-9

    def test_fixed_records_never_worse(self, workspace):
        tmp, corpus, sentences = workspace
        records = self.run_pipeline(tmp, corpus,
                                    ["--algorithm", "fixed", "--phrase-len", "5"])
        assert len(records) == len(sentences)
        for rec in records:
            assert rec["score_after"] >= rec["score_before"] - 1e-9

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "the identity-tie FOUND in CHANGES.md, ROADMAP item 3: top_k breaks equal "
        "scores by tokens alone, so a span is rewritten to a phrase that only ties it"))
    def test_identity_kept_when_it_ties_the_best(self, tmp_path):
        corpus, inp, out = tmp_path / "corpus.txt", tmp_path / "in.txt", tmp_path / "out.jsonl"
        arpa, idx = tmp_path / "model.arpa", tmp_path / "phrases.idx"
        write_lines(corpus, [s.split() for s in (
            "the cat sat on the mat", "the dog sat on the mat", "a cat ran")])
        inp.write_text("mat\n", encoding="utf-8")
        assert main(["train-lm", "--corpus", str(corpus), "--order", "3", "--out", str(arpa)]) == 0
        assert main(["build-index", "--lm", str(arpa), "--orders", "1", "--out", str(idx)]) == 0
        assert main(["correct", "--in", str(inp), "--lm", str(arpa), "--index", str(idx),
                     "--out", str(out)]) == 0
        record, = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
        tied = [c["phrase"] for c in record["kbest"] if c["score"] == record["score_before"]]
        if tied != ["cat", "mat", "sat"]:  # not an AssertionError: the fixture itself broke
            pytest.fail(f"the identity no longer ties the best candidates: {record['kbest']}")
        assert record["corrected"] == record["original"]

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "the stale-index FOUND in CHANGES.md, ROADMAP item 16: correct does not check "
        "that the index was built from the model, so a record claims a score the "
        "model does not give its output"))
    def test_index_from_another_model_is_data_error(self, tmp_path, capsys):
        c2, c3, inp = tmp_path / "c2.txt", tmp_path / "c3.txt", tmp_path / "in.txt"
        m2, m3, p3 = tmp_path / "m2.arpa", tmp_path / "m3.arpa", tmp_path / "p3.idx"
        write_lines(c2, [s.split() for s in ("the cat sat on the mat", "the dog sat on the rug")])
        write_lines(c3, [s.split() for s in ("a bird flew over the house",
                                             "the bird sat on the roof")])
        inp.write_text("the cat sat\n", encoding="utf-8")
        for corpus, model in ((c2, m2), (c3, m3)):
            assert main(["train-lm", "--corpus", str(corpus), "--out", str(model)]) == 0
        assert main(["build-index", "--lm", str(m3), "--out", str(p3)]) == 0
        capsys.readouterr()
        assert main(["correct", "--in", str(inp), "--lm", str(m2), "--index", str(p3),
                     "--out", str(tmp_path / "out.jsonl")]) == 2
        assert f"phrasefix: {p3}: " in capsys.readouterr().err

    def test_default_options_build_the_default_config(self, workspace, monkeypatch):
        tmp, corpus, sentences = workspace
        arpa, idx = self.build(tmp, corpus)
        configs = []

        def spy(sentence, index, lm, lexicon, config):
            configs.append(config)
            return correct_dp(sentence, index, lm, lexicon, config)

        monkeypatch.setattr(cli, "correct_dp", spy)
        inp = tmp / "in.txt"
        write_lines(inp, sentences[:2])
        assert main(["correct", "--in", str(inp), "--lm", str(arpa), "--index", str(idx),
                     "--out", str(tmp / "out.jsonl")]) == 0
        assert configs and all(c == SubstituterConfig() for c in configs)

    def test_empty_input_gives_empty_output(self, workspace):
        tmp, corpus, _ = workspace
        arpa, idx = tmp / "m.arpa", tmp / "p.idx"
        main(["train-lm", "--corpus", str(corpus), "--order", "2", "--out", str(arpa)])
        main(["build-index", "--lm", str(arpa), "--out", str(idx)])
        empty, out = tmp / "empty.txt", tmp / "out.jsonl"
        empty.write_text("")
        assert main(["correct", "--in", str(empty), "--lm", str(arpa),
                     "--index", str(idx), "--out", str(out)]) == 0
        assert out.read_text() == ""

    def test_corrupt_index_is_data_error(self, workspace):
        tmp, corpus, _ = workspace
        arpa = tmp / "m.arpa"
        main(["train-lm", "--corpus", str(corpus), "--order", "2", "--out", str(arpa)])
        bad = tmp / "bad.idx"
        bad.write_text("garbage\n")
        assert main(["correct", "--in", str(corpus), "--lm", str(arpa),
                     "--index", str(bad)]) == 2

    def build(self, tmp, corpus):
        arpa, idx = tmp / "m.arpa", tmp / "p.idx"
        main(["train-lm", "--corpus", str(corpus), "--order", "2", "--out", str(arpa)])
        main(["build-index", "--lm", str(arpa), "--out", str(idx)])
        return arpa, idx

    def correct(self, tmp, arpa, idx, lines, algorithm="dp", options=()):
        inp, out = tmp / "in.txt", tmp / "out.jsonl"
        inp.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        code = main(["correct", "--in", str(inp), "--lm", str(arpa), "--index", str(idx),
                     "--algorithm", algorithm, "--k", "3", "--t-pool", "50",
                     "--d-t", "2", *options, "--out", str(out)])
        records = [json.loads(line) for line in out.read_text().splitlines()] \
            if out.exists() else []
        return code, records

    @pytest.mark.parametrize("algorithm", ["dp", "fixed"])
    @pytest.mark.parametrize("middle", ["!!!", ""])
    def test_wordless_line_gives_pass_through_record(self, workspace, algorithm, middle):
        tmp, corpus, sentences = workspace
        arpa, idx = self.build(tmp, corpus)
        first, last = " ".join(sentences[0][:4]), " ".join(sentences[1][:4])
        code, records = self.correct(tmp, arpa, idx, [first, middle, last], algorithm)
        assert code == 0
        assert [r["original"] for r in records] == [first, "", last]
        assert records[1] == {"original": "", "corrected": "", "score_before": 0.0,
                              "score_after": 0.0, "kbest": [], "stats": {}}

    def test_undecodable_line_keeps_the_run_aligned(self, workspace):
        tmp, corpus, sentences = workspace
        arpa, idx = self.build(tmp, corpus)
        first, last = " ".join(sentences[0][:4]), " ".join(sentences[1][:4])
        inp, out = tmp / "in.txt", tmp / "out.jsonl"
        inp.write_bytes(f"{first}\n".encode() + b"\xff\xfe bad line\n"
                        + f"{last}\n".encode())
        assert main(["correct", "--in", str(inp), "--lm", str(arpa), "--index",
                     str(idx), "--d-t", "2", "--out", str(out)]) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["original"] for r in records] == [first, "bad line", last]

    def test_bad_stored_postings_are_ignored(self, workspace):
        tmp, corpus, sentences = workspace
        arpa, idx = self.build(tmp, corpus)
        sentence = " ".join(sentences[0][:4])
        code, clean = self.correct(tmp, arpa, idx, [sentence])
        assert code == 0 and clean
        word = sentences[0][0]
        lines = [ln + " 999999" if ln.startswith(word + "\t") else ln
                 for ln in idx.read_text().splitlines()]
        idx.write_text("\n".join(lines) + "\n")
        assert self.correct(tmp, arpa, idx, [sentence]) == (0, clean)

    def test_out_of_order_doc_line_is_data_error(self, workspace):
        tmp, corpus, sentences = workspace
        arpa, idx = self.build(tmp, corpus)
        lines = idx.read_text().splitlines(keepends=True)
        lines[2], lines[3] = lines[3], lines[2]  # the first two doc lines
        idx.write_text("".join(lines))
        assert self.correct(tmp, arpa, idx, [" ".join(sentences[0][:4])])[0] == 2

    @pytest.mark.parametrize("algorithm,options", [
        ("dp", ["--k", "0"]),
        ("dp", ["--k", "51"]),
        ("dp", ["--d-t", "0"]),
        ("dp", ["--mode", "C"]),
        ("fixed", ["--phrase-len", "1"]),
    ])
    def test_bad_option_value_is_usage_error_before_any_record(self, workspace,
                                                               algorithm, options):
        tmp, corpus, sentences = workspace
        arpa, idx = self.build(tmp, corpus)  # order 2
        lines = ["", " ".join(sentences[0][:4])]
        assert self.correct(tmp, arpa, idx, lines, algorithm, options) == (1, [])

    def test_doc_tokens_twice_is_data_error(self, workspace):
        tmp, corpus, sentences = workspace
        arpa, idx = self.build(tmp, corpus)
        lines = idx.read_text().splitlines(keepends=True)
        docid, score, _ = lines[3].split("\t")
        lines[3] = "\t".join([docid, score, lines[2].split("\t")[2]])
        idx.write_text("".join(lines))
        assert self.correct(tmp, arpa, idx, [" ".join(sentences[0][:4])]) == (2, [])

    @pytest.mark.parametrize("count,kept,line_no", [("4", 1, 4), ("-1", 3, 2)])
    def test_bad_doc_count_names_file_and_line(self, workspace, capsys, count, kept,
                                               line_no):
        tmp, corpus, sentences = workspace
        arpa, idx = self.build(tmp, corpus)
        lines = idx.read_text().splitlines(keepends=True)
        postings = next(i for i, ln in enumerate(lines) if ln.startswith("postings\t"))
        lines = lines[:1] + [f"docs\t{count}\n"] + lines[2:2 + kept] + lines[postings:]
        idx.write_text("".join(lines))
        capsys.readouterr()
        assert self.correct(tmp, arpa, idx, [" ".join(sentences[0][:4])]) == (2, [])
        assert f"phrasefix: {idx}: line {line_no}: " in capsys.readouterr().err

    @pytest.mark.parametrize("damage", ["arpa", "index"])
    def test_non_finite_number_in_a_file_is_data_error(self, workspace, damage):
        tmp, corpus, sentences = workspace
        arpa, idx = self.build(tmp, corpus)
        if damage == "arpa":
            lines = arpa.read_text().splitlines(keepends=True)
            at = lines.index("\\1-grams:\n") + 1
            lines[at] = "inf" + lines[at][lines[at].index("\t"):]
            arpa.write_text("".join(lines))
        else:
            lines = idx.read_text().splitlines(keepends=True)
            docid, _, tokens = lines[2].split("\t")
            lines[2] = f"{docid}\tnan\t{tokens}"
            idx.write_text("".join(lines))
        assert self.correct(tmp, arpa, idx, [" ".join(sentences[0][:4])]) == (2, [])

    @pytest.mark.parametrize("count_line", ["ngram 0=1", "ngram 1=1", "ngram 3=1"])
    def test_count_line_out_of_sequence_is_data_error(self, workspace, capsys, count_line):
        tmp, corpus, sentences = workspace
        arpa, idx = self.build(tmp, corpus)
        lines = arpa.read_text().splitlines(keepends=True)
        lines.insert(2, count_line + "\n")
        arpa.write_text("".join(lines))
        out = tmp / "out"
        message = f"phrasefix: {arpa}: line 3: {count_line.split('=')[0]} count out of sequence"
        for argv in (["correct", "--in", str(corpus), "--index", str(idx)],
                     ["build-index"],
                     ["evaluate", "--before", str(corpus), "--after", str(corpus),
                      "--refs", str(corpus)]):
            capsys.readouterr()
            assert main(argv + ["--lm", str(arpa), "--out", str(out)]) == 2
            assert capsys.readouterr().err.startswith(message)
            assert not out.exists()

    @pytest.mark.parametrize("command,damaged", [
        ("correct", "--lexicon"), ("inject-noise", "--lexicon"),
        ("correct", "--lm"), ("correct", "--index")])
    def test_undecodable_byte_in_a_loaded_file_names_it(self, workspace, capsys,
                                                        command, damaged):
        tmp, corpus, sentences = workspace
        arpa, idx = self.build(tmp, corpus)
        lexicon = tmp / "lexicon.txt"
        lexicon.write_text(f"{sentences[0][0]} {sentences[1][0]}\n")
        files = {"--lm": arpa, "--index": idx, "--lexicon": lexicon}
        data = files[damaged].read_bytes()
        mid = data.index(b"\n", len(data) // 2) + 1
        files[damaged].write_bytes(data[:mid] + b"\xff" + data[mid:])
        out = tmp / "out"
        argv = {"correct": ["--lm", str(arpa), "--index", str(idx), "--lexicon", str(lexicon)],
                "inject-noise": ["--substitutions", "1", "--lexicon", str(lexicon)]}[command]
        capsys.readouterr()
        assert main([command, "--in", str(corpus), *argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"phrasefix: {files[damaged]}: ")
        assert "can't decode byte 0xff" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["correct", "inject-noise"])
    def test_lexicon_entry_of_several_words_names_its_line(self, workspace, capsys, command):
        tmp, corpus, sentences = workspace
        arpa, idx = self.build(tmp, corpus)
        lexicon = tmp / "lexicon.txt"
        lexicon.write_text(f"{sentences[0][0]} {sentences[1][0]}\nwell-known famous\n",
                           encoding="utf-8")
        out = tmp / "out"
        argv = {"correct": ["--lm", str(arpa), "--index", str(idx)],
                "inject-noise": ["--substitutions", "1"]}[command]
        capsys.readouterr()
        assert main([command, "--in", str(corpus), *argv, "--lexicon", str(lexicon),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"phrasefix: {lexicon}: line 2: ")
        assert not out.exists()

    def test_out_dash_writes_line_aligned_records_to_stdout(self, workspace, capsys):
        tmp, corpus, sentences = workspace
        arpa, idx = self.build(tmp, corpus)
        lines = [" ".join(sentences[0][:4]), "", " ".join(sentences[1][:4])]
        code, records = self.correct(tmp, arpa, idx, lines)
        assert code == 0
        capsys.readouterr()
        assert main(["correct", "--in", str(tmp / "in.txt"), "--lm", str(arpa),
                     "--index", str(idx), "--k", "3", "--t-pool", "50", "--d-t", "2",
                     "--out", "-"]) == 0
        printed = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [r["original"] for r in printed] == lines
        assert printed == records

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("case,code", [("dp", 0), ("corrupt index", 2),
                                           ("phrase-len", 1)])
    def test_leaves_the_collector_as_it_found_it(self, workspace, monkeypatch, enabled,
                                                 case, code):
        tmp, corpus, sentences = workspace
        arpa, idx = self.build(tmp, corpus)  # order 2
        algorithm, options = ("fixed", ["--phrase-len", "1"]) if case == "phrase-len" \
            else ("dp", [])
        if case == "corrupt index":
            idx.write_text("garbage\n", encoding="utf-8")
        calls = []  # the collector while loading the index and while correcting
        load_index = phrase_index.load_index

        def spy_load(path):
            calls.append(("load", gc.isenabled()))
            return load_index(path)

        def spy_correct(*args):
            calls.append(("correct", gc.isenabled(), gc.get_freeze_count() > 0))
            return correct_dp(*args)

        monkeypatch.setattr(phrase_index, "load_index", spy_load)
        monkeypatch.setattr(cli, "correct_dp", spy_correct)
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            got = self.correct(tmp, arpa, idx, [" ".join(sentences[0][:4])], algorithm,
                               options)[0]
            after = gc.isenabled(), gc.get_freeze_count()
        finally:
            (gc.enable if was else gc.disable)()
        assert got == code
        assert after == (enabled, 0)
        # paused while loading; as found, with what was loaded frozen, while
        # correcting; the usage error returns after the model, before the index
        assert calls == {"dp": [("load", False), ("correct", enabled, True)],
                         "corrupt index": [("load", False)],
                         "phrase-len": []}[case]

    def test_unknown_algorithm_is_usage_error(self, workspace):
        tmp, corpus, _ = workspace
        assert main(["correct", "--in", str(corpus), "--lm", "x", "--index", "y",
                     "--algorithm", "beam"]) == 1


class TestEvaluate:
    def test_report_fields_and_improvement_direction(self, workspace):
        tmp, corpus, sentences = workspace
        arpa = tmp / "m.arpa"
        noisy = tmp / "noisy.txt"
        report = tmp / "report.json"
        main(["train-lm", "--corpus", str(corpus), "--order", "2", "--out", str(arpa)])
        main(["inject-noise", "--in", str(corpus), "--seed", "7", "--swaps", "1",
              "--typos", "1", "--out", str(noisy)])
        assert main(["evaluate", "--before", str(noisy), "--after", str(corpus),
                     "--refs", str(corpus), "--lm", str(arpa),
                     "--out", str(report)]) == 0
        rep = json.loads(report.read_text())
        assert rep["sentence_count"] == len(sentences)
        assert rep["bleu_after"] == pytest.approx(1.0)
        assert rep["bleu_before"] < rep["bleu_after"]
        assert rep["perplexity_after"] < rep["perplexity_before"]

    def test_side_shorter_than_model_order_has_no_perplexity(self, workspace, capsys):
        # a corrector output of 2-word lines under an order-3 model still
        # gets its BLEU; only its perplexity is undefined
        tmp, corpus, sentences = workspace
        arpa = tmp / "m.arpa"
        before, after, report = tmp / "before.txt", tmp / "after.txt", tmp / "report.json"
        main(["train-lm", "--corpus", str(corpus), "--order", "3", "--out", str(arpa)])
        write_lines(before, sentences[:2])
        write_lines(after, [s[:2] for s in sentences[:2]])
        capsys.readouterr()
        assert main(["evaluate", "--before", str(before), "--after", str(after),
                     "--refs", str(before), "--lm", str(arpa),
                     "--out", str(report)]) == 0
        rep = json.loads(report.read_text())
        assert rep["perplexity_after"] is None
        assert rep["perplexity_before"] > 1.0
        assert rep["bleu_before"] == pytest.approx(1.0)
        assert rep["bleu_after"] == 0.0
        assert f"perplexity: {rep['perplexity_before']:.3f} -> n/a\n" in capsys.readouterr().err

    def test_perplexity_beyond_float_range_is_null(self, tmp_path):
        # a valid model whose "a b a" has perplexity 10**400; run as the
        # command, whose stdout must stay strict JSON (no Infinity or NaN)
        arpa, text = tmp_path / "m.arpa", tmp_path / "s.txt"
        arpa.write_text("\\data\\\nngram 1=2\n\n\\1-grams:\n-400\ta\n-400\tb\n\n\\end\\\n",
                        encoding="utf-8")
        text.write_text("a b a\n", encoding="utf-8")
        src = str(Path(phrasefix.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "phrasefix.cli", "evaluate", "--before", str(text),
             "--after", str(text), "--refs", str(text), "--lm", str(arpa)],
            capture_output=True, text=True, encoding="utf-8", env=env)
        assert proc.returncode == 0, proc.stderr

        def reject(constant):
            raise ValueError(f"non-JSON constant {constant}")

        rep = json.loads(proc.stdout, parse_constant=reject)
        assert rep["perplexity_before"] is None and rep["perplexity_after"] is None
        assert "perplexity: n/a -> n/a\n" in proc.stderr

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("case,code", [("ok", 0), ("corrupt model", 2)])
    def test_leaves_the_collector_as_it_found_it(self, workspace, monkeypatch, enabled,
                                                 case, code):
        tmp, corpus, _ = workspace
        arpa = tmp / "m.arpa"
        main(["train-lm", "--corpus", str(corpus), "--order", "2", "--out", str(arpa)])
        if case == "corrupt model":
            arpa.write_text("garbage\n", encoding="utf-8")
        calls = []
        spy_collector(monkeypatch, calls, lm_mod, "parse_arpa")
        spy_collector(monkeypatch, calls, evaluation, "corpus_perplexity")
        got, after = run_with_collector(enabled, [
            "evaluate", "--before", str(corpus), "--after", str(corpus), "--refs", str(corpus),
            "--lm", str(arpa), "--out", str(tmp / "report.json")])
        assert got == code
        assert after == (enabled, 0)
        # paused while loading the model only
        assert calls == {"ok": [("parse_arpa", False), ("corpus_perplexity", enabled),
                                ("corpus_perplexity", enabled)],
                         "corrupt model": [("parse_arpa", False)]}[case]

    def test_misaligned_files_are_data_error(self, workspace):
        tmp, corpus, sentences = workspace
        arpa = tmp / "m.arpa"
        short = tmp / "short.txt"
        main(["train-lm", "--corpus", str(corpus), "--order", "2", "--out", str(arpa)])
        write_lines(short, sentences[:-1])
        assert main(["evaluate", "--before", str(corpus), "--after", str(short),
                     "--refs", str(corpus), "--lm", str(arpa)]) == 2


class TestParser:
    def test_no_command_is_usage_error(self):
        assert main([]) == 1

    def test_unknown_command_is_usage_error(self):
        assert main(["frobnicate"]) == 1

    @pytest.mark.parametrize("argv", [["--help"], ["correct", "--help"]])
    def test_help_exits_ok(self, argv, capsys):
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("usage: phrasefix")

    def test_bad_option_type_names_the_subcommand(self, tmp_path, capsys):
        assert main(["correct", "--in", "x", "--lm", "y", "--index", "z",
                     "--k", "q"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: phrasefix correct ")
        assert err.endswith("phrasefix correct: error: argument --k: invalid int value: 'q'\n")

    def test_readme_commands_parse(self):
        # every example in the README's "Command line" block names only
        # options the parser has, so a removed option cannot stay in the docs
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]
        assert sorted(argv[1] for argv in commands) == \
            ["build-index", "correct", "evaluate", "inject-noise", "train-lm"]
        parser = cli.build_parser()
        for argv in commands:
            assert argv[0] == "phrasefix"
            parser.parse_args(argv[1:])

    def test_readme_library_example_runs(self, capsys):
        # the README's "Library use" block imports only what the package
        # exports and prints the corrected tuple, then one line per k-best entry
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
        corpus = synth_corpus(200, seed=1)
        noisy = evaluation.inject_noise(corpus[0], evaluation.NoiseSpec(seed=3, typo_char=1))
        namespace = {"corpus": corpus, "noisy_tokens": noisy}
        exec(block, namespace)
        result = namespace["result"]
        assert result.corrected != noisy
        assert capsys.readouterr().out.splitlines() == \
            [f"{result.corrected} {result.score_before} {result.score_after}"] + \
            [f"{' '.join(tokens)} {score}" for tokens, score in result.kbest.items()]

    def test_tokenize_lowercases_and_strips_punctuation(self):
        assert tokenize("The cat, IS on the mat!") == \
            ("the", "cat", "is", "on", "the", "mat")
