import json

import pytest

from phrasefix import load_index, parse_arpa, tokenize, train_counts
from phrasefix.cli import main

from conftest import synth_corpus


def write_lines(path, sentences):
    path.write_text("".join(" ".join(s) + "\n" for s in sentences), encoding="utf-8")


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
        assert index.retrieve(sentences[0][:2], 2)

    def test_explicit_orders(self, workspace):
        tmp, corpus, _ = workspace
        arpa = tmp / "model.arpa"
        idx = tmp / "phrases.idx"
        main(["train-lm", "--corpus", str(corpus), "--order", "3", "--out", str(arpa)])
        main(["build-index", "--lm", str(arpa), "--orders", "2", "--out", str(idx)])
        assert {len(d.tokens) for d in load_index(idx).docs} == {2}


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
            assert set(rec) >= {"original", "corrected", "score_before", "score_after"}
            assert rec["score_after"] >= rec["score_before"] - 1e-9

    def test_fixed_records_never_worse(self, workspace):
        tmp, corpus, sentences = workspace
        records = self.run_pipeline(tmp, corpus,
                                    ["--algorithm", "fixed", "--phrase-len", "5"])
        assert len(records) == len(sentences)
        for rec in records:
            assert rec["score_after"] >= rec["score_before"] - 1e-9

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

    def correct(self, tmp, arpa, idx, lines, algorithm="dp"):
        inp, out = tmp / "in.txt", tmp / "out.jsonl"
        inp.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        code = main(["correct", "--in", str(inp), "--lm", str(arpa), "--index", str(idx),
                     "--algorithm", algorithm, "--k", "3", "--t-pool", "50",
                     "--d-t", "2", "--out", str(out)])
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

    def test_tokenize_lowercases_and_strips_punctuation(self):
        assert tokenize("The cat, IS on the mat!") == \
            ("the", "cat", "is", "on", "the", "mat")
