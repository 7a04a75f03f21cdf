"""phrasefix benchmark: the offline pipeline and both correctors, timed the
way users run them.

    python3 perfbench/run.py --workload suite|wide|build|all \
        --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``. Each workload makes its inputs from the seed, then runs
``phrasefix train-lm``, ``build-index`` and ``correct`` (``--algorithm dp``
and ``fixed``) through ``phrasefix.cli.main`` in fresh interpreters, one
client sending one sentence at a time. Every output is checked with the
benchmark's own parsers and scorer. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``. See README.md for what each number means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import spans as spanlib  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
RUN_LIMIT_S = 170.0
HASH_SEED = "0"

# Per workload: for the repeated steps, the share of --seconds they may use,
# the least number of fresh interpreters they are split over (one process
# can read 10-40% slow in all its repetitions, so each step's figure is the
# median of per-process medians) and the most repetitions per process.
# Set-up is measured once per process: a second load in the same
# interpreter skips first-use work (regex compilation, specialisation) that
# every `phrasefix correct` pays, and reads about 40% low on suite. For
# the correctors, the share and the sentences per `correct` invocation; the
# sentences of the traced run; and `--phrase-len` for the fixed corrector
# (None keeps the default of 7). On wide and build it equals the model order,
# so every phrase is one window and each sentence costs the same number of
# full doc scans; with 7 the recursion's size varies threefold between
# sentences. The shares leave room for interpreter start-up and the checks.
PLAN = {
    "suite": {"train": (0.06, 5, 200), "index": (0.05, 5, 200), "setup": (0.05, 5, 1),
              "dp": (0.62, 8), "fixed": (0.10, 100),
              "trace_dp": 8, "trace_fixed": 100, "lexicon": True, "phrase_len": None},
    "wide": {"train": (0.06, 3, 20), "index": (0.10, 3, 20), "setup": (0.06, 3, 1),
             "dp": (0.60, 8), "fixed": (0.08, 24),
             "trace_dp": 6, "trace_fixed": 24, "lexicon": False, "phrase_len": 3},
    "build": {"train": (0.12, 3, 10), "index": (0.08, 3, 10), "setup": (0.08, 3, 1),
              "dp": (0.56, 16), "fixed": (0.10, 20),
              "trace_dp": 4, "trace_fixed": 20, "lexicon": False, "phrase_len": 4},
}
# Input slices written per corrector; a run uses the first few.
POOL_ROUNDS = 60

END_TO_END = {
    "setup_s": "s", "dp_sentences_per_s": "1/s", "dp_latency_p50_ms": "ms",
    "fixed_sentences_per_s": "1/s", "train_lm_s": "s", "build_index_s": "s",
    "index_file_mb": "MB", "peak_rss_mb": "MB", "dp_ref_recall": "ratio",
    "fixed_ref_recall": "ratio",
}


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.plan = PLAN[workload]
        self.dir = WORK / f"{workload}-{seed}-{'trace' if trace else 'time'}"
        self.start = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.peak_rss = 0.0
        self.jobs = 0
        self.vocabulary: frozenset = frozenset()
        self.info = ""

    # -- inputs ---------------------------------------------------------

    def write_inputs(self):
        if self.dir.exists():
            shutil.rmtree(self.dir)
        self.dir.mkdir(parents=True)
        dp_round, fixed_round = self.plan["dp"][1], self.plan["fixed"][1]
        self.inputs = workloads.GENERATORS[self.workload](
            self.seed, dp_round * POOL_ROUNDS, fixed_round * POOL_ROUNDS)
        inp = self.inputs
        self.corpus = self._write("corpus.txt", inp.corpus)
        self.lexicon = self._write("lexicon.txt", inp.synsets) if self.plan["lexicon"] else None
        self.arpa = self.dir / "model.arpa"
        self.index = self.dir / "phrases.idx"
        self.rounds = {"dp": [], "fixed": []}
        for algo, noisy, refs, size in (("dp", inp.dp_noisy, inp.dp_refs, dp_round),
                                        ("fixed", inp.fixed_noisy, inp.fixed_refs, fixed_round)):
            for r in range(POOL_ROUNDS):
                lines = noisy[r * size:(r + 1) * size]
                path = self._write(f"{algo}-{r:03d}.txt", lines)
                self.rounds[algo].append((path, lines, refs[r * size:(r + 1) * size]))

    def _write(self, name, rows) -> Path:
        path = self.dir / name
        with open(path, "w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(" ".join(row) + "\n")
        return path

    def argv(self, kind, round_path=None, out=None):
        if kind == "train":
            return ["train-lm", "--corpus", str(self.corpus), "--order",
                    str(self.inputs.order), "--out", str(self.arpa)]
        if kind == "index":
            return ["build-index", "--lm", str(self.arpa), "--out", str(self.index)]
        algo = "fixed" if kind == "fixed" else "dp"
        argv = ["correct", "--in", str(round_path), "--lm", str(self.arpa),
                "--index", str(self.index), "--algorithm", algo,
                "--out", str(out or self.dir / "probe.jsonl")]
        if algo == "fixed" and self.plan["phrase_len"]:
            argv += ["--phrase-len", str(self.plan["phrase_len"])]
        return argv + (["--lexicon", str(self.lexicon)] if self.lexicon else [])

    # -- workers --------------------------------------------------------

    def worker(self, kind, argv, budget_s=0.0, min_reps=1, max_reps=1, traced=False) -> dict:
        """Run one step in a fresh interpreter; its raw timings and samples."""
        self.jobs += 1
        job_path = self.dir / f"job-{self.jobs:03d}.json"
        job = {"src": str(SRC), "kind": kind, "argv": argv, "budget_s": budget_s,
               "min_reps": min_reps,
               "max_reps": max_reps, "out": str(self.dir / f"result-{self.jobs:03d}.json"),
               "spans": str(self.dir / f"spans-{self.jobs:03d}.json") if traced else None}
        job_path.write_text(json.dumps(job), encoding="utf-8")
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        remaining = RUN_LIMIT_S - (time.perf_counter() - self.start)
        if remaining <= 0:
            raise TimeoutError("run limit reached before all steps ran")
        subprocess.run([sys.executable, str(HERE / "worker.py"), str(job_path)],
                       env=env, check=True, timeout=remaining, stdin=subprocess.DEVNULL)
        with open(job["out"], encoding="utf-8") as fh:
            result = json.load(fh)
        self.peak_rss = max(self.peak_rss, result["peak_rss_mb"])
        if traced:
            with open(job["spans"], encoding="utf-8") as fh:
                result["trace"] = json.load(fh)
        return result

    def repeated(self, kind, argv):
        """Worker results of one step: at least ``procs`` fresh interpreters,
        each repeating the step up to ``most`` times within its part of the
        step's share of --seconds, and more while the share lasts."""
        share, procs, most = self.plan[kind]
        deadline = time.perf_counter() + share * self.seconds
        results = []
        while len(results) < procs or time.perf_counter() < deadline:
            results.append(self.worker(kind, argv, share * self.seconds / procs, 1, most))
        return results

    def rounds_of(self, algo):
        """Fresh-interpreter `correct` invocations over consecutive slices of
        the input pool, until the step's share of --seconds is used."""
        share = self.plan[algo][0]
        deadline = time.perf_counter() + share * self.seconds
        done = []
        for r, (path, lines, refs) in enumerate(self.rounds[algo]):
            if r > 0 and time.perf_counter() >= deadline:
                break
            out = self.dir / f"{algo}-{r:03d}.jsonl"
            result = self.worker(algo, self.argv(algo, path, out))
            done.append((result, result["ops"][0], out, lines, refs))
        return done

    # -- checks ---------------------------------------------------------

    def count(self, n_ops, errors):
        """Account ``n_ops`` operations; all fail when ``errors`` is set."""
        self.attempted += n_ops
        if errors:
            self.failed += n_ops
            self.errors.extend(errors[:5])

    def check_model(self, train_ops, index_ops):
        arpa = checks.Arpa(self.arpa.read_text(encoding="utf-8"))
        errors = [f"train-lm exited {op['rc']}" for op in train_ops if op["rc"] != 0]
        self.count(len(train_ops), errors or checks.check_arpa(
            arpa, self.inputs.corpus, self.inputs.order, self.seed))
        orders = range(2, arpa.order + 1)  # build-index's default
        errors = [f"build-index exited {op['rc']}" for op in index_ops if op["rc"] != 0]
        if not errors:
            index = checks.IndexFile(self.index.read_text(encoding="utf-8"))
            errors = (checks.check_index(index, arpa, orders, self.seed)
                      + checks.reload_matches(index, self.index))
            self.vocabulary = index.vocabulary
        self.count(len(index_ops), errors)
        self.model = arpa

    def check_round(self, algo, op, out, lines):
        """Check every record of one `correct` invocation; returns outputs."""
        if op["rc"] != 0:
            self.count(len(lines), [f"correct --algorithm {algo} exited {op['rc']}"])
            return None
        with open(out, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        if len(records) != len(lines):
            self.count(len(lines), [f"{len(records)} records for {len(lines)} input lines"])
            return None
        outputs = []
        for record, words in zip(records, lines):
            errors = checks.check_record(record, " ".join(words), self.model, algo,
                                         self.vocabulary)
            self.count(1, errors)
            outputs.append(tuple(record["corrected"].split()))
        return outputs

    # -- the two kinds of run --------------------------------------------

    def timed(self) -> dict:
        sentences = {}

        def norm(result, a, b):
            return hostspeed.normalized(result["samples"], a, b)

        def medians(results, end):
            """Each process's median duration of its repetitions."""
            return [statistics.median(norm(r, op["t0"], end(op)) for op in r["ops"])
                    for r in results]

        train = self.repeated("train", self.argv("train"))
        index = self.repeated("index", self.argv("index"))
        setup = self.repeated("setup", self.argv("setup", self.rounds["dp"][0][0]))
        self.check_model([op for r in train for op in r["ops"]],
                         [op for r in index for op in r["ops"]])
        probes = [op for r in setup for op in r["ops"]]
        reached = all(op["rc"] == 0 and op["calls"] for op in probes)
        self.count(len(probes), [] if reached else ["a set-up probe did not reach its first sentence"])
        # One set-up figure per process: each probe's, then each round's.
        setups = medians(setup, lambda op: op["calls"][0][0]) if reached else []
        metrics = {
            "train_lm_s": statistics.median(medians(train, lambda op: op["t1"])),
            "build_index_s": statistics.median(medians(index, lambda op: op["t1"])),
            "index_file_mb": self.index.stat().st_size / 1e6,
        }
        for algo in ("dp", "fixed"):
            busy, latencies, outs, refs = 0.0, [], [], []
            for result, op, out, lines, round_refs in self.rounds_of(algo):
                outputs = self.check_round(algo, op, out, lines)
                if outputs is None or not op["calls"]:
                    continue
                first = op["calls"][0][0]
                setups.append(norm(result, op["t0"], first))
                busy += norm(result, first, op["t1"])
                latencies += [norm(result, s, e) for s, e in op["calls"]]
                outs += outputs
                refs += round_refs
            if not outs:
                raise RuntimeError(f"no {algo} round completed")
            metrics[f"{algo}_sentences_per_s"] = len(outs) / busy
            metrics[f"{algo}_ref_recall"] = checks.ref_recall(outs, refs)
            if algo == "dp":
                metrics["dp_latency_p50_ms"] = statistics.median(latencies) * 1000.0
            sentences[algo] = len(outs)
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = self.peak_rss
        self.info = (f"samples: dp {sentences['dp']} sentences, fixed {sentences['fixed']}, "
                     f"{len(probes)} set-up probes, {len(setups)} set-up figures, "
                     f"{sum(len(r['ops']) for r in train)} train-lm, "
                     f"{sum(len(r['ops']) for r in index)} build-index")
        return {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()}

    def traced(self) -> dict:
        """Each step once untraced, then once traced, on fixed inputs:
        train-lm, build-index, and both correctors on the first
        ``trace_dp``/``trace_fixed`` sentences of the pool."""
        steps = [("train", self.argv("train"), None), ("index", self.argv("index"), None)]
        for algo in ("dp", "fixed"):
            lines = self.rounds[algo][0][1][:self.plan[f"trace_{algo}"]]
            steps.append((algo, self._write(f"trace-{algo}.txt", lines), lines))
        wall = {False: 0.0, True: 0.0}
        traced, model_ops = [], {"train": [], "index": []}
        for kind, arg, lines in steps:
            for on in (False, True):
                out = self.dir / f"trace-{kind}-{int(on)}.jsonl"
                argv = self.argv(kind, arg, out) if lines else arg
                result = self.worker(kind, argv, traced=on)
                op = result["ops"][0]
                wall[on] += hostspeed.normalized(result["samples"], op["t0"], op["t1"])
                if on:
                    traced.append((kind, result))
                if lines:
                    self.check_round(kind, op, out, lines)
                else:
                    model_ops[kind].append(op)
            if kind == "index":
                self.check_model(model_ops["train"], model_ops["index"])
        layers, errors = per_layer(traced)
        self.errors += errors
        layers["trace.overhead_ratio"] = (wall[True] / wall[False], "ratio")
        self.info = f"traced: dp {len(steps[2][2])} sentences, fixed {len(steps[3][2])}"
        return {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}


# Spans reported as the median duration of one call (`.s`).
IO_SPANS = ("lm.train_counts", "lm.serialize_arpa", "lm.parse_arpa",
            "phrase_index.extract_phrases", "phrase_index.build_index",
            "phrase_index.save_index", "phrase_index.load_index")


def per_layer(results) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced workers' spans and counters.

    Self times and durations are normalized by the host speed measured
    during their root span (one `phrasefix` invocation).
    """
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    durations: dict[str, list[float]] = {}
    counts: dict[str, float] = {}
    errors = []
    for kind, result in results:
        trace, samples = result["trace"], result["samples"]
        spans = trace["spans"]
        for key, value in trace["counts"].items():
            counts[key] = counts.get(key, 0.0) + value
        if trace["missing"]:
            print(f"perfbench: not traced, gone from the program: {trace['missing']}",
                  file=sys.stderr)
        own = spanlib.self_times(spans, samples)
        roots = spanlib.root_of(spans)
        factor = {r: hostspeed.NOMINAL_REF_S / hostspeed.speed(samples, spans[r][1], spans[r][2])
                  for r in set(roots)}
        for i, span in enumerate(spans):
            name = span[0]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own[i] * factor[roots[i]]
            if name in IO_SPANS:
                durations.setdefault(name, []).append(
                    hostspeed.normalized(samples, span[1], span[2]))
        if kind == "dp":
            # The self times of a traced invocation must add up to its wall time.
            op = result["ops"][0]
            wall = op["t1"] - op["t0"]
            inside = sum(own[i] for i in range(len(spans)))
            busy = hostspeed.busy_inside(samples, op["t0"], op["t1"])
            if abs(inside + busy - wall) > 0.05 * wall:
                errors.append(f"self times add up to {inside + busy:.3f} s of {wall:.3f} s")

    def ratio(a, b):
        return a / b if b else 0.0

    def med(name):
        return statistics.median(durations[name]) if name in durations else 0.0

    out = {}
    for name in IO_SPANS:
        out[f"{name}.s"] = (med(name), "s")
    for name in ("lm.score_sequence", "distance.combined_score", "phrase_index.fuzzy_lookup",
                 "phrase_index.retrieve", "substituter.find_best_sub",
                 "substituter.find_k_best_common", "corrector.cross_concat"):
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
        out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    out["lexicon.share_synset.calls"] = (counts.get("SynonymLexicon.share_synset.calls", 0.0), "count")
    out["phrase_index.expand.hit_ratio"] = (1.0 - ratio(
        calls.get("phrase_index.fuzzy_lookup", 0),
        counts.get("PhraseIndex.expand_query_word.calls", 0.0)), "ratio")
    out["phrase_index.retrieve.docs"] = (counts.get("phrase_index.retrieve.docs", 0.0), "count")
    out["phrase_index.union.comparisons"] = (counts.get("phrase_index.union.comparisons", 0.0), "count")
    out["substituter.sub_cache.hit_ratio"] = (1.0 - ratio(
        calls.get("substituter.find_best_sub", 0), counts.get("corrector.sub_calls", 0.0)), "ratio")
    out["substituter.pool.kept_ratio"] = (ratio(
        counts.get("substituter.pool.kept", 0.0), counts.get("substituter.pool.retrieved", 0.0)), "ratio")
    out["corrector.correct_dp.self_s"] = (self_s.get("corrector.correct_dp", 0.0), "s")
    out["corrector.correct_fixed.self_s"] = (self_s.get("corrector.correct_fixed", 0.0), "s")
    out["corrector.split_evals"] = (counts.get("corrector.split_evals", 0.0), "count")
    out["cli.self_s"] = (self_s.get(spanlib.ROOT, 0.0), "s")
    return out, errors


def run_workload(workload, seed, seconds, trace) -> dict:
    run = Run(workload, seed, seconds, trace)
    run.write_inputs()
    metrics = run.traced() if trace else run.timed()
    for err in run.errors:
        print(f"[{workload}] check failed: {err}", file=sys.stderr)
    return {"correct": run.failed == 0 and not run.errors, "attempted": run.attempted,
            "failed": run.failed, "metrics": metrics, "info": run.info}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(PLAN) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "phrasefix" / "cli.py").is_file():
        print(f"perfbench: no phrasefix sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = sorted(PLAN) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = res = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(f"{name}: attempted {res['attempted']}, "
              f"failed {res['failed']}, correct {res['correct']}; {res.pop('info')}")
        for metric, m in res["metrics"].items():
            print(f"  {metric} = {m['value']:.6g} {m['unit']}")
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": v for w, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
