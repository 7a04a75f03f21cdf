"""Runs ``phrasefix.cli.main`` invocations in a fresh interpreter and records
their timings; started by ``run.py`` with a job file, never by hand.

    python3 perfbench/worker.py JOB.json

The job names the source tree, the kind of step, its CLI arguments and how
often to repeat them. The worker writes raw ``perf_counter`` intervals, the
host-speed samples and its peak RSS to the job's ``out`` file, and, when
tracing, the spans to the job's ``spans`` file.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from hostspeed import Sampler  # noqa: E402


class _StopAtFirstSentence(BaseException):
    """Ends a set-up probe when ``correct`` reaches its first sentence.
    A BaseException, so the CLI's data-error handler does not catch it."""


def run(job: dict) -> dict:
    sys.path.insert(0, job["src"])
    from phrasefix import cli

    tracer = None
    if job.get("spans"):
        from spans import ROOT, Tracer

        tracer = Tracer()
        tracer.install()

    probe = {"on": False, "calls": []}
    for attr in ("correct_dp", "correct_fixed"):
        inner = getattr(cli, attr)

        def timed(*args, _inner=inner, **kwargs):
            start = time.perf_counter()
            if probe["on"]:
                probe["calls"].append([start, start])
                raise _StopAtFirstSentence
            out = _inner(*args, **kwargs)
            probe["calls"].append([start, time.perf_counter()])
            return out
        setattr(cli, attr, timed)

    main = cli.main
    if tracer is not None:
        def main(argv, _main=cli.main):
            return tracer.call(ROOT, _main, argv)

    ops = []
    probe["on"] = job["kind"] == "setup"
    deadline = time.perf_counter() + job["budget_s"]
    with Sampler(tracer.current if tracer else None) as sampler:
        while len(ops) < job["min_reps"] or (
                len(ops) < job["max_reps"] and time.perf_counter() < deadline):
            probe["calls"] = []
            t0 = time.perf_counter()
            try:
                rc = main(job["argv"])
            except _StopAtFirstSentence:
                rc = 0
            except Exception:  # a crash of the program is a failed operation
                traceback.print_exc()
                rc = -1
            t1 = time.perf_counter()
            ops.append({"rc": rc, "t0": t0, "t1": t1, "calls": probe["calls"]})
    result = {
        "ops": ops,
        "samples": sampler.samples,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        with open(job["spans"], "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts,
                       "missing": tracer.missing}, fh)
    return result


def main(argv) -> int:
    with open(argv[0], encoding="utf-8") as fh:
        job = json.load(fh)
    result = run(job)
    with open(job["out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
