#!/usr/bin/env python3
"""Benchmark of sweedler: run one workload and print its metrics.

    python3 perfbench/run.py --workload hopf_solve --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.  The
workload runs in this one single-threaded process as a closed loop with one
client: each job is a call of ``sweedler.cli.main(argv)`` with its output
captured, and the next job starts when the previous one has returned.  A
round is the workload's fixed list of jobs; the run repeats whole rounds while
the next one fits in ``--seconds`` (at least one).  After each job its exit
code and output are checked (untimed).  Times are scaled to a reference
machine speed measured throughout the run (speed.py).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends the first
half of the time on untraced rounds and the rest on traced rounds, and reports
the per-layer metrics of the traced rounds; the spans are written to
``perfbench/out/trace-<workload>.jsonl``.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
from speed import Speedometer  # noqa: E402
from workloads import WORKLOADS, Result  # noqa: E402


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def fresh_import():
    """Import the program as a new process would, dropping any earlier copy."""
    for name in [n for n in sys.modules if n == "sweedler" or n.startswith("sweedler.")]:
        del sys.modules[name]
    cli = importlib.import_module("sweedler.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"sweedler was imported from {cli.__file__}, not from {SRC}")
    return cli


def set_up(workload: str, seed: int):
    """One set-up: import the program, build its argument parser and write the
    seeded input documents.  Returns the cli module and the round's phases."""
    cli = fresh_import()
    cli.build_parser()
    if workload == "cli_mix":
        phases = WORKLOADS[workload](seed, ROOT / "tests" / "fixtures")
    else:
        phases = WORKLOADS[workload](seed)
    return cli, phases


def run_job(cli, job):
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(job.argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a crash of the program is a failed operation
        code = 1
        err.write(f"{type(exc).__name__}: {exc}")
    end = perf_counter()
    stdout = out.getvalue()
    text = stdout
    if job.output and code == 0:
        text = Path(job.output).read_text()
    return Result(code, stdout, text), (start, end), err.getvalue()


class Runner:
    """Runs set-ups and rounds, recording raw (start, end) stamps; ``finish``
    turns them into speed-scaled seconds once sampling has stopped."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.setup_stamps: list[tuple] = []
        self.cli = self.phases = None
        self.tracer = None
        self.speed = Speedometer()
        self.keep_outputs = False     # for the traced run's byte comparison
        self.jobs_run = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def set_up(self) -> None:
        gc.collect()
        start = perf_counter()
        self.cli, self.phases = set_up(self.workload, self.seed)
        self.setup_stamps.append((start, perf_counter()))

    def round(self) -> dict:
        state = {"documents": self.cli.docs}
        stamps, tags, outputs = [], [], []
        span_start = len(self.tracer.spans) if self.tracer else 0
        for phase in self.phases:
            for job in phase(state):
                # each job starts without the previous one's garbage, as in a
                # fresh process: that keeps peak_rss_mib apart from job order
                gc.collect()
                if self.tracer:
                    self.tracer.job = self.jobs_run
                    self.tracer.on = True
                res, stamp, err = run_job(self.cli, job)
                if self.tracer:
                    self.tracer.on = False
                self.jobs_run += 1
                self.attempted += 1
                stamps.append(stamp)
                tags.append(job.tag)
                if self.keep_outputs:
                    outputs.append((res.code, res.stdout, res.text))
                argv = " ".join(job.argv)
                if res.code != job.expect:
                    self.failed += 1
                    log(f"failed: sweedler {argv}: exit {res.code}, documented {job.expect} "
                        f"{err.strip()[:200]}")
                    continue
                try:
                    message = job.check(res, state) if job.check else None
                except Exception as exc:  # an unreadable output is a wrong output
                    message = f"{type(exc).__name__}: {exc}"
                if message:
                    self.errors.append(f"sweedler {argv}: {message}")
        span_end = len(self.tracer.spans) if self.tracer else 0
        return {"stamps": stamps, "tags": tags, "outputs": outputs,
                "spans": (span_start, span_end)}

    def rounds(self, deadline: float, set_up_between: bool) -> list[dict]:
        """Whole rounds while the next one is expected to end by the deadline.

        With ``set_up_between`` the set-up is repeated (untimed for the jobs)
        before each further round, so that set-up is sampled across the run
        rather than in one burst of machine noise at its start."""
        done = []
        while True:
            start = perf_counter()
            done.append(self.round())
            took = perf_counter() - start
            log(f"round {len(done)}: {took:.3f} s with checks")
            if perf_counter() + took > deadline:
                return done
            if set_up_between:
                self.set_up()

    def finish(self, rounds: list[dict]) -> list[float]:
        """Stop sampling; give each round its scaled job times and wall, and
        return the scaled set-up times."""
        self.speed.stop()
        for r in rounds:
            r["times"] = [self.speed.scaled(a, b) for a, b in r["stamps"]]
            r["wall"] = sum(r["times"])
        return [self.speed.scaled(a, b) for a, b in self.setup_stamps]


def q_over_f3(rnd: dict) -> float:
    """Time of the Q[C_n] jobs over that of the same commands on F3[C_n]."""
    by_tag = {}
    for tag, t in zip(rnd["tags"], rnd["times"]):
        if tag is not None:
            by_tag[tag] = by_tag.get(tag, 0.0) + t
    q = sum(t for (p, cmd, n), t in by_tag.items() if p == 0 and (3, cmd, n) in by_tag)
    f3 = sum(t for (p, cmd, n), t in by_tag.items() if p == 3 and (0, cmd, n) in by_tag)
    return q / f3


def end_to_end(rounds: list[dict], setup_times: list[float]) -> dict:
    """Medians over the run, of speed-scaled times (see speed.py): wall_s is
    the median round, and p50/p90 are taken over the jobs' median times."""
    per_job = [statistics.median(ts) for ts in zip(*(r["times"] for r in rounds))]
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(r["wall"] for r in rounds),
        "job_s.p50": statistics.median(per_job),
        "job_s.p90": statistics.quantiles(per_job, n=10, method="inclusive")[8],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(runner: Runner, plain: list[dict], traced: list[dict]) -> dict:
    layers = [tracing.layer_metrics(runner.tracer.spans[a:b], a)
              for a, b in (r["spans"] for r in traced)]
    out = tracing.median_metrics(layers)
    out["fields.q_over_f3"] = statistics.median(q_over_f3(r) for r in plain)
    out["trace.overhead_s"] = (statistics.median(r["wall"] for r in traced)
                               - statistics.median(r["wall"] for r in plain))
    return out


def declared(trace: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "sweedler" / "cli.py").is_file():
        log(f"no program source at {SRC / 'sweedler'}: run from the root of a checkout")
        return 2
    sys.path.insert(0, str(SRC))
    units = declared(args.trace)

    work = OUT / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    os.chdir(work)
    runner = Runner(args.workload, args.seed)
    try:
        runner.speed.start()
        for _ in range(SETUP_REPEATS):
            runner.set_up()
        begin = perf_counter()
        if args.trace:
            runner.keep_outputs = True
            plain = runner.rounds(begin + args.seconds / 2, set_up_between=False)
            runner.tracer = tracing.Tracer()
            runner.tracer.install()
            traced = runner.rounds(begin + args.seconds, set_up_between=False)
            runner.finish(plain + traced)
            for r in traced:
                if r["outputs"] != plain[0]["outputs"]:
                    runner.errors.append("an output differs between traced and untraced rounds")
            metrics = per_layer(runner, plain, traced)
            runner.tracer.write(OUT / f"trace-{args.workload}.jsonl")
        else:
            rounds = runner.rounds(begin + args.seconds, set_up_between=True)
            metrics = end_to_end(rounds, runner.finish(rounds))
    finally:
        runner.speed.stop()
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)

    if set(metrics) != set(units):
        log(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
        return 3
    for message in runner.errors[:20]:
        log(f"wrong output: {message}")
    result = {
        "correct": not runner.errors,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
