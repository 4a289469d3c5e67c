"""End-to-end and per-layer benchmark of relcore.

    python3 relbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of definable, core, witness, growth, or `all`, which runs each
of the four in its own process and prints a table.  One caller runs the
workload's fixed query list in a closed loop, pass after pass, until S
seconds have passed; every answer is checked.  The last line of standard
output is a JSON object with the keys correct, attempted, failed and
metrics.  With --trace 0 the metrics are the end-to-end ones; with
--trace 1 they are per-layer counts and self times from a traced run.
Every time is scaled to a reference machine speed that is measured during
the run (see `reference_work`).

The program is the relcore package under src/ next to this directory; the
benchmark refuses to run without it.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import resource
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

QUERY_LIMIT_S = 10.0  # about ten times the slowest query at the seed
HARD_LIMIT_S = 140.0  # after this, queries are counted failed without running
SETUP_RUNS = 9  # fresh interpreters timed for setup_s, after one warm-up
SETUP_TIMEOUT_S = 20.0
CALIBRATE_EVERY_S = 0.05  # reference work is timed once per this much query time
REFERENCE_WORK_S = 0.001  # times are scaled to a machine that does the reference work in 1 ms

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "query_p50_ms": "ms",
    "query_tail_ms": "ms",
    "answered_frac": "ratio",
    "peak_rss_mb": "MB",
}


class QueryTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise QueryTimeout()


def load_program():
    if not (SRC / "relcore" / "__init__.py").is_file():
        sys.exit(f"relbench: relcore sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import relcore

    if Path(relcore.__file__).resolve().parent != SRC / "relcore":
        sys.exit(f"relbench: imported relcore from {relcore.__file__}, not from {SRC}")
    import workloads

    return workloads


def reference_work() -> int:
    """Fixed pure-Python work of the kind relcore does (tuples, sets, dicts).

    On a shared host, other tenants can slow a run down by up to half for
    seconds to minutes at a time.  Timing this work between queries tracks
    the speed the queries ran at, and each pass's times are scaled by
    REFERENCE_WORK_S over its mean duration in that pass.
    """
    patterns: dict = {}
    for a, b, c in itertools.product(range(8), repeat=3):
        rank = {v: r for r, v in enumerate(sorted({a, b, c}))}
        pattern = (rank[a], rank[b], rank[c])
        patterns[pattern] = patterns.get(pattern, 0) + 1
    return len(patterns)


def time_reference_work(repeat: int = 1) -> list[float]:
    out = []
    for _ in range(repeat):
        start = time.perf_counter()
        reference_work()
        out.append(time.perf_counter() - start)
    return out


def scale_factor(reference: list[float]) -> float:
    return REFERENCE_WORK_S * len(reference) / sum(reference)


def percentile(ordered: list[float], q: float) -> float:
    """Linear interpolation between closest ranks of a sorted list."""
    pos = q / 100 * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    return percentile(sorted(values), 50.0)


class Pass:
    """One run over the query list: answers, failures, and times scaled to
    the reference speed measured along the way.  `wall` is the scaled time
    spent in queries."""

    def __init__(self, workload, tracer, started: float):
        from relcore.errors import RelcoreError

        self.answers: dict = {}
        self.latencies: list[float] = []
        self.failed: list[str] = []
        self.crashed: list[str] = []
        reference = time_reference_work()
        spent = 0.0
        since_reference = 0.0
        for name, query in workload.queries:
            if time.perf_counter() - started > HARD_LIMIT_S:
                self.failed.append(f"{name}: not run, benchmark time limit reached")
                self.latencies.append(QUERY_LIMIT_S)
                continue
            if tracer is not None:
                tracer.reset_stack()
            latency = QUERY_LIMIT_S  # a failed query misses every latency limit
            t0 = time.perf_counter()
            try:
                signal.setitimer(signal.ITIMER_REAL, QUERY_LIMIT_S)
                try:
                    answer = query()
                    latency = time.perf_counter() - t0
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except QueryTimeout:
                self.failed.append(f"{name}: no answer within {QUERY_LIMIT_S} s")
            except RelcoreError as exc:
                self.failed.append(f"{name}: {type(exc).__name__}: {exc}")
            except Exception as exc:  # a crash is a wrong verdict, not a refusal
                self.failed.append(f"{name}: {type(exc).__name__}")
                self.crashed.append(f"{name}: raised {type(exc).__name__}: {exc}")
            else:
                self.answers[name] = answer
            self.latencies.append(latency)
            took = time.perf_counter() - t0
            spent += took
            since_reference += took
            while since_reference >= CALIBRATE_EVERY_S:
                reference += time_reference_work()
                since_reference -= CALIBRATE_EVERY_S
        self.scale = scale_factor(reference)
        self.latencies = [x * self.scale for x in self.latencies]
        self.wall = spent * self.scale


def settle() -> None:
    """Collect garbage, then exempt the survivors (inputs and reference
    answers) from later collections, so a collection during a query costs
    what the query itself allocated."""
    gc.collect()
    gc.freeze()


class Run:
    """Passes of one workload, their answers checked against the first."""

    def __init__(self, workload, started: float):
        self.workload = workload
        self.started = started
        self.reference: dict = {}
        self.problems: list[str] = []
        self.attempted = 0
        self.failures: list[str] = []

    def run_pass(self, tracer=None) -> Pass:
        settle()
        if tracer is not None:
            tracer.install()
        try:
            p = Pass(self.workload, tracer, self.started)
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.attempted += len(self.workload.queries)
        self.failures += p.failed
        self.problems += p.crashed
        for name, answer in p.answers.items():
            if name not in self.reference:
                self.reference[name] = answer
            elif answer != self.reference[name]:
                self.problems.append(f"{name}: answer differs between passes")
        p.answers = None
        return p

    def out_of_time(self, end: float) -> bool:
        now = time.perf_counter()
        return now >= end or now - self.started > HARD_LIMIT_S

    def verdicts(self) -> None:
        self.problems += self.workload.check(self.reference)


def measure_setup(args) -> tuple[list[float], str]:
    """Time fresh interpreters from launch until the workload's first query
    is ready, scaled by reference work timed just before and after each;
    the first launch only warms the file cache and bytecode."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    times, digests = [], set()
    for i in range(SETUP_RUNS + 1):
        reference = time_reference_work(5)
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            ready, _, _ = select.select([proc.stdout], [], [], SETUP_TIMEOUT_S)
            elapsed = time.perf_counter() - start
            if not ready:
                raise RuntimeError(f"setup took longer than {SETUP_TIMEOUT_S} s")
            out, err = proc.communicate(timeout=SETUP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        words = out.decode().split()
        if proc.returncode != 0 or len(words) != 2 or words[0] != "ready":
            raise RuntimeError(f"setup process failed: {err.decode().strip()[-500:]}")
        digests.add(words[1])
        if i:
            times.append(elapsed * scale_factor(reference + time_reference_work(5)))
    if len(digests) != 1:
        raise RuntimeError(f"setup processes built different inputs: {sorted(digests)}")
    return times, digests.pop()


def end_to_end(run: Run, seconds: float, setup_times: list[float]) -> tuple[dict, str]:
    passes = []
    end = time.perf_counter() + seconds
    while not passes or not run.out_of_time(end):
        passes.append(run.run_pass())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    latencies = sorted(x for p in passes for x in p.latencies)
    q = run.workload.tail
    values = {
        "setup_s": median(setup_times),
        "wall_s": median([p.wall for p in passes]),
        "query_p50_ms": percentile(latencies, 50.0) * 1e3,
        "query_tail_ms": percentile(latencies, q) * 1e3,
        "answered_frac": 1 - len(run.failures) / run.attempted,
        "peak_rss_mb": peak_rss_mb,
    }
    beyond = len(latencies) * (100 - q) / 100
    note = (f"{len(passes)} passes of {len(run.workload.queries)} queries; "
            f"query_tail_ms is p{q:g} of {len(latencies)} latencies, {beyond:.0f} beyond it; "
            f"setup_s is the median of {len(setup_times)} fresh interpreters; "
            f"scaled pass walls {' '.join(f'{p.wall:.3f}' for p in passes)}; "
            f"scale factors {' '.join(f'{p.scale:.3f}' for p in passes)}")
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}, note


def per_layer(run: Run, seconds: float) -> tuple[dict, str]:
    """A counting pass, then untraced and traced passes in turn."""
    end = time.perf_counter() + seconds
    counting = spans.Tracer(count_nodes=True)
    run.run_pass(counting)
    counts = counting.counts()
    untraced, traced, self_times = [], [], []
    while not traced or not run.out_of_time(end):
        if len(untraced) == len(traced):
            untraced.append(run.run_pass().wall)
            continue
        tracer = spans.Tracer(count_nodes=False)
        p = run.run_pass(tracer)
        traced.append(p.wall)
        self_times.append({k: v * p.scale for k, v in tracer.self_times().items()})
        if not run.failures and tracer.counts() != counts:
            run.problems.append("per-layer counts differ between passes of one seed")
    values: dict = dict(counts)
    values[f"{spans.EVALUATE}.nodes"] = counting.nodes
    for key in self_times[0]:
        values[key] = median([s[key] for s in self_times])
    envs = counts[f"{spans.SAMPLE}.envs"]
    calls = counts[f"{spans.FIND_HOM}.calls"]
    values[f"{spans.SAMPLE}.tuples_per_env"] = counts[f"{spans.SAMPLE}.tuples"] / envs if envs else 0.0
    values[f"{spans.FIND_HOM}.found_ratio"] = counts[f"{spans.FIND_HOM}.found"] / calls if calls else 0.0
    values["trace.untraced_wall_s"] = median(untraced)
    values["trace.traced_wall_s"] = median(traced)
    values["trace.overhead_s"] = values["trace.traced_wall_s"] - values["trace.untraced_wall_s"]
    units = spans.metric_units()
    note = f"1 counting pass, {len(traced)} traced and {len(untraced)} untraced passes"
    return {k: {"value": values[k], "unit": units[k][0]} for k in units}, note


def run_one(args) -> int:
    started = time.perf_counter()
    workloads = load_program()
    if args.setup_only:
        workload = workloads.WORKLOADS[args.workload](args.seed)
        print("ready", workload.digest, flush=True)
        return 0
    try:
        setup_times, child_digest = ([], None) if args.trace else measure_setup(args)
    except RuntimeError as exc:
        sys.exit(f"relbench: {exc}")
    workload = workloads.WORKLOADS[args.workload](args.seed)
    run = Run(workload, started)
    if child_digest is not None and child_digest != workload.digest:
        run.problems.append(f"setup processes built inputs {child_digest}, this process {workload.digest}")
    signal.signal(signal.SIGALRM, _alarm)
    if args.trace:
        metrics, note = per_layer(run, args.seconds)
    else:
        metrics, note = end_to_end(run, args.seconds, setup_times)
    run.verdicts()
    print(f"workload={args.workload} seed={args.seed} inputs={workload.digest} trace={args.trace}")
    print(f"  {note}")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    for line in run.failures[:20]:
        print(f"  failed: {line}")
    for line in run.problems[:20]:
        print(f"  WRONG: {line}")
    correct = not run.problems
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": len(run.failures), "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process; a table of their metrics."""
    results, status = {}, 0
    for name in ("definable", "core", "witness", "growth"):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        status = status or proc.returncode
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, ValueError):
            status = status or 1
    metric_names = sorted({m for r in results.values() for m in r["metrics"]})
    print(f"{'metric':44s} " + " ".join(f"{w:>12s}" for w in results))
    for m in metric_names:
        cells = []
        for r in results.values():
            cell = r["metrics"].get(m)
            cells.append(f"{cell['value']:12.6g}" if cell else f"{'-':>12s}")
        unit = next(r["metrics"][m]["unit"] for r in results.values() if m in r["metrics"])
        print(f"{m + ' (' + unit + ')':44s} " + " ".join(cells))
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["definable", "core", "witness", "growth", "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
