"""hopfforge benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload certify-deep|identities|cli-cold \
        --seed N --seconds S --trace 0|1

Run from the repository root; hopfforge is imported from ./src, and the
benchmark needs nothing beyond the standard library.  The run is a closed
loop: one operation at a time from this process, repeated in whole rounds
until the next round would end after S seconds (at least one round).

Timings are taken per operation: an operation's time is its median over
the rounds, scaled by the machine's speed during the run as measured by a
probe (README.md explains why).  --trace 0 prints the
end-to-end metrics.  --trace 1 spends half the time on untraced reference
rounds, then wraps hopfforge's layers with spans (spans.py) and prints
per-operation layer figures and the tracing overhead against the
reference.  The last line of standard output is the result object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import spans
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")
SETUP_REPEATS = 3
IMPORT_REPEATS = 3

clock = time.perf_counter

# The speed probe runs between operations, at most this often.
PROBE_EVERY_S = 0.25
# probe()'s time on an uncontended run of this machine, in round figures;
# it sets the scale of the reported times and nothing else.
PROBE_REFERENCE_S = 0.010


def probe() -> float:
    """Time a fixed loop of exact-rational dict updates (no hopfforge).

    Its median time over a run measures how fast the machine ran this
    interpreter during the run; see README.md, "Metrics".
    """
    t0 = clock()
    acc: dict = {}
    step = Fraction(3, 7)
    for i in range(4000):
        key = (i % 13, i % 7)
        acc[key] = acc.get(key, 0) + step * (i % 11 - 5)
    return clock() - t0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("certify-deep", "identities", "cli-cold"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Outcome:
    """Per-operation latencies, probe times and counts of the rounds run."""

    def __init__(self, nops: int):
        self.latencies: list[list[float]] = [[] for _ in range(nops)]
        self.probes: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.elapsed = 0.0

    def note_mismatch(self, label, exc) -> None:
        if self.correct:
            print(f"MISMATCH {label}: {exc}", file=sys.stderr)
        self.correct = False

    @property
    def scale(self) -> float:
        """Probe reference time over the run's median probe time."""
        return PROBE_REFERENCE_S / statistics.median(self.probes)

    def op_times(self) -> list[float]:
        """Each operation's median time over the rounds run, scaled."""
        return [statistics.median(times) * self.scale
                for times in self.latencies]


def run_rounds(ops, seconds, outcome: Outcome, tracer=None, trace_sink=None):
    """Whole rounds of `ops` until the next would end after `seconds`."""
    start = clock()
    last_probe = None
    while True:
        round_start = clock()
        for i, op in enumerate(ops):
            if last_probe is None or clock() - last_probe >= PROBE_EVERY_S:
                outcome.probes.append(probe())
                last_probe = clock()
            t0 = clock()
            try:
                result = op.run()
            except Exception as exc:          # an operation that errors fails
                outcome.latencies[i].append(clock() - t0)
                outcome.attempted += 1
                outcome.failed += 1
                print(f"ERROR {op.label}: {exc!r}", file=sys.stderr)
                continue
            outcome.latencies[i].append(clock() - t0)
            outcome.attempted += 1
            try:
                if op.check(result) == "failed":
                    outcome.failed += 1
            except (workloads.Mismatch, KeyError, ValueError,
                    TypeError) as exc:
                outcome.note_mismatch(op.label, exc)
            if tracer is not None:
                tracer.end_op(op.hosts)
            if trace_sink is not None:
                trace_sink(result)
            del result                        # one operation's data at a time
        now = clock()
        if (now - start) + (now - round_start) > seconds:
            break
    outcome.probes.append(probe())
    outcome.elapsed += now - start
    return outcome


def import_seconds() -> float:
    """Median wall time of `import hopfforge.cli` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import hopfforge.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, env=workloads.child_env(), check=True,
                             timeout=60)
        times.append(float(out.stdout))
    return statistics.median(times)


def import_profile() -> dict:
    """Median self and cumulative import times from `-X importtime`."""
    runs = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-X", "importtime", "-c",
                              "import hopfforge.cli"], capture_output=True,
                             text=True, env=workloads.child_env(), check=True,
                             timeout=60)
        found = {}
        for line in out.stderr.splitlines():
            m = re.match(r"import time:\s*(\d+) \|\s*(\d+) \|\s*(\S+)", line)
            if m and m.group(3).startswith("hopfforge"):
                found[m.group(3)] = (int(m.group(1)) / 1e6,
                                     int(m.group(2)) / 1e6)
        runs.append(found)
    med = lambda key, i: statistics.median(r.get(key, (0.0, 0.0))[i]
                                           for r in runs)
    out = {f"{m}.import.self_s": med(f"hopfforge.{m}", 0)
           for m in spans.IMPORT_MODULES}
    out["hopfforge.import.total_s"] = med("hopfforge", 1)
    return out


def make_workload(name, seed, traced=False):
    cls = workloads.WORKLOADS[name]
    return cls(seed, traced) if name == "cli-cold" else cls(seed)


def timed_setup(workload) -> float:
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = clock()
        workload.setup()
        times.append(clock() - t0)
    return statistics.median(times)


def central(values) -> float:
    """Median estimate: the mean of the middle fifth of the sorted values.

    The operations of a round have a ladder of costs (kinds x weights), so
    the plain median jumps a whole rung when two neighbouring operations
    swap places; averaging the middle fifth does not.  For 7 operations
    this is the middle three.
    """
    ordered = sorted(values)
    n = len(ordered)
    lo = int(0.4 * n)
    hi = max(-(-3 * n // 5), lo + 1)
    return statistics.fmean(ordered[lo:hi])


def end_to_end(args) -> tuple[Outcome, dict]:
    workload = make_workload(args.workload, args.seed)
    setup_s = import_seconds() + timed_setup(workload)
    outcome = run_rounds(workload.ops, args.seconds, Outcome(len(workload.ops)))
    who = (resource.RUSAGE_CHILDREN if args.workload == "cli-cold"
           else resource.RUSAGE_SELF)
    times = outcome.op_times()
    metrics = {
        "setup_s": (setup_s * outcome.scale, "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_p50_s": (central(times), "s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
    }
    print(f"raw: setup {setup_s:.4g} s; {outcome.attempted} operations in "
          f"{outcome.elapsed:.1f} s; probe median "
          f"{statistics.median(outcome.probes):.4g} s, fastest "
          f"{min(outcome.probes):.4g} s, n={len(outcome.probes)}; "
          f"scale {outcome.scale:.4g}")
    return outcome, metrics


def traced(args) -> tuple[Outcome, dict]:
    """Untraced reference rounds, then traced rounds, half the time each."""
    workload = make_workload(args.workload, args.seed)
    t0 = clock()
    workload.setup()
    budget = max(args.seconds - (clock() - t0), 0.0) / 2
    nops = len(workload.ops)
    reference = run_rounds(workload.ops, budget, Outcome(nops))

    measured = Outcome(nops)
    if args.workload == "cli-cold":
        raw = spans.empty_raw()

        def sink(proc):
            marker = proc.stderr.rfind(spans.TRACE_MARKER)
            spans.merge(raw, json.loads(
                proc.stderr[marker + len(spans.TRACE_MARKER):]))
        ops = make_workload(args.workload, args.seed, traced=True).ops
        run_rounds(ops, budget, measured, trace_sink=sink)
    else:
        tracer = spans.Tracer()
        tracer.install()
        try:
            run_rounds(workload.ops, budget, measured, tracer=tracer)
        finally:
            tracer.remove()
        raw = tracer.raw()
    n = measured.attempted
    metrics = {k: (v, _unit(k)) for k, v in spans.metrics(raw, n).items()}
    metrics.update({k: (v, "s") for k, v in import_profile().items()})
    metrics["trace.op.mean_s"] = (sum(map(sum, measured.latencies)) / n, "s")
    overhead = sum(measured.op_times()) / sum(reference.op_times()) - 1
    metrics["trace.overhead.ratio"] = (overhead, "ratio")

    outcome = Outcome(0)
    outcome.attempted = reference.attempted + measured.attempted
    outcome.failed = reference.failed + measured.failed
    outcome.correct = reference.correct and measured.correct
    return outcome, metrics


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, SRC)
    try:
        import hopfforge
    except ImportError as exc:
        print(f"cannot import hopfforge from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(hopfforge.__file__).startswith(SRC + os.sep):
        print(f"hopfforge was imported from {hopfforge.__file__}, not from "
              f"{SRC}", file=sys.stderr)
        return 2
    try:
        outcome, metrics = (traced if args.trace else end_to_end)(args)
    except workloads.Mismatch as exc:
        print(f"set-up check failed: {exc}", file=sys.stderr)
        return 1
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
