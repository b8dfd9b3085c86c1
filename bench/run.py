"""Benchmark of the conepersist library.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
src/.  One workload runs per invocation, in a closed loop: one case at a
time, the next as soon as the previous ends, for S seconds.  Every answer
is checked.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; the line before it
carries run details and machine metadata.  With --trace 0 the metrics are
the end-to-end ones.  With --trace 1 the first cases of the seed run once
untraced and once with every library layer wrapped in a span, and the
metrics are the per-layer ones.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
from workloads import WORKLOADS, Case, Refused, WrongAnswer  # noqa: E402

# a guard: a case still running after this long is stopped and counted as
# failed, with the deadline as its latency.  The workloads' budgets keep
# every case far below it (the slowest seen took 5.2 s)
CASE_DEADLINE_S = 15.0
# tracing slows cases down by up to a fifth
TRACED_DEADLINE_S = 2 * CASE_DEADLINE_S
SETUP_REPEATS = 15
# cases generated during set-up, ahead of the measured loop
SETUP_CASES = 400
# run figures reported as end-to-end metrics, beside peak_rss_mb and
# setup_s; the pooled figures move too much between seeds to carry a bound
END_TO_END = ("stratum_p50_ms", "stratum_p90_ms")

MODULES = (
    "rational", "qlinalg", "cone", "exactla", "arrangement", "persist",
    "sites", "interleave", "conv1d", "docio", "checks", "cli",
)


class Deadline(BaseException):
    """Raised in the running case when its deadline passes."""


def _on_alarm(signum, frame):
    raise Deadline


class Library:
    """The conepersist package and its submodules, freshly imported."""

    def __init__(self):
        for name in [n for n in sys.modules if n == "conepersist" or n.startswith("conepersist.")]:
            del sys.modules[name]
        importlib.invalidate_caches()
        self.package = importlib.import_module("conepersist")
        if Path(self.package.__file__).resolve().parent != SRC / "conepersist":
            raise ImportError(f"conepersist imported from {self.package.__file__}, not from {SRC}")
        for m in MODULES:
            setattr(self, m, importlib.import_module(f"conepersist.{m}"))


def set_up(workload_cls, seed: int, workdir: Path):
    """Import the library and generate the inputs, SETUP_REPEATS times;
    keep the last and report the median time."""
    times = []
    for _ in range(SETUP_REPEATS):
        # free the previous copy of the library, which reference cycles keep
        lib = wl = ahead = None
        gc.collect()
        t0 = perf_counter()
        lib = Library()
        wl = workload_cls(lib, seed, workdir)
        ahead = list(itertools.islice(wl.cases, SETUP_CASES))
        times.append(perf_counter() - t0)
    wl.cases = itertools.chain(ahead, wl.cases)
    return lib, wl, statistics.median(times)


# statuses counted in failed; a refusal is a certified answer
FAILED = ("wrong", "error", "deadline")


@dataclass(slots=True)
class Record:
    case: Case
    status: str  # ok, refused, or one of FAILED
    latency: float  # seconds; the deadline for a deadline case
    refusals: int
    detail: str = ""


def run_case(wl, case, deadline: float, tracer=None, index: int = 0) -> Record:
    if tracer is not None:
        tracer.begin_case(index)
    status, refusals, detail = "ok", 0, ""
    t0 = perf_counter()
    try:
        # disarmed inside the try, so an alarm that fires late is caught too
        signal.setitimer(signal.ITIMER_REAL, deadline)
        try:
            refusals = wl.run(case)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Deadline:
        status = "deadline"
    except WrongAnswer as e:
        status, detail = "wrong", str(e)
    except Refused as e:
        status, refusals = "refused", e.draws
    except Exception:
        status, detail = "error", traceback.format_exc(limit=4)
    latency = perf_counter() - t0
    if status == "deadline":
        latency = deadline
        if tracer is not None:
            tracer.drop_case()
    elif tracer is not None:
        tracer.end_case()
    return Record(case, status, latency, refusals, detail)


def run_for(wl, seconds: float) -> tuple[list[Record], float]:
    records = []
    t0 = perf_counter()
    while perf_counter() - t0 < seconds:
        records.append(run_case(wl, next(wl.cases), CASE_DEADLINE_S))
    return records, perf_counter() - t0


def quantile_ms(latencies, q: int) -> float:
    """q-th decile in milliseconds."""
    if len(latencies) < 2:
        return latencies[0] * 1000
    return statistics.quantiles(latencies, n=10, method="inclusive")[q - 1] * 1000


def _geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def figures(records: list[Record], wall: float) -> dict:
    """Every run-level figure, name -> (value, unit).

    The stratum_ figures take the decile within each stratum (tail
    stratum for the 90th percentile) and average across strata
    geometrically, so each input class counts once and the run-to-run mix
    of classes cannot move them.  They take answered cases only: refusals
    and failures have ratios of their own."""
    lat = [r.latency for r in records]
    by_stratum, by_tail = {}, {}
    for r in records:
        if r.status == "ok":
            by_stratum.setdefault(str(r.case.stratum), []).append(r.latency)
            by_tail.setdefault(str(r.case.tail_stratum), []).append(r.latency)
    if not by_stratum:  # no case answered; the run still reports
        by_stratum = by_tail = {"all": lat}
    failed = sum(1 for r in records if r.status in FAILED)
    refusals = sum(r.refusals for r in records)
    draws = refusals + sum(1 for r in records if r.status != "refused")
    return {
        "cases": (len(records), "count"),
        "cases_per_s": (len(records) / wall, "1/s"),
        "case_p50_ms": (quantile_ms(lat, 5), "ms"),
        "case_p90_ms": (quantile_ms(lat, 9), "ms"),
        "stratum_p50_ms": (_geomean(quantile_ms(v, 5) for v in by_stratum.values()), "ms"),
        "stratum_p90_ms": (_geomean(quantile_ms(v, 9) for v in by_tail.values()), "ms"),
        "failed_ratio": (failed / len(records), "ratio"),
        "refusal_ratio": (refusals / draws if draws else 0.0, "ratio"),
    }


def failures(records: list[Record]) -> list[dict]:
    return [
        {"case": r.case.name, "status": r.status, **({"detail": r.detail} if r.detail else {})}
        for r in records
        if r.status in FAILED
    ]


def metadata() -> dict:
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count()
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src_lines = 0
    for path in sorted((SRC / "conepersist").glob("*.py")):
        with open(path, "rb") as f:
            src_lines += sum(1 for _ in f)
    return {
        "python": platform.python_version(),
        "nproc": cpus,
        "cpu_model": cpu_model,
        "commit": _commit(),
        "src_lines": src_lines,
    }


def _commit() -> str:
    """HEAD commit read from .git without running git; 'unknown' outside a
    repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def end_to_end(wl, seconds: float, setup_s: float):
    records, wall = run_for(wl, seconds)
    run = figures(records, wall)
    metrics = {k: run[k] for k in END_TO_END}
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    metrics["setup_s"] = (setup_s, "s")
    return records, run, metrics


def per_layer(wl, lib, stem: Path):
    """Run the first wl.trace_cases cases of the seed untraced, then the
    same cases traced.  The case list does not depend on time, so counts
    repeat exactly between runs of one seed."""
    cases = list(itertools.islice(wl.cases, wl.trace_cases))
    records = [run_case(wl, c, CASE_DEADLINE_S) for c in cases]

    tracer = tracing.Tracer()
    tracing.install(tracer, lib)
    t0 = perf_counter()
    traced = [run_case(wl, c, TRACED_DEADLINE_S, tracer, i) for i, c in enumerate(cases)]
    traced_wall = perf_counter() - t0
    untraced_wall = sum(r.latency for r in records)
    tracer.write(stem)

    run = figures(records, sum(r.latency for r in records))
    metrics = tracing.layer_metrics(tracer)
    metrics["trace.overhead_ratio"] = (traced_wall / untraced_wall if untraced_wall else 1.0, "ratio")
    metrics["trace.dropped_cases"] = (sum(1 for r in traced if r.status == "deadline"), "count")
    for k in ("failed_ratio", "refusal_ratio"):
        metrics[k] = run[k]
    # a traced case must give the same answer as the untraced one
    return records + [r for r in traced if r.status in ("wrong", "error")], run, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "conepersist" / "__init__.py").is_file():
        print(f"bench: no library source at {SRC / 'conepersist'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        lib, wl, setup_s = set_up(WORKLOADS[args.workload], args.seed, workdir)
        if args.trace:
            records, run, metrics = per_layer(wl, lib, OUT / f"trace-{args.workload}")
        else:
            records, run, metrics = end_to_end(wl, args.seconds, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = not any(r.status in ("wrong", "error") for r in records)
    failed = failures(records)
    with open(OUT / f"cases-{args.workload}.json", "w") as f:
        json.dump([[r.case.name, str(r.case.stratum), r.status, r.latency] for r in records], f)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "case_deadline_s": CASE_DEADLINE_S,
        "run": {k: {"value": v, "unit": u} for k, (v, u) in run.items()},
        "failures": failed,
        "machine": metadata(),
    }
    print(json.dumps(info))
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
