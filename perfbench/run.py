"""End-to-end and per-layer benchmark for radfree.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-q --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the same
inputs with every layer wrapped and reports per-layer calls, self time and
total time, then repeats them untraced to give the tracing overhead.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every output checked out.  ``--workload all`` runs each workload in its own
interpreter and prints every metric by name and unit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

STARTED = time.monotonic()
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

LIMIT_S = 170          # wall-clock limit for one run, set-up included
SETUP_RUNS = 5

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("rows_per_s", "1/s"),
    ("row_p50_ms", "ms"),
    ("row_p95_ms", "ms"),
    ("analyze_s", "s"),
    ("verify_s", "s"),
    ("report_bytes", "bytes"),
    ("peak_rss_mb", "MB"),
)


class WallClockLimit(BaseException):
    """The run exceeded LIMIT_S.  A BaseException, so that no handler inside
    the program under test can swallow it."""


@contextmanager
def wall_clock_limit(seconds: float):
    def expire(signum, frame):
        raise WallClockLimit(f"wall-clock limit of {LIMIT_S} s reached")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, max(seconds, 0.001))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def measure_setup() -> float:
    """Median time for a fresh interpreter to import radfree.cli and exit."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    times = []
    for _ in range(SETUP_RUNS):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import radfree.cli"], env=env,
                       cwd=ROOT, check=True, timeout=30)
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def run_one(args) -> int:
    import radfree.cli  # fails fast when the program is absent
    if Path(radfree.cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"radfree imported from {radfree.cli.__file__}, not {SRC}")
    import tracing
    import workloads

    tmp = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    metrics: dict[str, float] = {}
    passed = 0
    try:
        tmp.mkdir(parents=True)
        work = workloads.make(args.workload, args.seed, args.seconds, tmp / "run",
                              traced_run=bool(args.trace))
        print(work.describe(), file=sys.stderr)
        if not args.trace:
            metrics["setup_s"] = measure_setup()
        with wall_clock_limit(LIMIT_S - (time.monotonic() - STARTED)):
            if args.trace:
                tracer = tracing.Tracer()
                tracer.install()
                try:
                    work.timed_phase(tracer)
                finally:
                    tracer.uninstall()
                workloads.clear_caches()
                plain = workloads.make(args.workload, args.seed, args.seconds,
                                       tmp / "plain", traced_run=True)
                plain.timed_phase()
                metrics.update(tracer.metrics())
                metrics["trace.wall_s"] = work.wall_s
                metrics["trace.overhead"] = work.wall_s / plain.wall_s
            else:
                work.timed_phase()
            passed = work.check()
            if args.trace and tracer.missing:
                # a layer that is not wrapped reports 0, which would pass
                # for a faster layer; no operation's trace is complete
                work.problems.append("tracing: layers not found: "
                                     + ", ".join(tracer.missing))
                passed = 0
            if not args.trace and work.samples():
                metrics.update(work.metrics())
        if args.trace:
            out = ROOT / ".perfbench_out"
            out.mkdir(exist_ok=True)
            tracer.write(out / f"spans-{args.workload}-seed{args.seed}.json")
    except WallClockLimit as exc:
        work.problems.append(str(exc))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass            # another run still uses it

    for problem in work.problems[:20]:
        print(f"FAIL: {problem}", file=sys.stderr)
    n = work.samples()
    tail = workloads.tail_percentile(n)
    print(f"{n} rows; highest percentile with 10 rows beyond it: {tail}; "
          f"fail_ratio {(work.attempted - passed) / work.attempted:.4f}",
          file=sys.stderr)
    correct = passed == work.attempted
    units = dict(END_TO_END) | dict(tracing.per_layer_metric_names())
    print(json.dumps({
        "correct": correct,
        "attempted": work.attempted,
        "failed": work.attempted - passed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own interpreter; one table of every metric."""
    import workloads
    status = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=LIMIT_S + 30)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else None
        if proc.returncode or not result or not result["correct"]:
            status = 1
        if not result:
            print(f"{name}: no result (exit {proc.returncode})")
            continue
        print(f"{name}: correct {result['correct']}, attempted {result['attempted']}, "
              f"failed {result['failed']}, "
              f"fail_ratio {result['failed'] / result['attempted']:.4f}")
        for key, m in result["metrics"].items():
            print(f"  {key:<48} {m['value']:>16.6g} {m['unit']}")
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help="sweep-q, sweep-qsqrt, catalogue or all")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
