"""The benchmark's workloads: two CLI sweeps and a catalogue of instances.

Each workload is a closed loop with one caller: every call into radfree
waits for the previous one, in one process and one thread.  The seed picks
the inputs; radfree receives only those inputs.  A sweep re-verifies the
round-tripped reports of a sample of rows after each of its calls, outside
the timers; after the timed phase every output is checked against the golden
records in ``golden.json`` (made by ``record_golden.py``).
"""

from __future__ import annotations

import json
import math
import random
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import radfree.cli as cli
import sympy
from radfree import report as rpt

GOLDEN = Path(__file__).resolve().parent / "golden.json"
CSV_HEADER = "a,tame,verdict,generator_hash"
CHUNK = 100            # radicands per `radfree sweep` call
GOLDEN_SECONDS = 20    # golden.json covers every radicand any seed sweeps
                       # at up to this --seconds


@dataclass(frozen=True)
class SweepSpec:
    base: str
    p: int
    window: int          # the start radicand is 2 + a seeded draw below this
    per_second: int      # radicands swept per second of --seconds
    verify_every: int    # re-verify every n-th radicand that all seeds sweep


SWEEPS = {
    "sweep-q": SweepSpec("Q", 3, 100, 180, 5),
    "sweep-qsqrt": SweepSpec("Qsqrt-5", 3, 50, 40, 3),
}

# (role, base, p, pool): the seed picks one radicand per role; seed 0 takes
# the first of each pool.  Every (base, p) is distinct, so each instance
# meets cold caches.
CATALOGUE = (
    ("worked-free", "Q", 3, ("10", "17", "26")),
    ("class-obstruction", "Qsqrt-5", 3, ("10", "26", "44")),
    ("congruence-q", "Q", 11, ("364", "848", "1332")),
    ("congruence-quadratic", "Qsqrt-3", 5, ("51", "76", "176", "201")),
    ("free-large-p", "Q", 31, ("962", "24026", "31714", "35558")),
    ("wild-q", "Q", 101, ("3", "2", "5", "6", "7")),
    ("wild-quadratic", "Qsqrt-1", 11, ("2", "5", "6", "7")),
    ("free-quadratic", "Qsqrt-7", 3, ("10", "17", "26")),
)

WORKLOADS = ("sweep-q", "sweep-qsqrt", "catalogue")


# ---------------------------------------------------------------------------
# Helpers

PERCENTILES = (50, 90, 95, 99, 99.9)


def _rank(q: float, n: int) -> int:
    """1-based nearest rank of percentile q among n samples, in exact
    arithmetic so that 99.9% of 10000 is rank 9990."""
    return max(1, math.ceil(Fraction(str(q)) * n / 100))


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile; n - rank samples lie beyond it."""
    data = sorted(samples)
    return data[_rank(q, len(data)) - 1]


def tail_percentile(n: int) -> float | None:
    """The highest of PERCENTILES with at least 10 of n samples beyond it."""
    ok = [q for q in PERCENTILES if n - _rank(q, n) >= 10]
    return max(ok) if ok else None


def report_bytes(report: dict) -> int:
    """Size of the canonical JSON without the wall-clock ``timing`` field."""
    body = {k: v for k, v in report.items() if k != "timing"}
    return len(rpt.canonical_json(body).encode())


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def clear_caches():
    """Empty every functools cache in radfree and sympy's cache, so that a
    second pass starts cold."""
    sympy.core.cache.clear_cache()
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "radfree" or name.startswith("radfree.")):
            for val in vars(mod).values():
                clear = getattr(val, "cache_clear", None)
                if callable(clear):
                    clear()


def untraced(tracer):
    """Context in which the benchmark's own checks stay out of the trace."""
    return tracer.paused() if tracer else nullcontext()


def load_golden() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


def golden_range(spec: SweepSpec) -> range:
    """The radicands golden.json records for a sweep: every start a seed can
    draw, swept for GOLDEN_SECONDS."""
    return range(2, 2 + spec.window + spec.per_second * GOLDEN_SECONDS - 1)


def _same_inputs(golden: dict, base: str, p: int):
    if (golden["base"], golden["p"]) != (base, p):
        raise ValueError("golden.json was recorded for other inputs; "
                         "run record_golden.py")


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


# ---------------------------------------------------------------------------
# Sweeps

class Sweep:
    """`radfree sweep` over consecutive radicands, CHUNK at a time, each call
    with its own --out and --checkpoint."""

    def __init__(self, name: str, seed: int, seconds: int, workdir: Path):
        self.name = name
        self.spec = spec = SWEEPS[name]
        self.start = 2 if seed == 0 else 2 + _rng(name, seed).randrange(spec.window)
        self.count = spec.per_second * seconds
        self.workdir = workdir
        self.attempted = self.count
        self.problems: list[str] = []
        self.chunks: list[tuple[int, int, object]] = []   # lo, hi, exit code
        self.latencies: list[float] = []
        self.reports: dict[int, dict] = {}                  # sampled, not yet verified
        self.verified: dict[int, tuple[bool, str]] = {}
        self.wall_s = self.verify_s = 0.0
        self.report_bytes = 0

    def describe(self) -> str:
        s = self.spec
        return (f"{self.name}: K = {s.base}, p = {s.p}, "
                f"a = {self.start}..{self.start + self.count - 1}")

    def _paths(self, lo: int) -> tuple[Path, Path]:
        return self.workdir / f"rows-{lo}.csv", self.workdir / f"ck-{lo}.json"

    def timed_phase(self, tracer=None):
        spec, last = self.spec, self.start + self.count - 1
        # the same sample for every seed, so that verify_s and report_bytes
        # do not depend on where the seed starts the sweep; a sweep too short
        # to overlap every other one samples its own range
        shared = range(spec.window + 1, self.count + 2)
        if not shared:
            shared = range(self.start, last + 1)
        sample = {a for a in shared if a % spec.verify_every == 0}
        self.workdir.mkdir(parents=True)
        analyze = cli.analyze

        def timed_analyze(*args, **kwargs):
            t = time.perf_counter()
            out = analyze(*args, **kwargs)
            self.latencies.append(time.perf_counter() - t)
            a = args[2] if len(args) > 2 else kwargs["a"]
            if int(a.x) in sample:
                self.reports[int(a.x)] = out[0]
            return out

        cli.analyze = timed_analyze
        try:
            for lo in range(self.start, last + 1, CHUNK):
                hi = min(lo + CHUNK - 1, last)
                out, ck = self._paths(lo)
                argv = ["sweep", "--base", spec.base, "--p", str(spec.p),
                        "--a-min", str(lo), "--a-max", str(hi), "--format", "csv",
                        "--out", str(out), "--checkpoint", str(ck)]
                t = time.perf_counter()
                try:
                    code = cli.main(argv)
                except Exception:
                    code = traceback.format_exc()
                self.wall_s += time.perf_counter() - t
                self.chunks.append((lo, hi, code))
                # verified here, between timed calls, so that verify_s spans
                # the same stretch of time as wall_s
                with untraced(tracer):
                    self._reverify(lo, hi)
        finally:
            cli.analyze = analyze
        self.peak_rss_mb = peak_rss_mb()

    def check(self) -> int:
        """Number of radicands whose row, golden record and sampled
        re-verification all agree."""
        golden = load_golden()[self.name]
        _same_inputs(golden, self.spec.base, self.spec.p)
        expected = {int(line.split(",")[0]): line for line in golden["rows"]}
        covered = range(golden["first"], golden["last"] + 1)
        verified = self.verified
        passed = 0
        for lo, hi, code in self.chunks:
            out, ck = self._paths(lo)
            lines = out.read_text().splitlines() if out.exists() else []
            chunk_ok = code == 0 and lines[:1] == [CSV_HEADER]
            if not chunk_ok:
                self.problems.append(f"a = {lo}..{hi}: exit {code}, header {lines[:1]}")
            rows = {int(line.split(",")[0]): line for line in lines[1:]}
            # the checkpoint follows the last row written; p-th powers
            # after it write no row
            resume = max(rows, default=lo - 1) + 1
            if not ck.exists() or json.loads(ck.read_text()).get("next_a") != resume:
                chunk_ok = False
                self.problems.append(f"a = {lo}..{hi}: checkpoint not at {resume}")
            for a in range(lo, hi + 1):
                ok = chunk_ok
                if a not in covered:
                    ok = False
                    self.problems.append(
                        f"a = {a}: beyond golden.json, which covers a = {covered.start}.."
                        f"{covered.stop - 1} (--seconds <= {GOLDEN_SECONDS})")
                elif rows.get(a) != expected.get(a):
                    ok = False
                    self.problems.append(
                        f"a = {a}: row {rows.get(a)!r}, golden {expected.get(a)!r}")
                if a in verified and verified[a] != (True, rows.get(a)):
                    ok = False
                    self.problems.append(f"a = {a}: row {rows.get(a)!r}, "
                                         f"round-tripped report {verified[a]}")
                passed += ok
        return passed

    def _reverify(self, lo: int, hi: int):
        """verify_report on the round-tripped report of each sampled radicand
        in lo..hi; records whether it verified and the CSV row it implies."""
        for a in range(lo, hi + 1):
            report = self.reports.pop(a, None)
            if report is None:
                continue
            loaded = json.loads(rpt.canonical_json(report))
            self.report_bytes += report_bytes(report)
            t = time.perf_counter()
            try:
                ok, problems = rpt.verify_report(loaded)
            except Exception:
                ok, problems = False, [traceback.format_exc()]
            self.verify_s += time.perf_counter() - t
            if not ok:
                self.problems.append(f"a = {a}: verify_report: {problems}")
            self.verified[a] = (ok, cli._sweep_row(str(a), loaded))

    def metrics(self) -> dict[str, float]:
        rows = len(self.latencies)
        return {
            "wall_s": self.wall_s,
            "rows_per_s": rows / self.wall_s,
            "row_p50_ms": 1000 * statistics.median(self.latencies),
            "row_p95_ms": 1000 * percentile(self.latencies, 95),
            "analyze_s": math.fsum(self.latencies),
            "verify_s": self.verify_s,
            "report_bytes": self.report_bytes,
            "peak_rss_mb": self.peak_rss_mb,
        }

    def samples(self) -> int:
        return len(self.latencies)


# ---------------------------------------------------------------------------
# Catalogue

class Catalogue:
    """One instance per role: analyze, serialize, parse back, verify.  The
    list runs `passes` times, every pass from cold caches and the second in
    reverse order; an instance's latency is its mean over the passes."""

    PASSES = 2

    def __init__(self, name: str, seed: int, seconds: int, workdir: Path,
                 passes: int = PASSES):
        rng = _rng(name, seed)
        self.name = name
        self.instances = [(role, base, p, pool[0] if seed == 0 else rng.choice(pool))
                          for role, base, p, pool in CATALOGUE]
        self.passes = passes
        self.attempted = len(self.instances) * passes
        self.problems: list[str] = []
        self.results: list[dict] = []     # one per instance and pass
        self.wall_s = 0.0

    def describe(self) -> str:
        return (f"catalogue, {self.passes} pass(es): "
                + ", ".join(f"({b}, {p}, {a})" for _, b, p, a in self.instances))

    def timed_phase(self, tracer=None):
        order = list(range(len(self.instances)))
        for n in range(self.passes):
            if n:
                with untraced(tracer):
                    clear_caches()
            for i in (order if n % 2 == 0 else order[::-1]):
                self.results.append(self._round_trip(i, tracer))
        self.peak_rss_mb = peak_rss_mb()

    def _round_trip(self, i: int, tracer) -> dict:
        role, base, p, a = self.instances[i]
        res = {"index": i}
        t0 = time.perf_counter()
        try:
            with tracer.span("bench.instance") if tracer else nullcontext():
                field = rpt.parse_base(base)
                report, code = rpt.analyze(field, p, rpt.parse_kelem(field, a))
                t1 = time.perf_counter()
                loaded = json.loads(rpt.canonical_json(report))
                t2 = time.perf_counter()
                ok, problems = rpt.verify_report(loaded)
            t3 = time.perf_counter()
        except Exception:
            self.wall_s += time.perf_counter() - t0
            res["error"] = traceback.format_exc()
            return res
        self.wall_s += t3 - t0
        with untraced(tracer):
            size = report_bytes(report)
        res.update(analyze_s=t1 - t0, verify_s=t3 - t2, total_s=t3 - t0,
                   verdict=report["verdict"], exit=code,
                   hash=cli._generator_hash(report), loaded_verdict=loaded["verdict"],
                   verified=ok, verify_problems=problems, bytes=size)
        return res

    def check(self) -> int:
        golden = load_golden()["catalogue"]
        passed = 0
        for res in self.results:
            role, base, p, a = self.instances[res["index"]]
            _same_inputs(golden[role], base, p)
            want = golden[role]["pool"][a]
            got = {k: res.get(k) for k in ("verdict", "exit", "hash")}
            ok = ("error" not in res and res["verified"] and got == want
                  and res["loaded_verdict"] == res["verdict"])
            if not ok:
                self.problems.append(f"{role} ({base}, {p}, {a}): got {got}, golden "
                                     f"{want}, verified {res.get('verified')} "
                                     f"{res.get('verify_problems') or res.get('error')}")
            passed += ok
        return passed

    def metrics(self) -> dict[str, float]:
        done = [r for r in self.results if "error" not in r]
        per_instance: dict[int, list[float]] = {}
        for r in done:
            per_instance.setdefault(r["index"], []).append(r["total_s"])
        latencies = [statistics.fmean(t) for t in per_instance.values()]
        return {
            "wall_s": self.wall_s,
            "rows_per_s": len(done) / self.wall_s,
            "row_p50_ms": 1000 * statistics.median(latencies),
            "row_p95_ms": 1000 * percentile(latencies, 95),
            "analyze_s": math.fsum(r["analyze_s"] for r in done),
            "verify_s": math.fsum(r["verify_s"] for r in done),
            # the reports are the same on every pass; count one pass
            "report_bytes": sum({r["index"]: r["bytes"] for r in done}.values()),
            "peak_rss_mb": self.peak_rss_mb,
        }

    def samples(self) -> int:
        return len({r["index"] for r in self.results if "error" not in r})


def make(name: str, seed: int, seconds: int, workdir: Path, traced_run: bool = False):
    if name in SWEEPS:
        return Sweep(name, seed, seconds, workdir)
    if name == "catalogue":
        # a traced run makes a traced and an untraced pass over the same
        # inputs; one pass each keeps it well inside the wall-clock limit
        return Catalogue(name, seed, seconds, workdir, 1 if traced_run else Catalogue.PASSES)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
