"""Tests of the benchmark's own code: span arithmetic, the percentile rule,
wrapper installation and removal, and the correctness check.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import cProfile
import pstats
import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import radfree.cli as cli  # noqa: E402
import sympy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def test_self_time_on_synthetic_span_tree():
    # root [0, 10] -> a [1, 4], b [5, 9] -> a [6, 8];  c [20, 30] -> c [21, 25]
    names = ["root", "a", "b", "a", "c", "c"]
    starts = [0.0, 1.0, 5.0, 6.0, 20.0, 21.0]
    ends = [10.0, 4.0, 9.0, 8.0, 30.0, 25.0]
    parents = [-1, 0, 0, 2, -1, 4]
    stats = tracing.layer_stats(names, starts, ends, parents)
    assert stats["root"] == {"calls": 1, "self_s": 3.0, "total_s": 10.0}
    assert stats["a"] == {"calls": 2, "self_s": 5.0, "total_s": 5.0}
    assert stats["b"] == {"calls": 1, "self_s": 2.0, "total_s": 4.0}
    # a layer that calls itself: self times add up, total counts the outer span
    assert stats["c"] == {"calls": 2, "self_s": 10.0, "total_s": 10.0}
    # self times of all spans sum to the root durations
    assert sum(s["self_s"] for s in stats.values()) == 20.0


def test_trace_ids_follow_rows():
    tr = tracing.Tracer()
    with tr.span("cli.main"):
        for _ in range(2):
            with tr.span("report.analyze"):
                with tr.span("radical.tameness_test"):
                    pass
    with tr.span("bench.instance"):
        with tr.span("report.analyze"):
            pass
        with tr.span("report.verify_report"):
            with tr.span("report.analyze"):
                pass
    assert tr.parents == [-1, 0, 1, 0, 3, -1, 5, 5, 7]
    assert tr.trace_ids == [0, 1, 1, 3, 3, 5, 5, 5, 5]


def test_paused_tracer_records_nothing():
    from radfree import basefield, lattices
    tr = tracing.Tracer()
    tr.install()
    try:
        one = basefield.BaseField.rationals().one()
        with tr.paused():
            lattices.hnf([[2]], 1)
            one * one
        assert tr.names == [] and tr.counts["basefield.KElem.mul"] == [0]
        lattices.hnf([[2]], 1)
        one * one
        assert tr.names == ["lattices.hnf"]
        assert tr.counts["basefield.KElem.mul"] == [1]
    finally:
        tr.uninstall()


@pytest.mark.parametrize("n, level", [
    (19, None), (20, 50), (99, 50), (100, 90), (199, 90), (200, 95),
    (999, 95), (1000, 99), (9999, 99), (10000, 99.9)])
def test_tail_percentile_has_ten_samples_beyond(n, level):
    assert workloads.tail_percentile(n) == level


def test_percentile_is_nearest_rank():
    data = list(range(1, 201))
    assert workloads.percentile(data, 95) == 190
    assert sum(x > workloads.percentile(data, 95) for x in data) == 10
    assert workloads.percentile(data, 50) == 100
    assert workloads.percentile([7.0], 95) == 7.0


def test_catalogue_latency_is_the_mean_over_passes():
    cat = workloads.Catalogue("catalogue", 0, 1, Path("unused"))
    n = len(cat.instances)
    assert cat.attempted == 2 * n
    # pass 1 takes i + 1 seconds for instance i, pass 2 (reversed) i + 3
    cat.results = [{"index": i, "total_s": i + 1.0, "analyze_s": 1.0, "verify_s": i,
                    "bytes": 10} for i in range(n)]
    cat.results += [{"index": i, "total_s": i + 3.0, "analyze_s": 1.0, "verify_s": i,
                     "bytes": 10} for i in reversed(range(n))]
    cat.wall_s, cat.peak_rss_mb = 1.0, 1.0
    m = cat.metrics()
    assert cat.samples() == n
    assert m["row_p50_ms"] == 1000 * statistics.median(i + 2.0 for i in range(n))
    assert m["row_p95_ms"] == 1000 * (n + 1.0)
    assert m["rows_per_s"] == 2 * n
    assert m["analyze_s"] == 2 * n
    assert m["report_bytes"] == 10 * n


def _bindings():
    """Every attribute a tracer may rebind: radfree module globals, the
    methods of the traced classes and sympy.factorint."""
    snap = {}
    for name, mod in sys.modules.items():
        if mod is not None and (name == "radfree" or name.startswith("radfree.")):
            snap.update({(name, k): v for k, v in vars(mod).items()})
            for k, v in vars(mod).items():
                if isinstance(v, type) and v.__module__ == name:
                    snap.update({(name, k, m): d for m, d in vars(v).items()})
    snap["sympy.factorint"] = sympy.factorint
    return snap


def _traced_sweep(tracer, lo, hi, tmp_path):
    argv = ["sweep", "--p", "3", "--a-min", str(lo), "--a-max", str(hi),
            "--out", str(tmp_path / "rows.csv")]
    if tracer is not None:
        tracer.install()
    try:
        assert cli.main(argv) == 0
    finally:
        if tracer is not None:
            tracer.uninstall()


def test_wrappers_cover_every_import_and_are_removed(tmp_path):
    import radfree.freeness as freeness
    import radfree.report as report
    before = _bindings()
    originals = (report.criterion_check, cli.analyze, freeness.verify_generator)
    tr = tracing.Tracer()
    tr.install()
    try:
        assert not tr.missing
        assert report.criterion_check is not originals[0]
        assert cli.analyze is not originals[1]
        assert freeness.verify_generator is not originals[2]
        assert cli.analyze is report.analyze
    finally:
        tr.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


def test_traced_counts_match_the_profiler(tmp_path):
    """Each wrapper sees every call: its count equals cProfile's count of
    calls into the original function, made on an untraced run."""
    tr = tracing.Tracer()
    _traced_sweep(tr, 2, 60, tmp_path)
    counts = tr.metrics()

    prof = cProfile.Profile()
    prof.enable()
    _traced_sweep(None, 2, 60, tmp_path)
    prof.disable()
    stats = pstats.Stats(prof).stats

    def profiled(fn):
        code = fn.__code__
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        callers = stats.get(key, (0, 0, 0, 0, {}))[4]
        # calls from inside sympy do not go through the rebound name
        return sum(c[1] for caller, c in callers.items() if "sympy" not in caller[0])

    for mod, path in tracing.LAYERS:
        home = tracing._module(mod)
        obj = home
        for part in path.split("."):
            obj = getattr(obj, part)
        if isinstance(obj, type):
            # generated __init__ methods all share one profiler key; the
            # class's __post_init__ runs once per construction
            obj = obj.__post_init__
        assert counts[f"{mod}.{path}.calls"] == profiled(obj), f"{mod}.{path}"
    assert counts["report.analyze.calls"] > 0
    assert counts["basefield.KElem.mul.calls"] > 0


@pytest.fixture(scope="module")
def swept(tmp_path_factory):
    """A one-second sweep-q run from a = 2, timed phase done, not checked."""
    work = workloads.make("sweep-q", 0, 1, tmp_path_factory.mktemp("sweep") / "run")
    work.timed_phase()
    return work


def test_check_counts_a_golden_mismatch_as_failed(swept, monkeypatch):
    work = swept
    work.problems.clear()
    assert work.check() == work.attempted
    golden = workloads.load_golden()
    rows = golden["sweep-q"]["rows"]
    rows[0] = rows[0].replace("wild", "free")
    monkeypatch.setattr(workloads, "load_golden", lambda: golden)
    assert work.check() == work.attempted - 1
    assert any("golden" in p for p in work.problems)


def test_rows_beyond_the_golden_records_fail(swept, monkeypatch):
    work = swept
    work.problems.clear()
    golden = workloads.load_golden()
    golden["sweep-q"]["last"] = 100
    monkeypatch.setattr(workloads, "load_golden", lambda: golden)
    # the sweep covers a = 2..181; 101..181 have no golden record
    assert work.check() == work.attempted - 81
    assert any("beyond golden.json" in p for p in work.problems)


def test_golden_records_cover_the_longest_run():
    golden = workloads.load_golden()
    for name, spec in workloads.SWEEPS.items():
        span = workloads.golden_range(spec)
        assert (golden[name]["first"], golden[name]["last"]) == (span.start, span.stop - 1)


def test_a_layer_that_tracing_cannot_find_fails_the_run(monkeypatch, capsys):
    import json

    import run
    monkeypatch.setattr(tracing, "LAYERS", tracing.LAYERS + (("report", "no_such_layer"),))
    code = run.main(["--workload", "sweep-q", "--seed", "0", "--seconds", "1",
                     "--trace", "1"])
    captured = capsys.readouterr()
    result = json.loads(captured.out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 180
    assert "report.no_such_layer" in captured.err


def test_a_run_that_reaches_the_wall_clock_limit_fails(monkeypatch, capsys):
    import json
    import time

    import run
    # leave the run one second for its timed phase
    monkeypatch.setattr(run, "LIMIT_S", time.monotonic() - run.STARTED + 1)
    code = run.main(["--workload", "sweep-q", "--seed", "1", "--seconds", "5",
                     "--trace", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 900
    assert cli.analyze is sys.modules["radfree.report"].analyze
