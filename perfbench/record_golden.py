"""Record the golden outputs that the benchmark checks its runs against.

    python3 perfbench/record_golden.py

For each sweep it stores the CSV rows of every radicand any seed can reach
at up to ``workloads.GOLDEN_SECONDS`` of run length, and for each catalogue
role the verdict, exit code and generator hash of every radicand in its
pool, each confirmed by ``verify_report`` on the round-tripped report.  Run it only on a commit
whose outputs are trusted; the file pins them for later commits.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import radfree.cli as cli  # noqa: E402
from radfree import report as rpt  # noqa: E402

import workloads  # noqa: E402


def sweep_rows(spec: workloads.SweepSpec, first: int, last: int) -> list[str]:
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        out = Path(tmp) / "rows.csv"
        code = cli.main(["sweep", "--base", spec.base, "--p", str(spec.p),
                         "--a-min", str(first), "--a-max", str(last),
                         "--format", "csv", "--out", str(out)])
        if code != 0:
            raise SystemExit(f"sweep {spec} exited {code}")
        lines = out.read_text().splitlines()
    if lines[0] != workloads.CSV_HEADER:
        raise SystemExit(f"unexpected CSV header {lines[0]!r}")
    return lines[1:]


def catalogue_entry(base: str, p: int, a: str) -> dict:
    field = rpt.parse_base(base)
    report, code = rpt.analyze(field, p, rpt.parse_kelem(field, a))
    ok, problems = rpt.verify_report(json.loads(rpt.canonical_json(report)))
    if not ok:
        raise SystemExit(f"({base}, {p}, {a}) fails verification: {problems}")
    return {"verdict": report["verdict"], "exit": code,
            "hash": cli._generator_hash(report)}


def main():
    golden: dict = {}
    for name, spec in workloads.SWEEPS.items():
        span = workloads.golden_range(spec)
        first, last = span.start, span.stop - 1
        print(f"{name}: a = {first}..{last}", file=sys.stderr)
        golden[name] = {"base": spec.base, "p": spec.p, "first": first,
                        "last": last, "rows": sweep_rows(spec, first, last)}
    catalogue = {}
    for role, base, p, pool in workloads.CATALOGUE:
        print(f"catalogue {role}: ({base}, {p}, {pool})", file=sys.stderr)
        catalogue[role] = {"base": base, "p": p,
                           "pool": {a: catalogue_entry(base, p, a) for a in pool}}
    golden["catalogue"] = catalogue
    with open(workloads.GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
