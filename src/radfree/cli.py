"""Command-line front end: analyze one instance, sweep a radicand range, or
re-verify a serialized report.

Exit codes: 0 free, 10 not free, 20 wild, 2 input/schema error, 3 resource
bound exceeded.  Sweeps exit 0 on success; verify exits 0 on pass and 1 on a
failed verification.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

from .basefield import DEFAULT_MAX_NORM
from .errors import (DegenerateExtensionError, DomainError, RadfreeError,
                     ResourceLimitError, SchemaError)
from .report import (
    EXIT_INPUT_ERROR,
    EXIT_RESOURCE,
    analyze,
    canonical_json,
    parse_base,
    parse_kelem,
    render_text,
    verify_report,
)

CHECKPOINT_SCHEMA = "radfree-checkpoint/1"


def _max_norm(args) -> int:
    """--max-norm, else RADFREE_MAX_NORM, else the default; must be positive."""
    if args.max_norm is not None:
        bound = args.max_norm
    else:
        env = os.environ.get("RADFREE_MAX_NORM")
        try:
            bound = int(env) if env else DEFAULT_MAX_NORM
        except ValueError:
            raise DomainError(
                f"RADFREE_MAX_NORM must be an integer, got {env!r}") from None
    if bound < 1:
        raise DomainError(f"the norm factorization bound must be positive, got {bound}")
    return bound


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="radfree",
        description="Freeness of rings of integers in tame degree-p radical "
                    "extensions over the associated order")
    sub = ap.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="analyze a single extension K(a^(1/p))")
    pa.add_argument("--base", default="Q", help="Q or Qsqrt<-d> (e.g. Qsqrt-5)")
    pa.add_argument("--p", type=int, required=True, help="odd prime degree")
    pa.add_argument("--a", required=True,
                    help="radicand, 'x+y*w' with w the quadratic integral generator")
    pa.add_argument("--format", choices=("json", "text", "csv"), default="text")
    pa.add_argument("--max-norm", type=int, default=None,
                    help="norm factorization bound (default 2^64; "
                         "env RADFREE_MAX_NORM overrides)")

    ps = sub.add_parser("sweep", help="analyze every radicand in a range")
    ps.add_argument("--base", default="Q")
    ps.add_argument("--p", type=int, required=True)
    ps.add_argument("--a-min", type=int, required=True)
    ps.add_argument("--a-max", type=int, required=True)
    ps.add_argument("--format", choices=("csv", "json"), default="csv")
    ps.add_argument("--out", default=None, help="output file (default stdout)")
    ps.add_argument("--checkpoint", default=None,
                    help="checkpoint file for resumable sweeps (requires --out)")
    ps.add_argument("--max-norm", type=int, default=None)

    pv = sub.add_parser("verify", help="re-verify a serialized analysis report")
    pv.add_argument("report", help="path to a JSON report from analyze")
    return ap


def _cmd_analyze(args) -> int:
    field = parse_base(args.base)
    a = parse_kelem(field, args.a)
    max_norm = _max_norm(args)
    report, code = analyze(field, args.p, a, max_norm)
    if args.format == "json":
        sys.stdout.write(canonical_json(report))
    elif args.format == "csv":
        sys.stdout.write("a,tame,verdict,generator_hash\n")
        sys.stdout.write(_sweep_row(args.a, report) + "\n")
    else:
        sys.stdout.write(render_text(report))
    return code


def _generator_hash(report: dict) -> str:
    gen = report.get("freeness", {}).get("generator")
    if gen is None:
        return ""
    blob = json.dumps(gen["coords"], sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _sweep_row(a_str: str, report: dict) -> str:
    tame = report["tameness"]["tame"]
    return f"{a_str},{str(tame).lower()},{report['verdict']},{_generator_hash(report)}"


def _load_checkpoint(path: str, params: dict) -> int | None:
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        try:
            ck = json.load(fh)
            next_a = int(ck["next_a"])
        except (ValueError, KeyError, TypeError) as exc:
            raise SchemaError(f"checkpoint does not parse: {exc}") from exc
    if ck.get("schema") != CHECKPOINT_SCHEMA:
        raise SchemaError(f"checkpoint schema {ck.get('schema')!r} unsupported")
    if ck.get("params") != params:
        raise SchemaError("checkpoint parameters do not match this sweep")
    return next_a


def _save_checkpoint(path: str, params: dict, next_a: int):
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        json.dump({"schema": CHECKPOINT_SCHEMA, "params": params,
                   "next_a": next_a}, fh, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def _truncate_to_rows_before(path: str, next_a: int):
    """Cut a resumed sweep's output after its last complete line that is the
    CSV header or a row with a < next_a: a kill between flushing a row and
    saving the checkpoint leaves that row, or part of a line, behind."""
    keep = 0
    with open(path, "r+b") as fh:
        for line in fh:
            if not line.endswith(b"\n"):
                break
            if not line.startswith(b"a,"):
                try:
                    a_int = int(json.loads(line)["a"] if line.startswith(b"{")
                                else line.split(b",", 1)[0])
                except (ValueError, KeyError, TypeError) as exc:
                    raise SchemaError(f"cannot resume {path}: a row does not "
                                      f"parse: {exc}") from exc
                if a_int >= next_a:
                    break
            keep += len(line)
        fh.truncate(keep)


def _cmd_sweep(args) -> int:
    field = parse_base(args.base)
    max_norm = _max_norm(args)
    params = {"base": args.base, "p": args.p, "a_min": args.a_min,
              "a_max": args.a_max, "format": args.format, "max_norm": max_norm}
    if args.checkpoint and not args.out:
        raise SchemaError("--checkpoint requires --out")

    start = args.a_min
    if args.checkpoint:
        resumed = _load_checkpoint(args.checkpoint, params)
        if resumed is not None and os.path.exists(args.out):
            start = resumed
            _truncate_to_rows_before(args.out, start)

    mode = "w" if start == args.a_min else "a"
    out = open(args.out, mode) if args.out else sys.stdout
    try:
        if args.format == "csv" and start == args.a_min:
            out.write("a,tame,verdict,generator_hash\n")
        for a_int in range(start, args.a_max + 1):
            try:
                report, _ = analyze(field, args.p, field.elem(a_int), max_norm)
            except DegenerateExtensionError:
                continue     # p-th powers are inadmissible, no row
            if args.format == "csv":
                out.write(_sweep_row(str(a_int), report) + "\n")
            else:
                row = {"a": a_int, "tame": report["tameness"]["tame"],
                       "verdict": report["verdict"],
                       "generator_hash": _generator_hash(report)}
                out.write(json.dumps(row, sort_keys=True) + "\n")
            out.flush()
            if args.checkpoint:
                _save_checkpoint(args.checkpoint, params, a_int + 1)
    finally:
        if args.out:
            out.close()
    return 0


def _cmd_verify(args) -> int:
    with open(args.report) as fh:
        try:
            report = json.load(fh)
        except ValueError as exc:
            raise SchemaError(f"report is not valid JSON: {exc}") from exc
    ok, problems = verify_report(report)
    if ok:
        print("PASS: report verifies against recomputation")
        return 0
    for p in problems:
        print(f"FAIL: {p}", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_verify(args)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (RadfreeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
