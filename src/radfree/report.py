"""Analysis orchestration and the machine-readable report.

A report is a JSON document that echoes the input, records every intermediate
object of the analysis (tameness data, ramification table, associated ideals
with classes, local bases and generators, freeness certificate, verification
evidence) and is byte-deterministic: exact rationals are serialized as
numerator/denominator decimal-string pairs, ideals as HNF integer matrices,
and wall-clock timing is isolated in the single designated field "timing".
"""

from __future__ import annotations

import json
import re
import time
from fractions import Fraction

from .basefield import (
    DEFAULT_MAX_NORM,
    BaseField,
    KElem,
    KIdeal,
    PrimeIdeal,
    QuadForm,
    class_group,
)
from .dedekind import MaximalityWitness, dedekind_maximality_oracle
from .errors import ResourceLimitError, SchemaError
from .extension import LElem, RadicandContext
from .freeness import criterion_check, verify_generator
from .hopf import class_of_MOL, local_generator
from .integral import (
    field_index_and_discriminant,
    global_integral_basis,
    local_basis,
    poly_discriminant,
)
from .radical import associated_ideals, ramification_type, tameness_test

SCHEMA = "radfree-report/2"

EXIT_FREE = 0
EXIT_INPUT_ERROR = 2
EXIT_RESOURCE = 3
EXIT_NOT_FREE = 10
EXIT_WILD = 20


# ---------------------------------------------------------------------------
# Serialization helpers (exact, no floats)

def frac_json(q: Fraction) -> list[str]:
    return [str(q.numerator), str(q.denominator)]

def _fraction(*args) -> Fraction:
    """Fraction(*args), with a zero denominator or an unparsable string
    reported as a SchemaError."""
    try:
        return Fraction(*args)
    except ZeroDivisionError:
        raise SchemaError(
            f"zero denominator in {'/'.join(map(str, args))}") from None
    except ValueError as exc:
        raise SchemaError(f"cannot parse a rational: {exc}") from None

def _int(v) -> int:
    """int(v) for a report field, with a failure reported as a SchemaError."""
    try:
        return int(v)
    except (TypeError, ValueError):
        raise SchemaError(f"bad integer {v!r}") from None

def frac_from_json(v) -> Fraction:
    if not (isinstance(v, list) and len(v) == 2):
        raise SchemaError(f"bad rational {v!r}")
    return _fraction(_int(v[0]), _int(v[1]))

def kelem_json(e: KElem) -> dict:
    return {"x": frac_json(e.x), "y": frac_json(e.y), "str": str(e)}

def kelem_from_json(field: BaseField, v) -> KElem:
    return field.elem(frac_from_json(v["x"]), frac_from_json(v["y"]))

def kideal_json(I: KIdeal) -> dict:
    return {"hnf": [list(r) for r in I.rows], "den": I.den}

def prime_json(P: PrimeIdeal) -> dict:
    return {"q": P.q, "t0": P.t0, "f": P.f, "ramified": P.ramified,
            "str": str(P)}

def form_json(f: QuadForm | None, cg=None):
    if f is None or (cg is not None and cg.is_principal_class(f)):
        return "principal"
    return [f.a, f.b, f.c]

def lelem_json(x: LElem) -> dict:
    return {"coords": [kelem_json(c) for c in x.coords], "str": str(x)}

def lelem_from_json(ctx: RadicandContext, v) -> LElem:
    return ctx.from_coords([kelem_from_json(ctx.field, c) for c in v["coords"]])


def parse_base(label: str) -> BaseField:
    if label == "Q":
        return BaseField.rationals()
    m = re.fullmatch(r"Qsqrt(-\d+)", label)
    if not m:
        raise SchemaError(f"unknown base field {label!r}; use Q or Qsqrt<-d>")
    return BaseField.imaginary_quadratic(_int(m.group(1)))


def parse_kelem(field: BaseField, s: str) -> KElem:
    """Parse 'x', 'x+y*w', 'y*w', 'w', with optional rational coefficients."""
    s = s.replace(" ", "")
    m = re.fullmatch(
        r"(?P<x>[+-]?\d+(?:/\d+)?)?(?P<w>[+-]?(?:\d+(?:/\d+)?\*)?w)?", s)
    if not m or (m.group("x") is None and m.group("w") is None) or not s:
        raise SchemaError(f"cannot parse element {s!r}")
    x = _fraction(m.group("x")) if m.group("x") else Fraction(0)
    y = Fraction(0)
    wpart = m.group("w")
    if wpart:
        body = wpart[:-1].rstrip("*")
        if body in ("", "+"):
            y = Fraction(1)
        elif body == "-":
            y = Fraction(-1)
        else:
            y = _fraction(body)
    return field.elem(x, y)


# ---------------------------------------------------------------------------
# Analysis

def analyze(field: BaseField, p: int, a: KElem,
            max_norm: int = DEFAULT_MAX_NORM) -> tuple[dict, int]:
    """Full pipeline: tameness, structure, freeness, verification evidence.
    Each stage runs once and hands its result on to the stages after it.

    Returns (report, exit_code).  Raises DomainError and friends on invalid
    input; the CLI maps those to exit code 2 (or 3 for resource limits).
    """
    t0 = time.perf_counter()
    report: dict = {
        "schema": SCHEMA,
        "input": {"base": field.label(), "p": p, "a": kelem_json(a),
                  "max_norm": max_norm},
    }
    verdict = tameness_test(field, p, a, max_norm)
    # a normalized radicand past the norm bound stops here, before str()
    # meets its digits
    if verdict.tame:
        ctx = RadicandContext(field, p, verdict.normalized, max_norm)
    report["tameness"] = {
        "tame": verdict.tame,
        "stripped": kelem_json(verdict.stripped) if verdict.stripped else None,
        "c": kelem_json(verdict.c) if verdict.c else None,
        "normalized": kelem_json(verdict.normalized) if verdict.normalized else None,
        "witness": verdict.witness,
    }
    if not verdict.tame:
        report["verdict"] = "wild"
        report["timing"] = {"seconds": time.perf_counter() - t0}
        return report, EXIT_WILD

    assoc = associated_ideals(ctx)
    bases, lattice = _integral_bases(ctx)
    cg = class_group(field)

    ram_table = []
    for P in ctx.support_primes():
        v = ctx.v_a(P)
        kind = "unramified (above p, tame)" if P.q == p else ramification_type(ctx, P)
        ram_table.append({"prime": prime_json(P), "v_a": v, "type": kind})
    report["ramification"] = ram_table

    report["associated_ideals"] = [
        {"j": j, "ideal": kideal_json(bj), "class": form_json(cls, cg),
         "factorization": [
             {"prime": prime_json(P), "e": row[j]}
             for P, row in assoc.exponents if row[j] > 0]}
        for j, (bj, cls) in enumerate(zip(assoc.b, assoc.classes))]
    report["class_tuple"] = [form_json(c, cg) for c in class_of_MOL(ctx, assoc)]

    local_data = []
    for P, basis in bases.items():
        local_data.append({
            "prime": prime_json(P),
            "uniformizer": kelem_json(basis.uniformizer) if basis.uniformizer else None,
            "r_exponents": list(basis.r_exponents),
            "generator": lelem_json(local_generator(ctx, basis)),
        })
    report["local_data"] = local_data

    cert = criterion_check(ctx, assoc, bases, lattice)
    freeness: dict = {"verdict": cert.verdict}
    if cert.b_generators is not None:
        freeness["b_generators"] = [kelem_json(b) for b in cert.b_generators]
    if cert.units is not None:
        freeness["units"] = [kelem_json(u) for u in cert.units]
    if cert.generator is not None:
        freeness["generator"] = lelem_json(cert.generator)
    if cert.obstruction_index is not None:
        freeness["obstruction"] = {"j": cert.obstruction_index}
        if cert.obstruction_residues is None:
            freeness["obstruction"]["class"] = form_json(cert.obstruction_class, cg)
        else:
            freeness["obstruction"]["residues"] = list(cert.obstruction_residues)
    report["freeness"] = freeness

    verification: dict = {}
    if cert.free:
        # criterion_check raises unless the gate passed
        verification["generator_check"] = {"passed": True, **cert.evidence}
    if field.is_rational:
        index, disc = field_index_and_discriminant(ctx, lattice)
        verification["poly_discriminant"] = str(poly_discriminant(ctx))
        verification["index"] = str(index)
        verification["field_discriminant"] = str(disc)
        verification["dedekind"] = [
            _witness_json(dedekind_maximality_oracle(P.q, p, int(ctx.a.x)))
            for P in ctx.support_primes()]
    report["verification"] = verification

    report["verdict"] = cert.verdict
    report["timing"] = {"seconds": time.perf_counter() - t0}
    return report, EXIT_FREE if cert.free else EXIT_NOT_FREE


def _integral_bases(ctx: RadicandContext):
    """The local basis at every support prime and, over Q, the global basis
    glued from them (None over a quadratic base)."""
    bases = {P: local_basis(ctx, P) for P in ctx.support_primes()}
    lattice = global_integral_basis(ctx, bases) if ctx.field.is_rational else None
    return bases, lattice


def _witness_json(w: MaximalityWitness) -> dict:
    return {"q": w.q, "p": w.p, "a": str(w.a),
            "fbar": list(w.fbar), "gstar": list(w.gstar), "hstar": list(w.hstar),
            "tbar": list(w.tbar), "gcd": list(w.gcd), "maximal": w.maximal}


def canonical_json(report) -> str:
    return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"


def render_text(report: dict) -> str:
    lines = [f"base field : {report['input']['base']}",
             f"p          : {report['input']['p']}",
             f"radicand   : {report['input']['a']['str']}"]
    t = report["tameness"]
    if not t["tame"]:
        lines.append(f"tameness   : wild ({t['witness']})")
        lines.append("verdict    : wild")
        return "\n".join(lines) + "\n"
    lines.append(f"tameness   : tame, normalized a' = {t['normalized']['str']} "
                 f"(c = {t['c']['str']})")
    lines.append("assoc b_j  : " + ", ".join(
        f"b_{e['j']}~{e['class']}" if e["class"] != "principal"
        else f"b_{e['j']}" for e in report["associated_ideals"]))
    fr = report["freeness"]
    lines.append(f"verdict    : {fr['verdict']}")
    if "generator" in fr:
        lines.append(f"generator  : {fr['generator']['str']}")
        gc = report["verification"]["generator_check"]
        lines.append(f"verified   : {gc['passed']} ({gc['method']})")
    if "obstruction" in fr:
        lines.append("obstruction: " + ", ".join(
            f"{k} = {v}" for k, v in fr["obstruction"].items()))
    if "field_discriminant" in report.get("verification", {}):
        lines.append(f"disc O_L   : {report['verification']['field_discriminant']}"
                     f" (index {report['verification']['index']})")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Re-verification from a serialized report

def verify_report(report: dict) -> tuple[bool, list[str]]:
    """Recompute everything from the input echo and compare.

    Sections are compared by their canonical JSON bytes.  A recomputation
    that hits a resource bound fails: analyze could not have written the
    report under its own max_norm.  Where the stored freeness section or
    Dedekind witnesses differ from the recomputation, also re-run the span
    check on the stored generator and the stored witnesses.  Where they are
    equal, the recomputation has already checked those exact values.
    """
    problems: list[str] = []
    if not isinstance(report, dict) or report.get("schema") != SCHEMA:
        schema = report.get("schema") if isinstance(report, dict) else None
        raise SchemaError(f"schema {schema!r} does not match {SCHEMA!r}")
    inp = report.get("input")
    if not isinstance(inp, dict) or not {"base", "p", "a", "max_norm"} <= set(inp):
        raise SchemaError("input echo is missing or incomplete")
    try:
        field = parse_base(inp["base"])
        a = kelem_from_json(field, inp["a"])
        p, max_norm = _int(inp["p"]), _int(inp["max_norm"])
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"malformed report field: {exc}") from exc
    try:
        recomputed, _ = analyze(field, p, a, max_norm)
    except ResourceLimitError as exc:
        return False, [f"recomputation stops on a resource bound: {exc}"]

    for key in sorted((set(report) | set(recomputed)) - {"timing"}):
        if (key not in report or key not in recomputed
                or not _same(report[key], recomputed[key])):
            problems.append(f"section {key!r} does not match recomputation")

    # independent rechecks of the stored certificate where it differs
    try:
        if report.get("verdict") not in ("wild",):
            fr = _section(report, "freeness")
            if "generator" in fr and not _same(fr, recomputed.get("freeness")):
                ctx = RadicandContext(
                    field, p,
                    kelem_from_json(field, report["tameness"]["normalized"]),
                    max_norm)
                x = lelem_from_json(ctx, fr["generator"])
                ok, _ = verify_generator(ctx, x, *_integral_bases(ctx))
                if not ok:
                    problems.append("stored generator fails the span re-check")
            witnesses = _section(report, "verification").get("dedekind", [])
            if not _same(witnesses,
                         recomputed.get("verification", {}).get("dedekind", [])):
                for wjson in witnesses:
                    w = dedekind_maximality_oracle(_int(wjson["q"]), p,
                                                   _int(wjson["a"]))
                    if not _same(_witness_json(w), wjson):
                        problems.append(
                            f"dedekind witness at q = {wjson['q']} mismatch")
    except (KeyError, TypeError, SchemaError) as exc:
        problems.append(f"certificate recheck impossible, malformed field: {exc}")
    return not problems, problems


def _same(stored, fresh) -> bool:
    """Equal canonical JSON bytes; Python == takes True for 1 and 3.0 for 3."""
    return canonical_json(stored) == canonical_json(fresh)


def _section(report: dict, key: str) -> dict:
    """report[key] ({} when absent); TypeError when it is not an object."""
    section = report.get(key, {})
    if not isinstance(section, dict):
        raise TypeError(f"section {key!r} is not an object")
    return section
