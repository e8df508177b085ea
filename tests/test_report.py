"""report.analyze makes one pass: each stage runs once and hands its result
on.  verify_report reruns the stored certificate's checks only where the
stored sections differ from the recomputation."""

import json

import pytest

from radfree import basefield, dedekind, extension, freeness, hopf, integral, radical, report
from radfree.report import analyze, canonical_json, parse_base, verify_report

MODULES = (basefield, extension, radical, integral, dedekind, hopf, freeness, report)


def count_calls(monkeypatch, fn):
    """Record the arguments of every call of fn, through each module binding."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for mod in MODULES:
        for name, value in list(vars(mod).items()):
            if value is fn:
                monkeypatch.setattr(mod, name, counted)
    return calls


def stored_report(base, p, a):
    field = parse_base(base)
    rep, _ = analyze(field, p, field.elem(a))
    return json.loads(canonical_json(rep))


@pytest.mark.parametrize("base, verdict", [
    ("Q", "free"),
    ("Qsqrt-7", "free"),
    ("Qsqrt-5", "not-free-class-obstruction"),
])
def test_analyze_runs_each_stage_once(monkeypatch, base, verdict):
    assoc = count_calls(monkeypatch, radical.associated_ideals)
    bases = count_calls(monkeypatch, integral.local_basis)
    glued = count_calls(monkeypatch, integral.global_integral_basis)
    gate = count_calls(monkeypatch, freeness.verify_generator)
    field = parse_base(base)
    rep, _ = analyze(field, 3, field.elem(10))
    assert rep["verdict"] == verdict
    assert len(assoc) == 1
    (ctx,), = assoc
    assert [P for _, P in bases] == ctx.support_primes()
    assert len(glued) == (1 if field.is_rational else 0)
    assert len(gate) == (1 if verdict == "free" else 0)


def test_verify_reruns_nothing_that_matches(monkeypatch):
    stored = stored_report("Q", 3, 10)
    gate = count_calls(monkeypatch, freeness.verify_generator)
    oracle = count_calls(monkeypatch, dedekind.dedekind_maximality_oracle)
    assert verify_report(stored) == (True, [])
    assert len(gate) == 1
    assert len(oracle) == len(stored["verification"]["dedekind"])


def test_verify_rechecks_a_tampered_generator(monkeypatch):
    stored = stored_report("Q", 3, 10)
    stored["freeness"]["generator"]["coords"][1]["x"] = ["2", "3"]
    gate = count_calls(monkeypatch, freeness.verify_generator)
    ok, problems = verify_report(stored)
    assert not ok
    assert "section 'freeness' does not match recomputation" in problems
    assert "stored generator fails the span re-check" in problems
    assert len(gate) == 2


def test_verify_rechecks_a_tampered_witness():
    stored = stored_report("Q", 3, 10)
    witness, = (w for w in stored["verification"]["dedekind"] if w["q"] == 3)
    assert not witness["maximal"]
    witness["maximal"] = True
    ok, problems = verify_report(stored)
    assert not ok
    assert "section 'verification' does not match recomputation" in problems
    assert "dedekind witness at q = 3 mismatch" in problems
