import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from radfree import cli
from radfree.basefield import BaseField
from radfree.cli import main
from radfree.errors import SchemaError
from radfree.report import SCHEMA, analyze, canonical_json, parse_base, parse_kelem

Q = BaseField.rationals()
K5 = BaseField.imaginary_quadratic(-5)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_base():
    assert parse_base("Q").is_rational
    assert parse_base("Qsqrt-5").d == -5
    with pytest.raises(SchemaError):
        parse_base("Qsqrt5")
    with pytest.raises(SchemaError):
        parse_base("R")


def test_parse_kelem():
    assert parse_kelem(Q, "10") == Q.elem(10)
    assert parse_kelem(Q, "-7/2") == Q.elem(Fraction(-7, 2))
    assert parse_kelem(K5, "1+2*w") == K5.elem(1, 2)
    assert parse_kelem(K5, "1-2*w") == K5.elem(1, -2)
    assert parse_kelem(K5, "w") == K5.elem(0, 1)
    assert parse_kelem(K5, "-w") == K5.elem(0, -1)
    assert parse_kelem(K5, "3/2*w") == K5.elem(0, Fraction(3, 2))
    with pytest.raises(SchemaError):
        parse_kelem(K5, "bogus")
    # round trip through the canonical element string
    for e in (K5.elem(3, -4), K5.elem(0, 5), K5.elem(-2), Q.elem(9)):
        assert parse_kelem(e.field, str(e)) == e


def test_analyze_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--base", "Q", "--p", "3",
                           "--a", "10", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "free"
    assert report["freeness"]["generator"]["str"] == "(1 + a + a^2)/3"

    code, _, _ = run_cli(capsys, "analyze", "--p", "3", "--a", "2")
    assert code == 20
    code, _, _ = run_cli(capsys, "analyze", "--base", "Qsqrt-5", "--p", "3",
                         "--a", "10")
    assert code == 10
    code, _, err = run_cli(capsys, "analyze", "--p", "3", "--a", "8")
    assert code == 2 and "power" in err
    code, _, err = run_cli(capsys, "analyze", "--p", "3", "--a", "101",
                           "--max-norm", "10")
    assert code == 3 and "bound" in err


def test_analyze_json_deterministic():
    report1, _ = analyze(Q, 3, Q.elem(28))
    report2, _ = analyze(Q, 3, Q.elem(28))
    report1.pop("timing")
    report2.pop("timing")
    assert canonical_json(report1) == canonical_json(report2)


def test_verify_round_trip(tmp_path, capsys):
    corpus = [("Q", "3", "10"), ("Q", "3", "17"), ("Q", "3", "2"),
              ("Qsqrt-5", "3", "10"), ("Q", "3", "28"), ("Q", "5", "76"),
              ("Qsqrt-7", "3", "10")]
    for base, p, a in corpus:
        code, out, _ = run_cli(capsys, "analyze", "--base", base, "--p", p,
                               "--a", a, "--format", "json")
        path = tmp_path / f"r{base}ftp{p}a{a}.json"
        path.write_text(out)
        vcode, vout, verr = run_cli(capsys, "verify", str(path))
        assert vcode == 0, (base, p, a, verr)
        assert "PASS" in vout


def test_verify_detects_tampering(tmp_path, capsys):
    _, out, _ = run_cli(capsys, "analyze", "--base", "Q", "--p", "3",
                        "--a", "10", "--format", "json")
    report = json.loads(out)
    report["freeness"]["generator"]["coords"][1]["x"] = ["2", "3"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(report))
    code, _, err = run_cli(capsys, "verify", str(bad))
    assert code == 1
    assert "does not match" in err or "fails" in err


def test_verify_stale_schema(tmp_path, capsys):
    _, out, _ = run_cli(capsys, "analyze", "--base", "Q", "--p", "3",
                        "--a", "10", "--format", "json")
    report = json.loads(out)
    assert report["schema"] == SCHEMA == "radfree-report/2"
    for stale_schema in ("radfree-report/0", "radfree-report/1"):
        report["schema"] = stale_schema
        stale = tmp_path / "stale.json"
        stale.write_text(json.dumps(report))
        code, _, err = run_cli(capsys, "verify", str(stale))
        assert code == 2 and stale_schema in err


def test_canonical_json_is_compact(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--p", "3", "--a", "10",
                           "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert out == json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    assert "ell" not in report["tameness"]
    assert all("basis" not in entry for entry in report["local_data"])


def test_congruence_certificate_is_one_index(tmp_path, capsys):
    # not free over Q at p = 23, where the |U|^p = 2^23 tuples of schema /1
    # hit their bound: b_0/b_12 = 12 mod 23 is not +-1
    code, out, _ = run_cli(capsys, "analyze", "--p", "23", "--a", "1588",
                           "--format", "json")
    assert code == 10
    report = json.loads(out)
    assert report["verdict"] == "not-free-congruence-obstruction"
    assert report["freeness"]["obstruction"] == {"j": 12, "residues": [[12, 0]]}
    assert "search_transcript" not in report["freeness"]
    path = tmp_path / "p23.json"
    path.write_text(out)
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 0 and "PASS" in out


@pytest.mark.parametrize("path, value", [
    (("tameness", "tame"), 1),
    (("input", "p"), 3.0),
    (("ramification", 0, "prime", "ramified"), 0),
    (("ramification", 0, "prime", "f"), True),
    (("associated_ideals", 1, "ideal", "hnf", 0, 0), 1.0),
])
def test_verify_rejects_another_type(tmp_path, capsys, path, value):
    # each edit is == to the stored value in Python, so only a comparison of
    # the canonical bytes rejects it
    _, out, _ = run_cli(capsys, "analyze", "--p", "3", "--a", "10",
                        "--format", "json")
    report = json.loads(out)
    *head, last = path
    node = report
    for key in head:
        node = node[key]
    assert node[last] == value
    node[last] = value
    bad = tmp_path / "typed.json"
    bad.write_text(json.dumps(report))
    code, _, err = run_cli(capsys, "verify", str(bad))
    assert code == 1 and "does not match recomputation" in err


# free, class obstruction, congruence obstruction, wild
MUTATED_REPORTS = (("Q", 3, 10), ("Qsqrt-5", 3, 10), ("Q", 5, 76), ("Q", 3, 2))


def report_nodes(node, path=()):
    """(path, value) for the report and every value in it."""
    yield path, node
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield from report_nodes(value, path + (key,))


def mutations(value) -> list:
    """Replacements for one JSON value: a neighbour, another type, a shorter
    or longer container."""
    if isinstance(value, bool):
        return [not value, int(value), str(value).lower(), None]
    if isinstance(value, int):
        return [value + 1, value - 1, -value, float(value), str(value),
                bool(value), None]
    if isinstance(value, str):
        return [value + "0", value[:-1], value.upper(), 0, None]
    if value is None:
        return [0, False, "", []]
    if isinstance(value, list):
        return [value[:-1], value + value[-1:], value[::-1], {}, None]
    return ([{k: v for k, v in value.items() if k != key} for key in value]
            + [{**value, "extra": 0}, [], None])


@pytest.mark.parametrize("base, p, a", MUTATED_REPORTS,
                         ids=[f"{b}-p{p}-a{a}" for b, p, a in MUTATED_REPORTS])
def test_verify_rejects_every_single_field_change(tmp_path, capsys, base, p, a):
    _, out, _ = run_cli(capsys, "analyze", "--base", base, "--p", str(p),
                        "--a", str(a), "--format", "json")
    # verify ignores timing, so the report without it passes, and every
    # change below is outside it
    stored = json.loads(out)
    del stored["timing"]
    out = canonical_json(stored)
    nodes = list(report_nodes(stored))
    path = tmp_path / "mutated.json"

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.sampled_from(nodes).flatmap(
        lambda node: st.tuples(st.just(node[0]), st.sampled_from(mutations(node[1])))))
    def check(case):
        where, new = case
        report = json.loads(out)
        if where:
            *head, last = where
            parent = report
            for key in head:
                parent = parent[key]
            old, parent[last] = parent[last], new
        else:
            old, report = report, new
        mutated = canonical_json(report)
        assume(mutated != out)
        path.write_text(mutated)
        code = main(["verify", str(path)])
        capsys.readouterr()
        if where == ("input", "max_norm") and type(new) is int:
            # every norm these analyses factor is far below 2^63, so another
            # positive bound gives a true report of another input, and a
            # negative one stops the recomputation
            assert code == (0 if new > 0 else 1), (old, new)
        else:
            assert code in (1, 2), (where, old, new)

    check()


@pytest.mark.parametrize("base, p", [("Q", 3511), ("Qsqrt-1", 1093)])
def test_oversized_normalized_radicand_is_a_resource_error(capsys, base, p):
    # 2 is tame at the Wieferich primes 1093 and 3511, and a' = 2 c^p has
    # thousands of digits: the norm bound stops it before it is serialized
    code, out, err = run_cli(capsys, "analyze", "--base", base, "--p", str(p),
                             "--a", "2", "--format", "json")
    assert code == 3 and out == ""
    assert "exceeds factorization bound" in err and " digits " in err
    assert "4300" not in err


def test_factorization_bound_message_gives_a_digit_count(capsys):
    # a' = 2 c^1093 over Q has 2,993 digits: few enough for str(), too many
    # to print
    code, _, err = run_cli(capsys, "analyze", "--p", "1093", "--a", "2")
    assert code == 3
    assert "ideal norm with 2,993 digits exceeds factorization bound" in err
    assert len(err) < 200


def test_internal_value_error_is_not_an_input_error(monkeypatch):
    def broken(*args):
        raise ValueError("internal")

    monkeypatch.setattr(cli, "analyze", broken)
    with pytest.raises(ValueError, match="internal"):
        main(["analyze", "--p", "3", "--a", "10"])


def test_unparsable_inputs_exit_2(tmp_path, monkeypatch, capsys):
    # each ValueError of a parse site is an input error
    code, _, err = run_cli(capsys, "analyze", "--p", "3", "--a", "1" * 5000)
    assert code == 2 and "cannot parse a rational" in err
    monkeypatch.setenv("RADFREE_MAX_NORM", "many")
    code, _, err = run_cli(capsys, "analyze", "--p", "3", "--a", "10")
    assert code == 2 and "RADFREE_MAX_NORM must be an integer" in err
    monkeypatch.delenv("RADFREE_MAX_NORM")

    _, out, _ = run_cli(capsys, "analyze", "--p", "3", "--a", "10",
                        "--format", "json")
    report = json.loads(out)
    report["input"]["a"]["x"] = ["ten", "1"]
    bad = tmp_path / "word.json"
    bad.write_text(json.dumps(report))
    code, _, err = run_cli(capsys, "verify", str(bad))
    assert code == 2 and "bad integer 'ten'" in err
    bad.write_bytes(b"\xff\xfe")
    code, _, err = run_cli(capsys, "verify", str(bad))
    assert code == 2 and "not valid JSON" in err

    out_path, ck_path = tmp_path / "rows.csv", tmp_path / "ck.json"
    argv = ["sweep", "--p", "3", "--a-min", "2", "--a-max", "6",
            "--out", str(out_path), "--checkpoint", str(ck_path)]
    assert main(argv) == 0
    ck = json.loads(ck_path.read_text())
    for bad_ck in ({**ck, "next_a": "four"}, {"schema": ck["schema"]}, [ck]):
        ck_path.write_text(json.dumps(bad_ck))
        code, _, err = run_cli(capsys, *argv)
        assert code == 2 and "checkpoint does not parse" in err, bad_ck
    ck["next_a"] = 4
    ck_path.write_text(json.dumps(ck))
    for rows in ("a,tame,verdict,generator_hash\nx,true,free,\n", '{"b": 3}\n'):
        out_path.write_text(rows)
        code, _, err = run_cli(capsys, *argv)
        assert code == 2 and "cannot resume" in err, rows


@pytest.mark.parametrize("section", ["verification", "freeness"])
def test_verify_section_not_an_object(tmp_path, capsys, section):
    _, out, _ = run_cli(capsys, "analyze", "--p", "3", "--a", "10",
                        "--format", "json")
    report = json.loads(out)
    report[section] = []
    bad = tmp_path / "list.json"
    bad.write_text(json.dumps(report))
    code, _, err = run_cli(capsys, "verify", str(bad))
    assert code == 1
    assert f"FAIL: section '{section}' does not match recomputation" in err
    assert f"FAIL: certificate recheck impossible, malformed field: " \
        f"section '{section}' is not an object" in err
    assert "Traceback" not in err


def test_negative_radicand_end_to_end(capsys):
    # -10 normalizes to -80 = (-10) * 2^3 and the pipeline runs through
    code, out, _ = run_cli(capsys, "analyze", "--p", "3", "--a", "-10",
                           "--format", "json")
    report = json.loads(out)
    assert report["tameness"]["tame"]
    assert report["tameness"]["normalized"]["str"] == "-80"
    assert code in (0, 10)
    if code == 0:
        assert report["verification"]["generator_check"]["passed"]


def test_verify_missing_input_key(tmp_path, capsys):
    _, out, _ = run_cli(capsys, "analyze", "--p", "3", "--a", "10",
                        "--format", "json")
    report = json.loads(out)
    del report["input"]["max_norm"]
    bad = tmp_path / "noinput.json"
    bad.write_text(json.dumps(report))
    code, _, err = run_cli(capsys, "verify", str(bad))
    assert code == 2 and "incomplete" in err


def test_zero_denominator_is_an_input_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "analyze", "--p", "3", "--a", "1/0")
    assert code == 2 and "zero denominator" in err
    _, out, _ = run_cli(capsys, "analyze", "--p", "3", "--a", "10",
                        "--format", "json")
    report = json.loads(out)
    report["input"]["a"]["x"] = ["10", "0"]
    bad = tmp_path / "zero.json"
    bad.write_text(json.dumps(report))
    code, _, err = run_cli(capsys, "verify", str(bad))
    assert code == 2 and "zero denominator" in err


def test_max_norm_must_be_positive(monkeypatch, capsys):
    for bound in ("0", "-5"):
        code, _, err = run_cli(capsys, "analyze", "--p", "3", "--a", "10",
                               "--max-norm", bound)
        assert code == 2 and "must be positive" in err, bound
    monkeypatch.setenv("RADFREE_MAX_NORM", "0")
    code, _, err = run_cli(capsys, "analyze", "--p", "3", "--a", "10")
    assert code == 2 and "must be positive" in err


def test_sweep_max_norm_must_be_positive(tmp_path, monkeypatch, capsys):
    out = tmp_path / "rows.csv"
    code, _, err = run_cli(capsys, "sweep", "--p", "3", "--a-min", "2",
                           "--a-max", "20", "--max-norm", "0", "--out", str(out))
    assert code == 2 and "must be positive" in err
    assert not out.exists()
    monkeypatch.setenv("RADFREE_MAX_NORM", "-5")
    code, _, err = run_cli(capsys, "sweep", "--p", "3", "--a-min", "2",
                           "--a-max", "20")
    assert code == 2 and "must be positive" in err


def test_sweep_rows(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--p", "3", "--a-min", "2",
                           "--a-max", "80")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "a,tame,verdict,generator_hash"
    rows = [line.split(",") for line in lines[1:]]
    seen = [int(r[0]) for r in rows]
    cubes = {b ** 3 for b in range(2, 5)}
    assert seen == [a for a in range(2, 81) if a not in cubes]
    for r in rows:
        a = int(r[0])
        tame = r[1] == "true"
        if a % 3 != 0:
            assert tame == (pow(a, 2, 9) == 1), a
        else:
            assert not tame, a
        assert (r[3] != "") == (r[2] == "free")


def test_sweep_empty_range(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--p", "3", "--a-min", "5",
                           "--a-max", "4")
    assert code == 0
    assert out.strip() == "a,tame,verdict,generator_hash"


def test_sweep_checkpoint_resume(tmp_path, capsys):
    out_path = tmp_path / "rows.csv"
    ck_path = tmp_path / "ck.json"
    argv = ["sweep", "--p", "3", "--a-min", "2", "--a-max", "12",
            "--out", str(out_path), "--checkpoint", str(ck_path)]
    code = main(argv)
    assert code == 0
    full = out_path.read_text()
    ck = json.loads(ck_path.read_text())
    assert ck["next_a"] == 13

    # simulate an interrupted run: keep the first rows, rewind the checkpoint
    lines = full.splitlines(keepends=True)
    out_path.write_text("".join(lines[:4]))     # header + rows 2, 3, 4
    ck["next_a"] = 5
    ck_path.write_text(json.dumps(ck))
    code = main(argv)
    assert code == 0
    resumed = out_path.read_text()
    assert resumed == full                       # no duplicates, no gaps

    # mismatched parameters are rejected
    bad_argv = ["sweep", "--p", "3", "--a-min", "2", "--a-max", "13",
                "--out", str(out_path), "--checkpoint", str(ck_path)]
    assert main(bad_argv) == 2


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_resume_after_kill(tmp_path, fmt):
    out_path = tmp_path / "rows.out"
    ck_path = tmp_path / "ck.json"
    argv = ["sweep", "--p", "3", "--a-min", "2", "--a-max", "12",
            "--format", fmt, "--out", str(out_path), "--checkpoint", str(ck_path)]
    assert main(argv) == 0
    full = out_path.read_text()
    lines = full.splitlines(keepends=True)
    rows_before_5 = 4 if fmt == "csv" else 3       # [header,] rows 2, 3, 4

    # killed after flushing row 5 and part of row 6, before the checkpoint
    # moved past 4
    kept = "".join(lines[:rows_before_5 + 1]) + lines[rows_before_5 + 1][:3]
    out_path.write_text(kept)
    ck = json.loads(ck_path.read_text())
    ck["next_a"] = 5
    ck_path.write_text(json.dumps(ck))
    assert main(argv) == 0
    assert out_path.read_text() == full


def test_sweep_fresh_start_overwrites_out(tmp_path):
    out_path = tmp_path / "rows.csv"
    ck_path = tmp_path / "ck.json"
    argv = ["sweep", "--p", "3", "--a-min", "2", "--a-max", "6",
            "--out", str(out_path), "--checkpoint", str(ck_path)]
    assert main(argv) == 0
    full = out_path.read_text()
    assert full.count("a,tame") == 1
    # no checkpoint: a fresh start, which must not append a second header
    ck_path.unlink()
    assert main(argv) == 0
    assert out_path.read_text() == full
    assert main(argv[:-2]) == 0
    assert out_path.read_text() == full
    # a checkpoint without its output starts over
    out_path.unlink()
    assert main(argv) == 0
    assert out_path.read_text() == full


def test_sweep_p5_congruence_rows(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--p", "5", "--a-min", "26",
                           "--a-max", "101")
    assert code == 0
    rows = {int(r.split(",")[0]): r.split(",") for r in out.strip().splitlines()[1:]}
    for a in (26, 51, 76, 101):
        assert rows[a][1] == "true"
    # every other row in range is wild: a^4 = 1 mod 25 forces a = +-1, +-7 mod 25
    for a, r in rows.items():
        expected_tame = pow(a, 4, 25) == 1 if a % 5 else False
        assert (r[1] == "true") == expected_tame


def test_analyze_csv_format(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--p", "3", "--a", "10",
                           "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "a,tame,verdict,generator_hash"
    assert lines[1].startswith("10,true,free,")
