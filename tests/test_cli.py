import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import divaria
from divaria import cli, conformal, dsl, pseudo
from divaria.cli import main
from divaria.envelope import EnvelopePA
from divaria.fd import sl2
from divaria.operads import OPERAD_ARITY_BOUND
from divaria.words import DiPoly, TermPoly, all_dishapes
from support import gl, parse_expression, symmetric_variety


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out


def test_derive_associative(capsys):
    code, out = run(capsys, "derive", "--variety", "associative")
    assert code == 0
    body = [l.strip() for l in out.splitlines() if l.startswith("  ")]
    got = {str(parse_expression(l)) for l in body}
    want = {
        "(x1-|x2)|-x3 - (x1|-x2)|-x3",
        "- x1-|(x2-|x3) + x1-|(x2|-x3)",
        "(x1-|x2)-|x3 - x1-|(x2-|x3)",
        "(x1|-x2)-|x3 - x1|-(x2-|x3)",
        "(x1|-x2)|-x3 - x1|-(x2|-x3)",
    }
    assert got == want


def test_derive_accepts_var_suffix_and_paths(tmp_path, capsys):
    code, _ = run(capsys, "derive", "--variety", "lie.var")
    assert code == 0
    f = tmp_path / "mine.var"
    f.write_text("variety mine\nidentity x1*x2 - x2*x1\n")
    code, out = run(capsys, "derive", "--variety", str(f))
    assert code == 0 and "variety mine" in out


def test_check_exit_codes(tmp_path, capsys):
    code, _ = run(capsys, "check", "--dialgebra", "leibniz2.json", "--variety", "lie")
    assert code == 0
    code, out = run(capsys, "check", "--dialgebra", "leibniz2.json", "--variety", "commutative")
    assert code == 1 and "fail" in out
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["check", "--dialgebra", str(bad), "--variety", "lie"]) == 2
    missing = tmp_path / "missing.json"
    assert main(["check", "--dialgebra", str(missing), "--variety", "lie"]) == 2


def test_dialgebra_schema_with_tables(tmp_path, capsys):
    data = {
        "dim": 2,
        "left": [[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]],
        "right": [[["0", "1/1"], ["0", "0"]], [["0", "0"], ["0", "0"]]],
    }
    f = tmp_path / "d.json"
    f.write_text(json.dumps(data))
    # right product e1|-e1=e2, everything else zero: that is a 0-dialgebra
    code, _ = run(capsys, "envelope", "--dialgebra", str(f))
    assert code == 0


def test_envelope_verify(capsys):
    code, out = run(capsys, "envelope", "--dialgebra", "leibniz2.json",
                    "--variety", "lie", "--verify")
    assert code == 0
    assert "ideal rank 1" in out
    assert "oracle equalities hold" in out


def test_represent(capsys):
    code, out = run(capsys, "represent", "--leibniz", "leibniz2.json", "--module", "trivial")
    assert code == 0
    assert "faithful: pass" in out


def test_represent_builds_the_representation_once(capsys, monkeypatch):
    real = conformal.build_rho
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(conformal, "build_rho", counted)
    monkeypatch.setattr(cli, "build_rho", counted, raising=False)  # a direct call counts too
    code, _ = run(capsys, "represent", "--leibniz", "leibniz2.json", "--json")
    assert code == 0
    assert len(calls) == 1


CHECK_COMMUTATIVE = """{
  "command": "check",
  "dim": 2,
  "status": "fail",
  "variety": "commutative",
  "witnesses": [
    "identity x1-|x2 - x2|-x1 fails at (e1, e1); defect ('0', '-2')"
  ]
}
"""


def test_witness_text_is_byte_identical(tmp_path, capsys):
    # the defect is printed densely, one coordinate per label, zeros included
    code, out = run(capsys, "check", "--dialgebra", "leibniz2.json", "--variety",
                    "commutative", "--json")
    assert code == 1 and out == CHECK_COMMUTATIVE
    f = tmp_path / "d.json"
    f.write_text(json.dumps({"dim": 2, "left": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]],
                             "right": [[[0, 0], [0, 0]], [[0, 0], [0, 1]]]}))
    assert main(["envelope", "--dialgebra", str(f)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("error: not a zero-dialgebra: identity (x1-|x2)|-x3 - (x1|-x2)|-x3 "
                       "fails at (b2, b2, b2); defect ('0', '-1')\n")


def test_operad_selftest_small(capsys):
    code, out = run(capsys, "operad-selftest", "--trials", "60", "--seed", "5")
    assert code == 0
    assert "worked composition example reproduced" in out


def test_json_reports_are_deterministic(capsys):
    code1, out1 = run(capsys, "derive", "--variety", "jordan", "--single-op", "--json")
    code2, out2 = run(capsys, "derive", "--variety", "jordan", "--single-op", "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["status"] == "pass" and payload["command"] == "derive"


@pytest.mark.parametrize("cap", [0])  # any envelope verification needs degree 1 terms
def test_max_degree_env_guard(capsys, monkeypatch, cap):
    monkeypatch.setattr(pseudo, "DEGREE_BOUND", cap)
    assert main(["envelope", "--dialgebra", "leibniz2.json", "--verify"]) == 2
    assert f"exceeds cap {cap}" in capsys.readouterr().err


def test_verify_refuses_empty_sweep(capsys):
    assert main(["envelope", "--dialgebra", "leibniz2.json", "--verify",
                 "--max-arity", "0", "--json"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "--max-arity must be at least 1" in out.err


LEIBNIZ2 = {"dim": 2, "labels": ["e1", "e2"], "bracket": [[[0, 1], [0, 0]], [[0, 0], [0, 0]]]}


@pytest.mark.parametrize("data,message", [
    ({**LEIBNIZ2, "bracket": [[[0, "1/0"], [0, 0]], [[0, 0], [0, 0]]]}, "bad rational '1/0'"),
    ({**LEIBNIZ2, "bracket": [[[0, "abc"], [0, 0]], [[0, 0], [0, 0]]]}, "bad rational 'abc'"),
    ([LEIBNIZ2], "not a JSON object"),
    ({**LEIBNIZ2, "labels": ["e1"]}, "1 labels for dimension 2"),
    ({**LEIBNIZ2, "bracket": [[1, 2], [3, 4]]}, "cells must be lists of rationals"),
    ({**LEIBNIZ2, "labels": 5}, "labels must be a list of strings"),
    ({**LEIBNIZ2, "labels": [1, 2]}, "labels must be a list of strings"),
    ({**LEIBNIZ2, "labels": 0}, "labels must be a list of strings"),
    ({**LEIBNIZ2, "labels": False}, "labels must be a list of strings"),
    ({**LEIBNIZ2, "labels": ""}, "labels must be a list of strings"),
    ({**LEIBNIZ2, "labels": {}}, "labels must be a list of strings"),
    ({**LEIBNIZ2, "labels": []}, "0 labels for dimension 2"),
    ({"dim": True, "bracket": [[[0]]]}, "'dim' must be a positive integer"),
    ({**LEIBNIZ2, "bracket": [[[0, "1_000"], [0, 0]], [[0, 0], [0, 0]]]}, "bad rational '1_000'"),
    ({**LEIBNIZ2, "bracket": [[[0, "\u0663"], [0, 0]], [[0, 0], [0, 0]]]},
     "bad rational '\u0663'"),
], ids=["zero-denominator", "not-a-number", "array", "label-count", "table-cells",
        "labels-not-a-list", "labels-not-strings", "labels-zero", "labels-false",
        "labels-empty-string", "labels-empty-object", "labels-empty-list", "dim-bool",
        "underscore", "arabic-indic-digit"])
def test_malformed_dialgebra_exits_2(tmp_path, capsys, data, message):
    f = tmp_path / "d.json"
    f.write_text(json.dumps(data))
    assert main(["envelope", "--dialgebra", str(f), "--variety", "lie"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and message in out.err


BIG = "1" * 5000  # more digits than Python converts to an int (4300 by default)
# -(10^3000 - 1)^2, the defect of the witnesses below: 6001 digits
SQUARE = "-" + "9" * 2999 + "8" + "0" * 2999 + "1"


@pytest.mark.parametrize("entry,message", [
    ('"1e999999999"', "bad rational '1e999999999' (no exponent notation)"),
    ('"1e4000"', "bad rational '1e4000' (no exponent notation)"),
    ('"-2.5E3"', "bad rational '-2.5E3' (no exponent notation)"),
    (BIG, "invalid JSON: Exceeds the limit (4300 digits)"),
    (f'"{BIG}"', "(more than 4300 digits)"),
    (f'"1/{BIG}"', "(more than 4300 digits)"),
    (f'"0.{BIG}"', "(more than 4300 digits)"),
    ('"' + "9" * 3000 + '"', "not a left Leibniz algebra: identity - (x1*x2)*x3 + x1*(x2*x3)"
     f" - x2*(x1*x3) fails at (b1, b1, b1); defect ('{SQUARE}',)\n"),  # the defect is -c^2
], ids=["exponent-huge", "exponent", "exponent-decimal", "json-int", "digits", "denominator",
        "decimal", "result"])
def test_huge_numbers_exit_2(tmp_path, capsys, entry, message):
    # [e, e] = c e: "1e999999999" used to hang building 10^999999999
    f = tmp_path / "g.json"
    f.write_text('{"dim": 1, "bracket": [[[%s]]]}' % entry)
    assert main(["represent", "--leibniz", str(f)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and message in out.err


@pytest.mark.parametrize("identity,message", [
    (BIG + "*x1*x2 - x2*x1", "column 10: a number of more than 4300 digits"),
    ("x1*x" + BIG, "column 14: a number of more than 4300 digits"),
    ("x\u00b2*x1", "expected a variable or '(', found 'x\u00b2'"),
    ("\u00b2*x1", "unexpected character '\u00b2'"),
    ("1/0 x1*x2", "column 10: zero denominator"),
], ids=["coefficient", "variable", "superscript-variable", "superscript-number",
        "zero-denominator"])
def test_bad_numbers_in_variety_files_exit_2(tmp_path, capsys, identity, message):
    f = tmp_path / "v.var"
    f.write_text(f"variety v\nidentity {identity}\n", encoding="utf-8")
    assert main(["derive", "--variety", str(f)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and message in out.err


def test_huge_defect_is_a_witness(tmp_path, capsys):
    # (x1-|x2)|-x3 = 0 but (x1|-x2)|-x3 = c^2 b1, c of 3000 digits
    f = tmp_path / "d.json"
    f.write_text(json.dumps({"dim": 1, "left": [[[0]]], "right": [[["9" * 3000]]]}))
    assert main(["check", "--dialgebra", str(f), "--variety", "lie"]) == 1
    out = capsys.readouterr()
    assert out.out.startswith("FAIL: identity (x1-|x2)|-x3 - (x1|-x2)|-x3 fails at (b1, b1, b1);"
                              f" defect ('{SQUARE}',)\n")
    assert out.err.startswith("elapsed: ")


def test_huge_identity_coefficients_are_printed(tmp_path, capsys):
    # c (c x1*x2) - x2*x1, c = 10^3000 - 1: the coefficient c^2 has 6000 digits
    c = "9" * 3000
    f = tmp_path / "big.var"
    f.write_text(f"variety big\nidentity {c} ({c} x1*x2) - x2*x1\n")
    assert main(["derive", "--variety", str(f)]) == 0
    out = capsys.readouterr().out
    assert f"\n  {SQUARE[1:]} x1-|x2 - x2|-x1\n" in out
    assert f"\n  - x2-|x1 + {SQUARE[1:]} x1|-x2\n" in out
    assert main(["check", "--dialgebra", "leibniz2.json", "--variety", str(f)]) == 1
    out = capsys.readouterr()
    assert out.out.startswith(f"FAIL: identity {SQUARE[1:]} x1-|x2 - x2|-x1 fails at (e1, e1);")
    assert out.out.endswith("status: fail\n") and out.err.startswith("elapsed: ")


@pytest.mark.parametrize("identity,column,message", [
    ("x1*x2 -", 17, "expected a factor"),
    ("(x1*x2", 16, "unexpected end of input"),
    ("x1*x2 - x2*x1 +", 25, "expected a factor"),
])
def test_identity_ending_early_names_its_line_end(tmp_path, capsys, identity, column, message):
    f = tmp_path / "v.var"
    f.write_text(f"variety v\nidentity {identity}\n")
    assert main(["derive", "--variety", str(f)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: line 2, column {column}: {message}\n"


def nested_identity(depth: int) -> str:
    """x1*(x2*(...*(x{depth-1}*x{depth}))), parenthesized depth - 2 levels deep."""
    expr = f"x{depth - 1}*x{depth}"
    for i in range(depth - 2, 0, -1):
        expr = f"x{i}*({expr})"
    return expr


def test_deeply_nested_identity_exits_2(tmp_path, capsys):
    # the parser recurses once per level, so a deep enough file ran out of stack
    f = tmp_path / "deep.var"
    f.write_text(f"variety deep\nidentity {nested_identity(300)}\n")
    assert main(["derive", "--variety", str(f)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: line 2, column 1: identity nested too deeply\n"
    f.write_text(f"variety deep\nidentity {nested_identity(100)}\n")
    assert main(["derive", "--variety", str(f), "--json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["identities"]) == 2 + 100


@pytest.mark.parametrize("first", ["identity x1*x2 - x2*x1", "vars x1 x2"])
def test_line_before_the_variety_header_exits_2(tmp_path, capsys, first):
    f = tmp_path / "late.var"
    f.write_text(f"# a comment\n{first}\nvariety w\nidentity x1*x2 - x2*x1\n")
    assert main(["derive", "--variety", str(f)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: line 2, column 1: the variety header must come first\n"


def _ten_monomials(a: int, b: int) -> str:
    """A sum of ten monomials in xa, xb that equals xa*xb + xb*xa."""
    return f"(x{a}*x{b} + x{b}*x{a}" + f" - x{a}*x{b} + x{a}*x{b}" * 4 + ")"


def _bound_lines() -> dict:
    """Identity lines at the stated bounds of dsl and one past each, and a
    product of sums that is not multilinear."""
    depth, ops, monos = dsl.MAX_NESTING, dsl.MAX_OPERATORS, dsl.MAX_MONOMIALS
    assert monos == 10 ** 4  # the lines below expand to 10 ** 4 monomials
    expansion = "*".join(_ten_monomials(2 * i + 1, 2 * i + 2) for i in range(4))
    return {"nesting": "(" * depth + "x1*x2" + ")" * depth,
            "nesting+1": "(" * (depth + 1) + "x1*x2" + ")" * (depth + 1),
            "operators+1": "*".join(f"x{i}" for i in range(1, ops + 3)),
            "monomials": expansion,
            "monomials+1": expansion + " + " + "*".join(f"x{i}" for i in range(1, 9)),
            "not-multilinear": "*".join(f"(x{2 * i + 1}+x{2 * i + 2})" for i in range(30))}


_BOUND_ERRORS = {
    "nesting+1": "line 2, column 1: identity nested too deeply",
    "operators+1": "line 2, column 1: identity nested too deeply",
    "monomials+1": "line 2, column 330: identity expands to more than 10000 monomials",
    "not-multilinear": "line 2, column 13: summands use different variables (not multilinear)",
}


@pytest.mark.parametrize("name,code", [("nesting", 0), ("nesting+1", 2), ("operators+1", 2),
                                       ("monomials", 0), ("monomials+1", 2),
                                       ("not-multilinear", 2)])
def test_identity_bounds_hold_at_every_entry_point(tmp_path, capsys, name, code):
    # the bounds are checked before parsing, or, for the expansion, before a
    # product or sum past it is built, so the answer does not depend on the
    # caller's stack: in process and in a fresh interpreter alike, and fast
    f = tmp_path / "bound.var"
    f.write_text(f"variety bound\nidentity {_bound_lines()[name]}\n")
    argv = ["derive", "--variety", str(f), "--json"]
    start = time.perf_counter()
    assert main(argv) == code
    assert time.perf_counter() - start < 1
    out = capsys.readouterr()
    env = {**os.environ, "PYTHONPATH": str(Path(divaria.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-m", "divaria.cli", *argv], capture_output=True,
                          env=env, timeout=60, text=True)
    assert done.returncode == code
    if code:
        assert out.err == done.stderr == f"error: {_BOUND_ERRORS[name]}\n"
    else:
        assert out.out == done.stdout and "Traceback" not in done.stderr


def test_deeply_nested_json_exits_2(tmp_path, capsys):
    f = tmp_path / "deep.json"
    f.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["check", "--dialgebra", str(f), "--variety", "lie"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: {f}: JSON nested too deeply\n"


def test_decimal_entries_still_load(tmp_path, capsys):
    f = tmp_path / "g.json"
    f.write_text('{"dim": 2, "bracket": [[[0, "0.5"], [0, 0]], [[0, 0], [0, 0]]]}')
    assert main(["check", "--dialgebra", str(f), "--variety", "lie"]) == 0


@pytest.mark.parametrize("argv,message", [
    (["envelope", "--dialgebra", "DIR", "--variety", "lie"], "cannot read"),
    (["envelope", "--dialgebra", "LATIN1", "--variety", "lie"], "not UTF-8 text"),
    (["represent", "--leibniz", "DIR"], "cannot read"),
    (["represent", "--leibniz", "LATIN1"], "not UTF-8 text"),
    (["derive", "--variety", "DIR"], "cannot read"),
    (["derive", "--variety", "LATIN1"], "not UTF-8 text"),
    (["check", "--dialgebra", "LONG", "--variety", "lie"], "cannot read"),
    (["derive", "--variety", "LONG"], "cannot read"),
], ids=["dialgebra-dir", "dialgebra-latin1", "leibniz-dir", "leibniz-latin1",
        "variety-dir", "variety-latin1", "dialgebra-long-name", "variety-long-name"])
def test_unreadable_input_exits_2(tmp_path, capsys, argv, message):
    (tmp_path / "dir").mkdir()
    latin1 = tmp_path / "latin1"
    if argv[0] == "derive":
        latin1.write_bytes("variety caf\u00e9\nidentity x1*x2 - x2*x1\n".encode("latin-1"))
    else:
        latin1.write_bytes(json.dumps({**LEIBNIZ2, "labels": ["\u00e9", "e2"]},
                                      ensure_ascii=False).encode("latin-1"))
    # a file name longer than the file system allows (255 bytes on Linux)
    paths = {"DIR": str(tmp_path / "dir"), "LATIN1": str(latin1),
             "LONG": str(tmp_path / ("x" * 300))}
    assert main([paths.get(a, a) for a in argv]) == 2
    out = capsys.readouterr()
    assert out.out == "" and message in out.err


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_operad_selftest_refuses_no_trials(capsys, trials):
    assert main(["operad-selftest", "--trials", trials, "--json"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and f"trials must be >= 1, got {trials}" in out.err


def test_operad_selftest_help_names_the_bounds(capsys):
    with pytest.raises(SystemExit):
        main(["operad-selftest", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert f"at most {OPERAD_ARITY_BOUND};" in text and "run at min(MAX_ARITY, 5)" in text


def test_operad_selftest_arity_bound(capsys):
    # Sym and E run at the bound; one above it is refused before any trial,
    # in process and in a fresh interpreter alike
    at = ["operad-selftest", "--max-arity", str(OPERAD_ARITY_BOUND), "--trials", "30", "--json"]
    assert main(at) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "pass"
    above = ["operad-selftest", "--max-arity", str(OPERAD_ARITY_BOUND + 1), "--json"]
    assert main(above) == 2
    out = capsys.readouterr()
    message = (f"error: operad arity {OPERAD_ARITY_BOUND + 1} exceeds the documented bound "
               f"{OPERAD_ARITY_BOUND}\n")
    assert out.out == "" and out.err == message
    env = {**os.environ, "PYTHONPATH": str(Path(divaria.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-m", "divaria.cli", *above], capture_output=True,
                          env=env, timeout=60, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (2, "", message)


def test_represent_rejects_bool_dim(tmp_path, capsys):
    f = tmp_path / "g.json"
    f.write_text(json.dumps({"dim": True, "bracket": [[[0]]]}))
    assert main(["represent", "--leibniz", str(f)]) == 2
    assert "'dim' must be a positive integer" in capsys.readouterr().err


def gl_file(n: int) -> dict:
    """Bracket file of the commutator Lie algebra of the n x n matrix units."""
    return {"dim": n * n, "bracket": gl(n).table}


def test_represent_embeds_gl3(tmp_path, capsys):
    # the generated subspace has 73 basis elements, but the identities are
    # checked on the 8 matrix units of T-degree <= 1, not on its 73^3 triples
    f = tmp_path / "gl3.json"
    f.write_text(json.dumps(gl_file(3)))
    code, out = run(capsys, "represent", "--leibniz", str(f), "--json")
    assert code == 0
    report = json.loads(out)
    embed = {k: v for k, v in report.items() if k.startswith("embed_")}
    assert len(embed) == 4 and all(embed.values())
    assert report["status"] == "pass"
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "02b8014c41a3827eb563682638ce5ae0c22e722cea681df2d9512c4b60c0f278")


def test_represent_sl2_adjoint_is_byte_identical(tmp_path, capsys):
    # the generated subspace of sl2 on the adjoint module has 30 basis elements
    f = tmp_path / "sl2.json"
    f.write_text(json.dumps({"dim": 3, "bracket": sl2().table}))
    code, out = run(capsys, "represent", "--leibniz", str(f), "--module", "adjoint", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "7426f4b99576e2778bc2393614185ebc5dc4db7ce6962864d0069603abd4f03d")


def test_represent_refuses_an_identity_that_permutes_its_leaves(capsys, monkeypatch):
    word = DiPoly.monomial(all_dishapes(3)[0], (2, 1, 3))
    monkeypatch.setattr("divaria.conformal.derive_variety",
                        lambda _sigma: SimpleNamespace(derived=(word,)))
    assert main(["represent", "--leibniz", "leibniz2.json"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (f"error: {word} does not keep its leaves in order, "
                       "so the matrix units of the current algebra cannot check it\n")


@pytest.mark.parametrize("bound,argv,message", [
    (7, ["check", "--dialgebra", "leibniz2.json", "--variety", "lie"],
     "2^3 basis tuples: 8 tuples exceed the enumeration bound 7"),
    (8, ["envelope", "--dialgebra", "leibniz2.json", "--variety", "lie"],
     "4^3 generator tuples: 64 tuples exceed the enumeration bound 8"),
    (200_000, ["envelope", "--dialgebra", "leibniz2.json", "--verify", "--max-arity", "7"],
     "words of degree 7 on 2^7 basis tuples: 85155840 tuples exceed the enumeration bound"),
    (511, ["represent", "--leibniz", "GL2"],
     "8^3 triples of the Cur(M2) units of T-degree <= 1: 512 tuples exceed the enumeration bound 511"),
], ids=["check", "envelope", "envelope-verify", "represent"])
def test_tuple_bound_exits_2(tmp_path, capsys, monkeypatch, bound, argv, message):
    f = tmp_path / "gl2.json"
    f.write_text(json.dumps(gl_file(2)))
    monkeypatch.setattr("divaria.errors.TUPLE_BOUND", bound)
    assert main([str(f) if a == "GL2" else a for a in argv]) == 2
    out = capsys.readouterr()
    assert out.out == "" and message in out.err


def test_derive_enumerates_no_tuples(capsys, monkeypatch):
    # derive relabels each candidate once per term, so no tuple bound applies
    unbounded = run(capsys, "derive", "--variety", "associative")
    assert unbounded[0] == 0
    monkeypatch.setattr("divaria.errors.TUPLE_BOUND", 5)
    assert run(capsys, "derive", "--variety", "associative") == unbounded


ARITY9 = ("variety arity9\nidentity x1*(x2*(x3*(x4*(x5*(x6*(x7*(x8*x9)))))))"
          " - ((((((((x1*x2)*x3)*x4)*x5)*x6)*x7)*x8)*x9)\n")


@pytest.mark.parametrize("argv,code", [
    (["derive", "--variety", "ARITY9", "--json"], 0),
    (["check", "--dialgebra", "leibniz2.json", "--variety", "ARITY9"], 0),
    (["envelope", "--dialgebra", "leibniz2.json", "--variety", "ARITY9"], 2),
], ids=["derive", "check", "envelope"])
def test_arity_9_identity_needs_no_relabeling_bound(tmp_path, capsys, argv, code):
    f = tmp_path / "arity9.var"
    f.write_text(ARITY9)
    assert main([str(f) if a == "ARITY9" else a for a in argv]) == code
    out = capsys.readouterr()
    if argv[0] == "derive":
        # the two zero-dialgebra axioms, then one identity per center
        assert len(json.loads(out.out)["identities"]) == 2 + 9
    elif argv[0] == "check":
        assert "satisfies the arity9 dialgebra identities" in out.out
    else:  # refused by the guard of check_var_pseudo on the 5 generators of the envelope
        assert out.out == ""
        assert out.err == ("error: 5^9 generator tuples: 1953125 tuples exceed "
                           "the enumeration bound 200000\n")


def test_envelope_fails_on_dependent_basis_images(capsys, monkeypatch):
    # every basis element of A read as the first: the images keep products
    # (hom_failure is stubbed) but span a line, so they embed nothing
    monkeypatch.setattr(cli, "hom_failure", lambda *args: None)
    monkeypatch.setattr(EnvelopePA, "basis_a", lambda self, i: self._basis[0])
    code, out = run(capsys, "envelope", "--dialgebra", "leibniz2.json", "--variety", "lie")
    assert code == 1
    assert ("FAIL: embedding into the coefficient dialgebra is not injective: "
            "the 2 basis images have rank 1") in out.splitlines()
    assert "base dialgebra embeds" not in out


# SHA-256 of the --json stdout of each command on shipped inputs; reports
# are byte-stable, so a changed digest is a changed behaviour
GOLDEN_SHA256 = {
    "derive --variety associative --json":
        "b59d4a10ce6e3e333ad5ba78103bb7283a01a3d1c3998158cc40fa5e596bbfdf",
    "derive --variety commutative --single-op --json":
        "8b4d44b946bd2303ff1955db19675b92eb00b93fa88976a60a401a3baf90ecb5",
    "derive --variety alternative --json":
        "6d56769f4e44664e8041a90e3643f162f6b7cece2e9f806bf41634d88e5ebde5",
    "derive --variety lie --single-op --json":
        "41f0abb12da3bcf4ca86896ba11aa5075e666c20d5b923489070a65f5c491c40",
    "derive --variety jordan --json":
        "b9dd75938684bb8f60c8215f1bca77a399e8db23ac8ff4f82a354c1da018fd3c",
    "check --dialgebra leibniz2.json --variety lie --json":
        "998473b3f1a37420f6924a9bf86a230ecf35595226101c34599c449f79acfbb3",
    "envelope --dialgebra leibniz2.json --variety lie --verify --json":
        "ff2fbc5952b76bde7e6d50ad1c6b17f258605da43ac95c5715b8643949672939",
    "represent --leibniz leibniz2.json --json":
        "243bb6ec3612fa5b178ff4652d1b5949f187426e1c7d9ad6863732fc17c94743",
    "operad-selftest --trials 60 --seed 5 --json":
        "4f1c84b6232e47a847770159e9fcb4a1b765051c823badc3a49a74530a6498f7",
}


# the same for derive --json on the 1,000-term identity symmetric_variety(3)
SYMMETRIC_SHA256 = "0126936f98b29f81815b8a393d88e5a11845750bb06f180ab69d764ab3625eb0"


@pytest.mark.parametrize("argv", sorted(GOLDEN_SHA256))
def test_json_reports_are_byte_identical(capsys, argv):
    code, out = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SHA256[argv]


def test_symmetric_derive_report_is_byte_identical(tmp_path, capsys):
    f = tmp_path / "symmetric.var"
    f.write_text(symmetric_variety(3))
    code, out = run(capsys, "derive", "--variety", str(f), "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SYMMETRIC_SHA256


@pytest.mark.parametrize("variety,options", [("SYMMETRIC", []), ("lie", ["--single-op"])],
                         ids=["symmetric", "lie-single-op"])
def test_derive_renders_each_identity_once(tmp_path, capsys, monkeypatch, variety, options):
    # the JSON lists and the text lines are read from one rendering
    f = tmp_path / "symmetric.var"
    f.write_text(symmetric_variety(3))
    render, calls = TermPoly.__str__, []

    def counted_render(p):
        calls.append(None)
        return render(p)

    monkeypatch.setattr(TermPoly, "__str__", counted_render)
    variety = str(f) if variety == "SYMMETRIC" else variety
    code, out = run(capsys, "derive", "--variety", variety, *options, "--json")
    assert code == 0
    data = json.loads(out)
    assert len(calls) == len(data["identities"]) + len(data.get("single_op", []))


@pytest.mark.parametrize("variety", ["commutative", "lie", "jordan"])
def test_derive_text_lists_the_json_identities(capsys, variety):
    data = json.loads(run(capsys, "derive", "--variety", variety, "--single-op", "--json")[1])
    code, out = run(capsys, "derive", "--variety", variety, "--single-op")
    assert code == 0
    assert out.splitlines() == [
        f"variety {variety}", "derived dialgebra identities:",
        *(f"  {text}" for text in data["identities"]),
        "single-operation identities:", *(f"  {text}" for text in data["single_op"]),
        "status: pass"]


@pytest.mark.parametrize("argv", [["derive", "--variety", "associative", "--json"],
                                  ["check", "--dialgebra", "leibniz2.json", "--variety", "lie"]],
                         ids=["derive-json", "check-text"])
def test_closed_stdout_prints_no_traceback(argv):
    # the reader is gone before the report is written, in JSON or as text:
    # no traceback, and the exit code is the report's
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**os.environ, "PYTHONPATH": str(Path(divaria.__file__).parents[1])}
    try:
        done = subprocess.run([sys.executable, "-m", "divaria.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, timeout=60, text=True)
    finally:
        os.close(write_end)
    assert "Traceback" not in done.stderr and "Exception" not in done.stderr
    assert done.returncode == 0
