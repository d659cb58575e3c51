"""Random and malformed input to every subcommand that reads a file.

Whatever the input, main() returns 0, 1 or 2 (argparse exits 2 itself),
no exception escapes it (the console script would print a traceback), and
two runs print the same bytes.  Dimensions stay <= 2 so each run is short.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from divaria.cli import main

LONG = "7" * 4400  # more digits than Python converts (4300 by default)

ODD = st.one_of(
    st.sampled_from(["1/2", "-3/4", "0.5", ".5", "2", "1e3", "1E999999999", "-2e-5", "1/0",
                     "abc", "", "²", LONG, "1/" + LONG, "9" * 3000, "-" + "9" * 2200]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.none(), st.booleans(),
)
NUMBERS = st.one_of(st.integers(-2, 2), st.integers(0, 1), ODD)
JSON = st.recursive(st.one_of(NUMBERS, st.text(max_size=3)),
                    lambda inner: st.lists(inner, max_size=3)
                    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
                    max_leaves=8)


def cube(dim: int):
    row = st.lists(NUMBERS, min_size=dim, max_size=dim)
    return st.lists(st.lists(row, min_size=dim, max_size=dim), min_size=dim, max_size=dim)


@st.composite
def structure_file(draw) -> str:
    """A dialgebra or Leibniz file, usually well formed, with odd numbers."""
    dim = draw(st.integers(1, 2))
    kind = draw(st.sampled_from(["leibniz-like", "tables", "bracket", "junk"]))
    if kind == "junk":
        doc = draw(JSON)
    else:
        doc = {"dim": dim if draw(st.integers(0, 3)) else draw(JSON)}
        if kind == "bracket":
            doc["bracket"] = draw(cube(dim))
        elif kind == "tables":
            doc["left"], doc["right"] = draw(cube(dim)), draw(cube(dim))
        else:  # [e1, e1] = c e2 is a Leibniz bracket for every c
            doc = {"dim": 2, "bracket": [[[0, draw(NUMBERS)], [0, 0]], [[0, 0], [0, 0]]]}
        if draw(st.sampled_from([False, False, True])):
            doc["labels"] = draw(st.one_of(st.lists(st.text(max_size=2), max_size=3), JSON))
    text = json.dumps(doc)
    if draw(st.sampled_from([False, False, False, True])):  # cut short
        text = text[:draw(st.integers(0, len(text)))]
    return text


PIECES = ["x1", "x2", "x3", "*", "(", ")", " + ", " - ", "|-", "-|", "2", "1/2", "1e5",
          "²", "x" + LONG, LONG, "#", " "]
IDENTITIES = ["x1*x2 - x2*x1", "x1*x2 + x2*x1", "x1*(x2*x3) - (x1*x2)*x3",
              "(x1*x2)*x3 - x1*(x2*x3) - x2*(x1*x3)"]


@st.composite
def variety_text(draw) -> str:
    lines = [draw(st.sampled_from(["variety v", "variety", "vars x1 x2"]))]
    for _ in range(draw(st.integers(1, 2))):
        if draw(st.sampled_from([True, True, False])):
            expr = draw(st.sampled_from(IDENTITIES))
            coeff = draw(st.sampled_from(["", "3*", "1/2*", "", LONG + "*", "9" * 3000 + "*"]))
            expr = coeff + expr
        else:
            expr = "".join(draw(st.lists(st.sampled_from(PIECES), max_size=8)))
        lines.append("identity " + expr)
    return "\n".join(lines) + "\n"


COMMANDS = st.sampled_from([
    ["derive", "--variety", "VAR"],
    ["derive", "--variety", "VAR", "--single-op", "--json"],
    ["check", "--dialgebra", "DATA", "--variety", "lie"],
    ["check", "--dialgebra", "DATA", "--variety", "VAR", "--json"],
    ["envelope", "--dialgebra", "DATA", "--variety", "lie", "--json"],
    ["envelope", "--dialgebra", "DATA", "--variety", "VAR"],
    ["envelope", "--dialgebra", "DATA", "--verify", "--max-arity", "2"],
    ["represent", "--leibniz", "DATA", "--json"],
    ["represent", "--leibniz", "DATA", "--module", "adjoint"],
])


def run(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse
            code = exc.code
    assert "Traceback" not in err.getvalue()
    return code, out.getvalue()


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(argv=COMMANDS, data=structure_file(), var=variety_text())
def test_main_survives_any_input(argv, data, var):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"DATA": Path(tmp) / "data.json", "VAR": Path(tmp) / "v.var"}
        paths["DATA"].write_text(data)
        paths["VAR"].write_text(var)
        argv = [str(paths[a]) if a in paths else a for a in argv]
        code, out = run(argv)
        assert code in (0, 1, 2)
        assert run(argv) == (code, out)
