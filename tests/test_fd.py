import functools
import itertools
import json
import random
import tracemalloc
from fractions import Fraction

import pytest

from divaria.cli import load_leibniz_data, main
from divaria.errors import InputError
from divaria.fd import (FDAlgebra, FDDialgebra, _left_leibniz_poly, abelian, bar_unit, corpus,
                        diagonal_lift, eval_identity,
                        is_var_dialgebra, is_zero_dialgebra, leibniz2, leibniz3,
                        leibniz_to_dialgebra, sl2, upper_triangular2)
from divaria.linalg import add_term
from divaria.translate import derive_variety, psi_section, zero_dialgebra_axioms
from divaria.varieties import BUILTIN, builtin_identity_set
from divaria.words import DiPoly, MultilinearPoly, all_dishapes, eval_on_tuples
from divaria.perms import random_perm, symmetric_group
from support import eval_poly, first_lex_witness, gl, gl_table, psi

LIE = builtin_identity_set("lie")
ASSOC = builtin_identity_set("associative")


def test_corpus_members_are_zero_dialgebras():
    for name, d in corpus():
        assert is_zero_dialgebra(d) is None, name


def test_eval_identity_trivial_zero():
    d = abelian(2)
    assert eval_identity(d, DiPoly(3)) is None


def test_diagonal_lift_associative():
    d = diagonal_lift(upper_triangular2())
    assert is_var_dialgebra(d, ASSOC) is None


def test_leibniz_imports_are_lie_dialgebras():
    for alg in (leibniz2(), leibniz3(), sl2()):
        d = leibniz_to_dialgebra(alg)
        assert is_var_dialgebra(d, LIE) is None


def test_leibniz3_fails_associativity_with_witness():
    d = leibniz_to_dialgebra(leibniz3())
    w = is_var_dialgebra(d, ASSOC)
    assert w is not None
    # (a|-a)|-a = 0 but a|-(a|-a) = c
    assert w.tuple_indices == (0, 0, 0)


def test_random_tables_generically_fail():
    rng = random.Random(2)
    hits = 0
    for _ in range(5):
        d = 2
        def rnd():
            return [[tuple(Fraction(rng.randint(-2, 2)) for _ in range(d))
                     for _ in range(d)] for _ in range(d)]
        dd = FDDialgebra(rnd(), rnd())
        if is_zero_dialgebra(dd) is not None:
            hits += 1
    assert hits >= 4


def test_leibniz_to_dialgebra_tables():
    d = leibniz_to_dialgebra(leibniz2())
    e1 = d.basis(0)
    assert d.rprod(e1, e1) == {1: 1}
    assert d.lprod(e1, e1) == {1: -1}


def test_sl2_left_equals_bracket():
    # with an antisymmetric bracket, -[ba] = [ab]
    g = sl2()
    d = leibniz_to_dialgebra(g)
    for i in range(3):
        for j in range(3):
            assert d.lprod(d.basis(i), d.basis(j)) == g.product(g.basis(i), g.basis(j))


def test_non_leibniz_rejected():
    t = [[(1, 0), (0, 0)], [(0, 0), (0, 1)]]
    with pytest.raises(InputError):
        leibniz_to_dialgebra(FDAlgebra(t))


@pytest.mark.parametrize("table", [
    [[(1, 0)], [(0, 1), (0, 0)]],                   # a short row
    [[(1, 0), (0, 0), (0, 1)], [(0, 1), (0, 0)]],   # a long row
], ids=["short-row", "long-row"])
def test_ragged_table_rejected(table):
    square = [[(0, 0), (0, 0)], [(0, 0), (0, 0)]]
    for build in (lambda: FDAlgebra(table), lambda: FDDialgebra(table, square),
                  lambda: FDDialgebra(square, table)):
        with pytest.raises(InputError, match="structure table row of length"):
            build()


def test_defect_examples():
    d2 = leibniz_to_dialgebra(leibniz2())
    assert d2.defect(d2.basis(0), d2.basis(0)) == {1: 2}
    ds = leibniz_to_dialgebra(sl2())
    for i in range(3):
        for j in range(3):
            assert not ds.defect(ds.basis(i), ds.basis(j))


def test_defect_identities_in_zero_dialgebras():
    # <a,b>|-c = 0 and a-|<b,c> = 0 on all basis triples of every corpus member
    for name, d in corpus():
        for i, j, k in itertools.product(range(d.dim), repeat=3):
            bi, bj, bk = d.basis(i), d.basis(j), d.basis(k)
            assert not d.rprod(d.defect(bi, bj), bk), name
            assert not d.lprod(bi, d.defect(bj, bk)), name


def test_kernel_elements_vanish_on_zero_dialgebras():
    # anything with zero image under the label-erasing functor is an identity
    rng = random.Random(6)
    members = corpus()
    for _ in range(60):
        n = rng.randint(2, 3)
        mono = (rng.choice(all_dishapes(n)), random_perm(n, rng))
        p = DiPoly.monomial(*mono)
        (word, perm, center), = psi(p).terms
        f = p - psi_section(MultilinearPoly.monomial(word, perm), center)
        assert psi(f).is_zero()
        for name, d in members:
            assert eval_identity(d, f) is None, name


def test_bar_unit_exercises_distinct_products():
    d = bar_unit((1, 2))
    assert any(d.defect(d.basis(i), d.basis(j))
               for i in range(2) for j in range(2))


def test_tuple_enumeration_guard():
    from divaria.errors import ResourceError
    from divaria.words import DILEAF, RPROD, dinode
    comb = DILEAF
    for _ in range(11):
        comb = dinode(RPROD, DILEAF, comb)  # arity 12 without enumerating shapes
    p = DiPoly.monomial(comb, tuple(range(1, 13)))
    d = leibniz_to_dialgebra(leibniz3())
    with pytest.raises(ResourceError):
        eval_identity(d, p)  # 3^12 basis tuples exceed the bound


def _random_tables(count: int, seed: int) -> list:
    rng = random.Random(seed)

    def rnd():
        return [[tuple(rng.randint(-2, 2) for _ in range(2)) for _ in range(2)]
                for _ in range(2)]
    return [(rnd(), rnd()) for _ in range(count)]


def _dense_walk(table, x: dict, y: dict) -> dict:
    out: dict = {}
    for i, xi in x.items():
        for j, yj in y.items():
            for k, t in enumerate(table[i][j]):
                if t:
                    add_term(out, k, xi * yj * t)
    return out


# [a, a] = b, [a, b] = c: a left Leibniz bracket that is not antisymmetric
NULL_FILIFORM = [[[0, 1, 0], [0, 0, 1], [0, 0, 0]], [[0, 0, 0]] * 3, [[0, 0, 0]] * 3]


def _negated_transpose(table) -> list:
    return [[[-t for t in table[j][i]] for j in range(len(table))] for i in range(len(table))]


def test_sparse_cells_match_the_dense_walk():
    # each product is compared with a walk over a dense table that the test holds itself
    cases = []  # (name, dimension, [(product, the dense table of that product)])
    for k, (left, right) in enumerate(_random_tables(5, 12)):
        d = FDDialgebra(left, right)
        cases.append((f"random{k}", 2, [(d.lprod, left), (d.rprod, right)]))
    for name, table in (("gl3", gl_table(3)), ("null-filiform", NULL_FILIFORM)):
        g = FDAlgebra(table)
        d, lift = leibniz_to_dialgebra(g), diagonal_lift(g)
        cases.append((name, g.dim, [(g.product, table), (d.lprod, _negated_transpose(table)),
                                    (d.rprod, table), (lift.lprod, table), (lift.rprod, table)]))
    for name, dim, products in cases:
        vecs = [{i: 1} for i in range(dim)] + [{0: 1, dim - 1: Fraction(-1, 2)}]
        for (product, table), x, y in itertools.product(products, vecs, vecs):
            assert product(x, y) == _dense_walk(table, x, y), (name, x, y)


def test_cells_are_zero_free_with_ascending_keys():
    tables = [gl_table(3), NULL_FILIFORM, [[[0, "1/2", "0", 0]] * 4] * 4]
    cells = [FDAlgebra(t).cells for t in tables]
    cells.append(leibniz_to_dialgebra(FDAlgebra(NULL_FILIFORM)).left_cells)
    assert cells[2][0][0] == {1: Fraction(1, 2)}
    for table in cells:
        for cell in (c for row in table for c in row):
            assert all(cell.values()) and list(cell) == sorted(cell)


# the entries and tables that test_cli.py's malformed inputs put in a bracket table,
# with the messages the command line prints for them
BAD_TABLES = [([[[0, entry], [0, 0]], [[0, 0], [0, 0]]], message) for entry, message in [
    ("1/0", "bad rational '1/0'"),
    ("abc", "bad rational 'abc'"),
    ("1_000", "bad rational '1_000'"),
    ("\u0663", "bad rational '\u0663'"),
    ("1e4000", "bad rational '1e4000' (no exponent notation)"),
    (None, "bad rational None (use ints or 'p/q' strings)"),
    (0.5, "bad rational 0.5 (use ints or 'p/q' strings)"),
    (True, "bad rational True (use ints or 'p/q' strings)"),
]] + [([[1, 2], [3, 4]], "structure table cells must be lists of rationals")]


@pytest.mark.parametrize("table,message", BAD_TABLES, ids=[
    "zero-denominator", "not-a-number", "underscore", "arabic-indic-digit", "exponent", "null",
    "float", "bool", "table-cells"])
def test_the_python_api_refuses_what_the_command_line_refuses(tmp_path, capsys, table, message):
    with pytest.raises(InputError) as api:
        FDAlgebra(table)
    assert message in str(api.value)
    f = tmp_path / "g.json"
    f.write_text(json.dumps({"dim": 2, "bracket": table}))
    assert main(["check", "--dialgebra", str(f), "--variety", "lie"]) == 2
    assert capsys.readouterr().err == f"error: {api.value}\n"


def _traced(build) -> tuple:
    """build() and the size that tracemalloc traced while it ran, (kept, peak) in MiB."""
    tracemalloc.start()
    try:
        out = build()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, kept / 2 ** 20, peak / 2 ** 20


@functools.lru_cache(maxsize=None)
def _gl7() -> tuple:
    """gl(7) as a bracket file decodes, and as an FDAlgebra; the symbolic
    caches of the Leibniz check are filled on gl(2) first."""
    leibniz_to_dialgebra(gl(2))
    return json.loads(json.dumps({"dim": 49, "bracket": gl_table(7)})), gl(7)


def test_loading_gl7_keeps_no_dense_copy():
    data, _g = _gl7()
    g, _kept, peak = _traced(lambda: load_leibniz_data(data))
    assert g.dim == 49 and peak <= 1  # the parent peaked at 7.76 MiB


def test_diagonal_lift_of_gl7_shares_the_cells():
    _data, g = _gl7()
    lift, _kept, peak = _traced(lambda: diagonal_lift(g))
    assert lift.left_cells is lift.right_cells is g.cells
    assert peak <= 0.1  # the parent allocated 2.55 MiB


def test_leibniz_import_of_gl7_keeps_its_left_cells_only():
    _data, g = _gl7()
    d, kept, _peak = _traced(lambda: leibniz_to_dialgebra(g))
    assert d.right_cells is g.cells
    assert kept <= 1  # the parent kept 2.63 MiB


def _proper_subshapes(s) -> set:
    """The subshapes of s with two or more leaves, s itself left out."""
    out = set()
    for child in (s.left, s.right):
        if not child.is_leaf:
            out |= {child} | _proper_subshapes(child)
    return out


def test_tuple_values_match_the_per_tuple_fold():
    # single labeled monomials are not identities, so a product kept under
    # the wrong label or leaf order changes a value
    algebras = corpus() + [("gl2", leibniz_to_dialgebra(gl(2)))]
    algebras += [(f"random{k}", FDDialgebra(left, right))
                 for k, (left, right) in enumerate(_random_tables(5, 13))]
    nonzero = 0
    for name, d in algebras:
        basis = [d.basis(i) for i in range(d.dim)]
        monomials = [(s, p) for s in all_dishapes(3) for p in symmetric_group(3)]
        if d.dim == 2:
            monomials += [(s, p) for s in all_dishapes(4) for p in ((1, 2, 3, 4), (4, 2, 1, 3))]
        for shape, perm in monomials:
            p = DiPoly.monomial(shape, perm)
            subwords: dict = {}
            got = list(eval_on_tuples(p, basis, (d.lprod, d.rprod), subwords))
            assert [idx for idx, _val in got] == list(
                itertools.product(range(d.dim), repeat=p.arity))
            for idx, val in got:
                assert val == eval_poly(d, p, [basis[i] for i in idx]), (name, shape, perm, idx)
                nonzero += bool(val)
            assert len(subwords) <= len(_proper_subshapes(shape)) * d.dim ** (p.arity - 1)
    assert nonzero


def test_witness_is_the_first_lex_failing_tuple():
    identities = list(zero_dialgebra_axioms())
    for name in BUILTIN:
        identities += derive_variety(builtin_identity_set(name)).derived
    dialgebras = corpus() + [("gl2", leibniz_to_dialgebra(gl(2)))]
    dialgebras += [(f"random{k}", FDDialgebra(left, right))
                   for k, (left, right) in enumerate(_random_tables(5, 14))]
    algebras = [("leibniz3", leibniz3()), ("gl2", gl(2))]
    algebras += [(f"random{k}", FDAlgebra(left))
                 for k, (left, _right) in enumerate(_random_tables(5, 15))]
    cases = [(name, d, p) for name, d in dialgebras for p in identities]
    cases += [(name, g, _left_leibniz_poly()) for name, g in algebras]
    witnesses = []
    for name, alg, p in cases:
        w = eval_identity(alg, p)
        assert w == first_lex_witness(alg, p), (name, str(p))
        witnesses.append(w)
    assert sum(w is None for w in witnesses) > 20
    assert len({w.tuple_indices for w in witnesses if w is not None}) > 3
