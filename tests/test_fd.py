import itertools
import random
from fractions import Fraction

import pytest

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
from support import eval_poly, first_lex_witness, gl, psi

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


def test_sparse_cells_match_the_dense_walk():
    gl3 = gl(3)
    for name, d in corpus() + [("gl3", leibniz_to_dialgebra(gl3))]:
        vecs = [{i: 1} for i in range(d.dim)] + [{0: 1, d.dim - 1: Fraction(-1, 2)}]
        for x, y in itertools.product(vecs, repeat=2):
            assert d.lprod(x, y) == _dense_walk(d.left, x, y), (name, x, y)
            assert d.rprod(x, y) == _dense_walk(d.right, x, y), (name, x, y)
    for i, j in itertools.product(range(gl3.dim), repeat=2):
        x, y = gl3.basis(i), gl3.basis(j)
        assert gl3.product(x, y) == _dense_walk(gl3.table, x, y)


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
