"""Exact scalars: integral coefficients are int, the others Fraction, none float.

The corpus has integer structure constants, so these tests also rescale
bases by non-integral factors to reach the Fraction paths.
"""

import itertools
from fractions import Fraction

import pytest

from divaria.envelope import build_envelope, build_var_quotient, closed_form_eval, oracle_sweep
from divaria.pseudo import eval_term
from divaria.fd import FDDialgebra, corpus
from divaria.operads import IdentitySet, consequence_space
from divaria.perms import symmetric_group
from divaria.varieties import builtin_identity_set
from divaria.words import all_shapes

LAMBDAS = (Fraction(1, 2), Fraction(3), Fraction(-2, 3))
CORPUS = dict(corpus())
# the variety whose quotient is compared: bar-unit is not a Lie dialgebra
VARIETY = {"leibniz2": "lie", "sl2": "lie", "bar-unit": "associative"}


def rescaled(d: FDDialgebra) -> FDDialgebra:
    """The same dialgebra in the basis f_i = lam_i e_i:
    f_i * f_j = sum_k (lam_i lam_j / lam_k) c_ij^k f_k."""
    lam = LAMBDAS[:d.dim]

    def table(cells):
        return [[[lam[i] * lam[j] / lam[k] * cells[i][j].get(k, 0) for k in range(d.dim)]
                 for j in range(d.dim)] for i in range(d.dim)]

    return FDDialgebra(table(d.left_cells), table(d.right_cells), d.labels)


def _is_exact(c) -> bool:
    return type(c) is int or type(c) is Fraction


def _spread_coeffs(spread):
    for elem in spread.terms.values():
        yield from elem.c0.values()
        yield from elem.c1.values()


def _evaluations(env, max_arity: int):
    """eval_term and closed_form_eval on every word of degree <= max_arity, on
    every basis tuple and on every tensor generator in every slot."""
    for n in range(1, max_arity + 1):
        for shape in all_shapes(n):
            for perm in symmetric_group(n):
                word = (shape, perm)
                arg_lists = [[env.basis_a(i) for i in idx]
                             for idx in itertools.product(range(env.A.dim), repeat=n)]
                arg_lists += [[env.pair(*pr) if pos == slot else env.basis_a(0) for pos in range(n)]
                              for slot in range(n) for pr in env.c1_basis]
                for args in arg_lists:
                    yield eval_term(env, word, args)
                    yield closed_form_eval(env, word, args)


@pytest.mark.parametrize("name", sorted(VARIETY))
def test_rescaled_algebra_has_fraction_constants(name):
    d = rescaled(CORPUS[name])
    entries = [c for t in (d.left_cells, d.right_cells) for row in t for cell in row
               for c in cell.values()]
    assert any(type(c) is Fraction for c in entries)
    assert all(_is_exact(c) for c in entries)
    assert all(type(c) is int for c in entries if c.denominator == 1)


@pytest.mark.parametrize("name", sorted(VARIETY))
def test_rescaled_oracle_sweep(name):
    env = build_envelope(rescaled(CORPUS[name]))
    # every tensor generator with every basis tuple in the other slots
    bad, checked = oracle_sweep(env, 3, lambda n: [
        (pr, idx) for pr in env.c1_basis
        for idx in itertools.product(range(env.A.dim), repeat=n - 1)])
    assert bad is None, bad
    assert checked > 0


@pytest.mark.parametrize("name", sorted(VARIETY))
def test_rescaled_quotient_ranks(name):
    sigma = builtin_identity_set(VARIETY[name])
    plain = build_var_quotient(build_envelope(CORPUS[name]), sigma)
    scaled = build_var_quotient(build_envelope(rescaled(CORPUS[name])), sigma)
    assert scaled.ideal.rank == plain.ideal.rank
    assert len(scaled.quotient.c1_basis) == len(plain.quotient.c1_basis)


@pytest.mark.parametrize("name,scale", [(n, s) for n in sorted(VARIETY) for s in (False, True)])
def test_no_float_in_results(name, scale):
    d = rescaled(CORPUS[name]) if scale else CORPUS[name]
    env = build_envelope(d)
    coeffs = [c for spread in _evaluations(env, 3) for c in _spread_coeffs(spread)]
    vq = build_var_quotient(env, builtin_identity_set(VARIETY[name]))
    coeffs += [c for row in vq.ideal.rows() for c in row.values()]
    assert coeffs and all(_is_exact(c) for c in coeffs)


def test_no_float_in_consequence_rows():
    lie = builtin_identity_set("lie")
    halved = IdentitySet("half-lie", tuple(t.scale(Fraction(1, 2)) for t in lie))
    plain, scaled = consequence_space(lie, 4), consequence_space(halved, 4)
    assert plain == scaled
    rows = plain.rows()
    assert rows and all(_is_exact(c) for row in rows for c in row.values())


# bar-unit is left out: its defect relations have entries 1/2
@pytest.mark.parametrize("name", [name for name in CORPUS if name != "bar-unit"])
def test_integral_inputs_stay_int(name):
    """Integer structure constants with integral relation rows never make a Fraction."""
    env = build_envelope(CORPUS[name])
    assert all(type(c) is int for row in env.rel.rows() for c in row.values())
    coeffs = [c for spread in _evaluations(env, 3) for c in _spread_coeffs(spread)]
    assert coeffs and all(type(c) is int for c in coeffs)
