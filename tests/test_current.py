import itertools
import random
from fractions import Fraction

import pytest

from divaria.current import CurrentPA, pm_unit
from divaria.pseudo import (CoefficientDialgebra, PseudoAlgebra, leaf_spread, product,
                            pseudo_product)
from divaria.translate import derive_variety, zero_dialgebra_axioms
from divaria.varieties import builtin_identity_set


def test_coefficient_operations_evaluate_at_zero():
    cur = CurrentPA(2)
    x = cur.add(pm_unit(0, 1), cur.t_act(pm_unit(0, 0)))   # E12 + T E11
    y = cur.add(pm_unit(1, 0), cur.t_act(pm_unit(1, 1)))   # E21 + T E22
    # x |- y = x(0) y ; x -| y = x y(0)
    assert cur.rprod(x, y) == {(0, 0, 0): Fraction(1), (1, 0, 1): Fraction(1)}
    assert cur.lprod(x, y) == {(0, 0, 0): Fraction(1)}


def _random_polymat(rng, dim: int, kind) -> dict:
    """Up to 6 nonzero entries of kind (int or Fraction) in T-degree <= 3."""
    out = {}
    for _ in range(rng.randrange(7)):
        value = rng.choice([-3, -1, 1, 2])
        if kind is Fraction:
            value = Fraction(value, rng.choice([1, 2, 3]))
        out[(rng.randrange(4), rng.randrange(dim), rng.randrange(dim))] = value
    return out


@pytest.mark.parametrize("bracket", [False, True])
def test_closed_form_coefficient_products_match_the_base_product(bracket):
    # the closed forms x(0) y and x y(0) against the terms of base_product
    # read off by the generic PseudoAlgebra products, on the same instance
    rng = random.Random(23 + bracket)
    cur = CurrentPA(3, bracket=bracket)
    mats = [{}] + [_random_polymat(rng, 3, kind) for kind in (int, Fraction) for _ in range(20)]
    nonzero = 0
    for x, y in itertools.product(mats, repeat=2):
        for closed, generic in ((cur.rprod, PseudoAlgebra.rprod), (cur.lprod, PseudoAlgebra.lprod)):
            want = generic(cur, x, y)
            assert closed(x, y) == want, (x, y)
            nonzero += bool(want)
    assert nonzero


def test_current_n_products_concentrate():
    cur = CurrentPA(2)
    x = pm_unit(0, 1)
    y = pm_unit(1, 0)
    assert cur.eq(product(cur, x, y).coefficient((0,)), pm_unit(0, 0))
    assert cur.is_zero(product(cur, x, y).coefficient((1,)))
    # with T powers the product climbs the expected slot degrees
    tx = cur.t_act(x)
    prod = pseudo_product(cur, leaf_spread(cur, tx), leaf_spread(cur, y))
    assert set(prod.terms) == {(1,)}


def test_truncated_coefficient_dialgebra_is_associative():
    cur = CurrentPA(2)
    cd = CoefficientDialgebra(cur)
    basis = [cur.t_pow(pm_unit(r, c), k)
             for k in range(3) for r in range(2) for c in range(2)]
    identities = list(zero_dialgebra_axioms()) + list(
        derive_variety(builtin_identity_set("associative")).derived)
    for p in identities:
        for combo in itertools.product(range(len(basis)), repeat=3):
            args = [basis[i] for i in combo]
            assert cur.is_zero(cd.eval_dipoly(p, args))


def test_lie_current_base_product_is_commutator():
    cur = CurrentPA(2, bracket=True)
    x, y = pm_unit(0, 1), pm_unit(1, 0)
    terms = cur.base_product(x, y)
    assert len(terms) == 1
    p, q, c = terms[0]
    assert (p, q) == (0, 0)
    assert c == {(0, 0, 0): Fraction(1), (0, 1, 1): Fraction(-1)}


def test_commutator_current_is_a_lie_pseudo_algebra():
    # a pseudo-algebra passing the variety check has a coefficient dialgebra
    # satisfying all the derived identities: instance of the general theorem
    from divaria.pseudo import check_var_pseudo
    from divaria.varieties import builtin_identity_set
    lie = builtin_identity_set("lie")
    cur = CurrentPA(2, bracket=True)
    assert check_var_pseudo(cur, lie) is None
    cd = CoefficientDialgebra(cur)
    gens = [g for _, g in cur.generators()]
    for p in derive_variety(lie).identities:
        for combo in itertools.product(gens, repeat=p.arity):
            assert cur.is_zero(cd.eval_dipoly(p, list(combo)))
