import random

import pytest

from divaria.errors import InputError, ResourceError
from divaria.linalg import vec_axpy
from divaria.operads import (ALGS, ALGSE, CONSEQUENCE_ARITY_BOUND, DIALGS, E,
                             OPERAD_ARITY_BOUND, SYM, IdentitySet, SymOperad, axiom_check,
                             consequence_space)
from divaria.perms import inverse, random_partition, random_perm, sym_compose, symmetric_group
from divaria.varieties import BUILTIN, builtin_identity_set
from divaria.words import (DILEAF, LEAF, LPROD, RPROD, DiPoly, MultilinearPoly, TensorPoly,
                           all_shapes, dinode, node, to_vec)
from support import relabeled_consequences

B2 = node(LEAF, LEAF)
LC3 = node(B2, LEAF)
RC3 = node(LEAF, B2)
ASSOC = MultilinearPoly.monomial(LC3, (1, 2, 3)) - MultilinearPoly.monomial(RC3, (1, 2, 3))
COMM = MultilinearPoly.monomial(B2, (1, 2)) - MultilinearPoly.monomial(B2, (2, 1))


def test_e_composition_example():
    assert E.compose((2, 1), (2, 2), [(2, 2), (2, 1)]) == (4, 2)


def test_algs_plain_substitution():
    x1x2 = MultilinearPoly.monomial(B2, (1, 2))
    x1 = MultilinearPoly.monomial(LEAF, (1,))
    assert ALGS.compose(x1x2, (2, 1), [x1x2, x1]) == MultilinearPoly.monomial(LC3, (1, 2, 3))


def test_algs_twisted_composition():
    # composing through a transposition reorders the arguments
    f = MultilinearPoly.monomial(B2, (2, 1))
    x1 = MultilinearPoly.monomial(LEAF, (1,))
    x1x2 = MultilinearPoly.monomial(B2, (1, 2))
    got = ALGS.compose(f, (1, 2), [x1, x1x2])
    assert got == MultilinearPoly.monomial(LC3, (2, 3, 1))
    # cross-check against direct word substitution: f = x2x1, so the word is
    # (x2x3)x1 once the two-argument block lands in front
    assert str(got) == "(x2*x3)*x1"


def test_dialgs_composition_keeps_every_label():
    # x2-|x1 with x1 -> x1 and x2 -> x2|-x3: the outer -| and the inner |- survive the graft
    x1 = DiPoly.monomial(DILEAF, (1,))
    f = DiPoly.monomial(dinode(LPROD, DILEAF, DILEAF), (2, 1))
    g = DiPoly.monomial(dinode(RPROD, DILEAF, DILEAF), (1, 2))
    got = DIALGS.compose(f, (1, 2), [x1, g])
    assert got == DiPoly.monomial(dinode(LPROD, dinode(RPROD, DILEAF, DILEAF), DILEAF), (2, 3, 1))
    assert str(got) == "(x2|-x3)-|x1"
    assert str(DIALGS.compose(f, (2, 1), [g, x1])) == "x3-|(x1|-x2)"


def test_algse_composition_moves_the_center():
    # the outer center x1 is replaced by block 1, whose own center is its
    # second slot: the composite's center is slot pair_to_index(pi, 1, 2) = 2
    t = TensorPoly.monomial(B2, (2, 1), 1)
    u = TensorPoly.monomial(B2, (1, 2), 2)
    x1 = TensorPoly.monomial(LEAF, (1,), 1)
    got = ALGSE.compose(t, (2, 1), [u, x1])
    assert got == TensorPoly.monomial(RC3, (3, 1, 2), 2)
    assert str(got) == "(x3*(x1*x2))@e2"
    assert str(ALGSE.compose(t, (2, 2), [u, t])) == "((x4*x3)*(x1*x2))@e2"


def test_arity_mismatch_errors():
    with pytest.raises(InputError):
        SYM.compose((1, 2), (2, 2), [(1, 2), (1,)])
    with pytest.raises(InputError):
        E.compose((2, 1), (2,), [(2, 1), (2, 1)])


# the law counts depend on every draw, so they pin the draw order of random_element
CHECKED = {
    "Sym": {"assoc": 84, "unit": 77, "equivariance": 89},
    "E": {"assoc": 90, "unit": 84, "equivariance": 76},
    "AlgS": {"assoc": 78, "unit": 84, "equivariance": 88},
    "DialgS": {"assoc": 78, "unit": 84, "equivariance": 88},
    "AlgS(x)E": {"assoc": 81, "unit": 84, "equivariance": 85},
}


@pytest.mark.parametrize("op,max_arity", [(SYM, 8), (E, 8), (ALGS, 5), (DIALGS, 5), (ALGSE, 5)])
def test_axiom_check_passes(op, max_arity):
    report = axiom_check(op, max_arity, 250, seed=17)
    assert report.passed, report.summary()
    assert report.checked == CHECKED[op.name]


# the counts of the command line's own run, operad-selftest --trials 1000 --seed 0,
# whose draws the benchmark times: Sym and E at arity 8, the polynomial operads at 5
CLI_CHECKED = {
    "Sym": {"assoc": 354, "unit": 333, "equivariance": 313},
    "E": {"assoc": 318, "unit": 346, "equivariance": 336},
    "AlgS": {"assoc": 335, "unit": 348, "equivariance": 317},
    "DialgS": {"assoc": 335, "unit": 348, "equivariance": 317},
    "AlgS(x)E": {"assoc": 328, "unit": 322, "equivariance": 350},
}


@pytest.mark.parametrize("op,max_arity", [(SYM, 8), (E, 8), (ALGS, 5), (DIALGS, 5), (ALGSE, 5)])
def test_axiom_check_counts_of_the_command_line_run(op, max_arity):
    report = axiom_check(op, max_arity, 1000, seed=0)
    assert report.passed, report.summary()
    assert report.checked == CLI_CHECKED[op.name]


@pytest.mark.parametrize("op", [SYM, E], ids=["Sym", "E"])
def test_axiom_check_arity_bound(op):
    assert axiom_check(op, OPERAD_ARITY_BOUND, 50, seed=3).passed
    with pytest.raises(ResourceError,
                       match=f"operad arity {OPERAD_ARITY_BOUND + 1} exceeds the documented bound"):
        axiom_check(op, OPERAD_ARITY_BOUND + 1, 50, seed=3)


def test_axiom_check_vacuous_at_arity_one():
    report = axiom_check(SYM, 1, 50, seed=0)
    assert report.passed
    assert report.checked["unit"] == 50


class BrokenSym(SymOperad):
    name = "BrokenSym"

    def compose(self, f, pi, gs):
        out = super().compose(f, pi, gs)
        if len(f) == 1 and len(out) > 1:
            return out[::-1]  # composing out of the unit reverses: unit law breaks
        return out


def test_axiom_check_fault_injection():
    report = axiom_check(BrokenSym(), 4, 60, seed=1)
    assert not report.passed
    assert any(f.law == "unit" for f in report.failures)
    assert "counterexample" in report.summary()


def test_sym_to_e_functor_preserves_composition():
    rng = random.Random(23)

    def F(sigma):
        return (len(sigma), inverse(sigma)[len(sigma) - 1])

    for _ in range(400):
        n = rng.randint(1, 4)
        m = rng.randint(n, 8)
        pi = random_partition(m, n, rng)
        sigma = random_perm(n, rng)
        taus = [random_perm(k, rng) for k in pi]
        assert F(sym_compose(sigma, pi, taus)) == E.compose(F(sigma), pi, [F(t) for t in taus])


# ---------------------------------------------------------------------------
# consequence spans
# ---------------------------------------------------------------------------

def normal_form(p: MultilinearPoly, sigma) -> dict:
    """Coordinates of the normal form of p modulo the consequences of sigma."""
    return consequence_space(sigma, p.arity).reduce(to_vec(p))


def test_consequences_commutativity_arity2():
    basis = consequence_space(IdentitySet("comm", (COMM,)), 2).rows()
    assert basis in ([to_vec(COMM)], [to_vec(-COMM)])


def test_consequences_associativity_rank6():
    space = consequence_space(IdentitySet("assoc", (ASSOC,)), 3)
    assert space.rank == 6  # 12-dim space, 6-dim quotient of associative words


def test_consequences_empty_sigma():
    assert consequence_space(IdentitySet("none", ()), 3).rows() == []


def test_consequence_arity_bound():
    with pytest.raises(InputError, match="consequence arity must be >= 2"):
        consequence_space(IdentitySet("comm", (COMM,)), 1)
    with pytest.raises(ResourceError,
                       match=f"arity 6 exceeds the documented bound {CONSEQUENCE_ARITY_BOUND}"):
        consequence_space(IdentitySet("comm", (COMM,)), 6)


# (variety, arity) -> rank of the consequence span, as the benchmark pins them
SPAN_RANKS = {("associative", 5): 1560, ("lie", 5): 1656, ("jordan", 5): 1625,
              ("alternative", 4): 88}


@pytest.mark.parametrize("name,n", [(name, n) for name in BUILTIN for n in (2, 3, 4)]
                         + [("associative", 5), ("lie", 5), ("jordan", 5)])
def test_relabeling_coordinates_matches_relabeling_polynomials(name, n):
    ids = builtin_identity_set(name)
    space = consequence_space(ids, n)
    assert space == relabeled_consequences(ids, n)
    if (name, n) in SPAN_RANKS:
        assert space.rank == SPAN_RANKS[name, n]


def test_varalg_reduce_associative_classes():
    sigma = IdentitySet("assoc", (ASSOC,))
    a = MultilinearPoly.monomial(LC3, (1, 2, 3))
    b = MultilinearPoly.monomial(RC3, (1, 2, 3))
    assert normal_form(a, sigma) == normal_form(b, sigma)
    assert normal_form(ASSOC, sigma) == {}


def test_varalg_reduce_commutative():
    sigma = IdentitySet("comm", (COMM,))
    swapped = MultilinearPoly.monomial(B2, (2, 1))
    plain = MultilinearPoly.monomial(B2, (1, 2))
    assert normal_form(swapped, sigma) == normal_form(plain, sigma)


def test_each_call_builds_its_own_consequence_space():
    lie = builtin_identity_set("lie")
    first = consequence_space(lie, 3)
    assert first.rank == 10
    monomials = (to_vec(MultilinearPoly.monomial(s, p))
                 for s in all_shapes(3) for p in symmetric_group(3))
    assert first.add(next(v for v in monomials if not first.contains(v)))
    assert first.rank == 11
    second = consequence_space(lie, 3)
    assert second is not first and second.rank == 10


def test_reduce_difference_lies_in_span():
    rng = random.Random(7)
    sigma = IdentitySet("assoc", (ASSOC,))
    space = consequence_space(sigma, 3)
    for _ in range(25):
        p = MultilinearPoly(3)
        for _ in range(3):
            p = p + MultilinearPoly.monomial(
                rng.choice(all_shapes(3)), random_perm(3, rng)).scale(rng.randint(-2, 2))
        diff = normal_form(p, sigma)
        vec_axpy(diff, -1, to_vec(p))
        assert space.contains(diff)
