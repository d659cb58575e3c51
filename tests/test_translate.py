import itertools
import random
import time
from fractions import Fraction

import pytest

from divaria import perms
from divaria.dsl import parse_variety
from divaria.errors import InputError
from divaria.operads import ALGSE, DIALGS, IdentitySet
from divaria.perms import random_partition, random_perm, symmetric_group
from divaria.translate import (_same_orbit, derive_variety, psi_section, rewrite_single_op,
                               zero_dialgebra_axioms)
from divaria.varieties import builtin_identity_set
from divaria.words import (DiPoly, DILEAF, LEAF, LPROD, RPROD, TensorPoly,
                           all_dishapes, all_shapes, dinode, node)
from support import alpha_center, parse_expression, psi, relabeled_orbit_key

B2D_L = dinode(LPROD, DILEAF, DILEAF)
B2D_R = dinode(RPROD, DILEAF, DILEAF)


def DP(text):
    p = parse_expression(text)
    assert isinstance(p, DiPoly)
    return p


def test_psi_examples():
    assert psi(DiPoly.monomial(B2D_L, (1, 2))) == TensorPoly.monomial(node(LEAF, LEAF), (1, 2), 1)
    assert psi(DP("(x1|-x2)-|x3")) == TensorPoly.monomial(node(node(LEAF, LEAF), LEAF), (1, 2, 3), 2)
    assert psi(DiPoly.monomial(B2D_R, (2, 1))) == TensorPoly.monomial(node(LEAF, LEAF), (2, 1), 1)


def test_alpha_center_examples():
    word, tau, center = alpha_center((B2D_L, (1, 2)))
    assert tau == (2, 1) and center == 1
    word, tau, center = alpha_center((dinode(LPROD, B2D_R, DILEAF), (1, 2, 3)))
    assert tau == (2, 3, 1) and center == 2
    word, tau, center = alpha_center((dinode(RPROD, B2D_R, DILEAF), (1, 2, 3)))
    assert tau == (1, 2, 3) and center == 3


def test_psi_section_examples():
    lc = node(node(LEAF, LEAF), LEAF)
    rc = node(LEAF, node(LEAF, LEAF))
    id3 = (1, 2, 3)
    assert psi_section(TensorPoly.monomial(lc, id3, 1) - TensorPoly.monomial(rc, id3, 1)) \
        == DP("(x1-|x2)-|x3 - x1-|(x2-|x3)")
    assert psi_section(TensorPoly.monomial(lc, id3, 3) - TensorPoly.monomial(rc, id3, 3)) \
        == DP("(x1|-x2)|-x3 - x1|-(x2|-x3)")
    # word x2x1 with center variable x1 labels toward the second leaf
    assert psi_section(TensorPoly.monomial(node(LEAF, LEAF), (2, 1), 1)) == DP("x2|-x1")


def test_section_is_a_section_everywhere():
    # fullness: every tensor monomial of arity <= 5 has a preimage
    for n in range(1, 6):
        group = symmetric_group(n)
        for shape in all_shapes(n):
            for sigma in group[:6]:
                for center in range(1, n + 1):
                    q = TensorPoly.monomial(shape, sigma, center)
                    assert psi(psi_section(q)) == q


def test_psi_equivariance():
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randint(1, 6)
        mono = (rng.choice(all_dishapes(n)), random_perm(n, rng))
        p = DiPoly.monomial(*mono)
        sigma = random_perm(n, rng)
        assert psi(p.act(sigma)) == psi(p).act(sigma)


def test_psi_functoriality():
    rng = random.Random(37)
    for _ in range(250):
        n = rng.randint(1, 3)
        m = rng.randint(n, 7)
        pi = random_partition(m, n, rng)
        f = DiPoly.monomial(rng.choice(all_dishapes(n)), random_perm(n, rng))
        gs = [DiPoly.monomial(rng.choice(all_dishapes(k)), random_perm(k, rng)) for k in pi]
        lhs = psi(DIALGS.compose(f, pi, gs))
        rhs = ALGSE.compose(psi(f), pi, [psi(g) for g in gs])
        assert lhs == rhs


def test_center_rule_vs_recursion():
    # alpha_center itself asserts n*tau^{-1} equals the path descent; run it broadly
    rng = random.Random(41)
    for _ in range(500):
        n = rng.randint(1, 7)
        alpha_center((rng.choice(all_dishapes(n)), random_perm(n, rng)))


def test_zero_axioms_forms():
    z1, z2 = zero_dialgebra_axioms()
    assert z1 == DP("(x1-|x2)|-x3 - (x1|-x2)|-x3")
    assert z2 == DP("x1-|(x2|-x3) - x1-|(x2-|x3)")


def test_derive_associative_exact():
    dv = derive_variety(builtin_identity_set("associative"))
    assert list(dv.derived) == [
        DP("(x1-|x2)-|x3 - x1-|(x2-|x3)"),
        DP("(x1|-x2)-|x3 - x1|-(x2-|x3)"),
        DP("(x1|-x2)|-x3 - x1|-(x2|-x3)"),
    ]


def test_derive_commutative_includes_two_product_rule():
    dv = derive_variety(builtin_identity_set("commutative"))
    assert dv.derived[-1] == DP("x1-|x2 - x2|-x1")
    assert dv.commutation_rule() == 1
    # the displayed orientation x1|-x2 - x2-|x1 is the (12)-translate times -1
    assert DP("x1|-x2 - x2-|x1") == -(dv.derived[-1].act((2, 1)))


def test_derive_lie_includes_anticommutation():
    dv = derive_variety(builtin_identity_set("lie"))
    assert DP("x1-|x2 + x2|-x1") in dv.derived
    assert dv.commutation_rule() == -1


@pytest.mark.parametrize("variety,lam", [("commutative", 1), ("lie", -1)])
def test_commutation_rule_is_exact(variety, lam):
    got = derive_variety(builtin_identity_set(variety)).commutation_rule()
    assert got == lam and type(got) in (int, Fraction)


def test_same_orbit_divides_exactly():
    # integer coefficients whose quotients 3/5 and 5/3 have no exact float
    p = DP("3 x1|-x2 + 5 x2-|x1")
    assert _same_orbit(p, p.scale(Fraction(2, 7)))
    assert _same_orbit(p, DP("x2|-x1 + 5/3 x1-|x2"))
    assert not _same_orbit(p, DP(f"x2|-x1 + {5 * 10 ** 20 + 1}/{3 * 10 ** 20} x1-|x2"))
    assert not _same_orbit(p, DP("5 x1|-x2 + 3 x2-|x1"))


def builtin_candidates() -> list:
    """The section candidate of every builtin identity at every center."""
    out = []
    for name in ("associative", "commutative", "alternative", "lie", "jordan"):
        for t in builtin_identity_set(name):
            for i in range(1, t.arity + 1):
                cand = psi_section(TensorPoly(t.arity, {
                    (shape, perm, i): c for (shape, perm), c in t.terms.items()}))
                if not cand.is_zero():
                    out.append(cand)
    return out


def test_same_orbit_agrees_with_the_key_over_all_relabelings():
    rng = random.Random(22)
    coeffs = (-3, -1, Fraction(1, 2), 1, 2)
    polys = []
    while len(polys) < 400:
        n = rng.randint(2, 4)
        p = DiPoly(n, {DiPoly.random_mono(n, rng): rng.choice(coeffs)
                       for _ in range(rng.randint(1, 4))})
        if not p.is_zero():
            # a relabeled and scaled copy, so that pairs in one orbit occur
            polys += [p, p.act(random_perm(n, rng)).scale(rng.choice(coeffs))]
    polys += builtin_candidates()
    keys = [relabeled_orbit_key(p) for p in polys]
    same = 0
    for p, kp in zip(polys, keys):
        for q, kq in zip(polys, keys):
            assert _same_orbit(p, q) == (kp == kq), (p, q)
            same += kp == kq
    assert same > 2 * len(polys)


def test_derive_bounds_its_work_on_a_symmetric_identity(monkeypatch):
    # x1 F0 F1 F2, each F_k ten monomials of the one shape ((a*b)*c)*d at
    # arity 4: every candidate has 1,000 terms, and many relabelings map its
    # terms of least shape among themselves
    factors = []
    for k in range(3):
        xs = [f"x{i}" for i in range(4 * k + 2, 4 * k + 6)]
        monos = itertools.islice(itertools.permutations(xs), 10)
        factors.append("(" + " + ".join(f"(({a}*{b})*{c})*{d}" for a, b, c, d in monos) + ")")
    (t,) = parse_variety(f"variety symmetric\nidentity x1*{'*'.join(factors)}\n")
    assert t.arity == 13 and len(t.terms) == 1000
    compose, calls = perms.compose, []

    def counted_compose(s, u):
        calls.append(None)
        return compose(s, u)

    monkeypatch.setattr(perms, "compose", counted_compose)
    derived = derive_variety(IdentitySet("symmetric", (t,))).derived
    assert len(derived) == 13
    assert len(calls) <= 100_000


def _ten_distinct_monomials(a: int) -> str:
    """A sum of ten distinct monomials in xa, xa+1, xa+2."""
    monos = []
    for x, y, z in itertools.permutations(f"x{i}" for i in range(a, a + 3)):
        monos += [f"({x}*{y})*{z}", f"{x}*({y}*{z})"]
    return "(" + " + ".join(monos[:10]) + ")"


def test_orbit_key_compares_least_shape_terms_first():
    # 1,000 distinct monomials at arity 9: each of the 9 candidates of derive
    # has up to 50 terms of least shape, and relabeling all 1,000 terms once
    # for each of them takes longer than the bound
    line = "*".join(_ten_distinct_monomials(3 * i + 1) for i in range(3))
    (t,) = parse_variety(f"variety long\nidentity {line}\n")
    assert t.arity == 9 and len(t.terms) == 1000
    start = time.perf_counter()
    derived = derive_variety(IdentitySet("long", (t,))).derived
    assert time.perf_counter() - start < 1.5
    assert len(derived) == 9


def test_derive_alternative_exactly_four():
    dv = derive_variety(builtin_identity_set("alternative"))
    expected = [
        DP("(x1-|x2)-|x3 - x1-|(x2-|x3) + (x2|-x1)-|x3 - x2|-(x1-|x3)"),
        DP("(x1|-x2)|-x3 - x1|-(x2|-x3) + (x2|-x1)|-x3 - x2|-(x1|-x3)"),
        DP("(x1-|x2)-|x3 - x1-|(x2-|x3) + (x1-|x3)-|x2 - x1-|(x3-|x2)"),
        DP("(x1|-x2)-|x3 - x1|-(x2-|x3) + (x1|-x3)|-x2 - x1|-(x3|-x2)"),
    ]
    assert list(dv.derived) == expected


def test_derived_identities_round_trip():
    # each derived identity maps back to its source tensor element
    for name in ("associative", "commutative", "alternative", "lie", "jordan"):
        sigma = builtin_identity_set(name)
        dv = derive_variety(sigma)
        for p, (t_idx, i) in zip(dv.derived, dv.provenance):
            t = sigma.identities[t_idx]
            expected = TensorPoly(t.arity, {(s, pm, i): c for (s, pm), c in t.terms.items()})
            assert psi(p) == expected
        for z in dv.zero_axioms:
            assert psi(z).is_zero()


def test_rewrite_requires_commutation():
    dv = derive_variety(builtin_identity_set("associative"))
    with pytest.raises(InputError):
        rewrite_single_op(dv)


def test_rewrite_lie_gives_left_leibniz():
    dv = derive_variety(builtin_identity_set("lie"))
    ops = rewrite_single_op(dv)
    leibniz = parse_expression("x1*(x2*x3) - (x1*x2)*x3 - x2*(x1*x3)")
    assert leibniz in ops


def test_rewrite_jordan_degree3():
    # the rewritten zero-dialgebra axioms span the degree-3 one-product identity
    dv = derive_variety(builtin_identity_set("jordan"))
    ops = rewrite_single_op(dv)
    jl0 = parse_expression("(x1*x2)*x3 - (x2*x1)*x3")
    deg3 = [p for p in ops if p.arity == 3]
    assert deg3
    from divaria.operads import consequence_space
    assert consequence_space(IdentitySet("a", tuple(deg3)), 3) \
        == consequence_space(IdentitySet("b", (jl0,)), 3)
