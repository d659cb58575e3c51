"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Everything is exact rational arithmetic; "equal" below always means exact
equality of canonical forms (or of RREF row spaces for span statements).
Run with `pytest -s tests/test_acceptance.py` to see the lines.
"""

import itertools
import random
import time

from divaria.conformal import build_rho, embed_associative, verify_representation
from divaria.current import CurrentPA, pm_unit
from divaria.envelope import build_envelope, build_var_quotient, extend_hom, oracle_sweep
from divaria.fd import corpus, leibniz2, leibniz_to_dialgebra
from divaria.operads import (ALGS, ALGSE, DIALGS, E, IdentitySet, SYM, axiom_check,
                             consequence_space)
from divaria.perms import from_cycles, random_partition, random_perm, sym_compose, symmetric_group
from divaria.pseudo import CoefficientDialgebra, check_var_pseudo
from divaria.translate import derive_variety, psi_section, rewrite_single_op, zero_dialgebra_axioms
from divaria.varieties import builtin_identity_set
from divaria.words import DiPoly, all_dishapes
from support import alpha_center, parse_expression, psi

DP = parse_expression


def _report(num, desc, ok, started):
    print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'} ({time.time() - started:5.2f}s): {desc}")
    assert ok, f"criterion {num} failed: {desc}"


ZERO_ID = [
    "(x1-|x2)|-x3 - (x1|-x2)|-x3",
    "x1-|(x2|-x3) - x1-|(x2-|x3)",
]
DIASS = [
    "(x1-|x2)-|x3 - x1-|(x2-|x3)",
    "(x1|-x2)-|x3 - x1|-(x2-|x3)",
    "(x1|-x2)|-x3 - x1|-(x2|-x3)",
]


def test_criterion_01_derive_associative():
    t0 = time.time()
    dv = derive_variety(builtin_identity_set("associative"))
    got = list(dv.identities)
    want = [DP(s) for s in ZERO_ID + DIASS]
    ok = len(got) == 5 and all(g == w for g, w in zip(sorted_polys(got), sorted_polys(want)))
    _report(1, "associative: exactly the zero-dialgebra axioms plus the three "
               "derived identities", ok, t0)


def sorted_polys(ps):
    return sorted(ps, key=DiPoly.sort_key)


def test_criterion_02_derive_commutative():
    t0 = time.time()
    dv = derive_variety(builtin_identity_set("commutative"))
    dicomm = DP("x1|-x2 - x2-|x1")
    # the derived two-product rule agrees with the displayed one up to
    # relabeling and sign (same orbit, mutual consequences)
    two = [p for p in dv.derived if p.arity == 2]
    ok = len(two) == 1 and any(
        two[0].act(s) == dicomm or two[0].act(s) == -dicomm for s in symmetric_group(2))
    ops = rewrite_single_op(dv)
    lhs = IdentitySet("lhs", tuple(ops))
    rhs = IdentitySet("rhs", (DP("(x1*x2)*x3 - x1*(x2*x3)"),
                              DP("(x1*x2)*x3 - (x2*x1)*x3")))
    ok = ok and consequence_space(lhs, 3) == consequence_space(rhs, 3)
    ok = ok and consequence_space(lhs, 2) == consequence_space(rhs, 2)
    _report(2, "commutative: two-product rule + single-op span equals "
               "{associativity, [x1,x2]x3 = 0}", ok, t0)


def test_criterion_03_derive_alternative():
    t0 = time.time()
    dv = derive_variety(builtin_identity_set("alternative"))
    want = [
        DP("(x1-|x2)-|x3 - x1-|(x2-|x3) + (x2|-x1)-|x3 - x2|-(x1-|x3)"),
        DP("(x1|-x2)|-x3 - x1|-(x2|-x3) + (x2|-x1)|-x3 - x2|-(x1|-x3)"),
        DP("(x1-|x2)-|x3 - x1-|(x2-|x3) + (x1-|x3)-|x2 - x1-|(x3-|x2)"),
        DP("(x1|-x2)-|x3 - x1|-(x2-|x3) + (x1|-x3)|-x2 - x1|-(x3|-x2)"),
    ]
    ok = list(dv.derived) == want
    _report(3, "alternative: exactly the four derived identities", ok, t0)


def test_criterion_04_derive_lie():
    t0 = time.time()
    dv = derive_variety(builtin_identity_set("lie"))
    ok = DP("x1-|x2 + x2|-x1") in dv.derived
    ops = rewrite_single_op(dv)
    ok = ok and DP("x1*(x2*x3) - (x1*x2)*x3 - x2*(x1*x3)") in ops
    _report(4, "lie: x1-|x2 + x2|-x1 derived; single-op yields the left "
               "Leibniz identity", ok, t0)


def test_criterion_05_derive_jordan():
    t0 = time.time()
    dv = derive_variety(builtin_identity_set("jordan"))
    displays = [
        DP("x1-|(x2-|(x3-|x4)) + (x2|-(x1-|x3))-|x4 + x3|-(x2|-(x1-|x4))"
           " - (x1-|x2)-|(x3-|x4) - (x1-|x3)-|(x2-|x4) - (x3|-x2)|-(x1-|x4)"),
        DP("x1|-(x2-|(x3-|x4)) + (x2-|(x1-|x3))-|x4 + x3|-(x2-|(x1-|x4))"
           " - (x1|-x2)-|(x3-|x4) - (x1|-x3)|-(x2-|x4) - (x3|-x2)-|(x1-|x4)"),
        DP("x1|-(x2|-(x3-|x4)) + (x2|-(x1|-x3))-|x4 + x3-|(x2-|(x1-|x4))"
           " - (x1|-x2)|-(x3-|x4) - (x1|-x3)-|(x2-|x4) - (x3-|x2)-|(x1-|x4)"),
        DP("x1|-(x2|-(x3|-x4)) + (x2|-(x1|-x3))|-x4 + x3|-(x2|-(x1|-x4))"
           " - (x1|-x2)|-(x3|-x4) - (x1|-x3)|-(x2|-x4) - (x3|-x2)|-(x1|-x4)"),
    ]
    four = [p for p in dv.derived if p.arity == 4]
    ok = four == displays
    ops = rewrite_single_op(dv)  # includes the rewritten zero-dialgebra axioms
    jl = IdentitySet("jl", (
        DP("(x1*x2)*x3 - (x2*x1)*x3"),
        DP("((x4*x3)*x2)*x1 + x4*(x2*(x3*x1)) + x3*(x2*(x4*x1))"
           " - (x4*x3)*(x2*x1) - (x4*x2)*(x3*x1) - (x3*x2)*(x4*x1)"),
        DP("x1*((x4*x3)*x2) + x4*((x3*x1)*x2) + x3*((x4*x1)*x2)"
           " - (x4*x3)*(x1*x2) - (x1*x3)*(x4*x2) - (x4*x1)*(x3*x2)"),
    ))
    lhs = IdentitySet("lhs", tuple(ops))
    for n in (3, 4):
        ok = ok and consequence_space(lhs, n) == consequence_space(jl, n)
    _report(5, "jordan: the four displayed identities; single-op spans match "
               "the one-product axioms in degrees 3-4", ok, t0)


def test_criterion_06_operad_selftest():
    t0 = time.time()
    worked = sym_compose(from_cycles(3, [(1, 2, 3)]), (3, 2, 4),
                         [from_cycles(3, [(1, 3, 2)]), (2, 1), from_cycles(4, [(2, 3, 4)])])
    ok = worked == (7, 5, 6, 9, 8, 1, 3, 4, 2)
    for op in (SYM, E, ALGS, DIALGS, ALGSE):
        rep = axiom_check(op, 8, 1000, seed=0)
        ok = ok and rep.passed and sum(rep.checked.values()) >= 1000
    _report(6, "operads: laws hold on 1000 seeded instances each (m <= 8); "
               "worked composition example exact", ok, t0)


def test_criterion_07_translation_suite():
    t0 = time.time()
    rng = random.Random(2024)
    ok = True
    for _ in range(500):
        n = rng.randint(1, 7)
        mono = (rng.choice(all_dishapes(n)), random_perm(n, rng))
        p = DiPoly.monomial(*mono)
        sigma = random_perm(n, rng)
        ok = ok and psi(p.act(sigma)) == psi(p).act(sigma)          # equivariance
        q = psi(p)
        ok = ok and psi(psi_section(q)) == q                        # section
        alpha_center(mono)                                          # center vs recursion
    for _ in range(500):
        n = rng.randint(1, 3)
        m = rng.randint(n, 7)
        pi = random_partition(m, n, rng)
        f = DiPoly.monomial(rng.choice(all_dishapes(n)), random_perm(n, rng))
        gs = [DiPoly.monomial(rng.choice(all_dishapes(k)), random_perm(k, rng)) for k in pi]
        ok = ok and psi(DIALGS.compose(f, pi, gs)) == ALGSE.compose(psi(f), pi, [psi(g) for g in gs])
    _report(7, "translation functor: functoriality, equivariance, section "
               "round trip, center rule on 500+ random instances", ok, t0)


def test_criterion_08_envelope_oracle_equality():
    t0 = time.time()
    members = corpus()
    assert members[0][0] == "leibniz2" and len(members) >= 6
    rng = random.Random(88)
    for name, d in members:
        env = build_envelope(d)

        def one_pair(n):
            # three seeded (pair, basis tuple) draws per word and slot
            if not env.c1_basis:
                return []
            return [(env.c1_basis[rng.randrange(len(env.c1_basis))],
                     tuple(rng.randrange(d.dim) for _ in range(n - 1))) for _ in range(3)]

        bad, checked = oracle_sweep(env, 4, one_pair)
        assert bad is None, f"oracle mismatch in {name}: {bad}"
        # every basis tuple of every word of degree <= 4, plus 3 one-pair
        # tuples per word and slot (1563 in all)
        assert checked == {2: 2026, 3: 10065}[d.dim] + 1563, name
    _report(8, "envelope: recursive evaluation equals the closed forms for all "
               "words of degree <= 4 over the whole corpus", True, t0)


def test_criterion_09_variety_quotient_instance():
    t0 = time.time()
    lie = builtin_identity_set("lie")
    d = leibniz_to_dialgebra(leibniz2())
    env = build_envelope(d)
    vq = build_var_quotient(env, lie)  # raises if any degree-zero part survives
    ok = vq.ideal.rank >= 1
    # the ideal lives entirely in the tensor part, so it meets the free part
    # trivially (its degree-zero coefficients were checked to vanish above)
    ok = ok and all(all(isinstance(k, tuple) and len(k) == 2 for k in row)
                    for row in vq.ideal.rows())
    q = vq.quotient
    cd = CoefficientDialgebra(q)
    for i in range(d.dim):
        for j in range(d.dim):
            bi, bj = d.basis(i), d.basis(j)
            ok = ok and q.eq(q.rprod(q.basis_a(i), q.basis_a(j)), q.from_a(d.rprod(bi, bj)))
            ok = ok and q.eq(q.lprod(q.basis_a(i), q.basis_a(j)), q.from_a(d.lprod(bi, bj)))
    ok = ok and check_var_pseudo(q, lie) is None
    gens = [g for _, g in q.generators()]
    for p in derive_variety(lie).identities:
        for combo in itertools.product(gens, repeat=p.arity):
            ok = ok and q.is_zero(cd.eval_dipoly(p, list(combo)))
    _report(9, "variety envelope of the 2-dim Leibniz algebra: ideal built, "
               "base embeds, quotient satisfies the variety", ok, t0)


def test_criterion_10_current_matrix_truncation():
    t0 = time.time()
    cur = CurrentPA(2)
    cd = CoefficientDialgebra(cur)
    basis = [cur.t_pow(pm_unit(r, c), k)
             for k in range(3) for r in range(2) for c in range(2)]
    identities = list(zero_dialgebra_axioms()) + [DP(s) for s in DIASS]
    ok = True
    for p in identities:
        for combo in itertools.product(basis, repeat=3):
            if not cur.is_zero(cd.eval_dipoly(p, list(combo))):
                ok = False
    _report(10, "current algebra of 2x2 matrices: associative dialgebra "
                "identities hold on the degree <= 2 truncation", ok, t0)


def test_criterion_11_conformal_representation():
    t0 = time.time()
    rep = build_rho(leibniz2(), "trivial")
    v = verify_representation(rep)
    ok = v.passed and set(v.checks) == {"rho1-product-vanishes", "operator-brackets",
                                        "dialgebra-homomorphism", "faithful"}
    emb, _ = embed_associative(leibniz2(), "trivial")
    ok = ok and emb.passed
    _report(11, "conformal representation of the 2-dim Leibniz algebra: all "
                "four checks plus the associative embedding", ok, t0)


def test_criterion_12_extension_property():
    t0 = time.time()
    lie = builtin_identity_set("lie")
    d = leibniz_to_dialgebra(leibniz2())
    vq = build_var_quotient(build_envelope(d), lie)
    rep = build_rho(leibniz2(), "trivial")
    hom = extend_hom(vq.quotient, [rep.rho[0], rep.rho[1]], rep.cur_lie)
    ok = all(hom.checks.get(k) for k in
             ("dialgebra-hom", "degree-bound", "kills-relations", "t-linear",
              "preserves-products"))
    for i in range(d.dim):
        ok = ok and rep.cur_lie.eq(hom.apply(vq.quotient.basis_a(i)), rep.rho[i])
    _report(12, "extension: the representation extends to the variety envelope, "
                "T-linear, killing all relations, preserving products", ok, t0)
