"""The sparse join of words.nonzero_words, under words.eval_on_tuples and
pseudo.eval_term_on_tuples, and the zero-word skip of the closed forms,
under envelope.closed_form_on_tuples: no product is ever made with a zero
factor, the unit check of embed_associative and build_var_quotient make
few products in bounded memory, and the values on the edge cases of the
join (a zero argument, monomials of one shape that cancel, a nonzero
subword whose top product is 0) equal the dense per-tuple references of
support."""

import itertools
import tracemalloc

from divaria import conformal, envelope, perms, pseudo
from divaria.conformal import embed_associative
from divaria.current import CurrentPA
from divaria.envelope import build_envelope, build_var_quotient, closed_form_on_tuples
from divaria.fd import (FDDialgebra, corpus, eval_identity, leibniz3, leibniz_to_dialgebra, sl2,
                        upper_triangular2)
from divaria.pseudo import check_var_pseudo, eval_term_on_tuples
from divaria.translate import derive_variety, zero_dialgebra_axioms
from divaria.varieties import BUILTIN, builtin_identity_set
from divaria.words import LEAF, MultilinearPoly, eval_on_tuples, node
from support import (basis_tuple_values, eval_poly, first_lex_witness, generator_tuple_values, gl,
                     parse_expression)

AB = node(LEAF, LEAF)
LEFT_COMB = node(AB, LEAF)


def _refusing(fn, calls: list):
    """fn, raising on a zero factor among its last two arguments, and
    counting its calls in calls."""
    def refusing(*args):
        if any(not factor for factor in args[-2:]):
            raise AssertionError(f"{fn.__name__} was given a zero factor")
        calls.append(fn.__name__)
        return fn(*args)
    return refusing


def test_no_product_is_made_with_a_zero_factor(monkeypatch):
    identities = list(zero_dialgebra_axioms())
    for name in BUILTIN:
        identities += derive_variety(builtin_identity_set(name)).derived
    lie = builtin_identity_set("lie")
    quotient = build_var_quotient(build_envelope(leibniz_to_dialgebra(sl2())), lie).quotient
    calls: list = []
    for cls in (FDDialgebra, CurrentPA):
        for name in ("lprod", "rprod"):
            monkeypatch.setattr(cls, name, _refusing(getattr(cls, name), calls))
    monkeypatch.setattr(pseudo, "pseudo_product", _refusing(pseudo.pseudo_product, calls))
    witnesses = [eval_identity(d, p) for _name, d in corpus() for p in identities]
    report, _rep = embed_associative(gl(2))
    assert check_var_pseudo(quotient, lie) is None
    assert report.passed, report.failures
    assert any(w is not None for w in witnesses)
    assert {"lprod", "rprod", "pseudo_product"} <= set(calls)


def test_the_closed_side_makes_no_product_with_a_zero_factor(monkeypatch):
    # a word with a zero subword is skipped, and a zero entry of a nonzero
    # labeling list is never a factor; the dialgebra check that comes first
    # runs on the unwrapped products
    lie = builtin_identity_set("lie")
    quotient_envs = [build_envelope(leibniz_to_dialgebra(g)) for g in (sl2(), gl(3))]
    identities = list(dict.fromkeys(t for name in BUILTIN for t in builtin_identity_set(name)))
    cases = [(build_envelope(a), t) for _name, a in corpus() for t in identities]
    want = [basis_tuple_values(env, t) for env, t in cases]
    real = {name: getattr(FDDialgebra, name) for name in ("lprod", "rprod")}
    witness = envelope.first_witness

    def unwrapped_witness(a, sigma):
        with monkeypatch.context() as mp:
            for name, fn in real.items():
                mp.setattr(FDDialgebra, name, fn)
            return witness(a, sigma)

    calls: list = []
    monkeypatch.setattr(envelope, "first_witness", unwrapped_witness)
    for name, fn in real.items():
        monkeypatch.setattr(FDDialgebra, name, _refusing(fn, calls))
    for env in quotient_envs + list(dict.fromkeys(env for env, _t in cases)):
        monkeypatch.setattr(env, "tensor_pair", _refusing(env.tensor_pair, calls))
    ranks = [build_var_quotient(env, lie).ideal.rank for env in quotient_envs]
    got = [list(closed_form_on_tuples(env, t)) for env, t in cases]
    assert ranks == [8, 79]
    assert all(_same_spreads(g, w) for g, w in zip(got, want))
    assert {"lprod", "rprod", "tensor_pair"} <= set(calls)


def test_the_closed_walk_twists_every_permutation():
    # the builtin identities hold involutions only, under which sigma and its
    # inverse agree: every word of degree 3, with its own coefficient, tells
    # them apart, against the recursive side on each corpus member
    p = MultilinearPoly(3, {m: k for k, m in enumerate(MultilinearPoly.monomials(3), start=1)})
    assert any(perms.inverse(sigma) != sigma for _shape, sigma in p.terms)
    nonzero = 0
    for name, a in corpus():
        env = build_envelope(a)
        basis = [env.basis_a(i) for i in range(a.dim)]
        got = list(closed_form_on_tuples(env, p))
        assert _same_spreads(got, list(eval_term_on_tuples(env, p, basis))), name
        nonzero += sum(not v.is_zero() for _idx, v in got)
    assert nonzero


def _counted(fn, calls: list):
    """fn, counting its calls in calls."""
    def counted(*args):
        calls.append(fn.__name__)
        return fn(*args)
    return counted


def test_build_var_quotient_skips_the_zero_words(monkeypatch):
    # the Lie identities on gl3: a dense walk reduced 4,536 tensors and made
    # 2,349 twists; skipping the words with a zero subword leaves at most
    # 2,430 and 1,296
    env = build_envelope(leibniz_to_dialgebra(gl(3)))
    tensors: list = []
    twists: list = []
    monkeypatch.setattr(env, "tensor_pair", _counted(env.tensor_pair, tensors))
    monkeypatch.setattr(envelope, "_closed_twist", _counted(envelope._closed_twist, twists))
    vq = build_var_quotient(env, builtin_identity_set("lie"))
    assert vq.ideal.rank == 79
    assert 0 < len(tensors) <= 2430 and 0 < len(twists) <= 1296, (len(tensors), len(twists))


def test_build_var_quotient_keeps_no_more_than_its_subword_tables():
    # no accumulator outlives its tuple and no top-word join is kept: the
    # traced peak on gl4 is that of the quotient it builds (0.34 MiB); a
    # design that keeps either read 3.1 to 3.5 MiB
    lie = builtin_identity_set("lie")
    build_var_quotient(build_envelope(leibniz_to_dialgebra(gl(2))), lie)  # the caches of the process
    env = build_envelope(leibniz_to_dialgebra(gl(4)))
    tracemalloc.start()
    try:
        build_var_quotient(env, lie)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 ** 19, peak


def test_unit_check_makes_few_coefficient_products(monkeypatch):
    # the 8 Cur(M2) units of T-degree <= 1 give 5 x 512 tuples; the dense
    # loop made 2,624 products of each kind on gl3, the join makes 704
    calls = {"-|": 0, "|-": 0}
    kernel = conformal.eval_on_tuples

    def counted(symbol, fn):
        def count(x, y):
            calls[symbol] += 1
            return fn(x, y)
        return count

    def counting_kernel(p, basis, products, subwords):
        lprod, rprod = products
        return kernel(p, basis, (counted("-|", lprod), counted("|-", rprod)), subwords)

    monkeypatch.setattr(conformal, "eval_on_tuples", counting_kernel)
    report, _rep = embed_associative(gl(3))
    assert report.checks["associative-dialgebra-identities"]
    assert 0 < calls["-|"] <= 704 and 0 < calls["|-"] <= 704, calls


def _values(p, alg) -> list:
    basis = [alg.basis(i) for i in range(alg.dim)]
    got = list(eval_on_tuples(p, basis, alg.products, {}))
    assert [idx for idx, _val in got] == list(itertools.product(range(alg.dim), repeat=p.arity))
    return [(idx, val, eval_poly(alg, p, [basis[i] for i in idx])) for idx, val in got]


def _same_spreads(got, want) -> bool:
    return (len(got) == len(want)
            and all(i == j and u.eq(v) for (i, u), (j, v) in zip(got, want)))


def test_a_zero_argument_gives_zero_values():
    for bracket in (False, True):
        cur = CurrentPA(2, bracket=bracket)
        args = [el for _name, el in cur.generators()]
        args.insert(1, cur.zero())
        for t in (*builtin_identity_set("lie"), *builtin_identity_set("associative")):
            got = list(eval_term_on_tuples(cur, t, args))
            assert _same_spreads(got, generator_tuple_values(cur, t, args)), (bracket, t)
            assert all(v.is_zero() for idx, v in got if 1 in idx)
            assert len(got) == len(args) ** t.arity


def test_monomials_of_one_shape_that_cancel_leave_zero():
    # x1 x2 - x2 x1 on the upper triangular matrices: E11 E11 cancels,
    # E11 E12 does not; the third monomial of one shape adds at tuples
    # where the first two have cancelled
    g = upper_triangular2()
    comm = parse_expression("x1*x2 - x2*x1")
    for p in (comm, parse_expression("(x1*x2)*x3 - (x2*x1)*x3 + (x3*x1)*x2")):
        values = _values(p, g)
        assert all(val == want for _idx, val, want in values), str(p)
        assert any(not val for _idx, val, _want in values)
        assert any(val for _idx, val, _want in values)
    e11 = g.basis(0)
    assert g.product(e11, e11)  # two nonzero words that cancel
    cur = CurrentPA(2)
    gens = [el for _name, el in cur.generators()]
    got = list(eval_term_on_tuples(cur, comm, gens))
    want = generator_tuple_values(cur, comm, gens)
    assert _same_spreads(got, want)
    assert any(v.is_zero() for _idx, v in want) and any(not v.is_zero() for _idx, v in want)


def test_a_nonzero_subword_with_a_zero_top_product():
    # in leibniz3, [a,a] = b, [a,b] = c and [b,a] = [c,a] = 0: the subword
    # x1 x2 is nonzero at (a, a, a), and every word (x1 x2) x3 is zero
    g = leibniz3()
    left = MultilinearPoly.monomial(LEFT_COMB, (1, 2, 3))
    right = MultilinearPoly.monomial(node(LEAF, AB), (3, 1, 2))
    for p in (left, left - right):
        values = _values(p, g)
        assert all(val == want for _idx, val, want in values), str(p)
        assert any(val for _idx, val, _want in values) == (p is not left)
    assert g.product(g.product({0: 1}, {0: 1}), {0: 1}) == {} != g.product({0: 1}, {0: 1})
    assert eval_identity(g, left - right) == first_lex_witness(g, left - right)
    cur = CurrentPA(2)  # E11 E12 = E12, and E12 E11 = 0
    gens = [el for _name, el in cur.generators()]
    t = MultilinearPoly.monomial(LEFT_COMB, (1, 2, 3)) - MultilinearPoly.monomial(LEFT_COMB, (2, 3, 1))
    got = list(eval_term_on_tuples(cur, t, gens))
    assert _same_spreads(got, generator_tuple_values(cur, t, gens))
    assert any(not v.is_zero() for _idx, v in got)
