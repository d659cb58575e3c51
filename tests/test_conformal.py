import itertools
from fractions import Fraction
from types import SimpleNamespace

import pytest

from divaria.conformal import LeibnizData, build_rho, embed_associative, verify_representation
from divaria.current import CurrentPA, _at_zero, _mult_into
from divaria.envelope import build_envelope, build_var_quotient, extend_hom
from divaria.errors import InputError
from divaria.fd import FDAlgebra, leibniz2, leibniz3, leibniz_to_dialgebra, sl2
from divaria.linalg import RowSpace
from divaria.pseudo import CoefficientDialgebra, check_var_pseudo
from divaria.varieties import builtin_identity_set
from divaria.words import DiPoly, all_dishapes, eval_on_tuples
from support import generated_basis, generated_subspace_failure, gl


def test_leibniz_data_quotient():
    data = LeibnizData(leibniz2(), "trivial")
    # squares span {e2}; the quotient Lie algebra is 1-dimensional abelian
    assert data.squares.pivots() == [1]
    assert data.l_basis == (0,)
    assert data.dim_v == 1


def test_corrupted_module_action_is_refused():
    data = LeibnizData(sl2(), "adjoint")
    data._check_module_axiom()
    data.action[0][(0, 0)] = data.action[0].get((0, 0), 0) + 1
    with pytest.raises(InputError, match="module action does not respect the quotient bracket"):
        data._check_module_axiom()


def test_dimension_formula():
    for alg, module in ((leibniz2(), "trivial"), (leibniz3(), "trivial"), (sl2(), "adjoint")):
        rep = build_rho(alg, module)
        assert rep.dim_m0 == rep.data.dim_v * (1 + alg.dim)


def test_rho_values_on_smallest_leibniz():
    rep = build_rho(leibniz2(), "trivial")
    # rho(e1) u = -T (e1 (x) u): matrix entry at (row e1(x)u, col u) in degree 1
    u, e1u, e2u = 0, 1, 2
    assert rep.rho[0] == {(1, e1u, u): Fraction(-1), (0, e2u, e1u): Fraction(1)}
    # rho(e1)*(e1 (x) u) = +1(x)1(x)_H (e2 (x) u): the bracket in the
    # representation formula is the mirror one, -[e1 e1] = e2 up to the sign
    # twist, so the degree-0 block maps e1(x)u to e2(x)u with coefficient +1
    assert rep.rho0[0][(0, e2u, e1u)] == 1
    # rho(e2) = -T rho1(e2): e2 acts trivially otherwise
    assert rep.rho[1] == {(1, e2u, u): Fraction(-1)}


def test_abelian_bracket_still_faithful():
    t = [[(0, 0), (0, 0)], [(0, 0), (0, 0)]]
    rep = build_rho(FDAlgebra(t), "trivial")
    r = verify_representation(rep)
    assert r.passed
    assert r.checks["faithful"]


@pytest.mark.parametrize("alg,module", [
    (leibniz2(), "trivial"), (leibniz2(), "adjoint"),
    (leibniz3(), "trivial"), (sl2(), "trivial"), (sl2(), "adjoint")])
def test_verify_representation(alg, module):
    rep = build_rho(alg, module)
    r = verify_representation(rep)
    assert r.passed, r.failures


def test_fault_injected_rho1_breaks_faithfulness():
    rep = build_rho(leibniz2(), "trivial")
    rep.rho1[1] = {}
    rep.rho[1] = {}
    r = verify_representation(rep)
    assert not r.checks["faithful"]


# faults of the rep of leibniz2 (trivial module): M0 has basis u, e1 (x) u, e2 (x) u
def _rho1_squares_to_nonzero(rep):
    rep.rho1[0][(0, 0, 1)] = 1  # rho1(e1) also sends e1 (x) u to u


def _rho0_gains_a_term(rep):
    rep.rho0[0][(0, 0, 0)] = 1  # [rho1(e1), rho0(e1)] gains rho1(e1)


def _image_doubled(rep):
    rep.rho[1] = rep.cur.scale(rep.rho[1], 2)


def _image_zeroed(rep):
    rep.rho[1] = {}


def _image_duplicated(rep):
    rep.rho[1] = dict(rep.rho[0])


def _image_gains_t_cubed(rep):
    rep.rho[0][(3, 0, 0)] = 1


def _commutator_products(rep):
    rep.cur = rep.cur_lie


def _products_swapped(rep):
    rep.cur = CurrentPA(rep.dim_m0)
    rep.cur.rprod, rep.cur.lprod = rep.cur.lprod, rep.cur.rprod


# (check, algebra, fault): each fault makes its check of the represent report false
FAULTS = [
    ("rho1-product-vanishes", leibniz2, _rho1_squares_to_nonzero),
    ("operator-brackets", leibniz2, _rho0_gains_a_term),
    ("dialgebra-homomorphism", leibniz2, _image_doubled),
    ("faithful", leibniz2, _image_zeroed),
    ("generated-subspace", leibniz2, _image_zeroed),
    ("generated-subspace", leibniz2, _image_duplicated),
    ("degree-truncation", leibniz2, _image_gains_t_cubed),
    ("associative-dialgebra-identities", sl2, _products_swapped),
    ("mirror-bracket-identity", leibniz2, _commutator_products),
]


def _checks(rep, monkeypatch) -> dict:
    """The checks that verify_representation and embed_associative record on rep."""
    monkeypatch.setattr("divaria.conformal.build_rho", lambda _bracket, _module="trivial": rep)
    report, _rep = embed_associative(rep.data.g)
    return {**verify_representation(rep).checks, **report.checks}


@pytest.mark.parametrize("name,alg,fault", FAULTS,
                         ids=[f"{name}{fault.__name__}" for name, _alg, fault in FAULTS])
def test_fault_injected_rep_fails_its_check(name, alg, fault, monkeypatch):
    rep = build_rho(alg())
    assert _checks(rep, monkeypatch)[name]
    fault(rep)
    assert not _checks(rep, monkeypatch)[name]


def test_zeroed_image_failure_gives_the_rank(monkeypatch):
    rep = build_rho(leibniz2())
    _image_zeroed(rep)
    monkeypatch.setattr("divaria.conformal.build_rho", lambda _bracket, _module="trivial": rep)
    report, _rep = embed_associative(rep.data.g)
    assert "generated-subspace: the 2 images of rho have rank 1 < 2" in report.failures


def test_every_represent_check_has_a_fault(monkeypatch):
    checks = _checks(build_rho(leibniz2()), monkeypatch)
    assert all(checks.values())
    assert set(checks) == {name for name, *_rest in FAULTS}


def gl2():
    return gl(2)


@pytest.mark.parametrize("alg,module", [
    (leibniz2, "trivial"), (sl2, "trivial"), (gl2, "trivial"), (sl2, "adjoint"), (gl2, "adjoint")],
    ids=["leibniz2", "sl2", "gl2", "sl2-adjoint", "gl2-adjoint"])
def test_unit_check_agrees_with_the_generated_subspace_reference(alg, module):
    report, rep = embed_associative(alg(), module)
    assert report.checks["associative-dialgebra-identities"]
    if module == "trivial":  # the adjoint module's S has 30 and 40 elements: seconds of triples
        assert generated_subspace_failure(rep) is None
    # the two facts about S that embed_associative reads off the images of
    # rho: S's basis begins with them exactly when they have rank d, and S's
    # top T-degree is theirs, as |- and -| each take one factor at T = 0
    assert report.checks["generated-subspace"]
    d = len(rep.rho)
    for images in (rep.rho, [*rep.rho[:-1], rep.rho[0]]):  # the second has rank d - 1
        rep.rho = images
        basis = generated_basis(rep)
        assert (basis[:d] == images) == (RowSpace(dict(m) for m in images).rank == d)
        assert (max(k for m in basis for k, _r, _c in m)
                == max(k for m in images for k, _r, _c in m))


# mutants of the coefficient products x |- y = x(0) y and x -| y = x y(0)
def _times(a, b):
    out: dict = {}
    _mult_into(out, a, b)
    return out


def _t1_part(a):
    """The T^1 coefficient of a, as a constant matrix."""
    return {(0, r, c): v for (k, r, c), v in a.items() if k == 1}


def _rprod_reads_t1(rep):
    rep.cur.rprod = lambda x, y: _times(_t1_part(x), y)


def _lprod_reads_t1(rep):
    rep.cur.lprod = lambda x, y: _times(x, _t1_part(y))


def _rprod_keeps_every_degree(rep):
    rep.cur.rprod = _times


def _rprod_in_the_wrong_order(rep):  # y x(0): the same as x(0) y on 1 x 1 matrices
    rep.cur.rprod = lambda x, y: _times(y, _at_zero(x))


# (mutant, whether the generated-subspace reference sees it on gl2):
# _rprod_keeps_every_degree turns the first zero-dialgebra axiom into
# -T x y(1) z, which vanishes on every triple of the generated subspace of gl2
# but not on the matrix units; _rprod_in_the_wrong_order needs units of M_2
MUTANTS = [(_products_swapped, True), (_rprod_reads_t1, True), (_lprod_reads_t1, True),
           (_rprod_keeps_every_degree, False), (_rprod_in_the_wrong_order, True)]


@pytest.mark.parametrize("mutant,seen_on_subspace", MUTANTS,
                         ids=[mutant.__name__ for mutant, _seen in MUTANTS])
def test_coefficient_product_mutant_fails_the_unit_check(mutant, seen_on_subspace, monkeypatch):
    rep = build_rho(gl2())
    mutant(rep)
    assert not _checks(rep, monkeypatch)["associative-dialgebra-identities"]
    assert (generated_subspace_failure(rep) is not None) == seen_on_subspace


def _forbid(*_args, **_kwargs):
    raise AssertionError("a coefficient product read CurrentPA.base_product")


def test_coefficient_products_never_reach_the_base_product(monkeypatch):
    # the closed forms x(0) y and x y(0) must not fall back to filtering the
    # full base product; pseudo-products still go through it
    monkeypatch.setattr(CurrentPA, "base_product", _forbid)
    report, _rep = embed_associative(sl2())
    assert report.passed, report.failures
    assert verify_representation(build_rho(sl2())).passed
    with pytest.raises(AssertionError):
        check_var_pseudo(CurrentPA(2, bracket=True), builtin_identity_set("lie"))


def test_embed_associative():
    for alg in (leibniz2(), leibniz3(), sl2()):
        report, _rep = embed_associative(alg)
        assert report.passed, report.failures


def test_tuple_values_match_the_per_tuple_coefficient_dialgebra():
    # single labeled monomials are not identities, so the values are not all
    # zero and a product kept under the wrong label or leaf order shows; the
    # first 6 of the 12 generated basis matrices of sl2 keep the test short
    rep = build_rho(sl2(), "trivial")
    cd = CoefficientDialgebra(rep.cur)
    basis = generated_basis(rep)[:6]
    nonzero = 0
    subwords: dict = {}  # shared, as embed_associative shares it across identities
    for shape, perm in itertools.product(all_dishapes(3), [(1, 2, 3), (3, 1, 2)]):
        p = DiPoly.monomial(shape, perm)
        values = list(eval_on_tuples(p, basis, cd.products, subwords))
        assert [idx for idx, _val in values] == list(itertools.product(range(6), repeat=3))
        for idx, val in values:
            want = cd.eval_dipoly(p, [basis[i] for i in idx])
            assert val == want, (shape.key, perm, idx)
            nonzero += bool(want)
    assert nonzero
    assert len(subwords) <= 2 * len(basis) ** 2  # x1-|x2 and x1|-x2 on every pair


def test_embed_associative_reports_a_failing_identity(monkeypatch):
    word = DiPoly.monomial(all_dishapes(3)[0], (1, 2, 3))
    monkeypatch.setattr("divaria.conformal.derive_variety",
                        lambda _sigma: SimpleNamespace(derived=(word,)))
    report, _rep = embed_associative(sl2())
    assert not report.checks["associative-dialgebra-identities"]
    assert report.failures == [f"associative-dialgebra-identities: {word} fails on "
                               "the Cur(M2) units of T-degree <= 1"]


def test_extension_through_rho():
    lie = builtin_identity_set("lie")
    d = leibniz_to_dialgebra(leibniz2())
    vq = build_var_quotient(build_envelope(d), lie)
    rep = build_rho(leibniz2(), "trivial")
    hom = extend_hom(vq.quotient, [rep.rho[0], rep.rho[1]], rep.cur_lie)
    assert all(hom.checks.values())
    for i in range(2):
        assert rep.cur_lie.eq(hom.apply(vq.quotient.basis_a(i)), rep.rho[i])


def test_module_choice_errors():
    with pytest.raises(InputError, match="unknown module choice 'nonsense'"):
        build_rho(leibniz2(), "nonsense")


def test_adjoint_module_of_the_zero_algebra_is_refused():
    # a nonzero left Leibniz algebra has a nonzero Lie quotient, and the CLI
    # refuses dimension 0, so only the API reaches this
    with pytest.raises(InputError, match="quotient Lie algebra is zero; adjoint module is empty"):
        build_rho(FDAlgebra([]), "adjoint")


def test_squares_that_span_no_ideal_are_refused(monkeypatch):
    # e1 e1 = e2, e1 e2 = -e1, e2 e1 = e1 is not left Leibniz; the squares span
    # e2, and e1 e2 = -e1 leaves the span
    monkeypatch.setattr("divaria.conformal.leibniz_to_dialgebra", lambda _bracket: None)
    with pytest.raises(InputError, match="span of squares is not an ideal"):
        LeibnizData(FDAlgebra([[(0, 1), (-1, 0)], [(1, 0), (0, 0)]]))


def test_quotient_bracket_that_fails_jacobi_is_refused(monkeypatch):
    # [e1,e2] = e3 and [e3,e1] = e1, antisymmetric: the squares are zero, and
    # [[e1,e2],e3] + [[e2,e3],e1] + [[e3,e1],e2] = [e1,e2] = e3
    monkeypatch.setattr("divaria.conformal.leibniz_to_dialgebra", lambda _bracket: None)
    bracket = FDAlgebra([[(0, 0, 0), (0, 0, 1), (-1, 0, 0)],
                         [(0, 0, -1), (0, 0, 0), (0, 0, 0)],
                         [(1, 0, 0), (0, 0, 0), (0, 0, 0)]])
    with pytest.raises(InputError, match="quotient bracket fails the Jacobi identity"):
        LeibnizData(bracket)
