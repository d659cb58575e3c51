"""Conformal representations of Leibniz algebras on free k[T]-modules.

Given a left Leibniz bracket on g, the module is M0 = V (+) (g (x) V) for
a module V over the quotient Lie algebra of g by the span of squares.
The representing map sends x to rho0(x) - T rho1(x) inside the polynomial
current algebra over End(M0); the commutator current structure makes it a
homomorphism of dialgebras, and the associative one realizes the
embedding of g into an associative dialgebra.

Bracket bookkeeping: inputs are LEFT Leibniz ([ab] = a|-b in the induced
dialgebra).  The representation formulas use the mirror bracket
r(a, x) = a -| x = -[xa], under which both operator identities
[rho0(a), rho0(b)] = rho0(r(a,b)) and [rho1(a), rho0(b)] = rho1(r(a,b))
hold on the nose.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .current import CurrentPA, PolyMat
from .errors import InputError, guard_tuples
from .fd import FDAlgebra, FDDialgebra, leibniz_to_dialgebra
from .linalg import RowSpace, Vec, add_term, vec_axpy
from .pseudo import CoefficientDialgebra, hom_failure, lin_comb
from .translate import derive_variety, zero_dialgebra_axioms
from .varieties import builtin_identity_set
from .words import eval_on_tuples


class LeibnizData:
    """A left Leibniz algebra, its quotient Lie algebra, and a module.

    A vector of the quotient l is a vector of g in normal form modulo the
    squares, so it is supported on l_basis.  The module action of each g
    basis element is a sparse matrix {(row, col): coeff} over the
    positions of l_basis (trivial module: the zero 1 x 1 matrix)."""

    def __init__(self, bracket: FDAlgebra, module: str = "trivial"):
        self.g = bracket
        self.dialgebra: FDDialgebra = leibniz_to_dialgebra(bracket)  # validates Leibniz
        d = bracket.dim
        basis = [bracket.basis(i) for i in range(d)]

        squares = RowSpace()
        for i in range(d):
            squares.add(bracket.product(basis[i], basis[i]))
            for j in range(i + 1, d):
                pol = bracket.product(basis[i], basis[j])
                vec_axpy(pol, 1, bracket.product(basis[j], basis[i]))
                squares.add(pol)
        self.squares = squares
        pivots = set(squares.pivots())
        self.l_basis = tuple(i for i in range(d) if i not in pivots)  # g indices lifting l

        for row in squares.rows():  # the span must be a two-sided ideal
            for b in basis:
                for prod in (bracket.product(b, row), bracket.product(row, b)):
                    if not squares.contains(prod):
                        raise InputError("span of squares is not an ideal; bracket is inconsistent")

        self._check_quotient_lie()

        if module == "trivial":
            self.dim_v = 1
            self.action = [{} for _ in range(d)]
        elif module == "adjoint":
            if not self.l_basis:
                raise InputError("quotient Lie algebra is zero; adjoint module is empty")
            self.dim_v = len(self.l_basis)
            self.action = [self._adjoint_action(b) for b in basis]
            self._check_module_axiom()
        else:
            raise InputError(f"unknown module choice {module!r} (trivial or adjoint)")

    def l_bracket(self, x: Vec, y: Vec) -> Vec:
        return self.squares.reduce(self.g.product(x, y))

    def _check_quotient_lie(self):
        basis = [{i: 1} for i in self.l_basis]
        for x, y, z in itertools.product(basis, repeat=3):
            jac = self.l_bracket(self.l_bracket(x, y), z)
            vec_axpy(jac, 1, self.l_bracket(self.l_bracket(y, z), x))
            vec_axpy(jac, 1, self.l_bracket(self.l_bracket(z, x), y))
            if jac:
                raise InputError("quotient bracket fails the Jacobi identity")

    def _adjoint_action(self, x: Vec) -> dict:
        pos = {i: p for p, i in enumerate(self.l_basis)}
        xbar = self.squares.reduce(x)
        return {(pos[k], col): c for col, i in enumerate(self.l_basis)
                for k, c in self.l_bracket(xbar, {i: 1}).items()}

    def _check_module_axiom(self):
        """[A_s, A_t] = sum_i c_i A_i for the quotient bracket sum_i c_i x_i of x_s, x_t."""
        d = self.g.dim
        acts = [{(0, r, c): v for (r, c), v in a.items()} for a in self.action]  # T-degree 0
        cur = CurrentPA(self.dim_v, bracket=True)
        for s in range(d):
            for t in range(d):
                lhs = cur.rprod(acts[s], acts[t])  # x(0) y - y x(0)
                rhs: dict = {}
                for i, c in self.l_bracket(self.g.basis(s), self.g.basis(t)).items():
                    vec_axpy(rhs, c, acts[i])
                if lhs != rhs:
                    raise InputError("module action does not respect the quotient bracket")


@dataclass
class ConformalRep:
    data: LeibnizData
    dim_m0: int
    rho0: list            # constant PolyMat per g basis element
    rho1: list
    rho: list             # rho0 - T rho1
    cur: CurrentPA        # associative current structure on End M0
    cur_lie: CurrentPA    # commutator current structure


def build_rho(bracket: FDAlgebra, module: str = "trivial") -> ConformalRep:
    """The faithful conformal representation on V (+) (g (x) V)."""
    data = LeibnizData(bracket, module)
    g = bracket
    d = g.dim
    nv = data.dim_v  # LeibnizData refuses an empty module
    dim_m0 = nv * (1 + d)

    def gv_index(i, alpha):
        return nv + i * nv + alpha

    rho0 = []
    rho1 = []
    rho = []
    for t in range(d):
        act = data.action[t]
        m0: PolyMat = {(0, beta, alpha): c for (beta, alpha), c in act.items()}
        for i in range(d):
            # a (x) u  ->  a (x) xbar.u  +  [x a] (x) u
            for (beta, alpha), c in act.items():
                add_term(m0, (0, gv_index(i, beta), gv_index(i, alpha)), c)
            for j, c in g.product(g.basis(t), g.basis(i)).items():
                for alpha in range(nv):
                    add_term(m0, (0, gv_index(j, alpha), gv_index(i, alpha)), c)
        m1: PolyMat = {}
        for alpha in range(nv):
            m1[(0, gv_index(t, alpha), alpha)] = 1
        rho0.append(m0)
        rho1.append(m1)
        full = dict(m0)
        for (k, r, c), v in m1.items():
            full[(1, r, c)] = -v
        rho.append(full)
    return ConformalRep(data, dim_m0, rho0, rho1, rho,
                        CurrentPA(dim_m0, bracket=False),
                        CurrentPA(dim_m0, bracket=True))


@dataclass
class RepReport:
    checks: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, name: str, ok: bool, detail: str = ""):
        self.checks[name] = ok
        if not ok:
            self.failures.append(f"{name}: {detail}")


def verify_representation(rep: ConformalRep) -> RepReport:
    """The four defining checks of the representation.  rho0 and rho1 are
    constant, so their products are the coefficient products |- of the
    current structures: the matrix product, and the commutator."""
    report = RepReport()
    cur = rep.cur
    d = rep.data.g.dim
    dlg = rep.data.dialgebra
    mat_prod = cur.rprod
    commutator = rep.cur_lie.rprod

    ok = all(cur.is_zero(mat_prod(rep.rho1[a], rep.rho1[b]))
             for a in range(d) for b in range(d))
    report.record("rho1-product-vanishes", ok)

    ok = True
    detail = ""
    for a in range(d):
        for b in range(d):
            r_ab = dlg.lprod(dlg.basis(a), dlg.basis(b))  # the mirror bracket a -| b
            lhs0 = commutator(rep.rho0[a], rep.rho0[b])
            rhs0 = lin_comb(cur, rep.rho0, r_ab)
            lhs1 = commutator(rep.rho1[a], rep.rho0[b])
            rhs1 = lin_comb(cur, rep.rho1, r_ab)
            if not cur.eq(lhs0, rhs0):
                ok, detail = False, f"rho0 bracket at ({a},{b})"
                break
            if not cur.eq(lhs1, rhs1):
                ok, detail = False, f"rho1 bracket at ({a},{b})"
                break
        if not ok:
            break
    report.record("operator-brackets", ok, detail)

    bad = hom_failure(dlg, rep.rho, rep.cur_lie)
    report.record("dialgebra-homomorphism", bad is None,
                  "" if bad is None else "{} at ({},{})".format(*bad))

    span = RowSpace(dict(m) for m in rep.rho)
    report.record("faithful", span.rank == d, f"rank {span.rank} < {d}")
    return report


def embed_associative(bracket: FDAlgebra,
                      module: str = "trivial") -> tuple[RepReport, ConformalRep]:
    """Realize g inside the associative coefficient dialgebra of the current
    algebra and verify the associative-dialgebra identities on the subspace
    S generated by the image under both products, words of length <= 3.  The
    basis of S must begin with the d images of rho, and its T-degree D must
    stay <= 2.  Both are read off the images without building S.  A basis
    that takes the images first begins with them exactly when they are
    independent, so the first check is that they have rank d.  D is the
    largest T-degree among the images: x |- y = x(0) y and x -| y = x y(0)
    each take one factor at T = 0, so a product has no higher T-degree than
    its other factor, and no word in the images goes above the top degree
    that the images themselves reach.

    The 5 identities (the zero-dialgebra axioms and the derived associative
    ones, all of arity 3) are evaluated on the matrix units E_rc T^k of the
    current algebra with r, c < 2 and k <= D, not on the triples of S; the
    units exist since dim M0 >= 2.  This covers S.  As x |- y = x(0) y and
    x -| y = x y(0), the current algebra on N x N matrices is M_N (x) Cur(k),
    so an identity p whose monomials all keep their leaves in order factors
    as p(f1 X1, f2 X2, f3 X3) = X1 X2 X3 p(f1, f2, f3), with the right-hand p
    evaluated in Cur(k).  It vanishes on all of Cur(M_N) in T-degree <= D,
    and so on S, if it vanishes on the units.  Units of M_2, not of M_1,
    because 1 x 1 matrices commute and would hide a product taken in the
    wrong order.  For an identity that permutes its leaves the reduction is
    unsound, and it is refused."""
    rep = build_rho(bracket, module)
    cur = rep.cur
    report = RepReport()

    d = bracket.dim
    rank = RowSpace(dict(m) for m in rep.rho).rank
    report.record("generated-subspace", rank == d,
                  f"the {d} images of rho have rank {rank} < {d}")

    top = max((k for m in rep.rho for (k, _r, _c) in m), default=0)
    report.record("degree-truncation", top <= 2, "degree exceeds 2")

    identities = [*zero_dialgebra_axioms(),
                  *derive_variety(builtin_identity_set("associative")).derived]
    for p in identities:
        if any(perm != tuple(range(1, p.arity + 1)) for _shape, perm in p.terms):
            raise InputError(f"{p} does not keep its leaves in order, "
                             "so the matrix units of the current algebra cannot check it")
    units = [{(k, r, c): 1} for k in range(top + 1) for r in range(2) for c in range(2)]
    where = f"the Cur(M2) units of T-degree <= {top}"
    guard_tuples(len(units) ** 3, f"{len(units)}^3 triples of {where}")
    products = CoefficientDialgebra(cur).products
    subwords: dict = {}  # the unit products, computed once for every identity
    bad = None
    for p in identities:
        values = eval_on_tuples(p, units, products, subwords)
        if any(not cur.is_zero(val) for _idx, val in values):
            bad = f"{p} fails on {where}"
            break
    report.record("associative-dialgebra-identities", bad is None, bad or "")

    dlg = rep.data.dialgebra
    ok = True
    for a in range(d):
        for b in range(d):
            lhs = cur.add(cur.lprod(rep.rho[a], rep.rho[b]),
                          cur.scale(cur.rprod(rep.rho[b], rep.rho[a]), -1))
            if not cur.eq(lhs, lin_comb(cur, rep.rho, dlg.lprod(dlg.basis(a), dlg.basis(b)))):
                ok = False
    report.record("mirror-bracket-identity", ok,
                  "rho(a)-|rho(b) - rho(b)|-rho(a) != rho(a-|b)")
    return report, rep
