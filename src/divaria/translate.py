"""From two-product identities to single-product data and back.

The forgetful direction psi sends a labeled monomial to its underlying
word together with a distinguished variable, the *center*: the leaf
reached from the root by going left at every -| and right at every |-.
The test suite holds psi and the recursion into the symmetric-group
operad that computes the same center; it cross-checks the two and checks
that psi_section below is a section of psi.

The section direction labels a word so that every product sign points at
the center leaf; psi_section(t, i), the section of t (x) e_i, labels each
shape of t once per position of x_i.  The sections reproduce the standard
dialgebra identity tables for the associative, commutative, alternative,
Lie and Jordan varieties once each candidate in the orbit of an earlier one
under relabeling and scalars is dropped; _same_orbit is that test, and it
also finds the (anti-)commutation rule that single-operation rewriting
needs.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import perms
from .errors import InputError
from .linalg import add_term
from .operads import IdentitySet
from .words import (DiPoly, DiShape, DILEAF, LEAF, LPROD, MultilinearPoly, RPROD,
                    Shape, dinode, node, section_dishape)


# ---------------------------------------------------------------------------
# the section of the forgetful functor
# ---------------------------------------------------------------------------

def psi_section(t: MultilinearPoly, center: int) -> DiPoly:
    """Canonical preimage of t (x) e_center: in each monomial every sign
    points at the leaf of x_center."""
    labeled: dict = {}  # (shape, center position) -> its labeling, made once
    out: dict = {}
    for (shape, perm), c in t.terms.items():
        key = (shape, perm.index(center) + 1)
        if key not in labeled:
            labeled[key] = section_dishape(*key)
        out[labeled[key], perm] = c
    return DiPoly(t.arity, out)


# ---------------------------------------------------------------------------
# derived dialgebra identities
# ---------------------------------------------------------------------------

def zero_dialgebra_axioms() -> tuple[DiPoly, DiPoly]:
    """(x1-|x2)|-x3 = (x1|-x2)|-x3  and  x1-|(x2|-x3) = x1-|(x2-|x3)."""
    id3 = perms.identity(3)
    ll = dinode(RPROD, dinode(LPROD, DILEAF, DILEAF), DILEAF)
    lr = dinode(RPROD, dinode(RPROD, DILEAF, DILEAF), DILEAF)
    rl = dinode(LPROD, DILEAF, dinode(RPROD, DILEAF, DILEAF))
    rr = dinode(LPROD, DILEAF, dinode(LPROD, DILEAF, DILEAF))
    return (DiPoly.monomial(ll, id3) - DiPoly.monomial(lr, id3),
            DiPoly.monomial(rl, id3) - DiPoly.monomial(rr, id3))


def _same_orbit(p: DiPoly, q: DiPoly) -> bool:
    """Is q = c * p.act(sigma) for some relabeling sigma and scalar c?

    A relabeling keeps each shape and composes each perm with sigma, so the
    first term (shape, perm) of q is the image of a term (shape, pp) of p,
    and that term fixes sigma = pp^-1 perm and c; each such candidate is
    checked term by term up to the first mismatch."""
    if len(p.terms) != len(q.terms):
        return False
    (shape, perm), d = next(iter(q.terms.items()))
    for (s, pp), c in p.terms.items():
        if s is not shape:
            continue
        sigma = perms.compose(perms.inverse(pp), perm)
        if all(c * q.terms.get((t, perms.compose(tp, sigma)), 0) == d * e
               for (t, tp), e in p.terms.items()):
            return True
    return False


@dataclass(frozen=True)
class DerivedVariety:
    """Dialgebra identities derived from a family of one-product identities."""

    zero_axioms: tuple
    derived: tuple          # DiPoly, in generation order, orbit-deduplicated
    provenance: tuple       # (index of the identity in the IdentitySet, center index) per entry

    @property
    def identities(self) -> tuple:
        return self.zero_axioms + self.derived

    def commutation_rule(self):
        """Detect a (anti-)commutation identity, one in the orbit of
        x1-|x2 - lam x2|-x1 for lam = 1 or -1.

        Returns the scalar lam with  a -| b = lam * (b |- a), or None.
        """
        x1_x2 = DiPoly.monomial(dinode(LPROD, DILEAF, DILEAF), (1, 2))
        x2_x1 = DiPoly.monomial(dinode(RPROD, DILEAF, DILEAF), (2, 1))
        for p in self.identities:
            for lam in (1, -1):
                if _same_orbit(x1_x2 - lam * x2_x1, p):
                    return lam
        return None


def derive_variety(sigma: IdentitySet) -> DerivedVariety:
    """The two zero-dialgebra axioms plus a canonical preimage of t (x) e_i
    for every defining identity t and every variable index i.

    Preimages that agree with an earlier one up to relabeling and an
    overall scalar are dropped (first occurrence wins), matching the
    published identity tables.
    """
    derived: list[DiPoly] = []
    prov: list[tuple[int, int]] = []
    for t_idx, t in enumerate(sigma):
        for i in range(1, t.arity + 1):
            cand = psi_section(t, i)
            if cand.is_zero() or any(_same_orbit(earlier, cand) for earlier in derived):
                continue
            derived.append(cand)
            prov.append((t_idx, i))
    return DerivedVariety(zero_dialgebra_axioms(), tuple(derived), tuple(prov))


# ---------------------------------------------------------------------------
# single-operation rewriting
# ---------------------------------------------------------------------------

def _rewrite_mono(ds: DiShape, leaves: list[int], lam) -> tuple[Shape, list[int], int]:
    """Eliminate -| via a -| b = lam*(b |- a); returns (shape, leaves, sign)."""
    if ds.is_leaf:
        return LEAF, leaves, 1
    lsize = ds.left.arity
    ls, lv, lsgn = _rewrite_mono(ds.left, leaves[:lsize], lam)
    rs, rv, rsgn = _rewrite_mono(ds.right, leaves[lsize:], lam)
    if ds.label == RPROD:
        return node(ls, rs), lv + rv, lsgn * rsgn
    sign = lsgn * rsgn * (1 if lam == 1 else -1)
    return node(rs, ls), rv + lv, sign


def rewrite_single_op(dv: DerivedVariety) -> tuple[MultilinearPoly, ...]:
    """Express the derived identities through the single product a*b = a|-b.

    Requires a detected (anti-)commutation rule among the identities;
    rewrites every identity (the zero-dialgebra axioms included), drops
    the ones that collapse to zero, and drops repeats.
    """
    lam = dv.commutation_rule()
    if lam is None:
        raise InputError("no (anti-)di-commutativity among the derived identities")
    out: list[MultilinearPoly] = []
    seen: set = set()
    for p in dv.identities:
        terms: dict = {}
        for (ds, perm), coeff in p.terms.items():
            shape, leaves, sign = _rewrite_mono(ds, list(perm), lam)
            add_term(terms, (shape, tuple(leaves)), coeff * sign)
        acc = MultilinearPoly(p.arity, terms)
        if acc.is_zero():
            continue
        key = acc.sort_key()
        if key in seen:
            continue
        seen.add(key)
        out.append(acc)
    return tuple(out)
