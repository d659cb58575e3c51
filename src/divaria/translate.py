"""From two-product identities to single-product data and back.

The forgetful direction psi sends a labeled monomial to its underlying
word together with a distinguished variable, the *center*: the leaf
reached from the root by going left at every -| and right at every |-.
The test suite holds psi and the recursion into the symmetric-group
operad that computes the same center; it cross-checks the two and checks
that psi_section below is a section of psi.

The section direction labels a word so that every product sign points at
the center leaf, which reproduces the standard dialgebra identity tables
for the associative, commutative, alternative, Lie and Jordan varieties.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import perms
from .errors import InputError
from .linalg import add_term
from .operads import IdentitySet
from .words import (DiPoly, DiShape, DILEAF, LEAF, LPROD, MultilinearPoly, RPROD,
                    Shape, TensorPoly, dinode, node, section_dishape)


# ---------------------------------------------------------------------------
# the section of the forgetful functor
# ---------------------------------------------------------------------------

def psi_section_monomial(mono) -> tuple:
    """Canonical preimage of a tensor monomial: all signs point at the center."""
    shape, sigma, center = mono
    p = perms.inverse(sigma)[center - 1]
    return (section_dishape(shape, p), sigma)


def psi_section(q: TensorPoly) -> DiPoly:
    out: dict = {}
    for mono, coeff in q.terms.items():
        add_term(out, psi_section_monomial(mono), coeff)
    return DiPoly(q.arity, out)


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


def _orbit_key(p: DiPoly) -> tuple:
    """Canonical key of a nonzero identity modulo relabeling and scalars:
    the least sort_key of p.act(sigma) scaled to leading coefficient 1.

    A relabeling keeps each shape and composes each perm with sigma, so the
    least key starts with ((least shape key, identity), 1), which only
    sigma = perm^-1 reaches, for a term (shape, perm) of least shape key:
    the least key over those candidates, at most one per term, is the key.
    Each candidate's key begins with its terms of least shape key, as many
    for every candidate, so candidates are compared on those first, and
    only the tied ones are relabeled in full."""
    least = min(shape.key for shape, _ in p.terms)
    heads = [(perm, c) for (shape, perm), c in p.terms.items() if shape.key == least]
    best, tied = None, []
    for perm, c in heads:
        sigma, scale = perms.inverse(perm), Fraction(1, c)
        head = sorted((perms.compose(q, sigma), scale * d) for q, d in heads)
        if best is None or head < best:
            best, tied = head, []
        if head == best:
            tied.append((sigma, scale))
    return min(p.act(sigma).scale(scale).sort_key() for sigma, scale in tied)


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
        """Detect a (anti-)commutation identity c*(x-|y) = (y|-x).

        Returns the scalar lam with  a -| b = lam * (b |- a), or None.
        """
        l2 = dinode(LPROD, DILEAF, DILEAF)
        r2 = dinode(RPROD, DILEAF, DILEAF)
        for p in self.identities:
            if p.arity != 2 or len(p.terms) != 2:
                continue
            for sigma in perms.symmetric_group(2):
                swapped = perms.compose(sigma, (2, 1))
                cl = p.terms.get((l2, sigma))
                cr = p.terms.get((r2, swapped))
                if cl and cr:
                    lam = Fraction(-cr, cl)
                    if lam in (1, -1):
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
    seen: set = set()
    for t_idx, t in enumerate(sigma):
        n = t.arity
        for i in range(1, n + 1):
            tens = TensorPoly(n, {(shape, perm, i): c for (shape, perm), c in t.terms.items()})
            cand = psi_section(tens)
            if cand.is_zero():
                continue
            key = _orbit_key(cand)
            if key in seen:
                continue
            seen.add(key)
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
