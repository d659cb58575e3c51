"""Polynomial current pseudo-algebras: k[T] (x) End(V) with the product
concentrated in degree zero, and its commutator variant.

Elements are square matrices over Q[T], stored sparsely as
{(T-power, row, col): coeff}.  The coefficient operations come out as
x |- y = x(0) y  and  x -| y = x y(0), which is what makes the
degree-bounded truncations closed under both; CurrentPA computes them in
that closed form, as products of polynomial matrices one of which is
constant.
"""

from __future__ import annotations

from .linalg import add_term, decimal_str, vec_axpy
from .pseudo import PseudoAlgebra

PolyMat = dict  # {(k, r, c): coeff}, coeff an int or a Fraction, never a float


def pm_unit(r: int, c: int) -> PolyMat:
    return {(0, r, c): 1}


def _mult_into(out: PolyMat, a: PolyMat, b: PolyMat) -> None:
    """out += a b, the product of polynomial matrices: T-powers add."""
    rows: dict = {}
    for (l, r, c), v in b.items():
        rows.setdefault(r, []).append((l, c, v))
    for (k, r, c), va in a.items():
        for l, c2, vb in rows.get(c, ()):  # a[r,c] T^k * b[c,c2] T^l
            add_term(out, (k + l, r, c2), va * vb)


def _at_zero(a: PolyMat, sign: int = 1) -> PolyMat:
    """sign * a(0), the constant term of a."""
    return {key: sign * v for key, v in a.items() if not key[0]}


class CurrentPA(PseudoAlgebra):
    """Current pseudo-algebra over dim x dim matrices.

    With bracket=True the pseudo-product is the commutator variant
    [x*y] = x*y - (swap (x)_H id)(y*x), whose base terms are degreewise
    commutators.
    """

    def __init__(self, dim: int, bracket: bool = False):
        self.dim = dim
        self.bracket = bracket

    # -- element protocol --------------------------------------------------

    def zero(self) -> PolyMat:
        return {}

    def add(self, a: PolyMat, b: PolyMat) -> PolyMat:
        out = dict(a)
        vec_axpy(out, 1, b)
        return out

    def scale(self, a: PolyMat, coeff) -> PolyMat:
        if not coeff:
            return {}
        return {k: coeff * v for k, v in a.items()}

    def is_zero(self, a: PolyMat) -> bool:
        return not a

    def t_act(self, a: PolyMat) -> PolyMat:
        return {(k + 1, r, c): v for (k, r, c), v in a.items()}

    def base_product(self, x: PolyMat, y: PolyMat) -> list:
        """[(k, l, x_k y_l)] over the T-degree blocks x_k of x and y_l of y,
        less y_l x_k in the commutator variant: each product one pass over
        its left factor's entries and its right factor's rows."""
        blocks: dict = {}
        for a, b, sign in [(x, y, 1)] + ([(y, x, -1)] if self.bracket else []):
            rows: dict = {}
            for (q, r, c), v in b.items():
                rows.setdefault(r, []).append((q, c, v))
            for (p, r, c), va in a.items():
                for q, c2, vb in rows.get(c, ()):  # a[r,c] T^p * b[c,c2] T^q
                    kl = (p, q) if sign == 1 else (q, p)
                    add_term(blocks.setdefault(kl, {}), (0, r, c2), sign * va * vb)
        return [(k, l, m) for (k, l), m in blocks.items() if m]

    def rprod(self, x: PolyMat, y: PolyMat) -> PolyMat:
        """x |- y = x(0) y, less y x(0) in the commutator variant."""
        out: PolyMat = {}
        _mult_into(out, _at_zero(x), y)
        if self.bracket:
            _mult_into(out, y, _at_zero(x, -1))
        return out

    def lprod(self, x: PolyMat, y: PolyMat) -> PolyMat:
        """x -| y = x y(0), less y(0) x in the commutator variant."""
        out: PolyMat = {}
        _mult_into(out, x, _at_zero(y))
        if self.bracket:
            _mult_into(out, _at_zero(y, -1), x)
        return out

    def generators(self) -> list:
        return [(f"E{r + 1}{c + 1}", pm_unit(r, c))
                for r in range(self.dim) for c in range(self.dim)]

    def describe(self, a: PolyMat) -> str:
        if not a:
            return "0"
        bits = []
        for (k, r, c) in sorted(a):
            t = f"T^{k} " if k > 1 else ("T " if k == 1 else "")
            bits.append(f"{decimal_str(a[(k, r, c)])} {t}E{r + 1}{c + 1}")
        return " + ".join(bits)
