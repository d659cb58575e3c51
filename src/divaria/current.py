"""Polynomial current pseudo-algebras: k[T] (x) End(V) with the product
concentrated in degree zero, and its commutator variant.

Elements are square matrices over Q[T], stored sparsely as
{(T-power, row, col): coeff}.  The coefficient operations come out as
x |- y = x(0) y  and  x -| y = x y(0), which is what makes the
degree-bounded truncations closed under both.
"""

from __future__ import annotations

from .linalg import add_term, decimal_str, vec_axpy
from .pseudo import PseudoAlgebra

PolyMat = dict  # {(k, r, c): coeff}, coeff an int or a Fraction, never a float


def pm_unit(r: int, c: int) -> PolyMat:
    return {(0, r, c): 1}


def _mat_mult(a: dict, b: dict) -> dict:
    out: dict = {}
    bt: dict = {}
    for (r, c), v in b.items():
        bt.setdefault(r, []).append((c, v))
    for (r, c), va in a.items():
        for c2, vb in bt.get(c, ()):  # a[r,c] * b[c,c2]
            add_term(out, (r, c2), va * vb)
    return out


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
        xs: dict = {}
        for (k, r, c), v in x.items():
            xs.setdefault(k, {})[(r, c)] = v
        ys: dict = {}
        for (k, r, c), v in y.items():
            ys.setdefault(k, {})[(r, c)] = v
        out = []
        for k, xm in xs.items():
            for l, ym in ys.items():
                prod = _mat_mult(xm, ym)
                if self.bracket:
                    vec_axpy(prod, -1, _mat_mult(ym, xm))
                if prod:
                    out.append((k, l, {(0, r, c): v for (r, c), v in prod.items()}))
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
