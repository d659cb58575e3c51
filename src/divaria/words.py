"""Bracketing shapes, labeled shapes, multilinear monomials and polynomials.

A monomial of arity n is a pair (shape, perm): the shape is a binary tree
with n leaves, and leaf k (counting left to right) carries the variable
x_{k*perm}.  Dialgebra monomials carry a label on every internal node
(LPROD for the left product -|, RPROD for the right product |-), a plain
node label 0; a fold applies products[label] at each node, from (product,)
or (-|, |-).  Tensor monomials additionally carry a center index in 1..n
naming a variable.

Coefficients are int when integral, else Fraction; polynomials are kept
canonical (like terms merged, zeros dropped).  The order on shapes is
lexicographic on a preorder encoding with internal nodes before leaves,
so left combs come first; monomials sort by (shape, one-line perm, center).
A shape's key nests its children's keys, (0, left.key, right.key) or
(0, label, left.key, right.key), and (1,) for a leaf: preorder encodings
are prefix-free, so nested keys sort as the flat encodings do, and each
node shares its children's keys instead of copying them.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product as index_tuples
from operator import itemgetter
from typing import Callable, Iterator, Sequence

from . import perms
from .errors import InputError
from .linalg import decimal_str, rational, vec_axpy
from .perms import Perm

LPROD = 0  # the product written  -|
RPROD = 1  # the product written  |-

OP_SYMBOL = {LPROD: "-|", RPROD: "|-"}


# ---------------------------------------------------------------------------
# shapes
# ---------------------------------------------------------------------------

class Shape:
    """Binary bracketing shape; interned, so identity equals equality."""

    __slots__ = ("left", "right", "arity", "key")
    label = 0  # the index of a node's product: a plain shape has one

    def __init__(self, left: "Shape | None", right: "Shape | None", key: tuple):
        self.left = left
        self.right = right
        self.arity = 1 if left is None else left.arity + right.arity
        self.key = key

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def __repr__(self) -> str:
        return f"{type(self).__name__}({''.join(map(str, self.flat_key()))})"

    def flat_key(self) -> tuple:
        """The preorder encoding, flat: 0 (then the label, on a DiShape) for
        an internal node, 1 for a leaf."""
        if self.is_leaf:
            return self.key
        return self.key[:-2] + self.left.flat_key() + self.right.flat_key()

    def __lt__(self, other: "Shape") -> bool:
        return self.key < other.key


class DiShape(Shape):
    """Bracketing shape with an LPROD/RPROD label on every internal node."""

    __slots__ = ("label",)

    def __init__(self, label: int | None, left, right, key: tuple):
        super().__init__(left, right, key)
        self.label = label


# keyed by the children, which are interned: identity hashing is exact
_SHAPE_CACHE: dict[tuple, Shape] = {}
LEAF = Shape(None, None, (1,))


def node(left: Shape, right: Shape) -> Shape:
    got = _SHAPE_CACHE.get((left, right))
    if got is None:
        got = _SHAPE_CACHE[left, right] = Shape(left, right, (0, left.key, right.key))
    return got


_DISHAPE_CACHE: dict[tuple, DiShape] = {}
DILEAF = DiShape(None, None, None, (1,))


def dinode(label: int, left: DiShape, right: DiShape) -> DiShape:
    if label not in (LPROD, RPROD):
        raise InputError(f"bad product label {label!r}")
    got = _DISHAPE_CACHE.get((label, left, right))
    if got is None:
        got = _DISHAPE_CACHE[label, left, right] = DiShape(label, left, right,
                                                           (0, label, left.key, right.key))
    return got


def all_shapes(n: int) -> tuple[Shape, ...]:
    """All bracketing shapes with n leaves (Catalan(n-1) of them), sorted."""
    return _all_trees(LEAF, n)


def all_dishapes(n: int) -> tuple[DiShape, ...]:
    """All labeled shapes with n leaves (Catalan(n-1)*2^(n-1)), sorted."""
    return _all_trees(DILEAF, n)


@lru_cache(maxsize=None)
def _all_trees(leaf: Shape, n: int) -> tuple:
    """All shapes of leaf's kind with n leaves, sorted; a labeled kind has
    each node once with each label."""
    if n < 1:
        raise InputError("arity must be >= 1")
    if n == 1:
        return (leaf,)
    out = []
    for m in range(1, n):
        for l in _all_trees(leaf, m):
            for r in _all_trees(leaf, n - m):
                out += [node(l, r)] if leaf is LEAF else [dinode(LPROD, l, r), dinode(RPROD, l, r)]
    return tuple(sorted(out, key=lambda s: s.key))


def graft(outer: Shape | DiShape, inners: Sequence) -> Shape | DiShape:
    """Replace leaf i of outer, a Shape or a DiShape, by inners[i-1], left
    to right."""
    if len(inners) != outer.arity:
        raise InputError("graft arity mismatch")
    return _graft(outer, iter(inners))


def _graft(s, it):
    """graft on a Shape or a DiShape, consuming the inners from it (module
    level for the reason given at _fold)."""
    if s.is_leaf:
        return next(it)
    left = _graft(s.left, it)
    right = _graft(s.right, it)
    return dinode(s.label, left, right) if isinstance(s, DiShape) else node(left, right)


def section_dishape(shape: Shape, p: int) -> DiShape:
    """Label shape so every product sign points at leaf position p.

    A node whose left subtree covers leaf positions up to mid gets -| when
    p <= mid and |- otherwise.  The center-leaf path of the result is p,
    and the labeling agrees with the worked dialgebra identity tables.
    """
    if not 1 <= p <= shape.arity:
        raise InputError(f"leaf position {p} out of range")
    return _section(shape, p, 1)


def _section(s: Shape, p: int, lo: int) -> DiShape:
    """section_dishape on the subtree s whose leftmost leaf is position lo
    (module level for the reason given at _fold)."""
    if s.is_leaf:
        return DILEAF
    mid = lo + s.left.arity - 1
    label = LPROD if p <= mid else RPROD
    return dinode(label, _section(s.left, p, lo), _section(s.right, p, mid + 1))


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

class TermPoly:
    """Base class: a canonical linear combination of monomials of one arity.
    A monomial is a word (shape, perm) with a shape of class shape_cls, and
    symbol(node) is the sign written for its product; TensorPoly adds a
    center to the word by extending the monomial methods through super()."""

    __slots__ = ("arity", "terms")

    shape_cls = Shape
    shapes = staticmethod(all_shapes)

    def __init__(self, arity: int, terms: dict | None = None):
        self.arity = arity
        clean = {}
        if terms:
            for mono, coeff in terms.items():
                if coeff:
                    self._check_mono(mono, arity)
                    clean[mono] = rational(coeff)
        self.terms = clean

    @staticmethod
    def symbol(s) -> str:
        return "*"

    @classmethod
    def _check_mono(cls, mono, arity):
        shape, perm = mono
        if type(shape) is not cls.shape_cls or shape.arity != arity or len(perm) != arity:
            raise InputError(f"bad {cls.__name__} monomial {mono!r} for arity {arity}")

    @staticmethod
    def _mono_key(mono):
        return (mono[0].key, *mono[1:])

    @staticmethod
    def _act_mono(mono, sigma):
        return (mono[0], perms.compose(mono[1], sigma))

    @classmethod
    def _render_mono(cls, mono):
        return _render_tree(mono[0], iter(mono[1]), cls.symbol)

    @classmethod
    def monomials(cls, n: int) -> list:
        """Every monomial of arity n, in coordinate order."""
        group = perms.symmetric_group(n)
        return [(s, p) for s in cls.shapes(n) for p in group]

    @classmethod
    def compose_mono(cls, mono, pi: tuple, inner: Sequence) -> tuple:
        """The operad composite of monomial mono with the monomials inner
        along the partition pi.

        The outer permutation sigma redistributes the blocks: the result is
        the graft of the inner shapes, in sigma's order, into the outer shape,
        paired with the permutation that places block sigma(i), relabeled by
        its inner permutation, at that block's start offset in pi.

        >>> x2x1, x1x2 = (node(LEAF, LEAF), (2, 1)), (node(LEAF, LEAF), (1, 2))
        >>> shape, perm = TermPoly.compose_mono(x2x1, (1, 2), [(LEAF, (1,)), x1x2])
        >>> str(MultilinearPoly.monomial(shape, perm))  # x2 x1 with x2 -> x2 x3
        '(x2*x3)*x1'
        """
        return cls._place_mono(mono, perms.block_starts(pi), inner)

    @staticmethod
    def _place_mono(mono, start, inner):
        """compose_mono given the block start offsets of the partition."""
        sigma = mono[1]
        reordered = [inner[s - 1] for s in sigma]
        return (graft(mono[0], [g[0] for g in reordered]),
                perms._place_blocks(sigma, start, [g[1] for g in reordered]))

    @classmethod
    def random_mono(cls, n: int, rng) -> tuple:
        """A random monomial of arity n: a shape, then a permutation."""
        return (rng.choice(cls.shapes(n)), perms.random_perm(n, rng))

    @classmethod
    def monomial(cls, shape, perm: Perm, *center):
        """The polynomial 1 (shape, perm), or 1 (shape, perm, center) for a TensorPoly."""
        return cls(shape.arity, {(shape, tuple(perm), *center): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: self._mono_key(kv[0]))

    def sort_key(self) -> tuple:
        """(monomial key, coefficient) of every term in sorted_terms order:
        a total order on the polynomials of one kind."""
        return tuple(sorted((self._mono_key(m), c) for m, c in self.terms.items()))

    def _binary_check(self, other):
        if type(other) is not type(self):
            raise InputError(f"cannot mix {type(self).__name__} with {type(other).__name__}")
        if other.arity != self.arity:
            raise InputError("mixed arities")

    def __add__(self, other):
        self._binary_check(other)
        out = dict(self.terms)
        vec_axpy(out, 1, other.terms)
        return type(self)(self.arity, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return type(self)(self.arity, {m: -c for m, c in self.terms.items()})

    def scale(self, coeff) -> "TermPoly":
        if not coeff:
            return type(self)(self.arity)
        return type(self)(self.arity, {m: coeff * c for m, c in self.terms.items()})

    __rmul__ = scale

    def act(self, sigma: Perm) -> "TermPoly":
        """Right action of the symmetric group (variable relabeling)."""
        if len(sigma) != self.arity:
            raise InputError("degree mismatch in symmetric group action")
        # relabeling permutes the monomials, so no two terms meet
        return type(self)(self.arity, {self._act_mono(m, sigma): c for m, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (type(other) is type(self) and other.arity == self.arity
                and other.terms == self.terms)

    def __hash__(self):
        return hash((type(self).__name__, self.arity, frozenset(self.terms.items())))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for i, (mono, coeff) in enumerate(self.sorted_terms()):
            sign = "-" if coeff < 0 else "+"
            mag = abs(coeff)
            body = self._render_mono(mono)
            if mag != 1:
                body = f"{decimal_str(mag)} {body}"
            if i == 0:
                parts.append(body if sign == "+" else f"- {body}")
            else:
                parts.append(f"{sign} {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


def _render_tree(s, variables, symbol: Callable, top: bool = True) -> str:
    """The word of shape s whose leaves, left to right, read their variable
    indices from the iterator variables (module level for the reason given
    at _fold)."""
    if s.is_leaf:
        return f"x{next(variables)}"
    left = _render_tree(s.left, variables, symbol, False)
    body = f"{left}{symbol(s)}{_render_tree(s.right, variables, symbol, False)}"
    return body if top else f"({body})"


class MultilinearPoly(TermPoly):
    """Linear combination of single-product bracketed multilinear words."""

    __slots__ = ()


class DiPoly(TermPoly):
    """Linear combination of two-product (labeled) multilinear words."""

    __slots__ = ()

    shape_cls = DiShape
    shapes = staticmethod(all_dishapes)

    @staticmethod
    def symbol(s) -> str:
        return OP_SYMBOL[s.label]


class TensorPoly(TermPoly):
    """Words paired with a basis vector index (the center variable)."""

    __slots__ = ()

    @classmethod
    def _check_mono(cls, mono, arity):
        shape, perm, center = mono
        super()._check_mono((shape, perm), arity)
        if not 1 <= center <= arity:
            raise InputError(f"bad {cls.__name__} monomial {mono!r} for arity {arity}")

    @classmethod
    def _act_mono(cls, mono, sigma):
        return super()._act_mono(mono, sigma) + (sigma[mono[2] - 1],)

    @classmethod
    def _render_mono(cls, mono):
        return f"({super()._render_mono(mono)})@e{mono[2]}"

    @classmethod
    def monomials(cls, n: int) -> list:
        return [(s, p, c) for s, p in super().monomials(n) for c in range(1, n + 1)]

    @classmethod
    def _place_mono(cls, mono, start, inner):
        center = mono[2]
        return super()._place_mono(mono, start, inner) + (
            start[center - 1] + inner[center - 1][2],)

    @classmethod
    def random_mono(cls, n: int, rng) -> tuple:
        return super().random_mono(n, rng) + (rng.randint(1, n),)


# ---------------------------------------------------------------------------
# coordinates
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def basis_monomials(cls: type[TermPoly], n: int) -> dict:
    """Monomial -> coordinate index for the polynomial class cls and arity n."""
    return {m: i for i, m in enumerate(cls.monomials(n))}


def to_vec(p: TermPoly) -> dict:
    index = basis_monomials(type(p), p.arity)
    return {index[m]: c for m, c in p.terms.items()}


# ---------------------------------------------------------------------------
# evaluation against bilinear products
# ---------------------------------------------------------------------------

def eval_shape_tree(shape: Shape, leaves: list, products: Sequence[Callable]):
    """Fold a shape over leaf values: each node applies products[node.label],
    so a plain shape takes (product,) and a DiShape (-|, |-)."""
    return _fold(shape, iter(leaves), products)


def _fold(s, it, products):
    # module level: a nested closure that calls itself is a reference
    # cycle, and every call would leave one for the cyclic collector
    if s.is_leaf:
        return next(it)
    lv = _fold(s.left, it, products)
    rv = _fold(s.right, it, products)
    return products[s.label](lv, rv)


def eval_on_tuples(p: TermPoly, basis: Sequence, products: Sequence[Callable],
                   subwords: dict) -> Iterator[tuple]:
    """Yield (index tuple, value of p) for every tuple of basis indices, in
    lex order, with {} at the tuples where p vanishes.  p has arity >= 2, as
    every identity has.

    products is indexed by node labels, as in eval_shape_tree; values are
    zero-free dicts.  Every product is bilinear, so a word with a zero
    subword is zero, and the words of p are joined from the nonzero values
    alone (nonzero_words): each proper subword shape with two or more leaves
    gets one table of its nonzero values by leaf indices, kept in subwords
    under the interned shape, and a caller that passes one subwords dict for
    several polynomials on one basis shares the tables.  The values of p's
    words are not kept: each is added, at the tuple its monomial's
    permutation gives, into an accumulator held only while nonzero, so the
    memory is the subword tables and the tuples where p is nonzero.  Kept
    values are shared and never mutated.

    >>> ab = node(LEAF, LEAF)
    >>> assoc = (MultilinearPoly.monomial(node(ab, LEAF), (1, 2, 3))
    ...          - MultilinearPoly.monomial(node(LEAF, ab), (1, 2, 3)))
    >>> basis = [{0: 1}, {1: 1}]  # e0 e0 = e0, e0 e1 = e1, e1 x = 0
    >>> mul = lambda x, y: {k: x[0] * v for k, v in y.items()} if 0 in x else {}
    >>> subwords = {}
    >>> [idx for idx, val in eval_on_tuples(assoc, basis, (mul,), subwords) if val]
    []
    >>> [len(table) for table in subwords.values()]  # x1 x2 and x2 x3: one table, 2 of 4 pairs
    [2]
    >>> comm = MultilinearPoly.monomial(ab, (1, 2)) - MultilinearPoly.monomial(ab, (2, 1))
    >>> next((idx, val) for idx, val in eval_on_tuples(comm, basis, (mul,), {}) if val)
    ((0, 1), {1: 1})
    """
    acc: dict = {}
    for monos, at, value in nonzero_words(p, basis, products, subwords):
        for coeff, _perm, place in monos:
            idx = place(at)
            cur = acc.setdefault(idx, {})
            vec_axpy(cur, coeff, value)
            if not cur:
                del acc[idx]
    for idx in index_tuples(range(len(basis)), repeat=p.arity):
        yield idx, acc.pop(idx, None) or {}


def nonzero_words(p: TermPoly, basis: Sequence, products: Sequence[Callable],
                  subwords: dict) -> Iterator[tuple]:
    """Yield (monomials, leaf indices, value) for every nonzero value of a
    word shape of p on elements of basis (of any kind, true when nonzero):
    monomials lists the (coefficient, permutation, placement) of each
    monomial of that shape, and placement maps the leaf indices to the
    index tuple at which the monomial takes this value.  Each shape's values
    are streamed once for all of its monomials.

    Sound for bilinear products only: a value with a zero factor is taken
    to be zero, and its product is never made."""
    leaves = {(i,): x for i, x in enumerate(basis) if x}
    groups: dict = {}
    for (shape, perm), coeff in p.terms.items():
        place = itemgetter(*[k - 1 for k in perms.inverse(perm)])
        groups.setdefault(shape, []).append((coeff, perm, place))
    for shape, monos in groups.items():
        for idx, value in _join(shape, leaves, products, subwords):
            yield monos, idx, value


def _join(s, leaves: dict, products, subwords: dict) -> Iterator[tuple]:
    """Yield (leaf indices, value) for every nonzero value of the word of
    shape s, a product of a nonzero value of each child (module level for
    the reason given at _fold)."""
    left = _table(s.left, leaves, products, subwords)
    right = _table(s.right, leaves, products, subwords).items()
    prod = products[s.label]
    for li, lv in left.items():
        for ri, rv in right:
            value = prod(lv, rv)
            if value:
                yield li + ri, value


def _table(s, leaves: dict, products, subwords: dict) -> dict:
    """The nonzero values of the word of shape s by leaf indices: leaves for
    a leaf, else read from or kept in subwords under s."""
    if s.is_leaf:
        return leaves
    got = subwords.get(s)
    if got is None:
        got = subwords[s] = dict(_join(s, leaves, products, subwords))
    return got
