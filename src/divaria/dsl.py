"""Identity DSL: parsing (str of a polynomial prints it in the same syntax).

Grammar (ASCII, left-associative chains, '|-' and '-|' are the two
dialgebra products, '*' the single product):

    file     := header line*
    header   := 'variety' name
    line     := 'vars' var+ | 'identity' expr | comment | blank
    expr     := ['-'] term (('+'|'-') term)*
    term     := [rational] factor
    factor   := var | '(' expr ')' | factor op factor
    op       := '*' | '|-' | '-|'
    var      := 'x' digits
    rational := digits ['/' digits]

Every identity must be multilinear: each of x1..xn occurs exactly once
per monomial, with n the arity (checked; 'vars' only documents it).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError
from .operads import IdentitySet
from .words import (DiPoly, DILEAF, dinode, LEAF, LPROD, MultilinearPoly,
                    node, RPROD, TermPoly)

_OPS = ("|-", "-|", "*")
_DIGITS = "0123456789"

# The parser recurses through four calls per open parenthesis (at most 400
# frames here), and the tree walks once per product and per parenthesis
# (at most 700), so every identity line within these bounds parses and
# derives below Python's default recursion limit of 1000, whatever the
# entry point; a line beyond them is refused before it is parsed.
MAX_NESTING = 100     # parentheses open at once
MAX_OPERATORS = 600   # products


@dataclass
class Token:
    kind: str   # 'num', 'var', 'name', 'op', 'lparen', 'rparen', 'plus', 'minus'
    text: str
    line: int
    col: int


class ParseError(InputError):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {msg}")
        self.line = line
        self.col = col


def _digit_run(line: str, i: int, ln: int) -> int:
    """The end of the run of ASCII digits that starts at i.  A run longer
    than Python converts to an int (sys.get_int_max_str_digits) is an error."""
    j = i
    while j < len(line) and line[j] in _DIGITS:
        j += 1
    limit = sys.get_int_max_str_digits()
    if limit and j - i > limit:
        raise ParseError(f"a number of more than {limit} digits", ln, i + 1)
    return j


def tokenize(text: str) -> list[Token]:
    out: list[Token] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        i = 0
        while i < len(line):
            ch = line[i]
            col = i + 1
            if ch.isspace():
                i += 1
                continue
            two = line[i:i + 2]
            if two in ("|-", "-|"):
                out.append(Token("op", two, ln, col))
                i += 2
            elif ch == "*":
                out.append(Token("op", "*", ln, col))
                i += 1
            elif ch == "(":
                out.append(Token("lparen", ch, ln, col))
                i += 1
            elif ch == ")":
                out.append(Token("rparen", ch, ln, col))
                i += 1
            elif ch == "+":
                out.append(Token("plus", ch, ln, col))
                i += 1
            elif ch == "-":
                out.append(Token("minus", ch, ln, col))
                i += 1
            elif ch in _DIGITS:
                j = _digit_run(line, i, ln)
                if j < len(line) and line[j] == "/":
                    k = _digit_run(line, j + 1, ln)
                    if k == j + 1:
                        raise ParseError("missing denominator", ln, j + 2)
                    if not line[j + 1:k].strip("0"):
                        raise ParseError("zero denominator", ln, col)
                    out.append(Token("num", line[i:k], ln, col))
                    i = k
                else:
                    out.append(Token("num", line[i:j], ln, col))
                    i = j
            elif ch == "x" and i + 1 < len(line) and line[i + 1] in _DIGITS:
                j = _digit_run(line, i + 1, ln)
                out.append(Token("var", line[i:j], ln, col))
                i = j
            elif ch.isalpha() or ch == "_":
                j = i
                while j < len(line) and (line[j].isalnum() or line[j] in "_-."):
                    j += 1
                out.append(Token("name", line[i:j], ln, col))
                i = j
            else:
                raise ParseError(f"unexpected character {ch!r}", ln, col)
        out.append(Token("newline", "", ln, len(line) + 1))
    return out


class _Parser:
    """Parses tokens; an error at their end names the position of end."""

    def __init__(self, tokens: list[Token], end: Token):
        self.toks = tokens
        self.end = end
        self.pos = 0

    def peek(self) -> Token | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.end.line, self.end.col)
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.next()
        if tok.kind != kind:
            raise ParseError(f"expected {kind}, found {tok.text!r}", tok.line, tok.col)
        return tok

    # expression grammar -----------------------------------------------------

    def parse_expr(self):
        terms = []
        sign = 1
        tok = self.peek()
        if tok and tok.kind == "minus":
            self.next()
            sign = -1
        terms.append(self.parse_term(sign))
        while True:
            tok = self.peek()
            if tok and tok.kind in ("plus", "minus"):
                self.next()
                terms.append(self.parse_term(1 if tok.kind == "plus" else -1))
            else:
                return terms

    def parse_term(self, sign: int):
        coeff = Fraction(sign)
        tok = self.peek()
        if tok and tok.kind == "num":
            self.next()
            coeff *= Fraction(tok.text)
        return (coeff, self.parse_factor())

    def parse_factor(self):
        tree = self.parse_primary()
        while True:
            tok = self.peek()
            if tok and tok.kind == "op":
                self.next()
                tree = ("op", tok.text, tree, self.parse_primary(), tok.line, tok.col)
            else:
                return tree

    def parse_primary(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("expected a factor", self.end.line, self.end.col)
        if tok.kind == "var":
            self.next()
            return ("var", int(tok.text[1:]), tok.line, tok.col)
        if tok.kind == "lparen":
            self.next()
            inner = self.parse_expr()
            self.expect("rparen")
            return ("expr", inner)
        raise ParseError(f"expected a variable or '(', found {tok.text!r}", tok.line, tok.col)


def _tree_to_monomials(tree):
    """Expand an AST factor into [(coeff, opkind, shapetree, leaves)] where
    opkind is '*' or 'di' and shapetree nests ('leaf', var)/(op, l, r)."""
    kind = tree[0]
    if kind == "var":
        return [(Fraction(1), None, ("leaf", tree[1]))]
    if kind == "expr":
        out = []
        for coeff, sub in tree[1]:
            for c2, ok, st in _tree_to_monomials(sub):
                out.append((coeff * c2, ok, st))
        return out
    _, op, lhs, rhs, line, col = tree
    okind = "*" if op == "*" else "di"
    out = []
    for cl, okl, stl in _tree_to_monomials(lhs):
        for cr, okr, str_ in _tree_to_monomials(rhs):
            for sub in (okl, okr):
                if sub is not None and sub != okind:
                    raise ParseError("mixing '*' with dialgebra products", line, col)
            out.append((cl * cr, okind, (op, stl, str_)))
    return out


def _shape_of(st, di: bool):
    if st[0] == "leaf":
        return (DILEAF if di else LEAF), [st[1]]
    op, l, r = st
    ls, lv = _shape_of(l, di)
    rs, rv = _shape_of(r, di)
    if di:
        return dinode(LPROD if op == "-|" else RPROD, ls, rs), lv + rv
    return node(ls, rs), lv + rv


def expr_to_poly(terms, line: int) -> TermPoly:
    """Signed-term list -> canonical polynomial; enforces multilinearity."""
    monos = []
    for coeff, tree in terms:
        monos.extend((coeff * c, ok, st) for c, ok, st in _tree_to_monomials(tree))
    kinds = {ok for _c, ok, _st in monos if ok is not None}
    if len(kinds) > 1:
        raise InputError("an identity cannot mix '*' with '|-'/'-|'")
    di = kinds == {"di"}
    cls = DiPoly if di else MultilinearPoly
    poly = None
    for coeff, _ok, st in monos:
        shape, leaves = _shape_of(st, di)
        n = len(leaves)
        if sorted(leaves) != list(range(1, n + 1)):
            raise InputError(
                f"line {line}: monomial variables {sorted(leaves)} are not x1..x{n} "
                f"exactly once each (not multilinear)")
        term = cls(n, {(shape, tuple(leaves)): coeff})
        poly = term if poly is None else poly + term
    if poly is None:
        raise InputError("empty expression")
    return poly


def parse_identity(tokens: list[Token]) -> TermPoly:
    """The polynomial of one line of tokens, its newline token last; an
    expression that ends early is an error at the end of the line."""
    *body, end = tokens
    parser = _Parser(body, end)
    terms = parser.parse_expr()
    tok = parser.peek()
    if tok is not None:
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col)
    return expr_to_poly(terms, end.line)


def _check_nesting(tokens: list[Token], line: int, col: int) -> None:
    """Refuse an identity line that opens more than MAX_NESTING parentheses
    at once or holds more than MAX_OPERATORS products, before it is parsed."""
    depth = deepest = ops = 0
    for tok in tokens:
        if tok.kind == "lparen":
            depth += 1
            deepest = max(deepest, depth)
        elif tok.kind == "rparen":
            depth -= 1
        elif tok.kind == "op":
            ops += 1
    if deepest > MAX_NESTING or ops > MAX_OPERATORS:
        raise ParseError("identity nested too deeply", line, col)


def parse_variety(text: str) -> IdentitySet:
    """Parse a variety file into an identity set of one-product polynomials."""
    lines: dict[int, list[Token]] = {}
    for t in tokenize(text):
        lines.setdefault(t.line, []).append(t)
    name = None
    declared_vars: list[int] = []
    identities: list[MultilinearPoly] = []
    for ln in sorted(lines):
        ts = lines[ln]  # the line's tokens, its newline last
        head = ts[0]
        if head.kind == "newline":
            continue
        if head.kind == "name" and head.text == "variety":
            if len(ts) != 3 or ts[1].kind != "name":
                raise ParseError("expected: variety <name>", ln, head.col)
            name = ts[1].text
        elif head.kind == "name" and head.text == "vars":
            for t in ts[1:-1]:
                if t.kind != "var":
                    raise ParseError("vars expects x<digits> entries", t.line, t.col)
                declared_vars.append(int(t.text[1:]))
        elif head.kind == "name" and head.text == "identity":
            _check_nesting(ts, ln, head.col)
            poly = parse_identity(ts[1:])
            if not isinstance(poly, MultilinearPoly):
                raise InputError(f"line {ln}: variety identities use '*' only")
            identities.append(poly)
        else:
            raise ParseError(f"unexpected {head.text!r}", head.line, head.col)
    if name is None:
        raise InputError("missing 'variety <name>' header")
    if not identities:
        raise InputError("variety file declares no identities")
    if declared_vars:
        top = max(t.arity for t in identities)
        if sorted(declared_vars) != list(range(1, top + 1)):
            raise InputError("declared vars do not match the identities' arity")
    return IdentitySet(name, tuple(identities))
