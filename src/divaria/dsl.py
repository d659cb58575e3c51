"""Identity DSL: parsing (str of a polynomial prints it in the same syntax).

Grammar (ASCII, left-associative chains, '|-' and '-|' are the two
dialgebra products, '*' the single product):

    file     := (comment | blank)* header line*
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
from .linalg import add_term
from .operads import IdentitySet
from .words import (DiPoly, DILEAF, dinode, LEAF, LPROD, MultilinearPoly,
                    node, RPROD, TermPoly)

_DIGITS = "0123456789"

# The parser recurses through four calls per open parenthesis (at most 400
# frames here), and derive and printing recurse through the at most
# MAX_OPERATORS products of a shape, so every line within these bounds parses
# and derives below Python's default recursion limit of 1000, whatever the
# entry point.  A line beyond them is refused before it is parsed, and a
# product or sum that would expand past MAX_MONOMIALS before it is built.
MAX_NESTING = 100       # parentheses open at once
MAX_OPERATORS = 600     # products
MAX_MONOMIALS = 10_000  # monomials in the expansion of a line


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

    # expression grammar: each rule returns its monomials -------------------

    def parse_expr(self) -> list:
        sign = 1
        tok = self.peek()
        if tok and tok.kind == "minus":
            self.next()
            sign = -1
        monos = self.parse_term(sign)
        while True:
            tok = self.peek()
            if not (tok and tok.kind in ("plus", "minus")):
                return monos
            self.next()
            more = self.parse_term(1 if tok.kind == "plus" else -1)
            if set(more[0][3]) != set(monos[0][3]):
                raise ParseError("summands use different variables (not multilinear)",
                                 tok.line, tok.col)
            _check_expansion(len(monos) + len(more), tok)
            monos += more

    def parse_term(self, sign: int) -> list:
        coeff = Fraction(sign)
        tok = self.peek()
        if tok and tok.kind == "num":
            self.next()
            coeff *= Fraction(tok.text)
        return [(coeff * c, kind, shape, leaves)
                for c, kind, shape, leaves in self.parse_factor()]

    def parse_factor(self) -> list:
        monos = self.parse_primary()
        while True:
            tok = self.peek()
            if not (tok and tok.kind == "op"):
                return monos
            self.next()
            monos = _product(tok, monos, self.parse_primary())

    def parse_primary(self) -> list:
        tok = self.peek()
        if tok is None:
            raise ParseError("expected a factor", self.end.line, self.end.col)
        if tok.kind == "var":
            self.next()
            return [(1, None, None, (int(tok.text[1:]),))]
        if tok.kind == "lparen":
            self.next()
            inner = self.parse_expr()
            self.expect("rparen")
            return inner
        raise ParseError(f"expected a variable or '(', found {tok.text!r}", tok.line, tok.col)


def _check_expansion(count: int, tok: Token) -> None:
    if count > MAX_MONOMIALS:
        raise ParseError(f"identity expands to more than {MAX_MONOMIALS} monomials",
                         tok.line, tok.col)


def _product(op: Token, left: list, right: list) -> list:
    """The monomials (coefficient, kind, shape, leaves) of left op right, every
    left one times every right one; kind is '*' or 'di', and a bare variable,
    of kind and shape None, takes the leaf of the first product that uses it."""
    kind = "*" if op.text == "*" else "di"
    if any(k not in (None, kind) for _c, k, _s, _v in left + right):
        raise ParseError("mixing '*' with dialgebra products", op.line, op.col)
    if not set(left[0][3]).isdisjoint(right[0][3]):  # a factor's summands share variables
        raise ParseError("a variable occurs on both sides of a product (not multilinear)",
                         op.line, op.col)
    _check_expansion(len(left) * len(right), op)
    leaf = LEAF if kind == "*" else DILEAF
    label = LPROD if op.text == "-|" else RPROD
    right = [(c, leaf if s is None else s, v) for c, _k, s, v in right]
    out = []
    for cl, _k, sl, vl in left:
        sl = leaf if sl is None else sl
        for cr, sr, vr in right:
            shape = node(sl, sr) if kind == "*" else dinode(label, sl, sr)
            out.append((cl * cr, kind, shape, vl + vr))
    return out


def expr_to_poly(monos: list, line: int) -> TermPoly:
    """The polynomial of a list of monomials (coefficient, kind, shape,
    leaves), summed in one dict; enforces multilinearity."""
    kinds = {kind for _c, kind, _s, _v in monos if kind is not None}
    if len(kinds) > 1:
        raise InputError("an identity cannot mix '*' with '|-'/'-|'")
    if not monos:
        raise InputError("empty expression")
    di = kinds == {"di"}
    leaf = DILEAF if di else LEAF
    n = len(monos[0][3])
    terms: dict = {}
    for coeff, _kind, shape, leaves in monos:
        if sorted(leaves) != list(range(1, len(leaves) + 1)):
            raise InputError(
                f"line {line}: monomial variables {sorted(leaves)} are not x1..x{len(leaves)} "
                f"exactly once each (not multilinear)")
        if len(leaves) != n:
            raise InputError("mixed arities")
        add_term(terms, (leaf if shape is None else shape, leaves), coeff)
    return (DiPoly if di else MultilinearPoly)(n, terms)


def parse_identity(tokens: list[Token]) -> TermPoly:
    """The polynomial of one line of tokens, its newline token last; an
    expression that ends early is an error at the end of the line."""
    *body, end = tokens
    parser = _Parser(body, end)
    monos = parser.parse_expr()
    tok = parser.peek()
    if tok is not None:
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col)
    return expr_to_poly(monos, end.line)


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
            if name is not None:
                raise ParseError("a second variety header", ln, head.col)
            name = ts[1].text
        elif name is None:
            raise ParseError("the variety header must come first", ln, head.col)
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
