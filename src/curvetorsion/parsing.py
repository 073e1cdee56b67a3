"""Expression parser for curve equations and minimal polynomials.

Grammar (tokens separated by optional whitespace):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | atom ('^' INTEGER)?
    atom   := NUMBER | SYMBOL | '(' expr ')'
    NUMBER := digits or digits/digits (a rational literal, not division)

Symbols are x, y, z and the declared field generator.  Implicit
multiplication is not part of the grammar; '2x' is a syntax error.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .fields import QQ, NumberField, power
from .homopoly import HomogeneousPoly
from .unipoly import UniPoly


class ParseError(ValueError):
    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        where = f" at line {line}, column {col}" if line is not None else ""
        super().__init__(f"{message}{where}")


@dataclass
class Token:
    kind: str  # NUMBER | NAME | OP | END
    value: object
    line: int
    col: int


def tokenize(text):
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch.isdigit():
            start = i
            start_col = col
            while i < len(text) and text[i].isdigit():
                i += 1
                col += 1
            num = int(text[start:i])
            den = 1
            if i < len(text) and text[i] == "/":
                j = i + 1
                if j < len(text) and text[j].isdigit():
                    i = j
                    col += 1
                    dstart = i
                    while i < len(text) and text[i].isdigit():
                        i += 1
                        col += 1
                    den = int(text[dstart:i])
                    if den == 0:
                        raise ParseError("zero denominator in rational literal", line, start_col)
            tokens.append(Token("NUMBER", Fraction(num, den), line, start_col))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            start_col = col
            while i < len(text) and (text[i].isalnum() or text[i] == "_"):
                i += 1
                col += 1
            tokens.append(Token("NAME", text[start:i], line, start_col))
            continue
        if ch in "+-*^()":
            tokens.append(Token("OP", ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("END", None, line, col))
    return tokens


class _Sparse4:
    """Sparse polynomial in x, y, z and the field generator, used while parsing."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = dict(terms or {})

    @classmethod
    def const(cls, c):
        c = Fraction(c)
        return cls({(0, 0, 0, 0): c} if c else {})

    @classmethod
    def sym(cls, index):
        e = [0, 0, 0, 0]
        e[index] = 1
        return cls({tuple(e): Fraction(1)})

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            v = out.get(e, Fraction(0)) + c
            if v:
                out[e] = v
            else:
                out.pop(e, None)
        return _Sparse4(out)

    def __neg__(self):
        return _Sparse4({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                v = out.get(e, Fraction(0)) + c1 * c2
                if v:
                    out[e] = v
                else:
                    out.pop(e, None)
        return _Sparse4(out)

    def __pow__(self, n):
        return power(self, n, _Sparse4.const(1))


class _Parser:
    def __init__(self, tokens, symbols):
        self.tokens = tokens
        self.pos = 0
        self.symbols = symbols

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def expect_op(self, op):
        t = self.take()
        if t.kind != "OP" or t.value != op:
            raise ParseError(f"expected {op!r}, found {t.value!r}", t.line, t.col)
        return t

    def parse(self):
        v = self.expr()
        t = self.peek()
        if t.kind != "END":
            raise ParseError(f"unexpected trailing input {t.value!r}", t.line, t.col)
        return v

    def expr(self):
        v = self.term()
        while True:
            t = self.peek()
            if t.kind == "OP" and t.value in "+-":
                self.take()
                rhs = self.term()
                v = v + rhs if t.value == "+" else v - rhs
            else:
                return v

    def term(self):
        v = self.factor()
        while True:
            t = self.peek()
            if t.kind == "OP" and t.value == "*":
                self.take()
                v = v * self.factor()
            elif t.kind in ("NUMBER", "NAME") or (t.kind == "OP" and t.value == "("):
                raise ParseError(
                    "missing operator (implicit multiplication is not allowed)",
                    t.line,
                    t.col,
                )
            else:
                return v

    def factor(self):
        t = self.peek()
        if t.kind == "OP" and t.value == "-":
            self.take()
            return -self.factor()
        v = self.atom()
        t = self.peek()
        if t.kind == "OP" and t.value == "^":
            self.take()
            e = self.take()
            if e.kind != "NUMBER" or e.value.denominator != 1 or e.value < 0:
                raise ParseError("exponent must be a nonnegative integer", e.line, e.col)
            return v ** int(e.value)
        return v

    def atom(self):
        t = self.take()
        if t.kind == "NUMBER":
            return _Sparse4.const(t.value)
        if t.kind == "NAME":
            if t.value not in self.symbols:
                known = ", ".join(sorted(self.symbols))
                raise ParseError(f"unknown symbol {t.value!r} (known: {known})", t.line, t.col)
            return _Sparse4.sym(self.symbols[t.value])
        if t.kind == "OP" and t.value == "(":
            v = self.expr()
            self.expect_op(")")
            return v
        raise ParseError(f"unexpected token {t.value!r}", t.line, t.col)


def _symbol_table(field):
    symbols = {"x": 0, "y": 1, "z": 2}
    if isinstance(field, NumberField):
        symbols[field.symbol] = 3
    return symbols


def parse_poly(text: str, field=None) -> HomogeneousPoly:
    """Parse a homogeneous curve equation over Q or the given number field.

    Inhomogeneous input is rejected with the offending term and its degree;
    the zero polynomial is rejected since it defines no curve.
    """
    field = field or QQ
    sparse = _Parser(tokenize(text), _symbol_table(field)).parse()
    terms = {}
    for e, c in sparse.terms.items():
        xyz = e[:3]
        if isinstance(field, NumberField):
            coeff_poly = [Fraction(0)] * (e[3] + 1)
            coeff_poly[e[3]] = c
            coeff = field.from_poly_coeffs(coeff_poly)
        else:
            if e[3] != 0:
                raise ParseError("generator symbol used without a declared field")
            coeff = c
        prev = terms.get(xyz)
        terms[xyz] = coeff if prev is None else prev + coeff
    terms = {e: c for e, c in terms.items() if not field.is_zero(c)}
    if not terms:
        raise ParseError("polynomial is identically zero and defines no curve")
    degrees = {sum(e) for e in terms}
    if len(degrees) > 1:
        top = max(degrees)
        offender = next(e for e in terms if sum(e) != top)
        mono = "*".join(s for s, k in zip("xyz", offender) for _ in range(k))
        raise ParseError(
            f"polynomial is not homogeneous: term {mono or '1'} has degree "
            f"{sum(offender)}, expected {top}"
        )
    return HomogeneousPoly(field, degrees.pop(), terms)


def parse_min_poly(text: str, symbol: str) -> UniPoly:
    """Parse a monic minimal polynomial in the generator symbol over Q."""
    sparse = _Parser(tokenize(text), {symbol: 3}).parse()
    coeffs = {}
    for e, c in sparse.terms.items():
        if any(e[:3]):
            raise ParseError("minimal polynomial may only use the generator symbol")
        coeffs[e[3]] = coeffs.get(e[3], Fraction(0)) + c
    n = max(coeffs) + 1 if coeffs else 0
    return UniPoly(QQ, [coeffs.get(i, Fraction(0)) for i in range(n)])
