"""Text grammar for field expressions, with a deterministic pretty-printer.

    expr       := ['+'|'-'] term (('+'|'-') term)*
    term       := factor factor ...          (juxtaposition is multiplication)
    factor     := atom ['^' INT]
    atom       := NUMBER | 'i' | 'j' | 'sqrt2' | 'g' | 'gp' | 'R' | 's'
                | derivfield | 'conj' '(' derivfield ')'
    derivfield := ('d' '[' INDEX ']')* NAME ['[' INDEX (',' INDEX)* ']']
    NUMBER     := INT ['/' INT]

Field names are identifiers; a trailing '+' or '-' belongs to the name only
when immediately followed by '[' (so ``W+[mu]`` is a field application while
``a - b`` stays a difference).  The printer emits canonical forms that parse
back to the identical expression.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction

from .contraction import ComplexRational
from .fields import (
    FIELDS,
    PARAM_NAMES,
    ArityError,
    Expression,
    FieldFactor,
    Term,
)

__all__ = ["ParseError", "parse", "to_text"]

_DISPLAY_TO_NAME = {d.shown: d.name for d in FIELDS.values()}
_DISPLAY_TO_NAME.update({d.name: d.name for d in FIELDS.values()})

class ParseError(ValueError):
    """Syntax error with the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# One named group per token kind, tried in order, with SPACE skipped and OTHER
# an error.  A NAME may start with any word character but a decimal digit;
# the scanner rejects one that is not a letter or '_' (such as '²' or '½').
_TOKEN = (r"(?P<SPACE>\s+)|(?P<NUMBER>\d+(?:/\d+)?)|(?P<NAME>[^\W\d]\w*(?:[+-](?=\[))?)"
          r"|(?P<LBRACK>\[)|(?P<RBRACK>\])|(?P<LPAREN>\()|(?P<RPAREN>\))|(?P<COMMA>,)"
          r"|(?P<PLUS>\+)|(?P<MINUS>-)|(?P<CARET>\^)|(?P<OTHER>.)")


class _Parser:
    def __init__(self, text: str):
        # (kind, value, position) per token, ending with EOF; ``re`` compiles
        # the pattern on the first parse and caches it
        self.tokens = []
        for m in re.finditer(_TOKEN, text):
            kind, value, pos = m.lastgroup, m.group(), m.start()
            if kind == "NUMBER":
                try:
                    value = Fraction(value)
                except ZeroDivisionError:
                    raise ParseError("zero denominator in rational literal", pos) from None
                except ValueError:  # more digits than int() converts
                    raise ParseError("too many digits in rational literal", pos) from None
            elif kind == "OTHER" or kind == "NAME" and not (value[0].isalpha() or value[0] == "_"):
                raise ParseError(f"unexpected character {value[0]!r}", pos)
            if kind != "SPACE":
                self.tokens.append((kind, value, pos))
        self.tokens.append(("EOF", None, len(text)))
        self.k = 0

    def peek(self) -> str:
        return self.tokens[self.k][0]

    def next(self) -> tuple:
        self.k += 1
        return self.tokens[self.k - 1]

    def expect(self, kind: str) -> tuple:
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[0]}", tok[2])
        return tok

    def parse_expression(self) -> Expression:
        sign = -1 if self.peek() == "MINUS" else 1
        if self.peek() in ("PLUS", "MINUS"):
            self.next()
        terms = [self.parse_term(sign)]
        while self.peek() in ("PLUS", "MINUS"):
            terms.append(self.parse_term(-1 if self.next()[0] == "MINUS" else 1))
        self.expect("EOF")
        return Expression.build(terms)

    def parse_term(self, sign: int) -> Term:
        coeff = ComplexRational(sign)
        jdeg = r2 = 0
        params: list[tuple[str, int]] = []
        factors: list[FieldFactor] = []
        if self.peek() not in ("NUMBER", "NAME"):
            raise ParseError("expected a term", self.tokens[self.k][2])
        while self.peek() in ("NUMBER", "NAME"):
            tok = kind, value, _ = self.next()
            if kind == "NUMBER":
                coeff = coeff * ComplexRational(value ** self.parse_power())
            elif value == "i":
                coeff = coeff * _ipow(self.parse_power())
            elif value == "j":
                jdeg += self.parse_power()
            elif value == "sqrt2":
                r2 += self.parse_power()
            elif value in PARAM_NAMES:
                params.append((value, self.parse_power()))
            elif value == "conj" and self.peek() == "LPAREN":
                self.next()
                inner = self.next()
                if inner[0] != "NAME":
                    raise ParseError("conj(...) must wrap a field", inner[2])
                factor = self.parse_derivfield(inner, conj=True)
                self.expect("RPAREN")
                factors.extend([factor] * self.parse_power())
            else:
                factors.extend([self.parse_derivfield(tok)] * self.parse_power())
        return Term(coeff, jdeg, tuple(params), r2, tuple(factors))

    def parse_power(self) -> int:
        if self.peek() != "CARET":
            return 1
        self.next()
        _, value, pos = self.expect("NUMBER")
        if value.denominator != 1 or not 0 < value <= 99:
            raise ParseError("power must be a positive integer (at most 99)", pos)
        return int(value)

    def parse_derivfield(self, tok: tuple, conj: bool = False) -> FieldFactor:
        derivs: list[str] = []
        while tok[1] == "d" and self.peek() == "LBRACK":
            self.next()
            derivs.append(self.parse_index())
            self.expect("RBRACK")
            tok = self.next()
            if tok[0] != "NAME":
                raise ParseError("expected a field name after d[...]", tok[2])
        name = _DISPLAY_TO_NAME.get(tok[1])
        if name is None:
            raise ParseError(f"unknown field {tok[1]!r}", tok[2])
        indices: list[str] = []
        if self.peek() == "LBRACK":
            while not indices or self.peek() == "COMMA":  # '[' first, then ','
                self.next()
                indices.append(self.parse_index())
            self.expect("RBRACK")
        try:
            return FieldFactor(name, tuple(indices), tuple(derivs), conj)
        except ArityError as exc:
            raise ArityError(f"{exc} (at position {tok[2]})") from None

    def parse_index(self) -> str:
        kind, value, pos = self.next()
        if kind != "NAME":
            raise ParseError("expected an index name", pos)
        return value


def _ipow(power: int) -> ComplexRational:
    return [ComplexRational(1), ComplexRational(0, 1),
            ComplexRational(-1), ComplexRational(0, -1)][power % 4]


def parse(text: str) -> Expression:
    """Parse and normalize an expression; raises :class:`ParseError`,
    :class:`~ewverify.fields.ArityError`, or
    :class:`~ewverify.fields.IndexConflictError` on malformed input."""
    return _Parser(text).parse_expression()


# --- pretty printing --------------------------------------------------------

def _factor_text(f: FieldFactor) -> str:
    body = FIELDS[f.field].shown
    if f.indices:
        body += "[" + ",".join(f.indices) + "]"
    body = "".join(f"d[{d}]" for d in f.derivs) + body
    if f.conj:
        body = f"conj({body})"
    return body


def _piece_text(mag: Fraction, is_imag: bool, t: Term) -> str:
    atoms: list[str] = []
    if is_imag:
        atoms.append("i")
    if t.r2:
        atoms.append("sqrt2" if t.r2 == 1 else f"sqrt2^{t.r2}")
    pmap = dict(t.params)
    for name in PARAM_NAMES:
        exp = pmap.get(name, 0)
        if exp == 1:
            atoms.append(name)
        elif exp > 1:
            atoms.append(f"{name}^{exp}")
    if t.jdeg == 1:
        atoms.append("j")
    elif t.jdeg > 1:
        atoms.append(f"j^{t.jdeg}")
    for f, group in itertools.groupby(t.factors):
        count = len(list(group))
        text = _factor_text(f)
        atoms.append(text if count == 1 else f"{text}^{count}")
    if mag != 1 or not atoms:
        atoms.insert(0, str(mag))
    return " ".join(atoms)


def to_text(e: Expression) -> str:
    """Deterministic canonical rendering; ``parse(to_text(e)) == e``."""
    if e.is_zero():
        return "0"
    # each term prints its real part, then its imaginary part, when nonzero
    text = "".join(f" {'+' if value > 0 else '-'} {_piece_text(abs(value), is_imag, t)}"
                   for t in e.terms
                   for value, is_imag in ((t.coeff.re, False), (t.coeff.im, True)) if value)
    return text[3:] if text[1] == "+" else "-" + text[3:]
