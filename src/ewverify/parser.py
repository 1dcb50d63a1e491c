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


class _Token:
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind, value, pos):
        self.kind = kind
        self.value = value
        self.pos = pos

    def __repr__(self):
        return f"{self.kind}({self.value!r})@{self.pos}"


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    n = len(text)
    k = 0
    while k < n:
        ch = text[k]
        if ch.isspace():
            k += 1
            continue
        if ch.isdigit():
            start = k
            while k < n and text[k].isdigit():
                k += 1
            if k < n and text[k] == "/" and k + 1 < n and text[k + 1].isdigit():
                k += 1
                while k < n and text[k].isdigit():
                    k += 1
            try:
                value = Fraction(text[start:k])
            except ZeroDivisionError:
                raise ParseError("zero denominator in rational literal", start) from None
            tokens.append(_Token("NUMBER", value, start))
            continue
        if ch.isalpha() or ch == "_":
            start = k
            k += 1
            while k < n and (text[k].isalnum() or text[k] == "_"):
                k += 1
            # a sign suffix is part of the name only for field applications
            if k < n and text[k] in "+-" and k + 1 < n and text[k + 1] == "[":
                k += 1
            tokens.append(_Token("NAME", text[start:k], start))
            continue
        simple = {"[": "LBRACK", "]": "RBRACK", "(": "LPAREN", ")": "RPAREN",
                  ",": "COMMA", "+": "PLUS", "-": "MINUS", "^": "CARET"}
        if ch in simple:
            tokens.append(_Token(simple[ch], ch, k))
            k += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", k)
    tokens.append(_Token("EOF", None, n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.k = 0

    def peek(self) -> _Token:
        return self.tokens[self.k]

    def next(self) -> _Token:
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            raise ParseError(f"expected {kind}, found {tok.kind}", tok.pos)
        return tok

    def parse_expression(self) -> Expression:
        terms: list[Term] = []
        sign = 1
        tok = self.peek()
        if tok.kind in ("PLUS", "MINUS"):
            sign = -1 if tok.kind == "MINUS" else 1
            self.next()
        terms.extend(self.parse_term(sign))
        while self.peek().kind in ("PLUS", "MINUS"):
            sign = -1 if self.next().kind == "MINUS" else 1
            terms.extend(self.parse_term(sign))
        self.expect("EOF")
        return Expression.build(terms)

    _ATOM_STARTS = ("NUMBER", "NAME")

    def parse_term(self, sign: int) -> list[Term]:
        coeff = ComplexRational(sign)
        jdeg = 0
        r2 = 0
        params: list[tuple[str, int]] = []
        factors: list[FieldFactor] = []
        tok = self.peek()
        if tok.kind not in self._ATOM_STARTS:
            raise ParseError("expected a term", tok.pos)
        while self.peek().kind in self._ATOM_STARTS:
            tok = self.next()
            power = 1
            if tok.kind == "NUMBER":
                atom = ("number", tok.value)
            elif tok.value == "i":
                atom = ("imag", None)
            elif tok.value == "j":
                atom = ("j", None)
            elif tok.value == "sqrt2":
                atom = ("sqrt2", None)
            elif tok.value in PARAM_NAMES:
                atom = ("param", tok.value)
            elif tok.value == "d" and self.peek().kind == "LBRACK":
                atom = ("factor", self.parse_derivfield(tok))
            elif tok.value == "conj" and self.peek().kind == "LPAREN":
                self.next()
                inner = self.next()
                if inner.kind != "NAME":
                    raise ParseError("conj(...) must wrap a field", inner.pos)
                f = self.parse_derivfield(inner)
                self.expect("RPAREN")
                atom = ("factor", FieldFactor(f.field, f.indices, f.derivs, not f.conj))
            else:
                atom = ("factor", self.parse_derivfield(tok))
            if self.peek().kind == "CARET":
                self.next()
                ptok = self.expect("NUMBER")
                if ptok.value.denominator != 1 or not 0 < ptok.value <= 99:
                    raise ParseError(
                        "power must be a positive integer (at most 99)", ptok.pos
                    )
                power = int(ptok.value)
            kind, value = atom
            if kind == "number":
                coeff = coeff * ComplexRational(value**power)
            elif kind == "imag":
                coeff = coeff * _ipow(power)
            elif kind == "j":
                jdeg += power
            elif kind == "sqrt2":
                r2 += power
            elif kind == "param":
                params.append((value, power))
            else:
                factors.extend([value] * power)
        return [Term(coeff, jdeg, tuple(params), r2, tuple(factors))]

    def parse_derivfield(self, first: _Token) -> FieldFactor:
        derivs: list[str] = []
        tok = first
        while tok.value == "d" and self.peek().kind == "LBRACK":
            self.next()
            derivs.append(self.parse_index())
            self.expect("RBRACK")
            tok = self.next()
            if tok.kind != "NAME":
                raise ParseError("expected a field name after d[...]", tok.pos)
        name = _DISPLAY_TO_NAME.get(tok.value)
        if name is None:
            raise ParseError(f"unknown field {tok.value!r}", tok.pos)
        indices: list[str] = []
        if self.peek().kind == "LBRACK":
            self.next()
            indices.append(self.parse_index())
            while self.peek().kind == "COMMA":
                self.next()
                indices.append(self.parse_index())
            self.expect("RBRACK")
        try:
            return FieldFactor(name, tuple(indices), tuple(derivs))
        except ArityError as exc:
            raise ArityError(f"{exc} (at position {tok.pos})") from None

    def parse_index(self) -> str:
        tok = self.next()
        if tok.kind != "NAME":
            raise ParseError("expected an index name", tok.pos)
        return tok.value


def _ipow(power: int) -> ComplexRational:
    return [ComplexRational(1), ComplexRational(0, 1),
            ComplexRational(-1), ComplexRational(0, -1)][power % 4]


def parse(text: str) -> Expression:
    """Parse and normalize an expression; raises :class:`ParseError`,
    :class:`~ewverify.fields.ArityError`, or
    :class:`~ewverify.fields.IndexConflictError` on malformed input."""
    return _Parser(text).parse_expression()


# --- pretty printing --------------------------------------------------------

def _rational_text(q: Fraction) -> str:
    return str(q)


def _factor_text(f: FieldFactor) -> str:
    body = FIELDS[f.field].shown
    if f.indices:
        body += "[" + ",".join(f.indices) + "]"
    body = "".join(f"d[{d}]" for d in f.derivs) + body
    if f.conj:
        body = f"conj({body})"
    return body


def _term_pieces(t: Term) -> list[tuple[Fraction, bool, Term]]:
    """Split a complex coefficient into printable (rational, is_imag) pieces."""
    pieces = []
    if t.coeff.re:
        pieces.append((t.coeff.re, False, t))
    if t.coeff.im:
        pieces.append((t.coeff.im, True, t))
    return pieces


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
    run: list[str] = []
    for f, group in itertools.groupby(t.factors):
        count = len(list(group))
        text = _factor_text(f)
        run.append(text if count == 1 else f"{text}^{count}")
    atoms.extend(run)
    if mag != 1 or not atoms:
        atoms.insert(0, _rational_text(mag))
    return " ".join(atoms)


def to_text(e: Expression) -> str:
    """Deterministic canonical rendering; ``parse(to_text(e)) == e``."""
    if e.is_zero():
        return "0"
    pieces = []
    for t in e.terms:
        pieces.extend(_term_pieces(t))
    out = []
    for k, (value, is_imag, t) in enumerate(pieces):
        body = _piece_text(abs(value), is_imag, t)
        if k == 0:
            out.append(body if value > 0 else f"-{body}")
        else:
            out.append((" + " if value > 0 else " - ") + body)
    return "".join(out)
