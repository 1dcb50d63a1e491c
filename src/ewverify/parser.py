"""Deterministic pretty-printer for field expressions.

``to_text`` prints each term as its sign, then its magnitude when it is not
1, then ``i``, ``sqrt2``, the parameters in the order ``g gp R s``, ``j``
and the field factors, with a repeated atom written as a power.  Fields
print under their display names (``W+``, ``W-``), derivatives as
``d[..]`` prefixes and conjugates as ``conj(...)``.  The grammar of this
text, and the reader that reads it back to the identical expression, are
in the tests (``tests/helpers.py``).
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .fields import FIELDS, PARAM_NAMES, Expression, FieldFactor, Term

__all__ = ["to_text"]


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
    """Deterministic canonical rendering: equal expressions print equal text."""
    if e.is_zero():
        return "0"
    # each term prints its real part, then its imaginary part, when nonzero
    text = "".join(f" {'+' if value > 0 else '-'} {_piece_text(abs(value), is_imag, t)}"
                   for t in e.terms
                   for value, is_imag in ((t.coeff.re, False), (t.coeff.im, True)) if value)
    return text[3:] if text[1] == "+" else "-" + text[3:]
