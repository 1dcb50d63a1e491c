"""Numeric evaluation of field expressions on random field values.

The scaling sweep evaluates the Lagrangian's j-grade parts on random field
values; that is this module's one use.  No check decides an identity here:
the canonical form settles them all, with s = sqrt(g^2+gp^2) carried as a
symbol where it is irrational.

Summed index pairs expand over a 4-dimensional index range; contraction is
plain pairing with no metric signs.  Conjugate field instances always
receive the conjugate value of their partners.  The sweep's parts are
scalars, so an expression with a free index is rejected.

Each expression is compiled once into a plan: per term a base coefficient,
per index combination a tuple of slots, and the slots' field instances in
first-access order, derivative tags sorted (derivatives commute).  An
evaluation fetches every instance in one batched ``values(keys)`` lookup,
then runs the products (unrolled, left to right, for 2 to 4 factors) and
the sum in term-by-term float order, so the result rounds exactly as a
walk over every combination would.

The sweep evaluates three parts on one sample: :func:`compile_layout`
lists their instances once, in first-access order, part after part;
:func:`draw` draws a sample in one pass, in that order, and each part
reads its values by position.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from collections import namedtuple

from .fields import FIELDS, Expression
from .report import witness

__all__ = [
    "DIMENSION",
    "MissingAssignmentError",
    "compile_layout",
    "draw",
    "eval_expression",
]

DIMENSION = 4

SQRT2 = math.sqrt(2.0)


class MissingAssignmentError(KeyError):
    """The expression has a free index, or a parameter it names has no value."""


@functools.lru_cache(maxsize=64)
def _plan(e: Expression) -> tuple:
    """Compile ``e``, which must have no free index.

    Returns ``(terms, keys)``: per term its base ``complex(coeff) *
    sqrt(2)**r2``, its parameter monomial and, per summed-index
    combination, a tuple of slots into ``keys``; ``keys`` holds each
    distinct ``(field, indices, derivs, conj)`` once, in first-access order,
    with ``derivs`` sorted.
    """
    slots: dict = {}
    terms = []
    for t in e.terms:
        counts = t.index_counts()
        free = [n for n, c in counts.items() if c == 1]
        if free:
            raise MissingAssignmentError(f"free index {free[0]} has no value")
        dummies = sorted(counts)
        combos = []
        for combo in itertools.product(range(DIMENSION), repeat=len(dummies)):
            concrete = dict(zip(dummies, combo))
            combos.append(tuple(
                slots.setdefault((f.field,
                                  tuple(concrete[i] for i in f.indices),
                                  tuple(sorted(concrete[i] for i in f.derivs)),
                                  f.conj), len(slots))
                for f in t.factors
            ))
        terms.append((complex(t.coeff) * (SQRT2**t.r2), t.params, tuple(combos)))
    return tuple(terms), tuple(slots)


def compile_layout(exprs) -> tuple:
    """Compile one shared draw for the scalar expressions ``exprs``.

    Returns ``(reals, slots)``: per distinct field instance of their plans,
    in first-access order and with mirror fields resolved, whether it is
    real; and per expression the positions of its plan's keys in
    :func:`draw`'s list, which holds instance ``n`` at ``2n`` and its
    conjugate at ``2n + 1``.
    """
    union: dict = {}
    slots = []
    for e in exprs:
        pick = []
        for fld, indices, derivs, conj in _plan(e)[1]:
            fdef = FIELDS[fld]
            if not fdef.primary:
                fld, conj = fdef.partner, not conj
            pick.append(2 * union.setdefault((fld, indices, derivs), len(union)) + conj)
        slots.append(tuple(pick))
    return tuple(FIELDS[fld].real for fld, _, _ in union), tuple(slots)


def draw(layout, seed: int) -> list:
    """Draw each instance of a :func:`compile_layout` layout once, in its
    order, from ``random.Random(seed)``: a real Gaussian for a real field,
    a complex one otherwise.  Returns one assignment per expression, whose
    ``values(keys)`` reads that expression's values by position."""
    reals, slots = layout
    gauss = random.Random(seed).gauss
    drawn = []
    for real in reals:
        got = complex(gauss(0.0, 1.0), 0.0 if real else gauss(0.0, 1.0))
        drawn += got, got.conjugate()
    return [_Drawn(drawn, pick) for pick in slots]


class _Drawn:
    """One expression's view of a shared draw."""

    __slots__ = ("drawn", "pick")

    def __init__(self, drawn, pick):
        self.drawn, self.pick = drawn, pick

    def values(self, keys) -> list:
        return [self.drawn[i] for i in self.pick]


def eval_expression(e: Expression, assignment, params: dict | None = None) -> complex:
    """Evaluate the scalar polynomial on concrete field values at j = 1.

    ``assignment`` is any object whose ``values(keys)`` returns the value
    of each plan key ``(field, indices, derivs, conj)``, in order, such as
    a view from :func:`draw`; an expression with a free index, or a
    parameter missing from ``params``, raises
    :class:`MissingAssignmentError`.  Callers that need one j-grade
    evaluate the parts of :func:`~ewverify.fields.j_decompose`.

    The expression is compiled once into a plan, kept in a bounded memo.
    Each call fetches every distinct field instance in one
    ``assignment.values(keys)`` lookup, in first-access order, so a lazy
    per-instance assignment draws as a term-by-term walk would.  The
    products (unrolled for 2, 3 and 4 factors, left to right) and the sum
    then run in the walk's float order, so the result is bit-identical to
    it.
    """
    params = params or {}
    terms, keys = _plan(e)
    values = assignment.values(keys)
    total = 0j
    for base, monomial, combos in terms:
        for name, exp in monomial:
            if name not in params:
                raise MissingAssignmentError(f"no value for parameter {name}")
            base *= float(params[name]) ** exp
        arity = len(combos[0])
        if arity == 2:
            for a, b in combos:
                total += base * values[a] * values[b]
        elif arity == 3:
            for a, b, c in combos:
                total += base * values[a] * values[b] * values[c]
        elif arity == 4:
            for a, b, c, d in combos:
                total += base * values[a] * values[b] * values[c] * values[d]
        else:
            for slots in combos:
                prod = base
                for s in slots:
                    prod *= values[s]
                total += prod
    return total


# ``equals``, its result and the ``model.equals`` re-import stay only because
# the benchmark's tracer hooks ``numeric.equals`` by name and reads
# ``decision_path``; they go with the benchmark change of ROADMAP item 1.

class EqualsResult(namedtuple("EqualsResult", "equal decision_path witness",
                              defaults=(None,))):
    """``decision_path`` is always "exact-symbolic"."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return self.equal


def equals(a: Expression, b: Expression) -> EqualsResult:
    """Decide a == b by their canonical difference; a mismatch's witness is
    the text of ``a - b``, cut as a report's witness is."""
    found = witness(a - b)
    return EqualsResult(not found, "exact-symbolic", found[0] if found else None)
