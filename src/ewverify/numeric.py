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
lists their instances once, in first-access order, part after part, and
:func:`draw` draws a sample in that order.  Its Gaussians are
``Random.gauss``'s Box-Muller stream inlined, bit for bit: one
``random.Random(seed)`` per sample and two ``random()`` calls per pair of
Gaussians.  Each instance's value, and the conjugate of each instance a
key reads conjugated, is built once per sample.
"""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple
from math import cos, log, pi, sin, sqrt
from random import Random

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

SQRT2 = sqrt(2.0)
TWOPI = 2.0 * pi  # random.gauss's constant


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

    Returns ``(at, conjugated, picks, pairs)``.  The distinct field
    instances of their plans, in first-access order and with mirror fields
    resolved, take one Gaussian if real and two (real part, then imaginary
    part) otherwise, in that order, from ``pairs`` Box-Muller pairs.
    :func:`draw` lists 0.0 (a real instance's imaginary part) and then the
    Gaussians; ``at`` holds each instance's real and imaginary positions
    in that list, and ``conjugated`` those of the instances that some key
    reads conjugated.  A sample's values are one per instance, in order,
    then one per conjugated instance; ``picks`` holds, per expression, the
    value of each of its plan's keys by position.
    """
    union: dict = {}
    keyed = []
    for e in exprs:
        pick = []
        for fld, indices, derivs, conj in _plan(e)[1]:
            fdef = FIELDS[fld]
            if not fdef.primary:
                fld, conj = fdef.partner, not conj
            pick.append((union.setdefault((fld, indices, derivs), len(union)), conj))
        keyed.append(pick)
    at, n = [], 1  # drawn[0] is 0.0
    for fld, _, _ in union:
        real = FIELDS[fld].real
        at.append((n, 0 if real else n + 1))
        n += 1 if real else 2
    conj_of: dict = {}
    picks = tuple(tuple(len(at) + conj_of.setdefault(k, len(conj_of)) if conj else k
                        for k, conj in pick) for pick in keyed)
    return tuple(at), tuple(at[k] for k in conj_of), picks, n // 2  # ceil((n - 1) / 2)


def draw(layout, seed: int) -> list:
    """Draw each instance of a :func:`compile_layout` layout once, in its
    order, from ``random.Random(seed)``: a real Gaussian for a real field,
    a complex one otherwise, each as ``gauss(0.0, 1.0)`` draws it, bit for
    bit, with its Box-Muller step inlined (``0.0 + z`` turns -0.0 into 0.0
    as ``mu + z * sigma`` does; an odd count's last sine goes unread).
    Returns one assignment per expression, whose ``values(keys)`` returns
    that expression's values in its plan's key order."""
    at, conjugated, picks, pairs = layout
    random = Random(seed).random
    drawn = [0.0]
    push = drawn.append
    for _ in range(pairs):
        x2pi = random() * TWOPI
        g2rad = sqrt(-2.0 * log(1.0 - random()))
        push(0.0 + cos(x2pi) * g2rad)
        push(0.0 + sin(x2pi) * g2rad)
    values = [complex(drawn[re], drawn[im]) for re, im in at]
    values += [complex(drawn[re], -drawn[im]) for re, im in conjugated]
    return [_Drawn([values[k] for k in pick]) for pick in picks]


class _Drawn:
    """One expression's values from a shared draw, in its plan's key order."""

    __slots__ = ("got",)

    def __init__(self, got):
        self.got = got

    def values(self, keys) -> list:
        return self.got


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
