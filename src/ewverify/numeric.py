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
in that order, then runs the products (unrolled, left to right, for 2 to 4
factors) and the sum in term-by-term float order, so a lazy
:class:`FieldSample` draws, and the result rounds, exactly as a walk over
every combination would.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass

from .fields import FIELDS, Expression
from .report import witness

__all__ = [
    "DIMENSION",
    "FieldSample",
    "MissingAssignmentError",
    "assignment_from_components",
    "eval_expression",
]

DIMENSION = 4

SQRT2 = math.sqrt(2.0)


class MissingAssignmentError(KeyError):
    """An explicit assignment lacks a required field instance."""


class FieldSample:
    """Deterministic random field values, drawn lazily per instance key.

    Real fields get real Gaussian draws, complex fields complex ones, and
    the value of a conjugate-partner field is forced to the conjugate of
    its partner's value.  :meth:`values` takes plan keys
    ``(field, indices, derivs, conj)``, whose derivative tags are sorted,
    and draws unseen instances in key order.
    """

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        self._values: dict = {}

    def values(self, keys) -> list:
        drawn = self._values
        gauss = self._rng.gauss
        out = []
        for fld, indices, derivs, conj in keys:
            fdef = FIELDS[fld]
            if not fdef.primary:  # mirrors its partner; a conjugate pair is complex
                fld, conj = fdef.partner, not conj
            key = (fld, indices, derivs)
            got = drawn.get(key)
            if got is None:
                got = complex(gauss(0.0, 1.0), 0.0 if fdef.real else gauss(0.0, 1.0))
                drawn[key] = got
            out.append(got.conjugate() if conj else got)
        return out


class _DictAssignment:
    def __init__(self, mapping):
        self.mapping = mapping

    def values(self, keys) -> list:
        try:
            return [complex(self.mapping[key]) for key in keys]
        except KeyError as missing:
            raise MissingAssignmentError(f"no value assigned for {missing.args[0]}") from None


def assignment_from_components(components: dict) -> _DictAssignment:
    """Build an explicit assignment from per-field component vectors.

    ``components`` maps a field name to a scalar (arity 0) or a length-4
    sequence of component values (arity 1); derivative instances are not
    covered and must be added by hand if needed.
    """
    mapping = {}
    for fld, values in components.items():
        fdef = FIELDS[fld]
        if fdef.arity == 0:
            mapping[(fld, (), (), False)] = complex(values)
            mapping[(fld, (), (), True)] = complex(values).conjugate()
        else:
            for mu, v in enumerate(values):
                mapping[(fld, (mu,), (), False)] = complex(v)
                mapping[(fld, (mu,), (), True)] = complex(v).conjugate()
    return _DictAssignment(mapping)


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


def eval_expression(e: Expression, assignment, params: dict | None = None) -> complex:
    """Evaluate the scalar polynomial on concrete field values at j = 1.

    ``assignment`` is a :class:`FieldSample` or an explicit dict-backed
    assignment; an expression with a free index raises
    :class:`MissingAssignmentError`.  Callers that need one j-grade
    evaluate the parts of :func:`~ewverify.fields.j_decompose`.

    The expression is compiled once into a plan, kept in a bounded memo.
    Each call fetches every distinct field instance in one
    ``assignment.values(keys)`` lookup, in first-access order, so a lazy
    :class:`FieldSample` draws as a term-by-term walk would; the products
    (unrolled for 2, 3 and 4 factors, left to right) and the sum then run
    in the walk's float order, so the result is bit-identical to it.
    """
    if isinstance(assignment, dict):
        assignment = _DictAssignment(assignment)
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

@dataclass(frozen=True)
class EqualsResult:
    equal: bool
    decision_path: str  # always "exact-symbolic"
    witness: str | None = None

    def __bool__(self) -> bool:
        return self.equal


def equals(a: Expression, b: Expression) -> EqualsResult:
    """Decide a == b by their canonical difference; a mismatch's witness is
    the text of ``a - b``, cut as a report's witness is."""
    found = witness(a - b)
    return EqualsResult(not found, "exact-symbolic", found[0] if found else None)
