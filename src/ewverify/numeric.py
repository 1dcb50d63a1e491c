"""Randomized numeric evaluation of field expressions.

The scaling sweep evaluates the Lagrangian's j-grade parts on random field
values.  No check decides an identity here any more: the canonical form
settles them all, with s = sqrt(g^2+gp^2) carried as a symbol where it is
irrational.  The equality oracle :func:`equals` (``TRIALS`` = 20 seeded
trials, relative tolerance ``REL_TOL`` = 1e-9 per j-grade) stays only
because the benchmark's tracer hooks it by name.

Summed index pairs expand over a 4-dimensional index range; contraction is
plain pairing with no metric signs.  Conjugate field instances always
receive the conjugate value of their partners.

Each expression is compiled once per free-index binding into a plan: per
term a base coefficient, per index combination a tuple of slots, and the
slots' field instances in first-access order, derivative tags sorted
(derivatives commute).  An evaluation fetches every instance in one
batched ``values(keys)`` lookup, in that order, then runs the products
(unrolled, left to right, for 2 to 4 factors) and the sum in term-by-term
float order, so a lazy :class:`FieldSample` draws, and the result rounds,
exactly as a walk over every combination would.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass

from .fields import FIELDS, Expression, j_decompose

__all__ = [
    "DIMENSION",
    "EqualsResult",
    "FieldSample",
    "MissingAssignmentError",
    "assignment_from_components",
    "equals",
    "eval_expression",
]

DIMENSION = 4
TRIALS = 20
REL_TOL = 1e-9

SQRT2 = math.sqrt(2.0)


class MissingAssignmentError(KeyError):
    """An explicit assignment lacks a required field instance."""


class FieldSample:
    """Deterministic random field values, drawn lazily per instance key.

    Real fields get real Gaussian draws, complex fields complex ones, and
    the value of a conjugate-partner field is forced to the conjugate of
    its partner's value.  :meth:`values` takes plan keys, whose derivative
    tags are sorted, and draws unseen instances in key order.
    """

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        self._values: dict = {}

    def value(self, fld: str, indices, derivs, conj: bool) -> complex:
        return self.values(((fld, tuple(indices), tuple(sorted(derivs)), conj),))[0]

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

    def value(self, fld, indices, derivs, conj):
        return self.values(((fld, tuple(indices), tuple(sorted(derivs)), conj),))[0]

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
def _plan(e: Expression, binding: tuple) -> tuple:
    """Compile ``e`` with its free indices bound by ``binding``.

    Returns ``(terms, keys)``: per term its base ``complex(coeff) *
    sqrt(2)**r2``, its parameter monomial and, per summed-index
    combination, a tuple of slots into ``keys``; ``keys`` holds each
    distinct ``(field, indices, derivs, conj)`` once, in first-access order,
    with ``derivs`` sorted.
    """
    bound = dict(binding)
    slots: dict = {}
    terms = []
    for t in e.terms:
        counts = t.index_counts()
        dummies = sorted(n for n, c in counts.items() if c == 2)
        missing = [n for n, c in counts.items() if c == 1 and n not in bound]
        if missing:
            raise MissingAssignmentError(f"free index {missing[0]} has no value")
        combos = []
        for combo in itertools.product(range(DIMENSION), repeat=len(dummies)):
            concrete = {**bound, **dict(zip(dummies, combo))}
            combos.append(tuple(
                slots.setdefault((f.field,
                                  tuple(concrete[i] for i in f.indices),
                                  tuple(sorted(concrete[i] for i in f.derivs)),
                                  f.conj), len(slots))
                for f in t.factors
            ))
        terms.append((complex(t.coeff) * (SQRT2**t.r2), t.params, tuple(combos)))
    return tuple(terms), tuple(slots)


def eval_expression(
    e: Expression,
    assignment,
    params: dict | None = None,
    free_values: dict | None = None,
) -> complex:
    """Evaluate the polynomial on concrete field values at j = 1.

    ``assignment`` is a :class:`FieldSample` or an explicit dict-backed
    assignment; ``free_values`` fixes any free indices to concrete values
    in ``range(4)``.  Callers that need one j-grade evaluate the parts of
    :func:`~ewverify.fields.j_decompose`.

    The expression is compiled once per free-index binding into a plan,
    kept in a bounded memo.  Each call fetches every distinct field
    instance in one ``assignment.values(keys)`` lookup, in first-access
    order, so a lazy :class:`FieldSample` draws as a term-by-term walk
    would; the products (unrolled for 2, 3 and 4 factors, left to right)
    and the sum then run in the walk's float order, so the result is
    bit-identical to it.
    """
    if isinstance(assignment, dict):
        assignment = _DictAssignment(assignment)
    params = params or {}
    terms, keys = _plan(e, tuple(sorted((free_values or {}).items())))
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


@dataclass(frozen=True)
class EqualsResult:
    equal: bool
    decision_path: str  # "exact-symbolic" | "numeric-oracle"
    max_rel_error: float
    witness: str | None = None

    def __bool__(self) -> bool:
        return self.equal


def _trial_params(rng: random.Random, names) -> dict:
    return {n: rng.uniform(0.5, 2.0) for n in names}


def equals(a: Expression, b: Expression, seed: int) -> EqualsResult:
    """Decide a == b: canonical difference first, numeric oracle as fallback.

    The numeric path compares each j-grade separately over ``TRIALS`` seeded
    draws, so agreement is grading-aware rather than incidental at one j value.
    """
    diff = a - b
    if diff.is_zero():
        return EqualsResult(True, "exact-symbolic", 0.0)

    parts_diff = j_decompose(diff)
    parts_a = j_decompose(a)
    parts_b = j_decompose(b)
    param_names = {n for t in diff.terms for n, _ in t.params}
    param_names |= {n for e in (a, b) for t in e.terms for n, _ in t.params}
    frees = diff.free_indices()
    worst = 0.0
    witness = None
    for trial in range(TRIALS):
        rng = random.Random(f"{seed}:{trial}")
        sample = FieldSample(rng.randrange(2**32))
        params = _trial_params(rng, sorted(param_names))
        free_values = {n: rng.randrange(DIMENSION) for n in sorted(frees)}
        for grade, part in parts_diff.items():
            va = eval_expression(parts_a.get(grade, Expression.zero()),
                                 sample, params, free_values)
            vb = eval_expression(parts_b.get(grade, Expression.zero()),
                                 sample, params, free_values)
            vd = eval_expression(part, sample, params, free_values)
            scale = max(abs(va), abs(vb), 1e-30)
            rel = abs(vd) / scale
            if rel > worst:
                worst = rel
                witness = (
                    f"grade {grade}, trial {trial}: |diff|={abs(vd):.3e}, "
                    f"scale={scale:.3e}"
                )
    equal = worst <= REL_TOL
    return EqualsResult(equal, "numeric-oracle", worst, None if equal else witness)
