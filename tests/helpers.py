"""Shared test utilities: random canonical expressions for round-trip and
normalization property tests, the rename-then-sort reference of the
canonical form, the build-every-product references of substitution,
variation and the group normal form, exact points of the group SU(2;j),
and the term-by-term reference of numeric evaluation."""

from __future__ import annotations

import itertools
import random
from collections import Counter
from fractions import Fraction

from ewverify import ComplexRational, Expression, MissingAssignmentError
from ewverify.contraction import CR_ONE
from ewverify.fields import (
    DUMMY_NAMES, FIELDS, FieldFactor, Term, _prepare_replacement, field, jpow, reduce_mode,
)
from ewverify.numeric import DIMENSION, SQRT2, _DictAssignment

VECTOR_FIELDS = ("A1", "A2", "A3", "B", "W1", "W2", "W3", "Z", "Aem", "Wp", "Wm")
SCALAR_FIELDS = ("rho", "omega", "eps1", "eps2", "eps3", "phi1", "phi2")
COMPLEX_SCALARS = ("phi1", "phi2")


def _random_coeff(rng: random.Random) -> ComplexRational:
    re = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    im = Fraction(rng.randint(-3, 3)) if rng.random() < 0.3 else Fraction(0)
    if re == 0 and im == 0:
        re = Fraction(1)
    return ComplexRational(re, im)


def random_term(rng: random.Random, scalar: bool) -> Term:
    """One random term with a valid index pattern.

    ``scalar`` pairs every index slot; otherwise leftover slots become free
    indices with distinct names.
    """
    nfac = rng.randint(1, 3)
    specs = []
    slots = 0
    for _ in range(nfac):
        if rng.random() < 0.35:
            name = rng.choice(SCALAR_FIELDS)
            nderiv = rng.randint(0, 2)
            specs.append((name, 0, nderiv))
            slots += nderiv
        else:
            name = rng.choice(VECTOR_FIELDS)
            nderiv = rng.randint(0, 1)
            specs.append((name, 1, nderiv))
            slots += 1 + nderiv
    if scalar and slots % 2:
        specs.append(("B", 1, 0))
        slots += 1
    names = []
    pool = iter(f"q{k}" for k in range(slots))
    while len(names) < slots:
        if scalar or (slots - len(names) >= 2 and rng.random() < 0.6):
            shared = next(pool)
            names.extend([shared, shared])
        else:
            names.append(next(pool))
    rng.shuffle(names)
    it = iter(names)
    factors = []
    for name, arity, nderiv in specs:
        indices = tuple(next(it) for _ in range(arity))
        derivs = tuple(next(it) for _ in range(nderiv))
        conj = name in COMPLEX_SCALARS and rng.random() < 0.4
        factors.append(FieldFactor(name, indices, derivs, conj))
    params = tuple(
        (n, rng.randint(1, 2)) for n in ("g", "gp", "R") if rng.random() < 0.2
    )
    return Term(
        coeff=_random_coeff(rng),
        jdeg=rng.choice((0, 0, 0, 1, 2, 3, 4)),
        params=params,
        r2=rng.choice((0, 0, 0, 1)),
        factors=tuple(factors),
    )


def random_expression(rng: random.Random) -> Expression:
    """Random normalized expression; mostly scalars, some free-index one-liners."""
    if rng.random() < 0.3:
        return Expression.build([random_term(rng, scalar=False)])
    nterms = rng.randint(1, 4)
    return Expression.build([random_term(rng, scalar=True) for _ in range(nterms)])


def reference_canonical_factors(factors) -> tuple:
    """The canonical factors and free indices of one term, the slow way:
    resolve the conjugation flags, rename validated factors under every
    relabeling of the summed indices, sort each result and keep the least.
    The reference that ``fields._canonical_factors`` must match."""
    resolved = []
    for f in factors:
        fdef = FIELDS[f.field]
        if f.conj and (fdef.real or fdef.partner):
            f = FieldFactor(fdef.partner or f.field, f.indices, f.derivs, False)
        resolved.append(f)
    counts = Counter(n for f in resolved for n in f.names())
    free = frozenset(n for n, c in counts.items() if c == 1)
    dummies = sorted(n for n, c in counts.items() if c == 2)
    pool = [n for n in DUMMY_NAMES if n not in free]
    pool += [f"x{k}" for k in range(len(dummies)) if f"x{k}" not in free]
    best = None
    for perm in itertools.permutations(dummies):
        mapping = dict(zip(perm, pool))
        renamed = sorted(
            (FieldFactor(f.field, tuple(mapping.get(i, i) for i in f.indices),
                         tuple(mapping.get(i, i) for i in f.derivs), f.conj)
             for f in resolved),
            key=FieldFactor.sort_key,
        )
        if best is None or [f.sort_key() for f in renamed] < [f.sort_key() for f in best]:
            best = renamed
    return tuple(best), free


# The kernel operations with every product built: each piece is a one-term
# Expression multiplied with ``*``.  The references that the unbuilt products
# of ``substitute``, ``first_order_variation`` and ``group_normal_form`` match.

def reference_substitute(e: Expression, rules) -> Expression:
    raw = []
    for t in e.terms:
        kept = tuple(f for f in t.factors if f.field not in rules)
        piece = Expression((Term(t.coeff, t.jdeg, t.params, t.r2, kept),))
        for f in t.factors:
            if f.field in rules:
                piece = piece * _prepare_replacement(rules[f.field], f)
        raw.extend(piece.terms)
    return Expression.build(raw)


def reference_first_order_variation(e: Expression, rules) -> Expression:
    raw = []
    for t in e.terms:
        for p, f in enumerate(t.factors):
            rule = rules.get(f.field)
            if rule is None or rule.is_zero():
                continue
            rest = Expression((Term(
                t.coeff, t.jdeg, t.params, t.r2, t.factors[:p] + t.factors[p + 1:],
            ),))
            raw.extend((rest * _prepare_replacement(rule, f)).terms)
    return Expression.build(raw)


def reference_group_normal_form(e: Expression, mode) -> Expression:
    raw = []
    for t in e.terms:
        factors = list(t.factors)
        piece = Expression((Term(t.coeff, t.jdeg, t.params, t.r2),))
        for a, b in (("alpha", "beta"), ("alpha2", "beta2")):
            plain, conj = FieldFactor(a), FieldFactor(a, conj=True)
            for _ in range(min(factors.count(plain), factors.count(conj))):
                factors.remove(plain)
                factors.remove(conj)
                piece = piece * (1 - jpow(2) * field(b) * field(b, conj=True))
        raw.extend((piece * Expression((Term(CR_ONE, factors=tuple(factors)),))).terms)
    return reduce_mode(Expression(tuple(raw)), mode)


def rational_circle_point(rng: random.Random) -> tuple[Fraction, Fraction]:
    """Exact rational (cos, sin) on the unit circle via the tangent half-angle map."""
    t = Fraction(rng.randint(-12, 12), rng.randint(1, 12))
    d = 1 + t * t
    return (1 - t * t) / d, 2 * t / d


def random_unit_complex(rng: random.Random) -> ComplexRational:
    c, s = rational_circle_point(rng)
    return ComplexRational(c, s)


def exact_group_point(rng: random.Random, mode) -> tuple[ComplexRational, ComplexRational]:
    """(alpha, beta) with |alpha|^2 + j^2 |beta|^2 = 1 exactly, at j=1 or
    j=iota.  At j=iota only |alpha| = 1 is required, and beta is drawn far
    outside any small box (numerators up to 10^6)."""
    if mode.is_nilpotent:
        def big():
            return Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 9))

        return random_unit_complex(rng), ComplexRational(big(), big())
    c, s = rational_circle_point(rng)
    return (ComplexRational(c) * random_unit_complex(rng),
            ComplexRational(s) * random_unit_complex(rng))


def reference_eval(e: Expression, assignment, params=None) -> complex:
    """Term-by-term evaluation of a scalar ``e``: per index combination a
    fresh index binding and one ``assignment.values((key,))`` lookup per
    factor, in walk order.  The reference that ``eval_expression`` must match
    bit for bit."""
    if isinstance(assignment, dict):
        assignment = _DictAssignment(assignment)
    params = params or {}
    total = 0j
    for t in e.terms:
        base = complex(t.coeff) * (SQRT2**t.r2)
        for name, exp in t.params:
            if name not in params:
                raise MissingAssignmentError(f"no value for parameter {name}")
            base *= float(params[name]) ** exp
        counts = t.index_counts()
        dummies = sorted(n for n, c in counts.items() if c == 2)
        frees = [n for n, c in counts.items() if c == 1]
        if frees:
            raise MissingAssignmentError(f"free index {frees[0]} has no value")
        for combo in itertools.product(range(DIMENSION), repeat=len(dummies)):
            concrete = dict(zip(dummies, combo))
            prod = base
            for f in t.factors:
                prod *= assignment.values(((
                    f.field,
                    tuple(concrete[i] for i in f.indices),
                    tuple(sorted(concrete[i] for i in f.derivs)),
                    f.conj,
                ),))[0]
            total += prod
    return total
