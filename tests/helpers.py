"""Shared test utilities: random canonical expressions for round-trip and
normalization property tests, the formal derivative (``derive``), the
rename-then-sort reference of the canonical form, the build-every-product
references of substitution, variation and the group normal form, the group
normal form in one mode and its reduce-first reference, exact points and
concrete elements of the group SU(2;j), entrywise matrix operations, model
configs and a config file read alone, the lazy and explicit field
assignments, the term-by-term reference of numeric evaluation, and the
reader of printed expressions (``parse`` and ``ParseError``), which tests
write their expressions in."""

from __future__ import annotations

import itertools
import math
import random
import re
from collections import Counter
from fractions import Fraction

from ewverify import ComplexRational, Expression, Mat2, MissingAssignmentError, ModelConfig
from ewverify.cli import _config_values, _model_config
from ewverify.contraction import CR_ONE
from ewverify.fields import (
    DUMMY_NAMES, FIELDS, PARAM_NAMES, ArityError, FieldFactor, Term, _leibniz, _product,
    _renamed_replacement, const, field, group_normal_form_j, jpow, reduce_mode, substitute,
)
from ewverify.matrices import symbolic_element
from ewverify.numeric import DIMENSION, SQRT2

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


def derive(e: Expression, idx: str) -> Expression:
    """The formal derivative d[idx] of ``e``, by the Leibniz rule."""
    return Expression.build(_leibniz(e.terms, idx))


# The kernel operations with every product built: each piece is a built
# one-term Expression multiplied with ``*`` by a built rule body.  The
# references that the unbuilt products of ``substitute``,
# ``first_order_variation`` and ``group_normal_form`` match.

def reference_substitute(e: Expression, rules) -> Expression:
    raw = []
    for t in e.terms:
        kept = tuple(f for f in t.factors if f.field not in rules)
        piece = Expression.build([Term(t.coeff, t.jdeg, t.params, t.r2, kept)])
        for f in t.factors:
            if f.field in rules:
                piece = piece * Expression.build(_renamed_replacement(rules[f.field], f))
        raw.extend(piece.terms)
    return Expression.build(raw)


def reference_first_order_variation(e: Expression, rules) -> Expression:
    raw = []
    for t in e.terms:
        for p, f in enumerate(t.factors):
            rule = rules.get(f.field)
            if rule is None or rule.is_zero():
                continue
            rest = Expression.build([Term(
                t.coeff, t.jdeg, t.params, t.r2, t.factors[:p] + t.factors[p + 1:],
            )])
            raw.extend((rest * Expression.build(_renamed_replacement(rule, f))).terms)
    return Expression.build(raw)


def group_normal_form(e: Expression, mode) -> Expression:
    """Normal form of ``e`` on SU(2;j), reduced in ``mode``: the checks'
    route, one form with j kept and then the mode."""
    return reduce_mode(group_normal_form_j(e), mode)


def reduce_first_group_normal_form(e: Expression, mode) -> Expression:
    """The group normal form with each raw product reduced in ``mode``
    before the one build, the reference that the j-kept form, reduced
    after its build, must match."""
    relations = {  # 1 - j^2 b conj(b), as raw terms
        b: (Term(CR_ONE), Term(-CR_ONE, 2, factors=(FieldFactor(b), FieldFactor(b, conj=True))))
        for b in ("beta", "beta2")}
    raw = []
    for t in e.terms:
        factors = list(t.factors)
        piece = [Term(t.coeff, t.jdeg, t.params, t.r2)]
        for a, b in (("alpha", "beta"), ("alpha2", "beta2")):
            plain, conj = FieldFactor(a), FieldFactor(a, conj=True)
            for _ in range(min(factors.count(plain), factors.count(conj))):
                factors.remove(plain)
                factors.remove(conj)
                piece = _product(piece, relations[b])
        raw.extend(_product(piece, (Term(CR_ONE, factors=tuple(factors)),)))
    if mode.is_one:
        raw = [Term(t.coeff, 0, t.params, t.r2, t.factors) for t in raw]
    elif mode.is_nilpotent:
        raw = [t for t in raw if t.jdeg < 2]
    else:
        raw = [Term(t.coeff * ComplexRational(mode.value**t.jdeg), 0, t.params, t.r2,
                    t.factors) for t in raw]
    return Expression.build(raw)


def reference_group_normal_form(e: Expression, mode) -> Expression:
    raw = []
    for t in e.terms:
        factors = list(t.factors)
        piece = Expression.build([Term(t.coeff, t.jdeg, t.params, t.r2)])
        for a, b in (("alpha", "beta"), ("alpha2", "beta2")):
            plain, conj = FieldFactor(a), FieldFactor(a, conj=True)
            for _ in range(min(factors.count(plain), factors.count(conj))):
                factors.remove(plain)
                factors.remove(conj)
                piece = piece * (1 - jpow(2) * field(b) * field(b, conj=True))
        raw.extend((piece * Expression.build([Term(CR_ONE, factors=tuple(factors))])).terms)
    return reduce_mode(Expression.build(raw), mode)


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


class NotUnimodularError(ValueError):
    """Raised when |alpha|^2 + j^2 |beta|^2 does not reduce to 1."""


def mat_at(m: Mat2, values: dict, mode) -> Mat2:
    """Each named symbol of ``m`` replaced by the constant it maps to, every
    entry reduced in ``mode``."""
    rules = {name: const(v) for name, v in values.items()}
    return Mat2([[reduce_mode(substitute(e, rules), mode) for e in r] for r in m.rows])


def mat_reduce(m: Mat2, mode) -> Mat2:
    return Mat2([[reduce_mode(e, mode) for e in r] for r in m.rows])


def mat_sub(a: Mat2, b: Mat2) -> Mat2:
    return Mat2([[x - y for x, y in zip(r, s)] for r, s in zip(a.rows, b.rows)])


def mat_is_zero(m: Mat2) -> bool:
    return not any(x for r in m.rows for x in r)


def su2_element(alpha, beta, mode) -> Mat2:
    """Group element [[alpha, j beta], [-j conj(beta), conj(alpha)]] at the
    numbers ``alpha`` and ``beta``.

    Exact modes only (j = 1 or j = iota): validates the determinant
    condition |alpha|^2 + j^2 |beta|^2 = 1 exactly and raises
    ``ValueError`` for a numeric mode.
    """
    if mode.kind == "numeric":
        raise ValueError("su2_element takes an exact mode, not a numeric j")
    omega = mat_at(symbolic_element("alpha", "beta"), {"alpha": alpha, "beta": beta}, mode)
    det = reduce_mode(omega.det(), mode)
    if det != const(1):
        raise NotUnimodularError(f"determinant condition fails: {det} != 1")
    return omega


PYTHAGOREAN_TRIPLES = ((3, 4, 5), (5, 12, 13), (8, 15, 17))


def random_pythagorean_config(rng: random.Random, **overrides) -> ModelConfig:
    """Random exact-mode configuration: (g, gp, sqrt(g^2+gp^2)) all rational."""
    while True:
        m = rng.randint(2, 7)
        n = rng.randint(1, m - 1)
        if (m - n) % 2 == 1 and math.gcd(m, n) == 1:
            break
    scale = Fraction(rng.randint(1, 8), rng.randint(1, 8))
    legs = [m * m - n * n, 2 * m * n]
    rng.shuffle(legs)
    params = dict(
        g=scale * legs[0],
        gp=scale * legs[1],
        R=Fraction(rng.randint(1, 9), rng.randint(1, 4)),
        seed=rng.randrange(2**31),
    )
    params.update(overrides)
    return ModelConfig(**params)


def load_config(path):
    """A JSON config file read alone, by the CLI's rules: the ModelConfig it
    sets, and the mode its ``jmode`` selects (None without one)."""
    values = _config_values(path)
    mode = values.pop("jmode", None)
    return _model_config(values), mode


class FieldSample:
    """Deterministic random field values, drawn lazily per instance key.

    Real fields get real Gaussian draws, complex fields complex ones, and
    the value of a conjugate-partner field is forced to the conjugate of
    its partner's value.  :meth:`values` takes plan keys
    ``(field, indices, derivs, conj)``, whose derivative tags are sorted,
    and draws unseen instances in key order: the order that
    ``numeric.draw`` must reproduce for a layout.
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


class DictAssignment:
    """Explicit field values, keyed by plan key ``(field, indices, derivs,
    conj)``; a missing key raises ``MissingAssignmentError``."""

    def __init__(self, mapping):
        self.mapping = mapping

    def values(self, keys) -> list:
        try:
            return [complex(self.mapping[key]) for key in keys]
        except KeyError as missing:
            raise MissingAssignmentError(f"no value assigned for {missing.args[0]}") from None


def assignment_from_components(components: dict) -> DictAssignment:
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
    return DictAssignment(mapping)


def reference_eval(e: Expression, assignment, params=None) -> complex:
    """Term-by-term evaluation of a scalar ``e``: per index combination a
    fresh index binding and one ``assignment.values((key,))`` lookup per
    factor, in walk order.  The reference that ``eval_expression`` must match
    bit for bit."""
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


# --- the reader of printed expressions -------------------------------------
#
# ``parse`` reads the text that ``ewverify.parser.to_text`` prints, and more:
#
#     expr       := ['+'|'-'] term (('+'|'-') term)*
#     term       := factor factor ...          (juxtaposition is multiplication)
#     factor     := atom ['^' INT]
#     atom       := NUMBER | 'i' | 'j' | 'sqrt2' | 'g' | 'gp' | 'R' | 's'
#                 | derivfield | 'conj' '(' derivfield ')'
#     derivfield := ('d' '[' INDEX ']')* NAME ['[' INDEX (',' INDEX)* ']']
#     NUMBER     := INT ['/' INT]
#
# Field names are identifiers; a trailing '+' or '-' belongs to the name only
# when immediately followed by '[' (so ``W+[mu]`` is a field application while
# ``a - b`` stays a difference).  A power is a positive integer of at most 99.
# The digits of INT are decimal digits (Unicode category Nd): '١' reads as 1,
# while a digit that is not decimal, such as '²', is an unexpected character.
# ``parse(to_text(e)) == e`` for every expression ``e``.

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
