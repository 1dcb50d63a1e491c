"""Polynomial algebra over classical field symbols with abstract Lorentz indices.

An :class:`Expression` is a canonical sum of :class:`Term` objects.  Each
term carries an exact complex-rational coefficient, a j-degree (the
contraction grading), a monomial in the parameters {g, gp, R, s}, an
optional factor sqrt(2) (exponent 0 or 1; pairs fold into the coefficient),
and a commuting multiset of field factors.  A field factor is a field
symbol with its Lorentz indices, outer-derivative tags, and a conjugation
flag.  :func:`contract` substitutes X -> j X for every field of grade 1 by
adding a term's grades to its j-degree, so the model is written at j = 1;
:func:`divide_by_j` is the partial division by j, defined only when every
term carries j.

Index discipline: within one term an index name occurs exactly once (free)
or exactly twice (summed).  Summed indices are renamed canonically by
taking the lexicographic minimum over all relabelings, so structural
equality of normalized expressions is equality up to dummy relabeling.

Every operation collects the raw terms of its result, products through the
one private ``_product``, and builds them once; only :func:`euler_lagrange`
also builds each rest it derives, through :func:`derive`.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction

from .contraction import CR_I, CR_ONE, ComplexRational, DivisionUndefinedError, JMode

__all__ = [
    "ArityError",
    "Expression",
    "FieldDef",
    "FieldFactor",
    "IndexConflictError",
    "Term",
    "UnknownFieldError",
    "conjugate",
    "const",
    "contract",
    "derive",
    "divide_by_j",
    "euler_lagrange",
    "field",
    "first_order_variation",
    "group_normal_form",
    "imag",
    "instantiate_params",
    "inv_sqrt2",
    "j_decompose",
    "jpow",
    "param",
    "reduce_mode",
    "substitute",
]


class IndexConflictError(ValueError):
    """An index name is used more than twice within one term."""


class ArityError(ValueError):
    """A field carries the wrong number of indices."""


class UnknownFieldError(KeyError):
    """Reference to a field symbol that was never declared."""


@dataclass(frozen=True)
class FieldDef:
    name: str
    arity: int
    real: bool = True
    partner: str | None = None  # conjugate partner field, if distinct
    display: str | None = None
    primary: bool = True  # False: numeric draws derive from the partner's value
    grade: int = 0  # the power of j the field picks up in the contraction

    @property
    def shown(self) -> str:
        return self.display or self.name


FIELDS: dict[str, FieldDef] = {}


def declare_field(name, arity, real=True, partner=None, display=None,
                  primary=True) -> FieldDef:
    fdef = FieldDef(name, arity, real, partner, display, primary)
    FIELDS[name] = fdef
    return fdef


for _v in ("A1", "A2", "A3", "B", "W1", "W2", "W3", "Z", "Aem"):
    declare_field(_v, 1)
declare_field("Wp", 1, real=False, partner="Wm", display="W+")
declare_field("Wm", 1, real=False, partner="Wp", display="W-", primary=False)
for _s in ("rho", "omega", "eps1", "eps2", "eps3"):
    declare_field(_s, 0)
# the matter doublet, and the complex parameters of two symbolic group elements
for _s in ("phi1", "phi2", "alpha", "beta", "alpha2", "beta2"):
    declare_field(_s, 0, real=False)
# Grade 1: the off-diagonal directions of SU(2;j) in each basis (gauge
# fields, gauge and group parameters) and the doublet's fiber component.
for _s in ("A1", "A2", "W1", "W2", "Wp", "Wm", "phi2", "eps1", "eps2", "beta", "beta2"):
    FIELDS[_s] = replace(FIELDS[_s], grade=1)

PARAM_NAMES = ("g", "gp", "R", "s")

# Canonical names handed to summed indices, skipping any that are free.
DUMMY_NAMES = ("mu", "nu", "al", "be", "ga", "de", "ze", "et", "ka", "la", "si", "ta")
HOLE = "_"  # placeholder index in substitution rules


@dataclass(frozen=True, slots=True)
class FieldFactor:
    field: str
    indices: tuple[str, ...] = ()
    derivs: tuple[str, ...] = ()
    conj: bool = False

    def __post_init__(self):
        fdef = FIELDS.get(self.field)
        if fdef is None:
            raise UnknownFieldError(self.field)
        if len(self.indices) != fdef.arity:
            raise ArityError(
                f"{self.field} takes {fdef.arity} index(es), got {len(self.indices)}"
            )
        object.__setattr__(self, "indices", tuple(self.indices))
        object.__setattr__(self, "derivs", tuple(sorted(self.derivs)))

    def rename(self, mapping: dict[str, str]) -> "FieldFactor":
        return _factor(
            self.field,
            tuple(mapping.get(i, i) for i in self.indices),
            tuple(sorted(mapping.get(i, i) for i in self.derivs)),
            self.conj,
        )

    def canonical_conj(self) -> "FieldFactor":
        """Resolve the conjugation flag against the field declaration."""
        if not self.conj:
            return self
        fdef = FIELDS[self.field]
        if fdef.real:
            return _factor(self.field, self.indices, self.derivs, False)
        if fdef.partner is not None:  # a conjugate pair shares its arity
            return _factor(fdef.partner, self.indices, self.derivs, False)
        return self

    def sort_key(self):
        return (self.field, self.conj, self.indices, self.derivs)

    def names(self):
        return itertools.chain(self.indices, self.derivs)


def _factor(field, indices, derivs, conj) -> FieldFactor:
    """A factor built without validation, for a field and arity already
    checked; ``derivs`` must be sorted."""
    f, set_ = object.__new__(FieldFactor), object.__setattr__
    set_(f, "field", field)
    set_(f, "indices", indices)
    set_(f, "derivs", derivs)
    set_(f, "conj", conj)
    return f


@dataclass(frozen=True, slots=True)
class Term:
    coeff: ComplexRational
    jdeg: int = 0
    params: tuple[tuple[str, int], ...] = ()
    r2: int = 0
    factors: tuple[FieldFactor, ...] = ()

    def index_counts(self) -> Counter:
        counts: Counter = Counter()
        for f in self.factors:
            counts.update(f.names())
        return counts

    def free_indices(self) -> frozenset[str]:
        return frozenset(n for n, c in self.index_counts().items() if c == 1)


@functools.lru_cache(maxsize=128)
def _fold_params(params) -> tuple[tuple[str, int], ...]:
    acc: dict[str, int] = {}
    for name, exp in params:
        if name not in PARAM_NAMES:
            raise ValueError(f"unknown parameter symbol {name!r}")
        acc[name] = acc.get(name, 0) + exp
    if any(e < 0 for e in acc.values()):
        raise ValueError("parameter exponents must be non-negative")
    return tuple(sorted((n, e) for n, e in acc.items() if e))


@functools.lru_cache(maxsize=512)
def _canonical_factors(factors: tuple[FieldFactor, ...]) -> tuple:
    """Resolve conjugation flags, sort the factor multiset and relabel summed
    indices canonically; returns the canonical factors, the term's free
    indices and the factors' sort keys.

    The canonical form is the lexicographic minimum over every bijection
    from the term's summed indices to the canonical alphabet, which makes
    structural equality complete for relabeling symmetry.  Each relabeling
    is compared as a tuple of sort keys, and only the least one is turned
    into factors.  Terms here stay small (at most two summed indices in the
    model's Lagrangians), so the factorial sweep is cheap; the memo saves
    the per-call cost on the factor tuples that recur, and a raised error
    is not kept.
    """
    factors = tuple(f.canonical_conj() for f in factors)
    counts: Counter = Counter()
    for f in factors:
        counts.update(f.names())
    over = [n for n, c in counts.items() if c > 2]
    if over:
        raise IndexConflictError(f"index used more than twice: {over[0]}")
    free = frozenset(n for n, c in counts.items() if c == 1)
    dummies = sorted(n for n, c in counts.items() if c == 2)
    if not dummies:
        ordered = sorted(factors, key=FieldFactor.sort_key)
        return tuple(ordered), free, tuple(f.sort_key() for f in ordered)
    if len(dummies) > 7:
        raise IndexConflictError("too many summed indices in one term")
    pool = [n for n in DUMMY_NAMES if n not in free]
    pool += [f"x{k}" for k in range(len(dummies)) if f"x{k}" not in free]
    canon = pool[: len(dummies)]
    best = min(
        tuple(sorted(
            (f.field, f.conj, tuple(m.get(i, i) for i in f.indices),
             tuple(sorted(m.get(i, i) for i in f.derivs)))
            for f in factors
        ))
        for m in (dict(zip(perm, canon)) for perm in itertools.permutations(dummies))
    )
    return tuple(_factor(fd, ix, dv, cj) for fd, cj, ix, dv in best), free, best


class Expression:
    """Canonical sum of terms; immutable, structural equality is semantic."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: tuple[Term, ...] = ()):
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, name, value):
        raise AttributeError("Expression is immutable")

    @classmethod
    def zero(cls) -> "Expression":
        return _EMPTY

    @classmethod
    def build(cls, raw_terms) -> "Expression":
        """Normalize a raw term list: canonicalize, merge, prune, sort.

        The one place where sums are merged: every operation collects the
        raw terms of its result, products through ``_product``, and builds
        once; only :func:`euler_lagrange` also builds, via :func:`derive`.
        """
        merged: dict = {}
        for t in raw_terms:
            if t.coeff.is_zero():
                continue
            coeff = t.coeff
            r2 = t.r2
            if r2 >= 2:  # sqrt(2)^2 = 2 folds into the coefficient
                coeff = coeff * ComplexRational(2 ** (r2 // 2))
                r2 %= 2
            factors, free, fkeys = _canonical_factors(t.factors)
            k = (t.jdeg, r2, _fold_params(t.params), fkeys)  # the term's sort key
            prev = merged.get(k)
            merged[k] = (coeff if prev is None else prev[0] + coeff), factors, free
        # the keys are distinct, so sorting the items orders the terms by key
        live = [(k, v) for k, v in sorted(merged.items()) if not v[0].is_zero()]
        frees = {free for _, (_, _, free) in live}
        if len(frees) > 1:
            raise IndexConflictError(
                f"terms carry different free indices: {sorted(map(sorted, frees))}"
            )
        return cls(tuple(Term(c, k[0], k[2], k[1], fs) for k, (c, fs, _) in live))

    # --- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def free_indices(self) -> frozenset[str]:
        return self.terms[0].free_indices() if self.terms else frozenset()

    def field_symbols(self) -> frozenset[str]:
        return frozenset(f.field for t in self.terms for f in t.factors)

    def j_degrees(self) -> tuple[int, ...]:
        return tuple(sorted({t.jdeg for t in self.terms}))

    # --- ring operations ---------------------------------------------------

    @staticmethod
    def _coerce(value) -> "Expression":
        if isinstance(value, Expression):
            return value
        if isinstance(value, (int, Fraction, ComplexRational)):
            return const(value)
        raise TypeError(f"cannot use {value!r} in expression arithmetic")

    def __add__(self, other) -> "Expression":
        o = self._coerce(other)
        if self.is_zero():
            return o
        if o.is_zero():
            return self
        return Expression.build(self.terms + o.terms)

    __radd__ = __add__

    def __sub__(self, other) -> "Expression":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Expression":
        return self._coerce(other) - self

    def __neg__(self) -> "Expression":
        return Expression(tuple(
            Term(-t.coeff, t.jdeg, t.params, t.r2, t.factors) for t in self.terms
        ))

    def __mul__(self, other) -> "Expression":
        return Expression.build(_product(self.terms, self._coerce(other).terms))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, Expression):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:  # computed on first use, then kept
            h = hash(self.terms)
            object.__setattr__(self, "_hash", h)
            return h

    def conjugate(self) -> "Expression":
        return conjugate(self)

    def __str__(self) -> str:
        from .parser import to_text

        return to_text(self)

    def __repr__(self) -> str:
        return f"<Expression {self.__str__()!r}>"


_EMPTY = Expression(())


def _refresh_dummies(t: Term, tag: str) -> Term:
    """Rename a term's summed indices to ``_<tag>0``, ``_<tag>1``, ..."""
    names = [n for f in t.factors for n in f.names()]
    if len(names) == len(set(names)):
        return t
    dummies = sorted({n for n in names if names.count(n) == 2})
    mapping = {n: f"_{tag}{k}" for k, n in enumerate(dummies)}
    return Term(t.coeff, t.jdeg, t.params, t.r2,
                tuple(f.rename(mapping) for f in t.factors))


def _product(left, right) -> list[Term]:
    """The raw terms of the product of two term lists, raw or built, with
    summed indices renamed apart; products chain without a build between."""
    right = [_refresh_dummies(tb, "R") for tb in right]
    raw = []
    for ta in left:
        ta = _refresh_dummies(ta, "L")
        for tb in right:
            raw.append(Term(ta.coeff * tb.coeff, ta.jdeg + tb.jdeg, ta.params + tb.params,
                            ta.r2 + tb.r2, ta.factors + tb.factors))
    return raw


# --- constructors ----------------------------------------------------------

def field(name, *indices, derivs=(), conj=False) -> Expression:
    return Expression.build(
        [Term(CR_ONE, factors=(FieldFactor(name, tuple(indices), tuple(derivs), conj),))]
    )


def const(value) -> Expression:
    value = ComplexRational.of(value)
    if value.is_zero():
        return _EMPTY
    return Expression((Term(value),))


def imag() -> Expression:
    return const(CR_I)


def param(name, power: int = 1) -> Expression:
    return Expression.build([Term(CR_ONE, params=((name, power),))])


def jpow(power: int = 1) -> Expression:
    """j^power; a j-degree is a non-negative integer."""
    degree = int(power)
    if degree != power:
        raise ValueError(f"j-degree must be an integer, not {power!r}")
    if degree < 0:
        raise ValueError("j-degree must be non-negative")
    return Expression.build([Term(CR_ONE, jdeg=degree)])


def inv_sqrt2() -> Expression:
    # 1/sqrt(2) = sqrt(2)/2, kept exact via the r2 exponent
    return Expression((Term(ComplexRational(Fraction(1, 2)), r2=1),))


# --- structural operations --------------------------------------------------

def conjugate(e: Expression) -> Expression:
    """Complex conjugation: coefficients conjugated, conjugation flags flipped.

    Real fields are fixed; mutually conjugate pairs swap; j and the
    parameters are real.
    """
    return Expression.build([
        Term(t.coeff.conjugate(), t.jdeg, t.params, t.r2,
             tuple(FieldFactor(f.field, f.indices, f.derivs, not f.conj) for f in t.factors))
        for t in e.terms
    ])


def derive(e: Expression, idx: str) -> Expression:
    """Formal derivative d[idx] via the Leibniz rule.

    Derivative tags form a multiset, so repeated derivatives commute by
    construction.  ``idx`` must not already be summed in any term.
    """
    return Expression.build(_leibniz(e.terms, idx))


def _leibniz(terms, idx: str) -> list[Term]:
    raw = []
    for t in terms:
        if t.index_counts()[idx] >= 2:
            raise IndexConflictError(f"index {idx} is already summed in {t}")
        for p, f in enumerate(t.factors):
            new_factor = FieldFactor(f.field, f.indices, f.derivs + (idx,), f.conj)
            raw.append(Term(t.coeff, t.jdeg, t.params, t.r2,
                            t.factors[:p] + (new_factor,) + t.factors[p + 1:]))
    return raw


@functools.lru_cache(maxsize=256)
def _prepare_replacement(rep: Expression, f: FieldFactor) -> Expression:
    """Specialize a rule body to one factor: rename its summed indices apart
    from the factor's index and derivative tags, bind the hole, derive,
    conjugate.  Memoized on the (body, factor) pair; a raised error is not
    kept."""
    arity = FIELDS[f.field].arity
    for t in rep.terms:
        hole_count = t.index_counts()[HOLE]
        if hole_count != arity:
            raise ArityError(
                f"replacement for {f.field} must use the hole index "
                f"'{HOLE}' exactly {arity} time(s) per term"
            )
    out = rep
    if arity or f.derivs:
        bind = {HOLE: f.indices[0]} if arity else {}
        raw = []
        for t in rep.terms:
            # building before the last derivative could hand a summed pair
            # the name of a tag, so the terms stay unbuilt until then
            t = _refresh_dummies(t, "S")
            raw.append(Term(t.coeff, t.jdeg, t.params, t.r2,
                            tuple(fc.rename(bind) for fc in t.factors)))
        for dv in f.derivs:
            raw = _leibniz(raw, dv)
        out = Expression.build(raw)
    return conjugate(out) if f.conj else out


def substitute(e: Expression, rules: dict[str, Expression]) -> Expression:
    """Simultaneous substitution of fields by expressions.

    Rule bodies reference the replaced field's index through the hole
    index ``_``; derivative tags distribute over the body via the Leibniz
    rule, and conjugated occurrences receive the conjugated body.  Each
    term's piece starts with its coefficient and every factor without a
    rule, and only the replacements are multiplied in.
    """
    for name in rules:
        if name not in FIELDS:
            raise UnknownFieldError(name)
    raw = []
    for t in e.terms:
        piece = [Term(t.coeff, t.jdeg, t.params, t.r2,
                      tuple(f for f in t.factors if f.field not in rules))]
        for f in t.factors:
            if f.field in rules:
                piece = _product(piece, _prepare_replacement(rules[f.field], f).terms)
        raw.extend(piece)
    return Expression.build(raw)


def first_order_variation(e: Expression, rules: dict[str, Expression]) -> Expression:
    """Leibniz-linear variation: replace one factor at a time and sum.

    ``rules`` maps field symbols to their infinitesimal shifts (hole-indexed
    like :func:`substitute`); fields without a rule do not vary.
    """
    for name in rules:
        if name not in FIELDS:
            raise UnknownFieldError(name)
    raw = []
    for t in e.terms:
        for p, f in enumerate(t.factors):
            rule = rules.get(f.field)
            if rule is None or rule.is_zero():
                continue
            rest = Term(t.coeff, t.jdeg, t.params, t.r2, t.factors[:p] + t.factors[p + 1:])
            raw.extend(_product((rest,), _prepare_replacement(rule, f).terms))
    return Expression.build(raw)


def contract(e: Expression) -> Expression:
    """X -> j X for every field X of grade 1: each term's j-degree gains
    the grades of its factors."""
    return Expression.build([Term(t.coeff, t.jdeg + sum(FIELDS[f.field].grade for f in t.factors),
                                  t.params, t.r2, t.factors) for t in e.terms])


def divide_by_j(e: Expression) -> Expression:
    """The partial division by j: every term's j-degree lowered by one.

    Defined only when every term carries j.  A term of j-degree 0 raises
    :class:`~ewverify.contraction.DivisionUndefinedError`: a plain number
    divided by the nilpotent unit is undefined, and negative degrees are
    not representable.  Lowering every degree keeps the canonical order,
    so the result needs no build.
    """
    if any(t.jdeg == 0 for t in e.terms):
        raise DivisionUndefinedError("cannot divide by j: a term has j-degree 0")
    return Expression(tuple(Term(t.coeff, t.jdeg - 1, t.params, t.r2, t.factors)
                            for t in e.terms))


def j_decompose(e: Expression) -> dict[int, Expression]:
    """Partition by j-degree; parts carry degree 0 and reassemble exactly."""
    buckets: dict[int, list[Term]] = {}
    for t in e.terms:
        buckets.setdefault(t.jdeg, []).append(
            Term(t.coeff, 0, t.params, t.r2, t.factors)
        )
    return {d: Expression.build(ts) for d, ts in sorted(buckets.items())}


def reduce_mode(e: Expression, mode: JMode) -> Expression:
    """Interpret the j-grading: j=1 collapses, j=iota truncates at degree 2,
    and a numeric j folds j^deg into the coefficient exactly."""
    return _reduced(e.terms, mode)


def _reduced(terms, mode: JMode) -> Expression:  # reduce_mode on a raw term list
    if mode.is_one:
        raw = [Term(t.coeff, 0, t.params, t.r2, t.factors) for t in terms]
    elif mode.is_nilpotent:
        raw = [t for t in terms if t.jdeg < 2]
    else:
        jv = mode.value
        raw = [
            Term(t.coeff * ComplexRational(jv**t.jdeg), 0, t.params, t.r2, t.factors)
            for t in terms
        ]
    return Expression.build(raw)


def group_normal_form(e: Expression, mode: JMode) -> Expression:
    """Normal form of ``e`` on SU(2;j), reduced in ``mode``.

    Each product alpha conj(alpha) becomes 1 - j^2 beta conj(beta), and
    likewise for (alpha2, beta2).  A single polynomial is a Groebner basis
    of its own ideal and alpha conj(alpha) leads it; the two relations have
    coprime leading terms.  So the result is zero exactly when ``e``
    vanishes on every pair of group elements (Cox, Little & O'Shea,
    *Ideals, Varieties, and Algorithms*, ch. 2).
    """
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
    return _reduced(raw, mode)


def instantiate_params(e: Expression, values: dict[str, Fraction]) -> Expression:
    """Substitute exact numeric values for coupling parameters."""
    raw = []
    for t in e.terms:
        coeff = t.coeff
        remaining = []
        for name, exp in t.params:
            if name in values:
                coeff = coeff * ComplexRational(Fraction(values[name]) ** exp)
            else:
                remaining.append((name, exp))
        raw.append(Term(coeff, t.jdeg, tuple(remaining), t.r2, t.factors))
    return Expression.build(raw)


def _fresh(term_names, base="w") -> str:
    k = 0
    while f"{base}{k}" in term_names:
        k += 1
    return f"{base}{k}"


def euler_lagrange(lagrangian: Expression, fld: str, idx: str | None = None) -> Expression:
    """Variational derivative dL/dX[idx] - d[nu](dL/d(d[nu]X[idx])).

    ``lagrangian`` must be a scalar.  Conjugated occurrences are treated as
    independent; vary with respect to the conjugate field to get the other
    equation.  Only first-order derivative factors of the varied field are
    supported.
    """
    fdef = FIELDS.get(fld)
    if fdef is None:
        raise UnknownFieldError(fld)
    if lagrangian.free_indices():
        raise IndexConflictError("Euler-Lagrange input must be a scalar expression")
    if fdef.arity == 1 and idx is None:
        raise ArityError(f"{fld} is a vector field; an equation index is required")
    raw = []
    for t in lagrangian.terms:
        names = set(t.index_counts())
        if idx is not None and idx in names:
            t = _refresh_dummies(t, "e")
            names = set(t.index_counts())
        for p, f in enumerate(t.factors):
            if f.field != fld or f.conj:
                continue
            rest = t.factors[:p] + t.factors[p + 1:]
            if len(f.derivs) == 0:
                mapping = {f.indices[0]: idx} if fdef.arity else {}
                raw.append(Term(t.coeff, t.jdeg, t.params, t.r2,
                                tuple(r.rename(mapping) for r in rest)))
            elif len(f.derivs) == 1:
                b = f.derivs[0]
                if fdef.arity and f.indices[0] == b:
                    # divergence factor d[a]X[a]: contributes -d[idx](rest)
                    by = idx
                else:
                    by = _fresh(names | ({idx} if idx else set()))
                    mapping = {b: by}
                    if fdef.arity:
                        mapping[f.indices[0]] = idx
                    rest = tuple(r.rename(mapping) for r in rest)
                # Derive the rest unbuilt: canonical dummy names could
                # collide with the derivative index.
                rest_expr = Expression((Term(-t.coeff, t.jdeg, t.params, t.r2, rest),))
                raw.extend(derive(rest_expr, by).terms)
            else:
                raise ValueError(
                    "second derivatives of the varied field are not supported"
                )
    return Expression.build(raw)
