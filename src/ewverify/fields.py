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
or exactly twice (summed), and a term holds at most 7 summed names.  Summed
indices are renamed canonically by taking the lexicographic minimum over
all relabelings, so structural equality of normalized expressions is
equality up to dummy relabeling.  Index names that start with ``_``, other
than the hole ``_`` of substitution rules, are the kernel's: it renames
summed indices apart to them.  The validated :class:`FieldFactor`, which
:func:`field` builds, and the equation index of :func:`euler_lagrange`
refuse them, so no free index can meet a renamed one.

The operators (``+``, ``-``, ``*``) and :func:`field`, :func:`param`,
:func:`jpow`, :func:`conjugate` and :func:`contract` return a *pending*
expression: it holds the raw terms of its result, products through the
private ``_product`` (or ``_times`` beside a factorless operand), sums as
their operands' raw terms side by side, and builds them once, the first
time anything reads its terms.  A chain of operators therefore builds once,
at its end.  Each raises its errors at the call, so a deferred build never
raises.  :func:`substitute`, :func:`first_order_variation`,
:func:`euler_lagrange` and :func:`group_normal_form_j` collect their raw
terms the same way (``_times`` where no summed name can clash: rule bodies
renamed apart once, index-free group relations) and build at once.  An
operation that keeps each built term's factors (:func:`j_decompose`,
:func:`reduce_mode`, :func:`instantiate_params`) hands its terms to the
private ``_merge`` without a canonical form: its factors already are one.
"""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple
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
    "divide_by_j",
    "euler_lagrange",
    "field",
    "first_order_variation",
    "group_normal_form_j",
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


class FieldDef(namedtuple("FieldDef", "name arity real partner display primary grade",
                          defaults=(True, None, None, True, 0))):
    """A declared field symbol.  ``partner``: the conjugate partner field, if
    distinct; ``primary``: False when numeric draws derive from the partner's
    value; ``grade``: the power of j the field picks up in the contraction."""

    __slots__ = ()

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
    FIELDS[_s] = FIELDS[_s]._replace(grade=1)

PARAM_NAMES = ("g", "gp", "R", "s")

# Canonical names handed to summed indices, skipping any that are free.
DUMMY_NAMES = ("mu", "nu", "al", "be", "ga", "de", "ze", "et", "ka", "la", "si", "ta")
HOLE = "_"  # placeholder index in substitution rules


class FieldFactor(namedtuple("FieldFactor", "field indices derivs conj")):
    __slots__ = ()

    def __new__(cls, field, indices=(), derivs=(), conj=False):
        fdef = FIELDS.get(field)
        if fdef is None:
            raise UnknownFieldError(field)
        if len(indices) != fdef.arity:
            raise ArityError(f"{field} takes {fdef.arity} index(es), got {len(indices)}")
        _check_unreserved((*indices, *derivs))
        return tuple.__new__(cls, (field, tuple(indices), tuple(sorted(derivs)), conj))

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

    def names(self) -> tuple[str, ...]:
        return self.indices + self.derivs


def _factor(field, indices, derivs, conj) -> FieldFactor:
    """A factor built without validation, for a field and arity already
    checked; ``derivs`` must be sorted.  The kernel's renamed factors, which
    carry reserved names, are built here."""
    return tuple.__new__(FieldFactor, (field, indices, derivs, conj))


def _check_unreserved(names) -> None:
    """Refuse an index name the kernel keeps for renamed indices: one that
    starts with ``_`` and is not the hole."""
    for n in names:
        if n != HOLE and n.startswith("_"):
            raise IndexConflictError(f"index names starting with '_' are reserved: {n}")


class Term(namedtuple("Term", "coeff jdeg params r2 factors", defaults=(0, (), 0, ()))):
    __slots__ = ()

    def index_counts(self) -> dict[str, int]:
        return _index_counts(self.factors)

    def free_indices(self) -> frozenset[str]:
        return frozenset(n for n, c in self.index_counts().items() if c == 1)


def _index_counts(factors) -> dict[str, int]:
    """How often each index name occurs among the factors, in first-use order."""
    counts: dict[str, int] = {}
    for f in factors:
        for n in f.names():
            counts[n] = counts.get(n, 0) + 1
    return counts


def _free_and_summed(factors) -> tuple[list[str], list[str]]:
    """The free and the summed index names of a term's factors, in first-use
    order.  Raises for a name used more than twice, and for more than 7
    summed names, which the canonical form does not relabel."""
    frees, dummies = [], []
    for n, c in _index_counts(factors).items():
        if c > 2:
            raise IndexConflictError(f"index used more than twice: {n}")
        (frees if c == 1 else dummies).append(n)
    if len(dummies) > 7:
        raise IndexConflictError("too many summed indices in one term")
    return frees, dummies


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


@functools.lru_cache(maxsize=1024)  # holds every form of one `verify all` run
def _canonical_factors(factors: tuple[FieldFactor, ...]) -> tuple:
    """Resolve conjugation flags, sort the factor multiset and relabel summed
    indices canonically; returns the canonical factors, the term's free
    indices and the factors' sort keys.

    The canonical form is the lexicographic minimum over every bijection
    from the term's summed indices to the canonical alphabet, which makes
    structural equality complete for relabeling symmetry.  A term without
    summed indices is only sorted; otherwise every permutation of its
    summed names relabels only the factors a summed name touches, beside
    the others' sort keys, built once, and only the least tuple of keys is
    turned into factors (one summed name has one relabeling).  The form does
    not depend on the factors' order: the build looks it up through
    ``_canonical_form``, keyed on the sorted multiset.  A raised error is
    not kept in the memo.
    """
    factors = [f.canonical_conj() if f.conj else f for f in factors]
    frees, dummies = _free_and_summed(factors)
    free = frozenset(frees)
    if not dummies:
        ordered = sorted(factors, key=FieldFactor.sort_key)
        return tuple(ordered), free, tuple([f.sort_key() for f in ordered])
    dummies.sort()
    if free.isdisjoint(DUMMY_NAMES):  # no more than 7 summed names: x0, ... never needed
        pool = DUMMY_NAMES
    else:
        pool = [n for n in DUMMY_NAMES if n not in free]
        pool += [f"x{k}" for k in range(len(dummies)) if f"x{k}" not in free]
    summed = frozenset(dummies)
    fixed, touched = [], []  # the keys of factors no relabeling changes, and the others
    for f in factors:
        if summed.isdisjoint(f.indices) and summed.isdisjoint(f.derivs):
            fixed.append(f.sort_key())
        else:
            touched.append(f)

    def relabeled(perm):
        m = dict(zip(perm, pool))
        return tuple(sorted(fixed + [
            (f.field, f.conj, tuple([m.get(i, i) for i in f.indices]),
             tuple(sorted([m.get(i, i) for i in f.derivs])))
            for f in touched
        ]))

    if len(dummies) == 1:
        best = relabeled(dummies)
    else:
        best = min(map(relabeled, itertools.permutations(dummies)))
    return tuple([_factor(fd, ix, dv, cj) for fd, cj, ix, dv in best]), free, best


def _canonical_form(factors: tuple[FieldFactor, ...]) -> tuple:
    """``_canonical_factors`` memoized on the factor multiset: the form does
    not depend on the factors' order, so every order of one multiset shares
    one memo entry.  An index used more than twice is still named as it is
    first used in the given order."""
    try:
        return _canonical_factors(tuple(sorted(factors)))
    except IndexConflictError:
        _canonical_factors(factors)  # raises the given order's error
        raise


class Expression:
    """Canonical sum of terms; immutable, structural equality is semantic.

    An expression is built, its terms canonical: made by :meth:`build`, the
    private ``_merge``, or a constructor whose terms are canonical by
    construction.  Nothing else constructs one directly.  Or it is pending
    (the private ``_Pending``): an operator's result, which holds raw terms
    and builds them through :meth:`build` on the first read of ``terms``,
    by equality, hashing, a memo key, a check or printing, and is built
    from then on.  The operators and :func:`conjugate` and :func:`contract`
    take either, and read a pending operand's raw terms without a build.

    A class, not a tuple like the other value types, because it keeps its
    hash once computed: the sweep's plan lookups hash the same expressions
    for every sample, and a tuple re-hashes all of its terms each time."""

    __slots__ = ("terms", "_raw", "_hash")

    def __init__(self, terms: tuple[Term, ...] = ()):
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, name, value):
        raise AttributeError("Expression is immutable")

    @classmethod
    def zero(cls) -> "Expression":
        return _EMPTY

    @classmethod
    def build(cls, raw_terms) -> "Expression":
        """Normalize a raw term list: canonicalize each term's factors, then
        merge, prune and sort.

        Raw terms are built once: a pending expression calls this on the
        first read of its terms, and :func:`substitute` and the other
        kernels once on their result.  Each term's canonical form is
        memoized on its factor multiset (``_canonical_form``).  Terms whose
        factors stay canonical skip the canonical form and go to ``_merge``
        alone, where this ends too.
        """
        return _merge(raw_terms, _canonical_form)

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
        a, b = _raw_terms(self), _raw_terms(o)
        if not a:
            return o
        if not b:
            return self
        # every raw term of an operand carries the operand's free indices, and
        # terms with different ones never cancel: only an operand that builds
        # to zero keeps the build's check from raising
        if a[0].free_indices() != b[0].free_indices():
            if not self:
                return o
            if not o:
                return self
            _check_free({self.free_indices(), o.free_indices()})
        return _Pending([*a, *b])

    __radd__ = __add__

    def __sub__(self, other) -> "Expression":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Expression":
        return self._coerce(other) - self

    def __neg__(self) -> "Expression":
        negated = tuple(Term(-t.coeff, t.jdeg, t.params, t.r2, t.factors)
                        for t in _raw_terms(self))
        # negation keeps a built expression's order and canonical factors
        return _Pending(negated) if type(self) is _Pending else Expression(negated)

    def __mul__(self, other) -> "Expression":
        o = self._coerce(other)
        a, b = _raw_terms(self), _raw_terms(o)
        if len(a) == 1 and not a[0].factors or len(b) == 1 and not b[0].factors:
            return _Pending(_times(a, b))  # a factorless operand renames no index
        if _builds_cleanly(a, b):
            return _Pending(_product(a, b))
        # the build may raise: build here, where its error belongs, from the built operands
        return Expression.build(_product(self.terms, o.terms))

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


class _Pending(Expression):
    """An expression not built yet: the raw terms of an operator's result.
    The first read of ``terms`` builds them through :meth:`Expression.build`
    (the class attribute, so that a wrapper on it sees each deferred build)
    and turns the object into a plain, built Expression, whose later reads
    are a slot's."""

    __slots__ = ()

    def __init__(self, raw):
        object.__setattr__(self, "_raw", raw)

    @property
    def terms(self) -> tuple[Term, ...]:
        terms = Expression.build(self._raw).terms
        object.__setattr__(self, "__class__", Expression)
        object.__setattr__(self, "terms", terms)
        object.__delattr__(self, "_raw")
        return terms


def _raw_terms(e: Expression):
    """A pending expression's raw terms, without a build; a built one's terms."""
    return e._raw if type(e) is _Pending else e.terms


def _builds_cleanly(left, right) -> bool:
    """Whether the build of the product of two raw term lists cannot raise:
    its terms hold at most 7 summed names, because the most index slots a
    term of each list fills add up to 15 or less.  No free index can meet a
    name ``_product`` renames summed ones to: those names are reserved."""
    return sum(max([sum([len(f.indices) + len(f.derivs) for f in t.factors])
                    for t in terms], default=0) for terms in (left, right)) <= 15


_EMPTY = Expression(())


def _check_free(frees) -> None:
    if len(frees) > 1:
        raise IndexConflictError(
            f"terms carry different free indices: {sorted(map(sorted, frees))}"
        )


def _merge(terms, canonical=None) -> Expression:
    """Fold sqrt(2) pairs and the parameters, add the coefficients of equal
    keys, drop zeros and sort by key.  ``canonical`` maps raw factors to
    their canonical form, free indices and sort keys, as the build does;
    without it each term's factors must already be canonical, as a built
    term's are, and only their sort keys are taken."""
    merged: dict = {}
    for t in terms:
        coeff = t.coeff
        if coeff.is_zero():
            continue
        r2 = t.r2
        if r2 >= 2:  # sqrt(2)^2 = 2 folds into the coefficient
            coeff = coeff * ComplexRational(2 ** (r2 // 2))
            r2 %= 2
        if canonical is None:
            factors, free = t.factors, None
            fkeys = tuple([f.sort_key() for f in factors])
        else:
            factors, free, fkeys = canonical(t.factors)
        k = (t.jdeg, r2, _fold_params(t.params), fkeys)  # the term's sort key
        prev = merged.get(k)
        merged[k] = (coeff if prev is None else prev[0] + coeff), factors, free
    # the keys are distinct, so sorting the items orders the terms by key
    live = [(k, v) for k, v in sorted(merged.items()) if not v[0].is_zero()]
    _check_free({free for _, (_, _, free) in live})
    return Expression(tuple(Term(c, k[0], k[2], k[1], fs) for k, (c, fs, _) in live))


def _refresh_dummies(t: Term, tag: str) -> Term:
    """Rename a term's summed indices to ``_<tag>0``, ``_<tag>1``, ... in
    sorted-name order; a name used three times is kept for the build to
    report."""
    counts = t.index_counts()
    if 2 not in counts.values():  # nothing summed, so no sort and no rename
        return t
    dummies = sorted(n for n, c in counts.items() if c == 2)
    mapping = {n: f"_{tag}{k}" for k, n in enumerate(dummies)}
    return Term(t.coeff, t.jdeg, t.params, t.r2,
                tuple(f.rename(mapping) for f in t.factors))


def _product(left, right) -> list[Term]:
    """The raw terms of the product of two term lists, raw or built, with
    the summed indices of both renamed apart; products chain without a build
    between.  :func:`substitute` and :func:`first_order_variation` multiply
    rule bodies renamed apart once (``_renamed_replacement``), and
    :func:`group_normal_form_j` its index-free relations, through ``_times``
    instead."""
    return _times([_refresh_dummies(ta, "L") for ta in left],
                  [_refresh_dummies(tb, "R") for tb in right])


def _times(left, right) -> list[Term]:
    """The termwise product of two term lists, each index as it stands."""
    return [Term(ta.coeff * tb.coeff, ta.jdeg + tb.jdeg, ta.params + tb.params,
                 ta.r2 + tb.r2, ta.factors + tb.factors) for ta in left for tb in right]


# --- constructors ----------------------------------------------------------

def field(name, *indices, derivs=(), conj=False) -> Expression:
    factor = FieldFactor(name, tuple(indices), tuple(derivs), conj)
    _free_and_summed((factor,))  # the build's index errors, raised here
    return _Pending([Term(CR_ONE, factors=(factor,))])


def const(value) -> Expression:
    value = ComplexRational.of(value)
    if value.is_zero():
        return _EMPTY
    return Expression((Term(value),))


def imag() -> Expression:
    return const(CR_I)


def param(name, power: int = 1) -> Expression:
    return _Pending([Term(CR_ONE, params=_fold_params(((name, power),)))])


def jpow(power: int = 1) -> Expression:
    """j^power; a j-degree is a non-negative integer."""
    degree = int(power)
    if degree != power:
        raise ValueError(f"j-degree must be an integer, not {power!r}")
    if degree < 0:
        raise ValueError("j-degree must be non-negative")
    return _Pending([Term(CR_ONE, jdeg=degree)])


def inv_sqrt2() -> Expression:
    # 1/sqrt(2) = sqrt(2)/2, kept exact via the r2 exponent
    return Expression((Term(ComplexRational(Fraction(1, 2)), r2=1),))


# --- structural operations --------------------------------------------------

def conjugate(e: Expression) -> Expression:
    """Complex conjugation: coefficients conjugated, conjugation flags flipped.

    Real fields are fixed; mutually conjugate pairs swap; j and the
    parameters are real.
    """
    return _Pending(_conjugated(_raw_terms(e)))


def _conjugated(terms) -> list[Term]:
    """The raw terms of the conjugate, each flipped factor resolved against
    its field declaration, so that it keys the canonical-form memo as the
    build's own resolution would."""
    return [Term(t.coeff.conjugate(), t.jdeg, t.params, t.r2,
                 tuple(_factor(f.field, f.indices, f.derivs, not f.conj).canonical_conj()
                       for f in t.factors))
            for t in terms]


def _leibniz(terms, idx: str) -> list[Term]:
    raw = []
    for t in terms:
        if t.index_counts().get(idx, 0) >= 2:
            raise IndexConflictError(f"index {idx} is already summed in {t}")
        for p, f in enumerate(t.factors):
            new_factor = _factor(f.field, f.indices, tuple(sorted(f.derivs + (idx,))), f.conj)
            raw.append(Term(t.coeff, t.jdeg, t.params, t.r2,
                            t.factors[:p] + (new_factor,) + t.factors[p + 1:]))
    return raw


@functools.lru_cache(maxsize=256)
def _renamed_replacement(rep: Expression, f: FieldFactor) -> tuple[Term, ...]:
    """A rule body specialized to one factor, as raw terms: the body's
    summed indices renamed to ``_R0``, ``_R1``, ... first, so that no
    derivative tag of the factor, nor a canonical name of a term it
    multiplies, can clash with them; then the hole bound, each tag derived
    and, for a conjugated factor, the terms conjugated.  Memoized on the
    (body, factor) pair, so a body is specialized once, not for every term
    it multiplies; a raised error is not kept."""
    arity = FIELDS[f.field].arity
    bind = {HOLE: f.indices[0]} if arity else {}
    raw = []
    for t in rep.terms:
        if t.index_counts().get(HOLE, 0) != arity:
            raise ArityError(
                f"replacement for {f.field} must use the hole index "
                f"'{HOLE}' exactly {arity} time(s) per term"
            )
        t = _refresh_dummies(t, "R")
        if bind:
            t = t._replace(factors=tuple(fc.rename(bind) for fc in t.factors))
        raw.append(t)
    for dv in f.derivs:
        raw = _leibniz(raw, dv)
    return tuple(_conjugated(raw) if f.conj else raw)


def substitute(e: Expression, rules: dict[str, Expression]) -> Expression:
    """Simultaneous substitution of fields by expressions.

    Rule bodies reference the replaced field's index through the hole
    index ``_``; derivative tags distribute over the body via the Leibniz
    rule, and conjugated occurrences receive the conjugated body.  Each
    term's piece starts with its coefficient and every factor without a
    rule, and only the replacements are multiplied in.  The bodies carry
    their summed indices renamed apart, so only a piece that already holds
    a body renames its own apart before the next.
    """
    for name in rules:
        if name not in FIELDS:
            raise UnknownFieldError(name)
    raw = []
    for t in e.terms:
        piece = [Term(t.coeff, t.jdeg, t.params, t.r2,
                      tuple(f for f in t.factors if f.field not in rules))]
        chained = False
        for f in t.factors:
            if f.field in rules:
                if chained:  # the piece carries a body's _R names: rename them apart
                    piece = [_refresh_dummies(pt, "L") for pt in piece]
                piece = _times(piece, _renamed_replacement(rules[f.field], f))
                chained = True
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
            # the rest keeps its canonical summed names, which no renamed body uses
            rest = Term(t.coeff, t.jdeg, t.params, t.r2, t.factors[:p] + t.factors[p + 1:])
            raw.extend(_times((rest,), _renamed_replacement(rule, f)))
    return Expression.build(raw)


def contract(e: Expression) -> Expression:
    """X -> j X for every field X of grade 1: each term's j-degree gains
    the grades of its factors."""
    return _Pending([Term(t.coeff, t.jdeg + sum(FIELDS[f.field].grade for f in t.factors),
                          t.params, t.r2, t.factors) for t in _raw_terms(e)])


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
    return {d: _merge(ts) for d, ts in sorted(buckets.items())}


def reduce_mode(e: Expression, mode: JMode) -> Expression:
    """Interpret the j-grading: j=1 collapses, j=iota truncates at degree 2,
    and a numeric j folds j^deg into the coefficient exactly."""
    if mode.is_one:
        terms = [Term(t.coeff, 0, t.params, t.r2, t.factors) for t in e.terms]
    elif mode.is_nilpotent:
        terms = [t for t in e.terms if t.jdeg < 2]
    else:
        jv = mode.value
        terms = [Term(t.coeff * ComplexRational(jv**t.jdeg), 0, t.params, t.r2, t.factors)
                 for t in e.terms]
    return _merge(terms)


def group_normal_form_j(e: Expression) -> Expression:
    """Normal form of ``e`` on SU(2;j), with j kept as a variable.

    Each product alpha conj(alpha) becomes 1 - j^2 beta conj(beta), and
    likewise for (alpha2, beta2).  A single polynomial is a Groebner basis
    of its own ideal and alpha conj(alpha) leads it; the two relations have
    coprime leading terms.  So the result is zero exactly when ``e``
    vanishes on every pair of group elements (Cox, Little & O'Shea,
    *Ideals, Varieties, and Algorithms*, ch. 2).  The leading terms carry
    no j, and fixing j or truncating at iota is a ring homomorphism, so
    :func:`reduce_mode` of this one form is the normal form in each mode.
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
                piece = _times(piece, relations[b])
        # the relation pieces carry no index, so no summed name can clash
        raw.extend(_times(piece, (Term(CR_ONE, factors=tuple(factors)),)))
    return Expression.build(raw)


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
    return _merge(raw)


def euler_lagrange(lagrangian: Expression, fld: str, idx: str | None = None) -> Expression:
    """Variational derivative dL/dX[idx] - d[nu](dL/d(d[nu]X[idx])).

    ``lagrangian`` must be a scalar, and ``idx`` not a reserved name.
    Conjugated occurrences are treated as independent; vary with respect to
    the conjugate field to get the other equation.  Only first-order
    derivative factors of the varied field are supported.  A term that
    already uses ``idx`` has its summed indices renamed to the reserved
    ``_e0``, ``_e1``, ... first, so that none of them meets ``idx``.
    """
    fdef = FIELDS.get(fld)
    if fdef is None:
        raise UnknownFieldError(fld)
    _check_unreserved((idx,) if idx else ())
    if lagrangian.free_indices():
        raise IndexConflictError("Euler-Lagrange input must be a scalar expression")
    if fdef.arity == 1 and idx is None:
        raise ArityError(f"{fld} is a vector field; an equation index is required")
    raw = []
    for t in lagrangian.terms:
        if idx is not None and idx in t.index_counts():
            t = _refresh_dummies(t, "e")
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
                    b = idx
                elif fdef.arity:  # -d[b](rest), b summed in the term and never idx
                    rest = tuple(r.rename({f.indices[0]: idx}) for r in rest)
                raw.extend(_leibniz((Term(-t.coeff, t.jdeg, t.params, t.r2, rest),), b))
            else:
                raise ValueError(
                    "second derivatives of the varied field are not supported"
                )
    return Expression.build(raw)
