"""Numeric evaluation of field expressions on random field values.

The scaling sweep evaluates the Lagrangian's j-grade parts on random field
values; that is this module's one use.  No check decides an identity here:
the canonical form settles them all, with s = sqrt(g^2+gp^2) carried as a
symbol where it is irrational.

Summed index pairs expand over a 4-dimensional index range; contraction is
plain pairing with no metric signs.  Conjugate field instances always
receive the conjugate value of their partners.  The sweep's parts are
scalars, so an expression with a free index is rejected.

Each expression is compiled once into a straight-line kernel: generated
code that fetches every field instance in one batched ``values(keys)``
lookup, in first-access order with derivative tags sorted (derivatives
commute), folds each term's parameters into its coefficient, and adds
every index combination's product in term-by-term float order, so the
result rounds exactly as a walk over every combination would.  A product
prefix that several of a term's combinations share is multiplied once.

The sweep evaluates three parts on one sample: :func:`compile_layout`
lists their instances once, in first-access order, part after part, and
:func:`draw` draws a sample in that order.  Its Gaussians are
``Random.gauss``'s Box-Muller stream inlined, bit for bit: one
``random.Random(seed)`` per sample and two ``random()`` calls per pair of
Gaussians.  Each instance's value, and the conjugate of each instance a
key reads conjugated, is built once per sample, by gathers in C.
"""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple
from math import cos, log, pi, sin, sqrt
from operator import itemgetter
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

    Returns ``(kernel, keys, names)``: ``keys`` holds each distinct
    ``(field, indices, derivs, conj)`` once, in first-access order, with
    ``derivs`` sorted, and ``names`` each parameter once, in first-use
    order.  ``kernel(assignment, *param_values)`` is generated straight-line
    code.  It unpacks ``assignment.values(keys)`` into locals, takes each
    term's base ``complex(coeff) * sqrt(2)**r2`` times its parameters'
    powers, in the term's order, and adds every summed-index combination's
    product (the base, then the factors, left to right) to ``0j`` in term
    order, at most 32 products per statement.  Each term's products are
    walked into a trie keyed on (prefix node, slot): a prefix that two or
    more of them share is multiplied once into a local ``u<n>``, and each
    product continues from its longest such prefix.  Every product is still
    the same left-to-right chain of the same multiplications, so every bit
    stays that of the unshared walk.  A prefix is never shared across
    terms, whose bases differ.  Its source holds only generated names and
    integer literals; the bases are bound values.
    """
    slots: dict = {}
    names: dict = {}
    bound = {"z": 0j}
    lines, products, shared = [], [], 0
    for k, t in enumerate(e.terms):
        counts = t.index_counts()
        free = [n for n, c in counts.items() if c == 1]
        if free:
            raise MissingAssignmentError(f"free index {free[0]} has no value")
        bound[f"c{k}"] = complex(t.coeff) * (SQRT2**t.r2)
        lines.append("".join([f"b{k} = c{k}", *(
            f" * p{names.setdefault(n, len(names))} ** {x:d}" for n, x in t.params)]))
        trie: dict = {}  # (prefix node, slot) -> node, within this term; node 0 is b<k>
        dummies = sorted(counts)
        # the products through each node: at most one node per factor and combination
        uses, ends = [0] * (1 + len(t.factors) * DIMENSION ** len(dummies)), []
        for combo in itertools.product(range(DIMENSION), repeat=len(dummies)):
            concrete = dict(zip(dummies, combo))
            node = 0
            for f in t.factors:
                key = (f.field, tuple(concrete[i] for i in f.indices),
                       tuple(sorted(concrete[i] for i in f.derivs)), f.conj)
                node = trie.setdefault((node, slots.setdefault(key, len(slots))), len(trie) + 1)
                uses[node] += 1
            ends.append(node)
        text = [f"b{k}"]  # by node: its product, continued from its longest named prefix
        for node, (prefix, slot) in enumerate(trie, 1):
            text.append(f"{text[prefix]} * v{slot}")
            if uses[node] > 1:  # a shared prefix is multiplied once, into a local
                lines.append(f"u{shared} = {text[node]}")
                text[node], shared = f"u{shared}", shared + 1
        products += [text[node] for node in ends]
    keys = bound["keys"] = tuple(slots)
    args = "".join(f", p{i}" for i in range(len(names)))
    unpack = "".join(f"v{i}, " for i in range(len(keys)))
    sums = [f"t = t + {' + '.join(products[i:i + 32])}" for i in range(0, len(products), 32)]
    exec("\n    ".join([f"def kernel(assignment{args}):", f"({unpack}) = assignment.values(keys)",
                        "t = z", *lines, *sums, "return t"]), bound)
    return bound.pop("kernel"), keys, tuple(names)  # no cycle through its globals


def compile_layout(exprs) -> tuple:
    """Compile one shared draw for the scalar expressions ``exprs``.

    Returns ``(at, gathers, picks, pairs)``.  The distinct field instances
    of their plans, in first-access order and with mirror fields resolved,
    take one Gaussian if real and two (real part, then imaginary part)
    otherwise, in that order, from ``pairs`` Box-Muller pairs.
    :func:`draw` lists 0.0 (a real instance's imaginary part) and then the
    Gaussians; ``at`` holds each instance's real and imaginary positions
    in that list.  A sample's values are one per instance, in order, then
    the conjugate of each instance that some key reads conjugated.
    ``gathers`` holds the three ``operator.itemgetter`` gathers that build
    them: of the instances' real positions, of their imaginary positions,
    and of the conjugated instances among the values; ``picks`` holds, per
    expression, one that gathers its plan's keys' values.  Each gather
    returns a sequence, even of one position or none.
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
    picks = tuple(_gather([len(at) + conj_of.setdefault(k, len(conj_of)) if conj else k
                           for k, conj in pick]) for pick in keyed)
    gathers = _gather([re for re, _ in at]), _gather([im for _, im in at]), _gather([*conj_of])
    return tuple(at), gathers, picks, n // 2  # ceil((n - 1) / 2)


def _gather(positions: list) -> itemgetter:
    """An ``operator.itemgetter`` of ``positions`` that returns a sequence."""
    if len(positions) < 2:  # itemgetter of one position returns a bare value, of none fails
        positions = [slice(positions[0], positions[0] + 1) if positions else slice(0)]
    return itemgetter(*positions)


def draw(layout, seed: int) -> list:
    """Draw each instance of a :func:`compile_layout` layout once, in its
    order, from ``random.Random(seed)``: a real Gaussian for a real field,
    a complex one otherwise, each as ``gauss(0.0, 1.0)`` draws it, bit for
    bit, with its Box-Muller step inlined (``0.0 + z`` turns -0.0 into 0.0
    as ``mu + z * sigma`` does; an odd count's last sine goes unread).
    The values are built by the layout's gathers, in C: ``complex`` over
    the real and imaginary parts, then ``complex.conjugate`` over the
    conjugated instances.  Returns one assignment per expression, whose
    ``values(keys)`` returns that expression's values in its plan's key
    order."""
    _, (reals, imags, conjugated), picks, pairs = layout
    random = Random(seed).random
    drawn = [0.0]
    push = drawn.append
    for _ in range(pairs):
        x2pi = random() * TWOPI
        g2rad = sqrt(-2.0 * log(1.0 - random()))
        push(0.0 + cos(x2pi) * g2rad)
        push(0.0 + sin(x2pi) * g2rad)
    values = [*map(complex, reals(drawn), imags(drawn))]
    values += map(complex.conjugate, conjugated(values))
    return [_Drawn(pick(values)) for pick in picks]


class _Drawn:
    """One expression's values from a shared draw, in its plan's key order."""

    __slots__ = ("got",)

    def __init__(self, got):
        self.got = got

    def values(self, keys):
        return self.got


def eval_expression(e: Expression, assignment, params: dict | None = None) -> complex:
    """Evaluate the scalar polynomial on concrete field values at j = 1.

    ``assignment`` is any object whose ``values(keys)`` returns the value
    of each plan key ``(field, indices, derivs, conj)``, in order, such as
    a view from :func:`draw`; an expression with a free index, or a
    parameter missing from ``params``, raises
    :class:`MissingAssignmentError`.  Callers that need one j-grade
    evaluate the parts of :func:`~ewverify.fields.j_decompose`.

    The expression is compiled once into a kernel, kept in a bounded memo.
    Each call passes the float of each parameter it names and runs the
    kernel, which fetches every distinct field instance in one
    ``assignment.values(keys)`` lookup, in first-access order, so a lazy
    per-instance assignment draws as a term-by-term walk would; its
    products and sum run in the walk's float order, so the result is
    bit-identical to it.
    """
    params = params or {}
    kernel, _, names = _plan(e)
    for name in names:
        if name not in params:
            raise MissingAssignmentError(f"no value for parameter {name}")
    return kernel(assignment, *[float(params[name]) for name in names])


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
