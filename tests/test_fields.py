"""Field algebra: canonical forms, Leibniz calculus, substitution, grading."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ewverify import (
    ArityError,
    ComplexRational,
    DivisionUndefinedError,
    Expression,
    IndexConflictError,
    J_NILPOTENT,
    J_ONE,
    JMode,
    conjugate,
    const,
    divide_by_j,
    field,
    instantiate_params,
    j_decompose,
    jpow,
    param,
    reduce_mode,
    substitute,
)
from ewverify.contraction import DEFAULT_MODES
from ewverify.fields import (
    DUMMY_NAMES,
    FIELDS,
    FieldFactor,
    Term,
    UnknownFieldError,
    _Pending,
    _canonical_factors,
    _canonical_form,
    _factor,
    _refresh_dummies,
    _renamed_replacement,
    contract,
    euler_lagrange,
    first_order_variation,
    group_normal_form_j,
    imag,
    inv_sqrt2,
)

from ewverify.model import ModelConfig, build_L27

from helpers import (
    SCALAR_FIELDS,
    VECTOR_FIELDS,
    derive,
    exact_group_point,
    group_normal_form,
    parse,
    random_expression,
    random_term,
    reduce_first_group_normal_form,
    reference_canonical_factors,
    reference_first_order_variation,
    reference_group_normal_form,
    reference_substitute,
)


def test_like_terms_merge():
    x = parse("g A1[mu] B[mu]")
    assert x + x == parse("2 g A1[mu] B[mu]")
    assert (field("A1", "mu") * field("B", "nu")
            + field("B", "nu") * field("A1", "mu")).terms[0].coeff == ComplexRational(2)


def test_zero_and_identity():
    e = parse("rho rho + j^2 Z[mu] Z[mu]")
    assert e + Expression.zero() == e
    assert e - e == Expression.zero()
    assert const(1) * e == e


def test_dummy_relabeling_is_canonical():
    a = parse("Z[nu] B[nu]")
    b = parse("Z[mu] B[mu]")
    assert a == b
    # contraction structure is respected: (A.B)(Z.Z) != (A.Z)(B.Z)
    p1 = parse("A1[mu] B[mu] Z[nu] Z[nu]")
    p2 = parse("A1[mu] Z[mu] B[nu] Z[nu]")
    assert p1 != p2


def test_commuting_pair_relabel():
    lhs = parse("d[mu]W+[nu] d[mu]W-[nu]")
    rhs = parse("d[al]W-[be] d[al]W+[be]")
    assert lhs == rhs


def test_index_rule_enforced():
    triple = Term(
        ComplexRational(1),
        factors=tuple(FieldFactor("A1", ("mu",)) for _ in range(3)),
    )
    for _ in range(2):  # the canonical-form memo keeps no error
        with pytest.raises(IndexConflictError, match="more than twice: mu"):
            Expression.build([triple])
    assert _canonical_factors.cache_info().currsize == 0
    a_mu, b_nu = field("A1", "mu").terms[0], field("B", "nu").terms[0]
    with pytest.raises(IndexConflictError, match="different free indices"):
        Expression.build([a_mu, b_nu])
    # a term that cancels to zero carries no free indices into the check
    minus_b_nu = Term(-b_nu.coeff, factors=b_nu.factors)
    assert Expression.build([a_mu, b_nu, minus_b_nu]) == field("A1", "mu")
    with pytest.raises(ArityError):
        FieldFactor("rho", ("mu",))
    with pytest.raises(ArityError):
        FieldFactor("B", ())
    with pytest.raises(UnknownFieldError):
        field("nosuch", "mu")
    # the constructors and products raise at the call, not at a deferred build
    with pytest.raises(IndexConflictError, match="more than twice: mu$"):
        field("B", "mu", derivs=("mu", "mu"))
    with pytest.raises(ValueError, match="unknown parameter symbol 'x'"):
        param("x")
    with pytest.raises(ValueError, match="parameter exponents must be non-negative"):
        param("g", -1)
    names = tuple(f"q{k}" for k in range(8))
    with pytest.raises(IndexConflictError, match="too many summed indices in one term"):
        field("rho", derivs=names * 2)
    eight = field("rho", derivs=names)
    with pytest.raises(IndexConflictError, match="too many summed indices in one term"):
        eight * eight
    assert ((eight - eight) * eight).is_zero()  # built operands, as the build has them
    seven = field("rho", derivs=names[1:])
    assert len((seven * field("rho", derivs=names)).terms) == 1  # widths 7 + 8
    # names starting with '_', other than the hole, are the kernel's renamed ones
    pair = field("A1", "mu") * field("A1", "mu")
    for reserved in (lambda: field("B", "_L0"), lambda: field("rho", derivs=("_R0",)),
                     lambda: FieldFactor("W1", ("mu",), ("_L1",)),
                     lambda: euler_lagrange(pair, "A1", "_e0")):
        with pytest.raises(IndexConflictError, match="reserved: _[LRe][01]$"):
            reserved()
    assert (pair * field("B", "_")).free_indices() == {"_"}


def test_canonical_memo_matches_the_unmemoized_form(rng):
    """The memo, its unmemoized form and the rename-then-sort reference
    agree, and the keys are the canonical factors' sort keys."""
    for _ in range(500):
        raw = random_term(rng, scalar=rng.random() < 0.7).factors
        flipped = tuple(FieldFactor(f.field, f.indices, f.derivs, not f.conj) for f in raw)
        for factors in (raw, raw[::-1], flipped, random_expression(rng).terms[0].factors):
            canonical = _canonical_factors(factors)
            assert canonical == _canonical_factors.__wrapped__(factors)
            assert _canonical_factors(factors) is canonical
            ordered, free, keys = canonical
            assert (ordered, free) == reference_canonical_factors(factors)
            assert keys == tuple(f.sort_key() for f in ordered)


CONJUGABLE = ("Wp", "Wm", "phi1", "phi2")


def _wide_factors(rng, npairs, nfree):
    """Factors with ``npairs`` summed pairs and ``nfree`` free indices, whose
    names are drawn from a set that includes the first canonical names and
    ``x0``, spread over index slots and derivative tags."""
    names = rng.sample(("mu", "nu", "al", "x0", "q", "zz", "b1", "x1"), npairs + nfree)
    slots = names[:nfree] + 2 * names[nfree:]
    rng.shuffle(slots)
    factors = []
    while slots or not factors or rng.random() < 0.3:
        name = rng.choice(VECTOR_FIELDS + SCALAR_FIELDS)
        arity = FIELDS[name].arity
        if arity > len(slots):
            continue
        take = min(len(slots), arity + rng.randint(0, 2))
        factors.append(FieldFactor(name, tuple(slots[:arity]), tuple(slots[arity:take]),
                                   name in CONJUGABLE and rng.random() < 0.5))
        del slots[:take]
    return tuple(factors)


def test_canonical_form_matches_the_reference_on_every_path(rng):
    """Terms with 0, 1, 2 and 3 or more summed pairs, free indices that take
    canonical names, and conjugated complex factors: the canonical form equals
    the rename-then-sort reference, unmemoized and memoized."""
    seen = set()
    for _ in range(600):
        npairs, nfree = rng.choice((0, 1, 1, 2, 2, 3, 4)), rng.randint(0, 3)
        factors = _wide_factors(rng, npairs, nfree)
        reference = reference_canonical_factors(factors)
        seen.add(min(npairs, 3))
        seen.update(reference[1] & {"mu", "nu", "al", "x0"})
        seen.update(f.field for f in factors if f.conj)
        for canonical_factors in (_canonical_factors.__wrapped__, _canonical_factors):
            ordered, free, keys = canonical_factors(factors)
            assert (ordered, free) == reference
            assert keys == tuple(f.sort_key() for f in ordered)
    assert seen >= {0, 1, 2, 3, "mu", "nu", "al", "x0", *CONJUGABLE}
    # free names take every canonical name but mu, and x0: the pairs get mu, x1, x2
    crowded = tuple(FieldFactor("B", (n,)) for n in DUMMY_NAMES[1:] + ("x0",)) + tuple(
        FieldFactor("W1", (n,), (n,)) for n in ("zz", "q", "mu"))
    ordered, free, _ = _canonical_factors(crowded)
    assert (ordered, free) == reference_canonical_factors(crowded)
    assert {i for f in ordered for i in f.derivs} == {"mu", "x1", "x2"}


def test_canonical_form_errors_are_unchanged():
    def raised(factors):
        for _ in range(2):  # the memo keeps no error
            with pytest.raises(IndexConflictError) as info:
                _canonical_factors(factors)
        return str(info.value)

    thrice = tuple(FieldFactor("B", (n,)) for n in ("nu", "mu", "mu", "nu", "mu", "nu"))
    assert raised(thrice) == "index used more than twice: nu"
    eight_pairs = tuple(FieldFactor("B", (f"q{k}",), (f"q{k}",)) for k in range(8))
    assert raised(eight_pairs) == "too many summed indices in one term"
    assert raised(eight_pairs + thrice) == "index used more than twice: nu"
    seven_pairs = eight_pairs[1:]
    assert len(_canonical_factors(seven_pairs)[0]) == 7
    assert _canonical_factors.cache_info().currsize == 1


def test_every_order_of_a_factor_tuple_shares_one_canonical_form(rng):
    """The build's canonical form is the same for every order of a raw factor
    tuple, and every order takes the one memo entry of its multiset."""
    checked = 0
    while checked < 40:
        factors = _wide_factors(rng, rng.choice((0, 1, 2, 3)), rng.randint(0, 2))
        if not 2 <= len(factors) <= 5:
            continue
        _canonical_factors.cache_clear()
        expected = _canonical_factors.__wrapped__(factors)
        forms = [_canonical_form(order) for order in itertools.permutations(factors)]
        assert all(form is forms[0] for form in forms) and forms[0] == expected
        assert _canonical_factors.cache_info().currsize == 1
        checked += 1


def test_an_over_used_index_is_named_in_the_given_order():
    """Two names used three times: the error names the one the given order
    uses first, whichever order the memo key sorts them in."""
    for first, second in (("nu", "mu"), ("mu", "nu")):
        factors = tuple(FieldFactor("B", (n,)) for n in (first, second) * 3)
        for _ in range(2):  # the memo keeps no error
            with pytest.raises(IndexConflictError, match=f"more than twice: {first}$"):
                Expression.build([Term(ComplexRational(1), factors=factors)])
    assert _canonical_factors.cache_info().currsize == 0


def test_refresh_dummies_renames_summed_pairs_only():
    plain = parse("A1[mu] d[nu]rho").terms[0]
    assert _refresh_dummies(plain, "L") is plain
    raw = Term(ComplexRational(1), factors=(
        FieldFactor("B", ("zz",)), FieldFactor("rho", derivs=("aa", "mu")),
        FieldFactor("W1", ("zz",), ("aa",)),
    ))
    assert _refresh_dummies(raw, "R").factors == (
        _factor("B", ("_R1",), (), False), _factor("rho", (), ("_R0", "mu"), False),
        _factor("W1", ("_R1",), ("_R0",), False),
    )
    # a name used three times is kept, so the build still names it
    triple = Term(ComplexRational(1), factors=(
        FieldFactor("A1", ("mu",)), FieldFactor("A1", ("mu",)), FieldFactor("A1", ("mu",)),
        FieldFactor("B", ("nu",)), FieldFactor("B", ("nu",)),
    ))
    refreshed = _refresh_dummies(triple, "L")
    assert [f.indices for f in refreshed.factors] == [("mu",)] * 3 + [("_L0",)] * 2
    with pytest.raises(IndexConflictError, match="more than twice: mu$"):
        Expression.build([refreshed])


def test_built_factors_are_valid_factors(rng):
    """Factors renamed or resolved without validation still pass it, with
    their derivative tags sorted."""
    lagrangian = build_L27(ModelConfig())
    doublet_grading = {"A1": jpow() * field("A1", "_"), "A2": jpow() * field("A2", "_"),
                       "phi2": jpow() * field("phi2")}
    built = [random_expression(rng) for _ in range(200)] + [
        lagrangian,
        conjugate(lagrangian),
        substitute(lagrangian, doublet_grading),
        derive(parse("d[nu]W+[mu] conj(phi1) B[mu]"), "al"),
        euler_lagrange(lagrangian, "Z", "mu"),
    ]
    for e in built:
        for f in (f for t in e.terms for f in t.factors):
            assert f == FieldFactor(f.field, f.indices, f.derivs, f.conj)
    assert FieldFactor("B", ("mu",), ("al", "nu")).rename({"al": "ze"}).derivs == ("nu", "ze")


def test_renamed_replacement_memo_matches_the_unmemoized_form():
    body = field("A3", "_") * field("B", "nu") * field("W2", "nu")
    for f in (FieldFactor("A2", ("mu",)), FieldFactor("A2", ("mu",), ("nu", "al")),
              FieldFactor("Wp", ("nu",), ("mu",), conj=True)):
        renamed = _renamed_replacement(body, f)
        assert renamed == _renamed_replacement.__wrapped__(body, f)
        assert _renamed_replacement(body, f) is renamed
    _renamed_replacement.cache_clear()
    for _ in range(2):  # the memo keeps no error
        with pytest.raises(ArityError):
            _renamed_replacement(field("rho"), FieldFactor("W3", ("mu",)))
    assert _renamed_replacement.cache_info().currsize == 0


def test_products_contract_rather_than_collide():
    # a summed pair on one side is independent of a new free index
    contracted = field("A1", "mu") * field("A1", "mu")
    outer = contracted * field("A1", "mu")
    assert outer.free_indices() == {"mu"}
    assert len(outer.terms[0].factors) == 3


def test_products_refresh_dummies():
    a = parse("B[mu] B[mu]")
    sq = a * a
    assert sq == parse("B[mu] B[mu] B[nu] B[nu]")
    assert len(sq.terms) == 1


# Mostly canonical and plain user names, and a few of the kernel's reserved ones.
PRODUCT_NAMES = DUMMY_NAMES[:6] + ("w0", "w1", "q") + ("_L0", "_R0", "_e0")


@st.composite
def three_monomials(draw):
    """The factors of three field monomials, as ``field`` arguments, whose
    flat product uses each index name at most twice (at most 6 summed)."""
    names = draw(st.lists(st.sampled_from(PRODUCT_NAMES), max_size=6, unique=True))
    slots = draw(st.permutations([n for n in names for _ in range(draw(st.integers(1, 2)))]))
    monomials = [[], [], []]
    while slots or draw(st.integers(0, 3)) == 3:
        fld = draw(st.sampled_from(VECTOR_FIELDS if slots else SCALAR_FIELDS))
        arity = FIELDS[fld].arity
        take = arity + draw(st.integers(0, min(2, len(slots) - arity)))
        indices, derivs = slots[:arity], slots[arity:take]
        del slots[:take]
        monomials[draw(st.integers(0, 2))].append((fld, indices, derivs, draw(st.booleans())))
    return monomials


@settings(max_examples=300, deadline=None)
@given(three_monomials())
def test_products_are_associative(monomials):
    """``field`` refuses the names the kernel renames summed indices to, so
    no free index meets a renamed one and the grouping of a product of
    three monomials does not change it."""
    try:
        factors = [[field(f, *ix, derivs=dv, conj=cj) for f, ix, dv, cj in m] for m in monomials]
    except IndexConflictError as exc:
        assert "reserved" in str(exc)
        return
    a, b, c = (math.prod(fs, start=const(1)) for fs in factors)
    assert (a * b) * c == a * (b * c)


def test_grading_adds_under_multiplication():
    x = jpow(1) * field("rho")
    y = jpow(1) * field("omega")
    assert (x * y).terms[0].jdeg == 2


def test_derive_examples():
    assert derive(field("B", "nu"), "mu") == parse("d[mu]B[nu]")
    # Leibniz
    x, y = field("rho"), field("omega")
    assert derive(x * y, "mu") == derive(x, "mu") * y + x * derive(y, "mu")
    assert derive(const(Fraction(5, 3)), "mu") == Expression.zero()


def test_derive_error_on_saturated_index():
    with pytest.raises(IndexConflictError):
        derive(parse("B[mu] B[mu]"), "mu")


def test_derivatives_commute(rng):
    for _ in range(200):
        e = random_expression(rng)
        frees = e.free_indices()
        a, b = "pp", "qq"
        if frees & {a, b}:
            continue
        assert derive(derive(e, a), b) == derive(derive(e, b), a)


def test_substitute_scaling_rules():
    rules = {"A1": jpow() * field("A1", "_"), "A2": jpow() * field("A2", "_")}
    assert substitute(field("A1", "mu"), rules) == jpow() * field("A1", "mu")
    assert substitute(field("A3", "mu"), rules) == field("A3", "mu")
    # derivative tags distribute over the replacement
    assert substitute(parse("d[nu]A1[mu]"), rules) == jpow() * parse("d[nu]A1[mu]")


def test_substitute_linear_combination_roundtrip():
    g, gp, s = Fraction(3), Fraction(4), Fraction(5)
    forward = {
        "W3": const(g / s) * field("Z", "_") + const(gp / s) * field("Aem", "_"),
        "B": const(gp / s) * field("Z", "_") - const(g / s) * field("Aem", "_"),
    }
    back = {
        "Z": const(g / s) * field("W3", "_") + const(gp / s) * field("B", "_"),
        "Aem": const(gp / s) * field("W3", "_") - const(g / s) * field("B", "_"),
    }
    w3_tensor = parse("d[mu]W3[nu] - d[nu]W3[mu]")
    mixed = substitute(w3_tensor, forward)
    assert mixed == const(g / s) * parse("d[mu]Z[nu] - d[nu]Z[mu]") + const(
        gp / s
    ) * parse("d[mu]Aem[nu] - d[nu]Aem[mu]")
    assert substitute(mixed, back) == w3_tensor


def test_substitute_renames_summed_indices_of_the_rule_body():
    body = field("A3", "_") * field("B", "nu") * field("W2", "nu")
    assert substitute(field("A2", "mu"), {"A2": body}) == parse("A3[mu] B[nu] W2[nu]")


def test_substitute_renames_summed_indices_apart_from_derivative_tags():
    body = field("A3", "_") * field("B", "nu") * field("W2", "nu")
    got = substitute(field("A2", "mu", derivs=("nu",)), {"A2": body})
    assert got == parse(
        "d[nu]A3[mu] B[al] W2[al] + A3[mu] d[nu]B[al] W2[al] + A3[mu] B[al] d[nu]W2[al]"
    )
    # a scalar field's tags too, and a conjugated occurrence
    got = substitute(field("phi1", derivs=("mu", "nu"), conj=True),
                     {"phi1": imag() * field("B", "mu") * field("Z", "mu")})
    assert got == parse(
        "-i d[mu]d[nu]B[al] Z[al] - i d[mu]B[al] d[nu]Z[al]"
        " - i d[nu]B[al] d[mu]Z[al] - i B[al] d[mu]d[nu]Z[al]"
    )


def test_substitute_arity_check():
    with pytest.raises(ArityError):
        substitute(field("W3", "mu"), {"W3": field("rho")})


def test_conjugation_rules():
    assert conjugate(field("Wp", "mu")) == field("Wm", "mu")
    assert conjugate(field("B", "mu")) == field("B", "mu")
    e = parse("i phi1 B[mu]")
    assert conjugate(e) == parse("-i conj(phi1) B[mu]")
    for text in ("j^2 g W+[mu] W-[mu]", "i rho d[mu]Z[nu]", "conj(phi2) phi1"):
        e = parse(text)
        assert conjugate(conjugate(e)) == e


def test_conjugation_involutive_on_random_corpus(rng):
    for _ in range(200):
        e = random_expression(rng)
        assert conjugate(conjugate(e)) == e


def test_j_decompose_partition(rng):
    e = parse("j^2 rho rho + j^4 omega omega")
    parts = j_decompose(e)
    assert set(parts) == {2, 4}
    assert parts[2] == parse("rho rho")
    e0 = parse("B[mu] B[mu]")
    assert j_decompose(e0) == {0: e0}
    for _ in range(100):
        e = random_expression(rng)
        parts = j_decompose(e)
        rebuilt = Expression.zero()
        for d, part in parts.items():
            rebuilt = rebuilt + jpow(d) * part
        assert rebuilt == e


def test_divide_by_j_on_random_expressions(rng):
    """divide_by_j inverts multiplication by j, and raises exactly when a
    term has j-degree 0."""
    for _ in range(200):
        e = random_expression(rng)
        assert divide_by_j(jpow() * e) == e
        if 0 in e.j_degrees():
            with pytest.raises(DivisionUndefinedError):
                divide_by_j(e)
        else:
            assert jpow() * divide_by_j(e) == e


def test_reduce_mode():
    e = parse("2 rho + 3 j^2 rho")
    assert reduce_mode(e, J_ONE) == parse("5 rho")
    assert reduce_mode(e, J_NILPOTENT) == parse("2 rho")
    assert reduce_mode(e, JMode.numeric(Fraction(1, 2))) == parse("11/4 rho")


def test_instantiate_params():
    e = parse("g^2 gp rho")
    assert instantiate_params(e, {"g": Fraction(3), "gp": Fraction(4)}) == parse(
        "36 rho"
    )
    partial = instantiate_params(e, {"g": Fraction(3)})
    assert partial == parse("9 gp rho")


def test_sqrt2_exponent_folds():
    r = parse("sqrt2 rho")
    assert r * r == parse("2 rho rho")
    assert (r * r * r).terms[0].r2 == 1


def test_normalize_idempotent_and_stable(rng):
    for _ in range(1000):
        e = random_expression(rng)
        rebuilt = Expression.build(e.terms)
        assert rebuilt == e


def test_first_order_variation_is_linear():
    rules = {"Z": field("omega") * field("Z", "_")}
    e = parse("Z[mu] Z[mu]")
    assert first_order_variation(e, rules) == parse("2 omega Z[mu] Z[mu]")
    # fields without a rule stay inert
    assert first_order_variation(parse("B[mu] B[mu]"), rules) == Expression.zero()


def test_mixed_free_indices_rejected():
    with pytest.raises(IndexConflictError):
        field("B", "mu") + field("B", "nu")


# Rule sets for the additivity test: linear mixes, j and parameter weights,
# sqrt(2), a complex field (conjugated occurrences get the conjugated body)
# and derivative-valued bodies.
ADDITIVITY_SUBSTITUTION = {
    "W3": (const(Fraction(3, 5)) * field("Z", "_")
           + const(Fraction(4, 5)) * field("Aem", "_")),
    "B": jpow() * field("B", "_") - param("g") * field("W1", "_"),
    "A2": field("A2", "_") * field("eps2") + derive(field("rho"), "_"),
    "phi1": field("rho") + imag() * jpow(2) * field("omega"),
    "rho": inv_sqrt2() * (field("rho") + field("eps1")),
}
ADDITIVITY_VARIATION = {
    "Z": field("omega") * field("Z", "_"),
    "Aem": derive(field("omega"), "_"),
    "Wp": imag() * jpow(2) * field("eps3") * field("Wp", "_"),
    "phi1": param("gp") * imag() * field("eps2") * field("phi1"),
}
# One body carries a summed index pair, so a term with several replaced
# factors chains unbuilt products whose summed indices are renamed apart.
SUMMED_RULES = {
    "B": field("B", "_") + jpow() * field("Z", "_") * field("W1", "nu") * field("W1", "nu"),
    "Z": param("R") * field("Z", "_") + field("eps1") * field("A3", "_"),
    "rho": field("rho") + field("eps2"),
}


def _termwise_sum(op, e):
    total = Expression.zero()
    for t in e.terms:
        total = total + op(Expression((t,)))
    return total


def test_symbolic_operations_are_additive_over_terms(rng):
    for _ in range(150):
        e = random_expression(rng)
        for kernel, reference, rules in (
            (substitute, reference_substitute, ADDITIVITY_SUBSTITUTION),
            (first_order_variation, reference_first_order_variation, ADDITIVITY_VARIATION),
            (substitute, reference_substitute, SUMMED_RULES),
            (first_order_variation, reference_first_order_variation, SUMMED_RULES),
        ):
            op = lambda x: kernel(x, rules)
            got = op(e)
            assert got == _termwise_sum(op, e)
            assert got == reference(e, rules)  # the products built at each step
        if e.free_indices():
            continue
        for fld, idx in (("B", "a"), ("Wp", "b"), ("Aem", "c"), ("phi1", None)):
            if any(f.field == fld and len(f.derivs) > 1
                   for t in e.terms for f in t.factors):
                continue  # second derivatives of the varied field are rejected
            op = lambda x: euler_lagrange(x, fld, idx)
            assert op(e) == _termwise_sum(op, e)


def test_kernel_operations_build_once(monkeypatch):
    """With the rule bodies prepared, each operation builds its result once:
    its products stay unbuilt until then."""
    e = parse("B[mu] B[mu] Z[nu] d[nu]rho + i conj(phi1) Z[mu] d[mu]rho + g A2[mu] W+[mu]")
    group_poly = parse("alpha conj(alpha) alpha conj(alpha) phi1 + j alpha2 conj(alpha2)")
    ops = [(substitute, e, ADDITIVITY_SUBSTITUTION), (substitute, e, SUMMED_RULES),
           (first_order_variation, e, ADDITIVITY_VARIATION),
           (first_order_variation, e, SUMMED_RULES),
           (group_normal_form, group_poly, J_ONE), (group_normal_form, group_poly, J_NILPOTENT)]
    expected = [op(x, arg) for op, x, arg in ops]  # also prepares the rule bodies
    build, calls = Expression.build.__func__, []
    monkeypatch.setattr(Expression, "build",
                        classmethod(lambda cls, raw: calls.append(1) or build(cls, raw)))
    for (op, x, arg), want in zip(ops, expected):
        calls.clear()
        assert op(x, arg) == want
        assert len(calls) == 1, f"{op.__name__} built {len(calls)} times"


def test_a_pending_expression_builds_once_on_its_first_read(monkeypatch):
    """An operator chain builds nothing until its terms are read; the first
    read calls ``Expression.build``, looked up on the class, where the
    benchmark tracer counts ``fields.build.calls`` and ``.terms_in``, on the
    chain's raw terms, and later reads call nothing."""
    build, calls = Expression.build.__func__, []
    monkeypatch.setattr(Expression, "build",
                        classmethod(lambda cls, raw: calls.append(len(raw)) or build(cls, raw)))
    chain = (field("A1", "mu") + field("B", "mu")) * field("A1", "mu") * param("g") + 2 * jpow()
    assert calls == [] and type(chain) is _Pending
    terms = chain.terms
    assert calls == [3] and type(chain) is Expression
    assert chain.terms is terms and chain == chain and hash(chain) and str(chain)
    assert calls == [3]


# Bodies whose summed pairs take the same canonical names as the terms they
# replace into: the specialized bodies carry their summed pairs renamed
# apart, and a chained piece renames its own apart before the next body.
# The complex field's body holds real fields, a field of a conjugate pair
# and a complex one, so a conjugated occurrence flips each kind of flag.
CLASHING_RULES = {
    "A1": field("B", "_") * field("W3", "mu") * field("W3", "mu"),
    "A2": field("Z", "_") * field("W1", "mu") * field("W1", "nu") * field("W2", "mu")
    * field("W2", "nu") + jpow() * field("A2", "_"),
    "rho": field("rho") * field("Z", "mu") * field("Z", "mu"),
    "phi1": imag() * field("eps3") * field("phi1") * field("W1", "mu") * field("W1", "mu")
    + field("phi2", conj=True) * field("Wp", "mu") * field("A3", "mu"),
}


def test_bodies_renamed_apart_match_the_built_products():
    e = parse("A1[mu] A2[mu] B[nu] B[nu] rho + d[nu]A1[mu] A2[mu] Z[nu] rho rho "
              "+ g A1[mu] d[mu]rho W3[nu] W3[nu] + conj(d[nu]phi1) phi1 A1[mu] Z[nu] B[mu]")
    assert {"mu", "nu"} <= {n for t in e.terms for f in t.factors for n in f.names()}
    assert any(FieldFactor("phi1", (), ("nu",), conj=True) in t.factors for t in e.terms)
    for kernel, reference in ((substitute, reference_substitute),
                              (first_order_variation, reference_first_order_variation)):
        got = kernel(e, CLASHING_RULES)
        assert got == reference(e, CLASHING_RULES)
        assert got == kernel(e, CLASHING_RULES)  # memoized bodies: the same result
        _assert_canonical(got)
    # each flipped flag of a conjugated body is resolved, as the canonical
    # form's memo key expects
    bodies = [_renamed_replacement(CLASHING_RULES[f.field], f)
              for t in e.terms for f in t.factors if f.field in CLASHING_RULES]
    assert any(f.conj for body in bodies for t in body for f in t.factors)
    for body in bodies:
        for t in body:
            assert all(f == f.canonical_conj() for f in t.factors)


# --- operations that keep each built term's factors -------------------------
# A sum, scaling by a factorless term, the regradings and the instantiation
# merge their terms without a canonical form; each must equal the build of
# the same raw terms, and leave every term's factors canonical.

def _raw_times(x, y):
    """The termwise product of two expressions' terms, indices as they stand."""
    return [Term(a.coeff * b.coeff, a.jdeg + b.jdeg, a.params + b.params, a.r2 + b.r2,
                 a.factors + b.factors) for a in x.terms for b in y.terms]


def _assert_canonical(e):
    for t in e.terms:
        assert _canonical_factors(t.factors)[0] == t.factors


def _outcome(thunk):
    """The expression a thunk returns, or the message of its IndexConflictError."""
    try:
        return thunk()
    except IndexConflictError as err:
        return str(err)


SCALARS = (
    const(Fraction(-3, 2)), const(ComplexRational(1, -2)), imag(), param("g"), param("s", 3),
    jpow(), jpow(3), inv_sqrt2(), param("R", 2) * jpow(2) * inv_sqrt2(),
)


def _pending_operands(e):
    """Makers of fresh pending expressions: an unread product, a field, a
    conjugate and a contraction, none built until its terms are read."""
    return (lambda: e * field("rho") * field("B", "nu") * field("B", "nu"),
            lambda: field("W1", "mu", derivs=("nu",)), lambda: conjugate(e),
            lambda: contract(e))


def test_scaling_merges_as_the_build(rng):
    for _ in range(150):
        e = random_expression(rng)
        _assert_canonical(e)
        for s in SCALARS:
            for got, x, y in ((e * s, e, s), (s * e, s, e), (s * (s * e), s, s * e)):
                assert got == Expression.build(_raw_times(x, y))
                _assert_canonical(got)
        for n in (-2, 0, 3):
            assert e * n == Expression.build(_raw_times(e, const(n)))
            assert n * e == Expression.build(_raw_times(const(n), e))
        for make in _pending_operands(e):
            s = rng.choice(SCALARS)
            x, y = make(), make()
            assert type(x) is type(y) is _Pending
            got, got_left = x * s, s * (-y)  # taken while their operands are unread
            assert got == Expression.build(_raw_times(x, s))
            assert got_left == Expression.build(_raw_times(s, -y))
            _assert_canonical(got)
            _assert_canonical(got_left)


def _sum_outcomes(make_x, make_y):
    """x + y and x - y of fresh operands from ``make_x`` and ``make_y``, each
    read before its operands, and the builds of the operands' terms."""
    x, y = make_x(), make_y()
    got = _outcome(lambda: x + y)
    assert got == _outcome(lambda: Expression.build(x.terms + y.terms))
    x, y = make_x(), make_y()
    difference = _outcome(lambda: x - y)
    negated = tuple(Term(-t.coeff, t.jdeg, t.params, t.r2, t.factors) for t in y.terms)
    assert difference == _outcome(lambda: Expression.build(x.terms + negated))
    for result in (got, difference):
        if isinstance(result, Expression):
            _assert_canonical(result)


def test_sums_merge_as_the_build(rng):
    for _ in range(300):
        e, f = random_expression(rng), random_expression(rng)
        pairs = [(e, f), (e, e), (e, -e), (e, jpow() * e), (e, const(2)), (f, param("gp") * e)]
        if e.free_indices() == f.free_indices():
            pairs += [(e, f - e), (e, f + e)]  # e's terms cancel, or add up
        for x, y in pairs:
            _sum_outcomes(lambda: x, lambda: y)
        # pending operands, against each other, built ones and themselves
        makers = _pending_operands(e) + _pending_operands(f)
        for make_x in makers:
            _sum_outcomes(make_x, rng.choice(makers + (make_x, lambda: e, lambda: f)))


def test_a_sum_of_different_free_indices_raises_the_build_error():
    a, b = field("A1", "mu"), field("B", "nu")
    for x, y in ((a, b), (b, a), (a, const(2)), (const(2), b),
                 (contract(a), jpow() * b), (a * field("rho"), conjugate(b))):
        with pytest.raises(IndexConflictError) as added:
            x + y
        with pytest.raises(IndexConflictError) as built:
            Expression.build(x.terms + y.terms)
        assert str(added.value) == str(built.value)
    # an operand that builds to zero, whatever its raw terms' free indices,
    # is dropped as the build drops it
    for zero in (field("B", "nu") - field("B", "nu"), field("B", "nu") * 0):
        assert zero + field("A1", "mu") == field("A1", "mu")
        assert field("A1", "mu") - zero == field("A1", "mu")


def test_regradings_merge_as_the_build(rng):
    for _ in range(300):
        e = random_expression(rng)
        e = e + jpow(2) * e * const(Fraction(1, 3))  # terms that differ in j-degree only
        contracted = contract(e)
        assert contracted == Expression.build([
            Term(t.coeff, t.jdeg + sum(FIELDS[f.field].grade for f in t.factors),
                 t.params, t.r2, t.factors) for t in e.terms])
        _assert_canonical(contracted)
        buckets = {}
        for t in e.terms:
            buckets.setdefault(t.jdeg, []).append(Term(t.coeff, 0, t.params, t.r2, t.factors))
        parts = j_decompose(e)
        assert parts == {d: Expression.build(ts) for d, ts in buckets.items()}
        for part in parts.values():
            _assert_canonical(part)


@pytest.mark.parametrize("mode", DEFAULT_MODES)
def test_mode_reduction_merges_as_the_build(rng, mode):
    for _ in range(200):
        e, f = random_expression(rng), random_expression(rng)
        for x in (e, e - jpow(2) * e, e + jpow() * e * const(Fraction(1, 2)),
                  jpow(3) * e - e, e * f):
            if mode.is_one:
                raw = [Term(t.coeff, 0, t.params, t.r2, t.factors) for t in x.terms]
            elif mode.is_nilpotent:
                raw = [t for t in x.terms if t.jdeg < 2]
            else:
                raw = [Term(t.coeff * ComplexRational(mode.value ** t.jdeg), 0, t.params, t.r2,
                            t.factors) for t in x.terms]
            got = reduce_mode(x, mode)
            assert got == Expression.build(raw)
            _assert_canonical(got)


def test_instantiation_merges_as_the_build(rng):
    choices = ({"g": Fraction(1)}, {"g": Fraction(2, 3), "R": Fraction(2)},
               {"gp": Fraction(0)}, {"g": Fraction(-1), "gp": Fraction(5), "R": Fraction(1, 2)})
    for _ in range(300):
        e = random_expression(rng)
        e = e - param("g", 2) * e + param("gp") * param("R") * e  # terms that meet
        values = rng.choice(choices)
        raw = []
        for t in e.terms:
            coeff, rest = t.coeff, []
            for name, exp in t.params:
                if name in values:
                    coeff = coeff * ComplexRational(values[name] ** exp)
                else:
                    rest.append((name, exp))
            raw.append(Term(coeff, t.jdeg, tuple(rest), t.r2, t.factors))
        got = instantiate_params(e, values)
        assert got == Expression.build(raw)
        _assert_canonical(got)


# --- normal form on the group SU(2;j) ----------------------------------------

GROUP_SYMBOLS = (
    field("alpha"), field("alpha", conj=True), field("beta"), field("beta", conj=True),
)


def _random_group_polynomial(rng):
    """A sum of monomials in alpha, beta, their conjugates, j and phi1."""
    total = Expression.zero()
    for _ in range(rng.randint(1, 4)):
        m = const(ComplexRational(rng.randint(-4, 4), rng.randint(-2, 2)))
        m = m * jpow(rng.randint(0, 3))
        for _ in range(rng.randint(0, 6)):
            m = m * rng.choice(GROUP_SYMBOLS)
        if rng.random() < 0.3:
            m = m * field("phi1")
        total = total + m
    return total


@pytest.mark.parametrize("mode", [J_ONE, J_NILPOTENT])
def test_group_normal_form_agrees_at_group_points(rng, mode):
    """An expression and its normal form take the same value at exact group
    points; at j=iota beta lies far outside a small box."""
    for _ in range(60):
        e = _random_group_polynomial(rng)
        nf = group_normal_form(e, mode)
        assert nf == reference_group_normal_form(e, mode)
        for f in nf.terms:  # alpha conj(alpha) is rewritten away
            assert not {FieldFactor("alpha"), FieldFactor("alpha", conj=True)} <= set(f.factors)
        for _ in range(3):
            a, b = exact_group_point(rng, mode)
            point = {"alpha": const(a), "beta": const(b)}
            assert (reduce_mode(substitute(e, point), mode)
                    == reduce_mode(substitute(nf, point), mode))


@pytest.mark.parametrize("mode", DEFAULT_MODES)
def test_group_normal_form_with_j_kept_reduces_to_each_mode(rng, mode):
    """One normal form with j kept, reduced in a mode, equals the form built
    from raw products reduced in that mode first: fixing j, or truncating
    at iota, commutes with the build."""
    for _ in range(60):
        e = _random_group_polynomial(rng)
        assert (reduce_mode(group_normal_form_j(e), mode)
                == reduce_first_group_normal_form(e, mode))


@pytest.mark.parametrize("mode", [J_ONE, J_NILPOTENT])
def test_defining_relation_has_zero_normal_form(mode):
    for a, b in (("alpha", "beta"), ("alpha2", "beta2")):
        relation = (field(a) * field(a, conj=True)
                    + jpow(2) * field(b) * field(b, conj=True) - 1)
        assert group_normal_form(relation, mode).is_zero()
        assert group_normal_form(relation * field("phi2") * field(a), mode).is_zero()
    # only the relation is used: |alpha|^2 alone is not 1 at j=1
    assert group_normal_form(field("alpha") * field("alpha", conj=True) - 1, J_ONE) == (
        -field("beta") * field("beta", conj=True)
    )
