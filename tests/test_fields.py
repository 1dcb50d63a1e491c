"""Field algebra: canonical forms, Leibniz calculus, substitution, grading."""

import random
from fractions import Fraction

import pytest

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
    derive,
    divide_by_j,
    field,
    instantiate_params,
    j_decompose,
    jpow,
    param,
    parse,
    reduce_mode,
    substitute,
)
from ewverify.fields import (
    FieldFactor,
    UnknownFieldError,
    _canonical_factors,
    _prepare_replacement,
    euler_lagrange,
    first_order_variation,
    group_normal_form,
    imag,
    inv_sqrt2,
)

from ewverify.model import DEFAULT_CONFIG, build_L27

from helpers import (
    exact_group_point,
    random_expression,
    random_term,
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
    from ewverify.fields import Term

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


def test_built_factors_are_valid_factors(rng):
    """Factors renamed or resolved without validation still pass it, with
    their derivative tags sorted."""
    lagrangian = build_L27(DEFAULT_CONFIG)
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


def test_prepared_replacement_memo_matches_the_unmemoized_form():
    body = field("A3", "_") * field("B", "nu") * field("W2", "nu")
    for f in (FieldFactor("A2", ("mu",)), FieldFactor("A2", ("mu",), ("nu", "al")),
              FieldFactor("Wp", ("nu",), ("mu",), conj=True)):
        prepared = _prepare_replacement(body, f)
        assert prepared == _prepare_replacement.__wrapped__(body, f)
        assert _prepare_replacement(body, f) is prepared
    _prepare_replacement.cache_clear()
    for _ in range(2):  # the memo keeps no error
        with pytest.raises(ArityError):
            _prepare_replacement(field("rho"), FieldFactor("W3", ("mu",)))
    assert _prepare_replacement.cache_info().currsize == 0


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
