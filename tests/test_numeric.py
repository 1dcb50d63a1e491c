"""Numeric evaluation and the randomized equality oracle."""

import random

import pytest

from ewverify import (
    Expression,
    FieldSample,
    MissingAssignmentError,
    assignment_from_components,
    build_L27,
    equals,
    eval_expression,
    j_decompose,
    parse,
)
from ewverify.model import float_config
from ewverify.numeric import DIMENSION, REL_TOL

from helpers import random_expression, reference_eval

SEED = 20210  # oracle seed for the equality tests


def test_eval_contracted_square():
    e = parse("B[mu] B[mu]")
    assignment = assignment_from_components({"B": [1, 2, 3, 4]})
    assert eval_expression(e, assignment) == pytest.approx(30 + 0j)


def test_eval_zero():
    assert eval_expression(Expression.zero(), FieldSample(1)) == 0j


def test_eval_requires_full_assignment():
    e = parse("B[mu] B[mu] + rho rho")
    assignment = assignment_from_components({"B": [1, 2, 3, 4]})
    with pytest.raises(MissingAssignmentError):
        eval_expression(e, assignment)
    # the parameter check holds on every call, not only the one that
    # compiles the expression's plan
    e = parse("g rho + rho rho")
    for params in (None, None, {"g": 1.5}, None):
        if params is None:
            with pytest.raises(MissingAssignmentError, match="parameter g"):
                eval_expression(e, FieldSample(0))
        else:
            assert eval_expression(e, FieldSample(0), params) != 0j


def test_eval_free_indices():
    e = parse("B[mu]")
    assignment = assignment_from_components({"B": [5, 6, 7, 8]})
    assert eval_expression(e, assignment, free_values={"mu": 2}) == 7 + 0j
    for binding in (None, None, {"nu": 2}):
        with pytest.raises(MissingAssignmentError, match="free index mu"):
            eval_expression(e, assignment, free_values=binding)


def test_conjugate_pair_values_mirror():
    sample = FieldSample(3)
    wp = sample.value("Wp", (1,), (), False)
    wm = sample.value("Wm", (1,), (), False)
    assert wm == wp.conjugate()
    phi = sample.value("phi1", (), (), False)
    assert sample.value("phi1", (), (), True) == phi.conjugate()


def test_equals_exact_path():
    a = parse("Z[mu] B[mu]")
    res = equals(a, parse("Z[nu] B[nu]"), SEED)
    assert res.equal and res.decision_path == "exact-symbolic"


def test_equals_relabel_symmetric_products():
    lhs = parse("d[mu]W+[nu] d[mu]W-[nu]") * parse("Z[al] Z[al]")
    rhs = parse("Z[be] Z[be]") * parse("d[ka]W-[la] d[ka]W+[la]")
    res = equals(lhs, rhs, SEED)
    assert res.equal and res.decision_path == "exact-symbolic"


def test_equals_distinguishes_expressions():
    res = equals(parse("B[mu] B[mu]"), parse("2 B[mu] B[mu]"), SEED)
    assert not res.equal
    assert res.decision_path == "numeric-oracle"
    assert res.witness is not None
    # grading-aware: same j=1 collapse, different grades
    res = equals(parse("j^2 rho rho"), parse("rho rho"), SEED)
    assert not res.equal


def test_equals_agreement_is_sound(rng):
    """Canonically equal expressions agree numerically (soundness spot check)."""
    for _ in range(50):
        e = random_expression(rng)
        if e.free_indices():
            continue
        shuffled = Expression.build(tuple(reversed(e.terms)))
        res = equals(e, shuffled, SEED)
        assert res.equal and res.decision_path == "exact-symbolic"
        sample = FieldSample(rng.randrange(2**32))
        params = {"g": 1.3, "gp": 0.7, "R": 2.1}
        va = eval_expression(e, sample, params)
        vb = eval_expression(shuffled, sample, params)
        assert va == pytest.approx(vb, rel=1e-9, abs=1e-12)


def test_equals_policy_tolerance():
    a = parse("B[mu] B[mu]")
    b = a + parse("1/100000 B[nu] B[nu]")
    strict = equals(a, b, SEED)
    assert not strict.equal
    assert strict.max_rel_error > REL_TOL


def _assert_matches_reference(exprs, seed, params=None, free_values=None):
    """Evaluate ``exprs`` in order on one shared sample, twice (plan compiled,
    then memoized), against the reference on a sample of the same seed: the
    values and the sample's draw order must be identical."""
    ref_sample = FieldSample(seed)
    want = [reference_eval(e, ref_sample, params, free_values) for e in exprs]
    for _ in range(2):
        sample = FieldSample(seed)
        got = [eval_expression(e, sample, params, free_values) for e in exprs]
        assert got == want
        assert list(sample._values.items()) == list(ref_sample._values.items())


def test_eval_matches_reference_on_random_expressions(rng):
    params = {"g": 1.3, "gp": 0.7, "R": 2.1}
    for _ in range(200):
        e = random_expression(rng)
        free_values = {n: rng.randrange(DIMENSION) for n in sorted(e.free_indices())}
        _assert_matches_reference([e], rng.randrange(2**32), params, free_values)


def test_eval_matches_reference_on_the_lagrangian_parts():
    cfg = float_config(1.3, 0.7, 2.1)
    parts = j_decompose(build_L27(cfg))
    exprs = [parts[0], parts[2], parts[4]]  # base, fiber, quartic
    params = {"s": float(cfg.s_value())}  # the irrational s stays a symbol
    for seed in range(5):
        for e in exprs:
            _assert_matches_reference([e], seed, params)
        # one sample shared across the three parts, as the sweep draws it
        _assert_matches_reference(exprs, seed, params)
