"""Numeric evaluation, and the exact equality that the benchmark tracer hooks."""

import random

import pytest

from ewverify import (
    Expression,
    MissingAssignmentError,
    ModelConfig,
    build_L27,
    eval_expression,
    j_decompose,
    numeric,
)
from ewverify.numeric import _plan, compile_layout, draw, equals

from helpers import (FieldSample, assignment_from_components, parse, random_expression,
                     reference_eval)


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
    """Only scalars are evaluated: a free index is rejected on every call,
    not only the one that would compile the plan."""
    assignment = assignment_from_components({"B": [5, 6, 7, 8], "rho": 2})
    for text in ("B[mu]", "rho B[mu] Z[nu] Z[nu]"):
        for _ in range(2):
            with pytest.raises(MissingAssignmentError, match="free index"):
                eval_expression(parse(text), assignment)


def test_conjugate_pair_values_mirror():
    sample = FieldSample(3)
    wp, wm, phi, phi_conj = sample.values([
        ("Wp", (1,), (), False),
        ("Wm", (1,), (), False),
        ("phi1", (), (), False),
        ("phi1", (), (), True),
    ])
    assert wm == wp.conjugate()
    assert phi_conj == phi.conjugate()


def test_batched_values_draw_as_single_lookups():
    """``values`` on a batch of plan keys returns, and draws in the same
    order, what one single-key lookup per key returns."""
    walk = [
        ("Wm", (2,), (), False),
        ("Wp", (2,), (), False),
        ("phi1", (), (), True),
        ("eps2", (), (1, 3), False),
        ("B", (0,), (), False),
        ("phi1", (), (), True),
        ("eps2", (), (1, 3), False),
        ("Wm", (1,), (0,), True),
    ]
    batched, single = FieldSample(17), FieldSample(17)
    assert batched.values(walk) == [single.values((k,))[0] for k in walk]
    assert list(batched._values.items()) == list(single._values.items())
    # _plan stores the sorted form: d[mu]d[nu] at (3, 1) is the (1, 3)
    # instance, so the 16 combinations name 10 distinct instances
    _, keys = _plan(parse("d[mu]d[nu]eps2 B[mu] B[nu]"))
    derivs = [d for f, _, d, _ in keys if f == "eps2"]
    assert len(derivs) == 10 and all(d == tuple(sorted(d)) for d in derivs)


def test_shared_draw_matches_lazy_lookups(rng):
    """``draw`` over a layout of several expressions hands each one the
    values that one lazy sample of the same seed returns for it, looked up
    expression after expression, and draws nothing that sample does not."""
    params = {"g": 1.3, "gp": 0.7, "R": 2.1}
    exprs = _scalar_expressions(rng, 60, random_expression, params)
    # W- mirrors W+: both name one drawn instance
    exprs.append(parse("W-[mu] W+[mu] d[nu]W+[nu] + W-[mu] d[nu]W+[mu] W-[nu] + phi1 rho"))
    for start in range(0, len(exprs), 3):
        group = exprs[start:start + 3]
        layout = compile_layout(group)
        seed = rng.randrange(2**32)
        lazy, walked = FieldSample(seed), FieldSample(seed)
        for e, drawn in zip(group, draw(layout, seed)):
            keys = _plan(e)[1]
            assert drawn.values(keys) == lazy.values(keys)
            assert eval_expression(e, drawn, params) == reference_eval(e, walked, params)
        assert len(layout[0]) == len(lazy._values)


def _sweep_parts():
    cfg = ModelConfig(g=1.234, gp=0.567, R=2.345, exact=False)
    parts = j_decompose(build_L27(cfg))
    return [parts[0], parts[2], parts[4]]  # base, fiber, quartic


def _bits(values) -> list:
    return [(z.real.hex(), z.imag.hex()) for z in values]


def _assert_draw_is_gauss(exprs, seeds):
    """Each expression's view of ``draw``, and of its conjugate's view, holds
    to the last bit what ``Random.gauss`` draws for it in a lazy sample of
    the same seed.  Returns the layout's Gaussian count."""
    exprs = exprs + [e.conjugate() for e in exprs]
    layout = compile_layout(exprs)
    at, _, _, pairs = layout
    gaussians = sum(1 if im == 0 else 2 for _, im in at)  # a real one's im is 0.0's
    assert pairs == (gaussians + 1) // 2
    for seed in seeds:
        lazy = FieldSample(seed)
        for e, drawn in zip(exprs, draw(layout, seed)):
            keys = _plan(e)[1]
            assert _bits(drawn.values(keys)) == _bits(lazy.values(keys))
        assert len(lazy._values) == len(at)
    return gaussians


@pytest.mark.parametrize("texts, gaussians", [
    (None, 85),  # the sweep's three parts: 45 real and 20 complex instances
    (("W+[mu] W-[mu] d[nu]rho d[nu]rho", "conj(phi1) phi2 + eps1"), 17),
    (("W+[mu] W-[mu] + phi1 eps2", "d[mu]W+[nu] d[mu]W-[nu] + rho"), 44),
    (("B[mu] Z[mu] + d[mu]rho d[mu]eps3", "rho eps1 + 3 omega"), 19),
    (("B[mu] B[mu]", "A1[mu] A2[mu] + eps1 eps2"), 14),
    (("3/2", "0"), 0),
])
def test_draw_is_gauss_bit_for_bit(rng, texts, gaussians):
    """Odd and even Gaussian counts, all-real layouts and the empty layout
    of constant expressions; bits, unlike ``==``, tell -0.0 from 0.0."""
    exprs = _sweep_parts() if texts is None else [parse(t) for t in texts]
    seeds = [rng.randrange(2**32) for _ in range(20)]
    assert _assert_draw_is_gauss(exprs, seeds) == gaussians


class _ZeroFirst(random.Random):
    """A Random whose first two Box-Muller pairs have radius -0.0 (the
    second ``random()`` of each is 0.0), so their four Gaussians are -0.0
    until ``Random.gauss`` adds them to 0.0."""

    def __init__(self, seed):
        self.script = [0.0, 0.0, 0.25, 0.0]
        super().__init__(seed)

    def random(self):
        return self.script.pop(0) if self.script else super().random()


def test_draw_adds_gauss_zero_to_a_negative_zero(monkeypatch):
    monkeypatch.setattr(random, "Random", _ZeroFirst)  # what FieldSample draws with
    monkeypatch.setattr(numeric, "Random", _ZeroFirst)
    exprs = [parse("rho eps1 + eps2 eps3 + conj(phi1) phi1")]
    assert _assert_draw_is_gauss(exprs, [3]) == 6
    # the first four keys are real instances, drawn from those four zeros
    assert _bits(FieldSample(3).values(_plan(exprs[0])[1]))[:4] == [
        ("0x0.0p+0", "0x0.0p+0")] * 4


def test_equals_exact_path():
    a = parse("Z[mu] B[mu]")
    res = equals(a, parse("Z[nu] B[nu]"))
    assert res.equal and res.decision_path == "exact-symbolic"


def test_equals_relabel_symmetric_products():
    lhs = parse("d[mu]W+[nu] d[mu]W-[nu]") * parse("Z[al] Z[al]")
    rhs = parse("Z[be] Z[be]") * parse("d[ka]W-[la] d[ka]W+[la]")
    res = equals(lhs, rhs)
    assert res.equal and res.decision_path == "exact-symbolic"


def test_equals_distinguishes_expressions():
    a, b = parse("B[mu] B[mu]"), parse("2 B[mu] B[mu]")
    res = equals(a, b)
    assert not res.equal
    assert res.decision_path == "exact-symbolic"
    assert res.witness == str(a - b)
    # grading-aware: same j=1 collapse, different grades
    res = equals(parse("j^2 rho rho"), parse("rho rho"))
    assert not res.equal
    # the witness is cut to 200 characters, as a report's is
    root = parse("B[mu] B[mu] + Z[nu] Z[nu] + rho + eps1 + 3 eps2 + 5 eps3")
    res = equals(root * root, Expression.zero())
    assert len(str(root * root)) > 200 and res.witness == str(root * root)[:200]


def test_equals_agreement_is_sound(rng):
    """Canonically equal expressions agree numerically (soundness spot check)."""
    for _ in range(50):
        e = random_expression(rng)
        if e.free_indices():
            continue
        shuffled = Expression.build(tuple(reversed(e.terms)))
        res = equals(e, shuffled)
        assert res.equal and res.decision_path == "exact-symbolic"
        sample = FieldSample(rng.randrange(2**32))
        params = {"g": 1.3, "gp": 0.7, "R": 2.1}
        va = eval_expression(e, sample, params)
        vb = eval_expression(shuffled, sample, params)
        assert va == pytest.approx(vb, rel=1e-9, abs=1e-12)


def test_equals_policy_tolerance():
    a = parse("B[mu] B[mu]")
    b = a + parse("1/100000 B[nu] B[nu]")
    strict = equals(a, b)
    assert not strict.equal


def _assert_matches_reference(exprs, seed, params=None):
    """Evaluate ``exprs`` in order on one shared sample, twice (plan compiled,
    then memoized), against the reference on a sample of the same seed: the
    values and the sample's draw order must be identical."""
    ref_sample = FieldSample(seed)
    want = [reference_eval(e, ref_sample, params) for e in exprs]
    for _ in range(2):
        sample = FieldSample(seed)
        got = [eval_expression(e, sample, params) for e in exprs]
        assert got == want
        assert list(sample._values.items()) == list(ref_sample._values.items())


def _scalar_expressions(rng, count, draw, params):
    """``count`` scalar expressions from ``draw(rng)``; each free-index one
    drawn on the way must be rejected, by the reference too."""
    scalars = []
    while len(scalars) < count:
        e = draw(rng)
        if not e.free_indices():
            scalars.append(e)
            continue
        for evaluate in (eval_expression, reference_eval):
            with pytest.raises(MissingAssignmentError, match="free index"):
                evaluate(e, FieldSample(0), params)
    return scalars


def test_eval_matches_reference_on_random_expressions(rng):
    params = {"g": 1.3, "gp": 0.7, "R": 2.1}
    for e in _scalar_expressions(rng, 200, random_expression, params):
        _assert_matches_reference([e], rng.randrange(2**32), params)


def test_eval_matches_reference_on_the_lagrangian_parts():
    cfg = ModelConfig(g=1.3, gp=0.7, R=2.1, exact=False)
    parts = j_decompose(build_L27(cfg))
    exprs = [parts[0], parts[2], parts[4]]  # base, fiber, quartic
    params = {"s": float(cfg.s_value())}  # the irrational s stays a symbol
    for seed in range(5):
        for e in exprs:
            _assert_matches_reference([e], seed, params)
        # one sample shared across the three parts, as the sweep draws it
        _assert_matches_reference(exprs, seed, params)


def test_eval_matches_reference_beyond_the_unrolled_arities(rng):
    """Products of two random expressions carry terms of up to 8 factors,
    and a constant term has none: both leave the unrolled 2-4 factor paths."""
    params = {"g": 1.3, "gp": 0.7, "R": 2.1}
    product = lambda r: random_expression(r) * random_expression(r)  # noqa: E731
    for e in _scalar_expressions(rng, 30, product, params):
        _assert_matches_reference([e], rng.randrange(2**32), params)
    e = parse("3/2 + g rho + rho eps1 d[mu]eps2 d[nu]eps3 B[mu] Z[nu]")
    assert sorted(len(t.factors) for t in e.terms) == [0, 1, 6]
    _assert_matches_reference([e], 5, params)
