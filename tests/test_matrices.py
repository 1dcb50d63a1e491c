"""SU(2;j) matrix layer: generators, group elements, group axioms."""

import random
from fractions import Fraction

import pytest

from ewverify import (
    ComplexRational,
    ContractionScalar,
    J_NILPOTENT,
    J_ONE,
    JMode,
    Mat2,
    NotUnimodularError,
    commutator,
    generator,
    lie_element,
    su2_element,
    verify_group,
)
from ewverify.matrices import max_abs_entry

from helpers import exact_group_point

CS = ContractionScalar
CR = ComplexRational
NUMERIC = JMode.numeric(Fraction(1, 1000))


def cs(re, im=0, deg=0):
    return CS.term(CR(re, im), deg)


def pauli_generator(k):
    """Independent construction of the generators from the Pauli matrices."""
    i2 = Fraction(1, 2)
    if k == 1:
        return Mat2(((cs(0), cs(0, i2, 1)), (cs(0, i2, 1), cs(0))))
    if k == 2:
        return Mat2(((cs(0), cs(i2, 0, 1)), (cs(-i2, 0, 1), cs(0))))
    return Mat2(((cs(0, i2), cs(0)), (cs(0), cs(0, -i2))))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_generators_match_pauli_construction(k):
    for mode in (J_ONE, J_NILPOTENT):
        assert generator(k, mode) == pauli_generator(k).reduce(mode)


def test_generator_vanishes_at_zero_j():
    t1 = generator(1, JMode.numeric(0))
    assert max_abs_entry(t1) == 0.0
    t3 = generator(3, JMode.numeric(0))
    assert t3[0, 0] == 0.5j


COMMUTATOR_TABLE = [
    # [T_a, T_b] = coefficient * j^power * T_c
    (1, 2, 3, -1, 2),
    (3, 1, 2, -1, 0),
    (2, 3, 1, -1, 0),
]


@pytest.mark.parametrize("a,b,c,sign,jp", COMMUTATOR_TABLE)
@pytest.mark.parametrize("mode", [J_ONE, J_NILPOTENT])
def test_commutator_table_exact(a, b, c, sign, jp, mode):
    got = commutator(generator(a, mode), generator(b, mode), mode)
    weight = CS.term(sign, jp).reduce(mode)
    expected = pauli_generator(c).scale(weight).reduce(mode)
    assert (got - expected).reduce(mode).is_zero()


@pytest.mark.parametrize("a,b,c,sign,jp", COMMUTATOR_TABLE)
def test_commutator_table_numeric(a, b, c, sign, jp):
    got = commutator(generator(a, NUMERIC), generator(b, NUMERIC), NUMERIC)
    eps = float(Fraction(1, 1000))
    expected = generator(c, NUMERIC).scale(sign * eps**jp)
    assert max_abs_entry(got - expected) <= 1e-12


def test_nilpotent_mode_t1_t2_commute():
    got = commutator(generator(1, J_NILPOTENT), generator(2, J_NILPOTENT), J_NILPOTENT)
    assert got.is_zero()


def test_lie_element_examples():
    assert lie_element(0, 0, 2, J_ONE) == Mat2(((cs(0, 1), cs(0)), (cs(0), cs(0, -1))))
    m = lie_element(1, 1, 1, J_ONE)
    half = Fraction(1, 2)
    assert m == Mat2((
        (cs(0, half), cs(half, half)),
        (cs(-half, half), cs(0, -half)),
    ))
    m_nil = lie_element(1, 1, 1, J_NILPOTENT)
    assert m_nil[0, 1] == cs(half, half, 1)


def test_lie_elements_antihermitian(rng):
    for mode in (J_ONE, J_NILPOTENT):
        for _ in range(50):
            t = lie_element(
                rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9), mode
            )
            assert (t + t.dagger()).reduce(mode).is_zero()


def test_su2_element_validation():
    # |alpha|^2 + |beta|^2 = 9/25 + 16/25 = 1
    omega = su2_element(CR(Fraction(3, 5)), CR(0, Fraction(4, 5)), J_ONE)
    assert omega.det().reduce(J_ONE) == CS.one()
    with pytest.raises(NotUnimodularError):
        su2_element(CR(Fraction(3, 5)), CR(0, Fraction(4, 5)), J_NILPOTENT)
    # at j=iota only |alpha| = 1 is required, beta is free
    omega = su2_element(CR(1), CR(Fraction(7, 2), 3), J_NILPOTENT)
    assert omega.det().reduce(J_NILPOTENT) == CS.one()
    with pytest.raises(NotUnimodularError):
        su2_element(CR(2), CR(0), J_ONE)


def test_su2_element_rejects_a_numeric_mode():
    # (1, 0) is unimodular at every j; the mode alone is refused
    with pytest.raises(ValueError, match="exact mode") as info:
        su2_element(CR(1), CR(0), NUMERIC)
    assert not isinstance(info.value, NotUnimodularError)


def test_identity_element():
    assert su2_element(CR(1), CR(0), J_ONE) == Mat2.identity()
    ident = Mat2.identity()
    x = lie_element(2, 3, 4, J_ONE)
    assert ident @ x == x


def test_nilpotent_closure_formula(rng):
    """Product of two contracted elements follows the dual-number formula
    alpha3 = alpha1 alpha2, beta3 = alpha1 beta2 + beta1 conj(alpha2)."""
    for _ in range(50):
        a1, b1 = exact_group_point(rng, J_NILPOTENT)
        a2, b2 = exact_group_point(rng, J_NILPOTENT)
        prod = su2_element(a1, b1, J_NILPOTENT) @ su2_element(a2, b2, J_NILPOTENT)
        expected = su2_element(
            a1 * a2, a1 * b2 + b1 * a2.conjugate(), J_NILPOTENT
        )
        assert (prod - expected).reduce(J_NILPOTENT).is_zero()
        # inverse = conjugate transpose stays in the set
        omega = su2_element(a1, b1, J_NILPOTENT)
        assert (omega @ omega.dagger() - Mat2.identity()).reduce(J_NILPOTENT).is_zero()


def test_form_invariance_under_group_action(rng):
    """|phi1|^2 + j^2 |phi2|^2 is kept by the group element acting on the
    column (phi1, j phi2), at exact points; an independent check, in the
    contraction ring, of the identity the group check decides symbolically."""
    def form(v):
        return (v.dagger() @ v)[0, 0]

    def component():
        return cs(Fraction(rng.randint(-50, 50), rng.randint(1, 9)),
                  Fraction(rng.randint(-50, 50), rng.randint(1, 9)))

    for mode in (J_ONE, J_NILPOTENT):
        for _ in range(100):
            omega = su2_element(*exact_group_point(rng, mode), mode)
            phi = Mat2(((component(), 0), (CS.j() * component(), 0)))
            assert form(omega @ phi).reduce(mode) == form(phi).reduce(mode)


@pytest.mark.parametrize("mode", [J_ONE, J_NILPOTENT, NUMERIC])
def test_verify_group_passes(mode):
    """Every mode decides every group element at once, by the normal form."""
    report = verify_group(mode)
    assert report.passed
    assert report.decision_path == "exact-symbolic"
    assert report.max_abs_error == 0.0
    assert report.witness is None
