"""SU(2;j) matrix layer: generators, group elements, group axioms."""

from fractions import Fraction

import pytest

from ewverify import (
    ComplexRational,
    DivisionUndefinedError,
    J_NILPOTENT,
    J_ONE,
    JMode,
    Mat2,
    const,
    divide_by_j,
    jpow,
    matrices,
    reduce_mode,
    verify_group,
)
from ewverify.contraction import DEFAULT_MODES
from ewverify.matrices import symbolic_element, symbolic_lie_element

from helpers import (NotUnimodularError, exact_group_point, mat_at, mat_is_zero, mat_reduce,
                     mat_sub, su2_element)

CR = ComplexRational
NUMERIC = JMode.numeric(Fraction(1, 1000))
ZERO = const(0)
IDENTITY = Mat2(((const(1), ZERO), (ZERO, const(1))))


def cst(re, im=0, deg=0):
    """The constant (re + im i) j^deg."""
    return const(CR(re, im)) * jpow(deg)


def lie(a1, a2, a3, mode):
    """The Lie element the checks use, at eps = (a1, a2, a3)."""
    return mat_at(symbolic_lie_element(), {"eps1": a1, "eps2": a2, "eps3": a3}, mode)


def generator(k, mode):
    return lie(*(int(n == k) for n in (1, 2, 3)), mode)


def commutator(x, y, mode):
    return mat_reduce(mat_sub(x @ y, y @ x), mode)


def pauli_generator(k):
    """Independent construction of the generators from the Pauli matrices."""
    i2 = Fraction(1, 2)
    if k == 1:
        return Mat2(((cst(0), cst(0, i2, 1)), (cst(0, i2, 1), cst(0))))
    if k == 2:
        return Mat2(((cst(0), cst(i2, 0, 1)), (cst(-i2, 0, 1), cst(0))))
    return Mat2(((cst(0, i2), cst(0)), (cst(0), cst(0, -i2))))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_generators_match_pauli_construction(k):
    for mode in (J_ONE, J_NILPOTENT, NUMERIC):
        assert generator(k, mode).rows == mat_reduce(pauli_generator(k), mode).rows


def test_generator_vanishes_at_zero_j():
    zero_j = JMode.numeric(0)
    assert mat_is_zero(generator(1, zero_j))
    assert generator(3, zero_j)[0, 0] == cst(0, Fraction(1, 2))


COMMUTATOR_TABLE = [
    # [T_a, T_b] = coefficient * j^power * T_c
    (1, 2, 3, -1, 2),
    (3, 1, 2, -1, 0),
    (2, 3, 1, -1, 0),
]


def scaled(weight, m):
    return Mat2(((weight, ZERO), (ZERO, weight))) @ m


@pytest.mark.parametrize("a,b,c,sign,jp", COMMUTATOR_TABLE)
@pytest.mark.parametrize("mode", [J_ONE, J_NILPOTENT])
def test_commutator_table_exact(a, b, c, sign, jp, mode):
    got = commutator(generator(a, mode), generator(b, mode), mode)
    expected = mat_reduce(scaled(cst(sign, 0, jp), pauli_generator(c)), mode)
    assert mat_is_zero(mat_sub(got, expected))


@pytest.mark.parametrize("a,b,c,sign,jp", COMMUTATOR_TABLE)
def test_commutator_table_numeric(a, b, c, sign, jp):
    """j = 1/1000 is folded in exactly: the residue is zero, not small."""
    got = commutator(generator(a, NUMERIC), generator(b, NUMERIC), NUMERIC)
    expected = scaled(const(sign * NUMERIC.value**jp), generator(c, NUMERIC))
    assert mat_is_zero(mat_sub(got, expected))


def test_nilpotent_mode_t1_t2_commute():
    got = commutator(generator(1, J_NILPOTENT), generator(2, J_NILPOTENT), J_NILPOTENT)
    assert mat_is_zero(got)


def test_lie_element_examples():
    assert lie(0, 0, 2, J_ONE).rows == ((cst(0, 1), cst(0)), (cst(0), cst(0, -1)))
    half = Fraction(1, 2)
    assert lie(1, 1, 1, J_ONE).rows == (
        (cst(0, half), cst(half, half)),
        (cst(-half, half), cst(0, -half)),
    )
    assert lie(1, 1, 1, J_NILPOTENT)[0, 1] == cst(half, half, 1)


@pytest.mark.parametrize("element", ["lie", "group"])
def test_off_diagonal_entries_divide_by_j(element):
    """The grade-1 directions sit off the diagonal: those entries carry j in
    every term and divide by it, and the diagonal entries do not."""
    m = symbolic_lie_element() if element == "lie" else symbolic_element("alpha", "beta")
    for r, c in ((0, 1), (1, 0)):
        assert jpow() * divide_by_j(m[r, c]) == m[r, c]
    for k in (0, 1):
        with pytest.raises(DivisionUndefinedError):
            divide_by_j(m[k, k])


def test_lie_elements_antihermitian(rng):
    for mode in (J_ONE, J_NILPOTENT):
        for _ in range(50):
            t = lie(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9), mode)
            assert mat_is_zero(mat_reduce(t + t.dagger(), mode))


def test_su2_element_validation():
    # |alpha|^2 + |beta|^2 = 9/25 + 16/25 = 1
    omega = su2_element(CR(Fraction(3, 5)), CR(0, Fraction(4, 5)), J_ONE)
    assert reduce_mode(omega.det(), J_ONE) == const(1)
    with pytest.raises(NotUnimodularError):
        su2_element(CR(Fraction(3, 5)), CR(0, Fraction(4, 5)), J_NILPOTENT)
    # at j=iota only |alpha| = 1 is required, beta is free
    omega = su2_element(CR(1), CR(Fraction(7, 2), 3), J_NILPOTENT)
    assert reduce_mode(omega.det(), J_NILPOTENT) == const(1)
    with pytest.raises(NotUnimodularError):
        su2_element(CR(2), CR(0), J_ONE)


def test_su2_element_rejects_a_numeric_mode():
    # (1, 0) is unimodular at every j; the mode alone is refused
    with pytest.raises(ValueError, match="exact mode") as info:
        su2_element(CR(1), CR(0), NUMERIC)
    assert not isinstance(info.value, NotUnimodularError)


def test_identity_element():
    assert su2_element(CR(1), CR(0), J_ONE).rows == IDENTITY.rows
    x = lie(2, 3, 4, J_ONE)
    assert (IDENTITY @ x).rows == x.rows


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
        assert mat_is_zero(mat_reduce(mat_sub(prod, expected), J_NILPOTENT))
        # inverse = conjugate transpose stays in the set
        omega = su2_element(a1, b1, J_NILPOTENT)
        assert mat_is_zero(mat_reduce(mat_sub(omega @ omega.dagger(), IDENTITY), J_NILPOTENT))


def test_form_invariance_under_group_action(rng):
    """|phi1|^2 + j^2 |phi2|^2 is kept by the group element acting on the
    column (phi1, j phi2), at exact points; an independent check, with
    constant entries, of the identity the group check decides symbolically."""
    def form(v):
        return (v.dagger() @ v)[0, 0]

    def component():
        return cst(Fraction(rng.randint(-50, 50), rng.randint(1, 9)),
                 Fraction(rng.randint(-50, 50), rng.randint(1, 9)))

    for mode in (J_ONE, J_NILPOTENT):
        for _ in range(100):
            omega = su2_element(*exact_group_point(rng, mode), mode)
            phi = Mat2(((component(), ZERO), (jpow() * component(), ZERO)))
            assert reduce_mode(form(omega @ phi), mode) == reduce_mode(form(phi), mode)


@pytest.mark.parametrize("mode", [J_ONE, J_NILPOTENT, NUMERIC])
def test_verify_group_passes(mode):
    """Every mode decides every group element at once, by the normal form."""
    report = verify_group(mode)
    assert report.passed
    assert report.decision_path == "exact-symbolic"
    assert report.max_abs_error == 0.0
    assert report.witness is None


def test_verify_group_builds_the_axioms_once_for_every_mode(monkeypatch):
    """The axioms and their normal forms with j kept are built once per
    process: the three default modes make as many matrix products as one."""
    matmul, calls = Mat2.__matmul__, []
    monkeypatch.setattr(Mat2, "__matmul__", lambda a, b: calls.append(1) or matmul(a, b))
    verify_group(J_ONE)
    one_mode = len(calls)
    matrices._axiom_forms.cache_clear()
    calls.clear()
    for mode in DEFAULT_MODES:
        assert verify_group(mode).passed
    assert len(calls) == one_mode > 0


def test_trace_product_is_the_trace_of_the_product():
    h, f = symbolic_element("alpha", "beta"), symbolic_lie_element()
    for x, y in ((h, f), (f, h), (h.dagger(), h), (f, f)):
        xy = x @ y
        assert x.trace_product(y) == xy[0, 0] + xy[1, 1]
