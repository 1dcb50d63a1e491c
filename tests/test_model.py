"""Lagrangian construction, physical basis, masses, invariances."""

import math
import random
from fractions import Fraction

import pytest

from ewverify import (
    ComplexRational,
    jpow,
    J_NILPOTENT,
    J_ONE,
    JMode,
    Mat2,
    ModelConfig,
    ParameterError,
    build_L27,
    build_LA,
    build_Lphi,
    build_matter_radial,
    check_su2_invariance,
    check_u1_invariance,
    const,
    eval_expression,
    extract_masses,
    field,
    instantiate_params,
    j_decompose,
    physical_basis,
    reduce_mode,
    substitute,
    transformed_lagrangian,
    verify_grading,
    verify_matter_radial,
    verify_trace_identity,
)
from ewverify.fields import FIELDS, Expression, contract, inv_sqrt2
from ewverify.model import (
    covariant_phi_derivatives,
    curl,
    exact_sqrt,
    matter_radial_display,
    physical_basis_rules,
    su2_stress_tensors,
    su2_variation_rules,
    u1_variation_rules,
)
from helpers import PYTHAGOREAN_TRIPLES, DictAssignment, mat_at, parse, random_expression

CFG = ModelConfig()
FLOAT_POINT = ModelConfig(g=Fraction("1.234"), gp=Fraction("0.567"), R=Fraction("2.1"),
                          exact=False)


def triple_config(t, R=Fraction(2)):
    return ModelConfig(g=Fraction(t[0]), gp=Fraction(t[1]), R=R)


# --- stress tensors -----------------------------------------------------------


def contracted_stress_tensors():
    return {name: contract(f) for name, f in su2_stress_tensors().items()}


def test_stress_tensor_linear_parts():
    f = contracted_stress_tensors()
    assert j_decompose(f["A3"])[0] == parse("d[mu]A3[nu] - d[nu]A3[mu]")
    assert curl("B") == parse("d[mu]B[nu] - d[nu]B[mu]")


def test_b_tensor_antisymmetry():
    b = curl("B")
    swapped = parse("d[nu]B[mu] - d[mu]B[nu]")
    assert swapped == -b


def test_stress_tensor_nonlinear_parts():
    # Quadratic parts carry the commutator orientation of the generator
    # algebra (note: opposite to a transcription with transposed wedge
    # products, which would break gauge invariance; see the Maxwell-form
    # invariance tests below).
    f = su2_stress_tensors()
    nl1 = f["A1"] - parse("d[mu]A1[nu] - d[nu]A1[mu]")
    assert nl1 == parse("g A3[mu] A2[nu] - g A2[mu] A3[nu]")
    nl3 = j_decompose(contract(f["A3"])).get(2, Expression.zero())
    assert nl3 == parse("g A2[mu] A1[nu] - g A1[mu] A2[nu]")


def test_stress_tensor_grading():
    f = contracted_stress_tensors()
    assert f["A3"].j_degrees() == (0, 2)
    assert f["A1"].j_degrees() == (1,)


def test_f3_square_matches_hand_expansion():
    """(F3)^2 against a by-hand expansion of (curl - j^2 g wedge)^2."""
    f3 = contracted_stress_tensors()["A3"]
    square = f3 * f3
    curl_sq = parse(
        "2 d[mu]A3[nu] d[mu]A3[nu] - 2 d[mu]A3[nu] d[nu]A3[mu]"
    )
    cross = parse(
        "-2 g d[mu]A3[nu] A2[mu] A1[nu] + 2 g d[mu]A3[nu] A1[mu] A2[nu]"
        " + 2 g d[nu]A3[mu] A2[mu] A1[nu] - 2 g d[nu]A3[mu] A1[mu] A2[nu]"
    )
    wedge_sq = parse(
        "2 g^2 A2[mu] A2[mu] A1[nu] A1[nu] - 2 g^2 A1[mu] A2[mu] A1[nu] A2[nu]"
    )
    by_hand = curl_sq + jpow(2) * (-1 * cross) + jpow(4) * wedge_sq
    assert (square - by_hand).is_zero()


# --- gauge and matter Lagrangians ----------------------------------------------


def test_build_la_grades_and_zero_point():
    la = build_LA()
    assert set(la.j_degrees()) <= {0, 2, 4}
    zeros = {
        (name, (mu,), (), False): 0j
        for name in ("A1", "A2", "A3", "B")
        for mu in range(4)
    }
    zeros.update(
        {
            (name, (nu,), (mu,), False): 0j
            for name in ("A1", "A2", "A3", "B")
            for mu in range(4)
            for nu in range(4)
        }
    )
    assert eval_expression(la, DictAssignment(zeros), params={"g": 1.3, "gp": 0.8}) == 0j


def test_build_la_quadratic_base_part():
    quad = Expression.build(
        [t for t in j_decompose(build_LA())[0].terms if len(t.factors) == 2]
    )
    a3 = parse("d[mu]A3[nu] - d[nu]A3[mu]")
    bt = parse("d[mu]B[nu] - d[nu]B[mu]")
    assert quad == const(Fraction(-1, 4)) * (a3 * a3 + bt * bt)


def test_covariant_derivative_fiber_coefficient():
    d1, _ = covariant_phi_derivatives()
    fiber = j_decompose(contract(d1))[2]
    expected = (
        const(ComplexRational(0, Fraction(1, 2)))
        * parse("g A1[mu] phi2 - i g A2[mu] phi2")
    )
    assert fiber == expected


def test_lphi_constant_doublet_zero_point():
    values = {("phi1", (), (), False): 0.7 + 0.2j, ("phi2", (), (), False): -0.4 + 1j}
    values[("phi1", (), (), True)] = values[("phi1", (), (), False)].conjugate()
    values[("phi2", (), (), True)] = values[("phi2", (), (), False)].conjugate()
    for name in ("A1", "A2", "A3", "B"):
        for mu in range(4):
            values[(name, (mu,), (), False)] = 0j
    for name in ("phi1", "phi2"):
        for mu in range(4):
            values[(name, (), (mu,), False)] = 0j  # constant doublet
            values[(name, (), (mu,), True)] = 0j
    assert eval_expression(
        build_Lphi(), DictAssignment(values), params={"g": 1.1, "gp": 0.9}
    ) == 0j


def test_lphi_free_limit():
    ungraded = reduce_mode(build_Lphi(), J_ONE)
    free = Expression.build(
        [t for t in ungraded.terms if all(f.field.startswith("phi") for f in t.factors)]
    )
    expected = const(Fraction(1, 2)) * (
        parse("conj(d[mu]phi1) d[mu]phi1") + parse("conj(d[mu]phi2) d[mu]phi2")
    )
    assert free == expected


def test_grading_enters_via_substitution(rng):
    """contract is the substitution X -> j X of every field of grade 1, and
    the builders are the contraction of their j = 1 form."""
    rules = {name: jpow() * field(name, *("_",) * fdef.arity)
             for name, fdef in FIELDS.items() if fdef.grade}
    at_one = [reduce_mode(build(), J_ONE)
              for build in (build_LA, build_Lphi, build_matter_radial)]
    for e in at_one + [random_expression(rng) for _ in range(200)]:
        assert contract(e) == substitute(e, rules)
    for build, e in zip((build_LA, build_Lphi, build_matter_radial), at_one):
        assert contract(e) == build()


def _assert_graded(e, shift=0):
    """Every term's j-degree is its factors' grade sum plus ``shift``."""
    for t in e.terms:
        assert t.jdeg == sum(FIELDS[f.field].grade for f in t.factors) + shift, t


def test_references_are_homogeneous_in_the_grade():
    """The references the checks compare against write their powers of j
    out; each term's must match the grades of its fields."""
    for cfg in [triple_config(t) for t in PYTHAGOREAN_TRIPLES] + [FLOAT_POINT]:
        _assert_graded(build_L27(cfg))
        _assert_graded(matter_radial_display(cfg))
        for name, body in u1_variation_rules(cfg).items():
            _assert_graded(body, -FIELDS[name].grade)
    for name, body in su2_variation_rules().items():
        _assert_graded(body, -FIELDS[name].grade)


def test_su2_stress_tensors_field_renaming():
    fw = su2_stress_tensors(("W1", "W2", "W3"))
    assert fw["W3"].field_symbols() == {"W1", "W2", "W3"}


# --- physical basis -------------------------------------------------------------


def test_physical_basis_forward_maps():
    cfg = CFG
    s = cfg.s_value()
    gw3_gpb = instantiate_params(
        parse("g W3[mu] + gp B[mu]"), {"g": cfg.g, "gp": cfg.gp}
    )
    assert substitute(gw3_gpb, physical_basis_rules(cfg)) == const(s) * field("Z", "mu")
    gpw3_gb = instantiate_params(
        parse("gp W3[mu] - g B[mu]"), {"g": cfg.g, "gp": cfg.gp}
    )
    assert substitute(gpw3_gb, physical_basis_rules(cfg)) == const(s) * field(
        "Aem", "mu"
    )
    w_minus_i = inv_sqrt2() * parse("W1[mu] - i W2[mu]")
    assert substitute(w_minus_i, physical_basis_rules(cfg)) == field("Wp", "mu")
    w_plus_i = inv_sqrt2() * parse("W1[mu] + i W2[mu]")
    assert substitute(w_plus_i, physical_basis_rules(cfg)) == field("Wm", "mu")


def test_physical_basis_requires_rational_s():
    with pytest.raises(ParameterError):
        ModelConfig(g=Fraction(1), gp=Fraction(1))
    cfg = ModelConfig(g=1.0, gp=1.0, exact=False)
    assert cfg.s_value() == Fraction(math.sqrt(2.0))


# --- the graded Lagrangian -------------------------------------------------------


def test_l27_contains_w_mass_term():
    parts = j_decompose(build_L27(CFG))
    fiber = parts[2]
    mass = [
        t
        for t in fiber.terms
        if len(t.factors) == 4
        and {f.field for f in t.factors} == {"rho", "Wp", "Wm"}
        and not any(f.derivs for f in t.factors)
    ]
    assert len(mass) == 1
    assert mass[0].coeff == ComplexRational(Fraction(9, 4))  # g^2/4 at g=3


def test_l27_quartic_part_is_minus_quarter_h_squared():
    h = (
        -1
        * const(ComplexRational(0, 1))
        * const(CFG.g)
        * (parse("W+[mu] W-[nu] - W-[mu] W+[nu]"))
    )
    assert j_decompose(build_L27(CFG))[4] == const(Fraction(-1, 4)) * h * h


def test_l27_base_part():
    base = j_decompose(build_L27(CFG))[0]
    at = parse("d[mu]Aem[nu] - d[nu]Aem[mu]")
    zt = parse("d[mu]Z[nu] - d[nu]Z[mu]")
    expected = (
        const(Fraction(1, 2)) * parse("d[mu]rho d[mu]rho")
        + const(Fraction(-1, 4)) * (at * at + zt * zt)
        + const(Fraction(25, 8)) * parse("rho rho Z[mu] Z[mu]")
    )
    assert base == expected


@pytest.mark.parametrize("triple", PYTHAGOREAN_TRIPLES)
def test_grading_identity_exact(triple):
    report = verify_grading(triple_config(triple))
    assert report.passed
    assert report.decision_path == "exact-symbolic"
    assert report.max_abs_error == 0.0


def test_grading_identity_float_points():
    rng = random.Random(5)
    for _ in range(2):
        cfg = ModelConfig(g=rng.uniform(0.3, 2.0), gp=rng.uniform(0.3, 2.0),
                          seed=rng.randrange(1000), exact=False)
        report = verify_grading(cfg)
        assert report.passed and report.decision_path == "exact-symbolic"
        assert report.max_abs_error == 0.0


def test_transformed_lagrangian_grades():
    assert set(transformed_lagrangian(CFG).j_degrees()) == {0, 2, 4}


@pytest.mark.parametrize("triple", PYTHAGOREAN_TRIPLES)
def test_matter_radial_identity(triple):
    report = verify_matter_radial(triple_config(triple))
    assert report.passed and report.decision_path == "exact-symbolic"


def test_matter_radial_zero_point():
    display = matter_radial_display(CFG)
    zeros = {}
    for name in ("Z", "Wp", "Wm"):
        for mu in range(4):
            zeros[(name, (mu,), (), False)] = 0j
    zeros[("rho", (), (), False)] = 2 + 0j
    for mu in range(4):
        zeros[("rho", (), (mu,), False)] = 0j  # constant rho
    assert eval_expression(display, DictAssignment(zeros)) == 0j


def test_matter_radial_z_coefficient():
    phys = physical_basis(build_matter_radial(), CFG)
    z_terms = [
        t
        for t in j_decompose(phys)[0].terms
        if {f.field for f in t.factors} == {"rho", "Z"} and len(t.factors) == 4
    ]
    assert len(z_terms) == 1
    # (1/2)(1/4)(g^2 + gp^2) = 25/8 at (3, 4, 5)
    assert z_terms[0].coeff == ComplexRational(Fraction(25, 8))


# --- masses -----------------------------------------------------------------------


def test_mass_spectrum_at_default_point():
    spectrum = extract_masses(CFG, J_NILPOTENT)
    assert spectrum.m_W == 3
    assert spectrum.m_Z == 5
    assert spectrum.m_A == 0
    assert spectrum.e_charge == Fraction(12, 5)
    assert spectrum.cos_theta_W == Fraction(3, 5)


def test_mass_spectrum_reading_convention():
    # independent oracle: the stated closed forms m_W = gR/2, m_Z = sR/2
    for triple in PYTHAGOREAN_TRIPLES:
        cfg = triple_config(triple, R=Fraction(7, 3))
        spectrum = extract_masses(cfg, J_NILPOTENT)
        g, gp, s = cfg.g, cfg.gp, cfg.s_value()
        assert spectrum.m_W_sq == (g * cfg.R / 2) ** 2
        assert spectrum.m_Z_sq == (s * cfg.R / 2) ** 2
        assert spectrum.cos_theta_W == g / s
        assert spectrum.e_charge == g * gp / s


def test_observed_mass_calibration():
    # cos(theta_W) = 80/91 and m_W = 80 force m_Z = 91
    gp = math.sqrt(91**2 - 80**2)
    cfg = ModelConfig(g=80.0, gp=gp, R=2.0, exact=False)
    spectrum = extract_masses(cfg, J_NILPOTENT)
    assert spectrum.m_W == 80
    assert abs(float(spectrum.m_Z) - 91.0) <= 91.0 * 1e-10
    assert abs(float(spectrum.cos_theta_W) - 80 / 91) <= 1e-10


def test_masses_equal_across_modes():
    one = extract_masses(CFG, J_ONE)
    nil = extract_masses(CFG, J_NILPOTENT)
    assert one == nil


def test_spectrum_derives_its_roots_from_the_squares():
    spectrum = extract_masses(CFG, J_NILPOTENT)
    moved = spectrum._replace(m_W_sq=Fraction(16))
    assert moved.m_W == 4
    assert moved.cos_theta_W == Fraction(4, 5)
    assert moved != spectrum


# --- invariances -------------------------------------------------------------------


@pytest.mark.parametrize("triple", PYTHAGOREAN_TRIPLES)
def test_u1_invariance(triple):
    report = check_u1_invariance(triple_config(triple))
    assert report.passed and report.max_abs_error == 0.0


@pytest.mark.parametrize(
    "mode", [J_ONE, J_NILPOTENT, JMode.numeric(Fraction(1, 100))]
)
def test_su2_invariance(mode):
    report = check_su2_invariance(mode)
    assert report.passed and report.decision_path == "exact-symbolic"


def test_su2_variation_constant_t3_rotation():
    """A constant third-direction rotation is a global symmetry: with
    eps1 = eps2 = 0 and d eps3 = 0 the variation already vanishes."""
    from ewverify.fields import first_order_variation
    from ewverify.model import su2_variation_rules

    rules = su2_variation_rules()
    rules = {
        "A1": parse("g eps3 A2[_]"),
        "A2": parse("-g eps3 A1[_]"),
        "A3": Expression.zero(),
        "B": Expression.zero(),
        "phi1": parse("1/2 i g eps3 phi1"),
        "phi2": parse("-1/2 i g eps3 phi2"),
    }
    lagrangian = build_LA() + build_Lphi()
    delta = first_order_variation(lagrangian, rules)
    # terms with a derivative of eps3 would survive; constant parameter means
    # we drop them and the rest cancels
    surviving = Expression.build(
        [
            t
            for t in delta.terms
            if not any(f.field == "eps3" and f.derivs for f in t.factors)
        ]
    )
    assert surviving.is_zero()


def test_cartesian_u1_invariance():
    """Hypercharge U(1) on the unrotated fields: phi -> e^{i omega} phi with
    the compensating B shift -(2/gp) d omega."""
    from ewverify.fields import first_order_variation

    lagrangian = build_LA() + build_Lphi()
    # the raw B shift carries 1/gp; writing the parameter as gp * omega keeps
    # every coefficient polynomial in the couplings
    delta = first_order_variation(
        lagrangian,
        {
            "phi1": parse("i gp omega phi1"),
            "phi2": parse("i gp omega phi2"),
            "B": parse("-2 d[_]omega"),
        },
    )
    assert delta.is_zero()


def test_trace_identity():
    """Every mode decides every group element at once, by the normal form."""
    report = verify_trace_identity()
    assert report.passed
    assert report.decision_path == "exact-symbolic"
    assert report.max_abs_error == 0.0
    assert report.witness is None


def test_trace_conjugation_by_identity_is_trivial():
    from ewverify.matrices import symbolic_lie_element

    zero = const(0)
    h = Mat2(((const(1), zero), (zero, const(1))))
    f = mat_at(symbolic_lie_element(), {"eps1": 2, "eps2": -3, "eps3": 5}, J_ONE)
    rotated = h.dagger() @ f @ h
    assert f.trace_product(f) == rotated.trace_product(rotated)


def test_exact_sqrt():
    assert exact_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert exact_sqrt(Fraction(2)) is None
    assert exact_sqrt(Fraction(0)) == 0
