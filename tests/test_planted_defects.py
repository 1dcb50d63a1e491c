"""Every check can fail: plant one defect per check and pin the red report.

Each test swaps a module attribute that the check looks up at call time, so
the defect reaches the check and the CLI suite that runs it.  The reports
pin the failing output: status, the -1.0 exact-mismatch marker, the witness
text, and exit code 1.
"""

from fractions import Fraction

import pytest

from ewverify import (
    J_NILPOTENT,
    J_ONE,
    Expression,
    JMode,
    Mat2,
    ModelConfig,
    check_su2_invariance,
    check_u1_invariance,
    const,
    decoupling_check,
    field,
    j_decompose,
    jpow,
    mass_invariance_check,
    verify_grading,
    verify_group,
    verify_matter_radial,
    verify_trace_identity,
)
from ewverify import fields, limits, matrices, model
from ewverify.cli import run

CFG = ModelConfig()
NUMERIC = JMode.numeric(Fraction(1, 1000))

# delta L truncated to 200 characters, as the invariance checks report it
U1_WITNESS = (
    "-24/5 j^2 Aem[mu] W-[mu] W+[nu] d[nu]omega - 24/5 j^2 Aem[mu] W-[nu] W+[mu] "
    "d[nu]omega + 48/5 j^2 Aem[mu] W-[nu] W+[nu] d[mu]omega + 36/5 j^2 W-[mu] "
    "W+[mu] Z[nu] d[nu]omega - 2 i j^2 W-[mu] d[nu]W+[mu"
)
SU2_WITNESS = (
    "2 g A1[mu] d[nu]A2[mu] d[nu]eps3 - 2 g A1[mu] d[mu]A2[nu] d[nu]eps3 + 2 g "
    "A1[mu] d[nu]A3[mu] d[nu]eps2 - 2 g A1[mu] d[mu]A3[nu] d[nu]eps2 - 2 g "
    "d[nu]A1[mu] A2[mu] d[nu]eps3 + 2 g d[nu]A1[mu] A2[nu] d["
)


def assert_exit_1(capsys, *argv):
    assert run(list(argv)) == 1
    capsys.readouterr()


def assert_exact_fail(report, witness):
    assert report.status == "fail"
    assert not report.passed
    assert report.decision_path == "exact-symbolic"
    assert report.max_abs_error == -1.0
    assert report.witness == witness


def ungrade(monkeypatch, name):
    """Declare the grade-1 field ``name`` at grade 0: the contraction no
    longer scales it."""
    monkeypatch.setitem(fields.FIELDS, name, fields.FIELDS[name]._replace(grade=0))


# --- matrices.verify_group ---------------------------------------------------


def test_group_fails_with_a_flipped_sign_in_the_group_element(monkeypatch, capsys):
    def flipped(alpha, beta):
        return Mat2(((alpha, beta), (beta.conjugate(), alpha.conjugate())))

    monkeypatch.setattr(matrices, "_omega", flipped)
    report = verify_group(J_ONE)
    assert_exact_fail(report, (
        "unitarity: 2 alpha beta; "
        "closure: -2 beta conj(beta) + 4 beta conj(beta) beta2 conj(beta2)"
        " - 2 beta2 conj(beta2); "
        "form invariance: 2 alpha conj(beta) phi1 conj(phi2)"
        " + 2 conj(alpha) beta conj(phi1) phi2"
    ))
    assert report.mode == "j=1"
    # at j=iota the j^2 terms vanish, and only unitarity breaks
    report = verify_group(J_NILPOTENT)
    assert_exact_fail(report, "unitarity: 2 j alpha beta")
    assert report.mode == "j=iota"
    assert_exit_1(capsys, "verify", "group", "--j", "iota")
    # at j=0.001 each j^2 is folded into the coefficient exactly
    report = verify_group(NUMERIC)
    assert_exact_fail(report, (
        "unitarity: 1/500 alpha beta; "
        "closure: -1/500000 beta conj(beta)"
        " + 1/250000000000 beta conj(beta) beta2 conj(beta2)"
        " - 1/500000 beta2 conj(beta2); "
        "form invariance: 1/500000 alpha conj(beta) phi1 conj(phi2)"
        " + 1/500000 conj(alpha) beta conj(phi1) phi2"
    ))
    assert report.mode == "j=0.001"
    assert_exit_1(capsys, "verify", "group", "--j", "0.001")


def test_group_fails_with_a_lie_element_shifted_by_the_identity(monkeypatch, capsys):
    original = matrices._lie

    def shifted(a1, a2, a3):
        return original(a1, a2, a3) + Mat2(((const(1), 0), (0, const(1))))

    monkeypatch.setattr(matrices, "_lie", shifted)
    for mode in (J_ONE, J_NILPOTENT, NUMERIC):
        report = verify_group(mode)
        assert_exact_fail(report, "anti-hermiticity: 2")
        assert report.mode == mode.label()
    assert_exit_1(capsys, "verify", "group", "--j", "0.001")


def test_group_fails_with_beta_at_grade_zero(monkeypatch, capsys):
    ungrade(monkeypatch, "beta")
    # at j=1 the relation alpha conj(alpha) = 1 - beta conj(beta) still holds
    assert verify_group(J_ONE).passed
    assert_exact_fail(verify_group(J_NILPOTENT), (
        "unitarity: beta conj(beta); closure: beta conj(beta); "
        "form invariance: beta conj(beta) phi1 conj(phi1)"
    ))
    assert_exact_fail(verify_group(NUMERIC), (
        "unitarity: 999999/1000000 beta conj(beta); "
        "closure: 999999/1000000 beta conj(beta); "
        "form invariance: 999999/1000000 beta conj(beta) phi1 conj(phi1)"
        " + 999999/1000000000000 beta conj(beta) phi2 conj(phi2)"
    ))
    assert_exit_1(capsys, "verify", "group", "--j", "iota")
    assert_exit_1(capsys, "verify", "group", "--j", "0.001")


# --- model.verify_grading / verify_matter_radial -----------------------------


def test_grading_fails_without_the_quartic_weight(monkeypatch, capsys):
    monkeypatch.setattr(
        model, "jpow", lambda power=1: jpow(0) if power == 4 else jpow(power)
    )
    # the missing quartic is g^2/2 times the same W pair structure; at the
    # float point s = sqrt(2.18) is irrational and still decided exactly
    float_point = ModelConfig(g=Fraction(13, 10), gp=Fraction(7, 10), exact=False)
    for cfg, c in ((CFG, "9/2"), (float_point, "169/200")):
        report = verify_grading(cfg)
        assert report.status == "fail"
        assert report.check_name == "grading-identity"
        assert report.decision_path == "exact-symbolic"
        assert report.max_abs_error == -1.0
        assert report.witness == (
            f"-{c} W-[mu]^2 W+[nu]^2 + {c} W-[mu] W-[nu] W+[mu] W+[nu]"
            f" + {c} j^4 W-[mu]^2 W+[nu]^2 - {c} j^4 W-[mu] W-[nu] W+[mu] W+[nu]"
        )
    assert_exit_1(capsys, "verify", "lagrangian")
    assert_exit_1(capsys, "verify", "lagrangian", "--no-exact", "--g", "1.3", "--gp", "0.7")


def test_grading_fails_with_w1_at_grade_zero(monkeypatch, capsys):
    ungrade(monkeypatch, "W1")
    report = verify_grading(CFG)
    assert_exact_fail(report, (
        "-36/25 Aem[mu]^2 W-[nu]^2 - 72/25 Aem[mu]^2 W-[nu] W+[nu]"
        " - 36/25 Aem[mu]^2 W+[nu]^2 + 36/25 Aem[mu] Aem[nu] W-[mu] W-[nu]"
        " + 72/25 Aem[mu] Aem[nu] W-[mu] W+[nu] + 36/25 Aem[mu] Aem[nu] W+[mu] W+[nu] +"
    ))
    assert report.check_name == "grading-identity"
    assert_exit_1(capsys, "verify", "lagrangian")


def test_matter_radial_fails_with_a_wrong_charged_weight(monkeypatch, capsys):
    original = model.matter_radial_display

    def regraded(cfg):
        parts = j_decompose(original(cfg))
        return parts[0] + jpow(4) * parts[2]

    monkeypatch.setattr(model, "matter_radial_display", regraded)
    report = verify_matter_radial(CFG)
    assert report.status == "fail"
    assert report.check_name == "matter-radial-identity"
    assert report.decision_path == "exact-symbolic"
    assert report.max_abs_error == -1.0
    assert report.witness == (
        "9/4 j^2 W-[mu] W+[mu] rho^2 - 9/4 j^4 W-[mu] W+[mu] rho^2"
    )
    assert_exit_1(capsys, "verify", "lagrangian")


# --- model.check_u1_invariance / check_su2_invariance ------------------------


def test_u1_fails_without_the_photon_shift(monkeypatch, capsys):
    original = model.u1_variation_rules

    def unshifted(cfg):
        rules = original(cfg)
        rules["Aem"] = Expression.zero()
        return rules

    monkeypatch.setattr(model, "u1_variation_rules", unshifted)
    report = check_u1_invariance(CFG)
    assert_exact_fail(report, U1_WITNESS)
    assert report.check_name == "u1-invariance"
    assert_exit_1(capsys, "verify", "gauge", "--j", "iota")


def test_su2_fails_with_a_flipped_a3_variation(monkeypatch, capsys):
    original = model.su2_variation_rules

    def flipped():
        rules = original()
        rules["A3"] = -rules["A3"]
        return rules

    monkeypatch.setattr(model, "su2_variation_rules", flipped)
    report = check_su2_invariance(J_ONE)
    assert_exact_fail(report, SU2_WITNESS)
    assert report.mode == "j=1"
    assert_exit_1(capsys, "verify", "gauge", "--j", "1")


@pytest.mark.parametrize("name, witness", [
    ("phi2", "1/4 i g eps1 d[mu]phi1 conj(d[mu]phi2) - 1/4 i g eps1 conj(d[mu]phi1)"
     " d[mu]phi2 + 1/4 i g d[mu]eps1 phi1 conj(d[mu]phi2) - 1/4 i g d[mu]eps1"
     " conj(phi1) d[mu]phi2 - 1/4 g eps2 d[mu]phi1 conj(d[mu]phi2)"),
    ("A1", "-g d[nu]A1[mu] A2[mu] d[nu]eps3 - g d[nu]A1[mu] d[nu]A2[mu] eps3"
     " + g d[nu]A1[mu] A2[nu] d[mu]eps3 + g d[nu]A1[mu] d[mu]A2[nu] eps3"
     " + g d[nu]A1[mu] A3[mu] d[nu]eps2 + g d[nu]A1[mu] d[nu]A3[mu] eps2 - g"),
])
def test_su2_fails_with_a_field_at_grade_zero(monkeypatch, capsys, name, witness):
    ungrade(monkeypatch, name)
    assert check_su2_invariance(J_ONE).passed  # j = 1 ignores the grades
    report = check_su2_invariance(J_NILPOTENT)
    assert_exact_fail(report, witness)
    assert report.mode == "j=iota"
    assert_exit_1(capsys, "verify", "gauge", "--j", "iota")


# --- model.verify_trace_identity ---------------------------------------------


def test_trace_fails_when_conjugation_drops_the_dagger(monkeypatch, capsys):
    monkeypatch.setattr(Mat2, "dagger", lambda self: self)
    report = verify_trace_identity()
    assert report.check_name == "trace-identity"
    assert_exact_fail(report, (
        "j=1: -1/4 alpha^4 eps3^2 - 1/2 alpha^3 beta eps1 eps3"
        " - 1/2 i alpha^3 beta eps2 eps3 + 1/2 alpha^3 conj(beta) eps1 eps3"
        " - 1/2 i alpha^3 conj(beta) eps2 eps3 - 1/4 alpha^2 beta^2 eps1^2"
        " - 1/2 i alpha^2 beta; "
        "j=iota: -1/4 alpha^4 eps3^2 - 1/4 conj(alpha)^4 eps3^2 + 1/2 eps3^2; "
        "j=0.001: -1/4 alpha^4 eps3^2 - 1/2000000 alpha^3 beta eps1 eps3"
        " - 1/2000000 i alpha^3 beta eps2 eps3 + 1/2000000 alpha^3 conj(beta) eps1 eps3"
        " - 1/2000000 i alpha^3 conj(beta) eps2 eps3 - 1/4000000000000 alpha^"
    ))
    assert_exit_1(capsys, "verify", "trace")


# --- limits.decoupling_check / mass_invariance_check -------------------------


def test_decoupling_fails_with_w_factors_in_the_base(monkeypatch, capsys):
    original = limits.build_L27

    def coupled(cfg):
        pair = field("Wp", "nu") * field("Wm", "nu")
        neutral = field("Z", "mu") * field("Z", "mu") + field("Aem", "mu") * field("Aem", "mu")
        return original(cfg) + neutral * pair

    monkeypatch.setattr(limits, "build_L27", coupled)
    report = decoupling_check(CFG)
    assert_exact_fail(report, (
        "Z equation at j=iota contains W factors; "
        "photon equation at j=iota contains W factors"
    ))
    assert report.check_name == "base-fiber-decoupling"
    assert_exit_1(capsys, "eom")


def test_mass_invariance_fails_when_one_mode_moves_the_w_mass(monkeypatch, capsys):
    original = limits.extract_masses

    def moved(cfg, mode):
        spectrum = original(cfg, mode)
        if not mode.is_nilpotent:
            return spectrum
        return spectrum._replace(m_W_sq=Fraction(16))

    monkeypatch.setattr(limits, "extract_masses", moved)
    report = mass_invariance_check(CFG)
    assert_exact_fail(report, (
        "{'m_A': 0.0, 'm_Z': 5.0, 'm_W': 3.0, 'e_charge': 2.4, 'cos_theta_W': 0.6, "
        "'exact': {'m_Z_sq': '25', 'm_W_sq': '9', 'm_Z': '5', 'm_W': '3', "
        "'e_charge': '12/5', 'cos_theta_W': '3/5'}} != "
        "{'m_A': 0.0, 'm_Z': 5.0, 'm_W': 4.0, 'e_charge': 2.4, 'cos_theta_W': 0.8, "
        "'exact': {'m_Z_sq': '25', 'm_W_sq': '16', 'm_Z': '5', 'm_W': '4', "
        "'e_charge': '12/5', 'cos_theta_W': '4/5'}}"
    ))
    assert report.mode == "j=1 vs j=iota"
    assert_exit_1(capsys, "verify", "all")
