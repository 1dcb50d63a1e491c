"""Every check can fail: plant one defect per check and pin the red report.

Each test swaps a module attribute that the check looks up at call time, so
the defect reaches the check and the CLI suite that runs it.  The reports
pin the failing output: status, the -1.0 exact-mismatch marker or the float
error of the numeric path, the witness text, and exit code 1.
"""

import dataclasses
from fractions import Fraction

import pytest

from ewverify import (
    J_ONE,
    Expression,
    JMode,
    Mat2,
    ModelConfig,
    check_su2_invariance,
    check_u1_invariance,
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
from ewverify import limits, matrices, model
from ewverify.cli import run
from ewverify.matrices import Doublet

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


# --- matrices.verify_group ---------------------------------------------------


def test_group_fails_when_the_doublet_action_breaks_the_form(monkeypatch, capsys):
    original = matrices.apply_group_element

    def doubled(alpha, beta, phi, mode):
        out = original(alpha, beta, phi, mode)
        return Doublet(out.phi1 + out.phi1, out.phi2)

    monkeypatch.setattr(matrices, "apply_group_element", doubled)
    report = verify_group(J_ONE, 5, seed=3)
    assert_exact_fail(report, "; ".join(
        f"sample {k}: hermitian form not invariant" for k in range(3)
    ))
    assert report.mode == "j=1"
    assert_exit_1(capsys, "verify", "group", "--j", "iota", "--samples", "2")


def test_group_numeric_fail_reports_the_float_error(monkeypatch, capsys):
    original = matrices.lie_element

    def shifted(a1, a2, a3, mode):
        return original(a1, a2, a3, mode) + Mat2.identity().reduce(mode)

    monkeypatch.setattr(matrices, "lie_element", shifted)
    report = verify_group(NUMERIC, 5, seed=3)
    assert report.status == "fail"
    assert report.decision_path == "numeric-oracle"
    assert report.max_abs_error == 2.0
    assert report.witness == "; ".join(
        f"sample {k}: Lie element not anti-hermitian (2.0)" for k in range(3)
    )
    assert_exit_1(capsys, "verify", "group", "--j", "0.001", "--samples", "2")


# --- model.verify_grading / verify_matter_radial -----------------------------


def test_grading_fails_without_the_quartic_weight(monkeypatch, capsys):
    monkeypatch.setattr(
        model, "jpow", lambda power=1: jpow(0) if power == 4 else jpow(power)
    )
    report = verify_grading(CFG)
    assert report.status == "fail"
    assert report.check_name == "grading-identity"
    assert report.decision_path == "numeric-oracle"
    assert report.max_abs_error == pytest.approx(1.9220629822892545, rel=1e-9)
    assert report.witness == "grade 0, trial 10: |diff|=2.668e+00, scale=1.388e+00"
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
    assert report.decision_path == "numeric-oracle"
    assert report.max_abs_error == pytest.approx(1.0, rel=1e-9)
    assert report.witness == "grade 2, trial 0: |diff|=4.989e-02, scale=4.989e-02"
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


# --- model.verify_trace_identity ---------------------------------------------


def test_trace_fails_when_conjugation_drops_the_dagger(monkeypatch, capsys):
    monkeypatch.setattr(Mat2, "dagger", lambda self: self)
    report = verify_trace_identity(2, seed=5)
    assert report.status == "fail"
    assert report.check_name == "trace-identity"
    assert report.max_abs_error == -1.0
    assert report.witness == (
        "j=1 sample 0: exact mismatch; j=1 sample 1: exact mismatch; "
        "j=iota sample 0: exact mismatch"
    )
    assert_exit_1(capsys, "verify", "trace", "--samples", "2")


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

    def moved(cfg):
        spectrum = original(cfg)
        if not cfg.jmode.is_nilpotent:
            return spectrum
        return dataclasses.replace(
            spectrum, m_W=Fraction(4), m_W_sq=Fraction(16), cos_theta_W=Fraction(4, 5)
        )

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
    assert_exit_1(capsys, "verify", "all", "--samples", "1")
