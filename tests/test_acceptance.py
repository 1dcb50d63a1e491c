"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (visible with ``pytest -s`` or in
captured output).  Tolerances are pinned here: exact means zero tolerance
in rational arithmetic; numeric bounds are written out explicitly.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from ewverify import (
    DivisionUndefinedError,
    J_NILPOTENT,
    J_ONE,
    JMode,
    Mat2,
    ModelConfig,
    build_L27,
    check_su2_invariance,
    check_u1_invariance,
    const,
    decoupling_check,
    divide_by_j,
    euler_lagrange,
    extract_masses,
    j_decompose,
    jpow,
    reduce_mode,
    scaling_sweep,
    substitute,
    verify_grading,
    verify_group,
    verify_matter_radial,
    verify_trace_identity,
)
from ewverify.matrices import symbolic_lie_element
from ewverify.parser import to_text

from helpers import (PYTHAGOREAN_TRIPLES, ParseError, mat_at, mat_is_zero, mat_reduce,
                     mat_sub, parse, random_expression, random_pythagorean_config)


def announce(number: int, name: str, ok: bool = True):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number:2d}: {name}")
    assert ok


def _generator(k: int, mode: JMode):
    """T_k: the Lie element the checks use, at eps_k = 1 and the other eps 0."""
    values = {f"eps{n}": int(n == k) for n in (1, 2, 3)}
    return mat_at(symbolic_lie_element(), values, mode)


def test_criterion_01_commutator_table():
    t0 = time.perf_counter()
    table = [(1, 2, 3, 2), (3, 1, 2, 0), (2, 3, 1, 0)]
    for mode in (J_ONE, J_NILPOTENT, JMode.numeric(Fraction(1, 1000))):
        for a, b, c, jp in table:
            ta, tb = _generator(a, mode), _generator(b, mode)
            # [T_a, T_b] = -j^jp T_c, with j = 0.001 folded in exactly
            weight = Mat2(((-jpow(jp), const(0)), (const(0), -jpow(jp))))
            residue = mat_sub(mat_sub(ta @ tb, tb @ ta), weight @ _generator(c, mode))
            assert mat_is_zero(mat_reduce(residue, mode))
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    announce(1, f"commutator table exact at j=1, iota, 0.001 ({elapsed:.2f}s)")


def test_criterion_02_group_suite():
    t0 = time.perf_counter()
    for mode in (J_ONE, J_NILPOTENT, JMode.numeric(Fraction(1, 1000))):
        report = verify_group(mode)
        assert report.passed and report.decision_path == "exact-symbolic"
        assert report.max_abs_error == 0.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    announce(2, f"group suite, all three modes by normal form ({elapsed:.2f}s)")


def test_criterion_03_division_rules():
    x = const(3) * jpow(1) + const(2) * jpow(2)
    assert divide_by_j(x) == const(3) + const(2) * jpow(1)
    with pytest.raises(DivisionUndefinedError):
        divide_by_j(const(1) + jpow())
    announce(3, "nilpotent division rules")


def test_criterion_04_grading_identity():
    t0 = time.perf_counter()
    for triple in PYTHAGOREAN_TRIPLES:
        cfg = ModelConfig(g=Fraction(triple[0]), gp=Fraction(triple[1]), R=Fraction(2))
        report = verify_grading(cfg)
        assert report.passed and report.decision_path == "exact-symbolic"
        assert report.max_abs_error == 0.0
    rng = random.Random(2024)
    for k in range(10):
        cfg = ModelConfig(
            g=rng.uniform(0.2, 2.5), gp=rng.uniform(0.2, 2.5), seed=1000 + k, exact=False
        )
        report = verify_grading(cfg)
        assert report.passed and report.decision_path == "exact-symbolic"
        assert report.max_abs_error == 0.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    announce(4, f"grading identity, 3 exact + 10 float points ({elapsed:.2f}s)")


def test_criterion_05_matter_radial_identity():
    for triple in PYTHAGOREAN_TRIPLES:
        cfg = ModelConfig(g=Fraction(triple[0]), gp=Fraction(triple[1]), R=Fraction(2))
        report = verify_matter_radial(cfg)
        assert report.passed and report.decision_path == "exact-symbolic"
    announce(5, "matter radial identity at all exact parameter points")


def test_criterion_06_masses():
    spectrum = extract_masses(ModelConfig(), J_NILPOTENT)
    assert (spectrum.m_W, spectrum.m_Z, spectrum.m_A) == (3, 5, 0)
    assert spectrum.e_charge == Fraction(12, 5)
    assert spectrum.cos_theta_W == Fraction(3, 5)
    # calibration: cos(theta_W) = 80/91 with m_W = 80 gives m_Z = 91
    gp = math.sqrt(91**2 - 80**2)
    calibrated = extract_masses(ModelConfig(g=80.0, gp=gp, R=2.0, exact=False),
                                J_NILPOTENT)
    assert calibrated.m_W == 80
    assert abs(float(calibrated.m_Z) - 91.0) <= 91.0 * 1e-10
    announce(6, "mass spectrum exact at (3,4,2) and calibrated to 80/91 GeV")


def test_criterion_07_gauge_invariance():
    for triple in PYTHAGOREAN_TRIPLES[:1]:
        cfg = ModelConfig(g=Fraction(triple[0]), gp=Fraction(triple[1]))
        report = check_u1_invariance(cfg)
        assert report.passed and report.max_abs_error == 0.0
    for mode in (J_ONE, J_NILPOTENT):
        report = check_su2_invariance(mode)
        assert report.passed and report.max_abs_error == 0.0
    announce(7, "delta L = 0 exactly for U(1) and SU(2;j), both modes")


def test_criterion_08_trace_identity():
    report = verify_trace_identity()
    assert report.passed and report.decision_path == "exact-symbolic"
    assert report.max_abs_error == 0.0
    announce(8, "trace identity, all three modes by normal form")


def test_criterion_09_decoupling():
    cfg = ModelConfig()
    report = decoupling_check(cfg)
    assert report.passed and report.decision_path == "exact-symbolic"
    frozen = substitute(build_L27(cfg), {"rho": const(cfg.R)})
    parts = j_decompose(frozen)
    for fld in ("Z", "Aem"):
        eq = euler_lagrange(parts[0], fld, "nu")
        assert not (eq.field_symbols() & {"Wp", "Wm"})
    assert euler_lagrange(parts[2], "Wp", "nu").field_symbols() & {"Z", "Aem"}
    eq_one = euler_lagrange(reduce_mode(frozen, J_ONE), "Z", "nu")
    assert eq_one.field_symbols() & {"Wp", "Wm"}
    announce(9, "base/fiber decoupling of field equations, symbolic")


def test_criterion_10_scaling_sweep():
    t0 = time.perf_counter()
    js = (1e-1, 10**-1.5, 1e-2, 10**-2.5, 1e-3)
    report = scaling_sweep(js, samples=100, cfg=ModelConfig(), seed=42)
    assert abs(report.slope_f - 2.0) <= 0.01
    assert abs(report.slope_h - 4.0) <= 0.02
    assert report.fit_r2 >= 0.999
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    announce(
        10,
        f"scaling slopes {report.slope_f:.3f}/{report.slope_h:.3f}, "
        f"r2={report.fit_r2:.5f} ({elapsed:.2f}s)",
    )


def test_criterion_11_mass_invariance_under_contraction():
    rng = random.Random(77)
    for _ in range(100):
        cfg = random_pythagorean_config(rng)
        one = extract_masses(cfg, J_ONE)
        nil = extract_masses(cfg, J_NILPOTENT)
        assert one == nil
        # closed-form relations hold identically as exact rationals
        assert one.m_Z_sq == one.m_W_sq + (cfg.gp * cfg.R / 2) ** 2
        assert one.cos_theta_W == cfg.g / cfg.s_value()
        assert one.e_charge == cfg.g * cfg.gp / cfg.s_value()
    announce(11, "mass spectrum identical at j=1 and j=iota, 100 random configs")


def test_criterion_12_parser_round_trip():
    rng = random.Random(123)
    for _ in range(10_000):
        e = random_expression(rng)
        assert parse(to_text(e)) == e
    for text, position in (("B[mu] +", 7), ("B[mu", 4), ("?", 0)):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.position == position
    announce(12, "parser round-trip on 10000 expressions, errors carry positions")
