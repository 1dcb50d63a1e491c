"""Contraction-limit analysis: scaling exponents and decoupling."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from ewverify import (
    J_NILPOTENT,
    J_ONE,
    ModelConfig,
    build_L27,
    const,
    decoupling_check,
    euler_lagrange,
    extract_masses,
    j_decompose,
    mass_invariance_check,
    random_pythagorean_config,
    scaling_sweep,
    substitute,
)
from ewverify.numeric import FieldSample, eval_expression

CFG = ModelConfig()


def test_sweep_slopes_and_fit():
    report = scaling_sweep((1e-1, 10**-1.5, 1e-2, 10**-2.5, 1e-3), 50, CFG, seed=3)
    assert abs(report.slope_f - 2.0) <= 0.01
    assert abs(report.slope_h - 4.0) <= 0.02
    assert report.fit_r2 >= 0.999
    assert report.j_values == tuple(sorted(report.j_values, reverse=True))


def test_sweep_baseline_at_j_one():
    """As j -> 1 the fiber ratio approaches its ungraded value."""
    report = scaling_sweep((0.999999,), 10, CFG, seed=3)
    plain = scaling_sweep((0.5,), 10, CFG, seed=3)
    # same draws, so ratios are linked by the exact power law
    assert report.ratios_f[0] == pytest.approx(plain.ratios_f[0] / 0.25, rel=1e-5)


def test_sweep_validation():
    with pytest.raises(ValueError):
        scaling_sweep((1.5,), 50, CFG, seed=0)
    with pytest.raises(ValueError):
        scaling_sweep((0.1,), 5, CFG, seed=0)


def test_grade2_homogeneity():
    """The fiber part evaluated at j and 2j differs by exactly a factor 4."""
    parts = j_decompose(build_L27(CFG))
    fiber = parts[2]
    rng = random.Random(8)
    for _ in range(25):
        sample = FieldSample(rng.randrange(2**32))
        v = eval_expression(fiber, sample)
        for j in (0.3, 0.05):
            low = abs(v) * j**2
            high = abs(v) * (2 * j) ** 2
            assert high == pytest.approx(4 * low, rel=1e-12)


def test_decoupling_report():
    report = decoupling_check(CFG)
    assert report.passed
    assert "Z eq" in (report.witness or "")


def test_decoupling_symbol_sets():
    frozen = substitute(build_L27(CFG), {"rho": const(CFG.R)})
    parts = j_decompose(frozen)
    base, fiber = parts[0], parts[2]
    for fld in ("Z", "Aem"):
        eq = euler_lagrange(base, fld, "nu")
        assert not (eq.field_symbols() & {"Wp", "Wm"})
    eq_w = euler_lagrange(fiber, "Wp", "nu")
    assert eq_w.field_symbols() & {"Z", "Aem"}
    from ewverify import reduce_mode

    eq_z_full = euler_lagrange(reduce_mode(frozen, J_ONE), "Z", "nu")
    assert eq_z_full.field_symbols() & {"Wp", "Wm"}


def test_mass_invariance_default_and_random():
    assert mass_invariance_check(CFG).passed
    rng = random.Random(17)
    for _ in range(10):
        cfg = random_pythagorean_config(rng)
        one = extract_masses(replace(cfg, jmode=J_ONE))
        nil = extract_masses(replace(cfg, jmode=J_NILPOTENT))
        assert one == nil
        # closed-form relations hold identically
        assert one.m_Z_sq == one.m_W_sq + (cfg.gp * cfg.R / 2) ** 2
        assert one.cos_theta_W == cfg.g / cfg.s_value()


def test_random_pythagorean_configs_are_exact(rng):
    for _ in range(50):
        cfg = random_pythagorean_config(rng)
        s = cfg.s_value()
        assert s * s == cfg.g**2 + cfg.gp**2
        assert isinstance(s, Fraction)
