"""Contraction-limit analysis: scaling exponents and decoupling."""

import math
import random
import statistics
from fractions import Fraction

import pytest

from ewverify import (
    J_NILPOTENT,
    J_ONE,
    Expression,
    ModelConfig,
    build_L27,
    const,
    decoupling_check,
    euler_lagrange,
    extract_masses,
    j_decompose,
    mass_invariance_check,
    scaling_sweep,
    substitute,
)
from ewverify import limits
from ewverify.cli import SWEEP_JS
from ewverify.limits import DegenerateSampleError, ScalingReport
from ewverify.numeric import eval_expression

from helpers import FieldSample, random_pythagorean_config, reference_eval

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


def _reference_sweep(j_values, samples, cfg, seed) -> ScalingReport:
    """The scaling sweep written out plainly: one lazy FieldSample per draw,
    and each part evaluated term by term with ``reference_eval``."""
    parts = j_decompose(build_L27(cfg))
    base, fiber, quartic = (parts.get(k, Expression.zero()) for k in (0, 2, 4))
    params = {"s": float(cfg.s_value())}
    rng = random.Random(seed)
    sum_f = sum_h = 0.0
    redraws = collected = 0
    while collected < samples:
        sample = FieldSample(rng.randrange(2**32))
        vb = abs(reference_eval(base, sample, params))
        if vb < 1e-12:
            redraws += 1
            continue
        sum_f += abs(reference_eval(fiber, sample, params)) / vb
        sum_h += abs(reference_eval(quartic, sample, params)) / vb
        collected += 1
    js = sorted(j_values, reverse=True)
    ratios_f = tuple(j**2 * (sum_f / samples) for j in js)
    ratios_h = tuple(j**4 * (sum_h / samples) for j in js)
    logs = [math.log(j) for j in js]
    log_f = [math.log(r) for r in ratios_f]
    log_h = [math.log(r) for r in ratios_h]
    return ScalingReport(
        j_values=tuple(js),
        ratios_f=ratios_f,
        ratios_h=ratios_h,
        slope_f=statistics.linear_regression(logs, log_f).slope,
        slope_h=statistics.linear_regression(logs, log_h).slope,
        fit_r2=min(statistics.correlation(logs, log_f) ** 2,
                   statistics.correlation(logs, log_h) ** 2),
        samples=samples,
        degenerate_redraws=redraws,
    )


IRRATIONAL_S = ModelConfig(g=Fraction("1.234"), gp=Fraction("0.567"), R=Fraction("2.1"),
                           exact=False)


@pytest.mark.parametrize("cfg", [CFG, IRRATIONAL_S], ids=["default", "irrational-s"])
def test_sweep_matches_the_reference_sweep(cfg):
    """Every field of the report, floats included, equals the plain sweep's."""
    for seed in range(5):
        want = _reference_sweep(SWEEP_JS, 10, cfg, seed)
        assert scaling_sweep(SWEEP_JS, 10, cfg, seed) == want


def test_sweep_evaluates_each_part_through_eval_expression(monkeypatch):
    """The benchmark's tracer counts evaluations from the first argument of
    ``eval_expression`` as ``limits`` calls it: an Expression, three calls
    per kept sample and one per redraw.  Every fourth base evaluation is
    made to vanish here, to force redraws."""
    base = j_decompose(build_L27(CFG))[0]
    calls = []

    def counting(e, assignment, params=None):
        calls.append(e)
        value = eval_expression(e, assignment, params)
        return 0j if e == base and calls.count(base) % 4 == 0 else value

    monkeypatch.setattr(limits, "eval_expression", counting)
    report = scaling_sweep(SWEEP_JS, 12, CFG, seed=3)
    assert report.degenerate_redraws == calls.count(base) // 4 > 0
    assert len(calls) == 3 * report.samples + report.degenerate_redraws
    assert all(type(e) is Expression for e in calls)


def test_degenerate_redraws_are_counted_over_the_whole_sweep(monkeypatch):
    """More than 1000 redraws in one sweep raise, even when no two come in
    a row; 1000 are allowed."""
    base = j_decompose(build_L27(CFG))[0]
    base_calls = 0

    def vanishing_every_other_base(e, assignment, params=None):
        nonlocal base_calls
        if e != base:
            return 1.0
        base_calls += 1
        return 0j if base_calls % 2 else 1.0

    monkeypatch.setattr(limits, "eval_expression", vanishing_every_other_base)
    assert scaling_sweep(SWEEP_JS, 1000, CFG, seed=0).degenerate_redraws == 1000
    base_calls = 0
    with pytest.raises(DegenerateSampleError):
        scaling_sweep(SWEEP_JS, 1001, CFG, seed=0)


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
        one = extract_masses(cfg, J_ONE)
        nil = extract_masses(cfg, J_NILPOTENT)
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
