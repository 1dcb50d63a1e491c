"""Contraction-limit analysis: j-grade scaling and base/fiber decoupling.

As j shrinks, the j^2-weighted (charged W) part of the Lagrangian is
suppressed quadratically and the j^4 remainder quartically; the sweep
measures both exponents from random field configurations.  The decoupling
check formalizes "the base does not feel the fiber" as symbol absence in
the Euler-Lagrange equations: at the contracted value of j the Z and
photon equations contain no W factors, while the W equation still carries
the base fields as external ones.
"""

from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass
from fractions import Fraction

from .contraction import J_NILPOTENT, J_ONE
from .fields import Expression, const, euler_lagrange, j_decompose, reduce_mode, substitute
from .model import ModelConfig, build_L27, extract_masses, with_mode
from .numeric import FieldSample, eval_expression
from .report import VerificationReport, timed, verdict


class DegenerateSampleError(RuntimeError):
    """Too many consecutive draws with a vanishing base Lagrangian."""


@dataclass(frozen=True)
class ScalingReport:
    """Log-log scaling of the Lagrangian's j-grade parts against j."""

    j_values: tuple[float, ...]  # strictly decreasing
    ratios_f: tuple[float, ...]  # mean |j^2 L_fiber| / |L_base|
    ratios_h: tuple[float, ...]  # mean |j^4 L_quartic| / |L_base|
    slope_f: float
    slope_h: float
    fit_r2: float
    samples: int
    degenerate_redraws: int

    def rows(self):
        return list(zip(self.j_values, self.ratios_f, self.ratios_h))


def _fit(xs, ys):
    fit = statistics.linear_regression(xs, ys)
    r2 = statistics.correlation(xs, ys) ** 2
    return fit.slope, r2


def scaling_sweep(
    j_values, samples: int, cfg: ModelConfig, seed: int
) -> ScalingReport:
    """Evaluate the j-grade parts on random field draws and fit the exponents.

    The parts themselves are j-independent, so each draw is evaluated once
    and scaled by the appropriate power of every j in the sweep; draws with
    |L_base| below 1e-12 are discarded and redrawn (counted).
    """
    js = sorted((float(j) for j in j_values), reverse=True)
    if not js or any(not (0.0 < j < 1.0) for j in js):
        raise ValueError("j values must lie in (0, 1)")
    if samples < 10:
        raise ValueError("samples must be >= 10")
    parts = j_decompose(build_L27(cfg))
    base = parts.get(0, Expression.zero())
    fiber = parts.get(2, Expression.zero())
    quartic = parts.get(4, Expression.zero())

    params = {"s": float(cfg.s_value())}
    rng = random.Random(seed)
    ratio_f_sum = 0.0
    ratio_h_sum = 0.0
    redraws = 0
    collected = 0
    while collected < samples:
        sample = FieldSample(rng.randrange(2**32))
        vb = abs(eval_expression(base, sample, params))
        if vb < 1e-12:
            redraws += 1
            if redraws > 1000:
                raise DegenerateSampleError("base Lagrangian keeps vanishing")
            continue
        ratio_f_sum += abs(eval_expression(fiber, sample, params)) / vb
        ratio_h_sum += abs(eval_expression(quartic, sample, params)) / vb
        collected += 1
    mean_f = ratio_f_sum / samples
    mean_h = ratio_h_sum / samples

    ratios_f = tuple(j**2 * mean_f for j in js)
    ratios_h = tuple(j**4 * mean_h for j in js)
    if len(js) >= 2:
        logs = [math.log(j) for j in js]
        slope_f, r2_f = _fit(logs, [math.log(r) for r in ratios_f])
        slope_h, r2_h = _fit(logs, [math.log(r) for r in ratios_h])
    else:
        slope_f = slope_h = r2_f = r2_h = float("nan")
    return ScalingReport(
        j_values=tuple(js),
        ratios_f=ratios_f,
        ratios_h=ratios_h,
        slope_f=slope_f,
        slope_h=slope_h,
        fit_r2=min(r2_f, r2_h),
        samples=samples,
        degenerate_redraws=redraws,
    )


@timed
def decoupling_check(cfg: ModelConfig) -> VerificationReport:
    """Base/fiber decoupling of the field equations at rho = R.

    At j=iota the Z and photon equations are W-free and the W+ equation
    keeps Z/photon factors; at j=1 the Z equation does couple to the W
    pair (the contrast witness).
    """
    frozen = substitute(build_L27(cfg), {"rho": const(cfg.R)})
    parts = j_decompose(frozen)
    base = parts.get(0, Expression.zero())
    fiber = parts.get(2, Expression.zero())

    failures = []
    eq_z_nil = euler_lagrange(base, "Z", "nu")
    eq_a_nil = euler_lagrange(base, "Aem", "nu")
    eq_w_nil = euler_lagrange(fiber, "Wp", "nu")
    full_one = reduce_mode(frozen, J_ONE)
    eq_z_one = euler_lagrange(full_one, "Z", "nu")

    w_pair = {"Wp", "Wm"}
    if eq_z_nil.field_symbols() & w_pair:
        failures.append("Z equation at j=iota contains W factors")
    if eq_a_nil.field_symbols() & w_pair:
        failures.append("photon equation at j=iota contains W factors")
    if not (eq_w_nil.field_symbols() & {"Z", "Aem"}):
        failures.append("W+ equation at j=iota lost its external Z/photon fields")
    if not (eq_z_one.field_symbols() & w_pair):
        failures.append("Z equation at j=1 shows no W coupling (contrast lost)")

    return verdict("base-fiber-decoupling", "j=iota vs j=1", failures,
                   witness=f"Z eq (j=iota): {eq_z_nil}")


@timed
def mass_invariance_check(cfg: ModelConfig) -> VerificationReport:
    """The mass spectrum must be identical at j=1 and j=iota, exactly."""
    spec_one = extract_masses(with_mode(cfg, J_ONE))
    spec_nil = extract_masses(with_mode(cfg, J_NILPOTENT))
    same = spec_one.same_spectrum(spec_nil)
    failures = [] if same else [f"{spec_one.as_dict()} != {spec_nil.as_dict()}"]
    return verdict("mass-invariance", "j=1 vs j=iota", failures)


def random_pythagorean_config(rng: random.Random, **overrides) -> ModelConfig:
    """Random exact-mode configuration: (g, gp, sqrt(g^2+gp^2)) all rational."""
    while True:
        m = rng.randint(2, 7)
        n = rng.randint(1, m - 1)
        if (m - n) % 2 == 1 and math.gcd(m, n) == 1:
            break
    scale = Fraction(rng.randint(1, 8), rng.randint(1, 8))
    legs = [m * m - n * n, 2 * m * n]
    rng.shuffle(legs)
    params = dict(
        g=scale * legs[0],
        gp=scale * legs[1],
        R=Fraction(rng.randint(1, 9), rng.randint(1, 4)),
        seed=rng.randrange(2**31),
    )
    params.update(overrides)
    return ModelConfig(**params)
