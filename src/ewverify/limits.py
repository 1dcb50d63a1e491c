"""Contraction-limit analysis: j-grade scaling and base/fiber decoupling.

As j shrinks, the j^2-weighted (charged W) part of the Lagrangian is
suppressed quadratically and the j^4 remainder quartically; the sweep
measures both exponents from random field configurations, splitting the
Lagrangian into its grade parts once per sweep and drawing each sample's
field values once for all three parts (:func:`~ewverify.numeric.draw`).
The decoupling check formalizes "the base does not feel the fiber" as
symbol absence in the Euler-Lagrange equations: at the contracted value of
j the Z and photon equations contain no W factors, while the W equation
still carries the base fields as external ones.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple

from .contraction import J_NILPOTENT, J_ONE
from .fields import Expression, euler_lagrange, j_decompose, reduce_mode
from .fields import substitute  # noqa: F401  perfbench's tracer test looks up limits.substitute
from .model import ModelConfig, _at_radius, beyond_float_range, build_L27, extract_masses
from .numeric import compile_layout, draw, eval_expression
from .report import VerificationReport, timed, verdict


class DegenerateSampleError(RuntimeError):
    """More than 1000 draws in one sweep, counted in total rather than in a
    row, had a vanishing base Lagrangian."""


class ScalingReport(namedtuple("ScalingReport", "j_values ratios_f ratios_h slope_f slope_h "
                                             "fit_r2 samples degenerate_redraws")):
    """Log-log scaling of the Lagrangian's j-grade parts against j.

    ``j_values`` are strictly decreasing; ``ratios_f`` holds the mean
    |j^2 L_fiber| / |L_base| at each, and ``ratios_h`` the mean
    |j^4 L_quartic| / |L_base|.
    """

    __slots__ = ()

    def rows(self):
        return list(zip(self.j_values, self.ratios_f, self.ratios_h))


def _fit(xs, ys):
    import statistics  # only the sweep fits, so no other command imports it

    fit = statistics.linear_regression(xs, ys)
    r2 = statistics.correlation(xs, ys) ** 2
    return fit.slope, r2


def scaling_sweep(
    j_values, samples: int, cfg: ModelConfig, seed: int
) -> ScalingReport:
    """Evaluate the j-grade parts on random field draws and fit the exponents.

    The parts themselves are j-independent, so each draw is evaluated once
    and scaled by the appropriate power of every j in the sweep.  Each
    sample draws the field instances of all three parts in one pass
    (:func:`~ewverify.numeric.draw`), and each part reads its values from
    that one draw.  Draws with |L_base| below 1e-12 are discarded and redrawn
    (counted); more than 1000 redraws in one sweep raise
    :class:`DegenerateSampleError`.
    """
    js = sorted((float(j) for j in j_values), reverse=True)
    if not js or any(not (0.0 < j < 1.0) for j in js):
        raise ValueError("j values must lie in (0, 1)")
    if samples < 10:
        raise ValueError("samples must be >= 10")
    graded = j_decompose(build_L27(cfg))
    base, fiber, quartic = parts = [graded.get(k, Expression.zero()) for k in (0, 2, 4)]
    try:  # the parts' coefficients and s, as floats
        layout = compile_layout(parts)
        params = {"s": float(cfg.s_value())}
    except OverflowError:
        raise beyond_float_range("sweep coefficients", g=cfg.g, gp=cfg.gp) from None
    rng = random.Random(seed)
    ratio_f_sum = 0.0
    ratio_h_sum = 0.0
    redraws = 0
    collected = 0
    while collected < samples:
        at_base, at_fiber, at_quartic = draw(layout, rng.randrange(2**32))
        vb = abs(eval_expression(base, at_base, params))
        if vb < 1e-12:
            redraws += 1
            if redraws > 1000:
                raise DegenerateSampleError("base Lagrangian keeps vanishing")
            continue
        ratio_f_sum += abs(eval_expression(fiber, at_fiber, params)) / vb
        ratio_h_sum += abs(eval_expression(quartic, at_quartic, params)) / vb
        collected += 1
    mean_f = ratio_f_sum / samples
    mean_h = ratio_h_sum / samples

    ratios_f = tuple(j**2 * mean_f for j in js)
    ratios_h = tuple(j**4 * mean_h for j in js)
    for part, ratios in ((fiber, ratios_f), (quartic, ratios_h)):
        if part and not all(0.0 < r < math.inf for r in ratios):  # 0, inf or nan
            raise beyond_float_range("sweep ratios", g=cfg.g, gp=cfg.gp)
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
    frozen, base, fiber = _at_radius(build_L27(cfg), cfg.R)
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
    spec_one = extract_masses(cfg, J_ONE)
    spec_nil = extract_masses(cfg, J_NILPOTENT)
    same = spec_one == spec_nil
    failures = [] if same else [f"{spec_one.as_dict()} != {spec_nil.as_dict()}"]
    return verdict("mass-invariance", "j=1 vs j=iota", failures)
