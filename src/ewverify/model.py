"""Bosonic Lagrangian of the contracted-gauge-group electroweak model.

Constructs the gauge-field and matter Lagrangians over the SU(2;j) x U(1)
field content, always weighted by powers of j (the model without j is their
j = 1 reduction), the radial (sphere-coordinate) form of the matter sector,
the change to the physical field basis (Z, photon, W+/W-), and the
Lagrangian L = L_base + j^2 L_fiber + j^4 L_quartic.  Verification
operations check the grading identity, gauge invariance at first order,
the conjugation-invariance of the gauge kinetic trace, and extract the
vector boson mass spectrum.

Every identity is decided by the canonical form with zero tolerance, at
every parameter point.  Each 1/s, s = sqrt(g^2+gp^2), is written as
s/(g^2+gp^2): s is its value at Pythagorean couplings (g, gp, s all
rational) and the parameter symbol s otherwise, whose powers fold into
powers of the rational g^2+gp^2.  The trace identity is decided in every
mode for every group element by its normal form on the group.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .contraction import DEFAULT_MODES, J_NILPOTENT, J_ONE, ComplexRational, JMode
from .fields import (
    Expression,
    Term,
    conjugate,
    const,
    field,
    first_order_variation,
    group_normal_form,
    imag,
    instantiate_params,
    inv_sqrt2,
    j_decompose,
    jpow,
    param,
    reduce_mode,
    substitute,
)
from .matrices import symbolic_element, symbolic_lie_element
from .numeric import equals  # noqa: F401  perfbench's tracer test looks up model.equals
from .report import VerificationReport, timed, verdict, witness


class ParameterError(ValueError):
    """Exact mode requires sqrt(g^2 + gp^2) to be rational."""


def exact_sqrt(value: Fraction) -> Fraction | None:
    """Exact square root of a non-negative rational, or None."""
    value = Fraction(value)
    if value < 0:
        return None
    rn = math.isqrt(value.numerator)
    rd = math.isqrt(value.denominator)
    if rn * rn == value.numerator and rd * rd == value.denominator:
        return Fraction(rn, rd)
    return None


@dataclass(frozen=True)
class ModelConfig:
    g: Fraction = Fraction(3)
    gp: Fraction = Fraction(4)
    R: Fraction = Fraction(2)
    jmode: JMode = J_NILPOTENT
    seed: int = 42
    samples: int = 100
    exact: bool = True

    def __post_init__(self):
        for name in ("g", "gp", "R"):
            value = Fraction(getattr(self, name))
            if value <= 0:
                raise ValueError(f"{name} must be positive")
            object.__setattr__(self, name, value)
        if self.exact and exact_sqrt(self.g**2 + self.gp**2) is None:
            raise ParameterError(
                "exact mode needs rational sqrt(g^2+gp^2); "
                f"got g={self.g}, gp={self.gp}"
            )

    def s_value(self) -> Fraction:
        """sqrt(g^2 + gp^2), float-rounded if irrational (never in exact mode)."""
        s2 = self.g**2 + self.gp**2
        s = exact_sqrt(s2)
        return s if s is not None else Fraction(math.sqrt(float(s2)))

    def e_charge(self) -> Fraction:
        return self.g * self.gp / self.s_value()


DEFAULT_CONFIG = ModelConfig()

PYTHAGOREAN_TRIPLES = ((3, 4, 5), (5, 12, 13), (8, 15, 17))


def _param_label(cfg: ModelConfig) -> str:
    if cfg.exact:
        return f"g={cfg.g}, gp={cfg.gp}"
    return f"g={float(cfg.g):.6g}, gp={float(cfg.gp):.6g} (float)"


# --- Lagrangian builders ----------------------------------------------------

def curl(name: str) -> Expression:
    """Antisymmetrized derivative d[mu]X[nu] - d[nu]X[mu]."""
    return field(name, "nu", derivs=("mu",)) - field(name, "mu", derivs=("nu",))


def _wedge(n1: str, n2: str) -> Expression:
    return field(n1, "mu") * field(n2, "nu") - field(n1, "nu") * field(n2, "mu")


def su2_stress_tensors(names=("A1", "A2", "A3")) -> dict:
    """Nonabelian field strengths for the gauge triplet.

    The quadratic parts follow from the commutator table of the contracted
    algebra; the third component's nonlinear part carries j^2.
    """
    a1, a2, a3 = names
    g = param("g")
    f1 = curl(a1) - g * _wedge(a2, a3)
    f2 = curl(a2) - g * _wedge(a3, a1)
    f3 = curl(a3) - jpow(2) * g * _wedge(a1, a2)
    return {a1: f1, a2: f2, a3: f3}


def build_LA(names=("A1", "A2", "A3", "B")) -> Expression:
    """Gauge kinetic Lagrangian -1/4 [j^2 F1^2 + j^2 F2^2 + F3^2] - 1/4 B^2."""
    a1, a2, a3, b = names
    f = su2_stress_tensors((a1, a2, a3))
    quarter = Fraction(-1, 4)
    w = jpow(2)
    bt = curl(b)
    return (
        quarter * (w * f[a1] * f[a1] + w * f[a2] * f[a2] + f[a3] * f[a3])
        + quarter * bt * bt
    )


def covariant_phi_derivatives():
    """Component covariant derivatives (D phi1, D phi2) of the doublet."""
    ih = const(ComplexRational(0, Fraction(1, 2)))  # i/2
    g, gp = param("g"), param("gp")
    d1 = (
        field("phi1", derivs=("mu",))
        + ih * (g * field("A3", "mu") + gp * field("B", "mu")) * field("phi1")
        + jpow(2) * ih * g * (field("A1", "mu") - imag() * field("A2", "mu"))
        * field("phi2")
    )
    d2 = (
        field("phi2", derivs=("mu",))
        - ih * (g * field("A3", "mu") - gp * field("B", "mu")) * field("phi2")
        + ih * g * (field("A1", "mu") + imag() * field("A2", "mu")) * field("phi1")
    )
    return d1, d2


def build_Lphi() -> Expression:
    """Free matter Lagrangian 1/2 |D phi1|^2 + j^2/2 |D phi2|^2 (no potential)."""
    d1, d2 = covariant_phi_derivatives()
    half = Fraction(1, 2)
    return half * conjugate(d1) * d1 + half * jpow(2) * conjugate(d2) * d2


def build_matter_radial() -> Expression:
    """Matter Lagrangian in sphere coordinates (rho, W1, W2, W3, B).

    The doublet is rho times a group column; unitarity removes the group
    factor and leaves 1/2 |d rho + (i/2) rho (g W3 + gp B)|^2 plus the
    j^2-weighted charged part (g^2/8) rho^2 [(W1)^2 + (W2)^2].
    """
    ih = const(ComplexRational(0, Fraction(1, 2)))
    g, gp = param("g"), param("gp")
    rho = field("rho")
    up = field("rho", derivs=("mu",)) + ih * rho * (
        g * field("W3", "mu") + gp * field("B", "mu")
    )
    down = ih * g * rho * (field("W1", "mu") + imag() * field("W2", "mu"))
    half = Fraction(1, 2)
    return half * conjugate(up) * up + half * jpow(2) * conjugate(down) * down


def matter_radial_display(cfg: ModelConfig) -> Expression:
    """The closed-form radial matter Lagrangian in the physical basis:
    1/2 (d rho)^2 + (g^2+gp^2)/8 rho^2 Z^2 + j^2 (g^2/4) rho^2 W+ W-."""
    g2, s2 = cfg.g**2, cfg.g**2 + cfg.gp**2
    drho = field("rho", derivs=("mu",))
    rho2 = field("rho") * field("rho")
    zz = field("Z", "mu") * field("Z", "mu")
    ww = field("Wp", "mu") * field("Wm", "mu")
    return (
        Fraction(1, 2) * drho * drho
        + const(s2 / 8) * rho2 * zz
        + jpow(2) * const(g2 / 4) * rho2 * ww
    )


# --- substitution rules -----------------------------------------------------

def contraction_rules_a() -> dict[str, Expression]:
    """Grading injection for the gauge triplet: A1 -> j A1, A2 -> j A2."""
    return {"A1": jpow() * field("A1", "_"), "A2": jpow() * field("A2", "_")}


def contraction_rules_w() -> dict[str, Expression]:
    """Same injection in radial variables (equivalently W+- -> j W+-)."""
    return {"W1": jpow() * field("W1", "_"), "W2": jpow() * field("W2", "_")}


def contraction_rules_phi() -> dict[str, Expression]:
    """Doublet grading: fiber component and charged gauge fields pick up j."""
    rules = contraction_rules_a()
    rules["phi2"] = jpow() * field("phi2")
    return rules


def _fold_s(e: Expression, g: Fraction, gp: Fraction) -> Expression:
    """Reduce each s^k, s = sqrt(g^2+gp^2), to (g^2+gp^2)^(k//2) s^(k%2),
    and put in the value of s where it is rational."""
    s2 = g * g + gp * gp
    s = exact_sqrt(s2)
    if s is not None:
        return instantiate_params(e, {"s": s})
    raw = []
    for t in e.terms:
        k = dict(t.params).get("s", 0)
        raw.append(Term(t.coeff * ComplexRational(s2 ** (k // 2)), t.jdeg,
                        tuple(p for p in t.params if p[0] != "s") + (("s", k % 2),),
                        t.r2, t.factors))
    return Expression.build(raw)


def physical_basis_rules(cfg: ModelConfig) -> dict[str, Expression]:
    g, gp = cfg.g, cfg.gp
    inv_s = _fold_s(const(1 / (g * g + gp * gp)) * param("s"), g, gp)
    cw, sw = const(g) * inv_s, const(gp) * inv_s
    return {
        "W3": cw * field("Z", "_") + sw * field("Aem", "_"),
        "B": sw * field("Z", "_") - cw * field("Aem", "_"),
        "W1": inv_sqrt2() * (field("Wp", "_") + field("Wm", "_")),
        "W2": inv_sqrt2() * imag() * (field("Wp", "_") - field("Wm", "_")),
    }


def physical_basis(e: Expression, cfg: ModelConfig) -> Expression:
    """Instantiate the couplings and rotate (W3, B) -> (Z, Aem), W1/W2 -> W+-."""
    e = instantiate_params(e, {"g": cfg.g, "gp": cfg.gp, "R": cfg.R})
    return _fold_s(substitute(e, physical_basis_rules(cfg)), cfg.g, cfg.gp)


# --- the physical Lagrangian L_base + j^2 L_fiber + j^4 L_quartic ----------

def build_L27(cfg: ModelConfig) -> Expression:
    """Graded Lagrangian L_base + j^2 L_fiber + j^4 L_quartic, assembled from
    the closed-form pieces (curls, the charged-pair tensor H, and the P/S
    mixing polynomials), with couplings instantiated at cfg."""
    return _build_L27(cfg.g, cfg.gp)


@functools.lru_cache(maxsize=4)
def _build_L27(g: Fraction, gp: Fraction) -> Expression:
    """build_L27 at (g, gp), built once per pair: nothing else of the
    config enters it."""
    s2 = g * g + gp * gp
    inv_s = _fold_s(const(1 / s2) * param("s"), g, gp)
    i_ = imag()

    zt = curl("Z")
    at = curl("Aem")
    wpt = curl("Wp")
    wmt = curl("Wm")
    h = -1 * i_ * const(g) * _wedge("Wp", "Wm")

    def v(idx: str) -> Expression:
        return const(g) * field("Z", idx) + const(gp) * field("Aem", idx)

    def xv(name: str) -> Expression:
        # [X wedge V]_{mu nu} = X_mu V_nu - X_nu V_mu
        return field(name, "mu") * v("nu") - field(name, "nu") * v("mu")

    p = wpt * xv("Wm") - wmt * xv("Wp")
    s_poly = xv("Wp") * xv("Wm")

    rho = field("rho")
    drho = field("rho", derivs=("mu",))
    l_base = (
        Fraction(1, 2) * drho * drho
        - Fraction(1, 4) * at * at
        - Fraction(1, 4) * zt * zt
        + const(s2 / 8) * rho * rho * field("Z", "mu") * field("Z", "mu")
    )
    l_fiber = (
        Fraction(-1, 2) * wpt * wmt
        + const(g * g / 4) * rho * rho * field("Wp", "mu") * field("Wm", "mu")
        - i_ * const(g / 2) * inv_s * p
        - const(g * g / (2 * s2)) * s_poly
        + const(Fraction(1, 2)) * inv_s * (const(g) * zt + const(gp) * at) * h
    )
    l_quartic = Fraction(-1, 4) * h * h
    return l_base + jpow(2) * l_fiber + jpow(4) * l_quartic


def transformed_lagrangian(cfg: ModelConfig) -> Expression:
    """Route via substitution: L in radial variables at j = 1, then j
    injected by W1/W2 -> j W1/W2, then the physical basis change."""
    at_one = reduce_mode(build_LA(("W1", "W2", "W3", "B")) + build_matter_radial(),
                         J_ONE)
    return physical_basis(substitute(at_one, contraction_rules_w()), cfg)


def _identity_verdict(check_name: str, cfg: ModelConfig, lhs: Expression,
                      rhs: Expression, failures=()) -> VerificationReport:
    """Verdict on lhs == rhs and on ``failures`` found before, decided by
    the canonical difference (the witness of a mismatch)."""
    return verdict(check_name, _param_label(cfg), witness(lhs - rhs) or list(failures))


@timed
def verify_grading(cfg: ModelConfig) -> VerificationReport:
    """Check that the substituted-and-transformed Lagrangian equals the
    assembled form of build_L27, and that only grades {0, 2, 4} occur."""
    lhs = transformed_lagrangian(cfg)
    rhs = build_L27(cfg)
    grades_ok = set(lhs.j_degrees()) <= {0, 2, 4} and set(rhs.j_degrees()) <= {0, 2, 4}
    return _identity_verdict("grading-identity", cfg, lhs, rhs,
                             [] if grades_ok else ["grades outside {0,2,4}"])


@timed
def verify_matter_radial(cfg: ModelConfig) -> VerificationReport:
    """Check the radial matter Lagrangian against its closed physical form."""
    lhs = physical_basis(build_matter_radial(), cfg)
    return _identity_verdict("matter-radial-identity", cfg, lhs,
                             matter_radial_display(cfg))


# --- mass spectrum -----------------------------------------------------------

@dataclass(frozen=True)
class MassSpectrum:
    """Vector boson masses and couplings.

    Stored: the exact rational squares ``m_Z_sq`` and ``m_W_sq`` (so spectra
    compare with zero tolerance even when the roots are irrational) and
    ``e_charge``.  Derived: ``m_Z``, ``m_W`` and ``cos_theta_W`` are roots of
    the squares, exact where rational; the photon mass ``m_A`` is
    identically 0.
    """

    m_Z_sq: Fraction
    m_W_sq: Fraction
    e_charge: "Fraction | float"

    m_A = Fraction(0)

    def __post_init__(self):
        if self.m_W_sq > self.m_Z_sq:
            raise ValueError("mass ordering violated: m_W > m_Z")

    @property
    def m_Z(self) -> "Fraction | float":
        return _sqrt_or_float(self.m_Z_sq)

    @property
    def m_W(self) -> "Fraction | float":
        return _sqrt_or_float(self.m_W_sq)

    @property
    def cos_theta_W(self) -> "Fraction | float":
        return _sqrt_or_float(self.m_W_sq / self.m_Z_sq)

    def as_dict(self) -> dict:
        out = {
            "m_A": float(self.m_A),
            "m_Z": float(self.m_Z),
            "m_W": float(self.m_W),
            "e_charge": float(self.e_charge),
            "cos_theta_W": float(self.cos_theta_W),
        }
        out["exact"] = {"m_Z_sq": str(self.m_Z_sq), "m_W_sq": str(self.m_W_sq)}
        for name in ("m_Z", "m_W", "e_charge", "cos_theta_W"):
            value = getattr(self, name)
            if isinstance(value, Fraction):
                out["exact"][name] = str(value)
        return out


def _pair_coefficient(e: Expression, f1: str, f2: str) -> Fraction:
    """Coefficient of the contracted derivative-free pair f1[a] f2[a]."""
    total = ComplexRational(0)
    for t in e.terms:
        if len(t.factors) != 2 or t.params or t.r2:
            continue
        a, b = t.factors
        if a.derivs or b.derivs or a.conj or b.conj:
            continue
        if {a.field, b.field} != {f1, f2} and (a.field, b.field) != (f1, f2):
            continue
        if a.indices == b.indices:
            total = total + t.coeff
    if total.im != 0:
        raise ValueError(f"complex mass coefficient for {f1}{f2}: {total}")
    return total.re


def _sqrt_or_float(q: Fraction):
    root = exact_sqrt(q)
    return root if root is not None else math.sqrt(float(q))


def extract_masses(cfg: ModelConfig) -> MassSpectrum:
    """Read the vector masses from quadratic derivative-free Lagrangian terms.

    Convention: (1/2) m^2 V V for a real vector, m^2 W+ W- for the charged
    pair.  At j=1 the reading uses the collapsed Lagrangian; at j=iota the
    base part carries Z and the photon while the j^2 coefficient (the fiber
    Lagrangian) carries the W mass, so the spectra can be compared across
    modes.
    """
    frozen = substitute(build_L27(cfg), {"rho": const(cfg.R)})
    parts = j_decompose(frozen)
    base = parts.get(0, Expression.zero())
    fiber = parts.get(2, Expression.zero())
    if cfg.jmode.is_one:
        total = reduce_mode(frozen, J_ONE)
        z_part = a_part = w_part = total
    else:
        z_part = a_part = base
        w_part = fiber
    m_z_sq = 2 * _pair_coefficient(z_part, "Z", "Z")
    m_a_sq = 2 * _pair_coefficient(a_part, "Aem", "Aem")
    m_w_sq = _pair_coefficient(w_part, "Wp", "Wm")
    if m_a_sq != 0:
        raise ValueError(f"unexpected photon mass term: {m_a_sq}")
    e_charge = cfg.e_charge()
    if exact_sqrt(cfg.g**2 + cfg.gp**2) is None:  # s was rounded to a float
        e_charge = float(e_charge)
    return MassSpectrum(m_z_sq, m_w_sq, e_charge)


# --- gauge invariance --------------------------------------------------------

def u1_variation_rules(cfg: ModelConfig) -> dict[str, Expression]:
    """First-order electromagnetic U(1) action on the physical fields:
    the W pair rotates by charge +-2, the photon shifts by (2/e) d omega,
    and Z is inert.  2/e = 2s/(g gp)."""
    g, gp = cfg.g, cfg.gp
    two_over_e = _fold_s(const(2 / (g * gp)) * param("s"), g, gp)
    return {
        "Wp": -2 * imag() * field("omega") * field("Wp", "_"),
        "Wm": 2 * imag() * field("omega") * field("Wm", "_"),
        "Aem": two_over_e * field("omega", derivs=("_",)),
        "Z": Expression.zero(),
        "rho": Expression.zero(),
    }


@timed
def check_u1_invariance(cfg: ModelConfig | None = None) -> VerificationReport:
    """delta L = 0 for the infinitesimal U(1) laws on the physical Lagrangian."""
    cfg = cfg or DEFAULT_CONFIG
    delta = _fold_s(first_order_variation(build_L27(cfg), u1_variation_rules(cfg)),
                    cfg.g, cfg.gp)
    return verdict("u1-invariance", _param_label(cfg), witness(delta))


def su2_variation_rules() -> dict[str, Expression]:
    """Infinitesimal SU(2;j) action with parameters eps_k (rescaled by 1/g
    so every coefficient stays polynomial in the couplings):
    delta A^a = -d eps_a + g [eps, A]^a and delta phi = g sum eps_k T_k phi,
    with the contracted commutator table supplying the j^2 weights."""
    g = param("g")
    ihg = const(ComplexRational(0, Fraction(1, 2))) * g  # i g / 2
    e1, e2, e3 = field("eps1"), field("eps2"), field("eps3")
    return {
        "A1": g * (e3 * field("A2", "_") - e2 * field("A3", "_"))
        - field("eps1", derivs=("_",)),
        "A2": g * (e1 * field("A3", "_") - e3 * field("A1", "_"))
        - field("eps2", derivs=("_",)),
        "A3": jpow(2) * g * (e2 * field("A1", "_") - e1 * field("A2", "_"))
        - field("eps3", derivs=("_",)),
        "B": Expression.zero(),
        "phi1": ihg * e3 * field("phi1")
        + jpow(2) * ihg * (e1 - imag() * e2) * field("phi2"),
        "phi2": ihg * (e1 + imag() * e2) * field("phi1") - ihg * e3 * field("phi2"),
    }


@functools.lru_cache(maxsize=1)
def _su2_delta() -> Expression:
    """delta(L_gauge + L_matter), graded by j and the same for every mode."""
    return first_order_variation(build_LA() + build_Lphi(), su2_variation_rules())


@timed
def check_su2_invariance(mode: JMode) -> VerificationReport:
    """delta(L_gauge + L_matter) = 0 in the given mode, fully symbolically."""
    reduced = reduce_mode(_su2_delta(), mode)
    return verdict("su2-invariance", mode.label(), witness(reduced))


# --- trace identity -----------------------------------------------------------

@timed
def verify_trace_identity() -> VerificationReport:
    """tr(F^2) is unchanged by conjugation with a group element.

    In each mode the normal form of tr((h^dagger F h)^2) - tr(F^2) decides
    it for every h and F at once (the sum over index pairs is linear, so
    one pair suffices); j=0.001 is folded in exactly.
    """
    h, f = symbolic_element("alpha", "beta"), symbolic_lie_element()
    rotated = h.dagger() @ f @ h
    diff = (rotated @ rotated).trace() - (f @ f).trace()
    failures = [w for mode in DEFAULT_MODES
                for w in witness(group_normal_form(diff, mode), mode.label())]
    return verdict("trace-identity", "all", failures)

