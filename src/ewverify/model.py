"""Bosonic Lagrangian of the contracted-gauge-group electroweak model.

Constructs the gauge-field and matter Lagrangians over the SU(2;j) x U(1)
field content, the radial (sphere-coordinate) form of the matter sector,
the change to the physical field basis (Z, photon, W+/W-), and the fully
graded Lagrangian L = L_base + j^2 L_fiber + j^4 L_quartic.  Verification
operations check the grading identity, gauge invariance at first order,
the conjugation-invariance of the gauge kinetic trace, and extract the
vector boson mass spectrum.

Exact parameter points use Pythagorean couplings (g, gp, sqrt(g^2+gp^2)
all rational) so that every identity is decided by the canonical form with
zero tolerance; float parameter points fall back to the randomized numeric
oracle.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction

from .contraction import J_NILPOTENT, J_ONE, ComplexRational, JMode
from .fields import (
    Expression,
    conjugate,
    const,
    field,
    first_order_variation,
    imag,
    instantiate_params,
    inv_sqrt2,
    j_decompose,
    jpow,
    param,
    reduce_mode,
    substitute,
)
from .matrices import Mat2, lie_element, random_su2_pair, su2_element
from .numeric import EqualsPolicy, equals
from .report import VerificationReport, timed, verdict


class ParameterError(ValueError):
    """Exact mode requires sqrt(g^2 + gp^2) to be rational."""


class DegenerateStateError(ValueError):
    """The hermitian form of the doublet vanishes in the requested mode."""


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
    samples: int = 1000
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
        """sqrt(g^2 + gp^2): exact in exact mode, float-rounded otherwise."""
        s = exact_sqrt(self.g**2 + self.gp**2)
        if s is not None:
            return s
        if self.exact:
            raise ParameterError("sqrt(g^2+gp^2) is irrational in exact mode")
        return Fraction(math.sqrt(float(self.g**2 + self.gp**2)))

    def e_charge(self) -> Fraction:
        return self.g * self.gp / self.s_value()

    def policy(self, trials: int = 20, rel_tol: float = 1e-9) -> EqualsPolicy:
        return EqualsPolicy(trials=trials, rel_tol=rel_tol, seed=self.seed)


DEFAULT_CONFIG = ModelConfig()

PYTHAGOREAN_TRIPLES = ((3, 4, 5), (5, 12, 13), (8, 15, 17))


def _param_label(cfg: ModelConfig) -> str:
    if cfg.exact:
        return f"g={cfg.g}, gp={cfg.gp}"
    return f"g={float(cfg.g):.6g}, gp={float(cfg.gp):.6g} (float)"


# --- Lagrangian builders ----------------------------------------------------

def curl(name: str, mu: str = "mu", nu: str = "nu") -> Expression:
    """Antisymmetrized derivative d[mu]X[nu] - d[nu]X[mu]."""
    return field(name, nu, derivs=(mu,)) - field(name, mu, derivs=(nu,))


def _wedge(n1: str, n2: str, mu: str = "mu", nu: str = "nu") -> Expression:
    return field(n1, mu) * field(n2, nu) - field(n1, nu) * field(n2, mu)


def su2_stress_tensors(names=("A1", "A2", "A3"), graded: bool = True) -> dict:
    """Nonabelian field strengths for the gauge triplet.

    The quadratic parts follow from the commutator table of the contracted
    algebra; the third component's nonlinear part carries j^2 when graded.
    """
    a1, a2, a3 = names
    g = param("g")
    f1 = curl(a1) - g * _wedge(a2, a3)
    f2 = curl(a2) - g * _wedge(a3, a1)
    nl3 = g * _wedge(a1, a2)
    f3 = curl(a3) - (jpow(2) * nl3 if graded else nl3)
    return {a1: f1, a2: f2, a3: f3}


def build_LA(names=("A1", "A2", "A3", "B"), graded: bool = True) -> Expression:
    """Gauge kinetic Lagrangian -1/4 [j^2 F1^2 + j^2 F2^2 + F3^2] - 1/4 B^2."""
    a1, a2, a3, b = names
    f = su2_stress_tensors((a1, a2, a3), graded)
    quarter = Fraction(-1, 4)
    w = jpow(2) if graded else const(1)
    bt = curl(b)
    return (
        quarter * (w * f[a1] * f[a1] + w * f[a2] * f[a2] + f[a3] * f[a3])
        + quarter * bt * bt
    )


def covariant_phi_derivatives(mu: str = "mu", graded: bool = True):
    """Component covariant derivatives (D phi1, D phi2) of the doublet."""
    ih = const(ComplexRational(0, Fraction(1, 2)))  # i/2
    g, gp = param("g"), param("gp")
    w2 = jpow(2) if graded else const(1)
    d1 = (
        field("phi1", derivs=(mu,))
        + ih * (g * field("A3", mu) + gp * field("B", mu)) * field("phi1")
        + w2 * ih * g * (field("A1", mu) - imag() * field("A2", mu)) * field("phi2")
    )
    d2 = (
        field("phi2", derivs=(mu,))
        - ih * (g * field("A3", mu) - gp * field("B", mu)) * field("phi2")
        + ih * g * (field("A1", mu) + imag() * field("A2", mu)) * field("phi1")
    )
    return d1, d2


def build_Lphi(graded: bool = True) -> Expression:
    """Free matter Lagrangian 1/2 |D phi1|^2 + j^2/2 |D phi2|^2 (no potential)."""
    d1, d2 = covariant_phi_derivatives("mu", graded)
    half = Fraction(1, 2)
    w2 = jpow(2) if graded else const(1)
    return half * conjugate(d1) * d1 + half * w2 * conjugate(d2) * d2


def build_matter_radial(graded: bool = True) -> Expression:
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
    w2 = jpow(2) if graded else const(1)
    return half * conjugate(up) * up + half * w2 * conjugate(down) * down


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


def physical_basis_rules(cfg: ModelConfig) -> dict[str, Expression]:
    g, gp, s = cfg.g, cfg.gp, cfg.s_value()
    return {
        "W3": const(g / s) * field("Z", "_") + const(gp / s) * field("Aem", "_"),
        "B": const(gp / s) * field("Z", "_") - const(g / s) * field("Aem", "_"),
        "W1": inv_sqrt2() * (field("Wp", "_") + field("Wm", "_")),
        "W2": inv_sqrt2() * imag() * (field("Wp", "_") - field("Wm", "_")),
    }


def inverse_physical_rules(cfg: ModelConfig) -> dict[str, Expression]:
    g, gp, s = cfg.g, cfg.gp, cfg.s_value()
    return {
        "Z": const(g / s) * field("W3", "_") + const(gp / s) * field("B", "_"),
        "Aem": const(gp / s) * field("W3", "_") - const(g / s) * field("B", "_"),
        "Wp": inv_sqrt2() * (field("W1", "_") - imag() * field("W2", "_")),
        "Wm": inv_sqrt2() * (field("W1", "_") + imag() * field("W2", "_")),
    }


def physical_basis(e: Expression, cfg: ModelConfig) -> Expression:
    """Instantiate the couplings and rotate (W3, B) -> (Z, Aem), W1/W2 -> W+-."""
    e = instantiate_params(e, {"g": cfg.g, "gp": cfg.gp, "R": cfg.R})
    return substitute(e, physical_basis_rules(cfg))


# --- the graded physical Lagrangian ----------------------------------------

def build_L27(cfg: ModelConfig) -> Expression:
    """Graded Lagrangian L_base + j^2 L_fiber + j^4 L_quartic, assembled from
    the closed-form pieces (curls, the charged-pair tensor H, and the P/S
    mixing polynomials), with couplings instantiated at cfg."""
    g, gp = cfg.g, cfg.gp
    s = cfg.s_value()
    s2 = g * g + gp * gp
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
        - i_ * const(g / (2 * s)) * p
        - const(g * g / (2 * s * s)) * s_poly
        + const(Fraction(1, 2) / s) * (const(g) * zt + const(gp) * at) * h
    )
    l_quartic = Fraction(-1, 4) * h * h
    return l_base + jpow(2) * l_fiber + jpow(4) * l_quartic


def transformed_lagrangian(cfg: ModelConfig) -> Expression:
    """Route via substitution: ungraded L in radial variables, grading
    injected by W1/W2 -> j W1/W2, then the physical basis change."""
    l_gauge = build_LA(("W1", "W2", "W3", "B"), graded=False)
    l_matter = build_matter_radial(graded=False)
    graded = substitute(l_gauge + l_matter, contraction_rules_w())
    return physical_basis(graded, cfg)


@timed
def verify_grading(cfg: ModelConfig) -> VerificationReport:
    """Check that the substituted-and-transformed Lagrangian equals the
    assembled graded form, and that only grades {0, 2, 4} occur."""
    lhs = transformed_lagrangian(cfg)
    rhs = build_L27(cfg)
    grades_ok = set(lhs.j_degrees()) <= {0, 2, 4} and set(rhs.j_degrees()) <= {0, 2, 4}
    res = equals(lhs, rhs, cfg.policy())
    failures = [] if res.equal and grades_ok else [res.witness or "grades outside {0,2,4}"]
    return verdict("grading-identity", _param_label(cfg), failures,
                   decision_path=res.decision_path, error=res.max_rel_error)


@timed
def verify_matter_radial(cfg: ModelConfig) -> VerificationReport:
    """Check the radial matter Lagrangian against its closed physical form."""
    lhs = physical_basis(build_matter_radial(graded=True), cfg)
    rhs = matter_radial_display(cfg)
    res = equals(lhs, rhs, cfg.policy())
    failures = [] if res.equal else [res.witness]
    return verdict("matter-radial-identity", _param_label(cfg), failures,
                   decision_path=res.decision_path, error=res.max_rel_error)


# --- radial decomposition ---------------------------------------------------

def radial_split(phi1, phi2, mode: JMode):
    """Split the doublet into a radius and a group element: phi = rho h phi0.

    Returns (rho, h) with h unimodular and unitary and first column
    phi/rho.  Exact when the reduced form is a perfect rational square.
    Raises :class:`DegenerateStateError` when the form vanishes (e.g. a
    pure fiber state at the contracted value of j).
    """
    from .contraction import ContractionScalar as CS

    phi1 = ComplexRational.of(phi1)
    phi2 = ComplexRational.of(phi2)
    form = CS.term(phi1.abs2()) + CS.term(phi2.abs2(), 2)
    reduced = form.reduce(mode)
    if mode.is_numeric:
        rho2 = Fraction(reduced.real)
    else:
        rho2 = reduced.coeff(0).re
    if rho2 == 0:
        raise DegenerateStateError("doublet has zero norm in this mode")
    root = exact_sqrt(rho2)
    rho = root if root is not None else math.sqrt(float(rho2))
    chi1 = phi1 / ComplexRational(Fraction(rho) if root is not None else Fraction(float(rho)))
    chi2 = phi2 / ComplexRational(Fraction(rho) if root is not None else Fraction(float(rho)))
    h = Mat2(
        (
            (CS.term(chi1), CS.term(-chi2.conjugate(), 1)),
            (CS.term(chi2, 1), CS.term(chi1.conjugate())),
        )
    )
    return rho, h.reduce(mode)


# --- mass spectrum -----------------------------------------------------------

@dataclass(frozen=True)
class MassSpectrum:
    """Vector boson masses and couplings; the photon mass is identically 0.

    ``m_Z_sq`` and ``m_W_sq`` keep the exact rational squares so spectra can
    be compared with zero tolerance even when the roots are irrational.
    """

    m_A: Fraction
    m_Z: "Fraction | float"
    m_W: "Fraction | float"
    e_charge: "Fraction | float"
    cos_theta_W: "Fraction | float"
    m_Z_sq: Fraction
    m_W_sq: Fraction

    def __post_init__(self):
        if self.m_A != 0:
            raise ValueError("photon must be massless")
        if self.m_W_sq > self.m_Z_sq:
            raise ValueError("mass ordering violated: m_W > m_Z")

    def same_spectrum(self, other: "MassSpectrum") -> bool:
        return (
            self.m_A == other.m_A
            and self.m_Z_sq == other.m_Z_sq
            and self.m_W_sq == other.m_W_sq
            and self.e_charge == other.e_charge
            and self.cos_theta_W == other.cos_theta_W
        )

    def as_dict(self) -> dict:
        def num(x):
            return float(x)

        out = {
            "m_A": num(self.m_A),
            "m_Z": num(self.m_Z),
            "m_W": num(self.m_W),
            "e_charge": num(self.e_charge),
            "cos_theta_W": num(self.cos_theta_W),
        }
        out["exact"] = {
            "m_Z_sq": str(self.m_Z_sq),
            "m_W_sq": str(self.m_W_sq),
        }
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
    s = cfg.s_value()
    return MassSpectrum(
        m_A=Fraction(0),
        m_Z=_sqrt_or_float(m_z_sq),
        m_W=_sqrt_or_float(m_w_sq),
        e_charge=cfg.g * cfg.gp / s,
        cos_theta_W=_sqrt_or_float(m_w_sq / m_z_sq),
        m_Z_sq=m_z_sq,
        m_W_sq=m_w_sq,
    )


# --- gauge invariance --------------------------------------------------------

def u1_variation_rules(cfg: ModelConfig) -> dict[str, Expression]:
    """First-order electromagnetic U(1) action on the physical fields:
    the W pair rotates by charge +-2, the photon shifts by (2/e) d omega,
    and Z is inert."""
    two_over_e = 2 / cfg.e_charge()
    return {
        "Wp": -2 * imag() * field("omega") * field("Wp", "_"),
        "Wm": 2 * imag() * field("omega") * field("Wm", "_"),
        "Aem": const(two_over_e) * field("omega", derivs=("_",)),
        "Z": Expression.zero(),
        "rho": Expression.zero(),
    }


@timed
def check_u1_invariance(cfg: ModelConfig | None = None) -> VerificationReport:
    """delta L = 0 for the infinitesimal U(1) laws on the physical Lagrangian."""
    cfg = cfg or DEFAULT_CONFIG
    delta = first_order_variation(build_L27(cfg), u1_variation_rules(cfg))
    failures = [] if delta.is_zero() else [str(delta)[:200]]
    return verdict("u1-invariance", _param_label(cfg), failures)


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


@timed
def check_su2_invariance(mode: JMode) -> VerificationReport:
    """delta(L_gauge + L_matter) = 0 in the given mode, fully symbolically."""
    lagrangian = build_LA() + build_Lphi()
    delta = first_order_variation(lagrangian, su2_variation_rules())
    reduced = reduce_mode(delta, mode)
    failures = [] if reduced.is_zero() else [str(reduced)[:200]]
    return verdict("su2-invariance", mode.label(), failures)


# --- trace identity -----------------------------------------------------------

def _random_antisymmetric_components(rng: random.Random):
    """f^k_{mu nu} = -f^k_{nu mu} over the independent index pairs."""
    pairs = [(m, n) for m in range(4) for n in range(m + 1, 4)]
    return {
        (m, n): tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(3))
        for (m, n) in pairs
    }


@timed
def verify_trace_identity(samples: int, seed: int) -> VerificationReport:
    """tr(F^2) is unchanged by conjugation with a group element, checked on
    random (h, F) draws in all three modes: exactly in the rational modes,
    within 1e-10 in the float mode."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    worst = 0.0
    exact_mismatch = False
    failures = []
    for mode in (J_ONE, J_NILPOTENT, JMode.numeric(Fraction(1, 1000))):
        rng = random.Random(f"{seed}:{mode.kind}")
        for k in range(samples):
            alpha, beta = random_su2_pair(rng, mode)
            h = su2_element(alpha, beta, mode)
            comps = _random_antisymmetric_components(rng)
            t_direct = None
            t_conj = None
            for (m, n), (f1, f2, f3) in comps.items():
                fmat = lie_element(f1, f2, f3, mode)
                rotated = h.dagger() @ fmat @ h
                d = (fmat @ fmat).trace()
                c = (rotated @ rotated).trace()
                t_direct = d if t_direct is None else t_direct + d
                t_conj = c if t_conj is None else t_conj + c
            if mode.is_numeric:
                err = abs(t_direct - t_conj)
                worst = max(worst, err)
                if err > 1e-10:
                    failures.append(f"{mode.label()} sample {k}: err={err}")
            else:
                if t_direct.reduce(mode) != t_conj.reduce(mode):
                    exact_mismatch = True
                    failures.append(f"{mode.label()} sample {k}: exact mismatch")
    # an exact mismatch outranks any float error: report the -1.0 marker
    return verdict("trace-identity", "all", failures[:3],
                   decision_path="numeric-oracle",
                   error=math.inf if exact_mismatch else worst)


def float_config(g: float, gp: float, R: float = 2.0, seed: int = 42) -> ModelConfig:
    """Convenience constructor for float parameter points (numeric oracle)."""
    return ModelConfig(
        g=Fraction(g), gp=Fraction(gp), R=Fraction(R), seed=seed, exact=False
    )


def with_mode(cfg: ModelConfig, mode: JMode) -> ModelConfig:
    return replace(cfg, jmode=mode)
